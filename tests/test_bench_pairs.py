"""tools/bench_pairs.py: pair statistics, the claim rule, and run order."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_is_numpy_linear_quartiles():
    runs = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
    out = bench_pairs.summary(runs)
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    assert (out["q1"], out["median"], out["q3"]) == (q1, median, q3)
    assert out["iqr"] == q3 - q1 and out["runs"] == runs


def test_pairs_count_wins_and_losses_but_not_ties():
    out = bench_pairs.compare([1.0, 1.0, 1.0], [0.9, 1.0, 1.1], "lower", 0.25)
    assert (out["pairs_change_better"], out["pairs_change_worse"]) == (1, 1)
    out = bench_pairs.compare([1.0, 1.0, 1.0], [0.9, 1.0, 1.1], "higher", 0.25)
    assert (out["pairs_change_better"], out["pairs_change_worse"]) == (1, 1)


@pytest.mark.parametrize("better, change, worse", [
    ("lower", 1.3, True), ("lower", 1.2, False), ("lower", 0.5, False),
    ("higher", 0.7, True), ("higher", 0.8, False), ("higher", 2.0, False),
])
def test_worse_than_bound_reads_the_metric_direction(better, change, worse):
    out = bench_pairs.compare([1.0] * 4, [change] * 4, better, 0.25)
    assert out["worse_than_bound"] is worse


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    wide = [1.0, 1.4, 0.8, 1.2, 0.9, 1.5]  # IQR 0.425 of a median 1.1
    assert bench_pairs.compare(wide, [1.05] * 6, "lower", 0.25)["unresolved"]
    assert not bench_pairs.compare(wide, [1.05] * 6, "lower", 0.5)["unresolved"]
    # every change run better than every parent run settles it
    assert not bench_pairs.compare(wide, [0.7] * 6, "lower", 0.25)["unresolved"]
    assert bench_pairs.compare(wide, [0.7] * 6, "higher", 0.25)["unresolved"]
    assert not bench_pairs.compare(wide, [1.6] * 6, "higher", 0.25)["unresolved"]
    assert not bench_pairs.compare([1.0, 1.02, 0.98, 1.01], [1.5] * 4, "lower", 0.25)["unresolved"]


def _claim(parent, change, share=0.0, correct=True, failed=(0, 0)):
    runs = {
        "seeds": list(range(len(parent))),
        "correct": correct,
        "failed": dict(zip(("parent", "change"), failed)),
        "metrics": {"wall_s": {"better": "lower",
                               **bench_pairs.compare(parent, change, "lower", 0.25)}},
    }
    return bench_pairs.claim_result(runs, "w", "wall_s", share)


def test_claim_needs_nine_of_ten_pairs_a_gap_above_the_iqr_and_the_share():
    parent = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]
    faster = [p * 0.8 for p in parent]
    assert _claim(parent, faster, 0.10)["met"]
    assert not _claim(parent, faster, 0.25)["met"]  # the share is not reached
    two_lost = faster[:8] + [1.2, 1.2]
    assert not _claim(parent, two_lost)["met"]  # 8 of 10 pairs
    one_lost = faster[:9] + [1.2]
    assert _claim(parent, one_lost)["met"]  # 9 of 10 pairs
    # every pair won, but by less than the parent's quartile spread
    close = [p - 0.01 for p in parent]
    claim = _claim(parent, close)
    assert claim["pairs_change_better"] == 10 and claim["median_gap"] < claim["parent_iqr"]
    assert not claim["met"]
    # faster, but with more failed operations than the parent, or a wrong run
    assert not _claim(parent, faster, 0.10, failed=(0, 2))["met"]
    assert _claim(parent, faster, 0.10, failed=(2, 2))["met"]
    assert not _claim(parent, faster, 0.10, correct=False)["met"]


def test_src_lines_counts_the_package_and_harness_modules(tmp_path):
    package = tmp_path / "src" / "zodd"
    (package / "harness" / "deeper").mkdir(parents=True)
    (package / "core.py").write_text("a = 1\nb = 2\n\n")
    (package / "harness" / "cli.py").write_text("x = 1\ny = 2")  # no final newline
    (package / "notes.txt").write_text("not code\n")
    (package / "harness" / "deeper" / "more.py").write_text("z = 3\n")
    assert bench_pairs.src_lines(tmp_path) == 4


def test_machine_records_the_usable_cpus(monkeypatch):
    # a thread-parallel gain depends on the CPUs the runs may use, not on the box's count
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(bench_pairs.os, "cpu_count", lambda: 8)
    out = bench_pairs.machine()
    assert (out["cpus"], out["nproc"]) == (3, 8)
    monkeypatch.delattr(bench_pairs.os, "sched_getaffinity")
    assert bench_pairs.machine()["cpus"] == 8


def test_host_load_reads_the_load_and_the_steal_ticks(tmp_path, monkeypatch):
    stat = tmp_path / "stat"
    # user nice system idle iowait irq softirq steal guest guest_nice
    stat.write_text("cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n")
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (1.5, 1.0, 0.5))
    assert bench_pairs.host_load(str(stat)) == {"loadavg": [1.5, 1.0, 0.5],
                                                "steal_ticks": [30, 1000]}
    # a missing file or load average is recorded as unknown, not an error
    monkeypatch.delattr(bench_pairs.os, "getloadavg")
    assert bench_pairs.host_load(str(tmp_path / "none")) == {"loadavg": None,
                                                             "steal_ticks": None}


def test_host_during_is_the_steal_share_between_two_readings():
    before = {"loadavg": [1.0, 1.0, 1.0], "steal_ticks": [30, 1000]}
    after = {"loadavg": [2.0, 1.2, 1.0], "steal_ticks": [80, 1200]}
    assert bench_pairs.host_during(before, after) == {
        "loadavg_before": [1.0, 1.0, 1.0], "loadavg_after": [2.0, 1.2, 1.0],
        "steal_share": 0.25}
    assert bench_pairs.host_during(before, {"loadavg": None, "steal_ticks": None}) == {
        "loadavg_before": [1.0, 1.0, 1.0], "loadavg_after": None, "steal_share": None}


def test_every_pair_records_the_host_around_it(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 18,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }))
    readings = iter(range(100))

    def fake_load():
        i = next(readings)  # two readings per pair: i before it, i + 1 after it
        return {"loadavg": [float(i)] * 3, "steal_ticks": [i * i, 100 * i]}

    monkeypatch.setattr(bench_pairs, "host_load", fake_load)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}})
    monkeypatch.setattr(bench_pairs, "git_ids", lambda root: {"sha": root})
    monkeypatch.setattr(bench_pairs, "src_lines", lambda root: 1)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", "p", "--change", str(tmp_path), "--seeds", "1-2",
                      "--out", str(out)])
    host = json.loads(out.read_text())["workloads"]["w"]["host"]
    assert [h["loadavg_before"][0] for h in host] == [0.0, 2.0]
    assert [h["loadavg_after"][0] for h in host] == [1.0, 3.0]
    # (1 - 0) / 100 and (9 - 4) / 100 of the ticks were stolen
    assert [h["steal_share"] for h in host] == [0.01, 0.05]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("12201-12203,7") == [12201, 12202, 12203, 7]


def test_runs_alternate_which_side_goes_first(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 18,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }))
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        calls.append((root, seed))
        value = 1.0 if root == "p" else 0.8
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"wall_s": {"value": value + seed * 1e-3, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    monkeypatch.setattr(bench_pairs, "git_ids", lambda root: {"sha": root})
    monkeypatch.setattr(bench_pairs, "src_lines", lambda root: 100 if root == "p" else 90)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", "p", "--change", str(tmp_path), "--seeds", "1-4",
                      "--claim", "w:wall_s:0.1", "--out", str(out)])
    change = str(tmp_path)
    assert calls == [("p", 1), (change, 1), (change, 2), ("p", 2),
                     ("p", 3), (change, 3), (change, 4), ("p", 4)]
    result = json.loads(out.read_text())
    wall = result["workloads"]["w"]["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [1.001, 1.002, 1.003, 1.004]
    assert wall["pairs_change_better"] == 4
    assert result["workloads"]["w"]["attempted"] == {"parent": 12, "change": 12}
    assert (result["parent"]["src_lines"], result["change"]["src_lines"]) == (100, 90)
    # 4 of 4 pairs, a 0.2 s gap against a 0.0015 s IQR, and 20% against 10%
    assert result["claim"]["met"] is True
