"""Compare two zodd checkouts on the benchmark and write a ``BENCH_*.json``.

Runs ``perfbench/run.py --trace 0`` in alternating pairs, one pair per seed
and workload, in a parent and a change checkout (each run from its own
root, so each builds what it runs from its own ``src/``).  The parent goes
first on the first, third, ... seed and the change on the others.  For
every end-to-end metric of ``BENCHMARK.json`` it records each side's runs,
median, quartiles (numpy's linear interpolation) and IQR, how many pairs
the change won and lost, and whether the change's median is worse than the
metric's bound.  A metric is unresolved when the parent's IQR is wider than
the bound, relative to the parent's median, unless every change run beats
every parent run: its spread can then hide a change as large as the bound.
It also records each side's ``src_lines``, the lines of code of the
package, and for every pair the host's load averages before and after it
and the share of CPU time the hypervisor stole meanwhile (read from
``/proc/stat``), so a ``BENCH_*.json`` shows which pairs ran on a busy
host.  Every workload of ``BENCHMARK.json`` runs at its
``run_seconds``.  A claimed metric is met when every run of the workload is
correct, the change fails no more operations than the parent, the change is
better in at least nine of ten pairs, its median gap is larger than the
parent's IQR, and, when given, its median improves by at least the claimed
share.

Example, from the root of the change checkout::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --seeds 12201-12210 --claim pricing_tune:wall_s:0.10 \\
        --traced-seed 12001 --out BENCH_4.json

Only the standard library and numpy are used; nothing under
``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

RUN = [sys.executable, "perfbench/run.py"]


def run_bench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call in ``root``: its final JSON line."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_ids(root: str) -> dict:
    """HEAD's sha and the tree hash of its ``src/``, and whether ``src/`` differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout.strip()

    return {
        "sha": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "src_dirty": bool(git("status", "--porcelain", "--", "src")),
    }


def src_lines(root: str) -> int:
    """Lines of ``src/zodd/*.py`` and ``src/zodd/harness/*.py``, as ``wc -l`` counts them."""
    package = Path(root, "src", "zodd")
    return sum(path.read_bytes().count(b"\n")
               for pattern in ("*.py", "harness/*.py") for path in package.glob(pattern))


def machine() -> dict:
    """The box: ``cpus`` is how many CPUs this process may run on, ``nproc`` how many it has."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh
                     if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {"nproc": os.cpu_count(), "cpus": cpus, "cpu": cpu, "numpy": np.__version__,
            "python": platform.python_version()}


def host_load(stat_path: str = "/proc/stat") -> dict:
    """The load averages and the (steal, total) CPU ticks of ``stat_path``, read only.

    The ticks are the cumulative counters of the aggregate ``cpu`` line, the
    first eight fields from ``user`` to ``steal``; either entry is None where
    it cannot be read.
    """
    try:
        loadavg = list(os.getloadavg())
    except (AttributeError, OSError):
        loadavg = None
    try:
        with open(stat_path) as fh:
            fields = fh.readline().split()
        ticks = [int(v) for v in fields[1:9]]
        steal = [ticks[7], sum(ticks)] if fields[0] == "cpu" and len(ticks) == 8 else None
    except (OSError, ValueError, IndexError):
        steal = None
    return {"loadavg": loadavg, "steal_ticks": steal}


def host_during(before: dict, after: dict) -> dict:
    """Load averages around one pair, and the share of CPU ticks stolen between them."""
    share = None
    if before["steal_ticks"] and after["steal_ticks"]:
        stolen, total = (b - a for a, b in zip(before["steal_ticks"], after["steal_ticks"]))
        share = stolen / total if total > 0 else None
    return {"loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"],
            "steal_share": share}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "runs": runs}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both sides of one metric and the pairwise and median comparison."""
    sign = -1.0 if better == "lower" else 1.0
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"] if p["median"] else math.nan
    gains = [sign * (b - a) for a, b in zip(parent, change)]
    beats_every_run = min(sign * v for v in change) > max(sign * v for v in parent)
    return {
        "parent": p,
        "change": c,
        "change_over_parent_median": ratio,
        "relative_change_of_median": ratio - 1.0,
        "pairs_change_better": sum(g > 0 for g in gains),
        "pairs_change_worse": sum(g < 0 for g in gains),
        "worse_than_bound": bool(sign * (ratio - 1.0) < -bound),
        "unresolved": bool(p["iqr"] > bound * abs(p["median"]) and not beats_every_run),
    }


def claim_result(runs: dict, workload: str, metric: str, share: float) -> dict:
    """The 9-of-10-pairs and gap-above-IQR rule, plus the claimed share.

    ``runs`` is one workload's entry; a gain does not count when a run is
    wrong or the change fails more operations than the parent.
    """
    entry = runs["metrics"][metric]
    pairs = len(runs["seeds"])
    sign = -1.0 if entry["better"] == "lower" else 1.0
    gap = sign * (entry["change"]["median"] - entry["parent"]["median"])
    gain = sign * entry["relative_change_of_median"]
    needed = math.ceil(0.9 * pairs)
    return {
        "metric": metric,
        "workload": workload,
        "parent_median": entry["parent"]["median"],
        "change_median": entry["change"]["median"],
        "relative_change_of_median": entry["relative_change_of_median"],
        "pairs_change_better": entry["pairs_change_better"],
        "pairs": pairs,
        "median_gap": gap,
        "parent_iqr": entry["parent"]["iqr"],
        "target": (f"median at least {share:.0%} better, better in at least {needed} of "
                   f"{pairs} pairs, gap above the parent IQR, every run correct and no "
                   f"more failed operations than the parent"),
        "met": bool(runs["correct"] and runs["failed"]["change"] <= runs["failed"]["parent"]
                    and entry["pairs_change_better"] >= needed
                    and gap > entry["parent"]["iqr"] and gain >= share),
    }


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the change checkout")
    parser.add_argument("--seeds", required=True, help="e.g. 12201-12210: one pair per seed")
    parser.add_argument("--claim", default=None,
                        help="WORKLOAD:METRIC[:SHARE], a gain claimed before measuring")
    parser.add_argument("--traced-seed", type=int, default=None,
                        help="also run each workload once traced (--trace 1) per side")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    roots = {"parent": args.parent, "change": args.change}

    out = {
        "title": args.title,
        "parent": {**git_ids(args.parent), "src_lines": src_lines(args.parent)},
        # the change's commit may still be amended; its src/ tree is what ran
        "change": {**{k: v for k, v in git_ids(args.change).items() if k != "sha"},
                   "src_lines": src_lines(args.change)},
        "machine": machine(),
        "harness": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "run_seconds": seconds,
            "pairs": (f"seeds {args.seeds}, one pair per seed and workload; the parent runs "
                      f"first on the 1st, 3rd, ... seed, the change first on the others"),
            "quartiles": "numpy.percentile, linear interpolation",
            "tool": "tools/bench_pairs.py",
        },
        "workloads": {},
    }
    for workload in workloads:
        runs = {"parent": [], "change": []}
        host = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            before = host_load()
            for side in order:
                result = run_bench(roots[side], workload, seed, seconds, 0)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
            host.append(host_during(before, host_load()))
        entry = {
            "seeds": seeds,
            "host": host,
            "correct": all(r["correct"] for side in runs.values() for r in side),
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "metrics": {},
        }
        for name, spec in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
            entry["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                **compare(values["parent"], values["change"], spec["better"], spec["bound"]),
            }
        out["workloads"][workload] = entry

    if args.traced_seed is not None:
        out["harness"]["traced"] = (f"python3 perfbench/run.py --workload W --seed "
                                    f"{args.traced_seed} --seconds {seconds:g} --trace 1, once per side")
        out["traced"] = {
            workload: {side: {k: v for k, v in run_bench(root, workload, args.traced_seed,
                                                         seconds, 1).items() if k != "attempted"}
                       for side, root in roots.items()}
            for workload in workloads
        }
        for sides in out["traced"].values():
            for result in sides.values():
                result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}

    if args.claim:
        workload, metric, *share = args.claim.split(":")
        out["claim"] = claim_result(out["workloads"][workload], workload, metric,
                                    float(share[0]) if share else 0.0)
    out["notes"] = []  # what the numbers do not say, written by hand

    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    if args.claim:
        claim = out["claim"]
        print(f"claim {claim['workload']} {claim['metric']}: "
              f"{claim['relative_change_of_median']:+.1%}, "
              f"{claim['pairs_change_better']}/{claim['pairs']} pairs, met={claim['met']}")
    for flag, label in (("worse_than_bound", "worse than bound"), ("unresolved", "unresolved")):
        listed = [(w, m) for w, e in out["workloads"].items()
                  for m, v in e["metrics"].items() if v[flag]]
        print(f"{label}:", listed or "none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
