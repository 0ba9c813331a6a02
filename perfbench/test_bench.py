"""Tests of the benchmark itself: its models, its checks and its determinism.

Run from the root of the checkout (about a minute; each workload runs for
real, twice):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import (  # noqa: E402
    REPORT_LINE, check, exact_mse, failed_ops, population_loss, pricing_objective, read_csv,
)
from run import child_env, read_outputs, round_process  # noqa: E402
from workloads import WORKLOADS, generate, planned_directions  # noqa: E402

SEED = 3


def one_round(name: str, seed: int, workdir: str):
    """Generate the workload and run one round of it in a child process."""
    workload = generate(name, seed, workdir)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        _, result = round_process(workdir, child_env(ROOT), 0.0, time.monotonic() + 170)
    finally:
        os.chdir(cwd)
    return workload, read_outputs(os.path.join(workdir, "out")), result


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    return {name: one_round(name, SEED, str(base / name)) for name in WORKLOADS}


# ---------------------------------------------------------------------------
# The benchmark's own models agree with the program's analytic hooks
# ---------------------------------------------------------------------------


def test_pricing_closed_form_matches_program():
    from zodd.environments import PricingEnv

    env = PricingEnv.synthetic(0, n=10, buyers=120)
    x0 = np.full(10, 0.5)
    ours = pricing_objective(x0, env.theta, env.rho, env.buyers)
    assert ours == pytest.approx(26.2, abs=0.05)
    for x in np.random.default_rng(0).uniform(0.2, 2.0, size=(5, 10)):
        assert pricing_objective(x, env.theta, env.rho, 120) == pytest.approx(
            env.exact_objective(x), rel=1e-9)


def test_population_loss_matches_program():
    from zodd.environments import StrategicEnv

    env = StrategicEnv.synthetic(1, count=200)
    for x in np.random.default_rng(1).normal(size=(5, 12)):
        assert population_loss(x, env.features, env.labels) == pytest.approx(
            env.exact_objective(x), rel=1e-9)


def test_exact_mse_matches_monte_carlo():
    rng = np.random.default_rng(2)
    d, sigma, mu, n, m = 5, 0.5, 0.1, 10, 1
    g = np.full(d, 0.8)
    s = sigma / (mu * np.sqrt(2 * m))
    errors = []
    for _ in range(20000):
        u = rng.standard_normal((n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        est = (d / n) * ((u @ g + s * rng.standard_normal(n)) @ u)
        errors.append(np.sum((est - g) ** 2))
    exact = exact_mse("sphere", d, mu, n, m, sigma, g @ g)
    assert np.mean(errors) == pytest.approx(exact, rel=0.05)


def test_planned_directions_follow_the_schedule():
    assert planned_directions(16, 0.25) == 65536
    assert planned_directions(5, 0.3) == 3087


# ---------------------------------------------------------------------------
# Real outputs pass; doctored outputs fail
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_real_outputs_pass(runs, name):
    workload, outputs, result = runs[name]
    assert check(workload, outputs, result["oracle"]) == []
    assert failed_ops(workload, outputs, result["rounds"][0]["rc"]) == 0


def _edit_rows(outputs: dict, column: str, fn, count: int = 1) -> dict:
    """``outputs`` with ``fn`` applied to ``column`` of the first ``count`` result rows."""
    rows = read_csv(outputs["results.csv"])
    for row in rows[:count]:
        row[column] = fn(row[column])
    header = list(rows[0])
    text = ",".join(header) + "\n" + "".join(",".join(r[h] for h in header) + "\n" for r in rows)
    return {**outputs, "results.csv": text}


def test_pricing_halved_draws_fail(runs):
    workload, outputs, result = runs["pricing_tune"]
    oracle = copy.deepcopy(result["oracle"])
    oracle["mean"] = [v / 2 for v in oracle["mean"]]
    assert any("oracle check" in f for f in check(workload, outputs, oracle))


def test_pricing_row_over_budget_fails(runs):
    workload, outputs, result = runs["pricing_tune"]
    doctored = _edit_rows(outputs, "samples_used", lambda v: str(int(v) + 2))
    assert any("samples_used" in f for f in check(workload, doctored, result["oracle"]))


def test_pricing_no_improvement_fails(runs):
    workload, outputs, result = runs["pricing_tune"]
    start = pricing_objective(workload.params["x0"], workload.params["theta"],
                              workload.params["rho"], workload.params["buyers"])
    flat = _edit_rows(outputs, "obj_mean", lambda v: repr(start), count=workload.expected_ops)
    failures = check(workload, flat, result["oracle"])
    assert any("start objective" in f for f in failures)


def test_strategic_doctored_outputs_fail(runs):
    workload, outputs, result = runs["strategic_run"]
    over = _edit_rows(outputs, "samples_used", lambda v: str(int(v) + 64))
    assert any("samples_used" in f for f in check(workload, over, result["oracle"]))
    lines = outputs["trace.csv"].splitlines()
    fields = lines[1].split(",")
    fields[-1] = "-0.5"
    negative = {**outputs, "trace.csv": "\n".join([lines[0], ",".join(fields), *lines[2:]])}
    assert any("negative loss" in f for f in check(workload, negative, result["oracle"]))
    oracle = copy.deepcopy(result["oracle"])
    oracle["mean"][0] *= 1.2
    assert any("oracle check" in f for f in check(workload, outputs, oracle))


def test_verify_line_off_by_a_fifth_fails(runs):
    workload, outputs, result = runs["verify_mse"]
    report = outputs["verify_report.txt"]
    found = next(m for m in REPORT_LINE.finditer(report) if m["check"].startswith("sphere MSE"))
    p = workload.params
    exact = exact_mse("sphere", p["d"], float(found["mu"]), int(found["n"]), int(found["m"]),
                      p["sigma"], p["d"] * p["x"] ** 2)
    # 20% off the exact MSE, whatever the draw put the real line at
    line = found.group(0)
    emp_at = found.start("emp") - found.start()
    doctored = report.replace(
        line, line[:emp_at] + f"{1.2 * exact:.6g}" + line[found.end("emp") - found.start():], 1)
    failures = check(workload, {**outputs, "verify_report.txt": doctored}, {})
    assert any("vs exact" in f for f in failures)
    fail_line = report.replace(line, line[: -len("pass")] + "FAIL", 1)
    assert failed_ops(workload, {**outputs, "verify_report.txt": fail_line}, 1) == 1


def test_planned_doctored_outputs_fail(runs):
    workload, outputs, result = runs["planned_wide"]
    cost = 2 * planned_directions(workload.params["d"], workload.params["epsilon"])
    short = _edit_rows(outputs, "samples_used", lambda v: str(int(v) - cost))
    assert any("samples_used" in f for f in check(workload, short, {}))
    start_sq = float(np.dot(workload.params["x0"], workload.params["x0"]))
    above = _edit_rows(outputs, "grad_norm_sq", lambda v: repr(start_sq * 1.01))
    assert any("grad_norm_sq" in f for f in check(workload, above, {}))
    off = _edit_rows(outputs, "obj_mean", lambda v: repr(float(v) + 1.0))
    assert any("obj_mean" in f for f in check(workload, off, {}))


def test_failed_rows_are_counted(runs):
    workload, outputs, result = runs["strategic_run"]
    diverged = _edit_rows(outputs, "status", lambda v: "diverged")
    assert failed_ops(workload, diverged, 0) == 1
    assert failed_ops(workload, outputs, 2) == workload.expected_ops


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_outputs(runs, name, tmp_path):
    _, first, _ = runs[name]
    _, second, _ = one_round(name, SEED, str(tmp_path / "again"))
    for file in ("results.csv", "trace.csv", "verify_report.txt"):
        assert second.get(file) == first.get(file), file


def _inputs(name: str, seed: int, workdir: str) -> dict:
    workload = generate(name, seed, workdir)
    files = {}
    for file in sorted(os.listdir(workdir)):
        if file != "workload.json":
            with open(os.path.join(workdir, file)) as fh:
                files[file] = fh.read().replace(workdir, "<dir>")
    return {"argv": [a.replace(workdir, "<dir>") for a in workload.argv], "files": files}


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_decides_the_generated_inputs(name, tmp_path):
    a = _inputs(name, 1, str(tmp_path / "a"))
    assert a == _inputs(name, 1, str(tmp_path / "b"))
    assert a != _inputs(name, 2, str(tmp_path / "c"))
