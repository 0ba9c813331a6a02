"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (with capture suspended so the
checklist always reaches the terminal) and then asserts, so a failing
criterion is visible both in the printed line and in the pytest summary.
"""

import math
import time

import numpy as np
import pytest

from zodd.core import RngStream
from zodd.environments import PricingEnv, QuadraticEnv, best_response
from zodd.harness.config import (
    EnvironmentSpec,
    EstimatorSpec,
    ExperimentConfig,
    TuningSpec,
)
from zodd.harness.runner import STATUS_OK, run_chains
from zodd.harness.tuning import tuned_config
from zodd.harness.verify import (
    run_descent_lemma,
    run_mse_bounds,
    run_moments,
    run_n_dominance,
    run_unbiasedness,
)
from zodd.optimizer import PlannerConstants, plan_parameters, run_descent


@pytest.fixture()
def report(capsys):
    def _report(num, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        tail = f"  ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n[criterion {num:2d}] {name}: {status}{tail}", flush=True)
    return _report


@pytest.fixture(scope="module")
def mse_grid():
    """Shared 2000-replicate MSE sweep; criteria 3 and 5 both read it."""
    start = time.perf_counter()
    results = run_mse_bounds(seed=0, replicates=2000)
    return results, time.perf_counter() - start


def test_01_moment_identities(report):
    start = time.perf_counter()
    results = run_moments(seed=0, draws=100_000, dims=(2, 5, 10))
    elapsed = time.perf_counter() - start
    ok = bool(results) and all(r.passed for r in results) and elapsed < 10.0
    report(1, "direction moment identities", ok,
            f"{len(results)} checks, {elapsed:.1f}s")
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert elapsed < 10.0


def test_02_unbiased_estimates(report):
    start = time.perf_counter()
    results = run_unbiasedness(seed=0, draws=100_000, d=5, mu=0.1)
    elapsed = time.perf_counter() - start
    kinds = {r.check.split()[0] for r in results}
    ok = kinds == {"sphere", "gaussian"} and all(r.passed for r in results) \
        and elapsed < 30.0
    report(2, "unbiasedness of randomized estimates", ok,
            f"{len(results)} checks, {elapsed:.1f}s")
    assert kinds == {"sphere", "gaussian"}
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert elapsed < 30.0


def test_03_mse_upper_bounds(mse_grid, report):
    results, elapsed = mse_grid
    bounds = [r for r in results if "MSE under" in r.check]
    # coordinate 3 mu x 2 m, sphere/gaussian 3 mu x 2 N x 2 m, two
    # accounting regimes each
    ok = len(bounds) == 60 and all(r.passed for r in bounds) and elapsed < 120.0
    report(3, "mean-squared-error upper bounds", ok,
            f"{len(bounds)} grid points, {elapsed:.1f}s")
    assert len(bounds) == 60
    assert all(r.passed for r in bounds), [r for r in bounds if not r.passed]
    assert elapsed < 120.0


def test_04_direction_count_dominates_batch(report):
    results = run_n_dominance(seed=0, replicates=2000)
    ok = len(results) == 2 and all(r.passed for r in results)
    report(4, "many directions beat deep batches", ok,
            "sphere + gaussian at equal budget")
    assert len(results) == 2
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_05_probe_radius_scaling(mse_grid, report):
    results, _ = mse_grid
    ratios = [r for r in results if "MSE ratio" in r.check]
    ok = len(ratios) == 12 and all(r.passed for r in ratios)
    worst = max((r.empirical for r in ratios), default=float("nan"))
    report(5, "gaussian radius mu/sqrt(d) tracks sphere", ok,
            f"worst ratio {worst:.2f} vs factor 4")
    assert len(ratios) == 12
    assert all(r.passed for r in ratios), [r for r in ratios if not r.passed]


def test_06_per_step_descent_inequality(report):
    results = run_descent_lemma(seed=0, runs=10)
    ok = len(results) == 10 and all(r.passed for r in results)
    report(6, "per-step descent inequality", ok, "10 seeded runs, 1e-9 relative")
    assert len(results) == 10
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_07_planned_run_convergence(report):
    start = time.perf_counter()
    d, epsilon = 10, 0.5
    env = QuadraticEnv.isotropic(d, sigma=1.0)
    x0 = np.ones(d)
    gap = env.exact_objective(x0) - env.exact_objective(env.minimizer)
    plan = plan_parameters(
        "sphere", "grad", epsilon, d, sigma=1.0, M=1.0,
        constants=PlannerConstants.with_known_gap(1.0, gap),
        enforce_epsilon_bound=False,
    )
    vals = []
    for seed in range(20):
        x_bar, _ = run_descent(x0, plan, env, RngStream(seed).child("accept7"),
                               thin=plan.iterations)
        vals.append(float(np.sum(env.gradient(x_bar) ** 2)))
    mean_sq = float(np.mean(vals))
    target = 4.0 * epsilon**2
    elapsed = time.perf_counter() - start
    ok = mean_sq <= target and elapsed < 300.0
    report(7, "planned run reaches stationarity", ok,
            f"mean grad_norm_sq {mean_sq:.3f} <= {target}, {elapsed:.1f}s")
    assert mean_sq <= target
    assert elapsed < 300.0


def test_08_planner_worked_examples(report):
    checks = []

    plan = plan_parameters("coordinate", "grad", 1.0, 1, sigma=1.0, M=1.0,
                           constants=PlannerConstants(c_m=2.0))
    checks.append(plan.batch == 2 and plan.mu == pytest.approx(1.0))

    plan = plan_parameters("sphere", "grad", 0.1, 3, sigma=1.0, M=1.0)
    checks.append(
        plan.directions == 90_000 and plan.batch == 1
        and plan.iterations == 100 and plan.step == pytest.approx(0.25)
        and plan.mu == pytest.approx(0.1)
    )

    plan = plan_parameters("gaussian", "hessian", 0.25, 4, sigma=1.0, M=1.0, H=1.0)
    checks.append(
        plan.directions == 1024 and plan.mu == pytest.approx(0.25)
        and plan.iterations == 16
    )

    plan = plan_parameters("coordinate", "hessian", 0.1, 4, sigma=1.0, M=1.0, H=1.0)
    checks.append(
        plan.batch == 8000 and plan.mu == pytest.approx((18 / 8000) ** (1 / 6))
    )

    with pytest.raises(ValueError, match="0.3333"):
        plan_parameters("sphere", "grad", 0.4, 3, sigma=1.0, M=1.0)
    checks.append(True)

    ok = all(checks)
    report(8, "planner worked examples exact", ok, f"{len(checks)} schedules")
    assert all(checks), checks


def test_09_estimator_ordering_on_pricing(report):
    start = time.perf_counter()
    config = ExperimentConfig(
        environment=EnvironmentSpec(kind="pricing", dimension=10, seed=0),
        estimators=(
            EstimatorSpec(name="sphere", kind="sphere", mu=0.1, step=1e-3,
                          directions=10),
            EstimatorSpec(name="gaussian", kind="gaussian", mu=0.1, step=1e-3,
                          directions=10),
            EstimatorSpec(name="coordinate", kind="coordinate", mu=0.1, step=1e-3),
            EstimatorSpec(name="one_point", kind="one_point", mu=0.1, step=1e-3),
        ),
        seeds=tuple(range(20)),
        budget=5000,
        eval_draws=2,
        tuning=TuningSpec(
            enabled=True,
            steps=(1e-4, 1e-3, 1e-2),
            mus=(0.02, 0.1, 0.5),
            directions=(1, 10, 100),
            batches=(1, 10, 100),
            trials=3,
        ),
    )
    tuned, _ = tuned_config(config)
    env = config.environment.build()
    cells = [(spec, seed) for spec in tuned.estimators for seed in tuned.seeds]
    outcomes = iter(run_chains(tuned, [spec for spec, _ in cells],
                               [seed for _, seed in cells]))
    means, variances = {}, {}
    for spec in tuned.estimators:
        vals = []
        for seed in tuned.seeds:
            outcome = next(outcomes)
            assert outcome.row.status == STATUS_OK, (spec.name, seed,
                                                     outcome.row.status)
            vals.append(env.exact_objective(outcome.output_point))
        means[spec.name] = float(np.mean(vals))
        variances[spec.name] = float(np.var(vals, ddof=1))

    def pooled_sd(a, b):
        return math.sqrt((variances[a] + variances[b]) / 2)

    best_rand_name = min(("sphere", "gaussian"), key=means.get)
    first = means[best_rand_name] <= means["coordinate"] + pooled_sd(
        best_rand_name, "coordinate")
    second = means["coordinate"] <= means["one_point"] + pooled_sd(
        "coordinate", "one_point")
    elapsed = time.perf_counter() - start
    ok = first and second and elapsed < 600.0
    report(9, "tuned estimator ordering on pricing", ok,
            f"min(sph,ga) {means[best_rand_name]:.1f} <= coord "
            f"{means['coordinate']:.1f} <= one-point {means['one_point']:.1f}, "
            f"{elapsed:.0f}s")
    assert first, (means, variances)
    assert second, (means, variances)
    assert elapsed < 600.0


def test_10_best_response_matches_grid(report):
    start = time.perf_counter()
    h = 1e-3
    grid = np.arange(-3.0, 3.0 + h / 2, h)

    def grid_argmax(w2, b, z2):
        # exact acceptance indicator; blocks keep the 6001^2 sweep in memory
        best_u, best_pt = -np.inf, None
        cost_j = (grid - z2[1]) ** 2
        score_j = w2[1] * grid
        for lo in range(0, grid.size, 800):
            gi = grid[lo:lo + 800]
            score = w2[0] * gi[:, None] + score_j[None, :] + b
            util = np.where(score >= 0.0, 2.0, 0.0)
            util -= (gi - z2[0])[:, None] ** 2
            util -= cost_j[None, :]
            k = int(np.argmax(util))
            if util.flat[k] > best_u:
                best_u = float(util.flat[k])
                best_pt = np.array([gi[k // grid.size], grid[k % grid.size]])
        return best_u, best_pt

    rng = RngStream(10).child("accept10")
    failures = []
    for inst in range(100):
        gen = rng.child("inst", inst).generator()
        i, j = gen.choice(11, size=2, replace=False)
        direction = gen.normal(size=2)
        direction /= np.linalg.norm(direction)
        w2 = direction * gen.uniform(0.5, 2.0)
        z2 = gen.uniform(-1.5, 1.5, size=2)
        # cycle: accepted stay / profitable move / too-dear stay, with the
        # move-vs-stay margin bounded away from the tie
        case = inst % 3
        if case == 0:
            score0 = gen.uniform(0.1, 1.5)
        elif case == 1:
            score0 = -gen.uniform(0.1, 1.35) * np.linalg.norm(w2)
        else:
            score0 = -gen.uniform(1.45, 2.0) * np.linalg.norm(w2)
        b = score0 - float(w2 @ z2)

        x = np.zeros(12)
        x[i], x[j], x[-1] = w2[0], w2[1], b
        z_full = gen.uniform(-1.5, 1.5, size=11)
        z_full[i], z_full[j] = z2

        closed = best_response(x, z_full)
        moved = not np.array_equal(closed, z_full)
        delta = float(np.linalg.norm(closed - z_full))
        closed_u = 2.0 - delta**2 if moved else (2.0 if score0 >= 0 else 0.0)

        grid_u, grid_pt = grid_argmax(w2, b, z2)
        dist = float(np.linalg.norm(grid_pt - closed[[i, j]]))
        payoff_allow = 3 * h * (2 * delta + 1)
        dist_allow = math.sqrt(6 * h * (2 * delta + 1)) + 2 * h
        if not (closed_u >= grid_u - 1e-9
                and grid_u >= closed_u - payoff_allow
                and dist <= dist_allow):
            failures.append((inst, case, closed_u, grid_u, dist))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(10, "best-response closed form vs grid argmax", ok,
            f"100 instances at resolution {h}, {elapsed:.0f}s")
    assert not failures, failures[:5]


def test_11_pricing_oracle_agreement(report):
    env = PricingEnv.synthetic(0, n=10)
    rng = RngStream(11).child("accept11")
    gen = rng.generator()
    gaps = []
    for k in range(5):
        x = gen.uniform(0.0, 2.0, size=10)
        draws = np.asarray(
            env.sample_at(x[None, :], rng.child("draws", k), replicates=100_000)
        ).ravel()
        exact = env.exact_objective(x)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        gaps.append(abs(float(draws.mean()) - exact) / stderr)
    worst = max(gaps)
    ok = worst <= 5.0
    report(11, "pricing simulation matches exact objective", ok,
            f"worst standardized gap {worst:.2f} over 5 price points")
    assert worst <= 5.0, gaps
