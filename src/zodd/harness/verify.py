"""Statistical verification suites behind the ``verify`` subcommand.

Each suite replays one of the package's quantitative guarantees against
fresh Monte Carlo evidence and reports one line per check: what was
checked, at which grid point, the empirical value, the bound it must
stay under, and the margin.  A negative margin is a failure and drives
a nonzero exit code.

Suites
------
``moments``        direction-moment identities used by the variance algebra
``unbiasedness``   randomized two-point estimates average to the true gradient
``mse_bounds``   empirical estimator MSE under the worst-case bounds, plus
                   the probe-radius calibration tying the two randomized kernels
``n_dominance``    spreading a sample budget over directions beats batching
``descent_lemma``  the pathwise descent inequality on seeded quadratic runs
``streams``        draws the stream layout keeps apart are uncorrelated, and
                   direction rows and demand counts have their laws

Replicate layout
----------------
``mse_bounds`` and ``n_dominance`` draw their independent estimates per
grid point in chunks: each chunk has as many rows as fit in
``REPLICATE_CHUNK_DRAWS`` (2^14) oracle draws, at least one, and chunk c
draws from ``rng.child("chunk", c)`` of the grid point's stream.  The chunk
size is part of the stream layout, not a tuning knob: changing it changes
every reported MSE.  Consecutive full chunks share one
:func:`estimate_gradients` call, one stream per chunk, while the call's
direction and sample values fit ``CALL_VALUES``; a call of several streams
draws each chunk exactly as a call of its own would, so the grouping is
not part of the layout.

The grid points are the items of one :class:`~zodd.core.ClaimMap`, run by
the calling thread and one helper thread per further usable CPU.  Each
point's draws come from its own stream alone and the results are joined in
grid order, so neither the thread count nor the order in which points
finish changes a byte of the report.  The threads overlap only inside numpy
calls, each of which releases and retakes the GIL; grouping chunks makes
those calls fewer and larger, so the threads wait on each other less.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import CHUNK_VALUES, ClaimMap, RngStream, chunk_rows, gaussian_matrix, sphere_matrix
# the tests replace the CPU count by this name
from ..core import usable_cpus as _usable_cpus
from ..environments import PricingEnv, QuadraticEnv
from ..estimators import (
    EstimatorConfig,
    estimate_gradient,
    estimate_gradients,
    mse_upper_bound,
)
from ..optimizer import ParameterPlan, descent_bound_sides, lockstep_descent, run_descent
from ..smoothing import analytic_moment

STDERR_FLOOR = 1e-12

# oracle draws per replicate chunk in the MSE suites; part of the stream
# layout, so changing it changes every reported MSE
REPLICATE_CHUNK_DRAWS = 1 << 14

# the most direction plus sample values of full chunks grouped into one
# estimator call; not part of the stream layout, and half a chunk, so a
# call of several chunks starts no direction helper
CALL_VALUES = CHUNK_VALUES // 2


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    point: str
    empirical: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.empirical <= self.bound)

    @property
    def margin(self) -> float:
        return self.bound - self.empirical


def _standardized_gap(empirical, analytic, stderr) -> float:
    """Largest per-entry deviation in stderr units."""
    gaps = np.abs(np.asarray(empirical) - np.asarray(analytic))
    scale = np.maximum(np.asarray(stderr), STDERR_FLOOR)
    return float(np.max(gaps / scale))


def _matrix_moment_check(draws, weights, analytic, right=None) -> float:
    """Per-entry mean of weights[r] * draws[r] outer products vs analytic,
    or of weights[r] * draws[r] right[r]^T when ``right`` is given."""
    K = draws.shape[0]
    right = draws if right is None else right
    emp = np.einsum("r,ri,rj->ij", weights, draws, right) / K
    second = np.einsum("r,ri,rj->ij", weights**2, draws**2, right**2) / K
    var = np.maximum(second - emp**2, 0.0) * K / (K - 1)
    stderr = np.sqrt(var / K)
    return _standardized_gap(emp, analytic, stderr)


def run_moments(seed: int = 0, draws: int = 100_000, dims=(2, 5, 10)) -> list[CheckResult]:
    results = []
    rng = RngStream(seed).child("verify", "moments")
    for d in dims:
        gen = rng.child("dim", d).generator()
        U = sphere_matrix(gen, d, draws)
        S = gaussian_matrix(gen, d, draws)
        a = gen.standard_normal(d)
        ones = np.ones(draws)

        sq = (U**2).sum(axis=1)
        emp = sq.mean()
        se = max(sq.std(ddof=1) / np.sqrt(draws), STDERR_FLOOR)
        results.append(CheckResult(
            "moments", "unit-sphere |u|^2 = 1", f"d={d}",
            abs(emp - 1.0) / se, 5.0,
        ))

        gap = _matrix_moment_check(S, ones, np.eye(d))
        results.append(CheckResult(
            "moments", "gaussian outer E[ss^T] = I", f"d={d}", gap, 5.0))

        gap = _matrix_moment_check(U, (U @ a) ** 2,
                                   analytic_moment("sphere_projected_outer", d, a=a))
        results.append(CheckResult(
            "moments", "sphere projected outer E[(a.u)^2 uu^T]", f"d={d}", gap, 5.0))

        gap = _matrix_moment_check(S, (S @ a) ** 2,
                                   analytic_moment("gaussian_projected_outer", d, a=a))
        results.append(CheckResult(
            "moments", "gaussian projected outer E[(a.s)^2 ss^T]", f"d={d}", gap, 5.0))

        gs = (S**2).sum(axis=1)
        for k in (2, 4):
            gap = _matrix_moment_check(
                U, sq ** (k // 2),
                analytic_moment("sphere_weighted_outer", d, k=k))
            results.append(CheckResult(
                "moments", f"sphere weighted outer E[|u|^{k} uu^T]", f"d={d}", gap, 5.0))
            gap = _matrix_moment_check(
                S, gs ** (k // 2),
                analytic_moment("gaussian_weighted_outer", d, k=k))
            results.append(CheckResult(
                "moments", f"gaussian weighted outer E[|s|^{k} ss^T]", f"d={d}", gap, 5.0))
    return results


def run_unbiasedness(seed: int = 0, draws: int = 100_000, d: int = 5,
                     mu: float = 0.1) -> list[CheckResult]:
    """Noise-free quadratic: randomized estimates must average to the gradient.

    Central differences are exact on a quadratic, so the smoothed
    gradient each estimator targets coincides with the true one and the
    empirical mean must match it to Monte Carlo accuracy.
    """
    env = QuadraticEnv(np.diag(np.arange(1.0, d + 1.0)), np.linspace(-1, 1, d), sigma=0.0)
    x = np.linspace(-1.0, 2.0, d)
    grad = env.gradient(x)
    rng = RngStream(seed).child("verify", "unbiasedness")
    results = []
    for kind in ("sphere", "gaussian"):
        cfg = EstimatorConfig(kind=kind, mu=mu, directions=draws)
        estimate = estimate_gradient(x, cfg, env, rng.child(kind))
        dirs = estimate._directions
        diffs = (estimate._forward - estimate._backward).mean(axis=0) / (2 * mu)
        scale = d if kind == "sphere" else 1.0
        per_direction = scale * diffs[:, None] * dirs
        emp = per_direction.mean(axis=0)
        stderr = per_direction.std(axis=0, ddof=1) / np.sqrt(draws)
        if not np.allclose(emp, estimate.gradient, rtol=0, atol=1e-10):
            raise AssertionError("per-direction decomposition drifted from the estimate")
        results.append(CheckResult(
            "unbiasedness", f"{kind} two-point mean vs true gradient",
            f"d={d} mu={mu} K={draws}",
            _standardized_gap(emp, grad, stderr), 5.0,
        ))
    return results


def _empirical_mse(env, x, cfg, rng, replicates: int) -> tuple[float, float]:
    """Mean and standard error of |g - grad F(x)|^2 over chunked replicates.

    Consecutive full chunks share one estimator call, one stream per chunk,
    while the call's direction and sample values fit ``CALL_VALUES``; the
    last chunk, when partial, is a call of its own.
    """
    grad = env.gradient(x)
    d = env.dimension
    cost = cfg.samples_per_estimate(d)
    per_chunk = max(1, REPLICATE_CHUNK_DRAWS // cost)
    group = max(1, CALL_VALUES // (per_chunk * (cfg.probe_shape(d)[1] * d + cost)))
    full = replicates // per_chunk
    calls = [range(c, min(c + group, full)) for c in range(0, full, group)]
    if replicates % per_chunk:
        calls.append(range(full, full + 1))
    errors = np.empty(replicates)
    for chunks in calls:
        start = chunks[0] * per_chunk
        rows = min(len(chunks) * per_chunk, replicates - start)
        streams = [rng.child("chunk", c) for c in chunks]
        gradients = estimate_gradients(np.broadcast_to(x, (rows, d)), cfg, env, streams)
        errors[start:start + rows] = np.sum((gradients - grad) ** 2, axis=1)
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(replicates))


def _map_empirical_mse(env, x, tasks, replicates: int) -> list[tuple[float, float]]:
    """``_empirical_mse`` of every ``(cfg, rng)`` task, in task order.

    The tasks are claimed on a :class:`~zodd.core.ClaimMap` of min(usable
    CPUs, tasks) - 1 helper threads and the caller, those with the most
    samples per estimate first, so that no long task starts last.
    """
    order = sorted(range(len(tasks)), reverse=True,
                   key=lambda i: tasks[i][0].samples_per_estimate(env.dimension))
    # looked up per task, since the tracer wraps this name in this module
    claims = ClaimMap(lambda i: _empirical_mse(env, x, *tasks[i], replicates), order,
                      min(_usable_cpus(), len(tasks)) - 1)
    by_task = dict(zip(order, claims.results()))
    return [by_task[i] for i in range(len(tasks))]


_MU_GRID = (0.05, 0.1, 0.2)
_N_GRID = (10, 100)
_M_GRID = (1, 10)


def run_mse_bounds(seed: int = 0, replicates: int = 2000, d: int = 5,
                     sigma: float = 0.5) -> list[CheckResult]:
    env = QuadraticEnv.isotropic(d, sigma)
    x = np.full(d, 0.8)
    G = float(np.sum(env.gradient(x) ** 2))
    M = env.grad_smoothness
    rng = RngStream(seed).child("verify", "mse-bounds")
    results = []
    sphere_mse: dict[tuple[float, int, int], tuple[float, float]] = {}

    grids = {
        "coordinate": [(mu, d, m) for mu in _MU_GRID for m in _M_GRID],
        "sphere": [(mu, N, m) for mu in _MU_GRID for N in _N_GRID for m in _M_GRID],
        "gaussian": [(mu, N, m) for mu in _MU_GRID for N in _N_GRID for m in _M_GRID],
    }
    tasks = [(EstimatorConfig(kind=kind, mu=mu, directions=N, batch=m), rng.child(kind, gi))
             for kind, grid in grids.items() for gi, (mu, N, m) in enumerate(grid)]
    # probe-radius calibration: a gaussian probe at mu/sqrt(d) should match
    # a sphere probe at mu to within a constant factor
    tasks += [(EstimatorConfig(kind="gaussian", mu=mu / np.sqrt(d), directions=N, batch=m),
               rng.child("gaussian-scaled", gi))
              for gi, (mu, N, m) in enumerate(grids["sphere"])]
    mses = iter(_map_empirical_mse(env, x, tasks, replicates))

    for kind, grid in grids.items():
        for mu, N, m in grid:
            emp, se = next(mses)
            if kind == "sphere":
                sphere_mse[(mu, N, m)] = (emp, se)
            point = f"mu={mu} N={N} m={m}"
            for regime in ("grad", "hessian"):
                bound = mse_upper_bound(
                    kind, regime, d=d, mu=mu, directions=N, batch=m,
                    sigma=sigma, M=M, H=env.hess_smoothness, grad_norm_sq=G,
                )
                results.append(CheckResult(
                    "mse_bounds", f"{kind} MSE under {regime} accounting",
                    point, emp, bound + 5 * se,
                ))

    for mu, N, m in grids["sphere"]:
        emp, _ = next(mses)
        sphere_emp, _ = sphere_mse[(mu, N, m)]
        ratio = emp / sphere_emp
        results.append(CheckResult(
            "mse_bounds", "gaussian-at-mu/sqrt(d) vs sphere-at-mu MSE ratio",
            f"mu={mu} N={N} m={m}", max(ratio, 1.0 / ratio), 4.0,
        ))
    return results


def run_n_dominance(seed: int = 0, replicates: int = 2000, d: int = 5,
                    sigma: float = 0.5, mu: float = 0.1) -> list[CheckResult]:
    """Same sample budget: 100 directions must beat a 100-replicate batch."""
    env = QuadraticEnv.isotropic(d, sigma)
    x = np.full(d, 0.8)
    rng = RngStream(seed).child("verify", "n-dominance")
    results = []
    kinds = ("sphere", "gaussian")
    tasks = [task for kind in kinds for task in (
        (EstimatorConfig(kind=kind, mu=mu, directions=100, batch=1), rng.child(kind, "wide")),
        (EstimatorConfig(kind=kind, mu=mu, directions=1, batch=100), rng.child(kind, "deep")),
    )]
    mses = iter(_map_empirical_mse(env, x, tasks, replicates))
    for kind in kinds:
        (mse_wide, se_wide), (mse_deep, se_deep) = next(mses), next(mses)
        allowance = 5.0 * float(np.hypot(se_wide, se_deep))
        results.append(CheckResult(
            "n_dominance", f"{kind}: MSE(N=100,m=1) <= MSE(N=1,m=100)",
            f"mu={mu} budget=200", mse_wide, mse_deep + allowance,
        ))
    return results


def run_descent_lemma(seed: int = 0, runs: int = 10, d: int = 5,
                      sigma: float = 0.5) -> list[CheckResult]:
    """Pathwise descent inequality on seeded runs; both sides are analytic."""
    env = QuadraticEnv.isotropic(d, sigma)
    M = env.grad_smoothness
    plan = ParameterPlan(
        kind="sphere", regime="grad", mu=0.1, directions=20, batch=1,
        step=1.0 / (4.0 * M), iterations=50,
    )
    results = []
    for r in range(runs):
        rng = RngStream(seed + r).child("verify", "descent")
        _, trace = run_descent(np.full(d, 2.0), plan, env, rng)
        lhs, rhs = descent_bound_sides(trace, env, plan.step)
        results.append(CheckResult(
            "descent_lemma", "mean |grad F|^2 under the descent bound",
            f"seed={seed + r} T={plan.iterations}", lhs, rhs * (1 + 1e-9),
        ))
    return results


class _NoiseRecorder(QuadraticEnv):
    """An isotropic quadratic that keeps, per ``_draw_at`` call, each draw's
    noise: its value minus its mean, over sigma, one standard normal."""

    def __init__(self, d: int, sigma: float):
        super().__init__(np.eye(d), np.zeros(d), sigma)
        self.noise = []

    def _draw_at(self, points, streams, replicates):
        values = super()._draw_at(points, streams, replicates)
        self.noise.append((values - self.exact_objective_at(points)).ravel() / self.sigma)
        return values


def run_streams(seed: int = 0, draws: int = 20_000, d: int = 4,
                sigma: float = 1.0, mu: float = 0.1) -> list[CheckResult]:
    """Draws that the stream layout keeps apart are uncorrelated.

    On a quadratic each sample's noise is a standard normal draw, so paired
    draws from two places of the layout have E[a b] = 0: the forward and
    backward probes of one estimate, one chain's steps t and t + 1, two
    chains of one lockstep group on different seeds, and two replicate
    chunks of the MSE suites.  The direction rows on either side of a chunk
    boundary have mean 0, second moment I/d (sphere) or I (gaussian), and
    no correlation across it; a pricing sample's demand counts follow
    Binomial(buyers, p_i) per item.  Each check passes within 5 standard
    errors.
    """
    rng = RngStream(seed).child("verify", "streams")
    x = np.full(d, 0.5)
    cfg = EstimatorConfig(kind="sphere", mu=mu, directions=draws)
    results = []

    def check(name, point, gap):
        results.append(CheckResult("streams", name, point, gap, 5.0))

    def uncorrelated(a, b):
        return _matrix_moment_check(a[:, None], np.ones(a.size), 0.0, b[:, None])

    env = _NoiseRecorder(d, sigma)
    estimate_gradient(x, cfg, env, rng.child("estimate"))
    check("forward vs backward probe noise of one estimate", f"d={d} N={draws}",
          uncorrelated(*np.split(env.noise[0], 2)))

    env = _NoiseRecorder(d, sigma)
    run_descent(x, ParameterPlan(kind="sphere", regime="grad", mu=mu, directions=draws,
                                 batch=1, step=0.1, iterations=2), env, rng.child("chain"))
    check("noise of one chain at steps t and t+1", f"d={d} N={draws} t=0",
          uncorrelated(*env.noise))

    env = _NoiseRecorder(d, sigma)
    chains = [RngStream(seed + i).child("verify", "streams", "chain") for i in (0, 1)]
    for _ in lockstep_descent(np.tile(x, (2, 1)), cfg, env, chains, [0.1] * 2, [mu] * 2, 1):
        pass
    check("noise of two chains on two seeds in one lockstep group",
          f"d={d} N={draws} seeds={seed},{seed + 1}", uncorrelated(*np.split(env.noise[0], 2)))

    env = _NoiseRecorder(d, sigma)
    one = EstimatorConfig(kind="sphere", mu=mu, directions=1)
    per_chunk = REPLICATE_CHUNK_DRAWS // one.samples_per_estimate(d)
    _empirical_mse(env, x, one, rng.child("chunks"), 2 * per_chunk)
    check("noise of two replicate chunks of the MSE suites", f"d={d} rows={per_chunk}",
          uncorrelated(*np.split(np.concatenate(env.noise), 2)))

    size = chunk_rows(d)
    ones = np.ones(size)
    for kind, second in (("sphere", np.eye(d) / d), ("gaussian", np.eye(d))):
        wide = EstimatorConfig(kind=kind, mu=mu, directions=2 * size)
        dirs = estimate_gradient(x, wide, QuadraticEnv.isotropic(d, 0.0),
                                 rng.child("directions", kind))._directions
        sides = np.split(dirs, 2)
        point = f"d={d} rows={size}|{size}"
        check(f"{kind} rows on each side of a chunk boundary: mean 0", point,
              max(_standardized_gap(w.mean(axis=0), 0.0, w.std(axis=0, ddof=1) / np.sqrt(size))
                  for w in sides))
        check(f"{kind} rows on each side of a chunk boundary: second moment", point,
              max(_matrix_moment_check(w, ones, second) for w in sides))
        check(f"{kind} rows across a chunk boundary: uncorrelated", point,
              _matrix_moment_check(*sides[:1], ones, 0.0, sides[1]))

    buyers = 30
    pricing = PricingEnv(np.array([1.0, 1.5, 2.0]), np.array([0.3, 0.3, 0.3]), buyers=buyers)
    at = np.array([1.2, 1.4, 1.6])
    counts = pricing._demand_at(np.tile(at, (draws, 1)), [rng.child("pricing")], 1)[:, 0]
    probs = pricing.choice_probabilities(at)[:-1]
    ks = np.arange(buyers + 1)
    for i, pmf in enumerate(pricing._binomial_pmf(probs)):
        median = int(np.searchsorted(np.cumsum(pmf), 0.5))
        # the mean, the second moment and P(count <= median) of item i's counts
        gaps = [_standardized_gap(f[counts[:, i]].mean(), pmf @ f,
                                  f[counts[:, i]].std(ddof=1) / np.sqrt(draws))
                for f in (ks, ks**2, ks <= median)]
        check(f"pricing demand of item {i} ~ Binomial(buyers, p_i)",
              f"buyers={buyers} p={probs[i]:.4f} K={draws}", max(gaps))
    return results


SUITES = {
    "moments": run_moments,
    "unbiasedness": run_unbiasedness,
    "mse_bounds": run_mse_bounds,
    "n_dominance": run_n_dominance,
    "descent_lemma": run_descent_lemma,
    "streams": run_streams,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed)


def format_report(results: list[CheckResult]) -> str:
    """Aligned text table, one line per check plus a tail summary."""
    header = ("check", "grid point", "empirical", "bound", "margin", "status")
    rows = [header]
    for r in results:
        rows.append((
            f"{r.suite}: {r.check}", r.point,
            f"{r.empirical:.6g}", f"{r.bound:.6g}", f"{r.margin:.6g}",
            "pass" if r.passed else "FAIL",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    failed = sum(not r.passed for r in results)
    lines.append("")
    lines.append(f"{len(results)} checks, {failed} failed")
    return "\n".join(lines) + "\n"
