"""Stochastic descent driven by sample-based gradient estimates, plus the
parameter planner that sizes the estimators for a target accuracy.

The loop is plain fixed-step descent, x_{t+1} = x_t - step * g_t, with the
returned point drawn *uniformly at random* from the visited iterates: with
noisy, possibly biased estimates the last iterate carries no guarantee, but
the uniformly drawn one inherits the average-gradient-norm bound.

:func:`lockstep_descent` is the one descent loop.  It advances R independent
chains as one (R, d) state, with one estimator call per step, each chain on
its own stream, step and probe radius, and drops a chain that diverges.
:func:`run_descent` is its one-chain case and keeps the full trace;
:func:`zodd.harness.runner.run_chains` drives it for every row of a run.

When the environment is analytic, every finished run can be audited: for a
step at most 1 / (4 M) the trajectory satisfies, deterministically,

    mean_t ||grad F(x_t)||^2
        <= 4 (F(x_0) - F*) / (step * n) + 3 mean_t ||grad F(x_t) - g_t||^2

over the n executed updates.  :func:`descent_bound_sides` computes both
sides from a trace; the verification harness asserts the inequality on
every run it makes.

:func:`plan_parameters` turns a target stationarity accuracy into concrete
(mu, directions, batch, step, iterations) for each estimator family and
smoothness regime, with the total sample count carried by the documented
complexity order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .core import RngStream, SampleOracle, Vector, as_point, distinct_children, row_norms
from .estimators import EstimatorConfig, GradientEstimate, _as_estimate, _kernel

DIVERGENCE_NORM = 1e9

PLANNER_KINDS = ("coordinate", "sphere", "gaussian")
REGIMES = ("grad", "hessian")

# epsilon range in which each planner schedule is backed by its analysis
_EPSILON_CAPS = {
    ("coordinate", "grad"): None,
    ("coordinate", "hessian"): None,
    ("sphere", "grad"): 1.0 / 3.0,
    ("sphere", "hessian"): 1.0 / 3.0,
    ("gaussian", "grad"): 1.0 / 3.0,
    ("gaussian", "hessian"): 1.0 / 4.0,
}

_COMPLEXITY = {
    ("coordinate", "grad"): "O(d^3 eps^-6)",
    ("coordinate", "hessian"): "O(d^2.5 eps^-5)",
    ("sphere", "grad"): "O(d^2 eps^-6)",
    ("sphere", "hessian"): "O(d^2 eps^-5)",
    ("gaussian", "grad"): "O(d^2 eps^-6)",
    ("gaussian", "hessian"): "O(d^2 eps^-5)",
}


class DivergenceError(RuntimeError):
    """An iterate left the trust region (norm above 1e9 or non-finite).

    Carries the partial trace in ``trace`` and the offending iteration
    index in ``iteration``.
    """

    def __init__(self, message: str, trace: "RunTrace", iteration: int):
        super().__init__(message)
        self.trace = trace
        self.iteration = iteration


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge within the step cap."""


@dataclass(frozen=True)
class PlannerConstants:
    """Order constants of the planner schedules.

    ``c_T`` scales the iteration count; when the initial optimality gap is
    known, :meth:`with_known_gap` sets it to 16 * M * gap so the descent
    term of the stationarity bound is driven below the target, which is
    the intended default whenever the minimum is known.
    """

    c_mu: float = 1.0
    c_m: float = 1.0
    c_T: float = 1.0

    def __post_init__(self) -> None:
        if self.c_mu <= 0 or self.c_m <= 0 or self.c_T <= 0:
            raise ValueError("planner constants must be positive")

    @classmethod
    def with_known_gap(
        cls, M: float, gap: float, c_mu: float = 1.0, c_m: float = 1.0
    ) -> "PlannerConstants":
        if M <= 0 or gap <= 0:
            raise ValueError("need positive M and optimality gap")
        return cls(c_mu=c_mu, c_m=c_m, c_T=16.0 * M * gap)


@dataclass(frozen=True)
class ParameterPlan:
    """Fully resolved run parameters for one estimator family."""

    kind: str
    regime: str
    mu: float
    directions: int
    batch: int
    step: float
    iterations: int

    def __post_init__(self) -> None:
        if self.mu <= 0 or self.step <= 0:
            raise ValueError("mu and step must be positive")
        if self.directions < 1 or self.batch < 1 or self.iterations < 0:
            raise ValueError("directions, batch >= 1 and iterations >= 0 required")

    def estimator_config(self) -> EstimatorConfig:
        return EstimatorConfig(
            kind=self.kind, mu=self.mu, directions=self.directions, batch=self.batch
        )

    def samples_per_iteration(self, d: int) -> int:
        return self.estimator_config().samples_per_estimate(d)

    def total_samples(self, d: int) -> int:
        return self.iterations * self.samples_per_iteration(d)


def sample_complexity_order(kind: str, regime: str) -> str:
    """Documented total-sample order of the (kind, regime) schedule."""
    _check_kind_regime(kind, regime)
    return _COMPLEXITY[(kind, regime)]


def _check_kind_regime(kind: str, regime: str) -> None:
    if kind not in PLANNER_KINDS:
        raise ValueError(f"planner kind must be one of {PLANNER_KINDS}, got {kind!r}")
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")


def _ceil(value: float) -> int:
    # tolerate float fuzz just below an integer so exact-arithmetic intents survive
    return int(math.ceil(value - 1e-9))


def plan_parameters(
    kind: str,
    regime: str,
    epsilon: float,
    d: int,
    sigma: float,
    M: float,
    H: float | None = None,
    constants: PlannerConstants | None = None,
    *,
    enforce_epsilon_bound: bool = True,
) -> ParameterPlan:
    """Size an estimator so descent reaches mean-square stationarity epsilon^2.

    ``regime`` selects the smoothness assumption the schedule leans on:
    ``grad`` needs only the gradient Lipschitz constant M, ``hessian``
    additionally needs the Hessian Lipschitz constant H and buys a better
    epsilon exponent with it.  H = 0 (a quadratic) is accepted for sphere
    and gaussian, whose hessian schedules do not read H; the coordinate
    schedule divides by it and needs H > 0.  The step is always 1 / (4 M).

    The random-direction schedules are only backed by their analysis for
    epsilon up to 1/3 (sphere, and gaussian in the ``grad`` regime) or 1/4
    (gaussian, ``hessian`` regime); by default epsilon beyond the cap is
    rejected.  ``enforce_epsilon_bound=False`` skips that check and
    extrapolates the same formulas, without any accuracy guarantee.
    """
    _check_kind_regime(kind, regime)
    constants = constants or PlannerConstants()
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if d < 1:
        raise ValueError("need d >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if M <= 0:
        raise ValueError("M must be positive")
    cap = _EPSILON_CAPS[(kind, regime)]
    if enforce_epsilon_bound and cap is not None and epsilon > cap:
        raise ValueError(
            f"epsilon {epsilon} above the supported bound {cap:.4g} for "
            f"{kind}/{regime}"
        )
    if regime == "hessian":
        if H is None or not H >= 0:
            raise ValueError("hessian regime requires H >= 0")
        if kind == "coordinate" and H == 0:
            # mu = (18 sigma^2 / (m H^2))^(1/6) has no finite value
            raise ValueError("coordinate/hessian requires a positive H")

    if kind == "coordinate":
        if regime == "grad":
            batch = _ceil(constants.c_m * d * d / epsilon**4)
            mu = (2.0 * sigma**2 / (batch * M * M)) ** 0.25
        else:
            batch = _ceil(constants.c_m * d**1.5 / epsilon**3)
            mu = (18.0 * sigma**2 / (batch * H * H)) ** (1.0 / 6.0)
        directions = d
    else:
        if regime == "grad":
            directions = _ceil(d * d / epsilon**4)
            mu = constants.c_mu * epsilon
        else:
            directions = _ceil(d * d / epsilon**3)
            mu = constants.c_mu * math.sqrt(epsilon)
        if kind == "gaussian":
            mu = mu / math.sqrt(d)
        batch = 1

    return ParameterPlan(
        kind=kind,
        regime=regime,
        mu=mu,
        directions=directions,
        batch=batch,
        step=1.0 / (4.0 * M),
        iterations=_ceil(constants.c_T / epsilon**2),
    )


# ---------------------------------------------------------------------------
# Descent loop
# ---------------------------------------------------------------------------


@dataclass
class RunTrace:
    """Everything a finished (or aborted) run leaves behind.

    With the default ``thin=1`` the trace holds every iterate x_0..x_T,
    every gradient estimate, and cumulative sample counts; with a thinning
    factor k only every k-th iterate (plus the last) is kept and estimates
    are dropped.  ``grad_norm_sq`` holds the analytic squared gradient
    norms at stored iterates when the oracle exposes a gradient.
    """

    iterates: list[Vector]
    samples_cumulative: list[int]
    estimates: list[GradientEstimate]
    grad_norm_sq: list[float] | None
    output_index: int | None = None


def select_uniform_index(count: int, rng: RngStream) -> int:
    """Uniform index in 0..count-1 from a dedicated output stream."""
    if count < 1:
        raise ValueError("need at least one candidate")
    return int(rng.child("output").generator().integers(0, count))


class Step(NamedTuple):
    """One step of :func:`lockstep_descent`, for the rows live before it.

    ``live`` holds the chain numbers of the rows; ``X`` their iterates
    x_{t+1} after the update; ``bad`` the rows that diverged at this step,
    which leave the live set before the next one.  ``gradients``,
    ``directions``, ``forward`` and ``backward`` are the estimator kernel's
    outputs for the step's estimates at x_t.
    """

    t: int
    live: np.ndarray
    X: Vector
    bad: np.ndarray
    gradients: Vector
    directions: Vector
    forward: Vector
    backward: Vector | None


def lockstep_descent(
    X, cfg: EstimatorConfig, oracle: SampleOracle, streams, steps, mus, iterations: int
) -> Iterator[Step]:
    """The one descent loop: R chains advanced together as an (R, d) state.

    Row r starts at ``X[r]`` and descends with step ``steps[r]`` and probe
    radius ``mus[r]`` on its own stream ``streams[r]``: at step t it draws
    from ``streams[r].child("iteration", t)`` exactly what a single estimate
    on that stream draws, whichever rows share the call.  Each step makes
    one estimator call for all live rows, updates x_{t+1} = x_t - step * g_t
    and yields a :class:`Step`; a row whose iterate has norm above 1e9 or a
    non-finite entry is marked ``bad`` and leaves the live set.  The loop
    ends after ``iterations`` steps or when no row is live.
    """
    live = np.arange(len(streams))
    steps = np.asarray(steps, dtype=np.float64)[:, None]
    mus = np.asarray(mus, dtype=np.float64)
    for t in range(iterations):
        rngs = distinct_children([streams[i] for i in live], "iteration", t)
        gradients, dirs, forward, backward = _kernel(X, cfg, oracle, rngs, mu=mus)
        X = X - steps * gradients
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~np.isfinite(X).all(axis=1) | (row_norms(X) > DIVERGENCE_NORM)
        yield Step(t, live, X, bad, gradients, dirs, forward, backward)
        if bad.any():
            keep = ~bad
            live, X, steps, mus = live[keep], X[keep], steps[keep], mus[keep]
            if live.size == 0:
                return


def run_descent(
    x0,
    plan: ParameterPlan,
    oracle: SampleOracle,
    rng: RngStream,
    *,
    thin: int = 1,
) -> tuple[Vector, RunTrace]:
    """Fixed-step descent with sampled gradients; returns (x_bar, trace).

    Runs ``plan.iterations`` updates from ``x0``, the one-chain case of
    :func:`lockstep_descent`.  The reported point x_bar is drawn uniformly
    from the iterates x_0..x_T on a stream dedicated to output selection,
    so it is independent of the sampling randomness.  Iterates whose norm
    exceeds 1e9, or with non-finite entries, abort the run with
    :class:`DivergenceError` carrying the partial trace.
    """
    x = as_point(x0, oracle.dimension)
    if thin < 1:
        raise ValueError("thin must be >= 1")
    cfg = plan.estimator_config()
    cost = cfg.samples_per_estimate(oracle.dimension)
    keep_estimates = thin == 1
    track_gradient = getattr(oracle, "supports_gradient", False)

    output_index = select_uniform_index(plan.iterations + 1, rng)
    x_bar = x.copy()

    trace = RunTrace(
        iterates=[x.copy()],
        samples_cumulative=[0],
        estimates=[],
        grad_norm_sq=[] if track_gradient else None,
        output_index=output_index,
    )
    if track_gradient:
        g = oracle.gradient(x)
        trace.grad_norm_sq.append(float(g @ g))

    chain = lockstep_descent(
        x[None, :], cfg, oracle, [rng], [plan.step], [cfg.mu], plan.iterations
    )
    for step in chain:
        t = step.t + 1
        x = step.X[0]
        if step.bad[0]:
            norm = float(np.linalg.norm(x))
            raise DivergenceError(f"iterate {t} diverged (norm {norm:.3e})", trace, t)
        if t == output_index:
            x_bar = x.copy()
        if t % thin == 0 or t == plan.iterations:
            trace.iterates.append(x.copy())
            trace.samples_cumulative.append(t * cost)
            if track_gradient:
                g = oracle.gradient(x)
                trace.grad_norm_sq.append(float(g @ g))
        if keep_estimates:
            trace.estimates.append(_as_estimate(
                cfg, step.gradients, step.directions, step.forward, step.backward
            ))

    return x_bar, trace


def descent_bound_sides(trace: RunTrace, env, step: float) -> tuple[float, float]:
    """Both sides of the per-run descent inequality, computed analytically.

    Needs a full trace (thin=1) on an environment with exact objective,
    gradient, and known minimum.  Returns (lhs, rhs) with

        lhs = mean_t ||grad F(x_t)||^2,
        rhs = 4 (F(x_0) - F*) / (step * n) + 3 mean_t ||grad F(x_t) - g_t||^2

    over the n executed updates; lhs <= rhs holds pathwise whenever the
    step is at most 1 / (4 M) for the environment's smoothness M.
    """
    n = len(trace.estimates)
    if n == 0 or len(trace.iterates) != n + 1:
        raise ValueError("need a full, unthinned trace with at least one update")
    f_star = env.minimum_value
    if f_star is None:
        raise ValueError("environment has no known minimum value")
    if step <= 0:
        raise ValueError("step must be positive")
    grads = np.array([env.gradient(x) for x in trace.iterates[:n]])
    used = np.array([est.gradient for est in trace.estimates])
    lhs = float((grads**2).sum(axis=1).mean())
    gap = env.exact_objective(trace.iterates[0]) - f_star
    mse = float(((grads - used) ** 2).sum(axis=1).mean())
    rhs = 4.0 * gap / (step * n) + 3.0 * mse
    return lhs, rhs


# ---------------------------------------------------------------------------
# Smoothness constants from location-scale structure
# ---------------------------------------------------------------------------


class SmoothnessConstants(NamedTuple):
    M: float
    H: float | None


def operator_norm(A, tol: float = 1e-10, max_steps: int = 10_000) -> float:
    """Largest singular value of A by power iteration on A'A.

    Deterministic (fixed internal seed); raises PowerIterationError when
    the value has not stabilized to relative tolerance within the cap.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("A has non-finite entries")
    if np.all(A == 0.0):
        return 0.0
    # rescale to O(1) entries so the Gram product can neither underflow
    # nor overflow for extreme but representable inputs
    scale = float(np.max(np.abs(A)))
    A = A / scale
    gen = RngStream(0).child("power-iteration").generator()
    v = gen.standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    gram = A.T @ A
    previous = 0.0
    for _ in range(max_steps):
        w = gram @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            # v landed in the null space; restart from a fresh vector
            v = gen.standard_normal(A.shape[1])
            v /= np.linalg.norm(v)
            continue
        v = w / norm
        value = math.sqrt(norm)
        if abs(value - previous) <= tol * max(value, 1e-300):
            return scale * value
        previous = value
    raise PowerIterationError(
        f"operator norm did not stabilize to {tol:g} within {max_steps} steps"
    )


def smoothness_from_location_scale(
    A, beta: float, rho: float | None = None
) -> SmoothnessConstants:
    """Objective smoothness constants when the sampled distribution moves
    with the decision as a location-scale family with matrix A.

    With the per-sample loss beta-gradient-Lipschitz,
    M = sqrt(beta^2 (1 + |A|^2) max(1, |A|^2)) for |A| the operator norm;
    when a Hessian Lipschitz constant rho is supplied,
    H = sqrt(rho^2 (1 + |A|^2) max(1, |A|^4)).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if rho is not None and rho <= 0:
        raise ValueError("rho must be positive when given")
    norm = operator_norm(A)
    norm_sq = norm * norm
    M = math.sqrt(beta * beta * (1.0 + norm_sq) * max(1.0, norm_sq))
    H = None
    if rho is not None:
        H = math.sqrt(rho * rho * (1.0 + norm_sq) * max(1.0, norm_sq * norm_sq))
    return SmoothnessConstants(M=M, H=H)
