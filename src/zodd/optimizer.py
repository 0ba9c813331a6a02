"""Stochastic descent driven by sample-based gradient estimates, plus the
parameter planner that sizes the estimators for a target accuracy.

The loop is plain fixed-step descent, x_{t+1} = x_t - step * g_t, with the
returned point drawn *uniformly at random* from the visited iterates: with
noisy, possibly biased estimates the last iterate carries no guarantee, but
the uniformly drawn one inherits the average-gradient-norm bound.

:func:`lockstep_descent` is the one descent loop.  It advances R independent
chains as one (R, d) state, with one estimator call per step, each chain on
its own stream, step, probe radius and estimator kind, and drops a chain
that diverges.  Chains of different kinds share a step when they share a
probe shape (one- or two-sided, N, batch), as sphere, gaussian and
coordinate chains with N = d do.  Step t of a chain draws from its
stream's substreams of step t (:meth:`~zodd.core.RngStream.at`), so no
step derives or hashes a stream.  Which chains share a stream and a kind
is worked out once, and again only when a chain leaves, so a step draws
directions once per distinct (stream, kind) and compares none.  The steps
are planned in blocks (:class:`~zodd.estimators.BlockPlan`): one pass
draws all of a block's directions, and each step then hands the estimator
kernel its slice, its rows' substreams and their gradient scale as one
planned step, so the block changes no draw.
Each step yields only the chains' gradients and probe means, and frees the
directions and probe values behind them before the next step draws its own.
The probe means of all chains come from one reduction per half of the
step's (batch, R, N) sample values, and each carries the bits of the
chain's own ``GradientEstimate.probe_mean``.
:func:`run_descent` is its one-chain case and keeps the gradients in its trace;
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
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .core import RngStream, SampleOracle, Vector, as_count, as_point, chunk_rows, row_norms
from .estimators import BlockPlan, EstimatorConfig, RowStreams, _kernel, _probe_means

DIVERGENCE_NORM = 1e9

# the most lockstep steps planned as one block (see lockstep_descent); a
# block also holds at most one chunk of direction rows.  Warm pricing_tune
# rounds (2-vCPU Xeon, fastest of 12) took 0.41 s at 1 step, 0.35 s at 16,
# 0.33-0.34 s at 64 and 0.35 s at 256; strategic_run's peak RSS rose by
# 0.1 MB at 16 or 32, 0.5 MB at 64 and 3.1 MB at 256 over one step a block.
# With counter-addressed substreams, which a block no longer derives, 4
# pricing_tune rounds still read 0.145-0.147 s at 64 and 0.173-0.178 s at 1
BLOCK_STEPS = 64

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
        _require_positive({"c_mu": self.c_mu, "c_m": self.c_m, "c_T": self.c_T})

    @classmethod
    def with_known_gap(
        cls, M: float, gap: float, c_mu: float = 1.0, c_m: float = 1.0
    ) -> "PlannerConstants":
        _require_positive({"smoothness M": M, "gap": gap})
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
        _require_positive({"mu": self.mu, "step": self.step})
        object.__setattr__(self, "directions", as_count(self.directions, "directions"))
        object.__setattr__(self, "batch", as_count(self.batch, "batch"))
        object.__setattr__(self, "iterations", as_count(self.iterations, "iterations", 0))

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


def _require_positive(values: dict[str, float]) -> None:
    """Reject any value that is not a finite positive number, naming it."""
    for name, value in values.items():
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


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
    extrapolates the same formulas, without any accuracy guarantee.  An
    epsilon whose powers or quotients over- or underflow, or whose schedule
    rounds to no direction or no batch, is rejected too.
    """
    _check_kind_regime(kind, regime)
    constants = constants or PlannerConstants()
    _require_positive({"epsilon": epsilon, "sigma": sigma, "smoothness M": M})
    d = as_count(d, "d")
    cap = _EPSILON_CAPS[(kind, regime)]
    if enforce_epsilon_bound and cap is not None and epsilon > cap:
        raise ValueError(
            f"epsilon {epsilon} above the supported bound {cap:.4g} for "
            f"{kind}/{regime}"
        )
    if regime == "hessian":
        if H is None or not (H >= 0 and math.isfinite(H)):
            raise ValueError(f"hessian regime requires a finite H >= 0, got {H!r}")
        if kind == "coordinate" and H == 0:
            # mu = (18 sigma^2 / (m H^2))^(1/6) has no finite value
            raise ValueError("coordinate/hessian requires a positive H")

    try:
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
        iterations = _ceil(constants.c_T / epsilon**2)
    except (ZeroDivisionError, OverflowError):
        # a power of epsilon, or a quotient of one, underflowed to 0 or overflowed
        directions = batch = 0
    if directions < 1 or batch < 1:
        # or a count rounded to zero: a huge epsilon asks for no probe at all
        raise ValueError(f"epsilon {epsilon!r} is out of range for d = {d}, sigma = {sigma!r}, "
                         f"M = {M!r}: the {kind}/{regime} schedule has no finite value "
                         f"with a direction and a batch")

    return ParameterPlan(
        kind=kind,
        regime=regime,
        mu=mu,
        directions=directions,
        batch=batch,
        step=1.0 / (4.0 * M),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# Descent loop
# ---------------------------------------------------------------------------


@dataclass
class RunTrace:
    """Everything a finished (or aborted) run leaves behind.

    With the default ``thin=1`` the trace holds every iterate x_0..x_T,
    every estimated gradient g_0..g_{T-1} as a (d,) array, and cumulative
    sample counts; with a thinning factor k only every k-th iterate (plus
    the last) is kept and the gradients are dropped.  On an environment with
    an analytic gradient, ``env.gradient`` over ``iterates`` gives the true
    gradients at the stored iterates.
    """

    iterates: list[Vector]
    samples_cumulative: list[int]
    gradients: list[Vector]
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
    which leave the live set before the next one.  ``gradients`` holds the
    rows' estimates g_t at x_t, and ``probe_means`` the mean of every sample
    value each row's estimate drew (see ``GradientEstimate.probe_mean``).
    """

    t: int
    live: np.ndarray
    X: Vector
    bad: np.ndarray
    gradients: Vector
    probe_means: list[float]


def lockstep_descent(
    X, cfg: EstimatorConfig, oracle: SampleOracle, streams, steps, mus, iterations: int,
    kinds=None,
) -> Iterator[Step]:
    """The one descent loop: R chains advanced together as an (R, d) state.

    Row r starts at ``X[r]`` and descends with step ``steps[r]``, probe
    radius ``mus[r]`` and estimator kind ``kinds[r]`` (by default
    ``cfg.kind``) on its own stream ``streams[r]``: at step t it draws from
    the stream's substreams of step t exactly what a single estimate of its
    kind on that stream draws from step 0, whichever rows share the call;
    rows with equal streams and kinds draw their directions once.  Every
    row's kind must fit ``cfg``'s probe shape
    (:meth:`EstimatorConfig.probe_shape`).  Each step makes one estimator
    call for all live rows, updates x_{t+1} = x_t - step * g_t and yields a
    :class:`Step`; a row whose iterate has norm above 1e9 or a non-finite
    entry is marked ``bad`` and leaves the live set.  The loop ends after
    ``iterations`` steps or when no row is live.
    """
    live = np.arange(len(streams))
    kinds = [cfg.kind] * len(streams) if kinds is None else list(kinds)
    shape = cfg.probe_shape(oracle.dimension)
    if any(replace(cfg, kind=kind, directions=shape[1]).probe_shape(oracle.dimension) != shape
           for kind in set(kinds)):
        raise ValueError(f"every row's kind must have the probe shape {shape}")
    # which rows share a stream and a kind, resolved here and again only when rows leave
    roots = RowStreams.of(streams, kinds)
    steps = np.asarray(steps, dtype=np.float64)[:, None]
    mus = np.asarray(mus, dtype=np.float64)
    chunk = chunk_rows(oracle.dimension) // shape[1]
    start = 0
    while start < iterations:
        # at most one chunk of direction rows, or one step when its own do not fit
        size = min(BLOCK_STEPS, iterations - start, max(1, chunk // len(roots.distinct)))
        plan = BlockPlan.of(cfg, oracle.dimension, roots, range(start, start + size))
        index = roots.index  # each live row's entry of the plan
        for t in range(start, start + size):
            gradients, dirs, forward, backward = _kernel(
                X, cfg, oracle, plan.step(t - start, index), mu=mus)
            means = _probe_means(forward, backward)
            del dirs, forward, backward  # freed before the next step draws its own
            X = X - steps * gradients
            # a NaN norm compares false; an infinite entry or an overflow makes it inf
            with np.errstate(over="ignore", invalid="ignore"):
                bad = ~(row_norms(X) <= DIVERGENCE_NORM)
            yield Step(t, live, X, bad, gradients, means)
            if bad.any():
                keep = ~bad
                live, X, steps, mus = live[keep], X[keep], steps[keep], mus[keep]
                if live.size == 0:
                    return
                # the rows left skip the plan's other parts; the next block drops them
                index = index[keep]
                roots = roots.take(keep)
        del plan  # the table and streams go before the next block is planned
        start += size


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
    thin = as_count(thin, "thin")
    cfg = plan.estimator_config()
    cost = cfg.samples_per_estimate(oracle.dimension)
    keep_gradients = thin == 1

    output_index = select_uniform_index(plan.iterations + 1, rng)
    x_bar = x.copy()

    trace = RunTrace(
        iterates=[x.copy()],
        samples_cumulative=[0],
        gradients=[],
        output_index=output_index,
    )

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
        if keep_gradients:
            trace.gradients.append(step.gradients[0])

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
    n = len(trace.gradients)
    if n == 0 or len(trace.iterates) != n + 1:
        raise ValueError("need a full, unthinned trace with at least one update")
    f_star = env.minimum_value
    if f_star is None:
        raise ValueError("environment has no known minimum value")
    if step <= 0:
        raise ValueError("step must be positive")
    grads = np.array([env.gradient(x) for x in trace.iterates[:n]])
    used = np.array(trace.gradients)
    lhs = float((grads**2).sum(axis=1).mean())
    gap = env.exact_objective(trace.iterates[0]) - f_star
    mse = float(((grads - used) ** 2).sum(axis=1).mean())
    rhs = 4.0 * gap / (step * n) + 3.0 * mse
    return lhs, rhs
