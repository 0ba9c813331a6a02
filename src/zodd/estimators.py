"""Gradient estimators from function samples alone, for objectives whose
sampling distribution depends on the decision.

The defining subtlety: a probe at x + mu v must draw its sample from the
distribution induced by x + mu v, not from the one at x.  Every estimator
here therefore takes a *fresh, independent* draw at each probe point and
each batch replicate; no draw is ever reused across probe points.  Under
that discipline a two-point estimate is unbiased for the gradient of the
correspondingly smoothed objective.

Four estimators are provided:

* ``coordinate``: central differences along all d basis vectors,
* ``sphere``: central differences along ``directions`` uniform unit
  vectors, scaled by d / directions,
* ``gaussian``: central differences along standard normal vectors, scaled
  by 1 / directions,
* ``one_point``: the forward-only sphere variant, kept as a baseline; its
  single-sided probes carry the full objective value, which inflates the
  variance by orders of magnitude.  It scales by d / (2 mu), so it targets
  *half* the smoothed gradient (the standard one-point estimator of
  Flaxman, Kalai & McMahan uses d / mu); the scale is kept so that one_point
  runs and the steps tuned for them stay comparable.

Each estimate consumes a fixed, declared number of oracle draws:
2 * d * batch (coordinate), 2 * directions * batch (sphere, gaussian), and
directions * batch (one_point).  The batch size replicates draws at fixed
probe points; the direction set is drawn once per call and shared by all
replicates.  Given the same (x, config, stream), an estimate is bit-for-bit
reproducible.

One kernel computes every estimate.  :func:`estimate_gradients` runs it on
R base points at once, the rows of an (R, d) array: the R * N directions
come from one draw on the call's ``directions`` child stream, and all probe
points go to the oracle in one ``sample_at`` call on its ``draws`` child
stream.  :func:`estimate_gradient` is its R = 1 case and selects the
estimator by ``cfg.kind``; directions exist only as rows of these (N, d)
arrays.

The descent loop, :func:`zodd.optimizer.lockstep_descent`, calls the kernel
with one stream *per row* instead: R lockstep chains, each with its own
stream and probe radius.  Row r then draws exactly what a single estimate on
its own stream draws, so lockstep groups never change a draw; rows that
share a stream (tuning candidates of one trial) share its one direction
draw, and the oracle rewinds the stream for each of their probe blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    RngStream,
    SampleOracle,
    Vector,
    as_point,
    distinct_children,
    gaussian_matrix,
    sphere_matrix,
)

ESTIMATOR_KINDS = ("coordinate", "sphere", "gaussian", "one_point")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs of one gradient estimator.

    ``directions`` is the number of random probe directions per estimate
    (ignored by ``coordinate``, which always uses all d axes).  ``batch``
    is the number of independent draws taken at each probe point.
    """

    kind: str
    mu: float
    directions: int = 1
    batch: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(
                f"kind must be one of {ESTIMATOR_KINDS}, got {self.kind!r}"
            )
        if not (self.mu > 0 and np.isfinite(self.mu)):
            raise ValueError("probe radius mu must be positive and finite")
        if self.directions < 1:
            raise ValueError("need at least one direction")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    def samples_per_estimate(self, d: int) -> int:
        """Exact number of oracle draws one estimate consumes."""
        if d < 1:
            raise ValueError("need d >= 1")
        if self.kind == "coordinate":
            return 2 * d * self.batch
        if self.kind == "one_point":
            return self.directions * self.batch
        return 2 * self.directions * self.batch


@dataclass(frozen=True)
class GradientEstimate:
    """A gradient estimate plus the raw probe data that produced it."""

    gradient: Vector
    samples_used: int
    kind: str
    mu: float
    _directions: Vector = field(repr=False)
    _forward: Vector = field(repr=False)
    _backward: Vector | None = field(repr=False)

    @property
    def probe_mean(self) -> float:
        """Mean of every raw sample value consumed by this estimate.

        A free, if smoothed and noisy, proxy for the objective at the base
        point; the experiment harness logs it as the per-iteration objective
        estimate.
        """
        if self._backward is None:
            return float(self._forward.mean())
        return float((self._forward.mean() + self._backward.mean()) / 2.0)


def _draw_directions(cfg: EstimatorConfig, d: int, rows: int, rng: RngStream) -> Vector:
    """Directions as an (rows, N, d) array, or (1, N, d) shared by every row.

    Random directions come from one (rows * N, d) draw on the call's
    ``directions`` stream, so row r holds draws r*N .. r*N + N - 1.
    """
    if cfg.kind == "coordinate":
        return np.eye(d)[None]
    gen = rng.child("directions").generator()
    draw = gaussian_matrix if cfg.kind == "gaussian" else sphere_matrix
    return draw(gen, d, rows * cfg.directions).reshape(rows, cfg.directions, d)


def _streams_per_row(cfg: EstimatorConfig, d: int, streams) -> tuple[Vector, list]:
    """Directions and ``draws`` streams when every row brings its own stream.

    Each distinct stream draws its N directions and derives its children
    once; rows that share a stream share that draw, exactly as separate
    single-row calls on the stream would draw it.
    """
    slot: dict[RngStream, int] = {}
    index = [slot.setdefault(stream, len(slot)) for stream in streams]
    distinct = list(slot)
    if cfg.kind == "coordinate":
        dirs = np.eye(d)[None]
    else:
        drawn = [_draw_directions(cfg, d, 1, s) for s in distinct]
        table = drawn[0] if len(drawn) == 1 else np.concatenate(drawn)
        dirs = table if len(distinct) == len(index) else table[index]
    draws = distinct_children(distinct, "draws")
    return dirs, [draws[i] for i in index]


def _kernel(
    X: Vector,
    cfg: EstimatorConfig,
    oracle: SampleOracle,
    rng,
    mu=None,
) -> tuple[Vector, Vector, Vector, Vector | None]:
    """The one estimator computation: (R, d) base points in, (R, d) gradients out.

    ``rng`` is one stream for every row, whose directions are laid out by
    row, or a sequence of R streams, one per row: row r then draws exactly
    what a single-row call on its stream draws.  ``mu`` optionally gives
    each row its own probe radius, an (R,) array; the default is ``cfg.mu``.

    All R * (2N or N) probe points go to the oracle in one ``sample_at``
    call, so the budget is charged once for the whole call.  Returns the
    gradients, the directions (R or 1, N, d), and the forward and backward
    sample values as (batch, R, N) arrays (backward is None for
    ``one_point``).
    """
    rows, d = X.shape
    if isinstance(rng, RngStream):
        dirs = _draw_directions(cfg, d, rows, rng)
        draws = rng.child("draws")
    else:
        dirs, draws = _streams_per_row(cfg, d, rng)
    n = dirs.shape[1]
    radius = np.full((rows, 1), cfg.mu) if mu is None else np.asarray(mu, np.float64)[:, None]
    base = X[:, None, :]
    offsets = radius[:, :, None] * dirs
    if cfg.kind == "one_point":
        probes = base + offsets
    else:
        probes = np.concatenate([base + offsets, base - offsets], axis=1)
    values = oracle.sample_at(
        probes.reshape(-1, d), draws, replicates=cfg.batch
    ).reshape(cfg.batch, rows, -1)
    if cfg.kind == "one_point":
        forward, backward = values, None
        coeffs = values.mean(axis=0) / (2.0 * radius)
    else:
        forward, backward = values[:, :, :n], values[:, :, n:]
        coeffs = (forward - backward).mean(axis=0) / (2.0 * radius)
    if cfg.kind == "gaussian":
        scale = 1.0 / cfg.directions
    elif cfg.kind == "coordinate":
        scale = 1.0
    else:
        scale = d / cfg.directions
    # matmul, unlike einsum, sums each row in the order of a single (N,) @ (N, d)
    gradients = scale * np.matmul(coeffs[:, None, :], dirs)[:, 0, :]
    return gradients, dirs, forward, backward


def estimate_gradients(
    X, cfg: EstimatorConfig, oracle: SampleOracle, rng: RngStream
) -> Vector:
    """Independent estimates at every row of the (R, d) array ``X``.

    Returns an (R, d) array.  One call draws all R * N directions and all
    R * samples_per_estimate(d) samples at once, so it is much cheaper than
    R single estimates; the draws are laid out by row, and the single-point
    estimators are exactly the R = 1 case.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] != oracle.dimension:
        raise ValueError(f"points must be (R, {oracle.dimension}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite entries")
    return _kernel(X, cfg, oracle, rng)[0]


def _as_estimate(cfg: EstimatorConfig, gradients, dirs, forward, backward) -> GradientEstimate:
    """The first row of a :func:`_kernel` result as a :class:`GradientEstimate`."""
    return GradientEstimate(
        gradient=gradients[0],
        samples_used=cfg.samples_per_estimate(gradients.shape[1]),
        kind=cfg.kind,
        mu=cfg.mu,
        _directions=dirs[0],
        _forward=forward[:, 0],
        _backward=None if backward is None else backward[:, 0],
    )


def mse_upper_bound(
    kind: str,
    regime: str,
    *,
    d: int,
    mu: float,
    directions: int = 1,
    batch: int = 1,
    sigma: float,
    M: float | None = None,
    H: float | None = None,
    grad_norm_sq: float = 0.0,
) -> float:
    """Worst-case mean squared error of one gradient estimate.

    Two interchangeable bias accountings exist per estimator: ``grad``
    charges the probe radius against the gradient's Lipschitz constant
    ``M``; ``hessian`` charges it against the Hessian's Lipschitz
    constant ``H`` (zero for quadratics, where central differences are
    exact).  The randomized estimators additionally pay a direction
    variance proportional to the true squared gradient norm at the
    query point, supplied via ``grad_norm_sq``.
    """
    if regime not in ("grad", "hessian"):
        raise ValueError(f"unknown regime {regime!r}")
    if mu <= 0 or sigma < 0:
        raise ValueError("need mu > 0 and sigma >= 0")
    N = directions
    m = batch
    G = grad_norm_sq
    if regime == "grad":
        if M is None:
            raise ValueError("grad accounting needs M")
    elif H is None:
        raise ValueError("hessian accounting needs H")
    if kind == "coordinate":
        noise = 3 * sigma**2 * d / (2 * mu**2 * m)
        if regime == "grad":
            return noise + 3 * M**2 * d * mu**2 / 4
        return noise + H**2 * mu**4 * d / 12
    if kind == "sphere":
        noise = 3 * sigma**2 * d**2 / (mu**2 * N * m)
        drift = 18 * d**2 / (N * (d + 2)) * G
        if regime == "grad":
            return noise + 3 * M**2 * mu**2 + 3 * M**2 * mu**2 * d**2 / (2 * N) + drift
        return noise + 3 * mu**4 * H**2 + H**2 * mu**4 * d**2 / (6 * N) + drift
    if kind == "gaussian":
        noise = 3 * sigma**2 * d / (mu**2 * N * m)
        drift = 18 * d / N * G
        if regime == "grad":
            bias = 3 * mu**2 * M**2 * d
            tail = 3 * d * M**2 * mu**2 * (d + 2) * (d + 4) / (2 * N)
            return noise + bias + tail + drift
        bias = 3 * mu**4 * H**2 * d**2
        tail = H**2 * mu**4 * d * (d + 2) * (d + 4) * (d + 6) / (6 * N)
        return noise + bias + tail + drift
    raise ValueError(f"no error bound for estimator kind {kind!r}")


def estimate_gradient(
    x, cfg: EstimatorConfig, oracle: SampleOracle, rng: RngStream
) -> GradientEstimate:
    """Run the estimator selected by ``cfg.kind`` at the single point ``x``.

    Consumes ``cfg.samples_per_estimate(d)`` draws, all in one ``sample_at``
    call; every probe point gets its own independent draws.
    """
    x = as_point(x, oracle.dimension)
    return _as_estimate(cfg, *_kernel(x[None, :], cfg, oracle, rng))
