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
stream.  The probe points are built in chunks of at most
:data:`~zodd.core.CHUNK_VALUES` coordinates (see
:class:`~zodd.core.ProbePoints`), so an estimate holds its (N, d)
directions, its O(2N * batch) sample values and one chunk of points; the
chunking changes no number.  A direction table longer than one chunk, on
more than one usable CPU, is drawn on a helper thread
(:class:`~zodd.core.PendingDirections`) while the kernel's own thread
normalizes and evaluates each chunk as it lands; the kernel waits for the
last chunk before its reduction and joins the helper however the call
ends.  The values are those of the inline draw, so no CPU count changes a
byte.
:func:`estimate_gradient` is its R = 1 case and selects the estimator by
``cfg.kind``; directions exist only as rows of these (N, d) arrays.

The descent loop, :func:`zodd.optimizer.lockstep_descent`, calls the kernel
with one stream *per row* instead, as a :class:`RowStreams`: R lockstep
chains, each with its own stream, probe radius and estimator kind, of
which it keeps only the gradients and the probe means.  Rows of different
kinds share a call when they share a probe shape
(:meth:`EstimatorConfig.probe_shape`): sphere, gaussian and coordinate rows
with N = d directions, say.  Row r draws exactly what a single estimate of
its kind on its own stream draws, so lockstep groups never change a draw;
rows that share a stream and a kind (tuning candidates of one trial) share
its one direction draw, and the oracle restarts the stream for each of
their probe blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    PendingDirections,
    ProbePoints,
    RngStream,
    SampleOracle,
    Vector,
    _chunked_norms,
    as_point,
    chunk_rows,
    direction_table,
    gaussian_matrix,
    sphere_matrix,
    stream_generators,
    usable_cpus,
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

    def probe_shape(self, d: int) -> tuple[bool, int, int]:
        """(two-sided, probe directions N, batch) of one estimate at dimension d.

        Estimates of one shape cost the same draws and build the same probe
        layout, whatever their kind, so they can share a lockstep step.
        """
        n = d if self.kind == "coordinate" else self.directions
        return self.kind != "one_point", n, self.batch

    def samples_per_estimate(self, d: int) -> int:
        """Exact number of oracle draws one estimate consumes."""
        if d < 1:
            raise ValueError("need d >= 1")
        two_sided, n, batch = self.probe_shape(d)
        return (2 if two_sided else 1) * n * batch


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
        backward = None if self._backward is None else self._backward[:, None]
        return _probe_means(self._forward[:, None], backward)[0]


def _probe_means(forward: Vector, backward: Vector | None) -> list[float]:
    """The mean of every sample value of each row of (batch, R, N) values.

    ``GradientEstimate.probe_mean`` is the R = 1 case; a row's mean does not
    depend on the rows beside it.  Each half is reduced in one call that
    sums each row pairwise as one contiguous run: its (N,) values when
    batch = 1, else a (batch * N,) copy.  When batch > 1 and a row's
    two-sided half exceeds numpy's reduction buffer, each row instead takes
    the mean of its strided (batch, N) halves, which numpy sums buffer by
    buffer, so such estimates keep the numbers they have always had.
    """
    batch, rows, n = forward.shape
    if backward is not None and batch > 1 and batch * n > np.getbufsize():
        return [float((forward[:, r].mean() + backward[:, r].mean()) / 2.0)
                for r in range(rows)]
    halves = [forward] if backward is None else [forward, backward]
    sums = [half[0].sum(axis=1) if batch == 1
            else half.transpose(1, 0, 2).reshape(rows, batch * n).sum(axis=1)
            for half in halves]
    means = sums[0] / (batch * n)
    if backward is not None:
        means = (means + sums[1] / (batch * n)) / 2.0
    return means.tolist()


def _draw_directions(cfg: EstimatorConfig, d: int, rows: int, streams, kinds=None,
                     overlap: bool = True):
    """Directions as an (S * rows, N, d) array for S streams, N of ``cfg``'s probe shape.

    Stream s draws directions of kind ``kinds[s]``, by default ``cfg.kind``.
    Each stream's random directions come from one (rows * N, d) draw on its
    ``directions`` child, so its row r holds draws r*N .. r*N + N - 1; the
    streams' rows follow one another.  A coordinate stream draws nothing
    and its rows hold the d axes, so kinds mix only where N = d.  When every
    stream is coordinate, the directions are one (1, d, d) array shared by
    every row.  With ``overlap``, a table longer than one chunk, on more
    than one usable CPU, comes as a :class:`~zodd.core.PendingDirections`
    of the same values, drawn on a helper thread while the caller reads it.
    Otherwise the parts are drawn into one table, whose unit-vector rows are
    normalized in one pass by :func:`sphere_matrix`'s formula; a part with a
    zero norm (probability zero) is drawn again by ``sphere_matrix`` itself.
    """
    kinds = [cfg.kind] * len(streams) if kinds is None else kinds
    n = cfg.probe_shape(d)[1]
    shape, part = (len(kinds) * rows, n, d), rows * n
    # each random part's rows of the table, and its stream's directions child
    random = [(slice(p * part, (p + 1) * part), s.child("directions"), k)
              for p, (s, k) in enumerate(zip(streams, kinds)) if k != "coordinate"]
    if not random:
        return np.eye(d)[None]
    children = [child for _, child, _ in random]
    if overlap and shape[0] * shape[1] > chunk_rows(d) and usable_cpus() > 1:
        return PendingDirections(stream_generators(children), kinds, shape)
    table = direction_table(kinds, part, d)
    # the draw is looked up per call, since the tracer wraps this name in this module
    for gen, (at, _, _) in zip(stream_generators(children), random):
        gaussian_matrix(gen, d, part, out=table[at])
    if kinds.count("gaussian") < len(kinds):
        norms = _chunked_norms(table)  # a coordinate row's norm is exactly 1
        for at, _, kind in random:
            if kind == "gaussian":
                norms[at] = 1.0
        if not norms.all():  # a zero norm
            for at, child, _ in random:
                if not norms[at].all():
                    for gen in stream_generators([child]):
                        table[at] = sphere_matrix(gen, d, part)
                    norms[at] = 1.0
        table /= norms[:, None]
    return table.reshape(shape)


class RowStreams(NamedTuple):
    """One stream per row, held as the distinct streams and each row's index.

    :meth:`of` finds which rows share a stream, the one step that compares
    streams; :meth:`child` and :meth:`take` keep that sharing, so a caller
    that resolves it once can derive and drop rows without hashing a stream.
    ``distinct`` lists the streams in order of first use, and ``index`` is
    an int array of one entry per row, so when no two rows share a stream
    it is 0, 1, ..., R - 1.  ``kinds`` holds each distinct entry's
    estimator kind: rows share an entry only when they share both stream
    and kind, since rows of two kinds on one stream each draw their own
    directions.
    """

    distinct: list[RngStream]
    index: np.ndarray
    kinds: list[str]

    @classmethod
    def of(cls, streams, kinds) -> "RowStreams":
        """Row r on ``streams[r]``, of estimator kind ``kinds[r]``."""
        slot: dict = {}
        index = np.array([slot.setdefault(key, len(slot)) for key in zip(streams, kinds)],
                         dtype=np.intp)
        return cls([s for s, _ in slot], index, [k for _, k in slot])

    def child(self, *labels: int | str) -> "RowStreams":
        """Every row's ``child(*labels)``, derived once per distinct stream."""
        return RowStreams([stream.child(*labels) for stream in self.distinct],
                          self.index, self.kinds)

    def take(self, keep) -> "RowStreams":
        """The rows selected by the boolean mask ``keep``, without unused streams."""
        slot: dict[int, int] = {}
        index = [slot.setdefault(i, len(slot)) for i in self.index[keep].tolist()]
        return RowStreams([self.distinct[i] for i in slot], np.array(index, dtype=np.intp),
                          [self.kinds[i] for i in slot])


def _streams_per_row(cfg: EstimatorConfig, d: int, rows: RowStreams) -> tuple[Vector, list]:
    """Directions and ``draws`` streams when every row brings its own stream.

    Each distinct stream draws its N directions and derives its children
    once; rows that share a stream and a kind share that draw, exactly as
    separate single-row calls on the stream would draw it.
    """
    distinct = rows.child("draws").distinct
    draws = [distinct[i] for i in rows.index.tolist()]
    # all-coordinate rows share one set of axes; other directions are per stream
    shared = len(rows.distinct) < len(rows.index) and any(k != "coordinate" for k in rows.kinds)
    dirs = _draw_directions(cfg, d, 1, rows.distinct, rows.kinds, overlap=not shared)
    return (dirs[rows.index] if shared else dirs), draws


def _scale(kind: str, n: int, d: int) -> float:
    """An estimator's gradient scale: 1 / N (gaussian), 1 (coordinate), else d / N."""
    if kind == "gaussian":
        return 1.0 / n
    if kind == "coordinate":
        return 1.0
    return d / n


def _kernel(
    X: Vector,
    cfg: EstimatorConfig,
    oracle: SampleOracle,
    rng,
    mu=None,
    scale=None,
) -> tuple[Vector, Vector, Vector, Vector | None]:
    """The one estimator computation: (R, d) base points in, (R, d) gradients out.

    Every row takes N, the batch and its sides from ``cfg.probe_shape(d)``.
    ``rng`` is one stream for every row, whose directions are laid out by
    row, or a :class:`RowStreams` of R rows: row r then draws exactly what
    a single-row call on its stream draws, with its own kind (the gradient
    scale is then an (R, 1) column, which a caller that keeps it passes as
    ``scale``).
    ``mu`` optionally gives each row its own probe radius, an (R,) array;
    the default is ``cfg.mu``.

    All R * (2N or N) probe points go to the oracle in one ``sample_at``
    call, so the budget is charged once for the whole call.  They go as a
    :class:`~zodd.core.ProbePoints`, built a chunk at a time, so the call
    holds the directions, the sample values and one chunk of points, never
    the whole (R, 2N, d) probe array.  Directions still being drawn by a
    helper thread are read through their pending draw, and the helper is
    stopped and joined before any exception leaves.  Returns the gradients, the
    directions (R or 1, N, d), and the forward and backward sample values
    as (batch, R, N) arrays (backward is None when one-sided).
    """
    rows, d = X.shape
    two_sided, n, batch = cfg.probe_shape(d)
    radius = np.full((rows, 1), cfg.mu) if mu is None else np.asarray(mu, np.float64)[:, None]
    # the directions come last: a pending draw is closed by the block after them
    if isinstance(rng, RngStream):
        draws = rng.child("draws")
        scale = _scale(cfg.kind, n, d)
        dirs = _draw_directions(cfg, d, rows, [rng])
    else:
        if scale is None:
            scale = np.array([_scale(kind, n, d) for kind in rng.kinds])[rng.index, None]
        dirs, draws = _streams_per_row(cfg, d, rng)
    pending = dirs if isinstance(dirs, PendingDirections) else None
    try:
        probes = ProbePoints(X, radius, dirs, two_sided=two_sided)
        values = oracle.sample_at(probes, draws, replicates=batch)
        if pending is not None:
            dirs = pending.result()
    finally:
        if pending is not None:
            pending.close()
    values = values.reshape(batch, rows, -1)
    if two_sided:
        forward, backward = values[:, :, :n], values[:, :, n:]
        diffs = forward - backward
    else:
        forward, backward = values, None
        diffs = values
    # the mean of a batch of one is its one value, bit for bit
    coeffs = (diffs[0] if batch == 1 else diffs.mean(axis=0)) / (2.0 * radius)
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
    gradients, dirs, forward, backward = _kernel(x[None, :], cfg, oracle, rng)
    return GradientEstimate(
        gradient=gradients[0],
        samples_used=cfg.samples_per_estimate(oracle.dimension),
        kind=cfg.kind,
        mu=cfg.mu,
        _directions=dirs[0],
        _forward=forward[:, 0],
        _backward=None if backward is None else backward[:, 0],
    )
