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

One kernel computes every estimate, from a :class:`PlannedStep`: the
rows' directions, their ``DRAWS`` substreams and their gradient scale.
:func:`estimate_gradients` plans step 0 of its stream for R base points at
once, the rows of an (R, d) array: the R * N directions come from the
stream's ``DIRECTIONS`` substreams, and all probe points go to the oracle
in one ``sample_at`` call on its ``DRAWS`` substream (see
:mod:`zodd.core` for the layout).  Given a sequence of G streams instead,
the rows split into G equal blocks and block g draws from stream g exactly
what a call on that block alone would draw: one direction part and one
``sample_at`` block per stream, so the estimates of G calls take the numpy
calls of one.  The probe points are built in chunks of at most
:data:`~zodd.core.CHUNK_VALUES` coordinates (see
:class:`~zodd.core.ProbePoints`), so an estimate holds its (N, d)
directions, its O(2N * batch) sample values and one chunk of points; the
point chunking changes no number.  A call's directions are one table of
one part per stream, and each part goes by chunks of
:func:`~zodd.core.chunk_rows` rows, chunk c drawn from its own substream
(:func:`_draw_directions`), so the direction-chunk size is part of the
stream layout.  The chunks of a longer table are the items of a
:class:`~zodd.core.ClaimMap`, so on more than one usable CPU helper threads
draw them in order while the kernel's own thread evaluates each chunk as it
lands, drawing the next unclaimed chunk itself whenever the one it needs is
not drawn yet (a :class:`PendingDirections`); the kernel joins the helpers
however the call ends.  A chunk's values depend only on its substream, so
neither the thread that draws it nor the CPU count changes a byte.
:func:`estimate_gradient` is its R = 1 case and selects the estimator by
``cfg.kind``; directions exist only as rows of these (N, d) arrays.

The descent loop, :func:`zodd.optimizer.lockstep_descent`, gives each row
its own stream instead (:class:`RowStreams`): R lockstep chains, each with
its own stream, probe radius and estimator kind, of which it keeps only
the gradients and the probe means.  Rows of different kinds share a call
when they share a probe shape (:meth:`EstimatorConfig.probe_shape`):
sphere, gaussian and coordinate rows with N = d directions, say.  Row r at
step t draws from its stream's substreams of step t exactly what a single
estimate of its kind draws from step 0, so lockstep groups never change a
draw; rows that share a stream and a kind (tuning candidates of one trial)
share its one direction draw, and the oracle restarts the substream for
each of their probe blocks.  The loop plans its steps in blocks, as a
:class:`BlockPlan`: one pass draws the whole block's directions as one
table, of one part per (stream, kind) and step, and finishes it in one
pass.  Each step hands the kernel its rows of it as a
:class:`PlannedStep`, with their gradient scale: a row's scale comes from
its kind, which only this module reads.  No step derives a stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    DIRECTIONS,
    DRAWS,
    ClaimMap,
    ProbePoints,
    RngStream,
    SampleOracle,
    Substream,
    Vector,
    _chunked_norms,
    as_count,
    as_point,
    chunk_rows,
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
        object.__setattr__(self, "directions", as_count(self.directions, "directions"))
        object.__setattr__(self, "batch", as_count(self.batch, "batch"))

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


def _draw_directions(cfg: EstimatorConfig, d: int, rows: int, parts, overlap: bool = True):
    """Directions as an (S * rows, N, d) array for S parts, N of ``cfg``'s probe shape.

    Part s, ``parts[s] = (stream, step, kind)``, holds rows * N directions
    of its kind, rows s*rows*N .. (s+1)*rows*N - 1 of one (S * rows * N, d)
    table.  Its chunks of :func:`~zodd.core.chunk_rows` rows, counted from
    the part's first row, are each drawn from their own substream,
    ``stream.at(step, DIRECTIONS, chunk)``: a sphere chunk is
    :func:`sphere_matrix` of it and a gaussian chunk
    :func:`gaussian_matrix`.  A coordinate part draws nothing and its rows
    hold the d axes, so kinds mix only where N = d.  When every part is
    coordinate, the directions are one (1, d, d) array shared by every row.
    :func:`_draw_chunks` draws and finishes a table of at most one chunk of
    rows in one pass, and a longer one a chunk at a time, each chunk an item
    of one :class:`~zodd.core.ClaimMap` with min(usable CPUs, chunks) - 1
    helper threads, or none without ``overlap``.  With helpers the table
    comes as a :class:`PendingDirections` of the same values; otherwise the
    caller has drawn it all, in order, and it comes as an array.
    """
    n = cfg.probe_shape(d)[1]
    shape, part, size = (len(parts) * rows, n, d), rows * n, chunk_rows(d)
    # each random chunk's rows of the table, its substream and its kind
    chunks = [(a, min(a + size, (p + 1) * part), stream.at(step, DIRECTIONS, c), kind)
              for p, (stream, step, kind) in enumerate(parts) if kind != "coordinate"
              for c, a in enumerate(range(p * part, (p + 1) * part, size))]
    if not chunks:
        return np.eye(d)[None]
    table = np.empty((shape[0] * n, d))
    if len(chunks) < len(parts):
        for p, (*_, kind) in enumerate(parts):
            if kind == "coordinate":
                table[p * part:(p + 1) * part].reshape(-1, d, d)[:] = np.eye(d)
    groups = [chunks] if len(table) <= size else [[chunk] for chunk in chunks]
    helpers = min(usable_cpus(), len(groups)) - 1 if overlap else 0
    claims = ClaimMap(lambda group: _draw_chunks(table, group), groups, helpers)
    return PendingDirections(table, chunks, claims, shape) if helpers else table.reshape(shape)


def _draw_chunks(table: Vector, chunks) -> None:
    """Draw each chunk of ``table`` from its substream, then finish the rows
    from the first chunk's to the last chunk's in place.

    ``chunks`` lists each chunk's first and last row + 1, substream and
    kind.  Unit-vector rows, of every kind but gaussian, are divided by
    their norms, by :func:`sphere_matrix`'s per-row formula; gaussian rows
    stay as drawn, and a coordinate row between chunks has norm exactly 1.
    A chunk with a zero norm (probability zero) is drawn again by
    ``sphere_matrix`` from its own substream, which redraws its zero rows.
    """
    d = table.shape[1]
    for gen, (a, b, _, _) in zip(stream_generators([c[2] for c in chunks]), chunks):
        # looked up per call, since the tracer wraps this name in this module
        gaussian_matrix(gen, d, b - a, out=table[a:b])
    if all(kind == "gaussian" for *_, kind in chunks):
        return
    lo = chunks[0][0]
    block = table[lo:chunks[-1][1]]
    norms = _chunked_norms(block)
    for a, b, _, kind in chunks:
        if kind == "gaussian":
            norms[a - lo:b - lo] = 1.0
    if not norms.all():
        for a, b, sub, _ in chunks:
            if not norms[a - lo:b - lo].all():
                for gen in stream_generators([sub]):
                    sphere_matrix(gen, d, b - a, out=table[a:b])
                norms[a - lo:b - lo] = 1.0
    block /= norms[:, None]


class PendingDirections:
    """A direction table whose chunks helper threads and the caller draw.

    The (R * N, d) ``table``, of shape ``shape`` = (R, N, d), holds its
    coordinate parts already; ``claims``, a :class:`~zodd.core.ClaimMap`
    over ``chunks`` (see :func:`_draw_directions`), draws and finishes each
    chunk into its rows, and :meth:`rows` reads the chunks in order through
    it.  A unit-vector entry is at most 1 up to rounding, since sqrt(fl(sum
    u_j^2)) >= |u_i| but for one rounding of each step, so :attr:`unit`
    tells that without waiting.
    """

    def __init__(self, table: Vector, chunks, claims: ClaimMap, shape):
        self.shape = shape
        self.unit = all(kind != "gaussian" for *_, kind in chunks)
        self._table = table
        self._chunks = chunks
        self._claims = claims
        self._read = 0  # chunks the caller has seen drawn, a prefix

    def rows(self, lo: int, hi: int) -> Vector:
        """Rows lo..hi-1 of the table, finished."""
        while self._read < len(self._chunks) and self._chunks[self._read][0] < hi:
            self._claims.result(self._read)
            self._read += 1
        return self._table[lo:hi]

    def result(self) -> Vector:
        """The whole finished (R, N, d) array, the helpers joined."""
        self._claims.results()
        return self._table.reshape(self.shape)

    def close(self) -> None:
        """Stop the helpers between chunks, if they still run, and join them."""
        self._claims.close()


class RowStreams(NamedTuple):
    """One stream per row, held as the distinct streams and each row's index.

    :meth:`of` finds which rows share a stream, the one step that compares
    streams; :meth:`take` keeps that sharing, so a caller that resolves it
    once draws each distinct stream's directions once (:class:`BlockPlan`)
    and drops rows without hashing a stream.  ``distinct`` lists the streams
    in order of first use, and ``index`` is an int array of one entry per
    row, so when no two rows share a stream it is 0, 1, ..., R - 1.
    ``kinds`` holds each distinct entry's estimator kind: rows share an
    entry only when they share both stream and kind, since rows of two kinds
    on one stream each draw their own directions.
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

    def take(self, keep) -> "RowStreams":
        """The rows selected by the boolean mask ``keep``, without unused streams."""
        slot: dict[int, int] = {}
        index = [slot.setdefault(i, len(slot)) for i in self.index[keep].tolist()]
        return RowStreams([self.distinct[i] for i in slot], np.array(index, dtype=np.intp),
                          [self.kinds[i] for i in slot])


class PlannedStep(NamedTuple):
    """The inputs of one :func:`_kernel` call that do not depend on its points.

    ``dirs`` holds the rows' directions: an (R, N, d) array, the (1, d, d)
    axes every coordinate row shares, or a :class:`PendingDirections`.
    ``draws`` holds one ``DRAWS`` substream per equal block of rows, as
    ``sample_at`` takes them, and ``scale`` the gradient scale, a number or
    an (R, 1) column.
    """

    dirs: Vector | PendingDirections
    draws: list[Substream]
    scale: float | Vector


def _scale(kind: str, n: int, d: int) -> float:
    """An estimator's gradient scale: 1 / N (gaussian), 1 (coordinate), else d / N."""
    if kind == "gaussian":
        return 1.0 / n
    if kind == "coordinate":
        return 1.0
    return d / n


def _plan_step(cfg: EstimatorConfig, rows: int, d: int, rng) -> PlannedStep:
    """The step of an estimate at ``rows`` points on one stream, or on G
    streams of G equal blocks of rows (see :func:`estimate_gradients`): step
    0 of each stream.  Before any draw, anything but RngStreams is a
    TypeError, and rows that do not split are a ValueError."""
    streams = [rng] if isinstance(rng, RngStream) else list(rng)
    if not all(isinstance(s, RngStream) for s in streams):
        raise TypeError("rng must be an RngStream or a sequence of RngStreams")
    if not streams or rows % len(streams):
        raise ValueError(f"{rows} rows do not split into {len(streams)} equal blocks")
    scale = _scale(cfg.kind, cfg.probe_shape(d)[1], d)
    draws = [s.at(0, DRAWS) for s in streams]
    # the directions come last, so nothing can raise while a pending draw runs
    dirs = _draw_directions(cfg, d, rows // len(streams), [(s, 0, cfg.kind) for s in streams])
    return PlannedStep(dirs, draws, scale)


class BlockPlan(NamedTuple):
    """The iterate-free part of a block of lockstep steps, prepared in one pass.

    :meth:`of` takes the rows' roots, a :class:`RowStreams` of S distinct
    entries, and the block's step numbers.  It draws the whole block's
    directions as one table by one :func:`_draw_directions` call, so step
    j's parts are rows j*S .. j*S + S - 1 of one fill and one finishing
    pass; entry s's part of step t is drawn from its stream's substreams
    ``at(t, DIRECTIONS, chunk)`` and finished row by row, so a row's
    directions do not depend on the block around it.  ``dirs`` holds each
    step's (S, N, d) parts, or the shared axes when every row is coordinate
    (``per_part`` is then False); ``draws`` each step's S ``DRAWS``
    substreams; ``scale`` the gradient scale, a number when every entry's is
    the same and otherwise each entry's, an (S, 1) column; ``shared`` tells
    that rows share an entry.  Only a block of one step, every row on its
    own entry, may come as a pending draw.
    """

    dirs: list
    draws: list[list[Substream]]
    scale: float | Vector
    per_part: bool
    shared: bool

    @classmethod
    def of(cls, cfg: EstimatorConfig, d: int, roots: RowStreams, steps: range) -> "BlockPlan":
        parts = len(roots.distinct)
        per_part = any(kind != "coordinate" for kind in roots.kinds)
        # rows on one entry gather its part, so they cannot read a pending draw
        shared = parts < len(roots.index)
        n = cfg.probe_shape(d)[1]
        scales = [_scale(kind, n, d) for kind in roots.kinds]
        scale = scales[0] if len(set(scales)) == 1 else np.array(scales)[:, None]
        draws = [[s.at(t, DRAWS) for s in roots.distinct] for t in steps]
        # the directions come last, so nothing can raise while a pending draw runs
        table = _draw_directions(cfg, d, 1, [(s, t, kind) for t in steps
                                             for s, kind in zip(roots.distinct, roots.kinds)],
                                 overlap=len(steps) == 1 and not shared)
        if per_part and len(steps) > 1:
            dirs = [table[j * parts:(j + 1) * parts] for j in range(len(steps))]
        else:
            dirs = [table] * len(steps)
        return cls(dirs, draws, scale, per_part, shared)

    def step(self, j: int, index: np.ndarray) -> PlannedStep:
        """Step j's inputs for the rows on entries ``index``, an int array: the
        plan's own, or a subset of it once rows have left."""
        draws, dirs, scale = self.draws[j], self.dirs[j], self.scale
        if self.shared or len(index) < len(draws):
            if isinstance(scale, np.ndarray):
                scale = scale[index]
            if self.per_part:
                dirs = dirs[index]
        return PlannedStep(dirs, [draws[i] for i in index.tolist()], scale)


def _kernel(X: Vector, cfg: EstimatorConfig, oracle: SampleOracle, step: PlannedStep,
            mu=None) -> tuple[Vector, Vector, Vector, Vector | None]:
    """The one estimator computation: (R, d) base points in, (R, d) gradients out.

    Every row takes N, the batch and its sides from ``cfg.probe_shape(d)``,
    and its directions, ``DRAWS`` substreams and gradient scale from
    ``step``: a :func:`_plan_step` of one stream or of G equal blocks of
    rows, or a lockstep step of a :class:`BlockPlan`, one stream and kind
    per row.
    ``mu`` optionally gives each row its own probe radius, an (R,) array;
    the default is ``cfg.mu``.

    All R * (2N or N) probe points go to the oracle in one ``sample_at``
    call, so the budget is charged once for the whole call.  They go as a
    :class:`~zodd.core.ProbePoints`, built a chunk at a time, so the call
    holds the directions, the sample values and one chunk of points, never
    the whole (R, 2N, d) probe array.  Directions still being drawn by
    helper threads are read through their pending draw, and the helpers are
    stopped and joined however the call ends.  Returns the gradients, the
    directions (R or 1, N, d), and the forward and backward sample values
    as (batch, R, N) arrays (backward is None when one-sided).
    """
    try:
        dirs, draws, scale = step
        rows, d = X.shape
        two_sided, n, batch = cfg.probe_shape(d)
        radius = np.full((rows, 1), cfg.mu) if mu is None else np.asarray(mu, np.float64)[:, None]
        probes = ProbePoints(X, radius, dirs, two_sided=two_sided)
        values = oracle.sample_at(probes, draws, replicates=batch)
        if not isinstance(dirs, np.ndarray):
            dirs = dirs.result()
    finally:
        if not isinstance(step.dirs, np.ndarray):
            step.dirs.close()
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
    X, cfg: EstimatorConfig, oracle: SampleOracle, rng: RngStream | Sequence[RngStream]
) -> Vector:
    """Independent estimates at every row of the (R, d) array ``X``.

    Returns an (R, d) array.  One call draws all R * N directions and all
    R * samples_per_estimate(d) samples at once, so it is much cheaper than
    R single estimates; the draws are laid out by row, and the single-point
    estimators are exactly the R = 1 case.  ``rng`` may also be a sequence
    of G streams, as ``sample_at`` takes it: the rows split into G equal
    blocks, and block g gets exactly the bits of ``estimate_gradients(X_g,
    cfg, oracle, rng[g])``, while the budget is charged once for the call.
    G = 0, or R not a multiple of G, raises ValueError before any draw, and
    anything but RngStreams (a ``Substream`` included) a TypeError.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] != oracle.dimension:
        raise ValueError(f"points must be (R, {oracle.dimension}), got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("points have non-finite entries")
    return _kernel(X, cfg, oracle, _plan_step(cfg, *X.shape, rng))[0]


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
    step = _plan_step(cfg, 1, oracle.dimension, rng)
    gradients, dirs, forward, backward = _kernel(x[None, :], cfg, oracle, step)
    return GradientEstimate(
        gradient=gradients[0],
        samples_used=cfg.samples_per_estimate(oracle.dimension),
        kind=cfg.kind,
        mu=cfg.mu,
        _directions=dirs[0],
        _forward=forward[:, 0],
        _backward=None if backward is None else backward[:, 0],
    )
