"""Foundations: decision vectors, splittable RNG streams, search directions,
and budgeted sampling oracles.

Search directions are the rows of an (n, d) array: :func:`sphere_matrix`
draws uniform unit vectors and :func:`gaussian_matrix` standard normal
ones; coordinate directions are the rows of the identity.

Everything downstream draws its randomness through :class:`RngStream`, a thin
wrapper over a counter-based bit generator.  A stream is identified by a
``(seed, stream)`` pair; deriving a child stream is a pure hash of the parent
identity and a label, so any draw in the library is a pure function of the
root seed and the chain of labels that leads to it.  Distinct stream ids give
statistically independent generators, which is what lets independent pieces
of work (directions of one estimate, seeds of one experiment) run in any
order, or batched together, without changing results.

A :class:`SampleOracle` is the only way samples enter the library.  Every
draw is counted by a :class:`BudgetCounter`; when a hard budget is set, a
draw that would exceed it raises :class:`BudgetExhaustedError` before any
state is consumed.  One ``sample_at`` call may serve many independent
streams at once, one per block of points, each block drawn as if alone.
"""

from __future__ import annotations

import hashlib
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

_MASK64 = (1 << 64) - 1


def as_point(x, dimension: int | None = None) -> Vector:
    """Validate and return ``x`` as a finite 1-d float64 vector.

    Raises ValueError on wrong rank, wrong length, or non-finite entries.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"point must be 1-d, got shape {arr.shape}")
    if dimension is not None and arr.shape[0] != dimension:
        raise ValueError(f"point has dimension {arr.shape[0]}, expected {dimension}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite entries")
    return arr


@dataclass(frozen=True)
class RngStream:
    """A named, splittable source of randomness.

    ``generator()`` always returns a fresh generator positioned at the start
    of the stream, so repeated calls replay the same sequence.  ``child``
    derives a new independent stream from a sequence of labels; the
    derivation is a stable hash, independent of platform and process.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def generator(self) -> np.random.Generator:
        key = (self.stream << 64) | self.seed
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *labels: int | str) -> "RngStream":
        h = hashlib.blake2b(digest_size=8)
        h.update(self.stream.to_bytes(8, "little"))
        for label in labels:
            if isinstance(label, int):
                h.update(b"i" + (label & _MASK64).to_bytes(8, "little"))
            else:
                h.update(b"s" + label.encode("utf-8"))
            h.update(b"/")
        return RngStream(self.seed, int.from_bytes(h.digest(), "little"))


def _as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def distinct_children(streams, *labels: int | str) -> list[RngStream]:
    """``[s.child(*labels) for s in streams]``, deriving each distinct child once.

    Equal streams get the very same child object, so the result can be
    deduplicated again cheaply.
    """
    made: dict[RngStream, RngStream] = {}
    out = []
    for stream in streams:
        child = made.get(stream)
        if child is None:
            child = made[stream] = stream.child(*labels)
        out.append(child)
    return out


class _BlockGenerators:
    """One generator per block of points, each at the start of its stream.

    A stream that repeats within one call builds its Philox once; every later
    block of that stream rewinds it to the saved initial state, which is much
    cheaper than building a new generator.
    """

    def __init__(self, streams: list[RngStream]) -> None:
        self._streams = streams

    def __len__(self) -> int:
        return len(self._streams)

    def __iter__(self):
        started: dict[RngStream, tuple[np.random.Generator, dict]] = {}
        for stream in self._streams:
            seen = started.get(stream)
            if seen is None:
                gen = stream.generator()
                started[stream] = (gen, gen.bit_generator.state)
            else:
                gen, initial = seen
                gen.bit_generator.state = initial
            yield gen


def draw_blocks(gens, k: int, draw, axis: int = 0) -> Vector:
    """Join ``draw(gen, lo, hi)`` over the equal blocks of k points along ``axis``.

    ``gens`` is what :meth:`SampleOracle._draw_at` receives: one generator
    for all k points, or one per block; ``gen`` draws for points lo..hi-1.
    """
    if isinstance(gens, np.random.Generator):
        return draw(gens, 0, k)
    size = k // len(gens)
    parts = [draw(gen, g * size, (g + 1) * size) for g, gen in enumerate(gens)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def row_norms(X) -> Vector:
    """Euclidean norm of every row of X, each bit-equal to ``np.linalg.norm(row)``.

    The stacked (1, d) @ (d, 1) products take the same dot-product path as the
    norm of a single vector; ``einsum`` and ``sum(axis=1)`` round differently.
    """
    X = np.asarray(X, dtype=np.float64)
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def sphere_matrix(gen: np.random.Generator, d: int, n: int) -> Vector:
    """n unit-sphere directions as rows of an (n, d) array."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    u = gen.standard_normal((n, d))
    norms = np.linalg.norm(u, axis=1)
    # a zero draw has probability zero; redraw defensively rather than divide by it
    while np.any(norms == 0.0):
        bad = norms == 0.0
        u[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None]


def gaussian_matrix(gen: np.random.Generator, d: int, n: int) -> Vector:
    """n standard Gaussian directions as rows of an (n, d) array."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    return gen.standard_normal((n, d))


class BudgetExhaustedError(RuntimeError):
    """A draw was requested beyond the sampling budget; nothing was consumed."""


class BudgetCounter:
    """Thread-safe counter of sample draws with an optional hard limit."""

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 0:
            raise ValueError("budget limit must be nonnegative")
        self._limit = limit
        self._consumed = 0
        self._lock = threading.Lock()

    @property
    def limit(self) -> int | None:
        return self._limit

    @property
    def consumed(self) -> int:
        return self._consumed

    @property
    def remaining(self) -> int | None:
        if self._limit is None:
            return None
        return self._limit - self._consumed

    def charge(self, k: int) -> None:
        """Atomically consume k draws, or raise without consuming any."""
        if k < 0:
            raise ValueError("cannot charge a negative number of draws")
        with self._lock:
            if self._limit is not None and self._consumed + k > self._limit:
                raise BudgetExhaustedError(
                    f"budget exhausted: {self._consumed} consumed of {self._limit}, "
                    f"requested {k} more"
                )
            self._consumed += k


class SampleOracle(ABC):
    """A source of scalar samples f(x, xi) with xi drawn from D(x).

    Subclasses implement ``_draw_at``; the base class owns budget
    accounting.  ``sample`` draws one value at one point; ``sample_at``
    draws ``replicates`` independent values at each of k points in one
    atomic charge of ``k * replicates`` draws.
    """

    def __init__(self, budget: int | None = None):
        self._budget = BudgetCounter(budget)

    @property
    def budget(self) -> BudgetCounter:
        return self._budget

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Dimension of the decision vector."""

    @abstractmethod
    def _draw_at(self, points: Vector, gens, replicates: int) -> Vector:
        """Return a (replicates, k) array of draws for the (k, d) points.

        ``gens`` is one generator for all points, or a sized iterable of G
        generators for G equal contiguous blocks of the points; block g must
        be drawn from the g-th generator exactly as a call with that block
        alone would draw it, and before the next generator is taken (a
        repeated stream reuses one generator, rewound).  :func:`draw_blocks`
        does the splitting, so the deterministic work can run once over all
        k points.
        """

    def sample(self, x, rng: RngStream | np.random.Generator) -> float:
        """One draw of f(x, xi), xi ~ D(x).  Consumes one unit of budget."""
        x = as_point(x, self.dimension)
        self._budget.charge(1)
        return float(self._draw_at(x[None, :], _as_generator(rng), 1)[0, 0])

    def sample_at(self, points, rng, replicates: int = 1) -> Vector:
        """Independent draws at many points: (replicates, k) array.

        ``rng`` is one stream (or generator) for all k points, or a sequence
        of G RngStreams: the points then split into G equal contiguous blocks,
        and block g is drawn exactly as ``sample_at(block_g, rng[g],
        replicates)`` would draw it.  A stream may repeat; each of its blocks
        starts from the beginning of the stream.

        All draws are independent across points and replicates; the budget
        is charged atomically, so either the whole batch is counted or a
        BudgetExhaustedError is raised with nothing consumed.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"points must be (k, {self.dimension}), got {pts.shape}")
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points have non-finite entries")
        single = isinstance(rng, (RngStream, np.random.Generator))
        if not single:
            rng = list(rng)
            if not rng or pts.shape[0] % len(rng):
                raise ValueError(
                    f"{pts.shape[0]} points do not split into {len(rng)} equal blocks"
                )
        self._budget.charge(pts.shape[0] * replicates)
        gens = _as_generator(rng) if single else _BlockGenerators(rng)
        return self._draw_at(pts, gens, replicates)
