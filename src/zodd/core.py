"""Foundations: decision vectors, splittable RNG streams, search directions,
and budgeted sampling oracles.

Search directions are the rows of an (n, d) array: :func:`sphere_matrix`
draws uniform unit vectors and :func:`gaussian_matrix` standard normal
ones; coordinate directions are the rows of the identity.

Everything downstream draws its randomness through :class:`RngStream`, a thin
wrapper over a counter-based bit generator.  A stream is identified by a
``(seed, stream)`` pair, which is its Philox key; deriving a child stream is
a pure hash of the parent identity and a label, so any draw in the library
is a pure function of the root seed and the chain of labels that leads to
it.  Only roots are derived: one per seed, chain, tuning trial, verify
chunk, output pick and evaluation.  Within a root, the draws of step t for
purpose p (:data:`DRAWS` for the oracle's samples, :data:`DIRECTIONS` for
the search directions) and chunk c form a :class:`Substream`: the root's
key at counter (0, 0, c, t * :data:`PURPOSES` + p), reached by
:meth:`RngStream.at` without hashing anything.  Philox increments counter
word 0 and carries into word 1, so a substream shorter than 2^128 blocks
never reaches another's (Salmon, Moraes, Dror & Shaw, "Parallel random
numbers: as easy as 1, 2, 3", SC 2011).  A root's own ``generator()``
starts at counter (0, 0, 0, 0), where its substream (0, DRAWS, 0) starts
too.  Distinct keys, and distinct counters of one key, give statistically
independent draws, which is what lets independent pieces of work (chunks
of one direction table, seeds of one experiment) run in any order, on any
thread, or batched together, without changing results.  Code that draws
from many streams in turn takes its generators from
:func:`stream_generators`: each thread keeps one Philox generator and
resets it to the start of every stream or substream it is lent for, by a
state of Python ints (numpy sets it faster than uint64 words), which draws
exactly what that stream's own ``generator()`` draws without building a
generator per stream.

A :class:`SampleOracle` is the only way samples enter the library.  Every
draw is counted by a :class:`BudgetCounter`; when a hard budget is set, a
draw that would exceed it raises :class:`BudgetExhaustedError` before any
state is consumed.  One ``sample_at`` call may serve many independent
streams at once, one per block of points, each block drawn as if alone.

Points are read in chunks of at most :data:`CHUNK_VALUES` coordinates
through :func:`point_chunks`: views of a plain (k, d) array, or the blocks
of a :class:`ProbePoints`, which builds an estimator call's probe points
chunk by chunk instead of holding them all.  Every row's arithmetic is
independent of the rows around it, so the order in which point chunks come
changes no number.  A direction table goes by the same chunks of
:func:`chunk_rows` rows, each drawn from its own substream, so the chunk
size is part of the stream layout; the oracle's samples of one step are one
substream and never go by chunk.
"""

from __future__ import annotations

import copy
import hashlib
import os
import threading
from abc import ABC, abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

_MASK64 = (1 << 64) - 1

# the most float64 coordinates of points built or read at once (1 MiB), so
# that a chunk's (rows, d) temporaries stay in cache; a direction table's
# chunks have as many rows, each its own substream, so it is part of the
# stream layout
CHUNK_VALUES = 1 << 17

# the version of the stream layout: 2 is one Philox key per root and a
# counter offset per (step, purpose, chunk) substream
STREAM_LAYOUT = 2

# the purposes of a step's substreams, and how many there are
DRAWS = 0
DIRECTIONS = 1
PURPOSES = 2


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class ClaimMap:
    """``fn`` of each of ``items``, claimed in item order by ``helpers`` threads and the caller.

    :meth:`result` reads item i: until it is done, the caller claims and
    runs the next unclaimed item itself, and waits only when every item is
    claimed.  With no helpers the caller runs every item at once, and no
    lock or thread is made.  The first exception an item raises stops
    further claims; reading an item not done then raises it, once every
    helper is joined.  :meth:`close` stops the helpers between items and
    joins them; call it however the caller exits.
    """

    def __init__(self, fn, items, helpers: int):
        self._fn = fn
        self._items = items
        self._stopped = False
        self._threads = [threading.Thread(target=self._help, daemon=True)
                         for _ in range(helpers)]
        # each item's result, in a 1-tuple once the item is done
        if not self._threads:
            self._results = [(fn(item),) for item in items]
            return
        self._results = [None] * len(items)
        self._claimed = 0  # items claimed so far, a prefix
        self._error = None
        self._cond = threading.Condition()
        for thread in self._threads:
            thread.start()

    def _claim(self) -> int | None:
        """The next item, now claimed, unless none is left or one raised; hold the lock."""
        if self._error is not None or self._claimed == len(self._items):
            return None
        self._claimed += 1
        return self._claimed - 1

    def _run(self, i: int) -> None:
        try:
            done, error = (self._fn(self._items[i]),), None
        except BaseException as exc:  # raised again by result(), in the caller
            done, error = None, exc
        with self._cond:
            self._results[i] = done
            if self._error is None:
                self._error = error
            self._cond.notify_all()

    def _help(self) -> None:
        while not self._stopped:
            with self._cond:
                i = self._claim()
            if i is None:
                return
            self._run(i)

    def result(self, i: int):
        """Item i's result, once it is done."""
        while self._results[i] is None:
            with self._cond:
                j = self._claim()
                if j is None and self._results[i] is None and self._error is None:
                    self._cond.wait()
            if self._error is not None:
                self.close()
                raise self._error
            if j is not None:
                self._run(j)
        return self._results[i][0]

    def results(self) -> list:
        """Every item's result, in item order, the helpers joined however it ends."""
        try:
            return [self.result(i) for i in range(len(self._items))]
        finally:
            self.close()

    def close(self) -> None:
        self._stopped = True
        for thread in self._threads:
            thread.join()


def as_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int of at least ``minimum``, or a ValueError naming ``name``.

    Python and numpy integers pass; a bool, a float (2.0 included) or a
    value below ``minimum`` does not, so a count is never truncated or read
    as a flag.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        what = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


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

    # a root starts at counter (0, 0, 0, 0), as its substream (0, DRAWS, 0)
    # does; not fields, read by stream_generators as a Substream's are
    chunk = 0
    word = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def generator(self) -> np.random.Generator:
        return Substream(self.seed, self.stream, 0, 0).generator()

    def at(self, step: int, purpose: int, chunk: int = 0) -> "Substream":
        """The substream of ``step``, ``purpose`` and ``chunk``: this key at
        counter (0, 0, chunk, step * PURPOSES + purpose).

        A negative step or chunk, or a purpose outside 0..PURPOSES - 1,
        would address another substream's counter, so it is a ValueError.
        """
        if step < 0 or chunk < 0 or not 0 <= purpose < PURPOSES:
            raise ValueError(f"no substream at step {step!r}, purpose {purpose!r}, "
                             f"chunk {chunk!r}")
        return Substream(self.seed, self.stream, chunk, step * PURPOSES + purpose)

    def child(self, *labels: int | str) -> "RngStream":
        h = hashlib.blake2b(self.stream.to_bytes(8, "little"), digest_size=8)
        for label in labels:
            if isinstance(label, int):
                h.update(b"i%s/" % (label & _MASK64).to_bytes(8, "little"))
            else:
                h.update(b"s%s/" % label.encode("utf-8"))
        return RngStream(self.seed, int.from_bytes(h.digest(), "little"))


class Substream(NamedTuple):
    """The draws of one (step, purpose, chunk) of a stream, made by :meth:`RngStream.at`.

    Its generator is the stream's key ``[seed, stream]`` at counter (0, 0,
    ``chunk``, ``word``), word = step * PURPOSES + purpose.  It is taken
    wherever an :class:`RngStream` is drawn from: ``sample_at``,
    :func:`stream_generators` and :func:`draw_blocks`.
    """

    seed: int
    stream: int
    chunk: int
    word: int

    def generator(self) -> np.random.Generator:
        # a fixed seed reads no OS entropy; the state set next replaces its key
        gen = np.random.Generator(np.random.Philox(0))
        gen.bit_generator.state = _start_state([self.seed, self.stream],
                                               [0, 0, self.chunk, self.word])
        return gen


def _start_state(key: list[int], counter: list[int]) -> dict:
    """The Philox state at which the draws of ``key`` at ``counter`` begin.

    At counter (0, 0, 0, 0) it is the state ``Philox(key=(stream << 64) |
    seed)`` starts in.  Its key and words are Python ints, which numpy's
    setter converts about twice as fast as uint64 arrays; setting a state
    copies them, so one state may be set again after ``key`` or ``counter``
    is rewritten.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


class _Lenders(threading.local):
    """Per thread, the generator :func:`stream_generators` lends, and whether it is lent."""

    def __init__(self):
        self.lender = SimpleNamespace(gen=None, busy=False)


_lenders = _Lenders()


def stream_generators(streams):
    """Yield a generator at the start of each stream in turn, all one object.

    ``streams`` holds :class:`RngStream` roots or :class:`Substream` s.  The
    object is the calling thread's one shared generator, reset to each
    stream's start, which draws exactly what ``stream.generator()`` draws at
    a fraction of the cost of building one; the thread's first call builds
    it.  While an iterator is live the shared generator is busy, and an
    iterator started meanwhile (nested, or interleaved with it) builds its
    own.  Draw everything from a generator before taking the next, and
    nothing once the iterator ends.
    """
    # the lender of the thread that starts the iterator, whichever thread
    # later finalizes it
    lender = _lenders.lender
    shared = not lender.busy
    gen = lender.gen if shared else None
    lender.busy = True
    key = [0, 0]
    counter = [0, 0, 0, 0]
    start = _start_state(key, counter)
    try:
        for stream in streams:
            if gen is None:
                gen = stream.generator()
                if shared:
                    lender.gen = gen
            else:
                key[0] = stream.seed
                key[1] = stream.stream
                counter[2] = stream.chunk
                counter[3] = stream.word
                gen.bit_generator.state = start
            yield gen
    finally:
        if shared:
            lender.busy = False


def draw_blocks(streams: list, k: int, draw, axis: int = 0) -> Vector:
    """Join ``draw(gen, lo, hi)`` over the equal blocks of k points along ``axis``.

    ``streams`` is the list :meth:`SampleOracle._draw_at` receives, one
    stream per equal contiguous block; ``gen`` starts at the block's stream
    and draws for points lo..hi-1.
    """
    size = k // len(streams)
    parts = [draw(gen, g * size, (g + 1) * size)
             for g, gen in enumerate(stream_generators(streams))]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


class ProbePoints:
    """The probe points of one estimator call, built a chunk at a time.

    Row r of the (R, d) ``base`` owns P consecutive points: x_r + mu_r v
    for each of its N directions, then, when ``two_sided``, x_r - mu_r v,
    so P is 2N or N.  ``radius`` is (R, 1); ``dirs``, from the kernel's
    :class:`zodd.estimators.PlannedStep`, is (R, N, d), or (1, N, d) when
    every row shares its directions, or a pending draw of shape (R, N, d)
    (:class:`zodd.estimators.PendingDirections`, a view of the
    :class:`ClaimMap` that draws its chunks), read only through its
    ``rows(lo, hi)``, ``unit`` and ``result()``, which give rows lo..hi-1 of
    its (R * N, d) table, finished, whether every entry is at most 1 up to
    rounding, and the whole array.  Only :func:`point_chunks` reads the
    points.  A chunk holds at most :func:`chunk_rows` points: several whole
    rows when one row's P points fit, and otherwise a consecutive piece of
    one row's forward half or of its backward half.  Such a row comes
    direction-chunk-major, each forward piece followed by the backward piece
    of the same directions, so each chunk of directions is needed once,
    where a pending draw finishes it; every block carries its true ``(lo,
    hi)``.  Each point is the same elementwise ``base + radius * dir`` (or
    ``-``) it would be in the whole (R, P, d) array.  A call that fits in
    one chunk builds it once and keeps it.
    """

    def __init__(self, base: Vector, radius: Vector, dirs, two_sided: bool):
        self._base = base
        self._radius = radius
        self._dirs = dirs
        ops = (np.add, np.subtract) if two_sided else (np.add,)
        rows, d = base.shape
        n = dirs.shape[1]
        self._n = n
        self._per_row = len(ops) * n
        self.shape = (rows * self._per_row, d)
        size = chunk_rows(d)
        if self._per_row <= size:
            step = size // self._per_row
            self._spans = [(r, min(r + step, rows), 0, n, ops) for r in range(0, rows, step)]
        else:
            self._spans = [(r, r + 1, a, min(a + size, n), (op,))
                           for r in range(rows) for a in range(0, n, size) for op in ops]
        self._whole = None

    def _build(self, r0, r1, a, b, ops) -> Vector:
        """Points of rows r0..r1-1 and directions a..b-1, one block per op.

        A single op writes its points over the offsets, so a piece of one
        half needs no second array.
        """
        if not isinstance(self._dirs, np.ndarray):
            n = self._n
            dirs = self._dirs.rows(r0 * n + a, (r1 - 1) * n + b).reshape(r1 - r0, b - a, -1)
        elif self._dirs.shape[0] == 1:
            dirs = self._dirs[:, a:b]
        else:
            dirs = self._dirs[r0:r1, a:b]
        base = self._base[r0:r1, None, :]
        offsets = self._radius[r0:r1, :, None] * dirs
        if len(ops) == 1:
            return ops[0](base, offsets, out=offsets).reshape(-1, self.shape[1])
        m = b - a
        out = np.empty((r1 - r0, 2 * m, self.shape[1]))
        for i, op in enumerate(ops):
            op(base, offsets, out=out[:, i * m:(i + 1) * m])
        return out.reshape(-1, self.shape[1])

    def all_finite(self) -> bool:
        """Whether every point is finite, building none when a bound tells.

        Rounding is monotone, so no point exceeds max|x| + max|mu| * max|v|
        rounded the same way; when that bound is finite, so is every point.
        A pending unit-vector draw is not waited for: its entries are at
        most 1 up to rounding, so 2 bounds max|v|.  A call of one chunk is
        checked on the chunk it builds and keeps.
        """
        if len(self._spans) > 1:
            dirs = self._dirs
            if not isinstance(dirs, np.ndarray):
                top = 2.0 if dirs.unit else _max_abs(dirs.result())
            else:
                top = _max_abs(dirs)
            bound = _max_abs(self._base) + _max_abs(self._radius) * top
            if np.isfinite(bound):
                return True
        return all(np.isfinite(block).all() for _, _, block in self.chunks())

    def chunks(self):
        """Yield ``(lo, hi, block)``: points lo..hi-1 as a (hi - lo, d) array."""
        if self._whole is not None:
            yield 0, self.shape[0], self._whole
            return
        for span in self._spans:
            r0, _, a, _, ops = span
            block = self._build(*span)
            if len(self._spans) == 1:
                self._whole = block
            lo = r0 * self._per_row + a + (self._n if ops[0] is np.subtract else 0)
            yield lo, lo + block.shape[0], block


def _max_abs(a) -> float:
    """max|a|, NaN if any entry is; no |a| copy of a large direction matrix."""
    return np.maximum(a.max(), -a.min())


def point_chunks(points):
    """Yield ``(lo, hi, block)`` for every row of ``points`` exactly once, in any order.

    ``block`` holds rows lo..hi-1, at most :func:`chunk_rows` of them: a
    view of a (k, d) array, in order, or a built block of a
    :class:`ProbePoints`, in its own order.  A reader places each block by
    its ``(lo, hi)``.  An array with no rows yields one empty block.
    """
    if isinstance(points, ProbePoints):
        yield from points.chunks()
        return
    points = np.asarray(points, dtype=np.float64)
    size = chunk_rows(points.shape[1])
    for lo in range(0, max(points.shape[0], 1), size):
        block = points[lo:lo + size]
        yield lo, lo + block.shape[0], block


def chunk_rows(d: int) -> int:
    """Points of dimension d in one chunk: :data:`CHUNK_VALUES` // d, at least 1."""
    return max(1, CHUNK_VALUES // max(d, 1))


def row_norms(X) -> Vector:
    """Euclidean norm of every row of X, each bit-equal to ``np.linalg.norm(row)``.

    The stacked (1, d) @ (d, 1) products take the same dot-product path as the
    norm of a single vector; ``einsum`` and ``sum(axis=1)`` round differently.
    """
    X = np.asarray(X, dtype=np.float64)
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0])


def sphere_matrix(gen: np.random.Generator, d: int, n: int, out=None) -> Vector:
    """n unit-sphere directions as rows of an (n, d) array, or drawn into ``out``.

    Each drawn row is divided by its norm.  A zero draw has probability
    zero; it is redrawn from ``gen`` (all zero rows at once, in row order,
    until none is left) rather than divided by.
    """
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    u = gen.standard_normal((n, d), out=out)
    norms = _chunked_norms(u)
    while not norms.all():
        bad = norms == 0.0
        u[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = _chunked_norms(u)
    u /= norms[:, None]
    return u


def _chunked_norms(u) -> Vector:
    """``np.linalg.norm(u, axis=1)`` an eighth of a chunk of rows at a time,
    by the norm's own formula for real rows, ``sqrt(add.reduce(u * u, axis=1))``.

    Each row's sum rounds alike in any piece, so the norms of any split of a
    matrix are those of the whole, bit for bit; the ``u * u`` temporary of
    one piece is 128 KiB, so two threads finishing direction chunks at once
    hold little beside the table.
    """
    size = chunk_rows(u.shape[1] * 8)
    if u.shape[0] <= size:
        return np.sqrt(np.add.reduce(u * u, axis=1))
    norms = np.empty(u.shape[0])
    for lo in range(0, u.shape[0], size):
        block = u[lo:lo + size]
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[lo:lo + size])
    return norms


def gaussian_matrix(gen: np.random.Generator, d: int, n: int, out=None) -> Vector:
    """n standard Gaussian directions as rows of an (n, d) array, or drawn into ``out``."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    return gen.standard_normal((n, d), out=out)


class BudgetExhaustedError(RuntimeError):
    """A draw was requested beyond the sampling budget; nothing was consumed."""


class BudgetCounter:
    """Thread-safe counter of sample draws with an optional hard limit."""

    def __init__(self, limit: int | None = None):
        self._limit = None if limit is None else as_count(limit, "budget limit", 0)
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
        """Atomically consume k draws, an integer >= 0, or raise without consuming any."""
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
            raise ValueError(f"cannot charge {k!r} draws: need a nonnegative integer")
        with self._lock:
            if self._limit is not None and self._consumed + k > self._limit:
                raise BudgetExhaustedError(
                    f"budget exhausted: {self._consumed} consumed of {self._limit}, "
                    f"requested {k} more"
                )
            self._consumed += int(k)


class SampleOracle(ABC):
    """A source of scalar samples f(x, xi) with xi drawn from D(x).

    Subclasses implement ``_draw_at``; the base class owns budget
    accounting.  ``sample_at`` draws ``replicates`` independent values at
    each of k points in one atomic charge of ``k * replicates`` draws.
    """

    def __init__(self, budget: int | None = None):
        self._budget = BudgetCounter(budget)

    @property
    def budget(self) -> BudgetCounter:
        return self._budget

    def with_budget(self, budget: int | None) -> "SampleOracle":
        """This oracle on a fresh :class:`BudgetCounter` of ``budget`` draws.

        The copy shares every other attribute, so it draws exactly as this
        oracle does as long as an oracle keeps no state beyond its budget
        (as zodd's environments do); its draws count against its own budget.
        """
        twin = copy.copy(self)
        twin._budget = BudgetCounter(budget)
        return twin

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Dimension of the decision vector."""

    @abstractmethod
    def _draw_at(self, points, streams: list, replicates: int) -> Vector:
        """Return a (replicates, k) array of draws for the (k, d) points.

        ``points`` is a (k, d) array or a :class:`ProbePoints`; read its
        rows through :func:`point_chunks`.  ``streams`` holds G RngStreams
        or Substreams for G equal contiguous blocks of the points; block g
        must be drawn from a generator at the start of ``streams[g]``
        exactly as a call with that block alone would draw it.
        :func:`draw_blocks` does the splitting, so the random part is drawn
        per stream block while the deterministic work runs over the chunks
        of all k points.
        """

    def sample_at(self, points, rng, replicates: int = 1) -> Vector:
        """Independent draws at many points: (replicates, k) array.

        ``rng`` is one RngStream or :class:`Substream` for all k points, or
        a non-empty sequence of G of them: the points then split into G
        equal contiguous blocks, and block g is drawn exactly as
        ``sample_at(block_g, rng[g], replicates)`` would draw it.  A stream
        may repeat; each of its blocks starts from the beginning of the
        stream.  ``points`` may also be a :class:`ProbePoints`, which the
        estimator kernel passes.

        All draws are independent across points and replicates; the budget
        is charged atomically, so either the whole batch is counted or an
        error is raised with nothing consumed.
        """
        if isinstance(rng, (RngStream, Substream)):
            streams = [rng]
        elif isinstance(rng, Sequence) and all(isinstance(s, (RngStream, Substream))
                                               for s in rng):
            streams = list(rng)
        else:
            raise TypeError("rng must be an RngStream or a sequence of RngStreams")
        if isinstance(points, ProbePoints):
            pts = points
        else:
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim == 1:
                pts = pts[None, :]
        if len(pts.shape) != 2 or pts.shape[1] != self.dimension:
            raise ValueError(f"points must be (k, {self.dimension}), got {pts.shape}")
        replicates = as_count(replicates, "replicates")
        if isinstance(pts, ProbePoints):
            finite = pts.all_finite()
        else:
            finite = all(np.isfinite(block).all() for _, _, block in point_chunks(pts))
        if not finite:
            raise ValueError("points have non-finite entries")
        if not streams or pts.shape[0] % len(streams):
            raise ValueError(
                f"{pts.shape[0]} points do not split into {len(streams)} equal blocks"
            )
        self._budget.charge(pts.shape[0] * replicates)
        return self._draw_at(pts, streams, replicates)
