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
order, or batched together, without changing results.  Code that draws
from many streams in turn takes its generators from :func:`stream_generators`:
each thread keeps one Philox generator and resets it to the start of every
stream it is lent for, by a state of Python ints (numpy sets it faster than
uint64 words), which draws exactly what ``stream.generator()`` draws
without building a generator per stream.

A :class:`SampleOracle` is the only way samples enter the library.  Every
draw is counted by a :class:`BudgetCounter`; when a hard budget is set, a
draw that would exceed it raises :class:`BudgetExhaustedError` before any
state is consumed.  One ``sample_at`` call may serve many independent
streams at once, one per block of points, each block drawn as if alone.

Points are read in chunks of at most :data:`CHUNK_VALUES` coordinates
through :func:`point_chunks`: views of a plain (k, d) array, or the blocks
of a :class:`ProbePoints`, which builds an estimator call's probe points
chunk by chunk instead of holding them all.  Every row's arithmetic is
independent of the rows around it, so neither the chunk size nor the order
in which chunks come is part of the stream layout, and neither changes a
number; random draws never go by chunk.

A call's directions are one :func:`direction_table` of one part per
stream.  Wide estimates overlap their two halves of work: a table longer
than one chunk, on a process with more than one usable CPU, is a
:class:`PendingDirections`: one helper thread fills it a chunk at a time
with the values of one whole draw, while the calling thread finishes each
chunk as it lands and builds that chunk's probe points.  There is no option
for it, and no CPU count changes a byte.
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

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

_MASK64 = (1 << 64) - 1

# the most float64 coordinates of points built or read at once (1 MiB), so
# that a chunk's (rows, d) temporaries stay in cache; not part of the stream
# layout
CHUNK_VALUES = 1 << 17


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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

    # the hash of this stream's id, made by the first ``child`` call and
    # copied by every one; not a field, so it takes no part in eq or hash
    _prefix = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def __reduce__(self):
        # a hash object cannot be pickled or deep-copied; the two ids suffice
        return RngStream, (self.seed, self.stream)

    def generator(self) -> np.random.Generator:
        # a fixed seed reads no OS entropy; the state set next replaces its key
        gen = np.random.Generator(np.random.Philox(0))
        gen.bit_generator.state = _start_state([self.seed, self.stream])
        return gen

    def child(self, *labels: int | str) -> "RngStream":
        if self._prefix is None:
            prefix = hashlib.blake2b(self.stream.to_bytes(8, "little"), digest_size=8)
            object.__setattr__(self, "_prefix", prefix)
        h = self._prefix.copy()
        for label in labels:
            if isinstance(label, int):
                h.update(b"i%s/" % (label & _MASK64).to_bytes(8, "little"))
            else:
                h.update(b"s%s/" % label.encode("utf-8"))
        # both ids are in range already, so the child skips __init__ and its masking
        child = object.__new__(RngStream)
        child.__dict__.update(seed=self.seed, stream=int.from_bytes(h.digest(), "little"))
        return child


def _start_state(key: list[int]) -> dict:
    """The Philox state at which a stream with key ``[seed, stream]`` begins.

    It is the state ``Philox(key=(stream << 64) | seed)`` starts in.  Its
    key and words are Python ints, which numpy's setter converts about
    twice as fast as uint64 arrays; setting a state copies them, so one
    state may be set again after ``key`` is rewritten.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
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

    The object is the calling thread's one shared generator, reset to each
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
    start = _start_state(key)
    try:
        for stream in streams:
            if gen is None:
                gen = stream.generator()
                if shared:
                    lender.gen = gen
            else:
                key[0] = stream.seed
                key[1] = stream.stream
                gen.bit_generator.state = start
            yield gen
    finally:
        if shared:
            lender.busy = False


def draw_blocks(streams: list[RngStream], k: int, draw, axis: int = 0) -> Vector:
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
    so P is 2N or N.  ``radius`` is (R, 1) and ``dirs`` is (R, N, d), or
    (1, N, d) when every row shares its directions, or a
    :class:`PendingDirections` of shape (R, N, d), read only through its
    :meth:`~PendingDirections.rows`.  Only :func:`point_chunks` reads the
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
        if isinstance(self._dirs, PendingDirections):
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
        most 1 up to rounding (see :class:`PendingDirections`), so 2 bounds
        max|v|.  A call of one chunk is checked on the chunk it builds and
        keeps.
        """
        if len(self._spans) > 1:
            dirs = self._dirs
            if isinstance(dirs, PendingDirections):
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


def sphere_matrix(gen: np.random.Generator, d: int, n: int) -> Vector:
    """n unit-sphere directions as rows of an (n, d) array."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    u = gen.standard_normal((n, d))
    _to_unit_rows(gen, u)
    return u


def _to_unit_rows(gen: np.random.Generator, u: Vector) -> None:
    """Divide each row of the drawn ``u`` by its norm, in place.

    A zero draw has probability zero; it is redrawn from ``gen`` (all zero
    rows at once, in row order, until none is left) rather than divided by.
    """
    norms = _chunked_norms(u)
    while (norms == 0.0).any():
        bad = norms == 0.0
        u[bad] = gen.standard_normal((int(bad.sum()), u.shape[1]))
        norms = _chunked_norms(u)
    u /= norms[:, None]


def _norms(block) -> Vector:
    """The norm's own formula for real rows, ``sqrt(add.reduce(u * u, axis=1))``.

    Each row's sum rounds alike in any chunk, so the norms of any split of a
    matrix are those of the whole, bit for bit.
    """
    return np.sqrt(np.add.reduce(block * block, axis=1))


def _chunked_norms(u) -> Vector:
    """``np.linalg.norm(u, axis=1)`` by :func:`_norms`, a chunk of rows at a time."""
    if u.size <= CHUNK_VALUES:
        return _norms(u)
    norms = np.empty(u.shape[0])
    for lo, hi, block in point_chunks(u):
        norms[lo:hi] = _norms(block)
    return norms


def direction_table(kinds, part: int, d: int) -> Vector:
    """An (len(kinds) * part, d) table of one part per kind; only coordinate parts are filled."""
    table = np.empty((len(kinds) * part, d))
    for p, kind in enumerate(kinds):
        if kind == "coordinate":
            table[p * part:(p + 1) * part].reshape(-1, d, d)[:] = np.eye(d)
    return table


class PendingDirections:
    """Random directions drawn on a helper thread while the caller reads the first.

    The (R * N, d) table, of shape ``shape`` = (R, N, d), holds one part of
    equal length per entry of ``kinds``.  A ``"coordinate"`` part is filled
    at once with rows of the identity; every other part is drawn from the
    next generator of ``gens``, which one helper thread takes in turn (a
    :func:`stream_generators` iterator then lends it the helper's one
    generator for its whole life).  The helper fills each part
    :func:`chunk_rows` rows at a time with ``standard_normal(out=...)``:
    exactly the values of one (part, d) draw.

    :meth:`rows` hands out finished rows only, waiting for the helper as
    needed.  The calling thread normalizes each chunk of a unit-vector part
    (any kind but ``"gaussian"``) as it lands, by :func:`sphere_matrix`'s
    per-row formula.  Such entries are at most 1 up to rounding, since
    sqrt(fl(sum u_j^2)) >= |u_i| but for one rounding of each step, so
    :attr:`unit` calls tell that without waiting.  A zero norm waits for the
    whole draw and is redrawn exactly as :func:`sphere_matrix` redraws it,
    on the part's generator at the state its fill left.  :meth:`result`
    finishes the whole table and joins the helper; :meth:`close` stops it
    between chunks and joins it.
    """

    def __init__(self, gens, kinds, shape):
        self.shape = shape
        self.unit = "gaussian" not in kinds
        self._kinds = list(kinds)
        rows, n, d = shape
        self._part = rows * n // len(kinds)
        self._table = direction_table(kinds, self._part, d)
        self._size = chunk_rows(d)
        self._drawn = 0  # rows the helper has filled, a prefix of the table
        self._done = 0  # rows finished for reading, a prefix of the drawn ones
        self._ends = {}  # each drawn part's generator and the state its fill left
        self._stopped = False
        self._over = False
        self._error = None
        self._cond = threading.Condition()
        self._thread = threading.Thread(target=self._fill, args=(gens,), daemon=True)
        self._thread.start()

    def _fill(self, gens) -> None:
        """The helper thread: draw every random part in turn, a chunk at a time."""
        part, size = self._part, self._size
        gens = iter(gens)
        try:
            for p, kind in enumerate(self._kinds):
                if kind != "coordinate":
                    gen = next(gens)
                    for lo in range(p * part, (p + 1) * part, size):
                        if self._stopped:
                            return
                        hi = min(lo + size, (p + 1) * part)
                        gen.standard_normal(out=self._table[lo:hi])
                        self._advance(hi)
                    self._ends[p] = gen, gen.bit_generator.state
                self._advance((p + 1) * part)
        except BaseException as exc:
            self._error = exc
        finally:
            with self._cond:
                self._over = True
                self._cond.notify()

    def _advance(self, drawn: int) -> None:
        with self._cond:
            self._drawn = drawn
            self._cond.notify()

    def rows(self, lo: int, hi: int) -> Vector:
        """Rows lo..hi-1 of the table, finished."""
        while self._done < hi:
            self._finish_next()
        return self._table[lo:hi]

    def _finish_next(self) -> None:
        """Wait for the next chunk to land and finish it."""
        start, part = self._done, self._part
        p = start // part
        end = min(start + self._size, (p + 1) * part)
        with self._cond:
            while self._drawn < end and not self._over:
                self._cond.wait()
        if self._drawn < end:
            self._thread.join()
            raise self._error or RuntimeError("the direction draw was stopped")
        if self._kinds[p] not in ("gaussian", "coordinate"):
            block = self._table[start:end]
            norms = _norms(block)
            if (norms == 0.0).any():
                # the part's rows so far had none; sphere_matrix redraws after the whole draw
                self._thread.join()
                gen, state = self._ends[p]
                gen.bit_generator.state = state
                end = (p + 1) * part
                _to_unit_rows(gen, self._table[start:end])
            else:
                block /= norms[:, None]
        self._done = end

    def result(self) -> Vector:
        """The whole finished (R, N, d) array, the helper joined."""
        table = self.rows(0, self._table.shape[0])
        self._thread.join()
        if self._error is not None:
            raise self._error
        return table.reshape(self.shape)

    def close(self) -> None:
        """Stop the helper between chunks, if it still runs, and join it."""
        self._stopped = True
        self._thread.join()


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
    def _draw_at(self, points, streams: list[RngStream], replicates: int) -> Vector:
        """Return a (replicates, k) array of draws for the (k, d) points.

        ``points`` is a (k, d) array or a :class:`ProbePoints`; read its
        rows through :func:`point_chunks`.  ``streams`` holds G RngStreams
        for G equal contiguous blocks of the points; block g must be drawn
        from a generator at the start of ``streams[g]`` exactly as a call
        with that block alone would draw it.  :func:`draw_blocks` does the
        splitting, so the random part is drawn per stream block while the
        deterministic work runs over the chunks of all k points.
        """

    def sample_at(self, points, rng, replicates: int = 1) -> Vector:
        """Independent draws at many points: (replicates, k) array.

        ``rng`` is one RngStream for all k points, or a non-empty sequence
        of G RngStreams: the points then split into G equal contiguous
        blocks, and block g is drawn exactly as ``sample_at(block_g, rng[g],
        replicates)`` would draw it.  A stream may repeat; each of its blocks
        starts from the beginning of the stream.  ``points`` may also be a
        :class:`ProbePoints`, which the estimator kernel passes.

        All draws are independent across points and replicates; the budget
        is charged atomically, so either the whole batch is counted or an
        error is raised with nothing consumed.
        """
        if isinstance(rng, RngStream):
            streams = [rng]
        elif isinstance(rng, Sequence) and all(isinstance(s, RngStream) for s in rng):
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
        if replicates < 1:
            raise ValueError("replicates must be >= 1")
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
