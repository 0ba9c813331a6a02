"""Randomness streams, directions, and budget accounting."""

import copy
import pickle
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodd.core import (
    CHUNK_VALUES,
    DIRECTIONS,
    DRAWS,
    PURPOSES,
    BudgetCounter,
    BudgetExhaustedError,
    ClaimMap,
    ProbePoints,
    RngStream,
    SampleOracle,
    Substream,
    as_point,
    chunk_rows,
    draw_blocks,
    gaussian_matrix,
    point_chunks,
    row_norms,
    sphere_matrix,
    stream_generators,
)
from zodd import estimators
from zodd.environments import QuadraticEnv
from zodd.estimators import EstimatorConfig, _draw_directions, estimate_gradient, estimate_gradients


class TestRngStream:
    def test_same_stream_replays(self):
        a = RngStream(7).generator().standard_normal(5)
        b = RngStream(7).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_children_are_deterministic(self):
        a = RngStream(7).child("x", 3).generator().standard_normal(5)
        b = RngStream(7).child("x", 3).generator().standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_labels_give_distinct_streams(self):
        base = RngStream(7)
        streams = [
            base.child("x"),
            base.child("y"),
            base.child("x", 0),
            base.child("x", 1),
            base.child(1),
            base.child("1"),  # int and str labels must not collide
        ]
        values = {s.stream for s in streams}
        assert len(values) == len(streams)

    def test_child_of_child_differs_from_flat(self):
        base = RngStream(7)
        assert base.child("a").child("b").stream != base.child("a", "b").stream
        assert base.child("a").child("b").stream != base.child("b").stream

    def test_seed_is_preserved_across_children(self):
        s = RngStream(42).child("anything", 5)
        assert s.seed == 42

    def test_a_parent_hashes_alike_for_every_child_and_still_copies(self):
        # every child call hashes alike, and a stream pickles and copies as
        # its two ids
        base = RngStream(3, 2**63 + 5)
        first = base.child("x", 1)
        assert base.child("x", 1) == first == RngStream(3, 2**63 + 5).child("x", 1)
        assert base.child("y").stream == RngStream(3, 2**63 + 5).child("y").stream
        for clone in (pickle.loads(pickle.dumps(base)), copy.deepcopy(base)):
            assert clone == base and hash(clone) == hash(base)
            assert clone.child("x", 1) == first

    def test_negative_and_huge_labels(self):
        base = RngStream(3)
        assert base.child(-1).stream != base.child(1).stream
        assert base.child(2**70).stream == base.child(2**70 & (2**64 - 1)).stream

    @given(seed=st.integers(min_value=0, max_value=2**63))
    @settings(max_examples=25, deadline=None)
    def test_streams_reproducible_for_any_seed(self, seed):
        a = RngStream(seed).child("p").generator().integers(0, 1000, 4)
        b = RngStream(seed).child("p").generator().integers(0, 1000, 4)
        assert np.array_equal(a, b)

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1),
           stream=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_generator_is_philox_keyed_by_the_stream(self, seed, stream):
        # built without reading OS entropy, it starts where Philox(key=...) does
        ours = RngStream(seed, stream).generator()
        theirs = np.random.Generator(np.random.Philox(key=(stream << 64) | seed))
        a, b = ours.bit_generator.state, theirs.bit_generator.state
        assert np.array_equal(a["state"]["key"], b["state"]["key"])
        assert np.array_equal(a["state"]["counter"], b["state"]["counter"])
        assert np.array_equal(ours.standard_normal(7), theirs.standard_normal(7))
        assert np.array_equal(ours.integers(0, 2**62, 5), theirs.integers(0, 2**62, 5))
        assert np.array_equal(ours.multinomial(20, [0.2, 0.5, 0.3], size=3),
                              theirs.multinomial(20, [0.2, 0.5, 0.3], size=3))


class TestDirections:
    def test_coordinate_direction(self):
        # coordinate estimates probe along the standard basis, in axis order
        env = QuadraticEnv.isotropic(5, sigma=0.0)
        est = estimate_gradient(np.ones(5), EstimatorConfig("coordinate", mu=0.1), env, RngStream(0))
        assert np.array_equal(est._directions, np.eye(5))

    def test_sphere_direction_is_unit(self):
        U = sphere_matrix(RngStream(0).generator(), 8, 1)
        assert U.shape == (1, 8)
        assert np.linalg.norm(U[0]) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_direction_shape(self):
        gen = RngStream(0).generator()
        assert gaussian_matrix(gen, 8, 1).shape == (1, 8)
        assert gaussian_matrix(gen, 8, 0).shape == (0, 8)

    def test_sphere_matrix_rows_are_unit(self):
        U = sphere_matrix(RngStream(1).generator(), 6, 100)
        assert U.shape == (100, 6)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)

    def test_gaussian_matrix_shape(self):
        S = gaussian_matrix(RngStream(1).generator(), 6, 100)
        assert S.shape == (100, 6)

    def test_accepts_generator_or_stream(self):
        # a stream's fresh generator replays the same rows, and fewer rows
        # are a prefix of more: row r depends only on the draws before it
        for draw in (sphere_matrix, gaussian_matrix):
            a = draw(RngStream(5).generator(), 3, 4)
            assert np.array_equal(draw(RngStream(5).generator(), 3, 4), a)
            assert np.array_equal(draw(RngStream(5).generator(), 3, 2), a[:2])


class TestAsPoint:
    def test_coerces_list(self):
        x = as_point([1, 2, 3])
        assert x.dtype == np.float64
        assert x.shape == (3,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            as_point([1.0, 2.0], dimension=3)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_point([1.0, np.nan])

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_point(np.zeros((2, 2)))


class TestBudgetCounter:
    def test_unlimited_never_raises(self):
        c = BudgetCounter()
        c.charge(10**9)
        assert c.limit is None
        assert c.remaining is None
        assert c.consumed == 10**9

    def test_exact_exhaustion(self):
        c = BudgetCounter(10)
        c.charge(10)
        assert c.remaining == 0
        with pytest.raises(BudgetExhaustedError):
            c.charge(1)
        assert c.consumed == 10  # the failed charge consumed nothing

    def test_atomic_failure(self):
        c = BudgetCounter(5)
        c.charge(3)
        with pytest.raises(BudgetExhaustedError):
            c.charge(3)
        assert c.consumed == 3
        c.charge(2)
        assert c.remaining == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            BudgetCounter(5).charge(-1)

    @pytest.mark.parametrize("k", [True, 2.0, 1.5, np.float64(3.0)])
    def test_a_non_integral_charge_is_rejected(self, k):
        c = BudgetCounter(5)
        with pytest.raises(ValueError, match="nonnegative integer"):
            c.charge(k)
        assert c.consumed == 0
        c.charge(np.int64(2))
        assert c.consumed == 2 and type(c.consumed) is int

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            BudgetCounter(-1)

    @pytest.mark.parametrize("limit", [2.5, 3.0, True, -1])
    def test_a_limit_is_a_count_from_zero(self, limit):
        # 2.5 used to be kept, and reported as "2 consumed of 2.5"
        with pytest.raises(ValueError, match="budget limit must be an integer >= 0"):
            BudgetCounter(limit)
        assert BudgetCounter(0).limit == 0
        assert BudgetCounter(None).limit is None
        c = BudgetCounter(np.int64(3))
        assert c.limit == 3 and type(c.limit) is int

    @given(
        limit=st.integers(min_value=0, max_value=200),
        charges=st.lists(st.integers(min_value=0, max_value=60), max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_consumed_equals_sum_of_successful_charges(self, limit, charges):
        c = BudgetCounter(limit)
        accepted = 0
        for k in charges:
            try:
                c.charge(k)
            except BudgetExhaustedError:
                assert accepted + k > limit
            else:
                accepted += k
        assert c.consumed == accepted
        assert accepted <= limit

    def test_concurrent_charges_are_atomic(self):
        # 8 threads charge random amounts against one limit; with a short
        # switch interval a lost update or a check-then-add race shows up as
        # consumed != the sum of successful charges, or consumed > limit
        threads, per_thread, limit = 8, 3000, 30_000
        c = BudgetCounter(limit)
        accepted = [0] * threads
        start = threading.Barrier(threads)

        def work(i):
            amounts = RngStream(i).generator().integers(0, 4, per_thread)
            start.wait()
            for k in amounts.tolist():
                try:
                    c.charge(k)
                except BudgetExhaustedError:
                    continue
                accepted[i] += k

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert c.consumed == sum(accepted)
        assert c.consumed <= limit
        assert c.consumed > limit - 4  # the limit was reached, not just approached


class TestClaimMap:
    @pytest.mark.parametrize("helpers", [0, 3])
    def test_results_come_in_item_order_when_later_items_finish_first(self, helpers):
        def late_first(i):
            time.sleep(0.002 * (8 - i))
            return i * i

        claims = ClaimMap(late_first, range(8), helpers)
        assert claims.result(5) == 25
        assert claims.results() == [i * i for i in range(8)]

    def test_no_helpers_run_every_item_at_once_with_no_lock_or_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a claim map without helpers made a lock or a thread")

        monkeypatch.setattr("zodd.core.threading.Condition", refuse)
        monkeypatch.setattr("zodd.core.threading.Thread", refuse)
        ran = []
        claims = ClaimMap(lambda i: ran.append(i) or 2 * i, range(5), 0)
        assert ran == [0, 1, 2, 3, 4]
        assert claims.result(3) == 6 and claims.results() == [0, 2, 4, 6, 8]

    def test_each_item_runs_once_under_thread_switching(self):
        # more helpers than cores, switching every microsecond, and a length
        # check that gives up the interpreter lock inside every claim: an
        # item taken twice, never, or past the end of a map shows in the
        # items taken from twenty maps
        taken = []
        got = []

        class Items(list):
            def __len__(self):
                time.sleep(0)
                return super().__len__()

            def __getitem__(self, i):
                taken.append(i)
                return super().__getitem__(i)

        def run():
            for _ in range(20):
                got.append(ClaimMap(lambda i: -i, Items(range(150)), 8).results())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=run)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert sorted(taken) == sorted(list(range(150)) * 20)
        assert got == [[-i for i in range(150)]] * 20

    @pytest.mark.parametrize("helpers", [0, 3])
    def test_a_failing_item_reaches_the_caller_once_the_helpers_are_joined(self, helpers):
        events = []

        def fail_first(i):
            # item 0 fails while the items claimed beside it still run, the
            # later ones (the caller's, most likely) ending first
            events.append(("start", i))
            if i == 0:
                time.sleep(0.005)
                events.append(("fail", i))
                raise RuntimeError("item 0 failed")
            time.sleep(0.04 * (4 - i % 4))
            events.append(("end", i))

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="item 0 failed"):
            ClaimMap(fail_first, range(8), helpers).results()
        assert threading.active_count() == threads
        starts = [i for event, i in events if event == "start"]
        ends = [i for event, i in events if event == "end"]
        assert 0 in starts and len(starts) <= helpers + 1
        assert sorted(ends) == sorted(starts)[1:]
        # no item starts after the failure
        assert all(event != "start" for event, _ in events[events.index(("fail", 0)):])

    def test_close_midway_joins_the_helpers(self):
        ran = []
        threads = threading.active_count()
        claims = ClaimMap(lambda i: ran.append(i) or time.sleep(0.01), range(50), 2)
        claims.result(0)
        claims.close()
        assert threading.active_count() == threads
        done = len(ran)
        assert done < 50
        time.sleep(0.05)
        assert len(ran) == done


class _CountingOracle(SampleOracle):
    """Deterministic f(x) = sum(x); counts every draw request."""

    def __init__(self, d, budget=None):
        super().__init__(budget)
        self._d = d
        self.calls = []

    @property
    def dimension(self):
        return self._d

    def _draw_at(self, points, streams, replicates):
        self.calls.append((points.shape[0], replicates))
        sums = np.concatenate([block.sum(axis=1) for _, _, block in point_chunks(points)])
        return np.tile(sums, (replicates, 1))


class TestSampleOracle:
    def test_sample_charges_one(self):
        o = _CountingOracle(3, budget=2)
        assert np.array_equal(o.sample_at([1.0, 2.0, 3.0], RngStream(0)), [[6.0]])
        assert o.budget.consumed == 1

    def test_sample_at_charges_points_times_replicates(self):
        o = _CountingOracle(2, budget=100)
        out = o.sample_at(np.zeros((4, 2)), RngStream(0), replicates=5)
        assert out.shape == (5, 4)
        assert o.budget.consumed == 20

    def test_sample_at_atomicity_on_exhaustion(self):
        o = _CountingOracle(2, budget=19)
        with pytest.raises(BudgetExhaustedError):
            o.sample_at(np.zeros((4, 2)), RngStream(0), replicates=5)
        assert o.budget.consumed == 0
        assert o.calls == []  # rejected before any drawing happened

    def test_sample_at_validates_points(self):
        o = _CountingOracle(2)
        with pytest.raises(ValueError):
            o.sample_at(np.zeros((3, 5)), RngStream(0))
        with pytest.raises(ValueError):
            o.sample_at(np.array([[np.inf, 0.0]]), RngStream(0))
        with pytest.raises(ValueError):
            o.sample_at(np.zeros((1, 2)), RngStream(0), replicates=0)

    @pytest.mark.parametrize("replicates", [2.0, True, 1.5])
    def test_sample_at_rejects_non_integral_replicates_before_charging(self, replicates):
        # 2.0 used to charge 4.0 draws and True 2, before the draw failed
        o = _CountingOracle(2, budget=100)
        with pytest.raises(ValueError, match="replicates must be a positive integer"):
            o.sample_at(np.zeros((2, 2)), RngStream(0), replicates=replicates)
        assert o.budget.consumed == 0 and type(o.budget.consumed) is int
        assert o.calls == []
        o.sample_at(np.zeros((2, 2)), RngStream(0), replicates=np.int64(2))
        assert o.calls == [(2, 2)] and type(o.budget.consumed) is int

    @pytest.mark.parametrize("rng", [
        np.random.default_rng(0),
        RngStream(0).generator(),
        7,
        [np.random.default_rng(0)],
        [RngStream(0), np.random.default_rng(0)],
        [RngStream(0), 1],
        "ab",
    ], ids=["numpy-generator", "stream-generator", "int", "generator-list",
            "mixed-generator", "mixed-int", "str"])
    def test_sample_at_rejects_other_rng_forms_before_charging(self, rng):
        o = _CountingOracle(2, budget=100)
        with pytest.raises(TypeError):
            o.sample_at(np.zeros((2, 2)), rng)
        assert o.budget.consumed == 0
        assert o.calls == []

    def test_one_dim_points_are_promoted(self):
        o = _CountingOracle(2)
        out = o.sample_at(np.array([1.0, 1.0]), RngStream(0))
        assert out.shape == (1, 1)


    def _wide_probes(self, base, radius):
        # two rows of 40,000 two-sided probes at d = 2: pieces of 65,536 points
        dirs = RngStream(9).generator().uniform(-1.0, 1.0, (1, 40_000, 2))
        probes = ProbePoints(np.array(base), np.array(radius)[:, None], dirs, two_sided=True)
        assert len(probes._spans) > 1
        return probes

    def test_overflowing_probe_points_raise_before_any_charge(self):
        # base, radii and directions are finite; some points are not
        o = _CountingOracle(2, budget=10**6)
        probes = self._wide_probes([[1.0, 2.0], [1e308, -1e308]], [1.0, 1e308])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            o.sample_at(probes, RngStream(0))
        # one NaN direction makes the bound NaN, and its points are checked
        probes = self._wide_probes([[1.0, 2.0], [3.0, 4.0]], [0.1, 0.2])
        probes._dirs[0, 30_000, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            o.sample_at(probes, RngStream(0))
        assert o.budget.consumed == 0
        assert o.calls == []

    def test_probe_points_are_built_once(self, monkeypatch):
        # a finite bound decides without building; an overflowing bound
        # builds each piece for the check and again for the draws
        built = []
        build = ProbePoints._build

        def counting(self, *span):
            built.append(span[:3])
            return build(self, *span)

        monkeypatch.setattr(ProbePoints, "_build", counting)
        o = _CountingOracle(2)
        probes = self._wide_probes([[1.0, 2.0], [-3.0, 0.5]], [0.1, 0.2])
        o.sample_at(probes, RngStream(0))
        assert built == [span[:3] for span in probes._spans]
        built.clear()
        # 1e308 + 1e308 overflows, but each row's points stay finite
        probes = self._wide_probes([[1e308, 0.0], [0.0, 1.0]], [1.0, 1e308])
        with np.errstate(over="ignore"):
            o.sample_at(probes, RngStream(0))
        assert o.budget.consumed == 2 * probes.shape[0]
        assert built == 2 * [span[:3] for span in probes._spans]

    def test_grouped_draws_rewind_repeated_streams(self):
        o = _CountingOracle(2)
        o.sample_at(np.zeros((6, 2)), [RngStream(0), RngStream(1), RngStream(0)], replicates=2)
        assert o.calls == [(6, 2)]
        assert o.budget.consumed == 12


class TestStreamHelpers:
    def test_stream_generators_start_every_stream_afresh(self):
        # one bit generator, reset per stream, draws what a fresh generator
        # draws, whatever the previous stream left buffered
        top = 2**64 - 1
        streams = [RngStream(0), RngStream(top, top), RngStream(0),
                   RngStream(5).child("x"), RngStream(3, 2**63), RngStream(top, top)]
        got = [(gen.integers(0, 1000, 5), gen.standard_normal(7))
               for gen in stream_generators(streams)]
        assert len({id(gen) for gen in stream_generators(streams)}) == 1
        for stream, (ints, normals) in zip(streams, got):
            fresh = stream.generator()
            assert np.array_equal(ints, fresh.integers(0, 1000, 5))
            assert np.array_equal(normals, fresh.standard_normal(7))

    @given(ids=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                        min_size=1, max_size=4),
           high=st.integers(2**63, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_reset_draws_what_the_keyed_philox_draws(self, ids, high):
        # the reset sets its key from Python ints, which keep every bit of an
        # id at or above 2^63
        ids = [(high, high - 1), *ids, (5, high)]
        streams = [RngStream(seed, stream) for seed, stream in ids]
        drawn = [(gen.standard_normal(6), gen.integers(0, 2**63, 3))
                 for gen in stream_generators(streams)]
        for (seed, stream), s, (normals, ints) in zip(ids, streams, drawn):
            keyed = np.random.Generator(np.random.Philox(key=(stream << 64) | seed))
            assert np.array_equal(normals, keyed.standard_normal(6))
            assert np.array_equal(ints, keyed.integers(0, 2**63, 3))
            fresh = s.generator()
            assert np.array_equal(normals, fresh.standard_normal(6))
            assert np.array_equal(ints, fresh.integers(0, 2**63, 3))

    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1),
           step=st.integers(0, 2**40), purpose=st.sampled_from([DRAWS, DIRECTIONS]),
           chunk=st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_substream_is_its_key_at_its_counter(self, seed, stream, step, purpose, chunk):
        # a substream, lent or built, draws what a keyed Philox set to counter
        # (0, 0, chunk, step * PURPOSES + purpose) draws; a root is its
        # substream (0, DRAWS, 0)
        sub = RngStream(seed, stream).at(step, purpose, chunk)
        assert sub == Substream(seed, stream, chunk, step * PURPOSES + purpose)
        keyed = np.random.Philox(key=(stream << 64) | seed)
        state = keyed.state
        state["state"]["counter"] = np.array([0, 0, chunk, sub.word], dtype=np.uint64)
        keyed.state = state
        keyed = np.random.Generator(keyed)
        streams = [RngStream(stream, seed), sub, RngStream(seed, stream)]
        drawn = [gen.standard_normal(9) for gen in stream_generators(streams)]
        expected = keyed.standard_normal(9)
        assert np.array_equal(drawn[1], expected)
        assert np.array_equal(sub.generator().standard_normal(9), expected)
        root = RngStream(seed, stream)
        assert np.array_equal(drawn[2], root.at(0, DRAWS).generator().standard_normal(9))

    @pytest.mark.parametrize("step, purpose, chunk", [(0, 2, 0), (0, -1, 0), (-1, 1, 0),
                                                      (0, 0, -1)])
    def test_an_address_that_would_alias_another_substream_is_rejected(self, step, purpose,
                                                                        chunk):
        # at(0, 2) would be at(1, 0), and at(-1, 2) at(0, 0)
        with pytest.raises(ValueError, match="no substream"):
            RngStream(0).at(step, purpose, chunk)

    def test_a_substream_carries_within_its_first_two_counter_words(self):
        # Philox increments word 0 and carries into word 1, so a substream
        # shorter than 2^128 blocks never reaches the counter words that
        # address the others
        gen = np.random.Philox(key=7)
        state = gen.state
        state["state"]["counter"] = np.array([2**64 - 1, 0, 5, 1], dtype=np.uint64)
        gen.state = state
        gen.random_raw(8)  # two blocks of four words
        assert gen.state["state"]["counter"].tolist() == [1, 1, 5, 1]

    def test_nested_and_interleaved_generators_draw_what_fresh_ones_draw(self):
        # the thread's shared generator is lent to one live iterator; one
        # started inside it, or beside it, draws from its own generator
        outer = [RngStream(1), RngStream(2).child("a"), RngStream(1)]
        inner = [RngStream(3), RngStream(4, 5)]
        got, ids = [], set()
        for gen in stream_generators(outer):
            head = gen.standard_normal(3)
            nested = [(g.standard_normal(5), id(g)) for g in stream_generators(inner)]
            got.append((head, [v for v, _ in nested], gen.integers(0, 100, 4)))
            assert all(i != id(gen) for _, i in nested)
            ids.add(id(gen))
        for stream, (head, nested, tail) in zip(outer, got):
            fresh = stream.generator()
            assert np.array_equal(head, fresh.standard_normal(3))
            assert np.array_equal(tail, fresh.integers(0, 100, 4))
            for s, values in zip(inner, nested):
                assert np.array_equal(values, s.generator().standard_normal(5))
        a, b = stream_generators(inner), stream_generators(outer[:2])
        drawn = []
        for ga, gb in zip(a, b):
            assert ga is not gb
            drawn.append((ga.standard_normal(2), gb.standard_normal(2), ga.standard_normal(2)))
        for sa, sb, (a1, b1, a2) in zip(inner, outer, drawn):
            fa = sa.generator()
            assert np.array_equal(np.concatenate([a1, a2]), fa.standard_normal(4))
            assert np.array_equal(b1, sb.generator().standard_normal(2))
        # once no iterator is live, the shared generator is lent again
        assert {id(g) for g in stream_generators(inner)} == ids

    def test_generators_read_no_os_entropy(self, monkeypatch):
        streams = [RngStream(5), RngStream(6, 2**63).child("x")]
        expected = [s.generator().standard_normal(3) for s in streams]

        def entropy(*args):
            raise AssertionError("OS entropy read")

        monkeypatch.setattr(np.random.bit_generator, "randbits", entropy)
        with pytest.raises(AssertionError, match="OS entropy"):
            np.random.Philox()  # an unseeded bit generator reads it
        assert np.array_equal(streams[1].generator().standard_normal(3), expected[1])
        outer = stream_generators(streams)
        first = next(outer).standard_normal(3)
        # an iterator started while another is live builds its own generator
        inner = [gen.standard_normal(3) for gen in stream_generators(streams)]
        rest = [gen.standard_normal(3) for gen in outer]
        assert np.array_equal([first, *rest], expected)
        assert np.array_equal(inner, expected)

    def test_estimates_in_two_threads_equal_serial_ones(self):
        # each thread resets its own shared generator; a short switch
        # interval interleaves the threads' draws finely
        env = QuadraticEnv.isotropic(4, sigma=0.5)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=3, batch=2)
        X = np.linspace(-1.0, 1.0, 8).reshape(2, 4)

        def run(i):
            return [estimate_gradients(X, cfg, env, RngStream(i).child(j)) for j in range(300)]

        serial = [run(i) for i in range(2)]
        threaded = [None, None]
        start = threading.Barrier(2)

        def work(i):
            start.wait()
            threaded[i] = run(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        for got, expected in zip(threaded, serial):
            assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    def test_draw_blocks_of_one_stream_draw_from_its_generator(self):
        stream = RngStream(4).child("x")
        got = draw_blocks([stream], 6, lambda gen, lo, hi: gen.standard_normal((2, hi - lo)),
                          axis=1)
        assert np.array_equal(got, stream.generator().standard_normal((2, 6)))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_draw_blocks_join_equal_blocks_along_axis(self, axis):
        # block g covers points 2g..2g+1 and starts at streams[g]; a repeated
        # stream starts over
        streams = [RngStream(0), RngStream(1), RngStream(0)]
        spans = []

        def draw(gen, lo, hi):
            spans.append((lo, hi))
            return gen.standard_normal((hi - lo, 3) if axis == 0 else (3, hi - lo))

        got = draw_blocks(streams, 6, draw, axis=axis)
        assert spans == [(0, 2), (2, 4), (4, 6)]
        expected = np.concatenate(
            [draw(s.generator(), 2 * g, 2 * g + 2) for g, s in enumerate(streams)], axis=axis
        )
        assert np.array_equal(got, expected)

    @given(
        rows=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=30),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_norms_equal_norm_of_each_row(self, rows, d, scale, seed):
        X = scale * RngStream(seed).generator().standard_normal((rows, d))
        assert np.array_equal(row_norms(X), [np.linalg.norm(x) for x in X])


class TestPointChunks:
    def test_a_chunk_holds_at_most_chunk_values_coordinates(self):
        assert [chunk_rows(d) for d in (1, 5, 16, 3 * CHUNK_VALUES)] == [
            CHUNK_VALUES, CHUNK_VALUES // 5, CHUNK_VALUES // 16, 1]

    def test_array_chunks_are_consecutive_views(self):
        size = chunk_rows(2)
        X = np.arange((2 * size + 5) * 2, dtype=np.float64).reshape(-1, 2)
        chunks = list(point_chunks(X))
        assert [(lo, hi) for lo, hi, _ in chunks] == [
            (0, size), (size, 2 * size), (2 * size, 2 * size + 5)]
        for lo, hi, block in chunks:
            assert np.shares_memory(block, X) and np.array_equal(block, X[lo:hi])

    def test_no_rows_is_one_empty_chunk(self):
        (lo, hi, block), = point_chunks(np.zeros((0, 3)))
        assert (lo, hi) == (0, 0) and block.shape == (0, 3)

    @given(
        d=st.integers(min_value=1, max_value=64),
        chunks=st.floats(min_value=0.0, max_value=2.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_sphere_matrix_normalizes_as_one_array(self, d, chunks, seed):
        # the norms are taken chunk by chunk; each row's norm rounds alike
        n = int(chunks * chunk_rows(d))
        u = RngStream(seed).generator().standard_normal((n, d))
        expected = u / np.linalg.norm(u, axis=1)[:, None]
        got = sphere_matrix(RngStream(seed).generator(), d, n)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class _ZeroRow:
    """A generator whose first draws hold an all-zero row ``row``."""

    def __init__(self, gen, row):
        self._gen = gen
        self._row = row
        self._drawn = 0

    @property
    def bit_generator(self):
        return self._gen.bit_generator

    def standard_normal(self, size=None, out=None):
        out = self._gen.standard_normal(size, out=out)
        if 0 <= self._row - self._drawn < out.shape[0]:
            out[self._row - self._drawn] = 0.0
        self._drawn += out.shape[0]
        return out


def _alone(kind, stream, d, count, step=0):
    """A part of ``count`` directions of ``kind`` drawn alone: chunk c of
    chunk_rows(d) rows from ``stream.at(step, DIRECTIONS, c)``."""
    if kind == "coordinate":
        return np.tile(np.eye(d), (count // d, 1))
    draw = gaussian_matrix if kind == "gaussian" else sphere_matrix
    size = chunk_rows(d)
    return np.concatenate([draw(stream.at(step, DIRECTIONS, c).generator(), d,
                                min(size, count - a))
                           for c, a in enumerate(range(0, count, size))])


class TestDirectionTable:
    """An inline draw of per-row directions, one part per stream and step,
    against each part's own chunks drawn alone."""

    @given(
        parts=st.lists(st.tuples(st.sampled_from(["coordinate", "sphere", "gaussian", "one_point"]),
                                 st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=6),
        d=st.integers(1, 6),
        rows=st.integers(1, 3),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_part_holds_its_substreams_own_draw(self, parts, d, rows, seed):
        # mixed kinds share a table at N = d; a stream may repeat, at one
        # step or at two, with one kind or with two
        parts = [(RngStream(seed, label), step, kind) for kind, label, step in parts]
        kinds = [kind for *_, kind in parts]
        cfg = EstimatorConfig("sphere", mu=0.1, directions=d)
        got = _draw_directions(cfg, d, rows, parts, overlap=False)
        if set(kinds) == {"coordinate"}:
            assert np.array_equal(got, np.eye(d)[None])
            return
        assert got.shape == (len(parts) * rows, d, d)
        expected = np.concatenate([_alone(k, s, d, rows * d, t) for s, t, k in parts])
        assert np.array_equal(got.reshape(-1, d).view(np.int64), expected.view(np.int64))

    def test_a_zero_norm_chunk_is_drawn_again_as_sphere_matrix_redraws_it(self, monkeypatch):
        d, rows, row = 3, 4, 5
        streams = [RngStream(1), RngStream(2), RngStream(1), RngStream(3)]
        kinds = ["gaussian", "sphere", "sphere", "coordinate"]
        zeroed = streams[1].at(0, DIRECTIONS)
        _zeroing(monkeypatch, zeroed, row)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=d)
        got = _draw_directions(cfg, d, rows, [(s, 0, k) for s, k in zip(streams, kinds)],
                               overlap=False).reshape(-1, d)
        count = rows * d
        expected = [_alone(k, s, d, count) for k, s in zip(kinds, streams)]
        expected[1] = sphere_matrix(_ZeroRow(zeroed.generator(), row), d, count)
        assert not np.array_equal(expected[1], _alone("sphere", streams[1], d, count))
        assert np.array_equal(got.view(np.int64), np.concatenate(expected).view(np.int64))
        assert abs(np.linalg.norm(got[count + row]) - 1.0) < 1e-15


def _zeroing(monkeypatch, zeroed, row):
    """Zero row ``row`` of every draw from the ``zeroed`` substream's generators.

    Returns the generators made for it, in order.  Each one's ``after`` is
    a copy of its generator taken once its draw is done, before its thread
    resets the generator for another stream.
    """
    lend = estimators.stream_generators
    made = []

    def zeroing(subs):
        subs = list(subs)
        for sub, gen in zip(subs, lend(subs)):
            if sub == zeroed:
                gen = _ZeroRow(gen, row)
                made.append(gen)
            yield gen
            if sub == zeroed:
                gen.after = copy.deepcopy(gen._gen)

    monkeypatch.setattr(estimators, "stream_generators", zeroing)
    return made


class TestPendingDirections:
    """A zero norm on a wide draw, with and without the helper thread."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_zero_norm_in_chunk_two_is_redrawn_from_its_own_substream(self, monkeypatch, cpus):
        d = 16
        size = chunk_rows(d)
        n, row = 2 * size + size // 2, 17
        stream = RngStream(3)
        monkeypatch.setattr(estimators, "usable_cpus", lambda: cpus)
        zeroed = stream.at(0, DIRECTIONS, 1)
        made = _zeroing(monkeypatch, zeroed, row)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=n)
        pending = _draw_directions(cfg, d, 1, [(stream, 0, "sphere")])
        assert isinstance(pending, np.ndarray) == (cpus == 1)
        try:
            got = pending[0] if cpus == 1 else pending.result()[0]
        finally:
            if cpus > 1:
                pending.close()
        alone = _ZeroRow(zeroed.generator(), row)
        expected = _alone("sphere", stream, d, n)
        expected[size:2 * size] = sphere_matrix(alone, d, size)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert abs(np.linalg.norm(got[size + row]) - 1.0) < 1e-15
        # only the chunk is drawn again, and the redraw leaves its generator
        # where sphere_matrix leaves it (whichever thread drew it may have
        # reset its generator for another chunk since)
        fill, drawing = made
        assert fill._drawn == size
        assert drawing._drawn == alone._drawn == size + 1
        assert np.array_equal(drawing.after.standard_normal(5), alone.standard_normal(5))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_zero_norm_of_a_first_part_is_redrawn_on_its_own_substream(self, monkeypatch, cpus):
        # two streams' chunks take turns on the fill's one generator; the
        # zeroed chunk is drawn again from its own substream's start
        d = 16
        size = chunk_rows(d)
        n, row = size + size // 2, 3
        streams = [RngStream(5), RngStream(6)]
        monkeypatch.setattr(estimators, "usable_cpus", lambda: cpus)
        zeroed = streams[0].at(4, DIRECTIONS, 1)
        _zeroing(monkeypatch, zeroed, row)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=n)
        pending = _draw_directions(cfg, d, 1, [(s, 4, "sphere") for s in streams])
        try:
            got = pending if cpus == 1 else pending.result()
        finally:
            if cpus > 1:
                pending.close()
        first = _alone("sphere", streams[0], d, n, 4)
        first[size:] = sphere_matrix(_ZeroRow(zeroed.generator(), row), d, n - size)
        second = _alone("sphere", streams[1], d, n, 4)
        assert np.array_equal(got.view(np.int64), np.stack([first, second]).view(np.int64))
