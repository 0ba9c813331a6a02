"""Randomness streams, directions, and budget accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodd.core import (
    BudgetCounter,
    BudgetExhaustedError,
    RngStream,
    SampleOracle,
    as_point,
    distinct_children,
    gaussian_matrix,
    row_norms,
    sphere_matrix,
)
from zodd.environments import QuadraticEnv
from zodd.estimators import EstimatorConfig, estimate_gradient


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

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            BudgetCounter(-1)

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


class _CountingOracle(SampleOracle):
    """Deterministic f(x) = sum(x); counts every draw request."""

    def __init__(self, d, budget=None):
        super().__init__(budget)
        self._d = d
        self.calls = []

    @property
    def dimension(self):
        return self._d

    def _draw_at(self, points, gen, replicates):
        self.calls.append((points.shape[0], replicates))
        return np.tile(points.sum(axis=1), (replicates, 1))


class TestSampleOracle:
    def test_sample_charges_one(self):
        o = _CountingOracle(3, budget=2)
        assert o.sample([1.0, 2.0, 3.0], RngStream(0)) == 6.0
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

    def test_one_dim_points_are_promoted(self):
        o = _CountingOracle(2)
        out = o.sample_at(np.array([1.0, 1.0]), RngStream(0))
        assert out.shape == (1, 1)


    def test_grouped_draws_rewind_repeated_streams(self):
        o = _CountingOracle(2)
        o.sample_at(np.zeros((6, 2)), [RngStream(0), RngStream(1), RngStream(0)], replicates=2)
        assert o.calls == [(6, 2)]
        assert o.budget.consumed == 12


class TestStreamHelpers:
    def test_distinct_children_derive_once_per_stream(self):
        a, b = RngStream(1), RngStream(2)
        out = distinct_children([a, b, RngStream(1), a], "iteration", 3)
        assert out == [s.child("iteration", 3) for s in (a, b, a, a)]
        assert out[0] is out[2] is out[3]

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
