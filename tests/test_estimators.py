"""Gradient estimators: cost accounting, exactness, and error bounds."""

import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zodd.core
import zodd.estimators
from zodd.core import (
    DIRECTIONS,
    DRAWS,
    BudgetExhaustedError,
    ProbePoints,
    RngStream,
    SampleOracle,
    chunk_rows,
    gaussian_matrix,
    point_chunks,
    sphere_matrix,
)
from zodd.environments import PricingEnv, QuadraticEnv, StrategicEnv
from zodd.estimators import (
    ESTIMATOR_KINDS,
    BlockPlan,
    EstimatorConfig,
    RowStreams,
    _kernel,
    _plan_step,
    estimate_gradient,
    estimate_gradients,
    mse_upper_bound,
)


class _RecordingOracle(SampleOracle):
    """f(x) = 0.5 |x|^2, records every batch of probe points."""

    def __init__(self, d, budget=None):
        super().__init__(budget)
        self._d = d
        self.batches = []

    @property
    def dimension(self):
        return self._d

    def _draw_at(self, points, streams, replicates):
        whole = np.empty(points.shape)
        for lo, hi, block in point_chunks(points):
            whole[lo:hi] = block
        points = whole
        self.batches.append((points, replicates))
        return np.tile(0.5 * (points**2).sum(axis=1), (replicates, 1))


class TestConfig:
    def test_cost_formulas(self):
        d = 6
        assert EstimatorConfig("coordinate", 0.1, batch=3).samples_per_estimate(d) == 36
        assert EstimatorConfig("sphere", 0.1, directions=4, batch=3).samples_per_estimate(d) == 24
        assert EstimatorConfig("gaussian", 0.1, directions=4).samples_per_estimate(d) == 8
        assert EstimatorConfig("one_point", 0.1, directions=4, batch=3).samples_per_estimate(d) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig("sphere", mu=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig("sphere", mu=0.1, directions=0)
        with pytest.raises(ValueError):
            EstimatorConfig("sphere", mu=0.1, batch=0)
        with pytest.raises(ValueError):
            EstimatorConfig("simplex", mu=0.1)

    @pytest.mark.parametrize("field, value", [("directions", 2.5), ("directions", True),
                                              ("batch", 1.5), ("batch", False)])
    def test_non_integral_counts_are_rejected_by_name(self, field, value):
        # they used to pass here and fail later, inside numpy, with a TypeError
        with pytest.raises(ValueError, match=field):
            EstimatorConfig("sphere", mu=0.1, **{field: value})

    def test_numpy_integer_counts_are_plain_ints(self):
        cfg = EstimatorConfig("sphere", mu=0.1, directions=np.int64(3), batch=np.int32(2))
        assert cfg == EstimatorConfig("sphere", mu=0.1, directions=3, batch=2)
        assert type(cfg.directions) is int and type(cfg.batch) is int


class TestCostAccounting:
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_budget_consumed_matches_declared_cost(self, kind):
        d = 4
        cfg = EstimatorConfig(kind, mu=0.1, directions=5, batch=3)
        cost = cfg.samples_per_estimate(d)
        oracle = _RecordingOracle(d, budget=cost)
        estimate = estimate_gradient(np.ones(d), cfg, oracle, RngStream(1))
        assert estimate.samples_used == cost
        assert oracle.budget.consumed == cost
        assert oracle.budget.remaining == 0

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_insufficient_budget_consumes_nothing(self, kind):
        d = 4
        cfg = EstimatorConfig(kind, mu=0.1, directions=5, batch=3)
        oracle = _RecordingOracle(d, budget=cfg.samples_per_estimate(d) - 1)
        with pytest.raises(BudgetExhaustedError):
            estimate_gradient(np.ones(d), cfg, oracle, RngStream(1))
        assert oracle.budget.consumed == 0
        assert oracle.batches == []

    def test_all_probes_requested_in_one_batch(self):
        # one sample_at call per estimate: draws at distinct probes and
        # replicates stay independent while the budget charge is atomic
        d, N, m = 3, 4, 2
        cfg = EstimatorConfig("sphere", mu=0.5, directions=N, batch=m)
        oracle = _RecordingOracle(d)
        estimate = estimate_gradient(np.zeros(d), cfg, oracle, RngStream(2))
        assert len(oracle.batches) == 1
        points, replicates = oracle.batches[0]
        assert points.shape == (2 * N, d)
        assert replicates == m
        assert np.allclose(points[:N], -points[N:])  # x +- mu u around zero
        assert np.allclose(np.linalg.norm(points[:N], axis=1), 0.5)
        assert estimate.samples_used == 2 * N * m


class TestExactnessOnQuadratics:
    def test_coordinate_recovers_gradient_exactly(self):
        # central differences have no even-order error on a quadratic
        env = QuadraticEnv(np.diag([1.0, 3.0, 0.5]), np.array([1.0, -2.0, 0.0]), sigma=0.0)
        x = np.array([0.3, -1.0, 2.0])
        for mu in (1e-3, 0.1, 1.0):
            cfg = EstimatorConfig("coordinate", mu=mu)
            est = estimate_gradient(x, cfg, env, RngStream(0))
            assert np.allclose(est.gradient, env.gradient(x), atol=1e-9)

    def test_sphere_matches_projection_formula(self):
        env = QuadraticEnv(np.diag([1.0, 3.0, 0.5]), np.array([1.0, -2.0, 0.0]), sigma=0.0)
        x = np.array([0.3, -1.0, 2.0])
        rng = RngStream(9)
        dirs = sphere_matrix(rng.at(0, DIRECTIONS).generator(), 3, 7)
        cfg = EstimatorConfig("sphere", mu=0.2, directions=7)
        est = estimate_gradient(x, cfg, env, rng)
        expected = (3 / 7) * ((dirs @ env.gradient(x)) @ dirs)
        assert np.allclose(est.gradient, expected, atol=1e-9)

    def test_gaussian_matches_projection_formula(self):
        env = QuadraticEnv(np.diag([1.0, 3.0, 0.5]), np.array([1.0, -2.0, 0.0]), sigma=0.0)
        x = np.array([0.3, -1.0, 2.0])
        rng = RngStream(9)
        dirs = gaussian_matrix(rng.at(0, DIRECTIONS).generator(), 3, 7)
        cfg = EstimatorConfig("gaussian", mu=0.2, directions=7)
        est = estimate_gradient(x, cfg, env, rng)
        expected = (1 / 7) * ((dirs @ env.gradient(x)) @ dirs)
        assert np.allclose(est.gradient, expected, atol=1e-9)

    def test_one_point_on_zero_function_is_zero(self):
        env = QuadraticEnv(np.zeros((3, 3)), np.zeros(3), sigma=0.0)
        cfg = EstimatorConfig("one_point", mu=0.2, directions=6)
        est = estimate_gradient(np.ones(3), cfg, env, RngStream(0))
        assert np.array_equal(est.gradient, np.zeros(3))

    def test_one_point_targets_half_the_smoothed_gradient(self):
        # on a quadratic the ball-smoothed gradient is grad F itself; the
        # d / (2 mu) scale makes one_point average to half of it
        grad = np.array([1.0, 2.0, 3.0, 4.0])
        env = QuadraticEnv(np.eye(4), grad, sigma=0.0)
        x, mu, K = np.zeros(4), 0.5, 400_000
        rng = RngStream(17)
        est = estimate_gradient(x, EstimatorConfig("one_point", mu=mu, directions=K), env, rng)
        size = chunk_rows(4)
        u = np.concatenate([sphere_matrix(rng.at(0, DIRECTIONS, c).generator(), 4,
                                          min(size, K - a))
                            for c, a in enumerate(range(0, K, size))])
        terms = 4 * env.exact_objective_at(x + mu * u)[:, None] * u / (2 * mu)
        assert np.allclose(terms.mean(axis=0), est.gradient, rtol=0, atol=1e-9)
        se = terms.std(axis=0, ddof=1) / np.sqrt(K)
        assert np.all(np.abs(est.gradient - grad / 2) < 5 * se)

    def test_one_point_mean_vanishes_on_constant(self):
        # f == c: single estimates are far from zero but average out
        env = QuadraticEnv(np.zeros((2, 2)), np.zeros(2), sigma=0.0)
        x = np.zeros(2)

        class Shifted(type(env)):
            def _draw_at(self, points, streams, replicates):
                return super()._draw_at(points, streams, replicates) + 4.0

        shifted = Shifted(np.zeros((2, 2)), np.zeros(2), sigma=0.0)
        K = 5000
        cfg = EstimatorConfig("one_point", mu=0.5, directions=K)
        est = estimate_gradient(x, cfg, shifted, RngStream(3))
        # per-direction terms are (d c / 2 mu) u_i with |u_i| = 1
        per_dir_sd = 2 * 4.0 / (2 * 0.5) / np.sqrt(2)
        tol = 5 * per_dir_sd / np.sqrt(K)
        assert np.all(np.abs(est.gradient) < tol)


class TestEstimateStructure:
    def test_deterministic_given_stream(self):
        env = QuadraticEnv.isotropic(4, sigma=1.0)
        cfg = EstimatorConfig("gaussian", mu=0.1, directions=3, batch=2)
        a = estimate_gradient(np.ones(4), cfg, env, RngStream(8).child("e"))
        b = estimate_gradient(np.ones(4), cfg, env, RngStream(8).child("e"))
        assert np.array_equal(a.gradient, b.gradient)

    def test_distinct_streams_differ(self):
        env = QuadraticEnv.isotropic(4, sigma=1.0)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=3)
        a = estimate_gradient(np.ones(4), cfg, env, RngStream(8).child(0))
        b = estimate_gradient(np.ones(4), cfg, env, RngStream(8).child(1))
        assert not np.array_equal(a.gradient, b.gradient)

    def test_probe_mean_is_mean_of_all_samples(self):
        env = QuadraticEnv.isotropic(3, sigma=0.5)
        cfg = EstimatorConfig("sphere", mu=0.3, directions=4, batch=2)
        est = estimate_gradient(np.ones(3), cfg, env, RngStream(1))
        stacked = np.concatenate([est._forward.ravel(), est._backward.ravel()])
        assert est.probe_mean == pytest.approx(stacked.mean(), rel=1e-12)


class TestMseUpperBound:
    def test_coordinate_values(self):
        # recomputed by hand: noise 3 s^2 d / (2 mu^2 m), bias 3 M^2 d mu^2 / 4
        got = mse_upper_bound("coordinate", "grad", d=4, mu=0.5, batch=2, sigma=1.0, M=2.0)
        assert got == pytest.approx(3 * 4 / (2 * 0.25 * 2) + 3 * 4 * 4 * 0.25 / 4)
        got = mse_upper_bound("coordinate", "hessian", d=4, mu=0.5, batch=2, sigma=1.0, H=3.0)
        assert got == pytest.approx(12.0 + 9 * 0.5**4 * 4 / 12)

    def test_sphere_values(self):
        got = mse_upper_bound(
            "sphere", "grad", d=4, mu=0.5, directions=10, batch=2,
            sigma=1.0, M=2.0, grad_norm_sq=7.0,
        )
        expected = (
            3 * 16 / (0.25 * 20)
            + 3 * 4 * 0.25
            + 3 * 4 * 0.25 * 16 / 20
            + 18 * 16 / (10 * 6) * 7.0
        )
        assert got == pytest.approx(expected)

    def test_gaussian_values(self):
        got = mse_upper_bound(
            "gaussian", "hessian", d=4, mu=0.5, directions=10,
            sigma=1.0, H=3.0, grad_norm_sq=7.0,
        )
        expected = (
            3 * 4 / (0.25 * 10)
            + 3 * 0.5**4 * 9 * 16
            + 9 * 0.5**4 * 4 * 6 * 8 * 10 / (6 * 10)
            + 18 * 4 / 10 * 7.0
        )
        assert got == pytest.approx(expected)

    def test_missing_constant_rejected(self):
        with pytest.raises(ValueError):
            mse_upper_bound("sphere", "grad", d=4, mu=0.5, sigma=1.0)
        with pytest.raises(ValueError):
            mse_upper_bound("sphere", "hessian", d=4, mu=0.5, sigma=1.0, M=1.0)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            mse_upper_bound("sphere", "curvy", d=4, mu=0.5, sigma=1.0, M=1.0)
        with pytest.raises(ValueError):
            mse_upper_bound("one_point", "grad", d=4, mu=0.5, sigma=1.0, M=1.0)
        with pytest.raises(ValueError):
            mse_upper_bound("sphere", "grad", d=4, mu=0.0, sigma=1.0, M=1.0)

    @given(
        n1=st.integers(min_value=1, max_value=50),
        n2=st.integers(min_value=1, max_value=50),
        m1=st.integers(min_value=1, max_value=50),
        m2=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_directions_and_batch(self, n1, n2, m1, m2):
        def bound(n, m):
            return mse_upper_bound(
                "gaussian", "grad", d=5, mu=0.1, directions=n, batch=m,
                sigma=1.0, M=1.0, grad_norm_sq=2.0,
            )

        if n1 <= n2 and m1 <= m2:
            assert bound(n2, m2) <= bound(n1, m1) + 1e-12


class TestFreshDrawsEveryProbe:
    def test_noise_is_independent_across_replicates_and_probes(self):
        # with sigma > 0 and zero curvature every sampled value is pure
        # noise; all 2*N*m of them must be distinct draws
        env = QuadraticEnv(np.zeros((3, 3)), np.zeros(3), sigma=1.0)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=5, batch=4)
        est = estimate_gradient(np.zeros(3), cfg, env, RngStream(0))
        values = np.concatenate([est._forward.ravel(), est._backward.ravel()])
        assert len(np.unique(values)) == values.size


class TestBatchedKernel:
    @given(
        kind=st.sampled_from(ESTIMATOR_KINDS),
        rows=st.integers(min_value=1, max_value=64),
        batch=st.sampled_from([1, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_function_of_points_config_and_stream(self, kind, rows, batch, seed):
        d = 4
        X = RngStream(seed).child("points").generator().uniform(-1, 1, (rows, d))
        before = X.copy()
        cfg = EstimatorConfig(kind, mu=0.2, directions=3, batch=batch)
        rng = RngStream(seed).child("kernel")
        a = estimate_gradients(X, cfg, QuadraticEnv.isotropic(d, sigma=0.5), rng)
        b = estimate_gradients(X, cfg, QuadraticEnv.isotropic(d, sigma=0.5), rng)
        assert a.shape == (rows, d)
        assert np.array_equal(a, b)
        assert np.array_equal(X, before)

    @given(
        kind=st.sampled_from(ESTIMATOR_KINDS),
        rows=st.integers(min_value=1, max_value=8),
        per_row=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_probes_equal_the_concatenated_form(self, kind, rows, per_row, seed):
        d = 5
        gen = RngStream(seed).child("points").generator()
        X = gen.uniform(-1, 1, (rows, d))
        cfg = EstimatorConfig(kind, mu=0.3, directions=4)
        if per_row:
            # one stream per row, some shared, and a radius per row
            step = _step(X, cfg, [RngStream(seed).child("row", r % 3) for r in range(rows)],
                         [kind] * rows)
            mu = gen.uniform(0.01, 1.0, rows)
            radius = mu[:, None]
        else:
            step, mu = _step(X, cfg, RngStream(seed)), None
            radius = np.full((rows, 1), cfg.mu)
        oracle = _RecordingOracle(d)
        dirs = _kernel(X, cfg, oracle, step, mu)[1]
        base = X[:, None, :]
        offsets = radius[:, :, None] * dirs
        if kind == "one_point":
            expected = base + offsets
        else:
            expected = np.concatenate([base + offsets, base - offsets], axis=1)
        (points, _), = oracle.batches
        assert np.array_equal(points.view(np.int64), expected.reshape(-1, d).view(np.int64))

    def test_coordinate_rows_are_exact_on_quadratics(self):
        env = QuadraticEnv(np.diag([1.0, 3.0, 0.5]), np.array([1.0, -2.0, 0.0]), sigma=0.0)
        X = RngStream(4).generator().uniform(-2, 2, (37, 3))
        cfg = EstimatorConfig("coordinate", mu=0.1, batch=3)
        grads = estimate_gradients(X, cfg, env, RngStream(0))
        for x, g in zip(X, grads):
            assert np.allclose(g, env.gradient(x), atol=1e-9)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_single_row_is_the_single_estimate(self, kind):
        env = QuadraticEnv.isotropic(5, sigma=0.5)
        cfg = EstimatorConfig(kind, mu=0.1, directions=7, batch=2)
        x = np.linspace(-1, 1, 5)
        single = estimate_gradient(x, cfg, env, RngStream(3).child("e"))
        batched = estimate_gradients(x[None, :], cfg, env, RngStream(3).child("e"))
        assert np.array_equal(batched[0], single.gradient)

    def test_rows_take_consecutive_directions_and_one_oracle_call(self):
        # row r uses direction rows r*N .. r*N + N - 1 of one draw
        d, N, R, m = 3, 4, 5, 2
        cfg = EstimatorConfig("sphere", mu=0.5, directions=N, batch=m)
        oracle = _RecordingOracle(d)
        X = RngStream(1).generator().uniform(-1, 1, (R, d))
        rng = RngStream(2)
        grads = estimate_gradients(X, cfg, oracle, rng)
        assert len(oracle.batches) == 1
        points, replicates = oracle.batches[0]
        assert points.shape == (R * 2 * N, d) and replicates == m
        assert oracle.budget.consumed == R * cfg.samples_per_estimate(d)
        dirs = sphere_matrix(rng.at(0, DIRECTIONS).generator(), d, R * N)
        for r in range(R):
            u = dirs[r * N:(r + 1) * N]
            assert np.allclose(points[r * 2 * N:r * 2 * N + N], X[r] + 0.5 * u)
            # f = |x|^2 / 2: central differences give u . x exactly
            assert np.allclose(grads[r], (d / N) * ((u @ X[r]) @ u), atol=1e-12)

    @given(
        kind=st.sampled_from(ESTIMATOR_KINDS),
        rows=st.integers(min_value=1, max_value=6),
        directions=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_of_one_is_its_mean_bit_for_bit(self, kind, rows, directions, seed):
        # the kernel takes a batch of one's only value; its mean over the
        # batch axis must carry the same bits on any (1, R, N) values
        d = 3
        gen = RngStream(seed).child("values").generator()
        scales = 10.0 ** gen.integers(-300, 300, 64)

        class _RandomOracle(_RecordingOracle):
            def _draw_at(self, points, streams, replicates):
                k = points.shape[0]
                return gen.standard_normal((replicates, k)) * gen.choice(scales, (replicates, k))

        X = gen.uniform(-1, 1, (rows, d))
        cfg = EstimatorConfig(kind, mu=0.25, directions=directions)
        gradients, dirs, forward, backward = _kernel(X, cfg, _RandomOracle(d),
                                                     _step(X, cfg, RngStream(seed)))
        diffs = forward if backward is None else forward - backward
        assert diffs.shape[0] == 1
        coeffs = diffs.mean(axis=0) / (2.0 * np.full((rows, 1), cfg.mu))
        scale = {"gaussian": 1.0 / directions, "coordinate": 1.0}.get(kind, d / directions)
        expected = scale * np.matmul(coeffs[:, None, :], dirs)[:, 0, :]
        assert np.array_equal(gradients.view(np.int64), expected.view(np.int64))

    def test_point_validation(self):
        env = QuadraticEnv.isotropic(3, sigma=0.0)
        cfg = EstimatorConfig("sphere", mu=0.1)
        with pytest.raises(ValueError):
            estimate_gradients(np.zeros(3), cfg, env, RngStream(0))
        with pytest.raises(ValueError):
            estimate_gradients(np.zeros((2, 4)), cfg, env, RngStream(0))
        with pytest.raises(ValueError):
            estimate_gradients(np.full((2, 3), np.nan), cfg, env, RngStream(0))


def test_row_streams_keep_the_order_of_first_use():
    a, b, c = RngStream(0), RngStream(1), RngStream(2)
    rows = RowStreams.of([a, b, RngStream(0), c], ["sphere"] * 4)
    assert rows.distinct == [a, b, c] and rows.index.tolist() == [0, 1, 0, 2]
    plan = BlockPlan.of(EstimatorConfig("sphere", mu=0.1), 2, rows, range(3, 4))
    assert plan.draws == [[s.at(3, DRAWS) for s in (a, b, c)]]
    # once row 0 leaves, b is used first: no two rows share, so index is 0..R-1
    kept = rows.take(np.array([False, True, True, False]))
    assert kept.distinct == [b, a] and kept.index.tolist() == [0, 1]


def test_row_streams_share_a_draw_only_within_one_kind():
    a, b = RngStream(0), RngStream(1)
    rows = RowStreams.of([a, RngStream(0), a, b], ["sphere", "gaussian", "sphere", "sphere"])
    assert rows.distinct == [a, a, b] and rows.index.tolist() == [0, 1, 0, 2]
    assert rows.kinds == ["sphere", "gaussian", "sphere"]
    kept = rows.take(np.array([False, True, False, True]))
    assert kept.distinct == [a, b] and kept.kinds == ["gaussian", "sphere"]


@pytest.mark.parametrize("batch", [1, 3])
def test_mixed_kind_rows_are_their_single_estimates(batch):
    # rows of three kinds at N = d, two of them on one stream, in one call
    d = 4
    env = QuadraticEnv.isotropic(d, sigma=0.5)
    kinds = ["coordinate", "sphere", "gaussian", "coordinate", "sphere"]
    streams = [RngStream(7), RngStream(7), RngStream(7), RngStream(8), RngStream(9)]
    X = RngStream(1).generator().uniform(-1, 1, (len(kinds), d))
    mu = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    cfg = EstimatorConfig("sphere", mu=0.1, directions=d, batch=batch)
    gradients = _kernel(X, cfg, env, _step(X, cfg, streams, kinds), mu)[0]
    for r, kind in enumerate(kinds):
        single = estimate_gradient(X[r], EstimatorConfig(kind, mu=mu[r], directions=d, batch=batch),
                                   env, streams[r])
        assert np.array_equal(gradients[r].view(np.int64), single.gradient.view(np.int64))


def _step(X, cfg, streams, kinds=None):
    """The planned step ``_kernel`` takes for the rows of X.

    Without ``kinds``, ``streams`` is one stream or G, planned as
    ``estimate_gradients`` plans it.  With ``kinds``, row r is on
    ``streams[r]`` with kind ``kinds[r]``, as step 0 of a lockstep block,
    so it draws what an estimate of its kind on ``streams[r]`` draws.
    """
    rows, d = X.shape
    if kinds is None:
        return _plan_step(cfg, rows, d, streams)
    roots = RowStreams.of(streams, kinds)
    return BlockPlan.of(cfg, d, roots, range(1)).step(0, roots.index)


def _whole_array_kernel(X, cfg, oracle, streams, mu=None, kinds=None):
    """The kernel as it stood before probe chunking: every probe point in
    one (R, 2N or N, d) array and one plain-array ``sample_at`` call, with
    chunks too large to split anything, the oracle's arithmetic included;
    its step is ``_step(X, cfg, streams, kinds)``, whose direction chunks
    belong to the stream layout."""
    step = _step(X, cfg, streams, kinds)
    if not isinstance(step.dirs, np.ndarray):
        step = step._replace(dirs=step.dirs.result())
    with mock.patch.object(zodd.core, "CHUNK_VALUES", 1 << 62):
        return _unchunked_kernel(X, cfg, oracle, step, mu)


def _unchunked_kernel(X, cfg, oracle, step, mu):
    rows, d = X.shape
    dirs, draws = step.dirs, step.draws
    n = dirs.shape[1]
    radius = np.full((rows, 1), cfg.mu) if mu is None else np.asarray(mu, np.float64)[:, None]
    base = X[:, None, :]
    offsets = radius[:, :, None] * dirs
    if cfg.kind == "one_point":
        probes = base + offsets
    else:
        probes = np.empty((rows, 2 * n, d))
        np.add(base, offsets, out=probes[:, :n])
        np.subtract(base, offsets, out=probes[:, n:])
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
    gradients = scale * np.matmul(coeffs[:, None, :], dirs)[:, 0, :]
    return gradients, dirs, forward, backward


_CHUNKED_ENVS = {
    "quadratic": lambda: QuadraticEnv(np.diag([1.0, 2.5, 0.5]), [0.3, -1.0, 0.7], 0.6),
    "pricing": lambda: PricingEnv.synthetic(5, n=3, buyers=6),
    "strategic": lambda: StrategicEnv.synthetic(6, count=40),
}


def _same_bits(a, b):
    return a is None and b is None or np.array_equal(
        np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestChunkedProbes:
    @given(
        kind=st.sampled_from(ESTIMATOR_KINDS),
        env_name=st.sampled_from(sorted(_CHUNKED_ENVS)),
        rows=st.integers(min_value=1, max_value=8),
        chunks=st.integers(min_value=1, max_value=3),
        fill=st.floats(min_value=0.05, max_value=1.0),
        batch=st.sampled_from([1, 3]),
        per_row=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # one row's probes split into pieces of each half, for every environment
    @example("sphere", "pricing", 1, 3, 1.0, 3, False, 11)
    @example("gaussian", "strategic", 2, 3, 0.9, 1, True, 12)
    @example("one_point", "quadratic", 1, 2, 0.7, 3, True, 13)
    @example("sphere", "quadratic", 3, 3, 1.0, 1, True, 14)
    @settings(max_examples=40, deadline=None)
    def test_streamed_kernel_is_the_whole_array_kernel(
        self, kind, env_name, rows, chunks, fill, batch, per_row, seed
    ):
        # the probes reach the oracle in chunks of at most chunk_rows(d)
        # points, never as one array; every draw, value and charge is unchanged
        streamed_env, whole_env = _CHUNKED_ENVS[env_name](), _CHUNKED_ENVS[env_name]()
        d = streamed_env.dimension
        sides = 1 if kind == "one_point" else 2
        target = (chunks - 1 + fill) * chunk_rows(d)
        n = max(1, int(target // (rows * sides)))
        cfg = EstimatorConfig(kind, mu=0.05, directions=n, batch=batch)
        gen = RngStream(seed).child("points").generator()
        X = gen.uniform(0.2, 1.2, (rows, d))
        if per_row:
            # one stream per row, with repeats, and a radius per row
            rng = [RngStream(seed).child("row", r % 3) for r in range(rows)]
            mu, kinds = gen.uniform(0.01, 0.2, rows), [kind] * rows
        else:
            rng, mu, kinds = RngStream(seed), None, None
        streamed = _kernel(X, cfg, streamed_env, _step(X, cfg, rng, kinds), mu)
        whole = _whole_array_kernel(X, cfg, whole_env, rng, mu, kinds)
        for got, expected in zip(streamed, whole):
            assert _same_bits(got, expected)
        assert streamed_env.budget.consumed == whole_env.budget.consumed

    def test_a_planned_estimate_is_built_in_pieces_of_each_half(self):
        # N = 65,536 two-sided probes are 2^17 points: at d = 16 a chunk is
        # 8,192 points, so each half goes in 8 pieces, each forward piece
        # followed by the backward piece of the same directions
        env = QuadraticEnv.isotropic(16, sigma=0.5)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=65_536)
        X = np.linspace(-1.0, 1.0, 16)[None, :]
        seen = []

        class Spy(QuadraticEnv):
            def _draw_at(self, points, streams, replicates):
                seen.extend((lo, hi) for lo, hi, _ in point_chunks(points))
                return super()._draw_at(points, streams, replicates)

        spy = Spy(env.A, env.b, env.sigma)
        streamed = _kernel(X, cfg, spy, _step(X, cfg, RngStream(4)))
        whole = _whole_array_kernel(X, cfg, env, RngStream(4))
        size = chunk_rows(16)
        assert size == 8192
        half = 2**16
        assert seen == [(a + side, a + side + size)
                        for a in range(0, half, size) for side in (0, half)]
        assert seen[:4] == [(0, 8192), (65536, 73728), (8192, 16384), (73728, 81920)]
        assert _same_bits(streamed[0], whole[0])

    def test_a_planned_estimate_keeps_its_directions_not_its_probes(self):
        # the (2N, d) probe array and its offsets copy are never built: the
        # directions (8 MiB) plus sample values and one chunk stay under
        # 14 MiB, where the whole-array kernel peaks near 37 MiB and a
        # finiteness check on an |dirs| copy near 16 MiB
        env = QuadraticEnv.isotropic(16, sigma=0.75)
        cfg = EstimatorConfig("sphere", mu=0.05, directions=65_536)
        x = np.linspace(-1.0, 1.0, 16)
        estimate_gradient(x, cfg, env, RngStream(0))
        tracemalloc.start()
        try:
            estimate_gradient(x, cfg, env, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * 2**20

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_an_overflowing_probe_raises_before_any_charge(self, kind):
        env = QuadraticEnv.isotropic(3, sigma=0.5, budget=10**6)
        cfg = EstimatorConfig(kind, mu=1e308, directions=4)
        x = np.array([1e308, -1e308, 1.0])
        # the overflow is the point of the test; its RuntimeWarning is not
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            estimate_gradient(x, cfg, env, RngStream(0))
        assert env.budget.consumed == 0

    @given(
        env_name=st.sampled_from(sorted(_CHUNKED_ENVS)),
        rows=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=30),
        two_sided=st.booleans(),
        shared=st.booleans(),
        replicates=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_span_order_gives_the_same_bits(
        self, env_name, rows, n, two_sided, shared, replicates, seed
    ):
        # point_chunks promises every row once, in any order: every reader
        # places blocks by (lo, hi), so a shuffled ProbePoints reads alike
        gen = RngStream(seed).child("points").generator()
        with mock.patch.object(zodd.core, "CHUNK_VALUES", 48):
            env = _CHUNKED_ENVS[env_name]()
            d = env.dimension
            X = gen.uniform(0.2, 1.2, (rows, d))
            radius = gen.uniform(0.01, 0.2, (rows, 1))
            dirs = gen.standard_normal((1 if shared else rows, n, d))
            probes = ProbePoints(X, radius, dirs, two_sided)
            shuffled = ProbePoints(X, radius, dirs, two_sided)
            shuffled._spans = [shuffled._spans[i] for i in gen.permutation(len(shuffled._spans))]
            whole = np.empty(probes.shape)
            for lo, hi, block in point_chunks(probes):
                whole[lo:hi] = block
            streams = [RngStream(seed).child("row", r) for r in range(rows)]
            results = [env._draw_at(points, streams, replicates)
                       for points in (whole, probes, shuffled)]
            if env_name == "quadratic":
                results += [env.exact_objective_at(points) for points in (whole, probes, shuffled)]
        assert all(_same_bits(got, results[0]) for got in results[1:3])
        assert all(_same_bits(got, results[3]) for got in results[4:])


def _counted_threads(monkeypatch):
    """The threads started from now on, in a list."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(zodd.core.threading, "Thread", Counted)
    return started


def _wide_cfg(kind, d, rows, chunks):
    """A config whose R-row call draws a table of about ``chunks`` chunks."""
    return EstimatorConfig(kind, mu=0.1, directions=int((chunks - 0.5) * chunk_rows(d)) // rows)


class TestDirectionHelper:
    @pytest.mark.parametrize("chunks", [2, 3])
    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("kind", ["sphere", "gaussian", "one_point"])
    def test_wide_estimates_are_bit_equal_at_one_and_two_cpus(
        self, monkeypatch, kind, per_row, chunks
    ):
        d, rows = 16, 2
        cfg = _wide_cfg(kind, d, rows, chunks)
        X = RngStream(1).generator().uniform(-1.0, 1.0, (rows, d))
        if per_row:
            rng, mu, kinds = [RngStream(7), RngStream(8)], np.array([0.1, 0.3]), [kind] * 2
        else:
            rng, mu, kinds = RngStream(7), None, None
        started = _counted_threads(monkeypatch)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: cpus)
            runs.append(_kernel(X, cfg, QuadraticEnv.isotropic(d, sigma=0.5),
                                _step(X, cfg, rng, kinds), mu))
            assert len(started) == cpus - 1
        whole = _whole_array_kernel(X, cfg, QuadraticEnv.isotropic(d, sigma=0.5), rng, mu, kinds)
        for one, two, expected in zip(*runs, whole):
            assert _same_bits(one, expected) and _same_bits(two, expected)

    def test_a_wide_mixed_kind_call_keeps_its_axes(self, monkeypatch):
        # 600 rows of N = d = 16 are 9,600 direction rows, over one chunk:
        # coordinate rows' axes sit between drawn parts of the pending table
        d, rows = 16, 600
        kinds = [("coordinate", "sphere", "gaussian")[r % 3] for r in range(rows)]
        streams = [RngStream(r) for r in range(rows)]
        cfg = EstimatorConfig("sphere", mu=0.1, directions=d)
        X = RngStream(2).generator().uniform(-1.0, 1.0, (rows, d))
        started = _counted_threads(monkeypatch)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: cpus)
            runs.append(_kernel(X, cfg, QuadraticEnv.isotropic(d, sigma=0.5),
                                _step(X, cfg, streams, kinds)))
        assert len(started) == 1
        for one, two in zip(*runs):
            assert _same_bits(one, two)
        assert np.array_equal(runs[1][1][0], np.eye(d))

    def test_the_helper_is_joined_however_the_estimate_ends(self, monkeypatch):
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 2)
        started = _counted_threads(monkeypatch)
        threads = threading.active_count()
        d = 16
        x = np.linspace(-1.0, 1.0, d)
        estimate_gradient(x, _wide_cfg("sphere", d, 1, 3), QuadraticEnv.isotropic(d, 0.5),
                          RngStream(0))
        assert threading.active_count() == threads
        for kind in ("sphere", "gaussian"):
            # the first forward chunk overflows while the helper still draws
            env = QuadraticEnv.isotropic(d, 0.5, budget=10**7)
            cfg = replace(_wide_cfg(kind, d, 1, 3), mu=1e308)
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
                estimate_gradient(np.full(d, 1e308), cfg, env, RngStream(1))
            assert env.budget.consumed == 0
            assert threading.active_count() == threads
        cfg = _wide_cfg("sphere", d, 1, 3)
        env = QuadraticEnv.isotropic(d, 0.5, budget=cfg.samples_per_estimate(d) - 1)
        with pytest.raises(BudgetExhaustedError):
            estimate_gradient(x, cfg, env, RngStream(2))
        assert env.budget.consumed == 0
        assert threading.active_count() == threads
        assert len(started) == 4

    def test_concurrent_wide_estimates_under_thread_switching(self, monkeypatch):
        # four callers and their four helpers on two cores, switching every
        # microsecond: a chunk read before it lands, or finished twice,
        # changes the bits
        d = 16
        cfg = _wide_cfg("sphere", d, 1, 3)
        x = np.linspace(-1.0, 1.0, d)
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 1)
        expected = [estimate_gradient(x, cfg, QuadraticEnv.isotropic(d, 0.5), RngStream(s))
                    for s in range(4)]
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 2)
        got = [None] * 4

        def run(s):
            got[s] = estimate_gradient(x, cfg, QuadraticEnv.isotropic(d, 0.5), RngStream(s))

        callers = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for one, two in zip(expected, got):
            assert _same_bits(one.gradient, two.gradient)
            assert _same_bits(one._directions, two._directions)

    @pytest.mark.parametrize("kind, d, n, batch, env", [
        # pricing_tune: N = 1 sphere chains at d = 8
        ("sphere", 8, 1, 1, lambda: PricingEnv.synthetic(1, n=8, buyers=100)),
        # strategic_run: N = 4, batch 8 sphere and gaussian chains at d = 12
        ("sphere", 12, 4, 8, lambda: StrategicEnv.synthetic(2, count=300)),
        ("gaussian", 12, 4, 8, lambda: StrategicEnv.synthetic(2, count=300)),
        # verify_mse: 2^14 draws per call at d = 5
        ("sphere", 5, 10, 1, lambda: QuadraticEnv.isotropic(5, 0.5)),
        ("gaussian", 5, 100, 10, lambda: QuadraticEnv.isotropic(5, 0.5)),
    ])
    def test_calls_of_one_chunk_start_no_thread(self, monkeypatch, kind, d, n, batch, env):
        # the largest call of each other workload: a lockstep group or an
        # MSE replicate chunk of 2^14 draws
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 2)
        started = _counted_threads(monkeypatch)
        cfg = EstimatorConfig(kind, mu=0.1, directions=n, batch=batch)
        rows = (1 << 14) // cfg.samples_per_estimate(d)
        assert rows * n <= chunk_rows(d)
        X = np.full((rows, d), 0.5)
        _kernel(X, cfg, env(), _step(X, cfg, RngStream(3)))
        _kernel(X, cfg, env(), _step(X, cfg, [RngStream(r) for r in range(rows)], [kind] * rows))
        assert started == []
        # one row past a chunk starts the helper
        wide = replace(cfg, directions=chunk_rows(d) + 1)
        _kernel(X[:1], wide, env(), _step(X[:1], wide, RngStream(3)))
        assert len(started) == 1



def test_a_wide_draw_on_a_shared_stream_matches_single_estimates(monkeypatch):
    # two rows on one stream share its one direction draw, longer than a
    # chunk, and a third row has its own: the shared draw is always inline
    d = 16
    cfg = EstimatorConfig("sphere", mu=0.1, directions=chunk_rows(d) + 100)
    streams = [RngStream(4), RngStream(4), RngStream(9)]
    X = RngStream(2).generator().uniform(-1.0, 1.0, (3, d))
    mu = np.array([0.1, 0.2, 0.3])
    monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: 1)
    alone = [_kernel(X[r:r + 1], replace(cfg, mu=mu[r]), QuadraticEnv.isotropic(d, 0.5),
                     _step(X[r:r + 1], cfg, streams[r]))
             for r in range(3)]
    started = _counted_threads(monkeypatch)
    for cpus in (1, 2):
        monkeypatch.setattr(zodd.estimators, "usable_cpus", lambda: cpus)
        step = _step(X, cfg, streams, ["sphere"] * 3)
        gradients, dirs, forward, backward = _kernel(X, cfg, QuadraticEnv.isotropic(d, 0.5),
                                                     step, mu)
        for r, (g, v, f, b) in enumerate(alone):
            assert _same_bits(gradients[r], g[0]) and _same_bits(dirs[r], v[0])
            assert _same_bits(forward[:, r], f[:, 0]) and _same_bits(backward[:, r], b[:, 0])
    assert started == []


def _blocks_alone(X, cfg, oracle, streams):
    """``_kernel`` on each of the G equal blocks of X alone, block g on stream g."""
    size = X.shape[0] // len(streams)
    return [_kernel(X[g * size:(g + 1) * size], cfg, oracle,
                    _step(X[g * size:(g + 1) * size], cfg, stream))
            for g, stream in enumerate(streams)]


def _same_block(whole, alone, rows):
    """Whether rows ``rows`` of a kernel result carry the bits of ``alone``."""
    gradients, dirs, forward, backward = whole
    # coordinate calls share one (1, d, d) set of axes
    dirs = dirs if dirs.shape[0] == 1 else dirs[rows]
    backward = None if backward is None else backward[:, rows]
    return all(_same_bits(a, b) for a, b in zip(
        (gradients[rows], dirs, forward[:, rows], backward), alone))


class TestMultiStream:
    @given(
        kind=st.sampled_from(ESTIMATOR_KINDS),
        env_name=st.sampled_from(sorted(_CHUNKED_ENVS)),
        blocks=st.integers(min_value=1, max_value=4),
        per_block=st.integers(min_value=1, max_value=5),
        batch=st.sampled_from([1, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_g_is_its_single_stream_call(self, kind, env_name, blocks, per_block,
                                               batch, seed):
        env = _CHUNKED_ENVS[env_name]()
        d = env.dimension
        X = RngStream(seed).child("points").generator().uniform(-1, 1, (blocks * per_block, d))
        cfg = EstimatorConfig(kind, mu=0.2, directions=3, batch=batch)
        # a stream may serve two blocks: each starts from the stream's start
        streams = [RngStream(seed).child("block", g % 3) for g in range(blocks)]
        whole = _kernel(X, cfg, env, _step(X, cfg, streams))
        for g, alone in enumerate(_blocks_alone(X, cfg, env, streams)):
            assert _same_block(whole, alone, slice(g * per_block, (g + 1) * per_block))
        assert _same_bits(estimate_gradients(X, cfg, env, tuple(streams)), whole[0])

    def test_the_budget_is_charged_once_for_the_call(self):
        d, rows = 3, 6
        cfg = EstimatorConfig("sphere", mu=0.1, directions=4, batch=2)
        streams = [RngStream(g) for g in range(3)]
        X = np.zeros((rows, d))
        oracle = _RecordingOracle(d)
        estimate_gradients(X, cfg, oracle, streams)
        assert len(oracle.batches) == 1
        assert oracle.budget.consumed == rows * cfg.samples_per_estimate(d)
        short = QuadraticEnv.isotropic(d, 0.5, budget=rows * cfg.samples_per_estimate(d) - 1)
        with pytest.raises(BudgetExhaustedError):
            estimate_gradients(X, cfg, short, streams)
        assert short.budget.consumed == 0

    def test_a_substream_is_not_a_stream_of_an_estimate(self):
        # a Substream is a tuple of four ints, not four streams
        env = QuadraticEnv.isotropic(3, 0.5, budget=10**6)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=2)
        for rng in (RngStream(0).at(0, DRAWS), [RngStream(0), RngStream(1).at(0, DRAWS)]):
            with pytest.raises(TypeError, match="rng must be an RngStream"):
                estimate_gradients(np.zeros((2, 3)), cfg, env, rng)
        with pytest.raises(TypeError, match="rng must be an RngStream"):
            estimate_gradient(np.zeros(3), cfg, env, RngStream(0).at(0, DRAWS))
        assert env.budget.consumed == 0

    @pytest.mark.parametrize("rows, blocks", [(4, 0), (5, 2), (3, 4)])
    def test_rows_that_do_not_split_raise_before_any_draw(self, monkeypatch, rows, blocks):
        def no_draw(*args, **kwargs):
            raise AssertionError("directions were drawn")

        monkeypatch.setattr(zodd.estimators, "gaussian_matrix", no_draw)
        env = QuadraticEnv.isotropic(3, 0.5, budget=10**6)
        cfg = EstimatorConfig("sphere", mu=0.1, directions=2)
        streams = [RngStream(g) for g in range(blocks)]
        with pytest.raises(ValueError, match=f"{rows} rows do not split into {blocks} equal"):
            estimate_gradients(np.zeros((rows, 3)), cfg, env, streams)
        assert env.budget.consumed == 0

    @pytest.mark.parametrize("kind", ["sphere", "gaussian"])
    def test_a_table_over_one_chunk_is_its_blocks_alone(self, kind):
        # two blocks of two rows, about 3 chunks of directions: on more than
        # one usable CPU a helper thread draws the table, on one the kernel
        d, rows = 16, 4
        cfg = _wide_cfg(kind, d, rows, 3)
        assert rows * cfg.directions > chunk_rows(d)
        X = RngStream(3).generator().uniform(-1.0, 1.0, (rows, d))
        streams = [RngStream(5), RngStream(6)]
        env = QuadraticEnv.isotropic(d, 0.5)
        whole = _kernel(X, cfg, env, _step(X, cfg, streams))
        for g, alone in enumerate(_blocks_alone(X, cfg, env, streams)):
            assert _same_block(whole, alone, slice(2 * g, 2 * g + 2))
