"""Gradient estimators: cost accounting, exactness, and error bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zodd.core import (
    BudgetExhaustedError,
    RngStream,
    SampleOracle,
    gaussian_matrix,
    sphere_matrix,
)
from zodd.environments import QuadraticEnv
from zodd.estimators import (
    ESTIMATOR_KINDS,
    EstimatorConfig,
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

    def _draw_at(self, points, gen, replicates):
        self.batches.append((points.copy(), replicates))
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
        dirs = sphere_matrix(rng.child("directions").generator(), 3, 7)
        cfg = EstimatorConfig("sphere", mu=0.2, directions=7)
        est = estimate_gradient(x, cfg, env, rng)
        expected = (3 / 7) * ((dirs @ env.gradient(x)) @ dirs)
        assert np.allclose(est.gradient, expected, atol=1e-9)

    def test_gaussian_matches_projection_formula(self):
        env = QuadraticEnv(np.diag([1.0, 3.0, 0.5]), np.array([1.0, -2.0, 0.0]), sigma=0.0)
        x = np.array([0.3, -1.0, 2.0])
        rng = RngStream(9)
        dirs = gaussian_matrix(rng.child("directions").generator(), 3, 7)
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
        u = sphere_matrix(rng.child("directions").generator(), 4, K)
        terms = 4 * env.exact_objective_at(x + mu * u)[:, None] * u / (2 * mu)
        assert np.allclose(terms.mean(axis=0), est.gradient, rtol=0, atol=1e-9)
        se = terms.std(axis=0, ddof=1) / np.sqrt(K)
        assert np.all(np.abs(est.gradient - grad / 2) < 5 * se)

    def test_one_point_mean_vanishes_on_constant(self):
        # f == c: single estimates are far from zero but average out
        env = QuadraticEnv(np.zeros((2, 2)), np.zeros(2), sigma=0.0)
        x = np.zeros(2)

        class Shifted(type(env)):
            def _draw_at(self, points, gen, replicates):
                return super()._draw_at(points, gen, replicates) + 4.0

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
        dirs = sphere_matrix(rng.child("directions").generator(), d, R * N)
        for r in range(R):
            u = dirs[r * N:(r + 1) * N]
            assert np.allclose(points[r * 2 * N:r * 2 * N + N], X[r] + 0.5 * u)
            # f = |x|^2 / 2: central differences give u . x exactly
            assert np.allclose(grads[r], (d / N) * ((u @ X[r]) @ u), atol=1e-12)

    def test_point_validation(self):
        env = QuadraticEnv.isotropic(3, sigma=0.0)
        cfg = EstimatorConfig("sphere", mu=0.1)
        with pytest.raises(ValueError):
            estimate_gradients(np.zeros(3), cfg, env, RngStream(0))
        with pytest.raises(ValueError):
            estimate_gradients(np.zeros((2, 4)), cfg, env, RngStream(0))
        with pytest.raises(ValueError):
            estimate_gradients(np.full((2, 3), np.nan), cfg, env, RngStream(0))
