"""Parameter planner and descent loop."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from zodd.core import RngStream
from zodd.environments import PricingEnv, QuadraticEnv
from zodd.optimizer import (
    DivergenceError,
    ParameterPlan,
    PlannerConstants,
    descent_bound_sides,
    plan_parameters,
    run_descent,
    sample_complexity_order,
    select_uniform_index,
)


class TestPlannerSchedules:
    def test_coordinate_grad_forced_batch(self):
        # d=1, epsilon=1 with c_m=2 forces batch 2, putting the probe
        # radius at (2 sigma^2 / (m M^2))^(1/4) = 1
        plan = plan_parameters(
            "coordinate", "grad", epsilon=1.0, d=1, sigma=1.0, M=1.0,
            constants=PlannerConstants(c_m=2.0),
        )
        assert plan.batch == 2
        assert plan.directions == 1
        assert plan.mu == pytest.approx(1.0)
        assert plan.step == pytest.approx(0.25)

    def test_coordinate_hessian_example(self):
        plan = plan_parameters(
            "coordinate", "hessian", epsilon=0.1, d=4, sigma=1.0, M=1.0, H=1.0
        )
        assert plan.batch == 8000
        assert plan.mu == pytest.approx((18.0 / 8000.0) ** (1.0 / 6.0))
        assert plan.directions == 4

    def test_sphere_grad_example(self):
        plan = plan_parameters("sphere", "grad", epsilon=0.1, d=3, sigma=1.0, M=1.0)
        assert plan.directions == 90_000
        assert plan.batch == 1
        assert plan.mu == pytest.approx(0.1)
        assert plan.step == pytest.approx(0.25)
        assert plan.iterations == 100
        assert plan.samples_per_iteration(3) == 180_000
        assert plan.total_samples(3) == 18_000_000

    def test_gaussian_hessian_example(self):
        plan = plan_parameters(
            "gaussian", "hessian", epsilon=0.25, d=4, sigma=1.0, M=1.0, H=1.0
        )
        assert plan.directions == 1024
        assert plan.mu == pytest.approx(0.25)
        assert plan.iterations == 16

    def test_epsilon_caps(self):
        with pytest.raises(ValueError):
            plan_parameters("sphere", "grad", 0.4, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "hessian", 0.4, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("gaussian", "grad", 0.4, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("gaussian", "hessian", 0.3, 3, 1.0, 1.0, 1.0)
        # the coordinate schedules carry no accuracy cap
        plan = plan_parameters("coordinate", "grad", 1.0, 2, 1.0, 1.0)
        assert plan.batch == 4

    def test_cap_can_be_lifted_explicitly(self):
        plan = plan_parameters(
            "sphere", "grad", 0.5, 10, 1.0, 1.0, enforce_epsilon_bound=False
        )
        assert plan.directions == 1600
        assert plan.mu == pytest.approx(0.5)

    def test_ceiling_is_robust_to_float_fuzz(self):
        # at epsilon = 1/3, d = 1: 1/eps^4 = 81.00000000000001 and
        # 1/eps^2 = 9.000000000000002 in floats; the schedule must not
        # round either up to the next integer
        plan = plan_parameters("sphere", "grad", 1.0 / 3.0, 1, 1.0, 1.0)
        assert plan.directions == 81
        assert plan.iterations == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_parameters("simplex", "grad", 0.1, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "curvy", 0.1, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "grad", -0.1, 3, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "grad", 0.1, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "grad", 0.1, 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "grad", 0.1, 3, 1.0, -1.0)
        with pytest.raises(ValueError):
            plan_parameters("sphere", "hessian", 0.1, 3, 1.0, 1.0)  # H missing
        with pytest.raises(ValueError):
            plan_parameters("sphere", "hessian", 0.1, 3, 1.0, 1.0, -1.0)

    def test_zero_hessian_constant(self):
        # the randomized hessian schedules never read H, so a quadratic's H = 0
        # plans exactly like any other H; coordinate divides by H
        for kind in ("sphere", "gaussian"):
            flat = plan_parameters(kind, "hessian", 0.25, 3, 1.0, 1.0, 0.0)
            assert flat == plan_parameters(kind, "hessian", 0.25, 3, 1.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            plan_parameters("coordinate", "hessian", 0.25, 3, 1.0, 1.0, 0.0)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            PlannerConstants(c_mu=0.0)
        with pytest.raises(ValueError):
            PlannerConstants.with_known_gap(0.0, 1.0)
        c = PlannerConstants.with_known_gap(2.0, 3.0)
        assert c.c_T == pytest.approx(96.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_are_rejected_by_name(self, bad):
        # NaN passes an x <= 0 check, so every input is checked for finiteness
        for name, args in [("epsilon", (bad, 3, 1.0, 1.0)), ("sigma", (0.1, 3, bad, 1.0)),
                           ("smoothness M", (0.1, 3, 1.0, bad))]:
            with pytest.raises(ValueError, match=name):
                plan_parameters("sphere", "grad", *args)
        with pytest.raises(ValueError, match="finite H"):
            plan_parameters("sphere", "hessian", 0.1, 3, 1.0, 1.0, bad)
        for name in ("c_mu", "c_m", "c_T"):
            with pytest.raises(ValueError, match=name):
                PlannerConstants(**{name: bad})
        with pytest.raises(ValueError, match="smoothness M"):
            PlannerConstants.with_known_gap(bad, 1.0)
        with pytest.raises(ValueError, match="gap"):
            PlannerConstants.with_known_gap(1.0, bad)
        for name in ("mu", "step"):
            with pytest.raises(ValueError, match=name):
                ParameterPlan("sphere", "grad", directions=1, batch=1, iterations=1,
                              **{"mu": 0.1, "step": 0.1, name: bad})

    @pytest.mark.parametrize("kind, regime, epsilon", [
        *[(kind, "grad", epsilon) for kind in ("coordinate", "sphere", "gaussian")
          for epsilon in (1e-100, 1e-80)],
        ("coordinate", "grad", 1e100), ("coordinate", "hessian", 1e100),
    ])
    def test_an_epsilon_without_a_finite_schedule_is_rejected_by_name(self, kind, regime, epsilon):
        # epsilon**4 underflows to 0 at 1e-100 and the quotient overflows at
        # 1e-80; at 1e100 (coordinate has no cap) epsilon**4 overflows, and the
        # hessian batch rounds to 0 and is divided by
        with pytest.raises(ValueError, match=re.escape(f"epsilon {epsilon!r} is out of range")):
            plan_parameters(kind, regime, epsilon, 4, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("kind", ["sphere", "gaussian"])
    def test_a_schedule_that_rounds_to_no_direction_is_rejected_by_name(self, kind):
        # past the cap, d^2 / epsilon^3 rounds to 0 directions at 1e100
        with pytest.raises(ValueError, match=re.escape("epsilon 1e+100 is out of range")):
            plan_parameters(kind, "hessian", 1e100, 4, 1.0, 1.0, 1.0,
                            enforce_epsilon_bound=False)

    def test_complexity_tags(self):
        assert sample_complexity_order("coordinate", "grad") == "O(d^3 eps^-6)"
        assert sample_complexity_order("coordinate", "hessian") == "O(d^2.5 eps^-5)"
        assert sample_complexity_order("sphere", "grad") == "O(d^2 eps^-6)"
        assert sample_complexity_order("gaussian", "hessian") == "O(d^2 eps^-5)"

    @given(
        eps1=st.floats(min_value=0.01, max_value=1.0 / 3.0),
        eps2=st.floats(min_value=0.01, max_value=1.0 / 3.0),
        d=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_tighter_accuracy_never_costs_less(self, eps1, eps2, d):
        lo, hi = sorted([eps1, eps2])
        small = plan_parameters("sphere", "grad", lo, d, 1.0, 1.0)
        large = plan_parameters("sphere", "grad", hi, d, 1.0, 1.0)
        assert small.total_samples(d) >= large.total_samples(d)
        assert small.iterations >= large.iterations

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ParameterPlan("sphere", "grad", mu=0.0, directions=1, batch=1,
                          step=0.1, iterations=1)
        with pytest.raises(ValueError):
            ParameterPlan("sphere", "grad", mu=0.1, directions=0, batch=1,
                          step=0.1, iterations=1)

    @pytest.mark.parametrize("kind", ["coordinate", "sphere", "gaussian"])
    @pytest.mark.parametrize("d", [2.5, 3.0, True, 0])
    def test_a_non_integral_dimension_is_rejected_by_name(self, kind, d):
        # coordinate used to return directions=3.0 at d = 3.0, and fail later
        # in estimator_config() naming directions
        with pytest.raises(ValueError, match="d must be a positive integer"):
            plan_parameters(kind, "grad", 0.3, d, 1.0, 1.0)
        assert plan_parameters(kind, "grad", 0.3, np.int64(3), 1.0, 1.0) == \
            plan_parameters(kind, "grad", 0.3, 3, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["directions", "batch"])
    @pytest.mark.parametrize("bad", [2.0, True, 0])
    def test_plan_counts_are_integers(self, field, bad):
        counts = {"directions": 2, "batch": 1}
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            ParameterPlan("sphere", "grad", mu=0.1, step=0.1, iterations=1,
                          **{**counts, field: bad})
        plan = ParameterPlan("sphere", "grad", mu=0.1, step=0.1, iterations=1,
                             **{**counts, field: np.int64(2)})
        assert type(getattr(plan, field)) is int


class TestRunDescent:
    def _plan(self, **kw):
        base = dict(kind="coordinate", regime="grad", mu=0.1, directions=3,
                    batch=1, step=0.25, iterations=30)
        base.update(kw)
        return ParameterPlan(**base)

    def test_noise_free_coordinate_descent_converges(self):
        env = QuadraticEnv.isotropic(3, sigma=0.0)
        x_bar, trace = run_descent(np.full(3, 2.0), self._plan(), env, RngStream(0))
        # exact gradients: plain gradient descent, contraction 0.75 per step
        assert np.allclose(trace.iterates[-1], np.full(3, 2.0) * 0.75**30, atol=1e-12)
        assert trace.output_index is not None
        assert np.array_equal(x_bar, trace.iterates[trace.output_index])

    def test_trace_shapes(self):
        env = QuadraticEnv.isotropic(3, sigma=0.5)
        plan = self._plan(iterations=12)
        _, trace = run_descent(np.ones(3), plan, env, RngStream(1))
        assert len(trace.iterates) == 13
        assert len(trace.gradients) == 12
        assert len(trace.samples_cumulative) == 13
        assert trace.samples_cumulative[0] == 0
        assert trace.samples_cumulative[-1] == 12 * plan.samples_per_iteration(3)

    def test_deterministic(self):
        env = QuadraticEnv.isotropic(3, sigma=1.0)
        a, ta = run_descent(np.ones(3), self._plan(), env, RngStream(7))
        b, tb = run_descent(np.ones(3), self._plan(), env, RngStream(7))
        assert np.array_equal(a, b)
        assert np.array_equal(ta.iterates[-1], tb.iterates[-1])

    @pytest.mark.parametrize("make_env, x0, plan, seed, digest", [
        (lambda: QuadraticEnv.isotropic(4, sigma=0.5), np.full(4, 1.5),
         ParameterPlan("sphere", "grad", mu=0.1, directions=5, batch=2,
                       step=0.2, iterations=25), 11,
         "3e1a66377a68c343dd8c5cde0a51b0ea7f6a0bb9ff9d89daac645e2215142952"),
        (lambda: QuadraticEnv.isotropic(3, sigma=0.5), np.full(3, 1.5),
         ParameterPlan("coordinate", "grad", mu=0.1, directions=3, batch=2,
                       step=0.2, iterations=25), 12,
         "f4fd2033cc1d2312c359e77642921c4fd6dd5dc965027f6fb7ad8758243eef1a"),
        (lambda: PricingEnv.synthetic(0, n=5), np.ones(5),
         ParameterPlan("one_point", "grad", mu=0.1, directions=4, batch=1,
                       step=1e-3, iterations=25), 13,
         "180f52ac6fb9f3df6215ab004dfcd12dd57781cd1f3ccfe1a29a8655bc91c544"),
    ], ids=["sphere", "coordinate", "one_point"])
    def test_trajectory_is_pinned(self, make_env, x0, plan, seed, digest):
        # every iterate, estimate gradient and x_bar, bit for bit: any drift
        # in a draw, the update or the output pick changes the digest
        x_bar, trace = run_descent(x0, plan, make_env(), RngStream(seed))
        blob = np.concatenate(trace.iterates + trace.gradients + [x_bar])
        assert hashlib.sha256(blob.tobytes()).hexdigest() == digest

    def test_full_trace_keeps_gradients_not_probe_arrays(self):
        # 40 steps of N = 2000 directions at d = 10 draw 7.7 MB of directions
        # and probe values; a thin=1 trace keeps only the (d,) gradients
        env = QuadraticEnv.isotropic(10, sigma=1.0)
        plan = ParameterPlan("sphere", "grad", mu=0.1, directions=2000, batch=1,
                             step=0.25, iterations=40)
        run_descent(np.ones(10), self._plan(kind="sphere", iterations=1), env, RngStream(2))
        tracemalloc.start()  # after a warm-up, so modules numpy imports lazily do not count
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, trace = run_descent(np.ones(10), plan, env, RngStream(3))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.gradients) == 40
        assert all(g.shape == (10,) for g in trace.gradients)
        assert kept < 1 << 20

    def test_thinning(self):
        env = QuadraticEnv.isotropic(3, sigma=0.5)
        plan = self._plan(iterations=12)
        _, trace = run_descent(np.ones(3), plan, env, RngStream(1), thin=5)
        # stored: x_0 plus iterates 5, 10, and the final 12
        assert len(trace.iterates) == 4
        assert trace.gradients == []

    def test_divergence_raises_with_partial_trace(self):
        env = QuadraticEnv.isotropic(2, sigma=0.0)
        plan = self._plan(step=1e9, iterations=50)
        with pytest.raises(DivergenceError) as err:
            run_descent(np.ones(2), plan, env, RngStream(0))
        assert err.value.iteration >= 1
        assert len(err.value.trace.iterates) == err.value.iteration

    def test_budget_interacts_with_oracle(self):
        plan = self._plan(iterations=10)
        env = QuadraticEnv.isotropic(3, sigma=0.0, budget=plan.total_samples(3))
        run_descent(np.ones(3), plan, env, RngStream(0))
        assert env.budget.remaining == 0


class TestDescentBound:
    def test_holds_on_noisy_runs(self):
        env = QuadraticEnv.isotropic(4, sigma=1.0)
        plan = ParameterPlan("sphere", "grad", mu=0.1, directions=10, batch=1,
                             step=0.25, iterations=40)
        for seed in range(5):
            _, trace = run_descent(np.full(4, 3.0), plan, env, RngStream(seed))
            lhs, rhs = descent_bound_sides(trace, env, plan.step)
            assert lhs <= rhs * (1 + 1e-9)

    def test_needs_full_trace(self):
        env = QuadraticEnv.isotropic(3, sigma=0.1)
        plan = ParameterPlan("sphere", "grad", mu=0.1, directions=2, batch=1,
                             step=0.25, iterations=10)
        _, trace = run_descent(np.ones(3), plan, env, RngStream(0), thin=5)
        with pytest.raises(ValueError):
            descent_bound_sides(trace, env, plan.step)

    def test_needs_known_minimum(self):
        env = PricingEnv.synthetic(0, n=3)
        plan = ParameterPlan("sphere", "grad", mu=0.1, directions=2, batch=1,
                             step=0.001, iterations=3)
        quad = QuadraticEnv.isotropic(4, sigma=0.1)
        _, trace = run_descent(np.ones(4), plan, quad, RngStream(0))
        with pytest.raises(ValueError):
            descent_bound_sides(trace, env, plan.step)

    def test_step_must_be_positive(self):
        env = QuadraticEnv.isotropic(3, sigma=0.1)
        plan = ParameterPlan("sphere", "grad", mu=0.1, directions=2, batch=1,
                             step=0.25, iterations=3)
        _, trace = run_descent(np.ones(3), plan, env, RngStream(0))
        with pytest.raises(ValueError):
            descent_bound_sides(trace, env, 0.0)


class TestOutputSelection:
    def test_range_and_determinism(self):
        idx = select_uniform_index(10, RngStream(3))
        assert idx == select_uniform_index(10, RngStream(3))
        assert 0 <= idx < 10
        assert select_uniform_index(1, RngStream(0)) == 0
        with pytest.raises(ValueError):
            select_uniform_index(0, RngStream(0))

    def test_uniformity_chi_square(self):
        # 1e4 selections over 8 bins; reject only beyond the 5-sigma quantile
        count, trials = 8, 10_000
        hits = np.zeros(count)
        for i in range(trials):
            hits[select_uniform_index(count, RngStream(i))] += 1
        expected = trials / count
        statistic = float(((hits - expected) ** 2 / expected).sum())
        p_five_sigma = stats.norm.sf(5.0)
        threshold = stats.chi2.isf(p_five_sigma, count - 1)
        assert statistic < threshold

