"""Benchmark environments: exact objectives, sampling laws, best responses."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zodd.core import BudgetExhaustedError, RngStream, chunk_rows
from zodd.environments import (
    Environment,
    PricingEnv,
    QuadraticEnv,
    StrategicEnv,
    UnsupportedEnvironmentError,
    best_response,
    load_population,
    load_prices,
    make_synthetic_population,
    make_synthetic_prices,
    save_population,
    save_prices,
)
from zodd.environments import (
    PER_POINT_MULTINOMIAL_MAX,
    _diagonal_form,
    _logistic_loss,
    _respond,
)


class TestEnvironmentBase:
    def test_defaults_raise_or_none(self):
        class Bare(Environment):
            @property
            def dimension(self):
                return 2

            def _draw_at(self, points, streams, replicates):
                return np.zeros((replicates, points.shape[0]))

        env = Bare()
        assert env.noise_scale is None
        assert env.minimum_value is None
        with pytest.raises(UnsupportedEnvironmentError):
            env.exact_objective(np.zeros(2))
        with pytest.raises(UnsupportedEnvironmentError):
            env.gradient(np.zeros(2))


class TestQuadraticEnv:
    def _env(self, sigma=0.0):
        A = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]])
        b = np.array([1.0, -1.0, 0.5])
        return QuadraticEnv(A, b, sigma=sigma)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticEnv(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            QuadraticEnv(-np.eye(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            QuadraticEnv(np.eye(2), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            QuadraticEnv(np.eye(2), np.zeros(2), -1.0)
        with pytest.raises(ValueError, match="dimension"):
            QuadraticEnv.isotropic(0, 1.0)

    @pytest.mark.parametrize("d", [2.5, 3.0, True])
    def test_isotropic_counts_are_integers(self, d):
        # d = 2.5 used to raise a TypeError from np.eye, and budget = 2.5 to
        # be kept as a limit
        with pytest.raises(ValueError, match="dimension d must be a positive integer"):
            QuadraticEnv.isotropic(d, 1.0)
        with pytest.raises(ValueError, match="budget limit must be an integer >= 0"):
            QuadraticEnv.isotropic(3, 1.0, budget=2.5)
        env = QuadraticEnv.isotropic(np.int64(3), 1.0, budget=np.int64(0))
        assert env.dimension == 3 and env.budget.limit == 0

    def test_gradient_matches_finite_differences(self):
        env = self._env()
        gen = RngStream(0).generator()
        step = 1e-5
        for _ in range(20):
            x = gen.uniform(-3, 3, env.dimension)
            grad = env.gradient(x)
            fd = np.empty_like(grad)
            for i in range(env.dimension):
                e = np.zeros(env.dimension)
                e[i] = step
                fd[i] = (env.exact_objective(x + e) - env.exact_objective(x - e)) / (2 * step)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)

    def test_batch_objective_matches_loop(self):
        env = self._env()
        pts = RngStream(1).generator().uniform(-2, 2, (5, 3))
        batch = env.exact_objective_at(pts)
        loop = [0.5 * p @ env.A @ p + env.b @ p for p in pts]
        assert np.allclose(batch, loop, rtol=1e-14)

    def test_minimizer_is_stationary_and_minimal(self):
        env = self._env()
        x_star = env.minimizer
        assert np.allclose(env.gradient(x_star), 0.0, atol=1e-10)
        assert env.exact_objective(x_star) == pytest.approx(env.minimum_value, rel=1e-12)
        gen = RngStream(2).generator()
        for _ in range(20):
            v = gen.standard_normal(3)
            assert env.exact_objective(x_star + 0.1 * v) >= env.minimum_value - 1e-12

    def test_singular_matrix_has_no_minimum(self):
        env = QuadraticEnv(np.diag([1.0, 0.0]), np.zeros(2), 0.0)
        assert env.minimum_value is None
        assert env.minimizer is None

    def test_constants(self):
        env = self._env(sigma=0.7)
        assert env.noise_scale == 0.7
        assert env.grad_smoothness == pytest.approx(
            np.linalg.eigvalsh(np.array(
                [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]
            )).max()
        )
        assert env.hess_smoothness == 0.0
        assert env.supports_gradient

    def test_isotropic(self):
        env = QuadraticEnv.isotropic(4, sigma=0.5, curvature=2.0)
        assert env.grad_smoothness == pytest.approx(2.0)
        assert env.exact_objective(np.ones(4)) == pytest.approx(4.0)

    def test_sampling_noise_law(self):
        env = self._env(sigma=0.8)
        x = np.array([1.0, 0.0, -1.0])
        values = env.sample_at(x, RngStream(3), replicates=40_000)[:, 0]
        f = env.exact_objective(x)
        assert values.mean() == pytest.approx(f, abs=5 * 0.8 / math.sqrt(40_000))
        assert values.std(ddof=1) == pytest.approx(0.8, rel=0.05)

    def test_zero_noise_sampling_is_exact(self):
        env = self._env(sigma=0.0)
        x = np.array([1.0, 0.0, -1.0])
        values = env.sample_at(x, RngStream(3), replicates=5)[:, 0]
        assert np.allclose(values, env.exact_objective(x), rtol=1e-14)


def _einsum_objective(env, pts):
    """The general form of QuadraticEnv.exact_objective_at, for any A.

    The linear term is one (1, d) @ (d, 1) product per point, the dot of
    ``b @ x``; a (k, d) @ (d,) matvec rounds a row by its position.
    """
    linear = np.array([env.b @ p for p in pts]).reshape(-1)
    return 0.5 * np.einsum("ki,ij,kj->k", pts, env.A, pts) + linear


def _quadratic_points(seed, k, d):
    """(k, d) points at mixed scales, with +0.0, -0.0 and partly zero rows."""
    gen = RngStream(seed).generator()
    pts = gen.standard_normal((k, d)) * gen.choice([1e-3, 1.0, 1e3], size=(k, 1))
    row = gen.integers(0, 6, k)
    pts[row == 0] = 0.0
    pts[row == 1] = -0.0
    pts[row == 2, ::2] = -0.0
    return pts


def _definite_matrix(gen, d, diagonal):
    """A positive definite (d, d) matrix, diagonal or with off-diagonal terms."""
    if diagonal:
        return np.diag(gen.uniform(0.1, 3.0, d))
    M = gen.standard_normal((d, d))
    A = (M @ M.T) / d + np.eye(d)
    return (A + A.T) / 2


_DIAGONAL_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(min_value=1e-3, max_value=1e3)
)


class TestQuadraticFastPath:
    @given(
        diag=st.lists(_DIAGONAL_ENTRY, min_size=1, max_size=64),
        chunks=st.floats(min_value=0.0, max_value=2.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_diagonal_form_is_bit_equal_to_the_einsum(self, diag, chunks, seed):
        d = len(diag)
        k = int(chunks * chunk_rows(d))
        pts = _quadratic_points(seed, k, d)
        b = RngStream(seed).child("b").generator().uniform(-2, 2, d)
        env = QuadraticEnv(np.diag(diag), b, sigma=0.0)
        assert env._diag is not None
        quad = np.einsum("ki,ij,kj->k", pts, env.A, pts)
        assert np.array_equal(_diagonal_form(pts, env._diag).view(np.int64),
                              quad.view(np.int64))
        assert np.array_equal(env.exact_objective_at(pts).view(np.int64),
                              _einsum_objective(env, pts).view(np.int64))

    @given(
        d=st.integers(min_value=2, max_value=64),
        k=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_non_diagonal_matrix_takes_the_per_row_form(self, d, k, seed):
        # the batched einsum is no reference here: its bits depend on k
        gen = RngStream(seed).generator()
        M = gen.standard_normal((d, d))
        A = M @ M.T / d
        A = (A + A.T) / 2 + np.eye(d)
        env = QuadraticEnv(A, gen.uniform(-1, 1, d), sigma=0.0)
        assert env._diag is None
        pts = _quadratic_points(seed, k, d)
        rows = np.array([0.5 * (p @ A @ p) + env.b @ p for p in pts]).reshape(-1)
        assert np.array_equal(env.exact_objective_at(pts).view(np.int64),
                              rows.view(np.int64))

    @given(
        d=st.integers(min_value=1, max_value=64),
        diagonal=st.booleans(),
        cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_calls_concatenate_to_the_whole_call(self, d, diagonal, cuts, seed):
        # every point's value is computed alone, so any consecutive split,
        # 1-row pieces included, gives the whole call's bits
        gen = RngStream(seed).child("split").generator()
        env = QuadraticEnv(_definite_matrix(gen, d, diagonal), gen.uniform(-1, 1, d) + 0.37,
                           sigma=0.0)
        assert (env._diag is not None) == (diagonal or d == 1)
        pts = _quadratic_points(seed, 60, d)
        bounds = [0, *sorted(cuts), 60]
        pieces = [env.exact_objective_at(pts[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        pieces += [env.exact_objective_at(pts[i:i + 1]) for i in range(3)]
        whole = env.exact_objective_at(pts)
        split = np.concatenate(pieces[:-3])
        assert np.array_equal(split.view(np.int64), whole.view(np.int64))
        assert np.array_equal(np.concatenate(pieces[-3:]).view(np.int64),
                              whole[:3].view(np.int64))

    @given(
        d=st.integers(min_value=1, max_value=64),
        diagonal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_point_objective_is_its_row_of_the_batch(self, d, diagonal, seed):
        # F(x) has one form: the single-point value and the minimum are the
        # bits of the sampler's mean, not of a separate x'Ax/2 + b'x
        gen = RngStream(seed).child("single").generator()
        env = QuadraticEnv(_definite_matrix(gen, d, diagonal), gen.uniform(-1, 1, d) + 0.37,
                           sigma=0.0)
        pts = _quadratic_points(seed, 20, d)
        whole = env.exact_objective_at(pts)
        single = np.array([env.exact_objective(p) for p in pts])
        assert np.array_equal(single.view(np.int64), whole.view(np.int64))
        f_star = np.array([env.minimum_value, env.exact_objective(env.minimizer)])
        assert f_star[0].view(np.int64) == f_star[1].view(np.int64)

    def test_negative_zero_entries_give_the_einsum_bits(self):
        # -0.0 off the diagonal still counts as diagonal; a -0.0 diagonal
        # entry is kept as +0.0, the sign the einsum's sum gives
        negative_zero = np.where(np.eye(2, dtype=bool), np.diag([-0.0, 2.0]), -0.0)
        env = QuadraticEnv(negative_zero, np.zeros(2), sigma=0.0)
        assert np.array_equal(env._diag.view(np.int64), np.array([0.0, 2.0]).view(np.int64))
        pts = np.array([[1.0, -2.0], [-0.0, 3.0], [0.0, 0.0]])
        for A in (negative_zero, -0.0 * np.eye(2)):
            env = QuadraticEnv(A, np.zeros(2), sigma=0.0)
            quad = np.einsum("ki,ij,kj->k", pts, env.A, pts)
            assert np.array_equal(_diagonal_form(pts, env._diag).view(np.int64),
                                  quad.view(np.int64))

    @given(
        d=st.integers(min_value=1, max_value=16),
        diagonal=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    @example(d=16, diagonal=True, seed=27996)  # inf, -inf and nan in one row
    def test_zero_linear_term_gives_the_product_bits(self, d, diagonal, seed):
        # with b = 0 (signed zeros) no b'x product is formed; huge points
        # overflow x'Ax and non-finite ones give NaN, always np.nan's bits:
        # the NaN a sum of two NaNs keeps varies with numpy's loop
        gen = RngStream(seed).child("zero-b").generator()
        b = np.where(gen.random(d) < 0.5, -0.0, 0.0)
        env = QuadraticEnv(_definite_matrix(gen, d, diagonal), b, sigma=0.0)
        pts = _quadratic_points(seed, 30, d)
        pts[gen.random(30) < 0.2] *= 1e300
        for value, row in zip((np.inf, -np.inf, np.nan), gen.integers(0, 30, 3)):
            pts[row, gen.integers(0, d)] = value

        def product_form(block):
            if env._diag is None:
                quad = np.matmul(np.matmul(block[:, None, :], env.A), block[:, :, None])[:, 0, 0]
            else:
                quad = _diagonal_form(block, env._diag)
            return 0.5 * quad + np.matmul(block[:, None, :], env.b[:, None])[:, 0, 0]

        with np.errstate(over="ignore", invalid="ignore"):
            expected = product_form(pts)
            expected[np.isnan(expected)] = np.nan
            batched = env.exact_objective_at(pts)
            alone = np.concatenate([env.exact_objective_at(p[None, :]) for p in pts])
        assert np.array_equal(batched.view(np.int64), expected.view(np.int64))
        assert np.array_equal(alone.view(np.int64), expected.view(np.int64))
        finite = np.isfinite(pts).all(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            single = np.array([env.exact_objective(p) for p in pts[finite]])
        assert np.array_equal(single.view(np.int64), expected[finite].view(np.int64))

    def test_only_an_exactly_diagonal_matrix_takes_the_fast_path(self):
        assert QuadraticEnv.isotropic(3, sigma=0.0, curvature=2.0)._diag is not None
        tiny = np.array([[1.0, 1e-300], [1e-300, 1.0]])
        assert QuadraticEnv(tiny, np.zeros(2), sigma=0.0)._diag is None


class TestPricingProbabilities:
    def test_simplex_invariant(self):
        env = PricingEnv.synthetic(0, n=8)
        gen = RngStream(4).generator()
        points = np.concatenate([
            gen.uniform(-5, 5, (1000, 8)),
            np.array([[1e4] * 8, [-1e4] * 8, [1e4, -1e4] + [0.0] * 6]),
        ])
        probs = env._probabilities_at(points)
        assert probs.shape == (points.shape[0], 9)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_softmax_where_finite(self):
        env = PricingEnv.synthetic(0, n=5)
        gen = RngStream(5).generator()
        for _ in range(50):
            x = gen.uniform(-3, 3, 5)
            z = np.exp(env.gamma * (env.theta - x))
            naive = np.concatenate([z, [env.opt_out_mass]])
            naive /= naive.sum()
            assert np.allclose(env.choice_probabilities(x), naive, atol=1e-12)

    def test_reference_price_point(self):
        # at x = theta every item weight is exp(0) = 1 and the opt-out
        # carries 0.1 n, so p = (1, ..., 1, 0.1 n) / (n + 0.1 n)
        env = PricingEnv(np.array([1.0, 1.0]), np.array([0.3, 0.3]))
        probs = env.choice_probabilities(np.array([1.0, 1.0]))
        assert np.allclose(probs, np.array([1.0, 1.0, 0.2]) / 2.2, atol=1e-14)

    def test_raising_a_price_lowers_its_share(self):
        env = PricingEnv.synthetic(1, n=4)
        x = env.theta.copy()
        p0 = env.choice_probabilities(x)[0]
        x[0] += 0.5
        assert env.choice_probabilities(x)[0] < p0


class TestRestockCost:
    def test_piecewise_slopes(self):
        # unit slopes: 2w below the low breakpoint, w between, 3w above
        env = PricingEnv(np.array([2.0]), np.array([0.25]), buyers=120)
        w = float(env.slope[0])
        lo, hi = float(env.lower[0]), float(env.upper[0])
        assert (lo, hi) == (60.0, 180.0)
        counts = np.arange(0, 301, dtype=float)
        cost = np.array([float(env.restock_cost(np.array([k]))) for k in counts])
        diffs = np.diff(cost)
        assert np.allclose(diffs[:60], 2 * w)
        assert np.allclose(diffs[60:180], w)
        assert np.allclose(diffs[180:], 3 * w)

    def test_expected_cost_matches_enumeration(self):
        env = PricingEnv(np.array([1.0, 2.0]), np.array([0.4, 0.3]), buyers=6)
        p = np.array([0.35, 0.2])
        # independent oracle: enumerate the binomial law per item
        expected = 0.0
        for i in range(2):
            for k in range(7):
                pmf = math.comb(6, k) * p[i] ** k * (1 - p[i]) ** (6 - k)
                counts = np.zeros(2)
                counts[i] = k
                per_item = (
                    2 * env.slope[i] * min(k, env.lower[i])
                    + env.slope[i] * min(max(k - env.lower[i], 0), env.upper[i] - env.lower[i])
                    + 3 * env.slope[i] * max(k - env.upper[i], 0)
                )
                expected += pmf * per_item
        assert env.expected_restock_cost(p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("buyers", [1, 7, 120])
    def test_binomial_pmf_matches_scipy(self, buyers):
        stats = pytest.importorskip("scipy.stats")
        env = PricingEnv.synthetic(0, n=4, buyers=buyers)
        p = np.array([0.0, 1e-300, 0.3, 1.0])
        ours = env._binomial_pmf(p)
        reference = stats.binom.pmf(np.arange(buyers + 1)[None, :], buyers, p[:, None])
        assert np.all(np.isfinite(ours))
        assert np.array_equal(ours == 0.0, reference == 0.0)
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=0.0)


def _pricing_draws_per_point(env, points, gen, replicates):
    """The one-point-at-a-time form of PricingEnv._draw_at."""
    probs = env._probabilities_at(points)
    out = np.empty((replicates, points.shape[0]))
    for j in range(points.shape[0]):
        demand = gen.multinomial(env.buyers, probs[j], size=replicates)[:, :-1]
        out[:, j] = -(demand @ points[j]) + env.restock_cost(demand)
    return out


def _presented_per_point(x, features):
    """Best responses of the rows of ``features`` to one classifier x.

    The bit reference of ``_respond``: one (m, f) @ (f,) and one
    ``np.linalg.norm`` per classifier, as ``best_response`` decides each
    agent.  (A loop of ``best_response`` itself rounds each score as an
    (f,) @ (f,) product instead, which can differ in the last bit.)
    """
    w = x[:-1]
    scores = features @ w + x[-1]
    negative = scores < 0.0
    if not np.any(negative):
        return features
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return features  # no move changes the score: everyone stays put
    gaps = -scores / norm
    move = negative & (gaps * gaps < 2.0)
    out = features.copy()
    out[move] += gaps[move, None] * (w / norm)
    return out


def _strategic_draws_per_point(env, points, gen, replicates):
    """The one-point-at-a-time form of StrategicEnv._draw_at."""
    out = np.empty((replicates, points.shape[0]))
    for j in range(points.shape[0]):
        idx = gen.integers(0, env.population_size, size=replicates)
        presented = _presented_per_point(points[j], env.features[idx])
        scores = presented @ points[j][:-1] + points[j][-1]
        out[:, j] = _logistic_loss(scores, env.labels[idx])
    return out


@given(
    n=st.integers(min_value=1, max_value=9),
    buyers=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_the_item_cost_table_is_restock_cost_at_every_count(n, buyers, seed):
    # a sample looks its counts up in the table; every count 0..buyers of
    # every item, alone, and a drawn demand sum to restock_cost's bits
    gen = RngStream(seed).child("restock").generator()
    env = PricingEnv(gen.uniform(0.05, 5.0, n), gen.uniform(0.0, 1.0, n), buyers=buyers)
    alone = np.zeros((n, buyers + 1, n), np.int64)
    alone[np.arange(n), :, np.arange(n)] = np.arange(buyers + 1)
    assert np.array_equal(_bits(env._item_costs), _bits(env.restock_cost(alone)))
    demand = gen.integers(0, buyers + 1, size=(4, 3, n + 1))[..., :-1]
    assert np.array_equal(_bits(env._item_costs[env._items, demand].sum(axis=-1)),
                          _bits(env.restock_cost(demand)))


@pytest.mark.parametrize("k", [2, 5, 8, 16, 200])
@pytest.mark.parametrize("replicates", [1, 3, 7])
def test_vectorized_pricing_draws_match_per_point_loop(k, replicates):
    env = PricingEnv.synthetic(3, n=8, buyers=100)
    points = RngStream(k).generator().uniform(0.3, 1.5, (k, 8))
    got = env._draw_at(points, [RngStream(5)], replicates)
    expected = _pricing_draws_per_point(env, points, RngStream(5).generator(), replicates)
    assert got.flags.c_contiguous
    assert np.array_equal(got, expected)


def _reference_probabilities(env, points):
    """The pricing softmax as one concatenate and one division."""
    z = env.gamma * (env.theta - points)
    shift = np.maximum(z.max(axis=1), 0.0)
    expz = np.exp(z - shift[:, None])
    opt_out = env.opt_out_mass * np.exp(-shift)
    denom = opt_out + expz.sum(axis=1)
    return np.concatenate([expz, opt_out[:, None]], axis=1) / denom[:, None]


def _reference_restock_cost(env, counts):
    """The restocking cost on a float copy of the counts, without in-place steps."""
    counts = np.asarray(counts, dtype=np.float64)
    lower, upper, slope = env.lower, env.upper, env.slope
    low = np.minimum(counts, lower)
    mid = np.minimum(np.maximum(counts - lower, 0.0), upper - lower)
    high = np.maximum(counts - upper, 0.0)
    return (2.0 * slope * low + slope * mid + 3.0 * slope * high).sum(axis=-1)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@given(
    per_block=st.integers(min_value=1, max_value=3 * PER_POINT_MULTINOMIAL_MAX),
    replicates=st.sampled_from([1, 2, 50]),
    labels=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
    n=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pricing_draws_are_the_per_point_reference(per_block, replicates, labels, n, seed):
    # blocks below and above the per-point switch draw, bit for bit, what one
    # multinomial call of size=replicates per point draws; a repeated stream
    # starts over for each of its blocks
    env = PricingEnv.synthetic(seed % 7, n=n, buyers=1 + seed % 150)
    gen = RngStream(seed).child("points").generator()
    points = gen.uniform(-1.0, 3.0, (per_block * len(labels), n))
    streams = [RngStream(seed).child("block", label) for label in labels]
    got = env._draw_at(points, streams, replicates)
    expected = np.concatenate([
        _pricing_draws_per_point(env, points[g * per_block:(g + 1) * per_block],
                                 stream.generator(), replicates)
        for g, stream in enumerate(streams)
    ], axis=1)
    assert np.array_equal(_bits(got), _bits(expected))


@given(
    k=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=12),
    scale=st.sampled_from([1.0, 30.0, 1e4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pricing_softmax_and_restock_keep_their_bits(k, n, scale, seed):
    # the in-place softmax and restocking cost against their whole-array
    # forms, for one point and for a batch
    env = PricingEnv.synthetic(seed % 5, n=n, buyers=1 + seed % 200)
    gen = RngStream(seed).child("pricing").generator()
    points = gen.uniform(-scale, scale, (k, n))
    assert np.array_equal(_bits(env._probabilities_at(points)),
                          _bits(_reference_probabilities(env, points)))
    assert np.array_equal(_bits(env.choice_probabilities(points[0])),
                          _bits(_reference_probabilities(env, points[:1])[0]))
    # the item columns of drawn counts, a strided view as the draws pass it
    demand = gen.integers(0, 2 * env.buyers, size=(k, 3, n + 1))[..., :-1]
    for counts in (demand, demand.copy(), demand[0, 0]):
        assert np.array_equal(_bits(env.restock_cost(counts)),
                              _bits(_reference_restock_cost(env, counts)))


@pytest.mark.parametrize("k", [2, 5, 8, 16, 200])
@pytest.mark.parametrize("replicates", [1, 3, 7])
def test_vectorized_strategic_draws_match_per_point_loop(k, replicates):
    env = StrategicEnv.synthetic(2, count=120)
    points = RngStream(k).generator().uniform(-1.0, 1.5, (k, 12))
    got = env._draw_at(points, [RngStream(9)], replicates)
    expected = _strategic_draws_per_point(env, points, RngStream(9).generator(), replicates)
    assert np.array_equal(got, expected)



def test_vectorized_strategic_draws_stay_put_at_zero_weights():
    env = StrategicEnv.synthetic(2, count=120)
    points = np.ones((3, 12))
    points[1, :-1] = 0.0
    # zero weights that reject everyone (no move helps) or accept everyone
    # (none is needed): every agent presents its own features
    for intercept in (-1.0, 1.0):
        points[1, -1] = intercept
        got = env._draw_at(points, [RngStream(9)], 4)
        expected = _strategic_draws_per_point(env, points, RngStream(9).generator(), 4)
        assert np.array_equal(got, expected)
        gen = RngStream(9).generator()
        idx = [gen.integers(0, env.population_size, size=4) for _ in range(3)][1]
        stay = _logistic_loss(np.full(4, intercept), env.labels[idx])
        assert np.array_equal(got[:, 1], stay)


def test_vectorized_strategic_draws_match_when_agents_move():
    env = StrategicEnv.synthetic(4, count=200)
    w = np.full(11, 0.3)
    points = np.array([np.append(w, c) for c in (-0.8, -0.2, 0.4, -1.5)])
    gen = RngStream(1).generator()
    chosen = gen.integers(0, env.population_size, size=(4, 16))
    presented = [_presented_per_point(p, env.features[idx]) for p, idx in zip(points, chosen)]
    assert any(not np.array_equal(a, env.features[idx]) for a, idx in zip(presented, chosen))
    got = env._draw_at(points, [RngStream(1)], 16)
    expected = _strategic_draws_per_point(env, points, RngStream(1).generator(), 16)
    assert np.array_equal(got, expected)


_GROUPED_ENVS = {
    "quadratic": lambda: QuadraticEnv.isotropic(12, sigma=0.7),
    "pricing": lambda: PricingEnv.synthetic(3, n=12, buyers=50),
    "strategic": lambda: StrategicEnv.synthetic(2, count=120),
}


@pytest.mark.parametrize("kind", sorted(_GROUPED_ENVS))
@pytest.mark.parametrize("labels", [[0], [0, 1, 2], [0, 0, 1, 0], [3, 1, 3, 3, 2, 1]])
@pytest.mark.parametrize("replicates", [1, 5])
def test_grouped_draws_equal_separate_calls(kind, labels, replicates):
    # block g of a grouped call is drawn as a call with that block alone;
    # repeated streams start over for each of their blocks
    env = _GROUPED_ENVS[kind]()
    per_block = 3
    points = RngStream(len(labels)).generator().uniform(0.2, 1.2, (per_block * len(labels), 12))
    streams = [RngStream(8).child("block", label) for label in labels]
    got = env.sample_at(points, streams, replicates)
    assert env.budget.consumed == points.shape[0] * replicates
    expected = np.concatenate([
        env.sample_at(points[g * per_block:(g + 1) * per_block], stream, replicates)
        for g, stream in enumerate(streams)
    ], axis=1)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("kind", sorted(_GROUPED_ENVS))
def test_grouped_draws_equal_fresh_generators_per_block(kind):
    # the blocks of one call share one bit generator, reset to each block's
    # stream: every block draws what a fresh stream.generator() draws, which
    # is what a one-stream _draw_at call builds
    env = _GROUPED_ENVS[kind]()
    per_block, replicates = 4, 3
    top = 2**64 - 1
    streams = [RngStream(top, 5), RngStream(8).child("a"), RngStream(top, 5),
               RngStream(0), RngStream(8).child("a"), RngStream(3, 2**63)]
    points = RngStream(1).generator().uniform(0.2, 1.2, (per_block * len(streams), 12))
    got = env.sample_at(points, streams, replicates)
    expected = np.concatenate([
        env._draw_at(points[g * per_block:(g + 1) * per_block], [stream], replicates)
        for g, stream in enumerate(streams)
    ], axis=1)
    assert np.array_equal(got, expected)


def test_grouped_draws_charge_once_and_atomically():
    env = QuadraticEnv.isotropic(2, sigma=1.0, budget=23)
    streams = [RngStream(0), RngStream(1), RngStream(0)]
    env.sample_at(np.zeros((6, 2)), streams, replicates=2)
    assert env.budget.consumed == 12
    with pytest.raises(BudgetExhaustedError):
        env.sample_at(np.zeros((6, 2)), streams, replicates=2)
    assert env.budget.consumed == 12
    with pytest.raises(ValueError, match="equal blocks"):
        env.sample_at(np.zeros((4, 2)), streams)
    with pytest.raises(ValueError, match="equal blocks"):
        env.sample_at(np.zeros((4, 2)), [])
    assert env.budget.consumed == 12

class TestPricingObjective:
    def _unit_share_env(self):
        # theta such that the single item's share at x = 1 is exactly 1/2:
        # gamma (theta - 1) = log(0.1) makes the item weight equal the
        # opt-out mass 0.1
        g = 2.0 * math.pi / math.sqrt(6.0)
        theta = g / (g - math.log(0.1))
        rho = 0.5 / theta  # unit slope w = rho * theta = 0.5
        return PricingEnv(np.array([theta]), np.array([rho]), buyers=2)

    def test_share_construction(self):
        env = self._unit_share_env()
        assert env.choice_probabilities(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-12)

    def test_two_buyer_toy_value(self):
        # brute force over the three demand outcomes (w = 0.5, l = 1, u = 3):
        #   cost(0) = 0, cost(1) = 2w = 1, cost(2) = 2w + w = 1.5
        #   E[cost] = 1/4 * 0 + 1/2 * 1 + 1/4 * 1.5 = 0.875
        #   revenue = buyers * p * x = 2 * 1/2 * 1 = 1
        env = self._unit_share_env()
        assert float(env.lower[0]) == 1.0 and float(env.upper[0]) == 3.0
        cost = [float(env.restock_cost(np.array([k]))) for k in (0.0, 1.0, 2.0)]
        assert cost == pytest.approx([0.0, 1.0, 1.5])
        brute = -1.0 + (0.25 * cost[0] + 0.5 * cost[1] + 0.25 * cost[2])
        assert brute == pytest.approx(-0.125)
        assert env.exact_objective(np.array([1.0])) == pytest.approx(-0.125, abs=1e-12)

    def test_exact_objective_matches_brute_force_enumeration(self):
        env = PricingEnv(np.array([1.0, 1.5]), np.array([0.3, 0.45]), buyers=5)
        x = np.array([0.8, 1.1])
        p = env.choice_probabilities(x)[:2]
        exact = -5 * float(p @ x) + sum(
            sum(
                math.comb(5, k) * p[i] ** k * (1 - p[i]) ** (5 - k)
                * float(env.restock_cost(np.eye(2)[i] * k))
                for k in range(6)
            )
            for i in range(2)
        )
        assert env.exact_objective(x) == pytest.approx(exact, rel=1e-12)

    def test_sampling_mean_demand(self):
        env = PricingEnv.synthetic(2, n=3, buyers=60)
        x = env.theta * 0.9
        p = env.choice_probabilities(x)
        values = env.sample_at(x, RngStream(6), replicates=30_000)[:, 0]
        se = values.std(ddof=1) / math.sqrt(30_000)
        assert values.mean() == pytest.approx(env.exact_objective(x), abs=5 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            PricingEnv(np.array([0.0]), np.array([0.3]))
        with pytest.raises(ValueError):
            PricingEnv(np.array([1.0]), np.array([-0.1]))
        with pytest.raises(ValueError):
            PricingEnv(np.array([1.0]), np.array([0.3]), buyers=0)

    @pytest.mark.parametrize("buyers", [10.5, 10.0, True])
    def test_non_integral_buyers_are_rejected_by_name(self, buyers):
        # 10.5 buyers used to draw from a market of 10 while the restock
        # thresholds came from 10.5, so samples and exact objective disagreed
        with pytest.raises(ValueError, match="buyers"):
            PricingEnv(np.ones(3), np.full(3, 0.3), buyers=buyers)

    def test_numpy_integer_buyers_set_the_thresholds(self):
        env = PricingEnv(np.ones(3), np.full(3, 0.3), buyers=np.int64(10))
        assert type(env.buyers) is int and env.buyers == 10
        assert env.lower[0] == 0.5 * 10 / 3 and env.upper[0] == 1.5 * 10 / 3


class TestSyntheticPrices:
    def test_deterministic(self):
        a = make_synthetic_prices(7, 20)
        b = make_synthetic_prices(7, 20)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_ranges(self):
        theta, rho = make_synthetic_prices(0, 500)
        assert np.all((theta >= 0.5) & (theta <= 2.0))
        assert np.all((rho >= 0.25) & (rho <= 0.5))

    def test_round_trip(self, tmp_path):
        theta, rho = make_synthetic_prices(3, 12)
        path = tmp_path / "prices.csv"
        save_prices(path, theta, rho)
        t2, r2 = load_prices(path)
        assert np.array_equal(theta, t2)
        assert np.array_equal(rho, r2)


class TestBestResponse:
    def test_projection_example(self):
        # weights e_1, intercept -1, individual at the origin: projecting
        # onto the boundary costs 1 < 2, landing exactly on e_1
        x = np.zeros(12)
        x[0] = 1.0
        x[-1] = -1.0
        moved = best_response(x, np.zeros(11))
        assert np.allclose(moved, np.eye(11)[0], atol=1e-12)

    def test_accepted_stays(self):
        x = np.zeros(12)
        x[0] = 1.0
        xi = np.full(11, 0.5)
        assert np.array_equal(best_response(x, xi), xi)

    def test_far_side_stays(self):
        # boundary distance 2 costs 4 > 2, so not worth moving
        x = np.zeros(12)
        x[0] = 1.0
        x[-1] = -2.0
        xi = np.zeros(11)
        assert np.array_equal(best_response(x, xi), xi)

    def test_exact_tie_stays(self):
        x = np.zeros(12)
        x[0] = 1.0
        x[-1] = -math.sqrt(2.0)
        xi = np.zeros(11)
        assert np.array_equal(best_response(x, xi), xi)

    def test_zero_weights_rejecting_everyone_stay_put(self):
        x = np.zeros(12)
        x[-1] = -1.0  # no move can change the score
        for xi in (np.zeros(11), np.full(11, 0.3)):
            assert np.array_equal(best_response(x, xi), xi)

    def test_zero_weights_accepting_everyone(self):
        x = np.zeros(12)  # intercept 0 >= 0: everyone is already accepted
        xi = np.full(11, 0.3)
        assert np.array_equal(best_response(x, xi), xi)

    def test_beats_random_alternatives(self):
        # utility = 2 * accepted - squared move; the closed form must beat
        # any random candidate move
        gen = RngStream(8).generator()
        for _ in range(50):
            x = gen.standard_normal(12)
            xi = gen.standard_normal(11)
            chosen = best_response(x, xi)

            def utility(z):
                # the acceptance region is closed; give the boundary a hair
                # of slack so the exact projection is not lost to rounding
                return 2.0 * (x[:11] @ z + x[-1] >= -1e-9) - float((z - xi) @ (z - xi))

            best_u = utility(chosen)
            for _ in range(100):
                z = xi + gen.standard_normal(11) * gen.uniform(0, 2)
                assert best_u >= utility(z) - 1e-9

    def test_vectorized_matches_scalar(self):
        gen = RngStream(9).generator()
        x = gen.standard_normal(12)
        features = gen.standard_normal((40, 11))
        batch = features[None].copy()
        _respond(batch, x[None])  # moves the agents in place
        for i in range(40):
            assert np.allclose(batch[0, i], best_response(x, features[i]), atol=1e-12)


class TestStrategicEnv:
    def test_zero_classifier_loss(self):
        env = StrategicEnv.synthetic(0, count=100)
        # zero scores leave everyone accepted in place: loss is log 2 exactly
        assert env.exact_objective(np.zeros(12)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_logistic_loss_of_one_score(self):
        # score 2: log-loss log(1 + e^-2) for a positive, log(1 + e^2) negative
        got = _logistic_loss(np.array([2.0, 2.0]), np.array([1.0, 0.0]))
        assert got[0] == pytest.approx(math.log1p(math.exp(-2.0)))
        assert got[1] == pytest.approx(math.log1p(math.exp(2.0)))

    def test_objective_jumps_at_the_manipulation_threshold(self):
        # a single individual sits just inside/outside the worthwhile-move
        # radius sqrt(2); nudging the intercept across it jumps the loss
        features = np.zeros((1, 11))
        labels = np.array([1.0])
        env = StrategicEnv(features, labels)
        x = np.zeros(12)
        x[0] = 1.0
        eps = 1e-6
        x_inside = x.copy()
        x_inside[-1] = -math.sqrt(2.0) + eps
        x_outside = x.copy()
        x_outside[-1] = -math.sqrt(2.0) - eps
        inside = env.exact_objective(x_inside)   # agent moves to the boundary
        outside = env.exact_objective(x_outside)  # agent gives up
        assert inside == pytest.approx(math.log(2.0), abs=1e-5)
        assert outside == pytest.approx(math.log1p(math.exp(math.sqrt(2.0))), abs=1e-5)
        assert outside - inside > 0.5

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
        zero_weights=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_objective_is_the_per_agent_best_response_loss(self, seed, scale, zero_weights):
        env = StrategicEnv.synthetic(seed % 97, count=60)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(12) * scale
        x[-1] = gen.standard_normal()
        if zero_weights:
            x[:-1] = 0.0
        presented = np.array([best_response(x, xi) for xi in env.features])
        got = env.exact_objective(x)
        # a loop of (f,) @ (f,) scores rounds differently from the matvec
        loop = float(_logistic_loss(presented @ x[:-1] + x[-1], env.labels).mean())
        assert got == pytest.approx(loop, rel=1e-12, abs=0.0)
        reference = _presented_per_point(x, env.features)
        scores = reference @ x[:-1] + x[-1]
        expected = float(_logistic_loss(scores, env.labels).mean())
        assert np.array([got]).view(np.int64) == np.array([expected]).view(np.int64)

    def test_sampling_mean_matches_population_objective(self):
        env = StrategicEnv.synthetic(1, count=50)
        x = RngStream(10).generator().standard_normal(12) * 0.5
        values = env.sample_at(x, RngStream(11), replicates=30_000)[:, 0]
        se = values.std(ddof=1) / math.sqrt(30_000)
        assert values.mean() == pytest.approx(env.exact_objective(x), abs=5 * se)

    def test_validation(self):
        with pytest.raises(ValueError):
            StrategicEnv(np.zeros((2, 3)), np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            StrategicEnv(np.zeros((2, 3)), np.array([0.0]))
        with pytest.raises(ValueError):
            StrategicEnv(np.zeros((0, 3)), np.zeros(0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                StrategicEnv(np.array([[0.0, bad], [1.0, 2.0]]), np.array([0.0, 1.0]))

    def test_dimension_is_features_plus_intercept(self):
        env = StrategicEnv.synthetic(0, count=10, d_feat=7)
        assert env.dimension == 8
        assert env.population_size == 10


def _auc(scores, labels):
    # Mann-Whitney rank statistic
    order = np.argsort(scores, kind="stable")
    ranks = np.empty_like(order, dtype=float)
    ranks[order] = np.arange(1, len(scores) + 1)
    pos = labels == 1.0
    n1, n0 = pos.sum(), (~pos).sum()
    return (ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)


class TestSyntheticPopulation:
    def test_deterministic(self):
        a = make_synthetic_population(5, 100)
        b = make_synthetic_population(5, 100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_balanced_labels(self):
        _, labels = make_synthetic_population(0, 1000)
        assert labels.sum() == 500

    def test_zero_separation_is_uninformative(self):
        features, labels = make_synthetic_population(0, 2000, separation=0.0)
        axis = np.ones(11) / math.sqrt(11)
        auc = _auc(features @ axis, labels)
        # AUC stderr at n = 2000 is about 0.013
        assert abs(auc - 0.5) < 0.065

    def test_large_separation_is_informative(self):
        features, labels = make_synthetic_population(0, 2000, separation=3.0)
        axis = np.ones(11) / math.sqrt(11)
        assert _auc(features @ axis, labels) > 0.9

    def test_round_trip(self, tmp_path):
        features, labels = make_synthetic_population(2, 30, d_feat=4)
        save_population(tmp_path / "pop.csv", features, labels)
        f2, l2 = load_population(tmp_path / "pop.csv")
        assert np.array_equal(features, f2)
        assert np.array_equal(labels, l2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_simplex_for_any_seed(seed):
    env = PricingEnv.synthetic(seed, n=3)
    x = RngStream(seed).child("probe").generator().uniform(-10, 10, 3)
    probs = env.choice_probabilities(x)
    assert np.all(probs >= 0) and abs(probs.sum() - 1.0) < 1e-12
