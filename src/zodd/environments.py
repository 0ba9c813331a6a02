"""Concrete decision-dependent sampling environments.

Each environment is a :class:`~zodd.core.SampleOracle` whose distribution
depends on the decision vector x: drawing a sample means first letting the
world react to x and then evaluating the decision loss on the reaction.
Three environments are provided:

* :class:`QuadraticEnv` - a calibration environment with analytic ground
  truth.  A sample at x is Normal(F(x), sigma^2) for a known quadratic F,
  so the objective, its gradient, the smoothness constant, and the noise
  level are all exact.
* :class:`PricingEnv` - a market of buyers choosing among priced items via
  a softmax choice rule; raising a price shifts demand away from the item.
  Samples are multinomial demand realizations; the exact expected objective
  is available in closed form through the binomial marginals.
* :class:`StrategicEnv` - logistic-loss classification where each sampled
  individual first manipulates its features against the published
  classifier when the payoff from being accepted exceeds the quadratic
  manipulation cost.  The reaction map is discontinuous in x, so only
  function values, never gradients, are trustworthy here.

Populations and price tables serialize to plain CSV (header row, one record
per line) so synthetic data can be swapped for real data.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

import numpy as np

from .core import (
    RngStream,
    SampleOracle,
    Vector,
    as_count,
    as_point,
    draw_blocks,
    point_chunks,
    row_norms,
)


class UnsupportedEnvironmentError(RuntimeError):
    """The environment does not expose the requested analytic quantity."""


class Environment(SampleOracle):
    """Sampling oracle with optional analytic ground truth.

    ``supports_gradient`` advertises whether :meth:`gradient` is
    implemented; the metadata properties return None when the corresponding
    constant is unknown for the environment.
    """

    supports_gradient: bool = False

    @property
    def noise_scale(self) -> float | None:
        """Upper bound on the per-sample standard deviation, if known."""
        return None

    @property
    def grad_smoothness(self) -> float | None:
        """Lipschitz constant of the objective gradient, if known."""
        return None

    @property
    def hess_smoothness(self) -> float | None:
        """Lipschitz constant of the objective Hessian, if known."""
        return None

    @property
    def minimum_value(self) -> float | None:
        """Minimum of the expected objective, if known."""
        return None

    def exact_objective(self, x) -> float:
        raise UnsupportedEnvironmentError(
            f"{type(self).__name__} has no exact objective"
        )

    def gradient(self, x) -> Vector:
        raise UnsupportedEnvironmentError(
            f"{type(self).__name__} has no analytic gradient"
        )


class QuadraticEnv(Environment):
    """Samples are Normal(F(x), sigma^2) for F(x) = x'Ax/2 + b'x.

    The distribution shifts with the decision only through its mean, which
    makes every assumption verifiable: the gradient smoothness constant is
    the largest eigenvalue of A, the Hessian is constant (so its Lipschitz
    constant is zero), and the sampling noise is exactly sigma.

    When A is exactly diagonal (every built environment's A = cI is), the
    quadratic form x'Ax takes an O(k d) path, bit-equal on finite points to
    ``einsum("ki,ij,kj->k")``; otherwise it is a stacked (1, d) @ (d, d) @
    (d, 1) product, the bits of ``x @ A @ x``.  (The einsum itself is not
    used: its bits depend on how many rows share the call.)  Each point's
    value is computed alone (the linear term as a stacked (1, d) @ (d, 1)
    product), so it does not depend on which points share the call, and the
    points go by :func:`point_chunks`.  When b = 0 (every built environment's
    b is) the linear term of a finite point is a sum of signed zeros from a
    +0.0 start, so it is +0.0 and no product is formed; a block with a
    non-finite x'Ax keeps the product and its NaNs.  F(x) has this one form:
    :meth:`exact_objective` and :attr:`minimum_value` evaluate it as a
    one-row call, so they carry the same bits as the mean a sample at x is
    drawn around.
    """

    supports_gradient = True

    def __init__(self, A, b, sigma: float, budget: int | None = None):
        super().__init__(budget)
        A = np.asarray(A, dtype=np.float64)
        b = as_point(b)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
            raise ValueError("A must be square and match the length of b")
        if b.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.allclose(A, A.T, atol=1e-12):
            raise ValueError("A must be symmetric")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        eigvals = np.linalg.eigvalsh(A)
        if eigvals[0] < -1e-12:
            raise ValueError("A must be positive semidefinite")
        self.A = A
        self.b = b
        self.sigma = float(sigma)
        self._zero_b = not b.any()
        # + 0.0 turns a -0.0 entry into +0.0: the einsum's sum never gives -0.0
        diag = np.diag(A) + 0.0
        self._diag = diag if np.array_equal(A, np.diag(diag)) else None
        self._eig_max = float(eigvals[-1])
        self._eig_min = float(eigvals[0])
        if self._eig_min > 1e-12:
            self._x_star = np.linalg.solve(A, -b)
            self._f_star = self.exact_objective(self._x_star)
        else:
            self._x_star = None
            self._f_star = None

    @classmethod
    def isotropic(
        cls, d: int, sigma: float, curvature: float = 1.0, budget: int | None = None
    ) -> "QuadraticEnv":
        return cls(curvature * np.eye(d), np.zeros(d), sigma, budget)

    @property
    def dimension(self) -> int:
        return self.b.shape[0]

    @property
    def noise_scale(self) -> float:
        return self.sigma

    @property
    def grad_smoothness(self) -> float:
        return self._eig_max

    @property
    def hess_smoothness(self) -> float:
        return 0.0

    @property
    def minimum_value(self) -> float | None:
        return self._f_star

    @property
    def minimizer(self) -> Vector | None:
        return None if self._x_star is None else self._x_star.copy()

    def exact_objective(self, x) -> float:
        return float(self.exact_objective_at(as_point(x, self.dimension)[None, :])[0])

    def exact_objective_at(self, points) -> Vector:
        values = np.empty(points.shape[0])
        for lo, hi, block in point_chunks(points):
            values[lo:hi] = self._objective_block(block)
        return values

    def _objective_block(self, pts) -> Vector:
        if self._diag is None:
            quad = np.matmul(np.matmul(pts[:, None, :], self.A), pts[:, :, None])[:, 0, 0]
        else:
            quad = _diagonal_form(pts, self._diag)
        half = 0.5 * quad
        # x'Ax is finite only at finite points, where b'x = +0.0 when b = 0
        finite = np.isfinite(half).all()
        if self._zero_b and finite:
            return half + 0.0
        values = half + np.matmul(pts[:, None, :], self.b[:, None])[:, 0, 0]
        if not finite:
            # which NaN a sum of two NaNs keeps varies with the loop numpy picks
            # for the batch's length: one NaN keeps a point's bits batch-free
            values[np.isnan(values)] = np.nan
        return values

    def gradient(self, x) -> Vector:
        x = as_point(x, self.dimension)
        return self.A @ x + self.b

    def _draw_at(self, points, streams, replicates):
        k = points.shape[0]
        if self.sigma == 0.0:
            return np.broadcast_to(self.exact_objective_at(points), (replicates, k)).copy()
        # the noise first, while a pending direction draw fills its chunks
        noise = draw_blocks(
            streams, k, lambda gen, lo, hi: gen.standard_normal((replicates, hi - lo)), axis=1
        )
        # the bits of mean + sigma * noise, without a temporary
        noise *= self.sigma
        noise += self.exact_objective_at(points)
        return noise


def _diagonal_form(pts, diag) -> Vector:
    """x'Ax for every row x of ``pts`` when A = diag(``diag``).

    Each row sums (x_i a_i) x_i in order i = 0..d-1, which is what
    ``einsum("ki,ij,kj->k")`` adds up once its zero off-diagonal terms drop
    out; ``sum(axis=1)`` and a two-operand einsum round differently.
    """
    sq = pts * diag
    sq *= pts
    out = sq[:, 0].copy()
    for i in range(1, sq.shape[1]):
        out += sq[:, i]
    return out


# ---------------------------------------------------------------------------
# Pricing environment
# ---------------------------------------------------------------------------


def make_synthetic_prices(seed: int, n: int) -> tuple[Vector, Vector]:
    """Reference prices theta ~ U[0.5, 2] and margin rates rho ~ U[0.25, 0.5]."""
    if n < 1:
        raise ValueError("need at least one item")
    gen = RngStream(seed).child("prices").generator()
    theta = gen.uniform(0.5, 2.0, size=n)
    rho = gen.uniform(0.25, 0.5, size=n)
    return theta, rho


def save_prices(path, theta, rho) -> None:
    theta = as_point(theta)
    rho = as_point(rho, theta.shape[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "rho"])
        for t, r in zip(theta, rho):
            writer.writerow([repr(float(t)), repr(float(r))])


def load_prices(path) -> tuple[Vector, Vector]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(reader.fieldnames) != {"theta", "rho"}:
            raise ValueError(f"{path}: expected columns theta,rho")
        try:
            rows = [(float(row["theta"]), float(row["rho"]), reader.line_num) for row in reader]
        except (TypeError, ValueError) as exc:
            # a short row reads its missing field as None
            raise ValueError(f"{path}: line {reader.line_num}: expected numbers theta,rho") from exc
    if not rows:
        raise ValueError(f"{path}: no price records")
    for theta, rho, line in rows:
        if not (math.isfinite(theta) and math.isfinite(rho)):
            raise ValueError(f"{path}: line {line}: expected finite numbers theta,rho")
    theta = np.array([r[0] for r in rows])
    rho = np.array([r[1] for r in rows])
    return theta, rho


class PricingEnv(Environment):
    """Revenue-minus-restocking objective under softmax buyer choice.

    Each of ``buyers`` buyers independently picks one of ``n`` items, or
    opts out, with probabilities

        p_i(x) = exp(g_i (theta_i - x_i)) / (a0 + sum_j exp(g_j (theta_j - x_j)))

    where g_i = 2 pi / (sqrt(6) theta_i) and a0 = 0.1 n.  The demand vector
    xi counts purchases per item.  A sample of the objective is
    f(x, xi) = -sum_i x_i xi_i + sum_i c_i(xi_i), where the restocking cost
    c_i is piecewise linear with slope 2 w_i up to l_i, slope w_i between
    l_i and u_i, and slope 3 w_i above u_i (w_i = rho_i theta_i,
    l_i = 0.5 buyers / n, u_i = 1.5 buyers / n): both scarce and excess
    demand restock at a premium.

    The exact expected objective sums the binomial marginals of the demand
    counts, giving an independent closed form to hold samplers against.

    A sample's demand is drawn point-major, as one ``multinomial`` call of
    ``size=replicates`` per point draws it: a block of at most
    :data:`PER_POINT_MULTINOMIAL_MAX` points makes exactly those calls, a
    larger block one broadcast call, which draws the same counts.  The
    softmax and the restocking cost run in place on preallocated arrays,
    with the operands and order of operations of their textbook forms, so
    they carry the same bits.  A count is at most ``buyers``, so each item's
    cost of every count is priced once, in an (n, buyers + 1) table that a
    sample looks its counts up in and :meth:`expected_restock_cost` weighs.
    """

    def __init__(self, theta, rho, buyers: int = 120, budget: int | None = None):
        super().__init__(budget)
        theta = as_point(theta)
        rho = as_point(rho, theta.shape[0])
        if np.any(theta <= 0):
            raise ValueError("reference prices must be positive")
        if np.any(rho < 0):
            raise ValueError("margin rates must be nonnegative")
        self.buyers = buyers = as_count(buyers, "buyers")
        self.theta = theta
        self.rho = rho
        n = theta.shape[0]
        self.gamma = 2.0 * np.pi / (np.sqrt(6.0) * theta)
        self.opt_out_mass = 0.1 * n
        self.lower = np.full(n, 0.5 * buyers / n)
        self.upper = np.full(n, 1.5 * buyers / n)
        self.slope = rho * theta
        self._restock = _Restock(
            self.lower, self.upper, self.upper - self.lower,
            self.slope, 2.0 * self.slope, 3.0 * self.slope,
        )
        # item i's cost of every count 0..buyers, by restock_cost's formula
        self._item_costs = _Restock(*(column[:, None] for column in self._restock)).item_costs(
            np.arange(self.buyers + 1))
        self._items = np.arange(n)
        log_factorial = np.array([math.lgamma(c + 1.0) for c in range(self.buyers + 1)])
        self._log_choose = log_factorial[-1] - log_factorial - log_factorial[::-1]

    @classmethod
    def synthetic(
        cls, seed: int, n: int = 30, buyers: int = 120, budget: int | None = None
    ) -> "PricingEnv":
        theta, rho = make_synthetic_prices(seed, n)
        return cls(theta, rho, buyers=buyers, budget=budget)

    @property
    def dimension(self) -> int:
        return self.theta.shape[0]

    def choice_probabilities(self, x) -> Vector:
        """Probabilities over the n items plus opt-out (last entry)."""
        x = as_point(x, self.dimension)
        return self._probabilities_at(x[None, :])[0]

    def _probabilities_at(self, points) -> Vector:
        # max-shifted exponentials so extreme prices saturate instead of overflowing
        k, n = points.shape
        z = self.gamma * (self.theta - points)
        shift = np.maximum(z.max(axis=1), 0.0)
        z -= shift[:, None]
        # the items' exponentials and the opt-out mass, normalized in place
        probs = np.empty((k, n + 1))
        expz = np.exp(z, out=probs[:, :n])
        opt_out = np.exp(-shift, out=probs[:, n])
        opt_out *= self.opt_out_mass
        denom = opt_out + expz.sum(axis=1)
        probs /= denom[:, None]
        return probs

    def restock_cost(self, counts) -> Vector:
        """Total restocking cost for integer demand counts (..., n)."""
        return self._restock.item_costs(np.asarray(counts)).sum(axis=-1)

    def _draw_at(self, points, streams, replicates):
        k = points.shape[0]
        probs = np.empty((k, self.dimension + 1))
        for lo, hi, block in point_chunks(points):
            probs[lo:hi] = self._probabilities_at(block)
        counts = draw_blocks(
            streams, k,
            lambda gen, lo, hi: _multinomial_block(gen, self.buyers, probs[lo:hi], replicates),
        )
        demand = counts[..., :-1]
        revenue = np.empty((k, replicates))
        for lo, hi, block in point_chunks(points):
            revenue[lo:hi] = np.matmul(demand[lo:hi], block[:, :, None])[..., 0]
        restock = self._item_costs[self._items, demand].sum(axis=-1)
        return np.ascontiguousarray((restock - revenue).T)

    def _binomial_pmf(self, item_probs) -> Vector:
        """(n, buyers + 1) matrix of Binomial(buyers, p_i) pmfs, one row per item.

        Exact at p = 0 and p = 1: the zero-probability outcomes get 0, not NaN.
        """
        p = np.asarray(item_probs, dtype=np.float64)[:, None]
        counts = np.arange(self.buyers + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            hits = np.where(counts == 0, 0.0, counts * np.log(p))
            misses = np.where(counts == self.buyers, 0.0,
                              (self.buyers - counts) * np.log1p(-p))
        return np.exp(self._log_choose + hits + misses)

    def expected_restock_cost(self, item_probs) -> float:
        """Exact expected restocking cost given per-item purchase probabilities."""
        p = as_point(item_probs, self.dimension)
        return float((self._binomial_pmf(p) * self._item_costs).sum())

    def exact_objective(self, x) -> float:
        x = as_point(x, self.dimension)
        p = self.choice_probabilities(x)[:-1]
        expected_revenue = self.buyers * float(x @ p)
        return -expected_revenue + self.expected_restock_cost(p)


# a block of at most this many points draws one size=replicates multinomial
# per point: a broadcast call's fixed cost outweighs that many 1-d calls (at 8
# items and 100 buyers, measured on a 2-vCPU Xeon with numpy 2.4: a 1-point
# block 3.6x faster per point at 1 replicate, even at about 6 points, per
# point 1.6x slower at 16 and 2.3x at 32)
PER_POINT_MULTINOMIAL_MAX = 6


def _multinomial_block(gen, buyers: int, probs, replicates: int):
    """(k, replicates, n + 1) demand counts of the k points with ``probs``.

    Point-major, as one call of size=replicates per point draws them: a
    small block makes those calls, a larger one the single broadcast call,
    which draws the same counts.
    """
    k = probs.shape[0]
    if k > PER_POINT_MULTINOMIAL_MAX:
        return gen.multinomial(buyers, probs[:, None, :], size=(k, replicates))
    counts = np.empty((k, replicates, probs.shape[1]), np.int64)
    for i in range(k):
        counts[i] = gen.multinomial(buyers, probs[i], size=replicates)
    return counts


class _Restock(NamedTuple):
    """Per-item restocking constants: l, u, u - l, w, 2 w and 3 w."""

    lower: Vector
    upper: Vector
    span: Vector
    slope: Vector
    low_slope: Vector
    high_slope: Vector

    def item_costs(self, counts) -> Vector:
        """Per-item cost of ``counts``: slope 2 w up to l, w from l to u, 3 w above u.

        The bits of ``2 w min(c, l) + w min(max(c - l, 0), u - l) + 3 w
        max(c - u, 0)``, summed left to right; integer counts convert
        exactly inside the first operation on them.
        """
        low = np.minimum(counts, self.lower)
        low *= self.low_slope
        mid = counts - self.lower
        np.maximum(mid, 0.0, out=mid)
        np.minimum(mid, self.span, out=mid)
        mid *= self.slope
        high = counts - self.upper
        np.maximum(high, 0.0, out=high)
        high *= self.high_slope
        low += mid
        low += high
        return low


# ---------------------------------------------------------------------------
# Strategic classification environment
# ---------------------------------------------------------------------------


def best_response(x, xi_true) -> Vector:
    """Feature vector an individual presents against classifier x.

    The classifier x has 11 feature weights and an intercept (x[-1]).
    Acceptance (nonnegative score) pays reward 2; changing features costs
    the squared distance moved.  The optimal move is either to stay put, or
    to project onto the acceptance boundary when that costs less than the
    reward; exact ties stay put, and so does everyone when the feature
    weights are all zero, since then no move changes the score.  This is
    the one-agent case of the population's best response, so its one score
    rounds as a dot product; the scores of m agents round as an
    (m, f) @ (f,) matvec.
    """
    x = as_point(x)
    features = as_point(xi_true, x.shape[0] - 1)[None, None, :].copy()
    _respond(features, x[None, :])
    return features[0, 0]


def _respond(features, points) -> Vector:
    """(k, m) scores of a (k, m, f) ``features`` stack after best responses.

    Row j holds the m agents facing classifier ``points[j]``.  Each agent
    that gains from moving is moved in ``features`` itself, by the move
    :func:`best_response` describes; the stacked matmuls round each row's
    scores as its own (m, f) @ (f,) would.
    """
    weights = points[:, :-1]
    intercepts = points[:, -1:]
    scores = np.matmul(features, weights[:, :, None])[..., 0] + intercepts
    negative = scores < 0.0
    if np.any(negative):
        norms = row_norms(weights)
        # zero weights give +inf gaps: no move changes the score, and no agent moves
        with np.errstate(divide="ignore", invalid="ignore"):
            gaps = -scores / norms[:, None]
            units = weights / norms[:, None]
        move = negative & (gaps * gaps < 2.0)
        if np.any(move):
            point, agent = np.nonzero(move)
            features[point, agent] += gaps[point, agent, None] * units[point]
            scores = np.matmul(features, weights[:, :, None])[..., 0] + intercepts
    return scores


def _logistic_loss(scores, labels) -> Vector:
    # cross-entropy in score space: stable for large |score|
    return labels * np.logaddexp(0.0, -scores) + (1.0 - labels) * np.logaddexp(0.0, scores)


def make_synthetic_population(
    seed: int, count: int, d_feat: int = 11, separation: float = 1.0
) -> tuple[Vector, Vector]:
    """Balanced two-class Gaussian population: (features, labels).

    Class means sit ``separation`` apart along a fixed direction; zero
    separation makes the classes indistinguishable.
    """
    if count < 1:
        raise ValueError("population must be nonempty")
    if d_feat < 1:
        raise ValueError("need at least one feature")
    gen = RngStream(seed).child("population").generator()
    labels = np.zeros(count)
    labels[: count // 2] = 1.0
    gen.shuffle(labels)
    axis = np.ones(d_feat) / np.sqrt(d_feat)
    means = (labels[:, None] - 0.5) * separation * axis
    features = means + gen.standard_normal((count, d_feat))
    return features, labels


def save_population(path, features, labels) -> None:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (count, d_feat) matching labels")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label"] + [f"f{i + 1}" for i in range(features.shape[1])])
        for label, row in zip(labels, features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_population(path) -> tuple[Vector, Vector]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "label" or len(header) < 2:
            raise ValueError(f"{path}: expected header label,f1,...")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no population records")
    # a row of another width, an empty line included, is on line i + 2
    bad = next((i for i, r in enumerate(rows) if len(r) != len(header)), None)
    if bad is not None:
        raise ValueError(f"{path}: line {bad + 2}: expected {len(header)} fields, "
                         f"got {len(rows[bad])}")
    try:
        labels = np.array([float(r[0]) for r in rows])
        features = np.array([[float(v) for v in r[1:]] for r in rows])
    except ValueError:
        # only a failed parse looks for the line that failed it
        for i, row in enumerate(rows):
            for value in row:
                try:
                    float(value)
                except ValueError:
                    raise ValueError(f"{path}: line {i + 2}: expected numbers, "
                                     f"got {value!r}") from None
        raise
    finite = np.isfinite(features).all(axis=1) & np.isfinite(labels)
    if not finite.all():
        raise ValueError(f"{path}: line {int(finite.argmin()) + 2}: expected finite numbers")
    return features, labels


class StrategicEnv(Environment):
    """Logistic loss against a population that games the classifier.

    A sample at x picks one individual uniformly, lets it best-respond to x
    (see :func:`best_response`), and returns the cross-entropy loss of the
    classifier on the presented features.  The decision vector is the 11
    feature weights plus an intercept.  The exact expected objective is the
    loss averaged over the whole population; because the response map jumps
    as individuals cross the manipulation threshold, the objective is
    discontinuous in x and no gradient or smoothness constant exists.
    """

    def __init__(self, features, labels, budget: int | None = None):
        super().__init__(budget)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty (count, d_feat) matrix")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.all((labels == 0.0) | (labels == 1.0)):
            raise ValueError("labels must be 0 or 1")
        self.features = features
        self.labels = labels

    @classmethod
    def synthetic(
        cls,
        seed: int,
        count: int = 400,
        d_feat: int = 11,
        separation: float = 1.0,
        budget: int | None = None,
    ) -> "StrategicEnv":
        features, labels = make_synthetic_population(seed, count, d_feat, separation)
        return cls(features, labels, budget=budget)

    @property
    def dimension(self) -> int:
        return self.features.shape[1] + 1

    @property
    def population_size(self) -> int:
        return self.features.shape[0]

    def exact_objective(self, x) -> float:
        x = as_point(x, self.dimension)
        scores = _respond(self.features[None].copy(), x[None, :])[0]
        return float(_logistic_loss(scores, self.labels).mean())

    def _draw_at(self, points, streams, replicates):
        # point-major, as one call of size=replicates per point would draw
        chosen = draw_blocks(
            streams, points.shape[0],
            lambda gen, lo, hi: gen.integers(0, self.population_size, size=(hi - lo, replicates)),
        )
        losses = np.empty((points.shape[0], replicates))
        for lo, hi, block in point_chunks(points):
            picked = chosen[lo:hi]
            scores = _respond(self.features[picked], block)
            losses[lo:hi] = _logistic_loss(scores, self.labels[picked])
        return np.ascontiguousarray(losses.T)
