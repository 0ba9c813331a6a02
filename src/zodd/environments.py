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

import numpy as np

from .core import RngStream, SampleOracle, Vector, as_point, draw_blocks, row_norms


class UnsupportedEnvironmentError(RuntimeError):
    """The environment does not expose the requested analytic quantity."""


class DegenerateClassifierError(ValueError):
    """The feature weights vanish where a feature response is required."""


class Environment(SampleOracle):
    """Sampling oracle with optional analytic ground truth.

    ``supports_exact_objective`` / ``supports_gradient`` advertise which of
    the analytic hooks are implemented; the metadata properties return None
    when the corresponding constant is unknown for the environment.
    """

    supports_exact_objective: bool = False
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

    def exact_objective_at(self, points) -> Vector:
        pts = np.asarray(points, dtype=np.float64)
        return np.array([self.exact_objective(p) for p in pts])

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
    """

    supports_exact_objective = True
    supports_gradient = True

    def __init__(self, A, b, sigma: float, budget: int | None = None):
        super().__init__(budget)
        A = np.asarray(A, dtype=np.float64)
        b = as_point(b)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
            raise ValueError("A must be square and match the length of b")
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
        self._eig_max = float(eigvals[-1])
        self._eig_min = float(eigvals[0])
        if self._eig_min > 1e-12:
            self._x_star = np.linalg.solve(A, -b)
            self._f_star = float(0.5 * self._x_star @ A @ self._x_star + b @ self._x_star)
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
        x = as_point(x, self.dimension)
        return float(0.5 * x @ self.A @ x + self.b @ x)

    def exact_objective_at(self, points) -> Vector:
        pts = np.asarray(points, dtype=np.float64)
        return 0.5 * np.einsum("ki,ij,kj->k", pts, self.A, pts) + pts @ self.b

    def gradient(self, x) -> Vector:
        x = as_point(x, self.dimension)
        return self.A @ x + self.b

    def _draw_at(self, points, gens, replicates):
        k = points.shape[0]
        mean = self.exact_objective_at(points)
        if self.sigma == 0.0:
            return np.broadcast_to(mean, (replicates, k)).copy()
        noise = draw_blocks(
            gens, k, lambda gen, lo, hi: gen.standard_normal((replicates, hi - lo)), axis=1
        )
        return mean + self.sigma * noise


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
        rows = [(float(row["theta"]), float(row["rho"])) for row in reader]
    if not rows:
        raise ValueError(f"{path}: no price records")
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
    """

    supports_exact_objective = True

    def __init__(self, theta, rho, buyers: int = 120, budget: int | None = None):
        super().__init__(budget)
        theta = as_point(theta)
        rho = as_point(rho, theta.shape[0])
        if np.any(theta <= 0):
            raise ValueError("reference prices must be positive")
        if np.any(rho < 0):
            raise ValueError("margin rates must be nonnegative")
        if buyers < 1:
            raise ValueError("need at least one buyer")
        self.theta = theta
        self.rho = rho
        self.buyers = int(buyers)
        n = theta.shape[0]
        self.gamma = 2.0 * np.pi / (np.sqrt(6.0) * theta)
        self.opt_out_mass = 0.1 * n
        self.lower = np.full(n, 0.5 * buyers / n)
        self.upper = np.full(n, 1.5 * buyers / n)
        self.slope = rho * theta
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
        z = self.gamma * (self.theta - points)
        shift = np.maximum(np.max(z, axis=1), 0.0)
        expz = np.exp(z - shift[:, None])
        opt_out = self.opt_out_mass * np.exp(-shift)
        denom = opt_out + expz.sum(axis=1)
        probs = np.concatenate([expz, opt_out[:, None]], axis=1) / denom[:, None]
        return probs

    def restock_cost(self, counts) -> Vector:
        """Total restocking cost for integer demand counts (..., n)."""
        counts = np.asarray(counts, dtype=np.float64)
        low = np.minimum(counts, self.lower)
        mid = np.clip(counts - self.lower, 0.0, self.upper - self.lower)
        high = np.maximum(counts - self.upper, 0.0)
        per_item = 2.0 * self.slope * low + self.slope * mid + 3.0 * self.slope * high
        return per_item.sum(axis=-1)

    def _draw_at(self, points, gens, replicates):
        probs = self._probabilities_at(points)
        # point-major, as one call of size=replicates per point would draw
        counts = draw_blocks(
            gens, points.shape[0],
            lambda gen, lo, hi: gen.multinomial(
                self.buyers, probs[lo:hi, None, :], size=(hi - lo, replicates)
            ),
        )
        demand = counts[..., :-1]
        revenue = np.matmul(demand, points[:, :, None])[..., 0]
        return np.ascontiguousarray((self.restock_cost(demand) - revenue).T)

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
        counts = np.arange(self.buyers + 1)
        pmf = self._binomial_pmf(p)
        low = np.minimum(counts, self.lower[:, None])
        mid = np.clip(counts - self.lower[:, None], 0.0, (self.upper - self.lower)[:, None])
        high = np.maximum(counts - self.upper[:, None], 0.0)
        cost = (
            2.0 * self.slope[:, None] * low
            + self.slope[:, None] * mid
            + 3.0 * self.slope[:, None] * high
        )
        return float((pmf * cost).sum())

    def exact_objective(self, x) -> float:
        x = as_point(x, self.dimension)
        p = self.choice_probabilities(x)[:-1]
        expected_revenue = self.buyers * float(x @ p)
        return -expected_revenue + self.expected_restock_cost(p)

    def save_prices(self, path) -> None:
        save_prices(path, self.theta, self.rho)


# ---------------------------------------------------------------------------
# Strategic classification environment
# ---------------------------------------------------------------------------


def best_response(x, xi_true) -> Vector:
    """Feature vector an individual presents against classifier x.

    The classifier x has 11 feature weights and an intercept (x[-1]).
    Acceptance (nonnegative score) pays reward 2; changing features costs
    the squared distance moved.  The optimal move is either to stay put, or
    to project onto the acceptance boundary when that costs less than the
    reward; exact ties stay put.
    """
    x = as_point(x)
    w = x[:-1]
    intercept = x[-1]
    xi_true = as_point(xi_true, w.shape[0])
    score = float(w @ xi_true + intercept)
    if score >= 0.0:
        return xi_true.copy()
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise DegenerateClassifierError(
            "zero feature weights: no move can change the score"
        )
    gap = -score / norm
    if gap * gap >= 2.0:
        return xi_true.copy()
    return xi_true + gap * (w / norm)


def _best_response_many(x, features) -> Vector:
    """Vectorized best_response over rows of ``features``."""
    w = x[:-1]
    scores = features @ w + x[-1]
    negative = scores < 0.0
    if not np.any(negative):
        return features
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise DegenerateClassifierError(
            "zero feature weights: no move can change the score"
        )
    gaps = -scores / norm
    move = negative & (gaps * gaps < 2.0)
    out = features.copy()
    out[move] += gaps[move, None] * (w / norm)
    return out


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
    labels = np.array([float(r[0]) for r in rows])
    features = np.array([[float(v) for v in r[1:]] for r in rows])
    if features.shape[1] != len(header) - 1:
        raise ValueError(f"{path}: ragged feature rows")
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

    supports_exact_objective = True

    def __init__(self, features, labels, budget: int | None = None):
        super().__init__(budget)
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] < 1:
            raise ValueError("features must be a nonempty (count, d_feat) matrix")
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

    def loss_for(self, x, xi, label) -> float:
        """Loss of classifier x on one presented feature vector."""
        x = as_point(x, self.dimension)
        xi = as_point(xi, self.dimension - 1)
        score = float(x[:-1] @ xi + x[-1])
        return float(_logistic_loss(np.array([score]), np.array([float(label)]))[0])

    def exact_objective(self, x) -> float:
        x = as_point(x, self.dimension)
        presented = _best_response_many(x, self.features)
        scores = presented @ x[:-1] + x[-1]
        return float(_logistic_loss(scores, self.labels).mean())

    def _draw_at(self, points, gens, replicates):
        k = points.shape[0]
        # point-major, as one call of size=replicates per point would draw
        chosen = draw_blocks(
            gens, k,
            lambda gen, lo, hi: gen.integers(0, self.population_size, size=(hi - lo, replicates)),
        )
        weights = points[:, :-1]
        intercepts = points[:, -1:]
        features = self.features[chosen]
        # stacked matmuls round each point exactly as its own (m, f) @ (f,) and
        # norm(w) would, so the draws match best_response point by point
        scores = np.matmul(features, weights[:, :, None])[..., 0] + intercepts
        negative = scores < 0.0
        if np.any(negative):
            norms = row_norms(weights)
            if np.any((norms == 0.0) & negative.any(axis=1)):
                raise DegenerateClassifierError(
                    "zero feature weights: no move can change the score"
                )
            with np.errstate(divide="ignore", invalid="ignore"):
                gaps = -scores / norms[:, None]
                units = weights / norms[:, None]
            move = negative & (gaps * gaps < 2.0)
            if np.any(move):
                point, agent = np.nonzero(move)
                features[point, agent] += gaps[point, agent, None] * units[point]
                scores = np.matmul(features, weights[:, :, None])[..., 0] + intercepts
        return np.ascontiguousarray(_logistic_loss(scores, self.labels[chosen]).T)

    def save_population(self, path) -> None:
        save_population(path, self.features, self.labels)
