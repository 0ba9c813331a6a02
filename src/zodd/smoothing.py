"""Randomized-smoothing calculus: direction moments and smoothed gradients.

Averaging F over a random probe direction replaces F with a smoothed
surrogate: F_ball(x) = E[F(x + mu s)] for s uniform in the unit ball, or
F_gauss(x) = E[F(x + mu u)] for standard Gaussian u.  Two-point random
estimators are unbiased for the gradient of the surrogate, not of F itself.
The exact moments of sphere and Gaussian directions (used by the estimator
variance analysis) are exposed here in closed form so Monte-Carlo runs can
be checked against them entrywise.

:func:`smoothed_gradient` computes a Monte-Carlo reference value of the
surrogate gradient using the exact objective of an analytic environment.
It is deliberately independent of the sample-based estimators so the two
can be held against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream, Vector, as_point, gaussian_matrix, sphere_matrix
from .environments import Environment, UnsupportedEnvironmentError

KERNELS = ("ball", "gaussian")


# ---------------------------------------------------------------------------
# Exact direction moments
# ---------------------------------------------------------------------------


def sphere_weighted_outer_moment(d: int, k: int) -> Vector:
    """E[||s||^k s s'] for s uniform on the unit sphere: (1/d) I for all even k."""
    _check_moment_args(d, k)
    return np.eye(d) / d


def sphere_projected_outer_moment(d: int, a) -> Vector:
    """E[(a's)^2 s s'] = (|a|^2 I + 2 a a') / (d (d + 2))."""
    a = as_point(a, d)
    return (float(a @ a) * np.eye(d) + 2.0 * np.outer(a, a)) / (d * (d + 2))


def gaussian_weighted_outer_moment(d: int, k: int) -> Vector:
    """E[||u||^k u u'] = (d+2)(d+4)...(d+k) I for standard Gaussian u, even k."""
    _check_moment_args(d, k)
    scale = 1.0
    for j in range(2, k + 1, 2):
        scale *= d + j
    return scale * np.eye(d)


def gaussian_projected_outer_moment(d: int, a) -> Vector:
    """E[(a'u)^2 u u'] = |a|^2 I + 2 a a' for standard Gaussian u."""
    a = as_point(a, d)
    return float(a @ a) * np.eye(d) + 2.0 * np.outer(a, a)


def _check_moment_args(d: int, k: int) -> None:
    if d < 1:
        raise ValueError("need d >= 1")
    if k < 0 or k % 2 != 0:
        raise ValueError(f"weight power must be even and nonnegative, got {k}")


_MOMENTS_WEIGHTED = {
    "sphere_weighted_outer": sphere_weighted_outer_moment,
    "gaussian_weighted_outer": gaussian_weighted_outer_moment,
}
_MOMENTS_PROJECTED = {
    "sphere_projected_outer": sphere_projected_outer_moment,
    "gaussian_projected_outer": gaussian_projected_outer_moment,
}


def analytic_moment(kind: str, d: int, k: int | None = None, a=None) -> Vector:
    """Dispatch to a closed-form direction moment by name.

    ``kind`` is one of ``sphere_weighted_outer`` / ``gaussian_weighted_outer``
    (take the even weight power ``k``) and ``sphere_projected_outer`` /
    ``gaussian_projected_outer`` (take the projection vector ``a``).
    """
    if kind in _MOMENTS_WEIGHTED:
        if k is None:
            raise ValueError(f"{kind} requires the weight power k")
        return _MOMENTS_WEIGHTED[kind](d, k)
    if kind in _MOMENTS_PROJECTED:
        if a is None:
            raise ValueError(f"{kind} requires the projection vector a")
        return _MOMENTS_PROJECTED[kind](d, a)
    known = sorted(_MOMENTS_WEIGHTED | _MOMENTS_PROJECTED)
    raise ValueError(f"unknown moment kind {kind!r}; known: {known}")


# ---------------------------------------------------------------------------
# Smoothed gradient reference values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothedFunctionOracle:
    """An analytic environment paired with a smoothing kernel and radius."""

    base: Environment
    mu: float
    kernel: str = "ball"
    mc_draws: int = 100_000

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.mu <= 0:
            raise ValueError("smoothing radius must be positive")
        if self.mc_draws < 2:
            raise ValueError("need at least two Monte-Carlo draws")
        if not self.base.supports_exact_objective:
            raise UnsupportedEnvironmentError(
                f"{type(self.base).__name__} has no exact objective; "
                "smoothed gradients need one"
            )


@dataclass(frozen=True)
class SmoothedGradient:
    """Monte-Carlo estimate of a smoothed gradient with per-coordinate stderr."""

    value: Vector
    stderr: Vector
    draws: int


def smoothed_gradient(
    oracle: SmoothedFunctionOracle, x, rng: RngStream
) -> SmoothedGradient:
    """Monte-Carlo value of the smoothed-surrogate gradient at x.

    For the ball kernel the estimate averages d (F(x+mu s) - F(x-mu s)) /
    (2 mu) s over unit-sphere directions s; for the Gaussian kernel it
    averages (F(x+mu u) - F(x-mu u)) / (2 mu) u over standard normal u.
    Both use the environment's exact objective, so the only error is
    Monte-Carlo, reported as per-coordinate standard error.
    """
    env = oracle.base
    x = as_point(x, env.dimension)
    gen = rng.child("smoothed-gradient").generator()
    K = oracle.mc_draws
    if oracle.kernel == "ball":
        dirs = sphere_matrix(gen, env.dimension, K)
        scale = env.dimension
    else:
        dirs = gaussian_matrix(gen, env.dimension, K)
        scale = 1.0
    f_plus = env.exact_objective_at(x + oracle.mu * dirs)
    f_minus = env.exact_objective_at(x - oracle.mu * dirs)
    terms = (scale * (f_plus - f_minus) / (2.0 * oracle.mu))[:, None] * dirs
    value = terms.mean(axis=0)
    stderr = terms.std(axis=0, ddof=1) / np.sqrt(K)
    return SmoothedGradient(value=value, stderr=stderr, draws=K)
