"""Randomized-smoothing calculus: the exact moments of probe directions.

Averaging F over a random probe direction replaces F with a smoothed
surrogate: F_ball(x) = E[F(x + mu s)] for s uniform in the unit ball, or
F_gauss(x) = E[F(x + mu u)] for standard Gaussian u.  Two-point random
estimators are unbiased for the gradient of the surrogate, not of F itself.
The exact moments of sphere and Gaussian directions (used by the estimator
variance analysis) are exposed here in closed form so Monte-Carlo runs can
be checked against them entrywise.
"""

from __future__ import annotations

import numpy as np

from .core import Vector, as_point


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
