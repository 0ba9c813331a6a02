"""Direction-moment identities."""

import numpy as np
import pytest

from zodd.core import RngStream
from zodd.smoothing import (
    analytic_moment,
    gaussian_projected_outer_moment,
    gaussian_weighted_outer_moment,
    sphere_projected_outer_moment,
    sphere_weighted_outer_moment,
)


def _circle_moment(weight_fn, entry):
    # quadrature oracle for d=2 sphere moments: u = (cos t, sin t), t uniform
    t = np.linspace(0.0, 2.0 * np.pi, 200_001)
    u = np.stack([np.cos(t), np.sin(t)], axis=1)
    i, j = entry
    values = weight_fn(u) * u[:, i] * u[:, j]
    return np.trapezoid(values, t) / (2.0 * np.pi)


class TestSphereMoments:
    def test_weighted_outer_is_identity_over_d(self):
        for d in (1, 2, 7):
            for k in (0, 2, 4):
                assert np.array_equal(sphere_weighted_outer_moment(d, k), np.eye(d) / d)

    def test_projected_outer_d2_against_quadrature(self):
        a = np.array([1.0, 2.0])
        got = sphere_projected_outer_moment(2, a)
        for entry in [(0, 0), (0, 1), (1, 1)]:
            oracle = _circle_moment(lambda u: (u @ a) ** 2, entry)
            assert got[entry] == pytest.approx(oracle, abs=1e-8)

    def test_projected_outer_d2_frozen_values(self):
        # (|a|^2 I + 2 a a^T) / (d (d+2)) at a=(1,2): entries derived by the
        # quadrature oracle above and checked by hand
        got = sphere_projected_outer_moment(2, np.array([1.0, 2.0]))
        assert np.allclose(got, [[0.875, 0.5], [0.5, 1.625]], atol=1e-15)

    def test_projected_outer_trace_identity(self):
        # summing the diagonal must give E[(a.u)^2] = |a|^2 / d
        a = np.array([0.3, -1.2, 2.0])
        got = sphere_projected_outer_moment(3, a)
        assert np.trace(got) == pytest.approx((a @ a) / 3.0, rel=1e-12)


class TestGaussianMoments:
    def test_weighted_outer_d1_matches_raw_moments(self):
        # E[s^4] = 3 and E[s^6] = 15 for a standard normal
        assert gaussian_weighted_outer_moment(1, 2)[0, 0] == pytest.approx(3.0)
        assert gaussian_weighted_outer_moment(1, 4)[0, 0] == pytest.approx(15.0)

    def test_weighted_outer_k0(self):
        assert np.array_equal(gaussian_weighted_outer_moment(4, 0), np.eye(4))

    def test_projected_outer_d1(self):
        # E[(a s)^2 s^2] = a^2 E[s^4] = 3 a^2; formula gives a^2 + 2 a^2
        got = gaussian_projected_outer_moment(1, np.array([2.0]))
        assert got[0, 0] == pytest.approx(12.0)

    def test_projected_outer_monte_carlo(self):
        a = np.array([1.0, -1.0, 0.5])
        gen = RngStream(11).generator()
        S = gen.standard_normal((400_000, 3))
        emp = np.einsum("r,ri,rj->ij", (S @ a) ** 2, S, S) / S.shape[0]
        assert np.allclose(emp, gaussian_projected_outer_moment(3, a), atol=0.05)


class TestAnalyticMomentDispatcher:
    def test_dispatch_matches_direct_calls(self):
        a = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(
            analytic_moment("sphere_weighted_outer", 3, k=2),
            sphere_weighted_outer_moment(3, 2),
        )
        assert np.array_equal(
            analytic_moment("gaussian_projected_outer", 3, a=a),
            gaussian_projected_outer_moment(3, a),
        )

    def test_odd_weight_rejected(self):
        with pytest.raises(ValueError):
            analytic_moment("sphere_weighted_outer", 3, k=3)

    def test_missing_argument_rejected(self):
        with pytest.raises(ValueError):
            analytic_moment("sphere_weighted_outer", 3)
        with pytest.raises(ValueError):
            analytic_moment("sphere_projected_outer", 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            analytic_moment("cubical_outer", 3, k=2)

