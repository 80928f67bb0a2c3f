"""Tests for the closed-form background solutions and gauge maps."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from cmcflow.background import (
    BackgroundModel,
    CurvatureSign,
    GaugeDomainError,
    cmc_time_maps,
    gauge_gap,
    gauge_quantities,
    homogeneous_lapse,
    mean_curvature,
    rescaled_background_residual,
    scale_factor,
)

NEG = CurvatureSign.NEGATIVE
POS = CurvatureSign.POSITIVE

ULP = 2.220446049250313e-16


class TestScaleFactor:
    def test_sinh_branch(self):
        model = BackgroundModel(n=3, sign=NEG)
        assert scale_factor(model, math.asinh(1.0)) == pytest.approx(1.0, abs=1e-15)
        assert scale_factor(model, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)

    def test_cosh_branch(self):
        model = BackgroundModel(n=4, sign=POS)
        assert scale_factor(model, 0.0) == 1.0
        assert scale_factor(model, -2.0) == scale_factor(model, 2.0)

    def test_domain(self):
        model = BackgroundModel(n=3, sign=NEG)
        with pytest.raises(GaugeDomainError):
            scale_factor(model, 0.0)
        with pytest.raises(GaugeDomainError):
            scale_factor(model, -1.0)
        with pytest.raises(GaugeDomainError):
            scale_factor(BackgroundModel(n=3, sign=POS), math.inf)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            BackgroundModel(n=1, sign=NEG)
        # An n that converts to no double is refused, not left to overflow
        # in the first formula that reads it.
        with pytest.raises(ValueError, match="the largest double"):
            BackgroundModel(n=10**400, sign=NEG)

    def test_double_range_of_t(self):
        # cosh(t) is finite up to log(2 * max) and overflows one double
        # beyond it; past that bound t leaves the domain.
        bound = math.log(2.0) + math.log(sys.float_info.max)
        for sign in (NEG, POS):
            model = BackgroundModel(n=3, sign=sign)
            assert math.isfinite(scale_factor(model, bound))
            assert mean_curvature(model, bound) == -3.0
            for t in (math.nextafter(bound, math.inf), 711.0, 1e6):
                with pytest.raises(GaugeDomainError, match="double range"):
                    scale_factor(model, t)
                with pytest.raises(GaugeDomainError, match="double range"):
                    mean_curvature(model, t)
        assert scale_factor(BackgroundModel(n=3, sign=POS), -bound) > 1e308


class TestMeanCurvature:
    def test_values(self):
        assert mean_curvature(
            BackgroundModel(n=3, sign=NEG), math.asinh(1.0)
        ) == pytest.approx(-3.0 * math.sqrt(2.0), rel=1e-14)
        assert mean_curvature(BackgroundModel(n=4, sign=POS), 0.0) == 0.0

    def test_negative_asymptote(self):
        # tau runs from -inf at t -> 0 to -n at t -> inf
        model = BackgroundModel(n=3, sign=NEG)
        assert mean_curvature(model, 40.0) == pytest.approx(-3.0, abs=1e-12)
        assert mean_curvature(model, 1e-8) < -1e8

    @pytest.mark.parametrize("sign", [NEG, POS])
    def test_strict_monotonicity_on_grid(self, sign):
        model = BackgroundModel(n=3, sign=sign)
        ts = [0.01 + 0.012 * k for k in range(1200)]
        vals = [mean_curvature(model, t) for t in ts]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if sign is NEG:
            assert all(d > 0.0 for d in diffs)
        else:
            assert all(d < 0.0 for d in diffs)

    def test_positive_range(self):
        model = BackgroundModel(n=4, sign=POS)
        assert mean_curvature(model, 30.0) == pytest.approx(-4.0, abs=1e-12)
        assert mean_curvature(model, -30.0) == pytest.approx(4.0, abs=1e-12)


class TestHomogeneousLapse:
    def test_values(self):
        assert homogeneous_lapse(3, -3.0 * math.sqrt(2.0), NEG) == pytest.approx(
            1.0 / 3.0, rel=1e-14
        )
        assert homogeneous_lapse(4, 0.0, POS) == 0.25
        near = homogeneous_lapse(2, -2.0000001, NEG)
        assert near > 1e6 and math.isfinite(near)

    def test_domain_errors(self):
        with pytest.raises(GaugeDomainError):
            homogeneous_lapse(3, -2.0, NEG)
        with pytest.raises(GaugeDomainError):
            homogeneous_lapse(3, -3.0, NEG)
        with pytest.raises(GaugeDomainError):
            homogeneous_lapse(3, -5.0, POS)
        with pytest.raises(GaugeDomainError):
            homogeneous_lapse(3, 3.0, POS)

    # Residual properties stay away from |tau| = n: there the gap tau^2 - n^2
    # is itself ill-conditioned (error ~ eps * tau^2 / gap) and no evaluation
    # order can hold 1e-12.  The boundary itself is covered by the
    # finite-and-positive check above.
    @given(
        n=st.integers(min_value=2, max_value=8),
        margin=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_lapse_equation_residual_standard(self, n, margin):
        tau = -(n + margin)
        lapse = homogeneous_lapse(n, tau, NEG)
        residual = -1.0 + lapse * (tau * tau / n - n)
        assert abs(residual) <= 1e-12

    @given(
        n=st.integers(min_value=2, max_value=8),
        frac=st.floats(min_value=-0.999, max_value=0.999),
    )
    def test_lapse_equation_residual_reversed(self, n, frac):
        tau = n * frac
        lapse = homogeneous_lapse(n, tau, POS)
        residual = 1.0 + lapse * (tau * tau / n - n)
        assert abs(residual) <= 1e-12

    def test_lapse_is_the_reciprocal_gap(self):
        for n, tau, sign in ((3, -4.5, NEG), (2, -2.0000001, NEG),
                             (4, 1.5, POS), (6, -5.999, POS)):
            assert homogeneous_lapse(n, tau, sign) == 1.0 / abs(gauge_gap(n, tau))

    def test_gauge_quantities_bundle(self):
        g = gauge_quantities(3, -3.0 * math.sqrt(2.0), NEG)
        assert g.scale_sq == pytest.approx(3.0 * g.lapse, rel=1e-15)
        # background at t = asinh(1): conformal factor is sinh(t)^2 = 1
        assert g.scale_sq == pytest.approx(1.0, rel=1e-13)


class TestCmcTimeMaps:
    def test_examples(self):
        tau, s = cmc_time_maps(3, NEG, math.asinh(1.0))
        assert tau == pytest.approx(-3.0 * math.sqrt(2.0), rel=1e-14)
        assert s == pytest.approx(1.0, rel=1e-14)

        tau, s = cmc_time_maps(4, POS, 0.0)
        assert tau == 0.0
        assert s == 1.0

        tau, s = cmc_time_maps(3, NEG, 2.0)
        assert tau == pytest.approx(-3.0 / math.tanh(2.0), rel=1e-14)
        assert s == pytest.approx(1.0 / math.sinh(2.0) ** 2, rel=1e-14)

    def test_domain(self):
        with pytest.raises(GaugeDomainError):
            cmc_time_maps(3, NEG, 0.0)
        cmc_time_maps(3, POS, -4.0)  # reversed gauge covers all finite T
        for sign in (NEG, POS):
            for T in (math.inf, -math.inf, math.nan):
                with pytest.raises(GaugeDomainError):
                    cmc_time_maps(3, sign, T)

    def test_rescaling_past_the_double_range_of_a_squared(self):
        # From T ~ 355, a^2 overflows and s = 1/a^2 underflows to 0; tau
        # stays finite up to the domain bound.  Near T = 0 (negative
        # curvature) a^2 underflows and s overflows to inf.
        for sign in (NEG, POS):
            tau, s = cmc_time_maps(3, sign, 400.0)
            assert (tau, s) == (-3.0, 0.0)
            with pytest.raises(GaugeDomainError):
                cmc_time_maps(3, sign, 711.0)
        assert cmc_time_maps(3, NEG, 1e-300) == (-3e300, math.inf)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_identity_within_four_ulps(self, n):
        for k in range(1, 800):
            T = 0.02 * k  # up to 16, deep into the cancellation regime
            _, s = cmc_time_maps(n, NEG, T)
            assert abs(s * math.sinh(T) ** 2 - 1.0) <= 4.0 * ULP
            _, s = cmc_time_maps(n, POS, T - 8.0)
            assert abs(s * math.cosh(T - 8.0) ** 2 - 1.0) <= 4.0 * ULP


class TestRescaledBackgroundResidual:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("sign", [NEG, POS])
    def test_fixed_point(self, n, sign):
        for k in range(10):
            T = 0.3 + 0.45 * k
            res_g, res_sigma = rescaled_background_residual(n, sign, T)
            assert abs(res_g) <= 1e-12
            assert abs(res_sigma) <= 1e-12

    def test_positive_gauge_covers_negative_times(self):
        res_g, res_sigma = rescaled_background_residual(4, POS, -1.5)
        assert abs(res_g) <= 1e-12 and abs(res_sigma) <= 1e-12

    def test_domain(self):
        with pytest.raises(GaugeDomainError):
            rescaled_background_residual(3, NEG, -1.0)
        with pytest.raises(ValueError):
            rescaled_background_residual(1, NEG, 1.0)
        for sign in (NEG, POS):
            for T in (math.inf, -math.inf, math.nan):
                with pytest.raises(GaugeDomainError):
                    rescaled_background_residual(3, sign, T)
