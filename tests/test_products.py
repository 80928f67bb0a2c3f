"""Tests for the warped-product right-hand sides and derived observables."""

import inspect
import math
from dataclasses import FrozenInstanceError, astuple, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from cmcflow.background import CurvatureSign
from cmcflow.integrate import integrate_oracle
from cmcflow.products import (
    BlowUpOverflow,
    FlowConfig,
    FlowState,
    MAX_N,
    derivatives,
    first_integral_residual,
    initial_state,
    limit_volume_ratio,
    observables,
)

NEG = CurvatureSign.NEGATIVE
POS = CurvatureSign.POSITIVE

SQRT2 = math.sqrt(2.0)


def state(x=0.0, y=0.0, xp=0.0, yp=0.0, t=0.0):
    return FlowState(t=t, x=x, y=y, xp=xp, yp=yp)


def rhs(config, st_):
    """Accelerations (x'', y'') at one state, from the steppers' derivatives."""
    return derivatives(config)(st_.t, (st_.x, st_.y, st_.xp, st_.yp))[2:]


class TestFlowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(m=0, sign=POS, s=1.0)
        with pytest.raises(ValueError):
            FlowConfig(m=2, sign=POS, s=0.5)
        with pytest.raises(ValueError):
            FlowConfig(m=2, sign=POS, s=1.0, vol_m=0.0)
        with pytest.raises(ValueError, match="the largest double"):
            FlowConfig(m=10**400, sign=POS, s=1.0)

    def test_n_up_to_2_53_keeps_n_minus_1_exact(self):
        config = FlowConfig(m=2**52, sign=POS, s=1.0)
        assert config.n == MAX_N == 2**53
        assert config.kx == float(2**53 - 1) != float(config.n)

    def test_n_past_2_53_is_refused(self):
        # 2**53 + 1 rounds to 2**53, so n - 1 would round to n
        with pytest.raises(ValueError, match=r"at most 2\*\*53 = 9007199254740992"):
            FlowConfig(m=2**52 + 1, sign=POS, s=1.0)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            FlowConfig(m=5 * 10**19, sign=NEG, s=1.0)

    @pytest.mark.parametrize("m, sign, s", [
        (1, POS, 0.75), (2, POS, 1.5), (3, NEG, 0.7), (4, POS, 1e300),
    ])
    def test_cached_coefficients_follow_their_formulas(self, m, sign, s):
        config = FlowConfig(m=m, sign=sign, s=s)
        fresh = FlowConfig(m=m, sign=sign, s=s)
        assert "kx" not in vars(config) and "ky" not in vars(config)
        assert config.n == 2 * m
        assert config.kx == (config.n - 1) / s
        assert config.ky == 2.0 * (config.n - 1) - (config.n - 1) / s
        assert vars(config)["kx"] == config.kx
        # a cached value takes no part in equality or hashing
        assert config == fresh and hash(config) == hash(fresh)
        # a copy with another coupling computes its own coefficients
        other = replace(config, s=2.0 * s)
        assert "kx" not in vars(other)
        assert other.kx == (config.n - 1) / (2.0 * s)
        assert other.ky == 2.0 * (config.n - 1) - other.kx
        assert other != config

    def test_boundary_coefficient_is_exact(self):
        # at s = (n-1)/(n-2) the y-equation coefficient must equal n exactly
        # so that y = 0 stays invariant in floating point
        assert FlowConfig(m=2, sign=POS, s=1.5).ky == 4.0
        assert FlowConfig(m=3, sign=POS, s=1.25).ky == 6.0

    def test_initial_state(self):
        s0 = initial_state(FlowConfig(m=2, sign=POS, s=2.0))
        assert (s0.x, s0.y, s0.xp, s0.yp) == (0.0, 0.0, 0.0, 0.0)
        s0 = initial_state(FlowConfig(m=2, sign=NEG, s=2.0))
        assert (s0.xp, s0.yp) == (SQRT2, SQRT2)


class TestFlowState:
    def test_init_takes_the_fields_in_order(self):
        # FlowState writes its own __init__; it must track the fields.
        assert list(inspect.signature(FlowState).parameters) == [
            field.name for field in fields(FlowState)]

    def test_behaves_as_a_frozen_dataclass(self):
        st_ = FlowState(1.0, -2.0, 0.5, -0.0, 3.0)
        assert astuple(st_) == (1.0, -2.0, 0.5, -0.0, 3.0)
        assert st_ == state(t=1.0, x=-2.0, y=0.5, xp=-0.0, yp=3.0)
        assert hash(st_) == hash(state(t=1.0, x=-2.0, y=0.5, xp=0.0, yp=3.0))
        assert repr(st_) == "FlowState(t=1.0, x=-2.0, y=0.5, xp=-0.0, yp=3.0)"
        assert replace(st_, x=4.0) == FlowState(1.0, 4.0, 0.5, -0.0, 3.0)
        with pytest.raises(FrozenInstanceError):
            st_.x = 0.0


class TestRhs:
    def test_positive_initial_values(self):
        config = FlowConfig(m=2, sign=POS, s=2.0)
        xpp, ypp = rhs(config, initial_state(config))
        assert xpp == pytest.approx(2.5, abs=1e-15)
        assert ypp == pytest.approx(-0.5, abs=1e-15)

    def test_desitter_initial_values(self):
        config = FlowConfig(m=1, sign=POS, s=1.0)
        xpp, ypp = rhs(config, initial_state(config))
        assert xpp == ypp == pytest.approx(1.0, abs=1e-15)

    def test_negative_initial_values(self):
        config = FlowConfig(m=2, sign=NEG, s=1.0)
        xpp, ypp = rhs(config, initial_state(config))
        assert xpp == pytest.approx(-1.0, abs=1e-14)
        assert ypp == pytest.approx(-1.0, abs=1e-14)

    @staticmethod
    def _unfolded(config, u):
        # The right-hand side with its curvature sign applied per call, as
        # the equations are written: n -+ (k * e^(-2x)) - ...
        n = float(config.n)
        half_n = 0.5 * n
        curv = -1.0 if config.sign is POS else 1.0
        x, y, xp, yp = u
        cross = xp * yp
        return (xp, yp,
                n + curv * (config.kx * math.exp(-2.0 * x))
                - half_n * (xp * xp + cross),
                n + curv * (config.ky * math.exp(-2.0 * y))
                - half_n * (yp * yp + cross))

    @pytest.mark.parametrize("sign", [POS, NEG])
    @pytest.mark.parametrize("u", [
        (400.0, 0.0, 0.0, 0.0),             # e^(-2x) underflows to 0
        (0.0, 600.0, -0.0, 1.0),            # to 0 in y, and x' = -0.0
        (-300.0, -299.9, 1e3, -1e3),        # e^(-2x) at the overflow floor
        (-0.0, 0.0, 0.0, -0.0),             # signed zeros everywhere
        (1.0, -2.0, 0.0, 0.0),              # x' = y' = 0: no velocity terms
        (math.nan, 0.0, 1.0, 1.0),          # NaN passes the floor test
        (0.5, 0.25, math.inf, -math.inf),
    ])
    @pytest.mark.parametrize("m, s", [(2, 1.5), (2, 2.0), (3, 0.7), (5, 1e300)])
    def test_folded_sign_is_bit_identical(self, sign, u, m, s):
        config = FlowConfig(m=m, sign=sign, s=s)
        got = derivatives(config)(0.0, u)
        assert [v.hex() for v in got] == [
            v.hex() for v in self._unfolded(config, u)]

    @given(
        m=st.integers(min_value=1, max_value=50),
        sign=st.sampled_from([NEG, POS]),
        s=st.floats(min_value=0.5, exclude_min=True, allow_infinity=False),
        u=st.tuples(st.floats(min_value=-300.0, max_value=1e300),
                    st.floats(min_value=-300.0, max_value=1e300),
                    st.floats(min_value=-1e150, max_value=1e150),
                    st.floats(min_value=-1e150, max_value=1e150)),
    )
    def test_folded_sign_is_bit_identical_anywhere(self, m, sign, s, u):
        config = FlowConfig(m=m, sign=sign, s=s)
        got = derivatives(config)(0.0, u)
        assert [v.hex() for v in got] == [
            v.hex() for v in self._unfolded(config, u)]

    def test_overflow_guard(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        with pytest.raises(BlowUpOverflow):
            rhs(config, state(y=-301.0, t=1.5))
        with pytest.raises(BlowUpOverflow):
            rhs(config, state(x=-301.0))

    def test_observables_never_raise(self):
        # past the overflow floor the observables saturate instead of
        # raising; only the integration path signals blow-up
        config = FlowConfig(m=2, sign=POS, s=3.0)
        obs = observables(config, state(y=-400.0))
        assert math.isinf(obs.scalar_curv)
        assert not math.isfinite(obs.ham_residual)

    @given(
        m=st.integers(min_value=1, max_value=50),
        sign=st.sampled_from([NEG, POS]),
        s=st.floats(min_value=0.5, exclude_min=True, allow_infinity=False),
        vol_m=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        vol_n=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        u=st.tuples(*[st.floats(min_value=-1e200, max_value=1e200)] * 4),
    )
    @settings(max_examples=300)
    def test_observables_never_raise_on_finite_states(
        self, m, sign, s, vol_m, vol_n, u
    ):
        # powers too large for a double saturate to inf like the exponentials
        config = FlowConfig(m=m, sign=sign, s=s, vol_m=vol_m, vol_n=vol_n)
        observables(config, state(*u))

    def test_h_red_saturates_on_huge_state(self):
        config = FlowConfig(m=3, sign=NEG, s=5.0)
        obs = observables(config, state(x=1.0, y=1.0, xp=1e60, yp=1e60))
        assert obs.h_red == math.inf
        huge_coupling = FlowConfig(m=40, sign=POS, s=1e100)
        assert observables(huge_coupling, state(xp=1.0)).h_red == math.inf

    def test_h_red_finite_up_to_the_exp_range(self):
        # e^709.6 is a finite double (the range ends near 709.78), so a
        # small base volume brings h_red back well inside the double range
        config = FlowConfig(m=1, sign=NEG, s=1.0, vol_m=1e-10)
        obs = observables(config, state(x=354.8, y=354.8, xp=0.1, yp=0.1))
        # tau = -0.2, so |tau^2/n - n| = 1.98
        assert obs.h_red == pytest.approx(1.98 * (math.exp(709.6) * 1e-10),
                                          rel=1e-14)
        assert 2.96e298 < obs.h_red < 2.97e298

    @given(
        s=st.floats(min_value=0.51, max_value=8.0),
        x=st.floats(min_value=-3.0, max_value=5.0),
        y=st.floats(min_value=-3.0, max_value=5.0),
        xp=st.floats(min_value=-10.0, max_value=10.0),
        yp=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_symmetric_coupling_swap_symmetry(self, s, x, y, xp, yp):
        # at s = 1 both factor equations carry the same coefficient, so
        # swapping the factors swaps the accelerations
        config = FlowConfig(m=2, sign=POS, s=1.0)
        a = rhs(config, state(x=x, y=y, xp=xp, yp=yp))
        b = rhs(config, state(x=y, y=x, xp=yp, yp=xp))
        assert a[0] == b[1] and a[1] == b[0]


class TestFirstIntegral:
    @pytest.mark.parametrize(
        "config",
        [
            FlowConfig(m=2, sign=POS, s=2.0),
            FlowConfig(m=2, sign=NEG, s=1.0),
            FlowConfig(m=3, sign=POS, s=1.1),
        ],
    )
    def test_vanishes_on_initial_data(self, config):
        s0 = initial_state(config)
        xpp, ypp = rhs(config, s0)
        assert abs(first_integral_residual(s0.xp, s0.yp, xpp, ypp)) <= 1e-13

    def test_stays_small_along_oracle_trajectory(self):
        # state sampled at t = 5 from a fixed-step integration
        config = FlowConfig(m=3, sign=POS, s=1.1)
        traj = integrate_oracle(config, 1e-4, 5.0)
        final = traj.final_state()
        xpp, ypp = rhs(config, final)
        assert abs(first_integral_residual(final.xp, final.yp, xpp, ypp)) <= 1e-9


class TestObservables:
    def test_positive_initial_constraint(self):
        config = FlowConfig(m=2, sign=POS, s=2.0)
        obs = observables(config, initial_state(config))
        assert obs.tau == 0.0
        assert obs.sigma_sq == 0.0
        assert obs.scalar_curv == pytest.approx(12.0, abs=1e-12)
        assert abs(obs.ham_residual) <= 1e-12

    def test_negative_initial_constraint(self):
        config = FlowConfig(m=2, sign=NEG, s=1.0)
        obs = observables(config, initial_state(config))
        assert obs.tau == pytest.approx(-4.0 * SQRT2, rel=1e-15)
        assert obs.sigma_sq == 0.0
        assert obs.scalar_curv == pytest.approx(-12.0, abs=1e-12)
        assert abs(obs.ham_residual) <= 1e-12

    def test_h_red_constant_on_closed_form_background(self):
        # a = b = sinh(t + asinh 1) gives H = n^(n/2) * vol_m * vol_n for
        # every t: the equality case of the monotonicity statement
        config = FlowConfig(m=2, sign=NEG, s=1.0, vol_m=1.5, vol_n=2.0)
        c = math.asinh(1.0)
        # tolerance tracks the conditioning of the input state itself: the
        # rounding of coth(u) is amplified by 1/(coth(u) - 1) ~ e^(2u)/2
        for t in [0.0, 0.3, 1.0, 2.5, 5.0, 8.0]:
            u = t + c
            st_ = state(
                x=math.log(math.sinh(u)),
                y=math.log(math.sinh(u)),
                xp=math.cosh(u) / math.sinh(u),
                yp=math.cosh(u) / math.sinh(u),
                t=t,
            )
            obs = observables(config, st_)
            tol = max(1e-12, 2.0 * math.exp(2.0 * u) * 2.3e-16)
            assert obs.h_red == pytest.approx(16.0 * 1.5 * 2.0, rel=tol)

    def test_h_red_branch_selection(self):
        config = FlowConfig(m=2, sign=POS, s=1.0)
        # tau = -m(xp + yp); n = 4
        inside = observables(config, state(xp=0.5, yp=0.5))  # tau = -2
        outside = observables(config, state(xp=3.0, yp=3.0))  # tau = -12
        boundary = observables(config, state(xp=1.0, yp=1.0))  # tau = -4 = -n
        assert inside.h_red is not None
        assert outside.h_red is not None
        assert boundary.h_red is None
        # H+ at tau = 0 equals n^(n/2) * volume
        at_zero = observables(config, state())
        assert at_zero.h_red == pytest.approx(16.0, rel=1e-13)

    def test_sigma_vanishes_iff_velocities_match(self):
        config = FlowConfig(m=2, sign=POS, s=1.0)
        assert observables(config, state(xp=1.3, yp=1.3)).sigma_sq == 0.0
        assert observables(config, state(xp=1.3, yp=1.2)).sigma_sq > 0.0

    @given(
        m=st.integers(min_value=1, max_value=4),
        sign=st.sampled_from([NEG, POS]),
        s=st.floats(min_value=0.51, max_value=8.0),
        x=st.floats(min_value=-4.0, max_value=6.0),
        y=st.floats(min_value=-4.0, max_value=6.0),
        xp=st.floats(min_value=-20.0, max_value=20.0),
        yp=st.floats(min_value=-20.0, max_value=20.0),
    )
    @settings(max_examples=300)
    def test_residual_identity_for_arbitrary_states(self, m, sign, s, x, y, xp, yp):
        # x'' + y'' + x'^2 + y'^2 - 2 = -(2/n) * (constraint residual) holds
        # pointwise, tying the derived tau, |Sigma|^2 and R formulas to the
        # evolution equations off the constraint manifold as well
        config = FlowConfig(m=m, sign=sign, s=s)
        st_ = state(x=x, y=y, xp=xp, yp=yp)
        obs = observables(config, st_)
        lhs = first_integral_residual(xp, yp, *rhs(config, st_))
        rhs_ = -(2.0 / config.n) * obs.ham_residual
        assert lhs == pytest.approx(rhs_, abs=1e-10 * (1.0 + abs(obs.ham_residual)))


class TestLimitVolumeRatio:
    def test_symmetric_case(self):
        assert limit_volume_ratio(FlowConfig(m=2, sign=POS, s=1.0), 0.0) == 1.0

    def test_volume_scaling(self):
        config = FlowConfig(m=1, sign=POS, s=2.0, vol_m=2.0, vol_n=1.0)
        assert limit_volume_ratio(config, 0.0) == pytest.approx(
            2.0 * math.sqrt(3.0), rel=1e-14
        )

    def test_exponent_in_limit(self):
        config = FlowConfig(m=2, sign=POS, s=1.3)
        L = 0.7
        assert limit_volume_ratio(config, L) == pytest.approx(
            math.exp(2.0 * L) * 1.6, rel=1e-13
        )

    def test_saturates_past_double_range(self):
        # e^(2 * 400) is past the double range; a finite limit is valid input
        config = FlowConfig(m=2, sign=POS, s=1.3)
        assert limit_volume_ratio(config, 400.0) == math.inf

    def test_power_past_double_range(self):
        # (2s - 1)^(m/2) = (2e200)^2 overflows, though the input is finite;
        # the ratio saturates, unless e^(mL) brings it back into range
        config = FlowConfig(m=4, sign=POS, s=1e200)
        assert limit_volume_ratio(config, 0.0) == math.inf
        assert limit_volume_ratio(config, -1000.0) == 0.0
        # e^(-800) (2e200)^2 = 4 e^(400 ln 10 - 800)
        assert limit_volume_ratio(config, -200.0) == pytest.approx(
            4.0 * math.exp(400.0 * math.log(10.0) - 800.0), rel=1e-12
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            limit_volume_ratio(FlowConfig(m=2, sign=POS, s=1.3), math.inf)
