"""Tests for the adaptive integrator, the fixed-step oracle and events."""

import importlib
import math

import pytest

from cmcflow.background import CurvatureSign
from cmcflow.integrate import (
    BLOW_UP_EVENT,
    REACHED_HORIZON,
    STEP_SIZE_COLLAPSE,
    EventSpec,
    IntegratorSettings,
    TimeSymmetryError,
    backward_integrate,
    integrate,
    integrate_oracle,
)
from cmcflow.products import FlowConfig

NEG = CurvatureSign.NEGATIVE
POS = CurvatureSign.POSITIVE

# Blow-up time of the n=4, s=2 positive run, frozen from the fixed-step
# oracle at dt = 1e-4 (adaptive agrees to ~7e-11).
T_BLOWUP_S2 = 1.4056010230
T_BLOWUP_S3 = 1.0907820635


class TestValidation:
    def test_settings(self):
        with pytest.raises(ValueError):
            IntegratorSettings(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorSettings(min_step=0.5, max_step=0.1)
        with pytest.raises(ValueError):
            IntegratorSettings(t_max=-1.0)
        with pytest.raises(ValueError):
            IntegratorSettings(output_dt=0.0)

    def test_infinite_horizon_rejected(self):
        # an infinite horizon on a complete trajectory would never return
        with pytest.raises(ValueError):
            IntegratorSettings(t_max=math.inf)
        with pytest.raises(ValueError):
            integrate_oracle(FlowConfig(m=2, sign=POS, s=1.0), 1e-3, math.inf)

    def test_events(self):
        with pytest.raises(ValueError):
            EventSpec(y_floor=0.5)
        with pytest.raises(ValueError):
            EventSpec(velocity_floor=1.0)


class TestClosedForms:
    @pytest.mark.parametrize("m", [1, 2])
    def test_desitter_recovery(self, m):
        config = FlowConfig(m=m, sign=POS, s=1.0)
        traj = integrate(config, IntegratorSettings(t_max=10.0))
        assert traj.termination.kind == REACHED_HORIZON
        err = max(
            abs(st.x - math.log(math.cosh(st.t))) for st in traj.states()
        )
        assert err <= 1e-8
        # the two factors stay identical bitwise under the symmetric
        # coupling, so the tracefree part vanishes identically
        assert all(st.x == st.y for st in traj.states())
        assert all(obs.sigma_sq == 0.0 for _, obs in traj.samples)

    def test_negative_background_recovery(self):
        config = FlowConfig(m=2, sign=NEG, s=1.0)
        traj = integrate(config, IntegratorSettings(t_max=10.0))
        c = math.asinh(1.0)
        err = max(
            abs(st.x - math.log(math.sinh(st.t + c))) for st in traj.states()
        )
        assert err <= 1e-8

    def test_oracle_closed_form(self):
        config = FlowConfig(m=1, sign=POS, s=1.0)
        traj = integrate_oracle(config, 1e-3, 5.0)
        final = traj.final_state()
        assert final.t == pytest.approx(5.0, abs=1e-12)
        assert abs(final.x - math.log(math.cosh(final.t))) <= 1e-8

    def test_boundary_coupling_keeps_second_factor_flat(self):
        config = FlowConfig(m=2, sign=POS, s=1.5)
        traj = integrate_oracle(config, 1e-3, 30.0)
        assert max(abs(st.y) for st in traj.states()) <= 1e-8


class TestSampling:
    def test_samples_on_output_grid(self):
        config = FlowConfig(m=2, sign=POS, s=1.2)
        traj = integrate(config, IntegratorSettings(t_max=3.0, output_dt=0.25))
        ts = [st.t for st in traj.states()]
        assert ts[0] == 0.0
        assert ts[-1] == 3.0
        for k, t in enumerate(ts[:-1]):
            assert t == k * 0.25

    def test_strictly_increasing_and_termination_consistent(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        for traj in (integrate(config), integrate_oracle(config, 1e-3, 50.0)):
            ts = [st.t for st in traj.states()]
            assert all(b > a for a, b in zip(ts, ts[1:]))
            assert traj.termination.kind == BLOW_UP_EVENT
            assert ts[-1] == traj.termination.t_event

    def test_horizon_not_on_grid_still_sampled(self):
        config = FlowConfig(m=2, sign=POS, s=1.0)
        traj = integrate(config, IntegratorSettings(t_max=1.03, output_dt=0.5))
        ts = [st.t for st in traj.states()]
        assert ts == [0.0, 0.5, 1.0, 1.03]


class TestEvents:
    def test_velocity_floor_blowup(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        traj = integrate(config)
        term = traj.termination
        assert term.kind == BLOW_UP_EVENT
        assert term.trigger == "velocity_floor"
        assert term.t_event == pytest.approx(T_BLOWUP_S3, abs=1e-6)
        # located to 1e-10 in t; the crossing is steep (|v'| ~ 2e4), so the
        # velocity at the reported time sits within |v'| * 1e-10 plus the
        # bisection's one-sided bias of the floor
        final = traj.final_state()
        assert final.xp + final.yp == pytest.approx(-100.0, abs=1e-5)
        assert final.xp + final.yp <= -100.0

    def test_y_floor_trigger(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        events = EventSpec(y_floor=-5.0, velocity_floor=-1e9)
        traj = integrate(config, events=events)
        term = traj.termination
        assert term.kind == BLOW_UP_EVENT
        assert term.trigger == "y_floor"
        assert traj.final_state().y == pytest.approx(-5.0, abs=1e-6)
        assert traj.final_state().y <= -5.0

    def test_earlier_trigger_wins(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        t_vel = integrate(config, events=EventSpec(y_floor=-1e6,
                                                   velocity_floor=-20.0))
        t_y = integrate(config, events=EventSpec(y_floor=-5.0,
                                                 velocity_floor=-1e9))
        both = integrate(config, events=EventSpec(y_floor=-5.0,
                                                  velocity_floor=-20.0))
        assert t_vel.termination.t_event < t_y.termination.t_event
        assert both.termination.trigger == "velocity_floor"
        assert both.termination.t_event == t_vel.termination.t_event

    def test_event_agreement_with_oracle(self):
        for s in (2.0, 3.0, 5.0):
            config = FlowConfig(m=2, sign=POS, s=s)
            t_adaptive = integrate(config).termination.t_event
            t_oracle = integrate_oracle(config, 1e-4, 50.0).termination.t_event
            assert abs(t_adaptive - t_oracle) <= 1e-5

    def test_oracle_overflow_conversion(self):
        # a huge fixed step jumps past the representable range in one go and
        # must come back as a blow-up signal, not an exception
        config = FlowConfig(m=2, sign=POS, s=5.0)
        traj = integrate_oracle(
            config, 0.5, 10.0, EventSpec(y_floor=-1e6, velocity_floor=-1e6)
        )
        assert traj.termination.kind == BLOW_UP_EVENT
        assert traj.termination.trigger == "overflow"


class TestStepSizeCollapse:
    def test_reported_not_reclassified(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        settings = IntegratorSettings(
            rel_tol=1e-13, abs_tol=1e-14, min_step=0.2, max_step=0.5, t_max=50.0
        )
        traj = integrate(config, settings)
        assert traj.termination.kind == STEP_SIZE_COLLAPSE
        assert traj.termination.t_last is not None

    def test_deep_dive_collapses_at_min_step(self):
        # with the floors out of reach the singularity exhausts min_step
        config = FlowConfig(m=2, sign=POS, s=3.0)
        traj = integrate(
            config,
            IntegratorSettings(t_max=50.0),
            EventSpec(y_floor=-1e12, velocity_floor=-1e300),
        )
        assert traj.termination.kind == STEP_SIZE_COLLAPSE
        # the collapse point is the singularity itself, a hair after the
        # default velocity-floor crossing (floor -100 fires ~2/(n*100)
        # ahead of the pole)
        assert 0.0 < traj.termination.t_last - T_BLOWUP_S3 < 1e-2


class TestBackward:
    def test_requires_time_symmetry(self):
        with pytest.raises(TimeSymmetryError):
            backward_integrate(FlowConfig(m=2, sign=NEG, s=1.0))

    def test_closed_form(self):
        config = FlowConfig(m=2, sign=POS, s=1.0)
        traj = backward_integrate(config, IntegratorSettings(t_max=3.0))
        final = traj.final_state()
        assert final.t == -3.0
        assert abs(final.x - math.log(math.cosh(3.0))) <= 1e-8

    def test_blowup_time_mirrors(self):
        config = FlowConfig(m=2, sign=POS, s=2.0)
        fwd = integrate(config).termination.t_event
        bwd = backward_integrate(config).termination.t_event
        assert fwd == pytest.approx(T_BLOWUP_S2, abs=1e-6)
        assert abs(bwd + fwd) <= 1e-8

    def test_state_symmetry_on_grid(self):
        config = FlowConfig(m=3, sign=POS, s=1.1)
        settings = IntegratorSettings(t_max=8.0)
        fwd = {st.t: st for st in integrate(config, settings).states()}
        bwd = backward_integrate(config, settings).states()
        matched = 0
        for st in bwd:
            if -st.t in fwd:
                mirror = fwd[-st.t]
                assert abs(st.x - mirror.x) <= 1e-8
                assert abs(st.y - mirror.y) <= 1e-8
                assert abs(st.xp + mirror.xp) <= 1e-8
                matched += 1
        assert matched >= 50


class TestQualitativeBehavior:
    def test_runaway_coupling_velocity_signs(self):
        # above the upper threshold the large factor keeps expanding while
        # the small one contracts, all the way to the blow-up event
        config = FlowConfig(m=2, sign=POS, s=3.0)
        traj = integrate(config)
        assert traj.termination.kind == BLOW_UP_EVENT
        for st in traj.states():
            if st.t > 0.0:
                assert st.xp > 0.0
                assert st.yp < 0.0

    def test_equilibrium_coupling_both_expand(self):
        config = FlowConfig(m=2, sign=POS, s=1.3)
        traj = integrate(config, IntegratorSettings(t_max=30.0))
        assert traj.termination.kind == REACHED_HORIZON
        for st in traj.states():
            if st.t > 0.0:
                assert st.xp > 0.0 and st.yp > 0.0
                assert 0.0 < st.xp + st.yp < 4.0

    def test_gauge_ranges_along_trajectories(self):
        # negative products stay on the expanding branch tau < -n; positive
        # products start at tau = 0
        config = FlowConfig(m=2, sign=NEG, s=1.7)
        traj = integrate(config, IntegratorSettings(t_max=30.0))
        for _, obs in traj.samples:
            assert obs.tau < -4.0
        config = FlowConfig(m=2, sign=POS, s=1.2)
        traj = integrate(config, IntegratorSettings(t_max=5.0))
        assert traj.samples[0][1].tau == 0.0

    def test_minimal_dimension_symmetric_coupling_complete(self):
        traj = integrate(FlowConfig(m=1, sign=POS, s=1.0))
        assert traj.termination.kind == REACHED_HORIZON


class TestDeterminismAndConvergence:
    def test_bit_identical_reruns(self):
        config = FlowConfig(m=2, sign=POS, s=1.3)
        settings = IntegratorSettings(t_max=12.0)
        a = integrate(config, settings)
        b = integrate(config, settings)
        assert len(a.samples) == len(b.samples)
        for (sa, oa), (sb, ob) in zip(a.samples, b.samples):
            assert (sa.t, sa.x, sa.y, sa.xp, sa.yp) == (
                sb.t, sb.x, sb.y, sb.xp, sb.yp
            )
            assert oa.ham_residual == ob.ham_residual
        assert a.termination == b.termination

    def test_oracle_agreement(self):
        config = FlowConfig(m=2, sign=POS, s=1.2)
        adaptive = integrate(config, IntegratorSettings(t_max=20.0))
        oracle = integrate_oracle(config, 1e-4, 20.0)
        assert len(adaptive.samples) == len(oracle.samples)
        dev = 0.0
        for a, o in zip(adaptive.states(), oracle.states()):
            assert abs(a.t - o.t) <= 1e-9
            dev = max(
                dev,
                abs(a.x - o.x), abs(a.y - o.y),
                abs(a.xp - o.xp), abs(a.yp - o.yp),
            )
        assert dev <= 1e-6

    def test_halving_tolerance_never_increases_deviation(self):
        config = FlowConfig(m=2, sign=POS, s=1.2)
        oracle = integrate_oracle(config, 1e-3, 10.0).states()

        def deviation(rel_tol):
            settings = IntegratorSettings(
                rel_tol=rel_tol, abs_tol=1e-14, max_step=0.5, t_max=10.0
            )
            dev = 0.0
            for a, o in zip(integrate(config, settings).states(), oracle):
                dev = max(
                    dev,
                    abs(a.x - o.x), abs(a.y - o.y),
                    abs(a.xp - o.xp), abs(a.yp - o.yp),
                )
            return dev

        tol = 1e-6
        devs = []
        for _ in range(9):
            devs.append(deviation(tol))
            tol *= 0.5
        assert all(b <= a for a, b in zip(devs, devs[1:]))

    def test_first_integral_drift_over_long_horizon(self):
        for s in (1.1, 1.2, 1.4):
            config = FlowConfig(m=2, sign=POS, s=s)
            traj = integrate(config, IntegratorSettings(t_max=50.0))
            assert traj.termination.kind == REACHED_HORIZON
            assert traj.max_first_integral_residual <= 1e-7


class TestOracleCounters:
    # 1/64 divides the horizon exactly; 0.3 leaves a shorter last step.
    @pytest.mark.parametrize("dt", [1.0 / 64.0, 0.3])
    def test_n_accepted_counts_steps(self, dt):
        traj = integrate_oracle(FlowConfig(m=2, sign=POS, s=1.2), dt, 2.0)
        assert traj.termination.kind == REACHED_HORIZON
        assert traj.n_accepted == math.ceil(2.0 / dt)

    def test_four_rhs_calls_per_step(self, monkeypatch):
        module = importlib.import_module("cmcflow.integrate")
        real = module.derivatives
        calls = 0

        def counting_derivatives(config):
            f = real(config)

            def counted(t, u):
                nonlocal calls
                calls += 1
                return f(t, u)

            return counted

        monkeypatch.setattr(module, "derivatives", counting_derivatives)
        traj = integrate_oracle(FlowConfig(m=2, sign=POS, s=1.2), 1.0 / 64.0, 2.0)
        assert traj.n_accepted == 128
        # one closing evaluation gives the first-integral residual at t_max
        assert calls == 4 * 128 + 1


def _fingerprint(traj):
    st = traj.final_state()
    t_event = traj.termination.t_event
    return (
        tuple(v.hex() for v in (st.t, st.x, st.y, st.xp, st.yp)),
        None if t_event is None else t_event.hex(),
        traj.n_accepted,
        traj.n_rejected,
        traj.max_first_integral_residual.hex(),
        traj.max_ham_residual.hex(),
    )


# Bit patterns of the final state (t, x, y, x', y'), t_event, accepted and
# rejected steps, and the first-integral and constraint residual maxima.  A
# change to the stage arithmetic of either stepper that alters the operand
# order or association of any sum changes at least one of them.
GOLDEN = {
    "integrate-pos-1.3": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=1.3),
                          IntegratorSettings(t_max=20.0)),
        (("0x1.4000000000000p+4", "0x1.3de59a7026e68p+4",
          "0x1.2868b98e20ab8p+4", "0x1.0000000000004p+0",
          "0x1.ffffffffffffap-1"),
         None, 793, 1, "0x1.46b8600000000p-32", "0x1.0bfa000000000p-31"),
    ),
    "integrate-neg-1.3": (
        lambda: integrate(FlowConfig(m=2, sign=NEG, s=1.3),
                          IntegratorSettings(t_max=20.0)),
        (("0x1.4000000000000p+4", "0x1.4227c91d9c88ap+4",
          "0x1.43d600beb1a7cp+4", "0x1.0000000000002p+0",
          "0x1.0000000000002p+0"),
         None, 752, 2, "0x1.8f1db00000000p-32", "0x1.5ab3000000000p-31"),
    ),
    # the velocity floor is located on the dense output
    "integrate-pos-2.0-blowup": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=2.0)),
        (("0x1.67d577f8b883ap+0", "0x1.327ef1a1f21b3p+1",
          "-0x1.8754a30cdc9b7p+1", "0x1.5235776ec8fa1p+5",
          "-0x1.1c8d5de0e845ap+7"),
         "0x1.67d577f8b883ap+0", 261, 1,
         "0x1.5915800000000p-21", "0x1.f126800000000p-21"),
    ),
    "backward-pos-2.0-blowup": (
        lambda: backward_integrate(FlowConfig(m=2, sign=POS, s=2.0)),
        (("-0x1.67d577f8b883ap+0", "0x1.327ef1a1f21b3p+1",
          "-0x1.8754a30cdc9b7p+1", "-0x1.5235776ec8fa1p+5",
          "0x1.1c8d5de0e845ap+7"),
         "-0x1.67d577f8b883ap+0", 261, 1,
         "0x1.5915800000000p-21", "0x1.f126800000000p-21"),
    ),
    "oracle-pos-1.3": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=1.3), 1e-3, 5.0),
        (("0x1.4000000000000p+2", "0x1.37926e32cdd5dp+2",
          "0x1.c356ddc2a32f6p+1", "0x1.001fc5290a891p+0",
          "0x1.ff77af1020e5cp-1"),
         None, 5000, 0, "0x1.38c0000000000p-39", "0x1.37e0000000000p-38"),
    ),
    "oracle-pos-2.0-blowup": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=2.0), 1e-3, 5.0),
        (("0x1.67d5792d0e560p+0", "0x1.327ee314060e4p+1",
          "-0x1.87546cfde0685p+1", "0x1.52354a6ca94a9p+5",
          "-0x1.1c8d52b5fc9c4p+7"),
         "0x1.67d5792d0e560p+0", 1405, 0,
         "0x1.0b4c41b400000p-8", "0x1.69fcd2e800000p-7"),
    ),
}


class TestGoldenBits:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fingerprint(self, name):
        run, expected = GOLDEN[name]
        assert _fingerprint(run()) == expected
