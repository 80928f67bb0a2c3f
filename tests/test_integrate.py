"""Tests for the adaptive integrator, the fixed-step oracle and events."""

import dis
import hashlib
import importlib
import json
import math
from dataclasses import astuple, replace

import pytest
from hypothesis import given, strategies as st

from cmcflow import experiments
from cmcflow.background import CurvatureSign
from cmcflow.cli import main
from cmcflow.experiments import (
    PROBE_ABS_TOL,
    PROBE_REL_TOL,
    RECOLLAPSE_V0,
    RUN_MAX_STEP,
    VERDICT_COMPLETE,
    VERDICT_RECOLLAPSE,
    _probe_verdict,
    _screen,
    bisect_critical,
    classify,
    in_completeness_region,
    limit_Cs,
    recollapse_time_bound,
    sweep,
    thresholds,
)
from cmcflow.integrate import (
    BLOW_UP_EVENT,
    REACHED_HORIZON,
    STEP_SIZE_COLLAPSE,
    TRIGGER_OVERFLOW,
    TRIGGER_VELOCITY_FLOOR,
    TRIGGER_Y_FLOOR,
    EventSpec,
    IntegratorSettings,
    Termination,
    TimeSymmetryError,
    _event_functions,
    backward_integrate,
    integrate,
    integrate_oracle,
)
from cmcflow.products import (
    OVERFLOW_FLOOR,
    FlowConfig,
    FlowState,
    constraint_terms,
    derivatives,
    first_integral_residual,
    initial_state,
)

NEG = CurvatureSign.NEGATIVE
POS = CurvatureSign.POSITIVE
NO_FLOORS = EventSpec(y_floor=-math.inf, velocity_floor=-math.inf)
# The velocity floor far out of reach, so that only the y floor can fire.
Y_FLOOR_ONLY = EventSpec(y_floor=-1.0, velocity_floor=-1e6)


def _probe(config, settings, events=None):
    """A bisection probe with the screen bisect_critical builds for it."""
    return _probe_verdict(config, settings, events, _screen(settings, events))


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

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1e-10])
    def test_tolerances_must_be_positive_and_finite(self, field, value):
        # At rel_tol = inf a component that stays at exactly 0 gets the
        # error scale abs_tol + inf * 0 = nan, and every step is rejected.
        with pytest.raises(ValueError) as exc:
            IntegratorSettings(**{field: value})
        assert str(exc.value) == "tolerances must be positive and finite"

    def test_infinite_horizon_rejected(self):
        # an infinite horizon on a complete trajectory would never return
        with pytest.raises(ValueError):
            IntegratorSettings(t_max=math.inf)
        with pytest.raises(ValueError):
            integrate_oracle(FlowConfig(m=2, sign=POS, s=1.0), 1e-3, math.inf)

    def test_oracle_step_must_be_positive(self):
        # An infinite step would cross the whole horizon in one step.
        for dt in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError,
                               match="dt must be positive and finite"):
                integrate_oracle(FlowConfig(m=2, sign=NEG, s=1.3), dt, 5.0)

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
            abs(st.x - math.log(math.cosh(st.t))) for st in traj.samples
        )
        assert err <= 1e-8
        # the two factors stay identical bitwise under the symmetric
        # coupling, so the tracefree part vanishes identically
        assert all(st.x == st.y for st in traj.samples)
        assert all(obs.sigma_sq == 0.0 for obs in traj.observables)

    def test_negative_background_recovery(self):
        config = FlowConfig(m=2, sign=NEG, s=1.0)
        traj = integrate(config, IntegratorSettings(t_max=10.0))
        c = math.asinh(1.0)
        err = max(
            abs(st.x - math.log(math.sinh(st.t + c))) for st in traj.samples
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
        assert max(abs(st.y) for st in traj.samples) <= 1e-8


class TestSampling:
    def test_samples_on_output_grid(self):
        config = FlowConfig(m=2, sign=POS, s=1.2)
        traj = integrate(config, IntegratorSettings(t_max=3.0, output_dt=0.25))
        assert isinstance(traj.samples, tuple)
        ts = [st.t for st in traj.samples]
        assert ts[0] == 0.0
        assert ts[-1] == 3.0
        for k, t in enumerate(ts[:-1]):
            assert t == k * 0.25

    @pytest.mark.parametrize("output_dt, count", [(0.1, 501), (0.07, 716)])
    def test_grid_times_are_whole_multiples(self, output_dt, count):
        # Grid time k is k * output_dt, computed for each k: a running sum
        # of output_dt drifts off it, at 488 of the 500 grid times past 0
        # at 0.1, and 699 of 714 at 0.07.
        traj = integrate(FlowConfig(m=2, sign=POS, s=1.2),
                         IntegratorSettings(max_step=RUN_MAX_STEP, t_max=50.0,
                                            output_dt=output_dt))
        assert traj.termination.kind == REACHED_HORIZON
        ts = [st.t for st in traj.samples]
        assert len(ts) == count
        assert ts[-1] == 50.0
        # The terminal state is a grid sample only where t_max is on the grid.
        on_grid = ts if ts[-1] == (count - 1) * output_dt else ts[:-1]
        assert on_grid == [k * output_dt for k in range(len(on_grid))]

    def test_strictly_increasing_and_termination_consistent(self):
        config = FlowConfig(m=2, sign=POS, s=3.0)
        for traj in (integrate(config), integrate_oracle(config, 1e-3, 50.0)):
            ts = [st.t for st in traj.samples]
            assert all(b > a for a, b in zip(ts, ts[1:]))
            assert traj.termination.kind == BLOW_UP_EVENT
            assert ts[-1] == traj.termination.t_event

    def test_horizon_not_on_grid_still_sampled(self):
        config = FlowConfig(m=2, sign=POS, s=1.0)
        traj = integrate(config, IntegratorSettings(t_max=1.03, output_dt=0.5))
        ts = [st.t for st in traj.samples]
        assert ts == [0.0, 0.5, 1.0, 1.03]

    @pytest.mark.parametrize(
        "m, sign, s, settings, events, kind, trigger",
        [
            (2, POS, 1.3, dict(t_max=20.0), None, REACHED_HORIZON, None),
            (2, NEG, 1.3, dict(t_max=7.3), None, REACHED_HORIZON, None),
            (2, POS, 2.0, {}, None, BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR),
            (2, POS, 3.0, {}, EventSpec(y_floor=-5.0, velocity_floor=-1e9),
             BLOW_UP_EVENT, TRIGGER_Y_FLOOR),
            # Both floors fire in one step; the earlier crossing is kept.
            (2, POS, 3.0, {}, EventSpec(y_floor=-5.0, velocity_floor=-20.0),
             BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR),
            (2, POS, 3.0, dict(rel_tol=1e-1, abs_tol=1e-1, t_max=20.0), None,
             BLOW_UP_EVENT, TRIGGER_OVERFLOW),
            (2, POS, 3.0, {}, EventSpec(y_floor=-1e12, velocity_floor=-1e300),
             STEP_SIZE_COLLAPSE, None),
        ],
    )
    def test_sampling_never_changes_stepping(
            self, m, sign, s, settings, events, kind, trigger):
        # The continuous extension is built only on steps that hold a grid
        # point or a fired floor; the steps themselves never depend on it.
        config = FlowConfig(m=m, sign=sign, s=s)
        runs = {dt: integrate(config,
                              IntegratorSettings(output_dt=dt, **settings),
                              events)
                for dt in (0.1, 0.07, 0.5, math.inf)}

        def stepping(traj):
            return (traj.termination, traj.n_accepted, traj.n_rejected,
                    traj.max_first_integral_residual.hex())

        def bits(traj):
            return {st.t: [v.hex() for v in astuple(st)] for st in traj.samples}

        ref = runs[0.1]
        assert (ref.termination.kind, ref.termination.trigger) == (kind,
                                                                   trigger)
        for dt, traj in runs.items():
            assert stepping(traj) == stepping(ref), dt
            ref_bits, own = bits(ref), bits(traj)
            shared = ref_bits.keys() & own.keys()
            assert {t: own[t] for t in shared} == {
                t: ref_bits[t] for t in shared}, dt
        # 1.0 lies on both grids, and every run passes it.
        assert 1.0 in bits(ref).keys() & bits(runs[0.5]).keys()
        assert runs[math.inf].samples == (ref.samples[0], ref.samples[-1])

    # The oracle samples every round(0.1 / dt) steps, which lands on the 0.1
    # grid only when dt divides 0.1.
    @pytest.mark.parametrize(
        "dt, k, spacing",
        [(4e-3, 25, 0.1), (8e-3, 12, 0.096), (1.6e-2, 6, 0.096), (3e-2, 3, 0.09)],
    )
    def test_oracle_samples_every_k_steps(self, dt, k, spacing):
        traj = integrate_oracle(FlowConfig(m=2, sign=POS, s=1.2), dt, 1.0)
        ts = [st.t for st in traj.samples]
        assert ts[-1] == 1.0
        assert ts[:-1] == [(j * k) * dt for j in range(len(ts) - 1)]
        assert len(ts) - 1 == math.ceil(math.ceil(1.0 / dt) / k)
        assert k * dt == pytest.approx(spacing, rel=1e-12)


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

    @pytest.mark.parametrize("stepper", ["dp5", "oracle"])
    @pytest.mark.parametrize("trigger, m, s, events", [
        (TRIGGER_Y_FLOOR, 2, 3.0, Y_FLOOR_ONLY),
        (TRIGGER_VELOCITY_FLOOR, 3, 0.7,
         EventSpec(y_floor=-math.inf, velocity_floor=-100.0)),
    ])
    def test_each_floor_fires_alone(self, stepper, trigger, m, s, events):
        # Both step loops write the floor tests out; here each floor fires
        # on its own, and the shared _event_functions agree: every g is
        # positive at every sample before the last, and at the last only
        # the reported trigger's g has crossed.
        config = FlowConfig(m=m, sign=POS, s=s)
        if stepper == "dp5":
            traj = integrate(config, IntegratorSettings(**_CAPPED), events)
        else:
            traj = integrate_oracle(config, experiments.ORACLE_DT, 50.0, events)
        assert traj.termination.trigger == trigger
        *before, last = ((st.x, st.y, st.xp, st.yp) for st in traj.samples)
        for name, g in _event_functions(events):
            assert all(g(u) > 0.0 for u in before)
            assert (g(last) <= 0.0) == (name == trigger)

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

    def test_floors_at_minus_inf_never_fire(self):
        # The last step ends at x' + y' = -inf.  The velocity test is
        # (x' + y') - floor <= 0, as in _event_functions: -inf - -inf is NaN
        # and does not fire, where x' + y' <= floor would.
        traj = integrate_oracle(FlowConfig(m=3, sign=NEG, s=5.0), 0.5, 20.0,
                                NO_FLOORS)
        last = traj.samples[-1]
        assert last.xp + last.yp == -math.inf
        assert traj.termination == Termination(
            BLOW_UP_EVENT, t_event=1.5, trigger=TRIGGER_OVERFLOW)

    def test_oracle_returns_on_state_past_double_range(self):
        # a coarse step reaches |x'+y'| ~ 1e133, where the reduced
        # Hamiltonian's power overflows; the recorder must still return
        traj = integrate_oracle(FlowConfig(m=3, sign=NEG, s=5.0), 0.5, 8.0)
        assert traj.termination.kind == BLOW_UP_EVENT
        assert traj.termination.trigger == "velocity_floor"
        assert traj.termination.t_event == 1.25
        assert traj.observables[-1].h_red == math.inf


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
        fwd = {st.t: st for st in integrate(config, settings).samples}
        bwd = backward_integrate(config, settings).samples
        matched = 0
        for st in bwd:
            if -st.t in fwd:
                mirror = fwd[-st.t]
                assert abs(st.x - mirror.x) <= 1e-8
                assert abs(st.y - mirror.y) <= 1e-8
                assert abs(st.xp + mirror.xp) <= 1e-8
                matched += 1
        assert matched >= 50

    @pytest.mark.parametrize(
        "m, s, settings, events, kind, trigger",
        [
            # The lower threshold (n - 1)/n: x' vanishes on every sample.
            (2, 0.75, IntegratorSettings(t_max=3.0), None,
             REACHED_HORIZON, None),
            (3, 5.0 / 6.0, IntegratorSettings(t_max=3.0), None,
             REACHED_HORIZON, None),
            (1, 1.3, IntegratorSettings(t_max=3.0), None,
             REACHED_HORIZON, None),
            # Horizons off the output grid.
            (2, 1.3, IntegratorSettings(t_max=7.3), None,
             REACHED_HORIZON, None),
            (3, 1.1, IntegratorSettings(t_max=1.05, output_dt=0.07), None,
             REACHED_HORIZON, None),
            (2, 2.0, None, None, BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR),
            (2, 3.0, None, EventSpec(y_floor=-1.0),
             BLOW_UP_EVENT, TRIGGER_Y_FLOOR),
            (2, 3.0, IntegratorSettings(rel_tol=1e-1, abs_tol=1e-1), None,
             BLOW_UP_EVENT, TRIGGER_OVERFLOW),
            (2, 3.0, IntegratorSettings(t_max=5.0),
             EventSpec(y_floor=-1e12, velocity_floor=-1e300),
             STEP_SIZE_COLLAPSE, None),
            # The first step is below min_step: the run collapses at t = 0.
            (2, 1.3, IntegratorSettings(t_max=8.0, min_step=0.02), None,
             STEP_SIZE_COLLAPSE, None),
        ],
    )
    def test_is_the_bitwise_reflection_of_the_forward_run(
            self, m, s, settings, events, kind, trigger):
        # Past the first sample t and the velocities change sign; a zero
        # velocity stays +0.0, as 0.0 - v leaves it and -v would not.
        config = FlowConfig(m=m, sign=POS, s=s)
        fwd = integrate(config, settings, events)
        bwd = backward_integrate(config, settings, events)
        assert (bwd.termination.kind, bwd.termination.trigger) == (kind,
                                                                    trigger)

        def bits(*values):
            return [None if v is None else float.hex(v) for v in values]

        first, *later = fwd.samples
        assert [bits(*astuple(st)) for st in bwd.samples] == [
            bits(*astuple(first)),
            *(bits(-st.t, st.x, st.y, 0.0 - st.xp, 0.0 - st.yp)
              for st in later),
        ]
        term = fwd.termination
        assert bits(bwd.termination.t_event, bwd.termination.t_last) == bits(
            None if term.t_event is None else 0.0 - term.t_event,
            None if term.t_last is None else 0.0 - term.t_last,
        )
        assert (bits(bwd.max_first_integral_residual), bwd.n_accepted,
                bwd.n_rejected) == (bits(fwd.max_first_integral_residual),
                                    fwd.n_accepted, fwd.n_rejected)


class TestQualitativeBehavior:
    def test_runaway_coupling_velocity_signs(self):
        # above the upper threshold the large factor keeps expanding while
        # the small one contracts, all the way to the blow-up event
        config = FlowConfig(m=2, sign=POS, s=3.0)
        traj = integrate(config)
        assert traj.termination.kind == BLOW_UP_EVENT
        for st in traj.samples:
            if st.t > 0.0:
                assert st.xp > 0.0
                assert st.yp < 0.0

    def test_equilibrium_coupling_both_expand(self):
        config = FlowConfig(m=2, sign=POS, s=1.3)
        traj = integrate(config, IntegratorSettings(t_max=30.0))
        assert traj.termination.kind == REACHED_HORIZON
        for st in traj.samples:
            if st.t > 0.0:
                assert st.xp > 0.0 and st.yp > 0.0
                assert 0.0 < st.xp + st.yp < 4.0

    def test_gauge_ranges_along_trajectories(self):
        # negative products stay on the expanding branch tau < -n; positive
        # products start at tau = 0
        config = FlowConfig(m=2, sign=NEG, s=1.7)
        traj = integrate(config, IntegratorSettings(t_max=30.0))
        for obs in traj.observables:
            assert obs.tau < -4.0
        config = FlowConfig(m=2, sign=POS, s=1.2)
        traj = integrate(config, IntegratorSettings(t_max=5.0))
        assert traj.observables[0].tau == 0.0

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
        pairs = zip(a.samples, b.samples, a.observables, b.observables)
        for sa, sb, oa, ob in pairs:
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
        for a, o in zip(adaptive.samples, oracle.samples):
            assert abs(a.t - o.t) <= 1e-9
            dev = max(
                dev,
                abs(a.x - o.x), abs(a.y - o.y),
                abs(a.xp - o.xp), abs(a.yp - o.yp),
            )
        assert dev <= 1e-6

    def test_halving_tolerance_never_increases_deviation(self):
        config = FlowConfig(m=2, sign=POS, s=1.2)
        oracle = integrate_oracle(config, 1e-3, 10.0).samples

        def deviation(rel_tol):
            settings = IntegratorSettings(
                rel_tol=rel_tol, abs_tol=1e-14, max_step=0.5, t_max=10.0
            )
            dev = 0.0
            for a, o in zip(integrate(config, settings).samples, oracle):
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


class TestGeometryBuiltOnRead:
    """The steppers record states; ``observables`` runs at the first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        module = importlib.import_module("cmcflow.integrate")
        real = module.observables
        states = []

        def counting_observables(config, state):
            states.append(state)
            return real(config, state)

        monkeypatch.setattr(module, "observables", counting_observables)
        return states

    # Runs whose constraint residuals span both signs of the curvature, a
    # recollapse, an inf residual (the oracle's end state lies past the
    # double range), a NaN residual at the end (skipped), gauge-boundary
    # samples with h_red None, a step-size collapse and a backward run.
    RUNS = {
        "positive": lambda: integrate(FlowConfig(m=2, sign=POS, s=1.2),
                                      IntegratorSettings(t_max=2.0)),
        "negative": lambda: integrate(FlowConfig(m=3, sign=NEG, s=0.7),
                                      IntegratorSettings(t_max=5.0)),
        "recollapse": lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0)),
        "inf-residual": lambda: integrate_oracle(
            FlowConfig(m=3, sign=NEG, s=5.0), 0.5, 8.0),
        "nan-residual": lambda: integrate_oracle(
            FlowConfig(m=3, sign=NEG, s=5.0), 0.5, 8.0,
            EventSpec(velocity_floor=-1e200)),
        "gauge-boundary": lambda: integrate(
            FlowConfig(m=2, sign=NEG, s=1.3),
            IntegratorSettings(max_step=RUN_MAX_STEP, t_max=50.0)),
        "collapse": lambda: integrate(
            FlowConfig(m=2, sign=POS, s=3.0), IntegratorSettings(t_max=50.0),
            EventSpec(y_floor=-1e12, velocity_floor=-1e300)),
        "backward": lambda: backward_integrate(
            FlowConfig(m=1, sign=POS, s=0.8), IntegratorSettings(t_max=3.0)),
    }

    @pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
    def test_read_twice_builds_once(self, built, run):
        # The monitor reads the residual of each sample without building
        # the geometry, and equals the maximum over the geometry bit for bit.
        traj = run()
        largest = traj.max_ham_residual
        assert built == []
        first = traj.observables
        assert traj.observables is first
        assert largest.hex() == max(abs(o.ham_residual) for o in first).hex()
        assert built == list(traj.samples)

    def test_bisection_builds_none(self, built):
        bisect_critical(4, POS, 1.4, 1.6, 1e-3, 30.0)
        assert built == []

    def test_limit_builds_none(self, built):
        limit_Cs(FlowConfig(m=2, sign=NEG, s=1.3), 10.0)
        assert built == []

    @pytest.mark.parametrize("with_limits", [True, False])
    def test_sweep_rows_build_none(self, built, with_limits):
        # A row's verdict reads only the constraint residual of its run.
        rows = sweep(4, NEG, [1.3, 2.0], 10.0, with_limits=with_limits)
        assert all((row.limit is not None) == with_limits for row in rows)
        assert built == []

    def test_classify_builds_none(self, built, capsys):
        classify(FlowConfig(m=2, sign=POS, s=3.0), 10.0)
        rc = main(["classify", "--n", "4", "--s", "1.3", "--curvature",
                   "negative", "--horizon", "10"])
        assert rc == 0
        diagnostics = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diagnostics["max_constraint_residual"] > 0.0
        assert built == []

    def test_simulate_builds_one_per_csv_row(self, built, capsys):
        # The CSV and the manifest's largest residual share one list.
        rc = main(["simulate", "--n", "4", "--s", "1", "--curvature",
                   "negative", "--t-max", "5"])
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rc == 0
        assert len(built) == len(rows) == 51


class TestOracleCounters:
    # 1/64 divides the horizon exactly; 0.3 leaves a shorter last step.
    @pytest.mark.parametrize("dt", [1.0 / 64.0, 0.3])
    def test_n_accepted_counts_steps(self, dt):
        traj = integrate_oracle(FlowConfig(m=2, sign=POS, s=1.2), dt, 2.0)
        assert traj.termination.kind == REACHED_HORIZON
        assert traj.n_accepted == math.ceil(2.0 / dt)

    def test_a_run_to_k_steps_ends_on_the_kth_state(self):
        # 120 * 8e-3 is 0.96, but 0.952 + 8e-3 rounds above it: the horizon
        # is tested on the step count, so the run takes 120 full steps and
        # ends bit for bit on the 120th state of a longer run, which is its
        # 11th sample.
        for config in (FlowConfig(m=2, sign=POS, s=1.2),
                       FlowConfig(m=3, sign=NEG, s=0.7)):
            short = integrate_oracle(config, 8e-3, 0.96)
            longer = integrate_oracle(config, 8e-3, 2.0)
            assert short.n_accepted == 120
            assert short.final_state() == longer.samples[10]
            assert short.samples == longer.samples[:11]

    def test_oracle_keeps_its_own_right_hand_side(self, monkeypatch):
        # The oracle steps, locates events and evaluates its first-integral
        # residual from its own copy of the right-hand side, and the limit's
        # settle rule reads the accelerations the oracle hands its hook, so
        # an error in derivatives cannot reach both sides of the
        # cross-check.  With derivatives unusable, every oracle run and
        # every _oracle_limit keeps its pinned bits.
        def unusable(config):
            raise AssertionError("the RK4 oracle called derivatives")

        runs = {name: entry for name, entry in GOLDEN.items()
                if name.startswith("oracle-")}
        runs.update((name, (run, expected[0]))
                    for name, (run, expected) in STEPPING_CORE.items()
                    if name.startswith("oracle-"))
        assert len(runs) == 8
        for module in ("cmcflow.integrate", "cmcflow.experiments"):
            monkeypatch.setattr(importlib.import_module(module), "derivatives",
                                unusable)
        for name, (run, expected) in runs.items():
            assert _fingerprint(run()) == expected, name
        for (config, horizon), pair in ORACLE_LIMITS.items():
            assert tuple(
                end.hex() for end in experiments._oracle_pair(config, horizon)
            ) == pair, (config, horizon)


class TestOracleUntil:
    # 11 samples fill the limit's settle window; the 126th sample is at
    # t = 12 at ORACLE_DT, the 84th at t = 7.968 at twice it.
    @pytest.mark.parametrize("dt, stop", [
        (experiments.ORACLE_DT, 11), (experiments.ORACLE_DT, 126),
        (2.0 * experiments.ORACLE_DT, 11), (2.0 * experiments.ORACLE_DT, 84),
    ])
    @pytest.mark.parametrize("config", [
        FlowConfig(m=2, sign=POS, s=1.2), FlowConfig(m=3, sign=NEG, s=0.7),
    ])
    def test_stopped_run_is_the_prefix_of_the_full_run(self, config, dt, stop):
        full = integrate_oracle(config, dt, 50.0)
        seen = []

        def until(samples, xpp, ypp):
            seen.append(len(samples))
            return len(samples) == stop

        stopped = integrate_oracle(config, dt, 50.0, until=until)
        assert seen == list(range(1, stop + 1))
        assert stopped.samples == full.samples[:stop]
        assert stopped.termination == Termination(REACHED_HORIZON)
        assert stopped.n_rejected == 0
        assert stopped.n_accepted == (stop - 1) * round(0.1 / dt)
        assert stopped.final_state().t == stopped.n_accepted * dt
        # The residuals at the step starts up to the stop, the last one
        # being the closing evaluation there: those of the run whose
        # horizon is that sample, which has the same step starts and the
        # same closing evaluation.
        ended = integrate_oracle(config, dt, stopped.n_accepted * dt)
        assert ended.final_state() == stopped.final_state()
        assert (stopped.max_first_integral_residual.hex()
                == ended.max_first_integral_residual.hex())

    def test_a_hook_that_never_accepts_changes_nothing(self):
        config = FlowConfig(m=2, sign=POS, s=1.2)
        full = integrate_oracle(config, experiments.ORACLE_DT, 20.0)
        assert integrate_oracle(config, experiments.ORACLE_DT, 20.0,
                                until=lambda samples, xpp, ypp: False) == full

    @pytest.mark.parametrize("config, dt, t_max, events", [
        (FlowConfig(m=2, sign=POS, s=1.2), experiments.ORACLE_DT, 12.0, None),
        (FlowConfig(m=1, sign=NEG, s=0.7), 2.0 * experiments.ORACLE_DT, 12.0,
         None),
        # the step from the last sample overflows
        (FlowConfig(m=2, sign=POS, s=5.0), 0.5, 10.0,
         EventSpec(y_floor=-1e6, velocity_floor=-1e6)),
    ])
    def test_hook_gets_the_accelerations_of_each_sample(self, config, dt,
                                                        t_max, events):
        offered = []

        def until(samples, xpp, ypp):
            offered.append((samples[-1], xpp.hex(), ypp.hex()))
            return False

        traj = integrate_oracle(config, dt, t_max, events, until=until)
        # Every sample before t_max is offered: all of them but the terminal
        # state at t_max, or all of them where a step overflowed.
        recorded = traj.samples
        if traj.termination.kind == REACHED_HORIZON:
            recorded = recorded[:-1]
        f = derivatives(config)
        expected = []
        for state in recorded:
            _, _, xpp, ypp = f(state.t, (state.x, state.y, state.xp, state.yp))
            expected.append((state, xpp.hex(), ypp.hex()))
        assert offered == expected

    def test_a_sample_whose_step_overflows_can_end_the_run(self):
        # The step from the third sample, at t = 1, leaves the double range.
        # A hook that accepts that sample ends the run there, at the horizon
        # rule's ReachedHorizon, as it would have ended before the step.
        config = FlowConfig(m=2, sign=POS, s=5.0)
        events = EventSpec(y_floor=-1e6, velocity_floor=-1e6)
        full = integrate_oracle(config, 0.5, 10.0, events)
        assert full.termination == Termination(
            BLOW_UP_EVENT, t_event=1.0, trigger=TRIGGER_OVERFLOW)
        stopped = integrate_oracle(config, 0.5, 10.0, events,
                                   until=lambda samples, xpp, ypp:
                                   len(samples) == 3)
        assert stopped.termination == Termination(REACHED_HORIZON)
        assert stopped.samples == full.samples
        assert (stopped.max_first_integral_residual.hex()
                == full.max_first_integral_residual.hex())

    def test_a_sample_past_the_overflow_floor_is_not_offered(self):
        # A coarse step lands at y = -3472, below the overflow floor, with
        # no floor to stop it; the step from there overflows at once.
        config = FlowConfig(m=2, sign=POS, s=3.0)
        offered = []

        def until(samples, xpp, ypp):
            offered.append(len(samples))
            return len(samples) == 4

        traj = integrate_oracle(config, 0.5, 20.0, NO_FLOORS, until=until)
        assert traj.samples[-1].y < OVERFLOW_FLOOR
        assert offered == [1, 2, 3]
        assert traj.termination == Termination(
            BLOW_UP_EVENT, t_event=1.5, trigger=TRIGGER_OVERFLOW)


class TestOracleWidening:
    # A hook may return a whole multiple of dt wider than the step in use;
    # the run steps by it from that sample on.
    @staticmethod
    def _widen_at(t_switch, multiple, seen=None):
        def until(samples, xpp, ypp):
            if seen is not None:
                seen.append(samples[-1].t)
            return multiple if samples[-1].t == t_switch else False
        return until

    @pytest.mark.parametrize("multiple", [2, 4])
    @pytest.mark.parametrize("config", [
        FlowConfig(m=2, sign=POS, s=1.2), FlowConfig(m=3, sign=NEG, s=0.7),
    ])
    def test_widening_at_the_start_is_the_run_at_the_wider_step(
        self, config, multiple
    ):
        # 2 and 4 times ORACLE_DT sample every 0.096 too, and a power of two
        # times dt is exact, so the two runs take the same steps to the
        # same sample times and the same shorter last step.
        dt = experiments.ORACLE_DT
        widened = integrate_oracle(config, dt, 20.0,
                                   until=self._widen_at(0.0, multiple))
        assert widened == integrate_oracle(config, multiple * dt, 20.0)

    def test_a_run_widened_mid_way_keeps_its_prefix(self):
        # Up to the switch the run is the uniform run; past it the samples
        # fall on the wider steps, every 0.192 at 8 times dt.
        config = FlowConfig(m=2, sign=POS, s=1.2)
        dt = experiments.ORACLE_DT
        t_switch = 48 * dt
        full = integrate_oracle(config, dt, 10.0)
        seen = []
        widened = integrate_oracle(config, dt, 10.0,
                                   until=self._widen_at(t_switch, 8, seen))
        k = full.samples.index(next(st for st in full.samples
                                    if st.t == t_switch))
        assert widened.samples[:k + 1] == full.samples[:k + 1]
        assert [round((b - a) / dt) for a, b in zip(seen[k:], seen[k + 1:])] == (
            [24] * (len(seen) - k - 1))
        assert widened.n_accepted == 48 + math.ceil((10.0 - t_switch) / (8 * dt))
        assert widened.final_state().t == 10.0
        assert abs(widened.final_state().x - full.final_state().x) < 1e-6

    def test_a_widened_step_that_overflows_ends_the_run(self):
        # With no floors the run at dt = 0.25 overflows in the step from
        # t = 1.  Widened eightfold at t = 0.75, the step from there
        # overflows at once, and the run ends there as at any overflowing
        # step; asked to widen at t = 1, whose own step overflows, the
        # hook does not save the run.
        config = FlowConfig(m=2, sign=POS, s=5.0)
        full = integrate_oracle(config, 0.25, 10.0, NO_FLOORS)
        assert full.termination == Termination(
            BLOW_UP_EVENT, t_event=1.0, trigger=TRIGGER_OVERFLOW)
        early = integrate_oracle(config, 0.25, 10.0, NO_FLOORS,
                                 until=self._widen_at(0.75, 8))
        assert early.termination == Termination(
            BLOW_UP_EVENT, t_event=0.75, trigger=TRIGGER_OVERFLOW)
        assert early.samples == full.samples[:4]
        assert early.n_accepted == 3
        late = integrate_oracle(config, 0.25, 10.0, NO_FLOORS,
                                until=self._widen_at(1.0, 4))
        assert late == full

    @pytest.mark.parametrize("verdicts", [[1], [2, 2], [4, 2]])
    def test_a_hook_may_only_widen(self, verdicts):
        # 1 keeps the step in use, so it is refused; True, which equals 1,
        # still ends the run.
        config = FlowConfig(m=2, sign=POS, s=1.2)
        returned = iter(verdicts)
        with pytest.raises(ValueError, match="until may only widen the step"):
            integrate_oracle(config, experiments.ORACLE_DT, 5.0,
                             until=lambda samples, xpp, ypp: next(returned))
        stopped = integrate_oracle(config, experiments.ORACLE_DT, 5.0,
                                   until=lambda samples, xpp, ypp: True)
        assert len(stopped.samples) == 1 and stopped.n_accepted == 0


# x - y at the horizon from _oracle_pair: _oracle_limit at ORACLE_DT and
# twice it, the coarse run on the fine run's step plan, each read at the
# run's first settled sample by the tail law, or at a horizon reached
# unsettled (the n = 4 row at horizon 3, which widens no step before it).
# Recorded with the step plan's ORACLE_WIDENING; the horizon-3 pair is
# that of the uniform steps.
ORACLE_LIMITS = {
    (FlowConfig(m=2, sign=POS, s=1.2), 50.0):
        ("0x1.b9a03e2187812p-1", "0x1.b9a03e6c83b50p-1"),
    (FlowConfig(m=3, sign=NEG, s=0.7), 50.0):
        ("0x1.a7296acdfee6ep-3", "0x1.a7296b9603d78p-3"),
    (FlowConfig(m=2, sign=POS, s=1.2), 3.0):
        ("0x1.afee1349a890ep-1", "0x1.afee1388fdc38p-1"),
    (FlowConfig(m=1, sign=NEG, s=0.7), 50.0):
        ("0x1.2cc1d71e3c059p-3", "0x1.2cc1d74fe919ep-3"),
}


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
    # loose tolerances step past the representable range at t = 1.09
    "integrate-pos-3.0-overflow": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0),
                          IntegratorSettings(rel_tol=1e-1, abs_tol=1e-1,
                                             t_max=20.0)),
        (("0x1.170a3d70a3d74p+0", "0x1.f6c4b6c4a6f33p+0",
          "-0x1.6fb8692694c23p+1", "0x1.0e1d2e6c0abb0p+5",
          "-0x1.bf555d8436e59p+6"),
         "0x1.170a3d70a3d74p+0", 37, 0,
         "0x1.93e2d74472f00p+6", "0x1.93e2d74472f00p+7"),
    ),
    # at 1e-2 the predictive controller follows the singularity down to
    # the velocity floor, which it locates at t ~ 1.0907
    "integrate-pos-3.0-loose-velocity-floor": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0),
                          IntegratorSettings(rel_tol=1e-2, abs_tol=1e-2,
                                             t_max=20.0)),
        (("0x1.1739ff9f9b232p+0", "0x1.ffb5e1633dab1p+0",
          "-0x1.7ee8a59282f8ep+1", "0x1.5190d8e487fb4p+5",
          "-0x1.1c6436522ea1ep+7"),
         "0x1.1739ff9f9b232p+0", 38, 2,
         "0x1.70afe64b02400p+4", "0x1.70afe64b02000p+5"),
    ),
    # floors out of reach: the singularity exhausts min_step
    "integrate-pos-3.0-collapse": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0),
                          IntegratorSettings(t_max=50.0),
                          EventSpec(y_floor=-1e12, velocity_floor=-1e300)),
        (("0x1.1872f86063595p+0", "0x1.760bdf803ac92p+2",
          "-0x1.13b62b9893537p+4", "0x1.4ce4fd9c34b8ep+35",
          "-0x1.369840a1aa66ep+37"),
         None, 1101, 1, "0x1.4b2d000004000p+39", "0x1.4b2c7ffff4000p+40"),
    ),
    "integrate-pos-3.0-y-floor": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0),
                          events=EventSpec(y_floor=-5.0, velocity_floor=-1e9)),
        (("0x1.1862d0d85aaeep+0", "0x1.47ff010ac6b61p+1",
          "-0x1.40000017e5d54p+2", "0x1.780bc6d49f708p+9",
          "-0x1.597bbd194e28fp+11"),
         "0x1.1862d0d85aaeep+0", 360, 1,
         "0x1.a5f0800000000p-13", "0x1.a5f0000000000p-12"),
    ),
    "oracle-pos-5.0-overflow": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=5.0), 0.5, 10.0,
                                 EventSpec(y_floor=-1e6, velocity_floor=-1e6)),
        (("0x1.0000000000000p+0", "0x1.881cdcf8334d6p+0",
          "-0x1.b5bb9db60c385p+0", "0x1.af3ccccccd94fp+2",
          "-0x1.445dd95086fc1p+4"),
         "0x1.0000000000000p+0", 2, 0,
         "0x1.143b925f19514p+6", "0x1.143b925f19510p+7"),
    ),
}


def _samples_digest(traj):
    """sha256 of the bit patterns of every sample's state and observables.

    The first-integral residual of each sample, from the right-hand side,
    sits between the constraint residual and h_red: the SAMPLE_SHA256
    constants were recorded with it there.
    """
    digest = hashlib.sha256()
    f = derivatives(traj.config)
    for state, obs in zip(traj.samples, traj.observables):
        _, _, xpp, ypp = f(state.t, (state.x, state.y, state.xp, state.yp))
        fir = first_integral_residual(state.xp, state.yp, xpp, ypp)
        *head, h_red = astuple(obs)
        values = astuple(state) + (*head, fir, h_red)
        line = " ".join("None" if v is None else v.hex() for v in values)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


# The fingerprint sees only the final state; these digests also pin the
# number, order and values of all samples, so a lost or duplicated sample
# (the terminal one included) changes them.
SAMPLE_SHA256 = {
    "backward-pos-2.0-blowup":
        "09052c3fd6511dfb46b5e2afa71a4a5829e028a532a64e18c72d65ddeb71ab55",
    "integrate-neg-1.3":
        "1d4f91a258069add01f15d09927a6eb69445bd6335e1df31f0cf7c5c422e15b0",
    "integrate-pos-1.3":
        "171b18607466bc7affda736eaea991fdc445e8af3e27354e6f1d7934cef1c042",
    "integrate-pos-2.0-blowup":
        "e64c1736c6de4a76796aa550c73ccda85e61e37274cb2888193bc4d302d21fd7",
    "integrate-pos-3.0-collapse":
        "14bbf1827d84f5d2f773fd9ed0ae4ac1a79ac65256e82f2389d82c5de3e4d84f",
    "integrate-pos-3.0-loose-velocity-floor":
        "bbcbcf7a54770e2d2fd2877113124949debf934708a6cca493bbe45c51f1159c",
    "integrate-pos-3.0-overflow":
        "dffeb5e91b827f8f7ef61e6f8fed6bed61b9212f0676d14b7cee6dcf0b6739ee",
    "integrate-pos-3.0-y-floor":
        "ef774093bd4e4eaecd33bec902c22ff3811edca0b497083d230d67cd8922dd41",
    "oracle-pos-1.3":
        "9b4c061ae3af1ae7445c47af5e42ed5da422699a7c5c318c071ed88882ed7abb",
    "oracle-pos-2.0-blowup":
        "328d5a7027720ad9967c48cf866f38838f6b65db24467af768af531057448e90",
    "oracle-pos-5.0-overflow":
        "d115d79bc5b47d10bded20ffb83d86937aa037e9bb37fda2dd419448af2e821a",
}


class TestGoldenBits:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fingerprint(self, name):
        run, expected = GOLDEN[name]
        assert _fingerprint(run()) == expected

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_sample(self, name):
        run, _ = GOLDEN[name]
        assert _samples_digest(run()) == SAMPLE_SHA256[name]


_CAPPED = dict(max_step=RUN_MAX_STEP, t_max=50.0)

# The runs the workloads are made of, at the settings their callers use:
# classify's and sweep's rows at RUN_MAX_STEP, a bisection probe with no
# samples, a reduced-Hamiltonian run at the default cap of 0.03, the ends
# by overflow and by step-size collapse, and an RK4 run to t = 12, where the
# oracle pair once stopped, and event location at ORACLE_DT.  Each maps to the _fingerprint of the
# run, its termination (kind, trigger, t_last), its number of samples and
# the _samples_digest of them.  The hot loops of both steppers are written
# for speed; any edit that moves a bit of any of these fails here.
STEPPING_CORE = {
    "dp5-limit-row-sampled": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=1.2),
                          IntegratorSettings(**_CAPPED)),
        ((("0x1.9000000000000p+5", "0x1.8d847d75dec29p+5",
           "0x1.869dfc7d6d13fp+5", "0x1.0000000000000p+0",
           "0x1.0000000000000p+0"),
          None, 466, 1, "0x1.919e400000000p-32", "0x1.85ec400000000p-31"),
         (REACHED_HORIZON, None, None), 501,
         "00eab6b1d5af4b516871e16ecf0b7087c0c5827c25576e8264868252ef98443a"),
    ),
    "dp5-negative-limit-row-sampled": (
        lambda: integrate(FlowConfig(m=3, sign=NEG, s=0.7),
                          IntegratorSettings(**_CAPPED)),
        ((("0x1.9000000000000p+5", "0x1.924c0bef6e21ep+5",
           "0x1.90a4e284acae3p+5", "0x1.0000000033893p+0",
           "0x1.0000000033893p+0"),
          None, 478, 2, "0x1.7f96400000000p-30", "0x1.3448f00000000p-28"),
         (REACHED_HORIZON, None, None), 501,
         "0a20500c14acf67c5b44d698ce78e63958844c52d77969e4cc3454fd30bd2c80"),
    ),
    "dp5-recollapse-row": (
        lambda: integrate(FlowConfig(m=3, sign=POS, s=0.7),
                          IntegratorSettings(**_CAPPED)),
        ((("0x1.e921dcd6a1a2cp-1", "-0x1.4c343cbec8eb9p+1",
           "0x1.de51bd5bed54dp+0", "-0x1.493a83b5087d5p+7",
           "0x1.02750759d2cc4p+6"),
          "0x1.e921dcd6a1a2cp-1", 253, 1,
          "0x1.e847a00000000p-21", "0x1.6e36800000000p-19"),
         (BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR, None), 11,
         "1c89b05eab08d238a8f0b08de9c733d42835602f501adb93d1f0b8d060739695"),
    ),
    "dp5-probe-unsampled": (
        lambda: integrate(FlowConfig(m=3, sign=POS, s=1.2501),
                          IntegratorSettings(max_step=RUN_MAX_STEP, t_max=80.0,
                                             output_dt=math.inf)),
        ((("0x1.3fa41e1073c81p+2", "0x1.dbedee9a5ba82p+2",
           "-0x1.5a78893ae4142p+1", "0x1.030389440f6f6p+6",
           "-0x1.4981c4c2e6be2p+7"),
          "0x1.3fa41e1073c81p+2", 492, 1,
          "0x1.0d93c00000000p-20", "0x1.75d5800000000p-19"),
         (BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR, None), 2,
         "bcba64b688e40f94dd7ccd1fb5d8826cbb88b4550e4959bcc2512b559b173147"),
    ),
    "dp5-h-red-cap-0.03": (
        lambda: integrate(FlowConfig(m=2, sign=NEG, s=1.3),
                          IntegratorSettings(t_max=8.0)),
        ((("0x1.0000000000000p+3", "0x1.044f9234fb927p+3",
           "0x1.07ac016f3e9b9p+3", "0x1.00000063d78e7p+0",
           "0x1.000000e24ad81p+0"),
          None, 352, 2, "0x1.8f1db00000000p-32", "0x1.5ab3000000000p-31"),
         (REACHED_HORIZON, None, None), 81,
         "0251cccc869183e8e694a8f31d36d124de0722d4644882141a46297384e86da5"),
    ),
    "dp5-overflow-cap-0.3": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0),
                          IntegratorSettings(rel_tol=1e-2, abs_tol=1e-2,
                                             max_step=RUN_MAX_STEP,
                                             t_max=20.0)),
        ((("0x1.028f5c28f5c29p+0", "0x1.509c874995b8fp+0",
           "-0x1.1e228332ea4efp+0", "0x1.d2f54cb7002d5p+1",
           "-0x1.b702e36a3c86cp+2"),
          "0x1.028f5c28f5c29p+0", 5, 0,
          "0x1.16ccb98b4cd80p+0", "0x1.218576e9159c8p+1"),
         (BLOW_UP_EVENT, TRIGGER_OVERFLOW, None), 12,
         "a8ccaa7780f6eeef8ac47d06e5c35eed912df35ff1e211183e97d2cfaacbe1b3"),
    ),
    "dp5-collapse-at-start": (
        lambda: integrate(FlowConfig(m=2, sign=NEG, s=1.3),
                          IntegratorSettings(t_max=8.0, min_step=0.02)),
        ((("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.6a09e667f3bcdp+0",
           "0x1.6a09e667f3bcdp+0"),
          None, 0, 1, "0x1.8000000000000p-49", "0x1.0000000000000p-47"),
         (STEP_SIZE_COLLAPSE, None, "0x0.0p+0"), 1,
         "012377e7b714460f867eec5d2328884c843a18c324dbc397163f4ebe5bfcf71a"),
    ),
    "oracle-settle-window": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=1.2),
                                 experiments.ORACLE_DT, 12.0),
        ((("0x1.8000000000000p+3", "0x1.7611f5d71b89dp+3",
           "0x1.5a77f1f52eacep+3", "0x1.00000000bc765p+0",
           "0x1.fffffffc4d21bp-1"),
          None, 1500, 0, "0x1.9848940000000p-27", "0x1.970f4c0000000p-26"),
         (REACHED_HORIZON, None, None), 126,
         "1aa66fcca82bf6ead283a5638f2deb522bc8a1e70f9a50c13ff6e7f722dddfc3"),
    ),
    "oracle-event-located": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=2.0),
                                 experiments.ORACLE_DT, 50.0),
        ((("0x1.67d9f7bdf3b65p+0", "0x1.3278e148c5b68p+1",
           "-0x1.8733545d3e48ep+1", "0x1.51d287a239bb0p+5",
           "-0x1.1c74a20c5ce60p+7"),
          "0x1.67d9f7bdf3b65p+0", 175, 0,
          "0x1.4bc991c7e8000p-1", "0x1.b626556806400p+4"),
         (BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR, None), 16,
         "d8473ace2d5c5cba984774014d00697eb13aec40c5d01b74ceacce4f9bb48e04"),
    ),
    # With both floors at -inf no floor fires: DP5 dives on to step-size
    # collapse, and RK4 to overflow.
    "dp5-recollapse-floors-at-minus-inf": (
        lambda: integrate(FlowConfig(m=3, sign=POS, s=0.7),
                          IntegratorSettings(**_CAPPED), NO_FLOORS),
        ((("0x1.eacd74f2887e2p-1", "-0x1.b479ceb6d362fp+3",
           "0x1.85f703cf057c1p+2", "-0x1.e409bccd50c53p+36",
           "0x1.71c5ac105ef1dp+35"),
          None, 1100, 1, "0x1.d2d8c00008000p+38", "0x1.5e227fffe2000p+40"),
         (STEP_SIZE_COLLAPSE, None, "0x1.eacd74f2887e2p-1"), 11,
         "776e74be10380b69695b9c05c46831d1c4978f6bae32af29e79c60f511bb360f"),
    ),
    "oracle-floors-at-minus-inf": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=2.0),
                                 experiments.ORACLE_DT, 50.0, NO_FLOORS),
        ((("0x1.6a7ef9db22d0ep+0", "0x1.21ee440ad3e1dp+5",
           "-0x1.144c010831825p+7", "0x1.0da058ace400ep+22",
           "-0x1.a27321dd63f95p+65"),
          "0x1.6a7ef9db22d0ep+0", 177, 0,
          "0x1.b8382e3798741p+400", "0x1.b8382e3798741p+401"),
         (BLOW_UP_EVENT, TRIGGER_OVERFLOW, None), 16,
         "70c71a74cd237571e2b7a1d1281ab0a79201d49fff837e6b332624e4729e97b9"),
    ),
    # Each stepper writes out the floor tests of _event_functions.  The
    # velocity floor fires on its own in the recollapse and event runs above
    # (y stays above -20 there); these fire the y floor on its own, and test
    # the y floor on a run where x, not y, falls below it.
    "dp5-y-floor-only": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=3.0),
                          IntegratorSettings(**_CAPPED), Y_FLOOR_ONLY),
        ((("0x1.fb401a9a70491p-1", "0x1.3f293b819db86p+0",
           "-0x1.00000000c2cbfp+0", "0x1.a0b76f0a1fe20p+1",
           "-0x1.6899486ea42ddp+2"),
          "0x1.fb401a9a70491p-1", 117, 1,
          "0x1.4f6d800000000p-28", "0x1.4f6d900000000p-27"),
         (BLOW_UP_EVENT, TRIGGER_Y_FLOOR, None), 11,
         "8e2315b06c804c284f9ef57d0fd77cd531919d39f80e1f788df2e2ee268168b8"),
    ),
    "oracle-y-floor-only": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=3.0),
                                 experiments.ORACLE_DT, 50.0, Y_FLOOR_ONLY),
        ((("0x1.fb401c54fdf3bp-1", "0x1.3f293ca89f156p+0",
           "-0x1.00000000addc2p+0", "0x1.a0b773dc43b90p+1",
           "-0x1.6899550e23f44p+2"),
          "0x1.fb401c54fdf3bp-1", 123, 0,
          "0x1.94e5ba1600000p-17", "0x1.e666339600000p-16"),
         (BLOW_UP_EVENT, TRIGGER_Y_FLOOR, None), 12,
         "5fbc946852bb4632beb0f9889f4d57f1cdd59f8763a296dbd7c6863aedc24d3c"),
    ),
    "dp5-x-below-y-floor": (
        lambda: integrate(FlowConfig(m=2, sign=POS, s=0.6),
                          IntegratorSettings(**_CAPPED), Y_FLOOR_ONLY),
        ((("0x1.1872effd4e34cp+0", "-0x1.27706a35071cfp+3",
           "0x1.d9b7fd02385b7p+1", "-0x1.4d8b9ce9e59e4p+20",
           "0x1.6599c6a454bcfp+18"),
          "0x1.1872effd4e34cp+0", 617, 1,
          "0x1.7e0f100000000p+5", "0x1.7e0e000000000p+6"),
         (BLOW_UP_EVENT, TRIGGER_VELOCITY_FLOOR, None), 12,
         "74e9fc5218a2821e6550713fc6c4c149cb1c781fdf75e1a229fb8e2a5504ee6d"),
    ),
    "oracle-x-below-y-floor": (
        lambda: integrate_oracle(FlowConfig(m=2, sign=POS, s=0.6),
                                 experiments.ORACLE_DT, 50.0, Y_FLOOR_ONLY),
        ((("0x1.189374bc6a7f0p+0", "-0x1.1d4581b6d4f5fp+2",
           "0x1.3563ca84519f5p+1", "-0x1.f3c9b90ddfc78p+9",
           "0x1.0eeb474f9c042p+8"),
          "0x1.189374bc6a7f0p+0", 137, 0,
          "0x1.9e8a4ebebac68p+14", "0x1.9e8a4ebebac60p+15"),
         (BLOW_UP_EVENT, TRIGGER_OVERFLOW, None), 13,
         "03daad7417a9e3dd128db50f5d96434eca3e58e364a93fb3b4914f2f9ae3cad1"),
    ),
}


class TestSteppingCoreBits:
    @pytest.mark.parametrize("name", sorted(STEPPING_CORE))
    def test_run_is_bit_identical(self, name):
        run, expected = STEPPING_CORE[name]
        traj = run()
        term = traj.termination
        t_last = None if term.t_last is None else term.t_last.hex()
        assert (_fingerprint(traj), (term.kind, term.trigger, t_last),
                len(traj.samples), _samples_digest(traj)) == expected

    def test_dp5_stages_come_from_derivatives(self, monkeypatch):
        # Every DP5 stage is a call of derivatives' right-hand side, six per
        # step attempt (an accepted step's last stage is the next one's
        # first); a stage written into the loop would escape this count,
        # and the tracer's RHS count with it.
        # The counterpart of test_oracle_keeps_its_own_right_hand_side.
        module = importlib.import_module("cmcflow.integrate")
        real = module.derivatives
        calls = 0

        def counted(config):
            f = real(config)

            def rhs(t, u):
                nonlocal calls
                calls += 1
                return f(t, u)

            return rhs

        monkeypatch.setattr(module, "derivatives", counted)
        runs = {name: entry[0] for name, entry in {**GOLDEN,
                                                   **STEPPING_CORE}.items()
                if not name.startswith("oracle-")}
        assert len(runs) == 18
        for name, run in runs.items():
            calls = 0
            traj = run()
            assert calls >= 6 * (traj.n_accepted + traj.n_rejected), name

    def test_dp5_loop_reads_its_constants_as_locals(self):
        # The tableau, the controller constants, abs and FlowState are
        # bound from _DP5_NAMES before the loop; the globals integrate
        # still reads serve its set-up and the ends of a run.
        module = importlib.import_module("cmcflow.integrate")
        read = {ins.argval for ins in dis.get_instructions(module.integrate)
                if ins.opname == "LOAD_GLOBAL"}
        assert read == {
            "BLOW_UP_EVENT", "BlowUpOverflow", "EventSpec",
            "IntegratorSettings", "REACHED_HORIZON", "STEP_SIZE_COLLAPSE",
            "TRIGGER_OVERFLOW", "Termination", "_DP5_NAMES", "_INITIAL_STEP",
            "_dense", "_event_functions", "_finish", "derivatives",
            "first_integral_residual", "initial_state", "math", "max", "min",
        }

    def test_dp5_loop_has_no_cell_variables(self):
        # A local that a nested function or comprehension reads becomes a
        # cell, and every read of it in the step loop goes through the cell.
        assert integrate.__code__.co_cellvars == ()


def _monitor_runs():
    runs = {name: run for name, (run, _) in {**GOLDEN, **STEPPING_CORE}.items()}
    assert len(runs) == len(GOLDEN) + len(STEPPING_CORE)
    # A coarse RK4 step lands at x = -3472, where e^(-2x) overflows and the
    # residual is inf.
    runs["oracle-sample-past-the-floor"] = lambda: integrate_oracle(
        FlowConfig(m=2, sign=POS, s=0.6), 0.5, 20.0, NO_FLOORS)
    # The last sample has x' + y' = -inf and a NaN residual.
    runs["oracle-nan-residual"] = lambda: integrate_oracle(
        FlowConfig(m=3, sign=NEG, s=5.0), 0.5, 20.0, NO_FLOORS)
    return runs


class TestConstraintMonitor:
    # max_ham_residual takes the constraint terms of every sample in one
    # pass; it is the plain maximum over the samples, with max's rule for
    # NaN: one after a finite first sample is never greater, so skipped.
    @pytest.mark.parametrize("name", sorted(_monitor_runs()))
    def test_is_the_maximum_over_the_samples(self, name):
        traj = _monitor_runs()[name]()
        assert traj.max_ham_residual.hex() == max(
            abs(constraint_terms(traj.config, state)[3])
            for state in traj.samples).hex()

    def test_overflow_and_nan_samples(self):
        runs = _monitor_runs()
        past = runs["oracle-sample-past-the-floor"]()
        assert past.samples[-1].x < -355.0
        assert past.max_ham_residual == math.inf
        nan = runs["oracle-nan-residual"]()
        assert math.isnan(constraint_terms(nan.config, nan.samples[-1])[3])
        assert nan.max_ham_residual == max(
            abs(constraint_terms(nan.config, state)[3])
            for state in nan.samples[:-1])
        # A NaN between finite samples is skipped too.
        first, *later = nan.samples
        mixed = replace(nan, samples=(first, nan.samples[-1], *later[:-1]))
        assert mixed.max_ham_residual == nan.max_ham_residual


# Every valid floor is negative (-inf included); the initial data has y = 0
# and x' + y' in {0, 2 sqrt 2}.
_floors = st.floats(max_value=-math.ulp(0.0), allow_nan=False)


class TestInitialStateIsSafe:
    @given(
        y_floor=_floors,
        velocity_floor=_floors,
        m=st.integers(min_value=1, max_value=64),
        sign=st.sampled_from(CurvatureSign),
        s=st.floats(min_value=0.5, exclude_min=True, allow_nan=False),
    )
    def test_no_event_fires_at_the_start(self, y_floor, velocity_floor, m,
                                         sign, s):
        config = FlowConfig(m=m, sign=sign, s=s)
        events = EventSpec(y_floor=y_floor, velocity_floor=velocity_floor)
        state0 = initial_state(config)
        u = (state0.x, state0.y, state0.xp, state0.yp)
        for name, g in _event_functions(events):
            assert g(u) > 0.0, name


# Couplings 0.51, 0.57, ..., 1.95 plus both analytic thresholds of each n.
_CERT_HORIZON = 40.0
_CERT_GRID = [
    (n, s)
    for n in (2, 4, 6, 8)
    for s in sorted({0.51 + 0.06 * k for k in range(25)}
                    | {t for t in thresholds(n) if t is not None and t > 0.5})
]


def _state(x=0.0, y=0.0, xp=0.5, yp=0.5):
    return FlowState(0.0, x, y, xp, yp)


class TestCompletenessCertificate:
    def test_region_is_complete_and_reached_off_the_boundary(self):
        settings = IntegratorSettings(t_max=_CERT_HORIZON)
        never_entered = []
        boundary = []
        for n, s in _CERT_GRID:
            config = FlowConfig(m=n // 2, sign=POS, s=s)
            # A curvature coefficient equal to n exactly keeps x = 0 or
            # y = 0 for all time: a complete boundary solution outside R.
            if n in (config.kx, config.ky):
                boundary.append((n, s))
            full = integrate(config, settings)
            entered = any(
                in_completeness_region(config, state) for state in full.samples
            )
            # Once in R, no blow-up trigger or overflow can end the run.
            if entered:
                assert full.termination.kind == REACHED_HORIZON, (n, s)
            elif full.termination.kind == REACHED_HORIZON:
                never_entered.append((n, s))
            # The bisection probe gives the verdict of the full run.
            verdict, _ = _probe(config, settings)
            assert verdict == classify(config, _CERT_HORIZON).verdict, (n, s)
        # Only the boundary solutions, at both thresholds of n = 4, 6, 8,
        # stay complete outside R.
        assert never_entered == boundary
        assert len(boundary) == 6

    def test_initial_acceleration_decides_entry_into_region(self, monkeypatch):
        # From rest, x' and y' keep the signs of n - kx and n - ky
        # (TestVelocitySigns in test_experiments.py), so the run enters R
        # exactly when the rest state moved along its initial acceleration
        # is in R.  A probe then makes no run.
        settings = IntegratorSettings(t_max=_CERT_HORIZON)
        for n, s in _CERT_GRID:
            config = FlowConfig(m=n // 2, sign=POS, s=s)
            rest = initial_state(config)
            _, _, xpp, ypp = derivatives(config)(
                0.0, (rest.x, rest.y, rest.xp, rest.yp))
            assert (xpp, ypp) == (n - config.kx, n - config.ky)
            closed_form = in_completeness_region(
                config, replace(rest, xp=xpp, yp=ypp))
            full = integrate(config, settings)
            entered = any(
                in_completeness_region(config, state) for state in full.samples
            )
            assert closed_form == entered, (n, s)
            runs, _ = _record_runs(monkeypatch, config, settings)
            assert (runs == []) == closed_form, (n, s)

    @pytest.mark.parametrize("xp, yp", [(0.0, 0.5), (-0.5, 0.5),
                                        (0.5, 0.0), (0.5, -0.5)])
    def test_region_needs_both_velocities_positive(self, xp, yp):
        config = FlowConfig(m=2, sign=POS, s=1.0)  # kx = ky = 3 < n = 4
        assert in_completeness_region(config, _state())
        assert not in_completeness_region(config, _state(xp=xp, yp=yp))

    @pytest.mark.parametrize("s, coordinate", [(0.75, "x"), (1.5, "y")])
    def test_margin_keeps_terms_near_n_out(self, s, coordinate):
        # kx (s = 0.75) or ky (s = 1.5) is n = 4 exactly, and a log scale
        # factor d lowers its term by 2d relative, against the margin 1e-9.
        config = FlowConfig(m=2, sign=POS, s=s)
        assert getattr(config, "k" + coordinate) == 4.0
        inside = [
            in_completeness_region(config, _state(**{coordinate: d}))
            for d in (0.0, 1e-10, 4e-10, 6e-10, 1e-9)
        ]
        assert inside == [False, False, False, True, True]

    @pytest.mark.parametrize("s", [0.7, 1.6])
    def test_terms_above_n_are_out(self, s):
        # One coefficient lies between n = 4 and 1.2 n at x = y = 0; at
        # x = y = 1 both terms are below n.
        config = FlowConfig(m=2, sign=POS, s=s)
        assert 4.0 < max(config.kx, config.ky) < 4.8
        assert not in_completeness_region(config, _state())
        assert in_completeness_region(config, _state(x=1.0, y=1.0))

    def test_negative_curvature_is_never_in_region(self):
        config = FlowConfig(m=2, sign=NEG, s=1.0)
        assert not in_completeness_region(config, _state(x=1.0, y=1.0))

    # (t_max, velocity_floor) of each run; the caller's floor is -100.  A
    # raised run that reaches the horizon leaves the verdict to the full run.
    @pytest.mark.parametrize("sign, s, horizon, runs", [
        (POS, 1.3, 40.0, []),                   # initial acceleration in R
        (POS, 2.0, 40.0, [(40.0, -3.0)]),       # certified blow-up
        (POS, 1.5, 40.0, [(40.0, -3.0), (40.0, -100.0)]),  # boundary
        (POS, 1.3, 0.02, []),                   # horizon below max_step
        (NEG, 2.0, 8.0, [(8.0, -100.0)]),       # no certificate
    ])
    def test_probe_runs_the_horizon_only_outside_the_region(
        self, monkeypatch, sign, s, horizon, runs
    ):
        config = FlowConfig(m=2, sign=sign, s=s)
        seen = _record_runs(monkeypatch, config, IntegratorSettings(t_max=horizon))
        assert seen == (runs, classify(config, horizon).verdict)


def _record_runs(monkeypatch, config, settings, events=None):
    """(t_max, velocity_floor) of each run of one probe, and its verdict."""
    seen = []

    def recording(config, settings, events):
        seen.append((settings.t_max, (events or EventSpec()).velocity_floor))
        return integrate(config, settings, events)

    with monkeypatch.context() as patch:
        patch.setattr(experiments, "integrate", recording)
        verdict, _ = _probe(config, settings, events)
    return seen, verdict


class TestRecollapseCertificate:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("v0", [-2.2, -2.5, -3.0, -4.0, -100.0])
    def test_bound_is_the_riccati_blow_up_time(self, n, v0):
        # w = 2 coth(n (t - T)) solves w' = -(n/2)(w^2 - 4) with w(0) = v0
        # and reaches -infinity at T = artanh(2/|v0|)/n.
        config = FlowConfig(m=n // 2, sign=POS, s=1.3)
        bound = recollapse_time_bound(config, v0)
        assert bound == pytest.approx(math.atanh(2.0 / -v0) / n, rel=1e-13)
        assert 2.0 / math.tanh(-n * bound) == pytest.approx(v0, rel=1e-12)

    def test_bound_at_the_probe_threshold(self):
        assert RECOLLAPSE_V0 < -2.0
        bounds = [recollapse_time_bound(FlowConfig(m=n // 2, sign=POS, s=1.3),
                                        -3.0) for n in (4, 6)]
        assert bounds == pytest.approx([0.2011797390542625, 0.1341198260361750],
                                       rel=1e-15)

    @pytest.mark.parametrize("v0", [-2.0, -1.0, 0.0])
    def test_no_bound_unless_the_riccati_solution_blows_up(self, v0):
        assert recollapse_time_bound(FlowConfig(m=2, sign=POS, s=1.3), v0) is None

    @pytest.mark.parametrize("s", [0.6, 1.3, 2.0])
    def test_no_bound_for_negative_curvature(self, s):
        # The curvature term enters v' = 2n + |K| - (n/2) v^2 with the other
        # sign, and v' <= -(n/2)(v^2 - 4) fails.
        config = FlowConfig(m=2, sign=NEG, s=s)
        assert recollapse_time_bound(config, RECOLLAPSE_V0) is None

    def test_raised_floor_run_is_a_prefix_and_the_bound_holds(self):
        settings = IntegratorSettings(t_max=_CERT_HORIZON)
        raised_floor = EventSpec(velocity_floor=RECOLLAPSE_V0)
        certified = 0
        for n, s in _CERT_GRID:
            config = FlowConfig(m=n // 2, sign=POS, s=s)
            full = integrate(config, settings)
            if full.termination.kind != BLOW_UP_EVENT:
                continue
            raised = integrate(config, settings, raised_floor)
            term = raised.termination
            assert term.trigger == TRIGGER_VELOCITY_FLOOR, (n, s)
            # Events only end a run: the grid samples before the raised
            # floor fires are those of the full run.
            assert raised.samples[:-1] == full.samples[:len(raised.samples) - 1]
            bound = recollapse_time_bound(config, RECOLLAPSE_V0)
            t_blowup = full.termination.t_event
            assert term.t_event < t_blowup <= term.t_event + bound, (n, s)
            certified += 1
        assert certified == 51

    def test_probe_near_the_horizon_falls_back_to_the_full_run(self, monkeypatch):
        config = FlowConfig(m=2, sign=POS, s=2.0)
        bound = recollapse_time_bound(config, RECOLLAPSE_V0)
        t_v0 = integrate(config, IntegratorSettings(t_max=40.0),
                         EventSpec(velocity_floor=RECOLLAPSE_V0)
                         ).termination.t_event
        assert t_v0 < T_BLOWUP_S2 < t_v0 + bound
        for horizon, verdict in [
            (0.5 * (t_v0 + T_BLOWUP_S2), VERDICT_COMPLETE),
            (0.5 * (T_BLOWUP_S2 + t_v0 + bound), VERDICT_RECOLLAPSE),
        ]:
            seen = _record_runs(monkeypatch, config,
                                IntegratorSettings(t_max=horizon))
            runs = [(horizon, -3.0), (horizon, -100.0)]
            assert seen == (runs, verdict)
            assert classify(config, horizon).verdict == verdict
        horizon = t_v0 + bound + 1e-3
        seen = _record_runs(monkeypatch, config, IntegratorSettings(t_max=horizon))
        assert seen == ([(horizon, -3.0)], VERDICT_RECOLLAPSE)

    def test_escape_time_is_the_raised_floor_time(self):
        config = FlowConfig(m=2, sign=POS, s=2.0)
        settings = IntegratorSettings(t_max=40.0)
        # The raised floor's run steps at the screening tolerances.
        screen = replace(settings, rel_tol=PROBE_REL_TOL, abs_tol=PROBE_ABS_TOL)
        t_v0 = integrate(config, screen,
                         EventSpec(velocity_floor=RECOLLAPSE_V0)
                         ).termination.t_event
        assert _probe(config, settings) == (VERDICT_RECOLLAPSE, t_v0)
        # A run the full horizon decides keeps its escape time.
        horizon = 0.5 * (t_v0 + T_BLOWUP_S2)
        assert _probe(config, IntegratorSettings(t_max=horizon)) == (
            VERDICT_COMPLETE, t_v0)
        # None when region R decides (s = 1.3), and when the full run does
        # after a raised run that ends another way (the boundary solution
        # s = 1.5) or without a certificate (negative curvature).
        for sign, s in [(POS, 1.3), (POS, 1.5), (NEG, 2.0)]:
            config = FlowConfig(m=2, sign=sign, s=s)
            assert _probe(config, settings)[1] is None

    # The screen may move an escape time only well inside the certificate's
    # margin: the bound less the time from RECOLLAPSE_V0 to the default
    # floor, both from runs at the probes' default tolerances.  Measured
    # worst over these cases and the distances between them: 4.4e-4 at
    # rel_tol 1e-7, 7.6e-4 at 1e-6, 3.0e-4 at 1e-5, against a margin of at
    # least 0.047; a screen at 1e-2 moves it past the margin.
    @pytest.mark.parametrize("distance", [5e-2, 5e-6, 5e-10, 5e-14])
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_screen_moves_escape_time_far_inside_the_margin(
        self, n, side, distance
    ):
        # The recollapse side: below the lower threshold, above the upper.
        s = thresholds(n)[side] + (distance if side else -distance)
        config = FlowConfig(m=n // 2, sign=POS, s=s)
        settings = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=80.0)
        t_v0 = integrate(config, settings, EventSpec(velocity_floor=RECOLLAPSE_V0)
                         ).termination.t_event
        t_floor = integrate(config, settings).termination.t_event
        margin = recollapse_time_bound(config, RECOLLAPSE_V0) - (t_floor - t_v0)
        verdict, t_escape = _probe(config, settings)
        assert verdict == VERDICT_RECOLLAPSE
        assert abs(t_escape - t_v0) <= margin / 10

    def test_screen_follows_the_blow_up_without_rejected_steps(self):
        # On the approach to the raised floor x' + y' steepens like a
        # Riccati blow-up, and each accepted step must be shorter than the
        # last.  The predictive factor proposes such a step where the PI
        # controller alone proposes one too long, rejected and retried:
        # 9 of 46 attempts of this screen.  The escape time stays within a
        # tenth of the margin of the default-tolerance run's.
        config = FlowConfig(m=2, sign=POS, s=thresholds(4)[1] + 0.03)
        settings = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=80.0)
        screen = replace(settings, rel_tol=PROBE_REL_TOL, abs_tol=PROBE_ABS_TOL)
        raised_floor = EventSpec(velocity_floor=RECOLLAPSE_V0)
        screened = integrate(config, screen, raised_floor)
        assert screened.termination.trigger == TRIGGER_VELOCITY_FLOOR
        assert screened.n_rejected == 0
        t_v0 = integrate(config, settings, raised_floor).termination.t_event
        t_floor = integrate(config, settings).termination.t_event
        margin = recollapse_time_bound(config, RECOLLAPSE_V0) - (t_floor - t_v0)
        assert abs(screened.termination.t_event - t_v0) <= margin / 10

    @pytest.mark.parametrize("velocity_floor", [-3.0, -2.5, -2.0])
    def test_caller_floor_at_or_above_v0_skips_the_certificate(
        self, monkeypatch, velocity_floor
    ):
        config = FlowConfig(m=2, sign=POS, s=2.0)
        events = EventSpec(velocity_floor=velocity_floor)
        seen = _record_runs(monkeypatch, config,
                            IntegratorSettings(t_max=40.0), events)
        runs = [(40.0, velocity_floor)]
        assert seen == (runs, VERDICT_RECOLLAPSE)
