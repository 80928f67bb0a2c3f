"""Tests for classification, bisection, limit extraction, audits and sweeps."""

import hashlib
import importlib.util
import math
import sys
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from cmcflow import cli, experiments
from cmcflow.background import CurvatureSign
from cmcflow.experiments import (
    AUDIT_CONSTANT,
    AUDIT_NON_DECREASING,
    AUDIT_NON_INCREASING,
    AUDIT_NON_MONOTONE,
    VERDICT_COMPLETE,
    VERDICT_RECOLLAPSE,
    ORACLE_DT,
    ORACLE_PLAN_STEPS,
    ORACLE_SETTLE_SAMPLES,
    ORACLE_SETTLE_TOL,
    ORACLE_WIDENING,
    PROBE_ABS_TOL,
    PROBE_REL_TOL,
    RECOLLAPSE_V0,
    RUN_MAX_STEP,
    BracketError,
    GaugeRangeError,
    PreconditionError,
    RegimeError,
    bisect_critical,
    classify,
    coupling_grid,
    hamiltonian_audit,
    limit_Cs,
    sweep,
    thresholds,
)
from cmcflow.integrate import (
    REACHED_HORIZON,
    EventSpec,
    IntegratorSettings,
    Termination,
    Trajectory,
    integrate,
    integrate_oracle,
)
from cmcflow.products import BlowUpOverflow, FlowConfig, FlowState, derivatives

NEG = CurvatureSign.NEGATIVE
POS = CurvatureSign.POSITIVE

# Limits of x - y frozen from the fixed-step oracle at dt = 1e-4, horizon 40
# (adaptive and oracle agree to better than 5e-11).
CS_POS_13 = 1.342987902553
CS_NEG_13 = -0.105033520916


def config(m=2, sign=POS, s=1.0, **kw):
    return FlowConfig(m=m, sign=sign, s=s, **kw)


def _following(plan):
    """An oracle hook that widens the step at each (t, multiple) of the plan,
    at the sample at exactly that t, and never ends the run."""
    pending = list(plan)

    def until(samples, xpp, ypp):
        if pending and samples[-1].t == pending[0][0]:
            return pending.pop(0)[1]
        return False

    return until


def _pair_runs(cfg, horizon):
    """Oracle runs at ORACLE_DT and twice it to the horizon, both on the step
    plan that the limit's fine run makes."""
    _, plan = experiments._oracle_limit(cfg, ORACLE_DT, horizon)
    return [integrate_oracle(cfg, dt, horizon, until=_following(plan))
            for dt in (ORACLE_DT, 2.0 * ORACLE_DT)]


def _oracle_pair_ends(cfg, horizon):
    """x - y at the horizon from oracle runs at ORACLE_DT and twice it, on
    the limit's step plan."""
    ends = (traj.final_state() for traj in _pair_runs(cfg, horizon))
    return tuple(end.x - end.y for end in ends)


def _tail_jet(cfg, st):
    """d = x - y, d' and d'' at one state, d'' from the right-hand side."""
    _, _, xpp, ypp = derivatives(cfg)(st.t, (st.x, st.y, st.xp, st.yp))
    return st.x - st.y, st.xp - st.yp, xpp - ypp


def _l2(cfg, st):
    """L_2 = d + (3/4) d' + (1/8) d'', free of the e^(-2t) and e^(-4t)
    terms of d = L + A e^(-2t) + B e^(-4t)."""
    d, d1, d2 = _tail_jet(cfg, st)
    return d + 0.75 * d1 + 0.125 * d2


def _tail_prediction(cfg, st, horizon):
    """d at the horizon by the tail law read at st:
    L_2 + a e^(-2(T - t)) + b e^(-4(T - t)), a = -(d'' + 4d')/4,
    b = (d'' + 2d')/8."""
    _, d1, d2 = _tail_jet(cfg, st)
    gap = horizon - st.t
    return (_l2(cfg, st) + (-(d2 + 4.0 * d1) / 4.0) * math.exp(-2.0 * gap)
            + ((d2 + 2.0 * d1) / 8.0) * math.exp(-4.0 * gap))


def _window_start(samples, k):
    """Where the settle window of the k-th sample starts: at the latest
    sample ORACLE_SETTLE_SAMPLES - 1 first sample intervals or more before
    it, or None if there is none.  On evenly spaced samples the window
    holds the last ORACLE_SETTLE_SAMPLES of them."""
    base = samples[1].t - samples[0].t
    for start in range(k, -1, -1):
        if (round((samples[k].t - samples[start].t) / base)
                >= ORACLE_SETTLE_SAMPLES - 1):
            return start
    return None


def _first_settled(cfg, samples):
    """The first of the samples at which L_2 has moved less than
    ORACLE_SETTLE_TOL over its settle window, or None."""
    l2 = [_l2(cfg, st) for st in samples]
    for k, st in enumerate(samples):
        start = _window_start(samples, k)
        if start is not None:
            window = l2[start:k + 1]
            if max(window) - min(window) < ORACLE_SETTLE_TOL:
                return st
    return None


def _predicted_pair_ends(cfg, horizon):
    """x - y at the horizon from oracle runs at ORACLE_DT and twice it, on
    the limit's step plan, each read at its first settled sample before the
    horizon by the tail law, or at its end if none settled."""
    pair = []
    for traj in _pair_runs(cfg, horizon):
        *grid, end = traj.samples
        settled = _first_settled(cfg, grid)
        pair.append(end.x - end.y if settled is None
                    else _tail_prediction(cfg, settled, horizon))
    return tuple(pair)


def _synthetic_oracle(samples, stops=None, rhs=derivatives):
    """A stand-in for integrate_oracle that records the given samples, in
    order, until its hook accepts one; the time of that last sample is
    appended to stops.  Each sample is offered with its accelerations from
    rhs(cfg), as the oracle offers its own, except where rhs raises
    BlowUpOverflow: the oracle's run would end there, and this one goes on."""
    def synthetic(cfg, dt, t_max, events=None, *, until):
        f = rhs(cfg)
        recorded = []
        for state in samples:
            recorded.append(state)
            try:
                _, _, xpp, ypp = f(state.t, (state.x, state.y, state.xp, state.yp))
            except BlowUpOverflow:
                continue
            verdict = until(recorded, xpp, ypp)
            if type(verdict) is not int and verdict:
                break
        if stops is not None:
            stops.append(recorded[-1].t)
        return Trajectory(config=cfg, samples=tuple(recorded),
                          termination=Termination(REACHED_HORIZON),
                          max_first_integral_residual=0.0,
                          n_accepted=len(recorded), n_rejected=0)

    return synthetic


def _record_oracle_stops(monkeypatch):
    """(dt, t_max, end time) of every oracle run from here on, in order."""
    stops = []

    def recording(cfg, dt, t_max, events=None, **kwargs):
        traj = integrate_oracle(cfg, dt, t_max, events, **kwargs)
        stops.append((dt, t_max, traj.final_state().t))
        return traj

    monkeypatch.setattr(experiments, "integrate_oracle", recording)
    return stops


def _count_probes(monkeypatch):
    """The couplings of every bisection probe from here on, in order."""
    probe = experiments._probe_verdict
    probes = []

    def counted(config, settings, events):
        probes.append(config.s)
        return probe(config, settings, events)

    monkeypatch.setattr(experiments, "_probe_verdict", counted)
    return probes


class TestThresholds:
    def test_values(self):
        assert thresholds(4) == (0.75, 1.5)
        lo, hi = thresholds(6)
        assert lo == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert hi == 1.25

    def test_degenerate_dimension(self):
        assert thresholds(2) == (0.5, None)

    def test_validation(self):
        with pytest.raises(ValueError):
            thresholds(3)
        with pytest.raises(ValueError, match="the largest double"):
            thresholds(10**400)

    def test_n_up_to_2_53_only(self):
        # Past 2**53 doubles skip integers and n - 1 can round to n.
        lower, upper = thresholds(2**53)
        assert lower == (2**53 - 1) / 2**53 < 1.0 < upper
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            thresholds(2**53 + 2)
        with pytest.raises(ValueError, match=r"at most 2\*\*53"):
            sweep(10**20, POS, [1.0, 2.0], 5.0, with_limits=False)

    def test_n_past_the_double_range_raises_before_any_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("integrated with an invalid n")

        monkeypatch.setattr(experiments, "integrate", no_run)
        with pytest.raises(ValueError, match="the largest double"):
            sweep(10**400, POS, [1.0, 2.0], 5.0, with_limits=False)
        with pytest.raises(ValueError, match="the largest double"):
            bisect_critical(10**400, POS, 1.4, 1.6, 1e-3, 5.0)


class TestClassify:
    def test_recollapse_above_upper_threshold(self):
        cls = classify(config(s=2.0), 50.0)
        assert cls.verdict == VERDICT_RECOLLAPSE
        assert cls.t_blowup is not None and cls.t_blowup < 50.0
        assert cls.termination.kind == "BlowUpEvent"
        assert cls.t_blowup == cls.termination.t_event

    def test_complete_at_symmetric_coupling(self):
        cls = classify(config(s=1.0), 50.0)
        assert cls.verdict == VERDICT_COMPLETE
        assert cls.t_blowup is None

    def test_recollapse_below_lower_threshold(self):
        cls = classify(config(s=0.6), 50.0)
        assert cls.verdict == VERDICT_RECOLLAPSE

    def test_near_threshold_flag(self):
        assert classify(config(s=1.5005), 30.0).low_confidence
        assert not classify(config(s=1.3), 30.0).low_confidence

    def test_step_collapse_is_low_confidence_recollapse(self):
        settings = IntegratorSettings(
            rel_tol=1e-13, abs_tol=1e-14, min_step=0.2, max_step=0.5, t_max=50.0
        )
        cls = classify(config(s=3.0), 50.0, settings=settings)
        assert cls.verdict == VERDICT_RECOLLAPSE
        assert cls.low_confidence
        assert cls.termination.kind == "StepSizeCollapse"
        assert cls.t_blowup == cls.termination.t_last

    def test_classification_monotone_in_coupling(self):
        # on each side of s = 1 the verdict flips exactly once over a grid
        upper = [1.0 + 2.0 * k / 59 for k in range(60)]
        upper_verdicts = [
            (s, classify(config(s=s), 50.0).verdict) for s in upper
        ]
        complete_s = [s for s, v in upper_verdicts if v == VERDICT_COMPLETE]
        recollapse_s = [s for s, v in upper_verdicts if v == VERDICT_RECOLLAPSE]
        assert complete_s and recollapse_s
        assert max(complete_s) < min(recollapse_s)

        lower = [0.52 + 0.48 * k / 39 for k in range(40)]
        lower_verdicts = [
            (s, classify(config(s=s), 50.0).verdict) for s in lower
        ]
        complete_s = [s for s, v in lower_verdicts if v == VERDICT_COMPLETE]
        recollapse_s = [s for s, v in lower_verdicts if v == VERDICT_RECOLLAPSE]
        assert complete_s and recollapse_s
        assert min(complete_s) > max(recollapse_s)


class TestVelocitySigns:
    # Lemma: for positive curvature and t > 0, x' has the sign of n - kx
    # and y' that of n - ky.  At a zero of x' with kx > n, x < 0 and
    # x'' = n - kx e^(-2x) < 0; with kx < n, x > 0 and x'' > 0.  The
    # completeness region R of the bisection probes rests on it.
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from((4, 6, 8)), upper=st.booleans(),
           above=st.booleans(),
           distance=st.floats(min_value=1e-6, max_value=0.2))
    def test_velocities_have_the_signs_of_n_minus_k(
        self, n, upper, above, distance
    ):
        threshold = thresholds(n)[upper]
        s = threshold * (1.0 + distance if above else 1.0 - distance)
        cfg = FlowConfig(m=n // 2, sign=POS, s=s)
        traj = integrate(cfg, IntegratorSettings(t_max=20.0, output_dt=0.01))
        later = [state for state in traj.samples if state.t > 0.0]
        assert later
        for state in later:
            assert (state.xp > 0.0, state.xp < 0.0) == (n > cfg.kx, n < cfg.kx)
            assert (state.yp > 0.0, state.yp < 0.0) == (n > cfg.ky, n < cfg.ky)


class TestBisect:
    def test_upper_threshold(self):
        res = bisect_critical(4, POS, 1.4, 1.6, 1e-3, 30.0)
        lo, hi = res.bracket
        assert hi - lo <= 1e-3
        assert lo - 1e-2 <= 1.5 <= hi + 1e-2
        assert res.verdict_lo == VERDICT_COMPLETE
        assert res.verdict_hi == VERDICT_RECOLLAPSE
        assert res.horizon_used == 30.0

    def test_lower_threshold(self):
        res = bisect_critical(4, POS, 0.6, 0.9, 1e-3, 30.0)
        lo, hi = res.bracket
        assert lo - 1e-2 <= 0.75 <= hi + 1e-2
        assert res.verdict_lo == VERDICT_RECOLLAPSE
        assert res.verdict_hi == VERDICT_COMPLETE

    @pytest.mark.parametrize("n, s_lo", [(4, 1.4), (6, 1.2)])
    def test_bracket_ends_classify_as_their_verdicts(self, n, s_lo):
        # At horizon 8 the horizon, not the threshold, decides these
        # 2-ulp brackets, so the ends agree with classify only if the
        # probes step as classify does.
        res = bisect_critical(n, POS, s_lo, 3.0, 2 * math.ulp(3.0), 8.0)
        lo, hi = res.bracket
        m = n // 2
        assert classify(config(m=m, s=lo), 8.0).verdict == res.verdict_lo
        assert classify(config(m=m, s=hi), 8.0).verdict == res.verdict_hi

    def test_raised_run_that_ends_another_way_falls_back(self):
        # A y floor at -0.05 fires before the raised velocity floor, so the
        # raised run ends another way and the full run decides.  Were the
        # screened run's y-floor time to decide instead, this 2-ulp bracket,
        # which horizon 0.5 decides, would move by 8e-9 and its upper end
        # would recollapse where classify completes.
        events = EventSpec(y_floor=-0.05)
        res = bisect_critical(4, POS, 1.6, 3.0, 2 * math.ulp(3.0), 0.5,
                              events=events)
        for s, verdict in zip(res.bracket, (res.verdict_lo, res.verdict_hi)):
            assert classify(config(s=s), 0.5, events=events).verdict == verdict

    def test_negative_family_rejected(self):
        with pytest.raises(PreconditionError):
            bisect_critical(4, NEG, 1.4, 1.6, 1e-3, 30.0)

    def test_agreeing_endpoints_rejected(self):
        with pytest.raises(BracketError):
            bisect_critical(4, POS, 2.0, 3.0, 1e-3, 30.0)

    @pytest.mark.parametrize("lo, hi, tol", [(1.6, 1.4, 1e-3), (1.4, 1.6, 0.0)])
    def test_bad_bracket_or_tolerance_rejected(self, lo, hi, tol):
        with pytest.raises(ValueError):
            bisect_critical(4, POS, lo, hi, tol, 30.0)

    @pytest.mark.parametrize("lo, hi", [
        (1.4, math.inf), (-math.inf, 1.6), (math.nan, 1.6), (1.4, math.nan),
    ])
    def test_non_finite_bracket_rejected(self, lo, hi):
        end = "s_hi" if math.isfinite(lo) else "s_lo"
        with pytest.raises(ValueError, match=f"{end} must be finite"):
            bisect_critical(4, POS, lo, hi, 1e-3, 30.0)

    @pytest.mark.parametrize("tol", [1e-20, 0.0, -1.0, math.nan])
    def test_tol_below_double_spacing_rejected_before_any_run(
        self, monkeypatch, tol
    ):
        calls = []
        monkeypatch.setattr(experiments, "integrate",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError) as exc:
            bisect_critical(4, POS, 1.4, 1.6, tol, 30.0)
        assert str(exc.value) == (
            "tol must be at least 2.220446049250313e-16, the spacing of "
            "doubles at s_hi"
        )
        assert calls == []

    @settings(max_examples=300)
    @given(s_hi=st.floats(min_value=0.5, max_value=8e307, exclude_min=True),
           data=st.data())
    def test_midpoint_lies_strictly_inside_the_bracket(self, s_hi, data):
        # The loop's one exit rests on this: for 0.5 < lo < hi <= s_hi with
        # hi - lo > ulp(s_hi), the rounded midpoint is neither end, since
        # its rounding error is at most ulp(hi)/2 < (hi - lo)/2.
        spacing = math.ulp(s_hi)
        hi = data.draw(st.floats(min_value=0.5, max_value=s_hi,
                                 exclude_min=True))
        assume(hi - spacing > 0.5)
        lo = data.draw(st.floats(min_value=0.5, max_value=hi - spacing,
                                 exclude_min=True))
        assume(hi - lo > spacing)
        assert lo < 0.5 * (lo + hi) < hi

    @settings(max_examples=100)
    @given(s_lo=st.floats(min_value=0.5, max_value=4.0, exclude_min=True),
           width=st.floats(min_value=1e-15, max_value=1e300),
           fraction=st.floats(min_value=0.0, max_value=1.0),
           slack=st.sampled_from([1.0, 1.5, 1e3]))
    def test_every_bracket_meets_tol(self, s_lo, width, fraction, slack):
        # Probes stubbed by a step at s_star: the loop probes only strictly
        # inside its bracket and stops only once the bracket meets tol.
        s_hi = s_lo + width
        assume(s_lo < s_hi < math.inf)
        s_star = s_lo + fraction * (s_hi - s_lo)
        tol = slack * math.ulp(s_hi)
        bracket = [s_lo, s_hi]
        probes = []

        def verdict(config, settings, events):
            s = config.s
            probes.append(s)
            if len(probes) <= 2:  # the ends, s_lo then s_hi
                complete = s == s_lo
            else:
                assert bracket[0] < s < bracket[1]
                complete = s < s_star
                bracket[0 if complete else 1] = s
            return (VERDICT_COMPLETE if complete else VERDICT_RECOLLAPSE), None

        with mock.patch.object(experiments, "_probe_verdict", verdict):
            res = bisect_critical(4, POS, s_lo, s_hi, tol, 30.0)
        lo, hi = res.bracket
        assert [lo, hi] == bracket
        assert res.iterations == len(probes) - 2
        assert s_lo <= lo < hi <= s_hi
        assert hi - lo <= tol

    @settings(max_examples=300, deadline=None)
    @given(s_lo=st.floats(min_value=0.6, max_value=3.0),
           width=st.floats(min_value=1e-9, max_value=1.0),
           fraction=st.floats(min_value=0.0, max_value=1.0,
                              exclude_min=True, exclude_max=True),
           depth=st.integers(min_value=1, max_value=52),
           upper=st.booleans(),
           offset=st.floats(min_value=-2.0, max_value=5.0),
           rate_factor=st.sampled_from([1.0, 0.97, 1.05, 0.8, 1.3, None]),
           random=st.randoms(use_true_random=False))
    def test_placed_probes_give_the_midpoint_bisection(
        self, s_lo, width, fraction, depth, upper, offset, rate_factor, random
    ):
        # Probes stubbed by a step at s_star, itself on the complete side.
        # Recollapse probes escape at offset - ln|s - s_star| / lambda, with
        # lambda near and far from escape_rate, or (factor None) at random
        # times, where placed probes miss often.
        s_hi = s_lo + width
        s_star = s_lo + fraction * width
        assume(s_lo < s_star < s_hi)
        tol = max(width * 2.0 ** -depth, math.ulp(s_hi))
        rate = (rate_factor or 1.0) * experiments.escape_rate(4)

        def recollapses(s):
            return s > s_star if upper else s < s_star

        def t_escape(s):
            if rate_factor is None:
                return random.uniform(0.0, 20.0)
            return offset - math.log(abs(s - s_star)) / rate

        known = [s_lo, s_hi]
        probes = []
        per_node = Counter()

        def node():
            # The first midpoint the known verdicts leave open.
            lo, hi = s_lo, s_hi
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                if mid <= known[0]:
                    lo = mid
                elif mid >= known[1]:
                    hi = mid
                else:
                    break
            return lo, hi

        def verdict(config, settings, events):
            s = config.s
            if len(probes) >= 2:  # past the two ends
                assert known[0] < s < known[1]
                per_node[node()] += 1
            probes.append(s)
            known[0 if recollapses(s) == recollapses(s_lo) else 1] = s
            if recollapses(s):
                return VERDICT_RECOLLAPSE, t_escape(s)
            return VERDICT_COMPLETE, None

        with mock.patch.object(experiments, "_probe_verdict", verdict):
            res = bisect_critical(4, POS, s_lo, s_hi, tol, 1e6)

        lo, hi = s_lo, s_hi
        iterations = 0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if recollapses(mid) == recollapses(s_lo):
                lo = mid
            else:
                hi = mid
            iterations += 1
        assert (res.bracket, res.iterations) == ((lo, hi), iterations)
        # A placed probe that misses is followed by the midpoint.
        assert max(per_node.values(), default=0) <= 2

    def test_ends_past_the_sum_overflow_classify_alike(self):
        # lo + hi overflows only if both ends lie above about 1e292.  There
        # kx = (n-1)/s is too small to change n - kx e^(-2x) for any x above
        # the overflow floor, so every probe runs bitwise alike and such a
        # bracket is rejected before its first midpoint.
        runs = [integrate(FlowConfig(m=2, sign=POS, s=s),
                          IntegratorSettings(t_max=10.0))
                for s in (1e292, 1.7e308)]
        assert runs[0].samples == runs[1].samples
        assert runs[0].termination == runs[1].termination
        with pytest.raises(BracketError):
            bisect_critical(4, POS, 1e292, 1.7e308, math.ulp(1.7e308), 10.0)

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_n_rejected(self, n):
        # m = n // 2 would otherwise bisect the n - 1 threshold silently
        with pytest.raises(ValueError, match="even integer"):
            bisect_critical(n, POS, 1.4, 1.6, 1e-2, 30.0)

    # Bracket ends (float.hex), iterations and end verdicts at horizon 80,
    # recorded with probes that integrate the full horizon.  The first
    # midpoint of the n = 4 upper solve is 1.5 exactly, a boundary solution
    # that never meets the completeness certificate.
    GOLDEN = {
        "n4-upper": ((4, 1.4, 1.6, 1e-4),
                     ("0x1.8000000000000p+0", "0x1.8006666666666p+0", 11,
                      VERDICT_COMPLETE, VERDICT_RECOLLAPSE)),
        "n4-lower": ((4, 0.7, 0.85, 1e-6),
                     ("0x1.7ffff99999999p-1", "0x1.80000ccccccccp-1", 18,
                      VERDICT_RECOLLAPSE, VERDICT_COMPLETE)),
        "n6-lower": ((6, 0.8, 0.9, 1e-6),
                     ("0x1.aaaa99999999ap-1", "0x1.aaaab33333334p-1", 17,
                      VERDICT_RECOLLAPSE, VERDICT_COMPLETE)),
        "n8-upper": ((8, 1.1, 1.25, 1e-6),
                     ("0x1.2aaaa66666666p+0", "0x1.2aaab00000000p+0", 18,
                      VERDICT_COMPLETE, VERDICT_RECOLLAPSE)),
        "n4-upper-fine": ((4, 1.45, 1.6, 1e-6),
                          ("0x1.7ffffccccccccp+0", "0x1.8000066666666p+0", 18,
                           VERDICT_COMPLETE, VERDICT_RECOLLAPSE)),
        "n6-upper": ((6, 1.2, 1.3, 1e-6),
                     ("0x1.4000000000000p+0", "0x1.40000cccccccdp+0", 17,
                      VERDICT_COMPLETE, VERDICT_RECOLLAPSE)),
        "n8-lower": ((8, 0.85, 0.9, 1e-6),
                     ("0x1.bfffe66666666p-1", "0x1.c000000000000p-1", 16,
                      VERDICT_RECOLLAPSE, VERDICT_COMPLETE)),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_brackets(self, name):
        (n, lo, hi, tol), expected = self.GOLDEN[name]
        res = bisect_critical(n, POS, lo, hi, tol, 80.0)
        assert (res.bracket[0].hex(), res.bracket[1].hex(), res.iterations,
                res.verdict_lo, res.verdict_hi) == expected

    # Probes of each golden solve at horizon 80, both ends included, as
    # measured with the escape-time law placing them.
    GOLDEN_PROBES = {
        "n4-lower": 10, "n4-upper": 7, "n4-upper-fine": 9,
        "n6-lower": 9, "n6-upper": 7,
        "n8-lower": 7, "n8-upper": 10,
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_probe_counts(self, monkeypatch, name):
        probes = _count_probes(monkeypatch)
        (n, lo, hi, tol), _ = self.GOLDEN[name]
        bisect_critical(n, POS, lo, hi, tol, 80.0)
        assert len(probes) <= self.GOLDEN_PROBES[name]

    # DP5 steps, accepted plus rejected, of the seven golden solves at
    # default settings: 11 634 with the raised-floor runs at the caller's
    # tolerances, 5 176 with them screened at rel_tol 1e-7, 4 396 at 1e-6,
    # plus a 10% margin.  Three of the solves probe a boundary solution
    # (s = s* exactly), whose raised run reaches the horizon and leaves the
    # verdict to a full run.
    GOLDEN_STEPS = 4840

    def test_golden_solves_screen_their_raised_runs(self, monkeypatch):
        steps = []
        real = experiments.integrate

        def counted(config, settings, events=None):
            traj = real(config, settings, events)
            steps.append(traj.n_accepted + traj.n_rejected)
            return traj

        monkeypatch.setattr(experiments, "integrate", counted)
        for (n, lo, hi, tol), _ in self.GOLDEN.values():
            bisect_critical(n, POS, lo, hi, tol, 80.0)
        assert sum(steps) <= self.GOLDEN_STEPS

    @pytest.mark.parametrize("factor", [0.5, 0.9, 1.1, 1.5])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_wrong_escape_rate_keeps_the_bracket(self, monkeypatch, name, factor):
        # With a wrong lambda, 10% off or far off, placed probes go astray,
        # yet the result is the golden one and every halving still costs at
        # most two probes.
        rate = experiments.escape_rate
        monkeypatch.setattr(experiments, "escape_rate",
                            lambda n: factor * rate(n))
        probes = _count_probes(monkeypatch)
        (n, lo, hi, tol), expected = self.GOLDEN[name]
        res = bisect_critical(n, POS, lo, hi, tol, 80.0)
        assert (res.bracket[0].hex(), res.bracket[1].hex(), res.iterations,
                res.verdict_lo, res.verdict_hi) == expected
        assert len(probes) <= 2 * (res.iterations + 2)

    # Each threshold of n = 4, 6, 8 inside a bracket whose ends lie 0.01 to
    # 0.08 away from it.
    SETTINGS_SOLVES = {
        "n4-upper": (4, 1.45, 1.53), "n4-lower": (4, 0.72, 0.76),
        "n6-upper": (6, 1.24, 1.30), "n6-lower": (6, 0.80, 0.87),
        "n8-upper": (8, 1.10, 1.19), "n8-lower": (8, 0.86, 0.95),
    }

    @pytest.mark.parametrize("name", sorted(SETTINGS_SOLVES))
    def test_result_does_not_depend_on_integrator_settings(self, name):
        n, lo, hi = self.SETTINGS_SOLVES[name]
        results = {
            bisect_critical(n, POS, lo, hi, 1e-6, 80.0, settings)
            for settings in [
                *(IntegratorSettings(rel_tol=r)
                  for r in (1e-12, 1e-10, 1e-8, 1e-6)),
                IntegratorSettings(max_step=0.3),
            ]
        }
        assert len(results) == 1

    # At a short horizon the bracket closes on the coupling whose blow-up
    # time is the horizon, so late probes reach the raised velocity floor
    # too late for the recollapse certificate and fall back to the full run.
    @pytest.mark.parametrize("n, s_lo, s_hi, horizon", [
        (4, 1.4, 3.0, 2.0), (4, 1.4, 3.0, 1.5), (6, 0.55, 0.9, 3.0),
    ])
    def test_fall_back_runs_give_the_classify_bisection(
        self, monkeypatch, n, s_lo, s_hi, horizon
    ):
        full_runs = []
        probes = []
        probe = experiments._probe_verdict

        def counted(config, settings, events=None):
            if events is None or events.velocity_floor != RECOLLAPSE_V0:
                full_runs.append(config.s)
            return integrate(config, settings, events)

        def counted_probe(config, settings, events):
            probes.append(config.s)
            return probe(config, settings, events)

        monkeypatch.setattr(experiments, "integrate", counted)
        monkeypatch.setattr(experiments, "_probe_verdict", counted_probe)
        res = bisect_critical(n, POS, s_lo, s_hi, 1e-6, horizon)
        monkeypatch.undo()
        assert full_runs

        def verdict(s):
            return classify(FlowConfig(m=n // 2, sign=POS, s=s), horizon).verdict

        lo, hi = s_lo, s_hi
        iterations = 0
        verdict_lo = verdict(lo)
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if verdict(mid) == verdict_lo:
                lo = mid
            else:
                hi = mid
            iterations += 1
        assert (res.bracket, res.iterations) == ((lo, hi), iterations)
        # Here the horizon, not the escape-time law, sets the threshold, so a
        # probe the law places may miss and leave its midpoint unresolved;
        # a halving still costs at most two probes.
        assert len(probes) <= 2 * iterations + 2

    # Solves whose results screening must leave bit for bit: the 2-ulp
    # brackets that horizon 8 decides, the short-horizon solves above, whose
    # late probes fall back to the full run, and the settings solves.
    SCREENED_SOLVES = [
        (4, 1.4, 3.0, 2 * math.ulp(3.0), 8.0),
        (6, 1.2, 3.0, 2 * math.ulp(3.0), 8.0),
        (4, 1.4, 3.0, 1e-6, 2.0), (4, 1.4, 3.0, 1e-6, 1.5),
        (6, 0.55, 0.9, 1e-6, 3.0),
        *((n, lo, hi, 1e-6, 80.0) for n, lo, hi in SETTINGS_SOLVES.values()),
    ]

    @pytest.mark.parametrize("n, s_lo, s_hi, tol, horizon", SCREENED_SOLVES)
    def test_screening_never_changes_a_result(
        self, monkeypatch, n, s_lo, s_hi, tol, horizon
    ):
        def solve():
            res = bisect_critical(n, POS, s_lo, s_hi, tol, horizon)
            return (res.bracket[0].hex(), res.bracket[1].hex(), res.iterations,
                    res.verdict_lo, res.verdict_hi)

        screened = solve()
        # At 0 the max() in _probe_verdict keeps the caller's tolerances, so
        # every raised-floor run steps as the full run does.
        monkeypatch.setattr(experiments, "PROBE_REL_TOL", 0.0)
        monkeypatch.setattr(experiments, "PROBE_ABS_TOL", 0.0)
        assert solve() == screened

    @pytest.mark.parametrize("caller", [None, IntegratorSettings(rel_tol=1e-5)])
    def test_only_raised_floor_runs_are_screened(self, monkeypatch, caller):
        runs = []
        sample_counts = set()
        real = experiments.integrate

        def recorded(config, settings, events=None):
            runs.append((settings, (events or EventSpec()).velocity_floor))
            traj = real(config, settings, events)
            sample_counts.add(len(traj.samples))
            return traj

        monkeypatch.setattr(experiments, "integrate", recorded)
        bisect_critical(4, POS, 1.4, 3.0, 1e-6, 2.0, caller)
        # classify's defaults without settings; a looser rel_tol stands.
        # No probe reads a sample, so neither run records any on the grid.
        full = replace(caller or IntegratorSettings(max_step=RUN_MAX_STEP),
                       t_max=2.0, output_dt=math.inf)
        screen = replace(full, rel_tol=max(full.rel_tol, PROBE_REL_TOL),
                         abs_tol=max(full.abs_tol, PROBE_ABS_TOL))
        assert {(screen, RECOLLAPSE_V0), (full, -100.0)} == set(runs)
        # Only the initial and terminal states.
        assert sample_counts == {2}

    def test_midpoints_approach_threshold_with_horizon(self):
        for lo, hi, target in [(1.4, 1.6, 1.5), (0.6, 0.9, 0.75)]:
            dists = []
            for horizon in (30.0, 50.0, 80.0):
                res = bisect_critical(4, POS, lo, hi, 1e-3, horizon)
                mid = 0.5 * (res.bracket[0] + res.bracket[1])
                dists.append(abs(mid - target))
            assert all(b <= a for a, b in zip(dists, dists[1:]))


def _mirror(s):
    """The involution s -> s/(2s - 1) of s > 1/2; it swaps kx and ky."""
    return s / (2.0 * s - 1.0)


# Largest deviations over 600 random mirror pairs at horizon 20 (n in
# {4, 6, 8}, both signs, s in [0.55, 3]): 1.8e-14 in a state component of a
# complete run and 7.0e-11 in a blow-up time, which the event locator finds
# to within 1e-10.
MIRROR_HORIZON = 20.0
MIRROR_STATE_TOL = 1e-12
MIRROR_BLOWUP_TOL = 1e-9


class TestMirrorSymmetry:
    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from((4, 6, 8)), sign=st.sampled_from(CurvatureSign),
           s=st.floats(min_value=0.55, max_value=3.0))
    def test_mirror_coupling_swaps_the_factors(self, n, sign, s):
        # Blow-up times grow without bound at a threshold; keep them well
        # inside the horizon.
        assume(all(abs(s - t) > 1e-6 for t in thresholds(n) if t is not None))
        pair = [FlowConfig(m=n // 2, sign=sign, s=c) for c in (s, _mirror(s))]
        a, b = (integrate(c, IntegratorSettings(t_max=MIRROR_HORIZON))
                for c in pair)
        row_a, row_b = sweep(n, sign, [c.s for c in pair], MIRROR_HORIZON)
        cls_a, cls_b = row_a.classification, row_b.classification
        assert cls_a.verdict == cls_b.verdict
        if cls_a.verdict == VERDICT_RECOLLAPSE:
            assert abs(cls_a.t_blowup - cls_b.t_blowup) <= MIRROR_BLOWUP_TOL
            return
        assert cls_a.t_blowup is cls_b.t_blowup is None
        assert len(a.samples) == len(b.samples)
        for p, q in zip(a.samples, b.samples):
            assert p.t == q.t
            assert max(abs(p.x - q.y), abs(p.y - q.x),
                       abs(p.xp - q.yp), abs(p.yp - q.xp)) <= MIRROR_STATE_TOL
        assert abs(row_a.limit.value + row_b.limit.value) <= 2 * MIRROR_STATE_TOL

    @pytest.mark.parametrize("name", ["n4-lower", "n6-lower", "n8-lower"])
    def test_mirrored_lower_bracket_brackets_the_upper_threshold(self, name):
        (n, s_lo, s_hi, tol), _ = TestBisect.GOLDEN[name]
        res = bisect_critical(n, POS, s_lo, s_hi, tol, 80.0)
        lo, hi = res.bracket
        # The involution reverses order: the complete end maps below the
        # upper threshold and the recollapsing end above it.
        up_lo, up_hi = _mirror(hi), _mirror(lo)
        assert up_lo <= thresholds(n)[1] <= up_hi
        verdicts = [classify(FlowConfig(m=n // 2, sign=POS, s=c), 80.0).verdict
                    for c in (up_lo, up_hi)]
        assert verdicts == [res.verdict_hi, res.verdict_lo]


class TestLimit:
    def test_symmetric_coupling_has_zero_limit(self):
        for sign in (POS, NEG):
            est = limit_Cs(config(sign=sign, s=1.0), 20.0)
            assert est.value == 0.0
            assert est.tail_variation <= 1e-12
            assert est.decay_rate is None
            assert est.cross_check_delta <= 1e-12

    def test_positive_regime_value(self):
        est = limit_Cs(config(s=1.3), 40.0)
        assert est.value == pytest.approx(CS_POS_13, abs=1e-6)
        assert est.tail_variation <= 1e-6
        assert est.decay_rate is not None and est.decay_rate < 0.0
        assert est.cross_check_delta <= 1e-6

    def test_negative_regime_value(self):
        est = limit_Cs(config(sign=NEG, s=1.3), 40.0)
        assert est.value == pytest.approx(CS_NEG_13, abs=1e-6)
        assert est.decay_rate is not None and est.decay_rate < 0.0

    def test_swap_symmetry_of_limits(self):
        # couplings s and s/(2s-1) exchange the two factors
        a = limit_Cs(config(sign=NEG, s=3.0), 30.0)
        b = limit_Cs(config(sign=NEG, s=0.6), 30.0)
        assert a.value == pytest.approx(-b.value, abs=1e-9)

    def test_regime_errors(self):
        with pytest.raises(RegimeError):
            limit_Cs(config(s=2.0), 30.0)
        with pytest.raises(RegimeError):
            limit_Cs(config(s=1.5), 30.0)  # boundary excluded
        with pytest.raises(RegimeError):
            limit_Cs(config(s=0.7), 30.0)

    def test_oracle_blowup_is_regime_error(self, monkeypatch):
        # the oracle at dt 0.5 leaves the double range and stops on its
        # velocity floor; that is reported, not raised as OverflowError
        monkeypatch.setattr(experiments, "ORACLE_DT", 0.5)
        with pytest.raises(RegimeError, match="oracle integration"):
            limit_Cs(config(m=3, sign=NEG, s=5.0), 8.0)

    def test_run_that_misses_the_horizon_is_regime_error(self):
        # A min_step just below the default max_step collapses the step of a
        # convergent run; no limit is read off a run that stopped short.
        with pytest.raises(RegimeError, match=(
                "trajectory did not reach the horizon: .*StepSizeCollapse")):
            limit_Cs(config(sign=NEG, s=1.3), 10.0,
                     settings=IntegratorSettings(min_step=0.029))

    @pytest.mark.parametrize("n, sign, s", [
        (4, POS, 0.9), (4, POS, 1.3), (4, NEG, 0.9), (4, NEG, 3.0),
        (6, POS, 0.9), (6, POS, 1.2), (6, NEG, 0.7), (6, NEG, 2.0),
    ])
    def test_decay_rate_is_two(self, n, sign, s):
        # For n >= 4 and s != 1, x - y = L + A e^(-2t) + O(e^(-4t)): the
        # curvature forcing decays like e^(-2t), the free mode like e^(-nt).
        est = limit_Cs(config(m=n // 2, sign=sign, s=s), 50.0)
        assert abs(est.decay_rate + 2.0) <= 1e-3

    @pytest.mark.parametrize("sign, frozen", [(POS, CS_POS_13), (NEG, CS_NEG_13)])
    def test_default_oracle_step_meets_frozen_limits(self, sign, frozen):
        # Measured: the paired value predicted from the first settled
        # sample (t = 9.6 positive, 7.488 negative) is 1.91e-11 and
        # 4.7e-12 from the frozen limit, and the error bar is 8.5e-10 and
        # 1.3e-10; the pair run to 40 on the same step plan reads 1.91e-11
        # and 4.7e-12.
        cfg = config(sign=sign, s=1.3)
        paired_errors = [
            abs(fine + (fine - coarse) / 15.0 - frozen)
            for fine, coarse in (
                _predicted_pair_ends(cfg, 40.0),
                _oracle_pair_ends(cfg, 40.0),
            )
        ]
        assert max(paired_errors) <= 1e-10
        est = limit_Cs(cfg, 40.0)
        assert est.oracle_error_estimate >= max(paired_errors)

    @pytest.mark.parametrize("sign", [POS, NEG])
    def test_limit_and_sweep_share_the_oracle_step(self, sign):
        # The fine runs settle at t_s = 9.6 (positive) and 7.488
        # (negative).  At horizon 14 the e^(-2(T - t_s)) and e^(-4(T - t_s))
        # terms move the fine run's prediction by 1.2e-11 (positive) and
        # 9e-14 (negative); at 40 they are below rounding.
        cfg = config(sign=sign, s=1.3)
        for horizon in (40.0, 14.0):
            est = limit_Cs(cfg, horizon)
            (row,) = sweep(4, sign, [1.3], horizon)
            assert row.limit == est
            fine, coarse = _predicted_pair_ends(cfg, horizon)
            assert est.cross_check_delta == abs(
                est.value - (fine + (fine - coarse) / 15.0))
            assert est.oracle_error_estimate == abs(fine - coarse) / 15.0

    @pytest.mark.parametrize("sign, s, horizon", [
        (POS, 1.3, 5.0), (NEG, 0.7, 7.5), (POS, 0.9, 8.5),
    ])
    def test_short_horizon_reads_the_pair_at_its_end(
        self, monkeypatch, sign, s, horizon
    ):
        # Neither run settles before the horizon (the negative s = 0.7 pair
        # settles at t = 7.68, the positive s = 0.9 pair at 9.024), so both
        # run to it and no prediction is made: the check is that of the
        # full-run pair on the same step plan.
        stops = _record_oracle_stops(monkeypatch)
        cfg = config(sign=sign, s=s)
        est = limit_Cs(cfg, horizon)
        assert stops == [(ORACLE_DT, horizon, horizon),
                         (2.0 * ORACLE_DT, horizon, horizon)]
        fine, coarse = _oracle_pair_ends(cfg, horizon)
        assert est.cross_check_delta == abs(
            est.value - (fine + (fine - coarse) / 15.0))
        assert est.oracle_error_estimate == abs(fine - coarse) / 15.0

    @pytest.mark.parametrize("m, s", [(2, 0.75001), (2, 1.49999), (1, 0.501)])
    def test_near_threshold_pair_settles_late(self, monkeypatch, m, s):
        # Within 1e-3 of a threshold the slow free mode keeps L_2 moving
        # past t = 12 (measured: the fine run settles at t = 14.592, 15.36
        # and 19.968), so each run goes on toward the horizon, in one call,
        # until it settles.  Each end agrees with the full runs on the same
        # step plan.
        stops = _record_oracle_stops(monkeypatch)
        cfg = config(m=m, s=s)
        est = limit_Cs(cfg, 50.0)
        assert [stop[:2] for stop in stops] == [(ORACLE_DT, 50.0),
                                                (2.0 * ORACLE_DT, 50.0)]
        assert all(12.0 < t_end < 50.0 for _, _, t_end in stops)
        assert est.cross_check_delta <= 1e-6
        fine, coarse = _oracle_pair_ends(cfg, 50.0)
        paired = fine + (fine - coarse) / 15.0
        assert abs(abs(est.value - paired) - est.cross_check_delta) <= 1e-11
        assert abs(abs(fine - coarse) / 15.0 - est.oracle_error_estimate) <= 1e-11

    @pytest.mark.parametrize("sign, s", [(NEG, 0.7), (NEG, 2.0), (POS, 0.7)])
    def test_n2_rows_settle_before_the_horizon(self, monkeypatch, sign, s):
        # At n = 2 the free mode e^(-nt) decays like the forcing, so L_2
        # settles late (t = 14.4 to 16.5 on these rows), yet well before T.
        stops = _record_oracle_stops(monkeypatch)
        cfg = config(m=1, sign=sign, s=s)
        est = limit_Cs(cfg, 50.0)
        assert len(stops) == 2
        assert all(12.0 < t_end < 50.0 for _, _, t_end in stops)
        fine, coarse = _oracle_pair_ends(cfg, 50.0)
        paired = fine + (fine - coarse) / 15.0
        assert abs(abs(est.value - paired) - est.cross_check_delta) <= 1e-11
        assert abs(abs(fine - coarse) / 15.0 - est.oracle_error_estimate) <= 1e-11

    def test_symmetric_coupling_pair_stops_at_its_first_window(
        self, monkeypatch
    ):
        # At s = 1, x = y and x'' = y'' exactly, so L_2 is 0 at every sample
        # and each run stops at its eleventh, t = 0.96.
        stops = _record_oracle_stops(monkeypatch)
        for sign in (POS, NEG):
            stops.clear()
            est = limit_Cs(config(sign=sign, s=1.0), 50.0)
            assert stops == [(ORACLE_DT, 50.0, 0.96),
                             (2.0 * ORACLE_DT, 50.0, 0.96)]
            assert (est.value, est.cross_check_delta,
                    est.oracle_error_estimate) == (0.0, 0.0, 0.0)

    def test_tightest_settled_benchmark_row_stops_before_twelve(
        self, monkeypatch
    ):
        # Of the 384 limit rows of the sweep benchmark at seeds 1-3, this
        # one's fine run had the least settle margin at t = 12 under the
        # first-order rule L_ext = (x - y) + (x' - y')/2: a spread of
        # 9.87e-14 against ORACLE_SETTLE_TOL = 1e-13.  Each run now stops at
        # its first settled sample, t = 9.792 and 11.52 on the widened steps
        # (5.76 and 6.816 on uniform ones), in one call.
        stops = _record_oracle_stops(monkeypatch)
        (row,) = sweep(6, NEG, [0.6169990715195376], 50.0)
        assert row.limit is not None and row.error is None
        assert [stop[:2] for stop in stops] == [(ORACLE_DT, 50.0),
                                                (2.0 * ORACLE_DT, 50.0)]
        assert all(t_end < 12.0 for _, _, t_end in stops)

    @pytest.mark.parametrize("spike", [None, 2, 9])
    def test_settle_window_is_the_last_eleven_samples(self, monkeypatch, spike):
        # A synthetic oracle run whose L_2 = d + (3/4) d' + (1/8) d'' is the
        # same at every sample but one, whose x is 1e-12 off: the run stops
        # at the first sample whose window of eleven holds neither that one
        # nor a missing sample, and the tail law predicts x - y at the
        # horizon from that sample.
        cfg = config(s=1.3)
        times = [0.5 * k for k in range(25)]
        samples = [
            FlowState(t, 1.0 + (1e-12 if k == spike else 0.0), 0.0, 0.5, 0.0)
            for k, t in enumerate(times)]
        monkeypatch.setattr(experiments, "integrate_oracle",
                            _synthetic_oracle(samples))
        value, _ = experiments._oracle_limit(cfg, ORACLE_DT, 14.0)
        stop = samples[10 if spike is None else spike + 11]
        assert value == _tail_prediction(cfg, stop, 14.0)

    def test_sample_past_the_overflow_floor_leaves_the_run_to_the_oracle(
        self, monkeypatch
    ):
        # The oracle offers no sample below the floor to its hook: its step
        # from there ends the run.  Here that step is synthetic and the run
        # goes on, and the window fills from the samples after it.
        below = FlowState(0.0, -400.0, 0.0, 0.5, 0.0)
        samples = [below] + [FlowState(0.5 * k, 1.0, 0.0, 0.5, 0.0)
                             for k in range(1, 13)]
        stops = []
        monkeypatch.setattr(experiments, "integrate_oracle",
                            _synthetic_oracle(samples, stops))
        experiments._oracle_limit(config(s=1.3), ORACLE_DT, 14.0)
        assert stops == [samples[11].t]

    def test_exact_two_term_tail_is_predicted_to_rounding(self, monkeypatch):
        # A synthetic run on the exact tail d = L + A e^(-2t) + B e^(-4t),
        # offering d'' from a stand-in right-hand side.  L_2 cancels both
        # terms, so the run settles at its eleventh sample, t = 1, and the
        # prediction at T = 1.5 is d(T) to rounding.  The e^(-4t) term
        # there is 5e-4: the first-order rule would neither settle nor
        # predict d(T).
        lim, amp2, amp4 = 1.25, 0.3, -0.2

        def tail(t, k=0):
            # The k-th time derivative of d at t.
            return ((lim if k == 0 else 0.0)
                    + amp2 * (-2.0) ** k * math.exp(-2.0 * t)
                    + amp4 * (-4.0) ** k * math.exp(-4.0 * t))

        samples = [FlowState(0.1 * k, tail(0.1 * k), 0.0, tail(0.1 * k, 1), 0.0)
                   for k in range(30)]
        stops = []
        monkeypatch.setattr(experiments, "integrate_oracle", _synthetic_oracle(
            samples, stops,
            rhs=lambda cfg: lambda t, u: (u[2], u[3], tail(t, 2), 0.0)))
        value, _ = experiments._oracle_limit(config(s=1.3), ORACLE_DT, 1.5)
        assert stops == [samples[10].t]
        assert abs(value - tail(1.5)) <= 4.0 * math.ulp(lim)
        assert abs(amp4 * math.exp(-4.0 * 1.5)) > 1e-4

    def test_failed_coarse_oracle_run_is_named(self, monkeypatch):
        # The run at ORACLE_DT = 0.25 reaches the horizon; the one at 0.5
        # leaves the double range and stops on its y floor.
        monkeypatch.setattr(experiments, "ORACLE_DT", 0.25)
        with pytest.raises(RegimeError, match=(
                r"^oracle integration did not reach the horizon \(dt=0\.5\)")):
            limit_Cs(config(sign=NEG, s=5.0), 8.0)

    def test_continuity_in_coupling(self):
        base = limit_Cs(config(s=1.2), 40.0).value
        coarse = limit_Cs(config(s=1.2 + 1e-3), 40.0).value
        fine = limit_Cs(config(s=1.2 + 1e-4), 40.0).value
        assert abs(fine - base) < abs(coarse - base)
        assert abs(fine - base) < 1e-3


def _record_oracle_switches(monkeypatch):
    """(dt, [(t, multiple), ...]) of every oracle run from here on, in
    order: the samples at which its hook widened the step."""
    runs = []

    def recording(cfg, dt, t_max, events=None, *, until):
        switches = []

        def hook(samples, xpp, ypp):
            verdict = until(samples, xpp, ypp)
            if type(verdict) is int:
                switches.append((samples[-1].t, verdict))
            return verdict

        runs.append((dt, switches))
        return integrate_oracle(cfg, dt, t_max, events, until=hook)

    monkeypatch.setattr(experiments, "integrate_oracle", recording)
    return runs


# Rows of the accuracy guard: 1e-5 and 1e-7 inside each n = 4 and n = 6
# threshold, n = 2 of both signs and n = 8 negative, none of them a
# benchmark row, and four rows of the benchmark's kind.
_GUARD_ROWS = [
    (n, POS, s)
    for n in (4, 6)
    for d in (1e-5, 1e-7)
    for s in (thresholds(n)[0] + d, thresholds(n)[1] - d)
] + [
    (2, POS, 0.7), (2, NEG, 2.0), (8, NEG, 0.7),
    (4, POS, 1.2), (4, NEG, 2.0), (6, POS, 1.1), (6, NEG, 0.7),
]


class TestOraclePlan:
    @pytest.mark.parametrize("m, sign, s", [
        (2, POS, 1.2), (2, NEG, 2.0), (3, POS, 1.1), (3, NEG, 0.7),
        (2, POS, 0.75001), (1, NEG, 0.7),
    ])
    def test_coarse_run_widens_at_the_fine_runs_switch_times(
        self, monkeypatch, m, sign, s
    ):
        # The fine run makes the plan from its own spread; the coarse run
        # widens at the same samples by the same multiples, so every one of
        # its samples up to the fine run's stop is a fine sample too.
        runs = _record_oracle_switches(monkeypatch)
        stops = []
        real = experiments.integrate_oracle

        def stopping(*args, **kwargs):
            traj = real(*args, **kwargs)
            stops.append(traj)
            return traj

        monkeypatch.setattr(experiments, "integrate_oracle", stopping)
        limit_Cs(config(m=m, sign=sign, s=s), 50.0)
        (fine_dt, fine), (coarse_dt, coarse) = runs
        assert (fine_dt, coarse_dt) == (ORACLE_DT, 2.0 * ORACLE_DT)
        assert [multiple for _, multiple in fine] == [2, 4, 8]
        assert coarse == fine
        for t, _ in fine:
            assert round(t / ORACLE_DT) % ORACLE_PLAN_STEPS == 0
        fine_run, coarse_run = stops
        t_stop = fine_run.final_state().t
        fine_times = {st.t for st in fine_run.samples}
        assert {st.t for st in coarse_run.samples if st.t <= t_stop} <= fine_times

    @pytest.mark.parametrize("m, sign, s", [
        (2, POS, 1.2), (3, NEG, 0.7), (2, POS, 1.49999), (1, POS, 0.7),
    ])
    def test_fine_run_widens_where_its_window_allows(self, m, sign, s):
        # The plan derived again from the fine run's samples: at every
        # ORACLE_PLAN_STEPS-th step of ORACLE_DT whose settle window is
        # full and unsettled, the widest multiple whose bound the window's
        # spread is below, if wider than the step in use.
        cfg = config(m=m, sign=sign, s=s)
        _, plan = experiments._oracle_limit(cfg, ORACLE_DT, 50.0)
        fine, _ = _pair_runs(cfg, 50.0)
        samples = fine.samples
        stop = samples.index(_first_settled(cfg, samples[:-1]))
        expected, multiple = [], 1
        for k in range(stop):
            start = _window_start(samples, k)
            if (start is None
                    or round(samples[k].t / ORACLE_DT) % ORACLE_PLAN_STEPS):
                continue
            window = [_l2(cfg, st) for st in samples[start:k + 1]]
            spread = max(window) - min(window)
            wider = max([wide for bound, wide in ORACLE_WIDENING
                         if spread < bound], default=1)
            if wider > multiple:
                multiple = wider
                expected.append((samples[k].t, wider))
        assert plan == tuple(expected)
        assert expected

    def test_a_uniform_plan_is_the_run_of_one_step(self, monkeypatch):
        # The empty plan widens nothing: each run is the prefix of the run
        # without a hook, up to its first settled sample.
        cfg = config(s=1.2)
        for dt in (ORACLE_DT, 2.0 * ORACLE_DT):
            stops = _record_oracle_stops(monkeypatch)
            experiments._oracle_limit(cfg, dt, 50.0, ())
            monkeypatch.undo()
            *grid, _ = integrate_oracle(cfg, dt, 50.0).samples
            assert stops == [(dt, 50.0, _first_settled(cfg, grid).t)]

    @pytest.mark.parametrize("n, sign, s", _GUARD_ROWS)
    def test_widened_pair_is_as_accurate_as_the_uniform_pair(self, n, sign, s):
        # Against a settled Richardson pair at 1e-3 and 2e-3, the pair on
        # its step plan is within 1e-12 of the error of the pair on uniform
        # steps (the empty plan).  Measured: on every row the widened pair
        # is the closer of the two.  Widening at fixed times instead (twice
        # the step at t = 0.96, four times at 2.88) misses the bound on 10
        # of these 15 rows.
        cfg = config(m=n // 2, sign=sign, s=s)

        def paired(fine_dt, plan):
            fine, plan = experiments._oracle_limit(cfg, fine_dt, 50.0, plan)
            coarse, _ = experiments._oracle_limit(cfg, 2.0 * fine_dt, 50.0, plan)
            return fine + (fine - coarse) / 15.0

        reference = paired(1e-3, ())
        uniform = abs(paired(ORACLE_DT, ()) - reference)
        widened = abs(paired(ORACLE_DT, None) - reference)
        est = limit_Cs(cfg, 50.0)
        assert abs(est.value - paired(ORACLE_DT, None)) == est.cross_check_delta
        assert widened <= uniform + 1e-12


class TestHamiltonianAudit:
    def test_negative_background_constant(self):
        audit = hamiltonian_audit(config(sign=NEG, s=1.0), 8.0)
        assert audit.branch == "H-"
        assert audit.verdict == AUDIT_CONSTANT
        for _, h in audit.series:
            assert h == pytest.approx(16.0, rel=1e-6)

    def test_positive_background_constant(self):
        audit = hamiltonian_audit(config(s=1.0), 8.0)
        assert audit.branch == "H+"
        assert audit.verdict == AUDIT_CONSTANT
        for _, h in audit.series:
            assert h == pytest.approx(16.0, rel=1e-6)

    def test_negative_family_monotone_decreasing(self):
        audit = hamiltonian_audit(config(sign=NEG, s=1.3), 8.0)
        assert audit.verdict == AUDIT_NON_INCREASING
        assert audit.delta_total < 0.0

    def test_positive_family_monotone_increasing(self):
        audit = hamiltonian_audit(config(s=1.3), 8.0)
        assert audit.branch == "H+"
        assert audit.verdict == AUDIT_NON_DECREASING
        assert audit.delta_total > 0.0

    def test_negative_runs_never_non_monotone(self):
        for s in (0.7, 1.15, 2.5):
            audit = hamiltonian_audit(config(sign=NEG, s=s), 8.0)
            assert audit.verdict == AUDIT_NON_INCREASING

    def test_gauge_range_error_on_blowup(self):
        # a recollapsing positive run drives tau across +n
        with pytest.raises(GaugeRangeError):
            hamiltonian_audit(config(s=3.0), 50.0)

    def test_h_red_past_double_range_gives_no_verdict(self):
        # e^(m(x+y)) passes the double range near t = 88.6; an infinite
        # series would pass the constancy test, as inf <= 1e-6 * inf
        with pytest.raises(GaugeRangeError, match="past the double range"):
            hamiltonian_audit(config(m=4, sign=NEG, s=1.3), 100.0)

    def test_run_with_no_sample_past_the_start_gives_no_verdict(self):
        # The first step is below min_step, so the run collapses at t = 0
        # and leaves only the initial sample.
        with pytest.raises(ValueError, match=(
                r"the run ended at t=0 \(StepSizeCollapse\) before any "
                r"sample past t = 0")):
            hamiltonian_audit(config(sign=NEG, s=1.3), 8.0,
                              IntegratorSettings(min_step=0.02))

    def test_rise_then_fall_is_non_monotone(self, monkeypatch):
        # x = y = 0 with |x' + y'| < 2 puts every sample on the H+ branch,
        # and x' != y' keeps |Sigma|^2 > 0; tau changes sign after t = 0.1,
        # so the identity's sign does too: h_red falls, then rises
        cfg = config()
        samples = tuple(
            FlowState(t, 0.0, 0.0, xp, yp)
            for t, xp, yp in ((0.0, 0.0, 0.0), (0.1, -0.5, -0.3),
                              (0.2, 0.3, 0.5), (0.3, 0.5, 0.3))
        )
        traj = Trajectory(
            config=cfg,
            samples=samples,
            termination=Termination(REACHED_HORIZON),
            max_first_integral_residual=0.0,
            n_accepted=3,
            n_rejected=0,
        )
        monkeypatch.setattr(experiments, "integrate", lambda *args: traj)
        audit = hamiltonian_audit(cfg, 0.3)
        assert audit.branch == "H+"
        assert audit.verdict == AUDIT_NON_MONOTONE

    def test_verdict_holds_at_every_horizon_and_setting(self):
        # The verdict may not depend on the horizon or on integrator
        # settings in their documented ranges; runs that leave the gauge
        # range late (tau rounds onto -n) give no verdict at all.
        cases = (
            (NEG, 1.0, AUDIT_CONSTANT),
            (NEG, 1.3, AUDIT_NON_INCREASING),
            (POS, 1.0, AUDIT_CONSTANT),
            (POS, 1.1, AUDIT_NON_DECREASING),
        )
        for sign, s, expected in cases:
            verdicts = Counter()
            for horizon in (8.0, 12.0, 20.0, 30.0, 50.0):
                for max_step in (0.03, 0.1, 1.0):
                    for rel_tol in (1e-10, 1e-12):
                        run = IntegratorSettings(max_step=max_step,
                                                 rel_tol=rel_tol)
                        try:
                            audit = hamiltonian_audit(
                                config(sign=sign, s=s), horizon, run)
                        except GaugeRangeError:
                            continue
                        verdicts[audit.verdict] += 1
            assert set(verdicts) == {expected}, (sign, s, verdicts)

    @pytest.mark.parametrize("m, sign, s", [
        (2, NEG, 1.3), (2, POS, 1.1), (3, NEG, 1.3), (3, POS, 1.1),
    ])
    def test_verdict_is_the_sign_of_the_log_derivative(self, m, sign, s):
        # Centred differences of log h_red on a fine, tightly integrated
        # series match d/dt log h_red = tau |Sigma|^2 / (tau^2/n - n), whose
        # sign the verdict reads.
        dt = 1e-3
        cfg = config(m=m, sign=sign, s=s)
        run = IntegratorSettings(output_dt=dt, rel_tol=1e-12, abs_tol=1e-14,
                                 t_max=2.0)
        audit = hamiltonian_audit(cfg, 2.0, run)
        traj = integrate(cfg, run)
        assert [t for t, _ in audit.series] == [
            state.t for state in traj.samples]
        n = cfg.n
        for t in (0.2, 0.5, 1.0, 1.5):
            i = round(t / dt)
            (t0, h0), (t1, h1) = audit.series[i - 1], audit.series[i + 1]
            measured = (math.log(h1) - math.log(h0)) / (t1 - t0)
            obs = traj.observables[i]
            rate = obs.tau * obs.sigma_sq / (obs.tau ** 2 / n - n)
            assert measured == pytest.approx(rate, rel=1e-4), t
            assert (rate > 0.0) == (sign is POS)
        assert audit.verdict == (
            AUDIT_NON_DECREASING if sign is POS else AUDIT_NON_INCREASING)

    def test_volume_weights_enter(self):
        audit = hamiltonian_audit(
            config(sign=NEG, s=1.0, vol_m=2.0, vol_n=3.0), 5.0
        )
        assert audit.series[0][1] == pytest.approx(96.0, rel=1e-12)


class TestSweep:
    def test_positive_verdict_pattern(self):
        rows = sweep(4, POS, [0.6, 0.75, 1.0, 1.5, 2.0], 50.0, with_limits=False)
        verdicts = [r.classification.verdict for r in rows]
        assert verdicts == [
            VERDICT_RECOLLAPSE,
            VERDICT_COMPLETE,
            VERDICT_COMPLETE,
            VERDICT_COMPLETE,
            VERDICT_RECOLLAPSE,
        ]

    def test_negative_all_complete_with_limits(self):
        rows = sweep(4, NEG, [0.6, 1.0, 3.0], 50.0)
        assert all(r.classification.verdict == VERDICT_COMPLETE for r in rows)
        assert all(r.limit is not None for r in rows)
        assert rows[1].limit.value == 0.0

    def test_limits_absent_outside_open_interval(self):
        rows = sweep(4, POS, [0.75, 1.0, 1.5, 2.0], 30.0)
        present = [r.limit is not None for r in rows]
        assert present == [False, True, False, False]
        assert [r.error for r in rows] == [None] * 4

    def test_oracle_failure_reported_in_row(self, monkeypatch):
        # The coarse oracle overflows before the horizon, where limit_Cs
        # raises; the row keeps its verdict and names the failure.
        monkeypatch.setattr(experiments, "ORACLE_DT", 0.5)
        (row,) = sweep(6, NEG, [5.0], 8.0)
        assert row.classification.verdict == VERDICT_COMPLETE
        assert row.limit is None
        assert row.error.startswith(
            "RegimeError: oracle integration did not reach the horizon"
        )

    def test_bad_grid_value_reported_per_row(self):
        rows = sweep(4, POS, [0.3, 1.0], 30.0, with_limits=False)
        assert rows[0].error is not None
        assert rows[0].classification is None
        assert rows[1].classification.verdict == VERDICT_COMPLETE

    @pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_horizon_raises_before_any_row(self, monkeypatch, horizon):
        def no_run(*args):
            raise AssertionError("integrated with a bad horizon")

        monkeypatch.setattr(experiments, "integrate", no_run)
        with pytest.raises(ValueError) as exc:
            sweep(4, POS, [1.0, 2.0], horizon)
        assert str(exc.value) == "t_max must be positive and finite"

    @pytest.mark.parametrize(
        "s, oracle_dts", [(1.3, [ORACLE_DT, 2.0 * ORACLE_DT]), (2.0, [])])
    def test_one_integration_per_row(self, monkeypatch, s, oracle_dts):
        # The limit's oracle pair runs at ORACLE_DT and at 2 * ORACLE_DT.
        calls = {"integrate": [], "integrate_oracle": []}

        def counted(name):
            fn = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, wrapper)

        counted("integrate")
        counted("integrate_oracle")
        (row,) = sweep(4, POS, [s], 20.0)
        assert len(calls["integrate"]) == 1
        assert [args[1] for args in calls["integrate_oracle"]] == oracle_dts

        monkeypatch.undo()
        assert row.classification == classify(config(s=s), 20.0)
        if oracle_dts:
            assert row.limit == limit_Cs(config(s=s), 20.0)
        else:
            assert row.classification.verdict == VERDICT_RECOLLAPSE
            assert row.limit is None

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("sign", [POS, NEG])
    def test_every_limit_row_runs_the_oracle_twice(self, monkeypatch, n, sign):
        # One call per run of the pair, however late it settles: rows 1e-5,
        # 1e-3 and 1e-2 from a threshold, and rows far from one.
        lower, upper = thresholds(n)
        grid = [1.0, 3.0] + [lower + d for d in (1e-5, 1e-3, 1e-2)]
        if upper is not None:
            grid += [upper - d for d in (1e-5, 1e-3, 1e-2)]
        stops = _record_oracle_stops(monkeypatch)
        rows = sweep(n, sign, grid, 50.0)
        assert all(row.error is None for row in rows)
        limits = sum(row.limit is not None for row in rows)
        assert limits == sum(sign is NEG or upper is None or s < upper
                             for s in grid)
        assert [dt for dt, _, _ in stops] == [ORACLE_DT, 2.0 * ORACLE_DT] * limits

    @pytest.mark.parametrize("sign, grid", [
        (POS, [0.8, 1.0, 1.3, 1.45]), (NEG, [0.6, 1.3, 3.0]),
    ])
    @pytest.mark.parametrize("horizon", [14.0, 50.0])
    def test_floors_cannot_change_convergent_rows(self, sign, grid, horizon):
        # On a convergent row x' and y' stay positive for t > 0, so y >= 0
        # and x' + y' >= 0: no negative floor fires, however close to zero,
        # in the row's run or in the limit's RK4 pair.
        rows = sweep(4, sign, grid, horizon)
        assert all(row.limit is not None for row in rows)
        for floor in (-1e-9, -0.5):
            events = EventSpec(y_floor=floor, velocity_floor=floor)
            assert sweep(4, sign, grid, horizon, events=events) == rows

    def test_rows_keep_grid_order(self):
        grid = [2.0, 0.8, 1.3]
        rows = sweep(4, POS, grid, 30.0, with_limits=False)
        assert [r.s for r in rows] == grid


# Small grids per region at horizon 50: for positive curvature below,
# inside and above the completeness interval (0.75, 1.5) for n = 4 and
# (5/6, 1.25) for n = 6.
_CAP_GRIDS = {
    (4, POS): [0.6, 0.7, 0.8, 1.1, 1.45, 1.6, 3.0],
    (6, POS): [0.6, 0.8, 0.9, 1.0, 1.2, 1.3, 3.0],
    (4, NEG): [0.6, 1.3, 3.0],
    (6, NEG): [0.6, 1.3, 3.0],
}
# sha256 of repr([astuple(row) for row in rows]) for each grid's sweep at
# max_step 0.03, the IntegratorSettings default.  Recorded with the RK4
# pair's step plan, which moves only cross_check_delta and
# oracle_error_estimate.
_CAP_003_SHA256 = {
    (4, POS): "f9cde7319fd84549a5980051edb86db0111b3bddb67c933477a13915478b8f72",
    (6, POS): "5698d9779cb8bdc12bbb45296118cf8b9b5ba694af2dd124c8c09936a7161a36",
    (4, NEG): "fb3f1046dce68e7ea2bcccf23478f44d908ec1838e9d3c48db748a3dc5b42933",
    (6, NEG): "dcaffd87cb6ee009c6ae9ac69eb8479786521e57831f58043c96b8a74505cd58",
}


class TestRunStepCap:
    @pytest.mark.parametrize("n, sign", list(_CAP_GRIDS))
    def test_default_cap_matches_the_fine_cap(self, n, sign):
        grid = _CAP_GRIDS[n, sign]
        fine = sweep(n, sign, grid, 50.0, settings=IntegratorSettings(max_step=0.03))
        # Explicit settings win over RUN_MAX_STEP, bit for bit.
        text = repr([astuple(row) for row in fine])
        assert hashlib.sha256(text.encode()).hexdigest() == _CAP_003_SHA256[n, sign]

        lower, upper = thresholds(n)
        rows = sweep(n, sign, grid, 50.0)
        assert [row.s for row in rows] == grid
        for row, ref in zip(rows, fine):
            complete = sign is NEG or lower < row.s < upper
            assert row.error is None and ref.error is None
            assert row.classification.verdict == ref.classification.verdict == (
                VERDICT_COMPLETE if complete else VERDICT_RECOLLAPSE)
            assert (row.limit is None) == (ref.limit is None) == (not complete)
            if complete:
                # The bounds of criteria 6 and 7.
                assert row.classification.max_first_integral_residual <= 1e-7
                assert row.classification.max_constraint_residual <= 1e-6
                assert abs(row.limit.value - ref.limit.value) <= 1e-12
                assert row.limit.cross_check_delta <= 1e-6

    def test_only_runs_without_an_h_red_series_widen_the_cap(self, monkeypatch):
        caps = []
        real = experiments.integrate

        def recorded(config, settings, events=None):
            caps.append(settings.max_step)
            return real(config, settings, events)

        monkeypatch.setattr(experiments, "integrate", recorded)
        classify(config(s=1.3), 5.0)
        limit_Cs(config(s=1.3), 5.0)
        sweep(4, POS, [1.3], 5.0)
        assert caps == [RUN_MAX_STEP] * 3
        caps.clear()
        bisect_critical(4, POS, 1.4, 1.6, 1e-2, 20.0)
        assert caps and set(caps) == {RUN_MAX_STEP}
        caps.clear()
        hamiltonian_audit(config(sign=NEG, s=1.3), 5.0)
        assert caps == [IntegratorSettings().max_step] == [0.03]
        caps.clear()
        mine = IntegratorSettings(max_step=0.05)
        classify(config(s=1.3), 5.0, settings=mine)
        limit_Cs(config(s=1.3), 5.0, settings=mine)
        sweep(4, POS, [1.3], 5.0, settings=mine)
        assert caps == [0.05] * 3
        caps.clear()
        bisect_critical(4, POS, 1.4, 1.6, 1e-2, 20.0, settings=mine)
        assert caps and set(caps) == {0.05}


def load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


class TestCriticalCouplingScript:
    def test_n2_has_no_critical_coupling(self, monkeypatch, capsys):
        script = load_script("critical_coupling")
        monkeypatch.setattr(sys, "argv", ["critical_coupling.py", "--n", "2"])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--n 2 has no critical coupling" in err

    def test_rows_count_halvings(self, monkeypatch, capsys):
        # iterations counts bracket halvings: 0.45 and 0.3125 wide brackets
        # each take 19 to close below 1e-6
        script = load_script("critical_coupling")
        monkeypatch.setattr(sys, "argv", [
            "critical_coupling.py", "--n", "4", "--tol", "1e-6",
            "--horizons", "80"])
        assert script.main() == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if "horizon" in line]
        assert len(rows) == 2
        assert all(row.endswith("(19 halvings)") for row in rows)

    def test_library_error_is_a_usage_error(self, monkeypatch, capsys):
        script = load_script("critical_coupling")
        monkeypatch.setattr(sys, "argv", [
            "critical_coupling.py", "--n", "4", "--tol", "1e-20",
            "--horizons", "20"])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:")
        assert err.endswith(
            "error: --tol must be at least 2.220446049250313e-16, the spacing "
            "of doubles at the upper end of the start bracket\n")

    def test_horizons_need_a_value(self, monkeypatch, capsys):
        script = load_script("critical_coupling")
        monkeypatch.setattr(sys, "argv", [
            "critical_coupling.py", "--n", "4", "--horizons"])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(
            "error: argument --horizons: expected at least one argument\n")


class TestHamiltonianMonotonicityScript:
    @pytest.mark.parametrize("horizon", ["-1", "0", "inf", "nan"])
    def test_bad_horizon_is_a_usage_error(self, monkeypatch, capsys, horizon):
        script = load_script("hamiltonian_monotonicity")
        monkeypatch.setattr(sys, "argv", [
            "hamiltonian_monotonicity.py", "--horizon", horizon])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:")
        assert err.endswith("error: --horizon must be positive and finite\n")

    def test_every_case_prints(self, monkeypatch, capsys):
        script = load_script("hamiltonian_monotonicity")
        monkeypatch.setattr(sys, "argv", [
            "hamiltonian_monotonicity.py", "--horizon", "4"])
        assert script.main() == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(script.CASES)
        assert not any("Error" in row for row in rows)

    def test_late_rows_keep_the_header_column_widths(self, monkeypatch, capsys):
        # At horizon 30 the negative series end near 3.5e23; each number
        # still fits its column, so every printed row is as wide as the
        # header and its numbers sit under their headings.
        script = load_script("hamiltonian_monotonicity")
        monkeypatch.setattr(sys, "argv", [
            "hamiltonian_monotonicity.py", "--horizon", "30"])
        assert script.main() == 4
        header, *rows = capsys.readouterr().out.splitlines()
        rows = [row for row in rows if "GaugeRangeError" not in row]
        assert len(rows) == 5
        ends = [header.index(name) + len(name)
                for name in ("H(0+)", "H(end)", "total change")]
        for row in rows:
            assert len(row) == len(header)
            for start, end in zip([end - 14 for end in ends], ends):
                assert row[start - 1] == " "
                assert math.isfinite(float(row[start:end]))

    def test_gauge_range_error_is_reported_in_its_row(self, monkeypatch, capsys):
        # At horizon 20 the positive s = 1.2 run reaches tau = -n and leaves
        # the H+ branch; the case after it still prints.
        script = load_script("hamiltonian_monotonicity")
        monkeypatch.setattr(script, "CASES", [(POS, 1.2), (NEG, 1.3)])
        monkeypatch.setattr(sys, "argv", [
            "hamiltonian_monotonicity.py", "--horizon", "20"])
        assert script.main() == 4
        out, err = capsys.readouterr()
        assert err == ""
        failed, printed = out.splitlines()[1:]
        assert failed == (
            "positive     1.20 GaugeRangeError: sample at t=18.8 left the H+ "
            "gauge range (tau=-4.0, n=4)")
        assert printed.startswith("negative     1.30      H- ")

    def test_late_gauge_exit_names_the_grid_time(self, monkeypatch, capsys):
        # At horizon 30 the positive s = 1.4 run leaves the H+ branch at the
        # grid time 19.4, computed as 194 * 0.1 = 19.400000000000002; the
        # row names the grid time.
        script = load_script("hamiltonian_monotonicity")
        monkeypatch.setattr(script, "CASES", [(POS, 1.4)])
        monkeypatch.setattr(sys, "argv", [
            "hamiltonian_monotonicity.py", "--horizon", "30"])
        assert script.main() == 4
        (row,) = capsys.readouterr().out.splitlines()[1:]
        assert row == (
            "positive     1.40 GaugeRangeError: sample at t=19.4 left the H+ "
            "gauge range (tau=-4.0, n=4)")


class TestCouplingGrid:
    def test_ends_and_spacing(self):
        grid = coupling_grid(0.55, 2.5, 25)
        assert len(grid) == 25
        assert grid[0] == 0.55 and grid[-1] == 2.5
        assert grid[8] == 0.55 + (2.5 - 0.55) * (8 / 24)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    @pytest.mark.parametrize("s_min, s_max, steps, message", [
        (0.8, math.inf, 3, "s_max must be finite, got inf"),
        (math.nan, 2.0, 3, "s_min must be finite, got nan"),
        (2.0, 1.0, 3, "need steps >= 1, s_min <= s_max"),
        (0.8, 2.0, 0, "need steps >= 1, s_min <= s_max"),
    ])
    def test_bad_grid_rejected(self, s_min, s_max, steps, message):
        with pytest.raises(ValueError) as exc:
            coupling_grid(s_min, s_max, steps)
        assert str(exc.value) == message

    # Each case is (grid flags, message); a later --points overrides 3.
    @pytest.mark.parametrize("bounds", [
        (["--s-max", "inf"], "--s-max must be finite, got inf"),
        (["--s-min", "2", "--s-max", "1"],
         "need --points >= 1, --s-min <= --s-max"),
        (["--points", "0"], "need --points >= 1, --s-min <= --s-max"),
    ])
    def test_threshold_table_rejects_bad_grid(self, monkeypatch, capsys, bounds):
        grid, message = bounds
        script = load_script("threshold_table")
        monkeypatch.setattr(sys, "argv", [
            "threshold_table.py", "--n", "4", "--points", "3", *grid,
            "--horizon", "10", "--no-limits",
        ])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("horizon", ["inf", "-1"])
    def test_threshold_table_rejects_bad_horizon(self, monkeypatch, capsys,
                                                 horizon):
        script = load_script("threshold_table")
        monkeypatch.setattr(sys, "argv", [
            "threshold_table.py", "--n", "4", "--points", "3",
            "--horizon", horizon, "--no-limits",
        ])
        with pytest.raises(SystemExit) as exc:
            script.main()
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage:")
        assert err.endswith("error: --horizon must be positive and finite\n")

    @pytest.mark.parametrize("n, interval", [
        (2, "[0.500000, undefined (n=2)]"),
        (4, "[0.750000, 1.500000]"),
        (8, "[0.875000, 1.166667]"),
    ])
    def test_threshold_table_header_formats_both_ends(
        self, monkeypatch, capsys, n, interval
    ):
        script = load_script("threshold_table")
        monkeypatch.setattr(script, "sweep", lambda *args, **kwargs: [])
        monkeypatch.setattr(sys, "argv", [
            "threshold_table.py", "--n", str(n), "--points", "3", "--no-limits",
        ])
        assert script.main() == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"n = {n}: analytic completeness interval {interval}"

    def test_cli_and_threshold_table_evaluate_the_same_couplings(
        self, monkeypatch, capsys
    ):
        script = load_script("threshold_table")

        grids = {}

        def recorder(name):
            def fake_sweep(n, sign, s_grid, horizon, **kwargs):
                grids[name] = list(s_grid)
                return []
            return fake_sweep

        monkeypatch.setattr(script, "sweep", recorder("script"))
        monkeypatch.setattr(cli, "sweep", recorder("cli"))
        monkeypatch.setattr(sys, "argv", [
            "threshold_table.py", "--n", "4", "--s-min", "0.55", "--s-max",
            "2.5", "--points", "25", "--no-limits",
        ])
        assert script.main() == 0
        assert cli.main([
            "sweep", "--n", "4", "--curvature", "positive", "--s-min", "0.55",
            "--s-max", "2.5", "--steps", "25", "--horizon", "50", "--no-limits",
        ]) == 0
        capsys.readouterr()
        assert len(grids["cli"]) == 25
        assert grids["script"] == grids["cli"]
