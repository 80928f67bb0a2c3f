"""Scientific drivers over the product-flow integrator.

These reproduce the qualitative dichotomy of the coupling family at desk
scale: recollapse versus completeness classification, bisection for the
critical coupling, extraction of the late-time limit of x - y, and
monotonicity audits of the reduced Hamiltonian.

"Complete" always means *complete within the integration horizon*: a
finite computation can witness a blow-up but can only fail to witness one,
so the verdict name keeps that epistemic status explicit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

from .background import BackgroundModel, CurvatureSign, gauge_gap
from .integrate import (
    REACHED_HORIZON,
    SETTLED,
    STEP_SIZE_COLLAPSE,
    TRIGGER_VELOCITY_FLOOR,
    EventSpec,
    IntegratorSettings,
    Termination,
    Trajectory,
    integrate,
    integrate_oracle,
)
from .products import (
    FlowConfig,
    FlowState,
    derivatives,
    initial_state,
    require_exact_n,
)

VERDICT_COMPLETE = "CompleteWithinHorizon"
VERDICT_RECOLLAPSE = "Recollapse"

AUDIT_CONSTANT = "Constant"
AUDIT_NON_INCREASING = "MonotoneNonIncreasing"
AUDIT_NON_DECREASING = "MonotoneNonDecreasing"
AUDIT_NON_MONOTONE = "NonMonotone"

# Brackets closer to a threshold than this are flagged low-confidence:
# blow-up times grow without bound as the threshold is approached.
NEAR_THRESHOLD = 1e-3

# Below this the magnitude of x' - y' is rounding noise and its log is
# useless for rate fitting.
DECAY_FIT_FLOOR = 1e-13

# Relative margin of the completeness region's curvature conditions.
CERTIFICATE_MARGIN = 1e-9

# Total velocity x' + y' at which a bisection probe tries the recollapse
# certificate; recollapse_time_bound needs it below -2.  Values from -2.2 to
# -4 leave a probe's step count within 2% of each other; -3 keeps the bound
# short (0.201 at n = 4), so few probes near the horizon fall back.
RECOLLAPSE_V0 = -3.0

# Finer step of the RK4 cross-check pair in limit_Cs and sweep (the coarser
# run steps by twice this); limit_Cs states its measured error.
ORACLE_DT = 8e-3

# A limit's DP5 run and each run of its RK4 pair stop at their first sample
# where the extrapolated limit L_2 = d + (3/4) d' + (1/8) d'' of d = x - y
# has moved less than ORACLE_SETTLE_TOL over its settle window,
# ORACLE_SETTLE_SAMPLES samples on even spacing (0.96 in t at the oracle's
# default step, 1.0 at the default output_dt) and that span of time on
# widened steps, and predict x - y at the horizon from the e^(-2t),
# e^(-4t) tail law.  See limit_Cs.
ORACLE_SETTLE_TOL = 1e-13
ORACLE_SETTLE_SAMPLES = 11

# Once the transient has passed, the RK4 pair widens its step.  The finer
# run makes the plan: every ORACLE_PLAN_STEPS steps of ORACLE_DT (t a
# multiple of 0.384, every fourth sample of either run at the default
# step), it takes the widest multiple of its step whose bound the spread of
# L_2 over its settle window is below.  The coarser run widens at the same
# times by the same multiples.  See limit_Cs.
ORACLE_PLAN_STEPS = 48
ORACLE_WIDENING = ((1e-2, 2), (1e-4, 4), (1e-6, 8))

# Default step cap of the runs that report no h_red series (classify,
# bisect_critical, sweep and limit_Cs; see IntegratorSettings).  A
# bisection probe's screening run, which only tests the recollapse
# certificate, steps no tighter than PROBE_REL_TOL and PROBE_ABS_TOL; the
# full run, whose verdict is that of the horizon or the caller's events,
# keeps the caller's settings, so each bracket end classifies as classify
# does at those settings (_probe_verdict).  Under the predictive step
# control of integrate, the screen moves an escape time by at most 4.4e-4
# at rel_tol 1e-7, 7.6e-4 at 1e-6 and 3.0e-4 at 1e-5, against a
# certificate margin of at least 0.047.
RUN_MAX_STEP = 0.3
PROBE_REL_TOL = 1e-6
PROBE_ABS_TOL = 1e-8


class RegimeError(ValueError):
    """Limit extraction requested outside the convergent regime."""


class GaugeRangeError(ValueError):
    """A trajectory left the gauge range of the audited Hamiltonian branch.

    A reduced Hamiltonian past the double range (inf or nan) counts as
    leaving it: no verdict can be read from such a value.
    """


class BracketError(ValueError):
    """Bisection endpoints classify identically; no threshold inside."""


class PreconditionError(ValueError):
    """Operation invoked outside its stated preconditions."""


@dataclass(frozen=True)
class Classification:
    """Verdict of one run plus the diagnostics needed to trust it."""

    verdict: str
    t_blowup: float | None
    horizon: float
    max_constraint_residual: float
    max_first_integral_residual: float
    termination: Termination
    low_confidence: bool


@dataclass(frozen=True)
class BisectionResult:
    bracket: tuple[float, float]
    iterations: int
    horizon_used: float
    verdict_lo: str
    verdict_hi: str


@dataclass(frozen=True)
class LimitEstimate:
    """Late-time limit of x - y with its own quality measures.

    ``value`` is x - y at the horizon: the tail law's prediction from the
    DP5 run's first settled sample, or the run's own end value if it
    reached the horizon unsettled; ``tail_variation`` is the spread of
    L_2 over the settle window, or of x - y over the last fifth of the
    samples (:func:`limit_Cs`).  ``decay_rate`` is the fitted exponential
    rate of |x' - y'| (negative in the convergent regime); it is None when
    the difference mode sits at rounding level throughout, as happens for
    the symmetric coupling s = 1.
    ``cross_check_delta`` is the distance from ``value`` to the
    Richardson-paired RK4 value, and ``oracle_error_estimate`` the pair's own
    error bar (:func:`limit_Cs`).
    """

    value: float
    tail_variation: float
    decay_rate: float | None
    cross_check_delta: float
    oracle_error_estimate: float


@dataclass(frozen=True)
class HamiltonianAudit:
    """Reduced-Hamiltonian series along one run and its global verdict.

    The verdict is the sign of d/dt log h_red = tau |Sigma|^2 / (tau^2/n - n)
    (:func:`hamiltonian_audit`); ``delta_total`` is the measured drift, the
    end-to-start difference on the t > 0 portion.  Past t ~ 10 it carries
    rounding that grows like eps * e^(2t) and may disagree with the verdict:
    at horizon 30 the n = 4 negative s = 1 series ends at 3.49e23, not 16.
    """

    series: list[tuple[float, float]]
    verdict: str
    branch: str
    delta_total: float


@dataclass(frozen=True)
class SweepRow:
    s: float
    classification: Classification | None
    limit: LimitEstimate | None
    error: str | None = None


def thresholds(n: int) -> tuple[float, float | None]:
    """Analytic coupling thresholds ((n-1)/n, (n-1)/(n-2)) for positive products.

    For n = 2 the upper expression degenerates and None is returned; the
    completeness range is then reported empirically only.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    BackgroundModel(n, CurvatureSign.POSITIVE)  # raises ValueError for n past a double
    require_exact_n(n)
    lower = (n - 1) / n
    upper = (n - 1) / (n - 2) if n > 2 else None
    return lower, upper


def _require_finite(**ends: float) -> None:
    for name, value in ends.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _near_threshold(config: FlowConfig) -> bool:
    if config.sign is not CurvatureSign.POSITIVE:
        return False
    lower, upper = thresholds(config.n)
    if abs(config.s - lower) < NEAR_THRESHOLD:
        return True
    return upper is not None and abs(config.s - upper) < NEAR_THRESHOLD


def _settings_for(horizon: float, settings: IntegratorSettings | None):
    base = settings or IntegratorSettings(max_step=RUN_MAX_STEP)
    return replace(base, t_max=horizon)


def classify(
    config: FlowConfig,
    horizon: float,
    settings: IntegratorSettings | None = None,
    events: EventSpec | None = None,
) -> Classification:
    """Recollapse iff the integration ends in a blow-up event before the horizon.

    A step-size collapse is read as recollapse evidence but flagged
    low-confidence, as is any verdict within NEAR_THRESHOLD of an analytic
    threshold.  Without settings the run's step cap is RUN_MAX_STEP.
    """
    run_settings = _settings_for(horizon, settings)
    traj = integrate(config, run_settings, events)
    return _classification(config, traj, horizon)


def _verdict(term: Termination) -> str:
    # A run ends Settled only in the convergent regime, where completeness
    # is proven (limit_Cs).
    if term.kind in (REACHED_HORIZON, SETTLED):
        return VERDICT_COMPLETE
    return VERDICT_RECOLLAPSE


def _classification(
    config: FlowConfig, traj: Trajectory, horizon: float
) -> Classification:
    term = traj.termination
    collapsed = term.kind == STEP_SIZE_COLLAPSE
    return Classification(
        verdict=_verdict(term),
        t_blowup=term.t_last if collapsed else term.t_event,
        horizon=horizon,
        max_constraint_residual=traj.max_ham_residual,
        max_first_integral_residual=traj.max_first_integral_residual,
        termination=term,
        low_confidence=collapsed or _near_threshold(config),
    )


def in_completeness_region(config: FlowConfig, state: FlowState) -> bool:
    """Whether a state lies in the completeness region R of positive curvature.

    R = {x' > 0, y' > 0, kx e^(-2x) < n (1 - CERTIFICATE_MARGIN),
    ky e^(-2y) < n (1 - CERTIFICATE_MARGIN)}.  Every solution that enters R
    is complete: in R, x and y increase, so the curvature terms only shrink;
    on the face x' = 0, x'' = n - kx e^(-2x) > 0, and likewise for y; x' and
    y' stay below max(their entry values, sqrt 2).  So x' + y' > 0 and y
    never decreases, and no blow-up trigger or overflow can fire.  The
    margin keeps the boundary solutions (a coefficient equal to n) out of R.
    """
    bound = config.n * (1.0 - CERTIFICATE_MARGIN)
    return (config.sign is CurvatureSign.POSITIVE
            and state.xp > 0.0 and state.yp > 0.0
            and config.kx * math.exp(-2.0 * state.x) < bound
            and config.ky * math.exp(-2.0 * state.y) < bound)


def recollapse_time_bound(config: FlowConfig, v0: float) -> float | None:
    """Time within which a positive-curvature solution with x' + y' <= v0 blows up.

    Let v = x' + y'.  The sum of the two equations is
    v' = 2n - K - (n/2) v^2 with K = kx e^(-2x) + ky e^(-2y).  For positive
    curvature K > 0, so v' <= -(n/2)(v^2 - 4).  The Riccati equation
    w' = -(n/2)(w^2 - 4) with w(t0) = v0 < -2 is solved by
    w(t) = 2 coth(n (t - t0 - T)), which reaches -infinity at t0 + T with
    T = ln((v0 - 2)/(v0 + 2)) / (2n) = artanh(2/|v0|) / n.  Since v <= w
    while both exist, a solution with v(t0) <= v0 cannot be continued past
    t0 + T, and any velocity floor is crossed before then.
    This returns T, or None when no bound follows: for negative curvature
    (K < 0) or for v0 >= -2, where w need not blow up.
    """
    if config.sign is not CurvatureSign.POSITIVE or not v0 < -2.0:
        return None
    return math.log((v0 - 2.0) / (v0 + 2.0)) / (2.0 * config.n)


def _screen(
    settings: IntegratorSettings, events: EventSpec | None
) -> tuple[IntegratorSettings, EventSpec] | None:
    """Settings and events of the screening run of probes at these settings.

    The screen steps no tighter than PROBE_REL_TOL and PROBE_ABS_TOL, with
    the velocity floor raised to RECOLLAPSE_V0.  None when the caller's
    floor is not below RECOLLAPSE_V0: then no screen can certify anything.
    """
    events = events or EventSpec()
    if not events.velocity_floor < RECOLLAPSE_V0:
        return None
    return (replace(settings, rel_tol=max(settings.rel_tol, PROBE_REL_TOL),
                    abs_tol=max(settings.abs_tol, PROBE_ABS_TOL)),
            replace(events, velocity_floor=RECOLLAPSE_V0))


def _probe_verdict(
    config: FlowConfig,
    settings: IntegratorSettings,
    events: EventSpec | None,
    screen: tuple[IntegratorSettings, EventSpec] | None,
) -> tuple[str, float | None]:
    """Verdict of one bisection probe at horizon settings.t_max, and its escape time.

    ``screen`` is ``_screen(settings, events)``, which bisect_critical builds
    once per solve, since its settings and events never change.

    A probe is decided by one of three things, and each gives the verdict of
    the full run:

    * Region R, without a run.  From rest, x' and y' keep the signs of the
      initial accelerations n - kx and n - ky, so the solution is in R for
      all small t > 0 iff the rest state with velocity (n - kx, n - ky) is.
      A term within the margin of n is left to the runs below; they agree.
    * The recollapse certificate.  Otherwise, for positive curvature and a
      velocity floor below RECOLLAPSE_V0, a screening run is made with the
      velocity floor raised to RECOLLAPSE_V0, at tolerances no tighter than
      PROBE_REL_TOL and PROBE_ABS_TOL (``screen``).  If the raised floor
      fires at t with t + recollapse_time_bound < t_max, the solution blows
      up inside the horizon: Recollapse.  Near a threshold the run follows
      the boundary solution y = 0 (x = 0 near the lower one), a subspace
      that every explicit Runge-Kutta stage maps to itself, so the
      stepper's error scales with the departure from it.  The escape time
      therefore only has to fall well inside the certificate's margin: the
      bound less the time from RECOLLAPSE_V0 to the default floor, at least
      0.047.  Measured under integrate's predictive step control against
      runs at the default tolerances, at n = 4, 6, 8, both thresholds and
      |s - s*| from 5e-2 to 5e-14 on the recollapse side, the screen moves
      the escape time by at most 4.4e-4 at rel_tol 1e-7, 7.6e-4 at 1e-6 and
      3.0e-4 at 1e-5, each worst at 5e-14, where rounding in ky, not the
      tolerance, sets it.  At 1e-2 it moves by 8.2e-2, past the margin.
      1e-5 would take 34% fewer DP5 steps than 1e-6 on the bisect-critical
      benchmark's solves, but that benchmark keeps a record per completed
      operation, so its peak memory then reads +9.7% (30.88 to 33.87 MB,
      one run), against a 10% bound; 1e-5 waits until those records stop
      growing with the run (ROADMAP item 3).
    * The full run, at the caller's settings and events, in every other
      case.  It is the run classify makes at the same settings.

    So every verdict is either certified (R, the recollapse bound) or read
    from classify's run.  Both runs read only the termination; under
    bisect_critical they run at an infinite output_dt and record no grid
    samples, which changes no step.  The escape time is the time t
    at which the raised floor fired, or None when region R decided the
    probe or the screening run ended another way.
    """
    rest = initial_state(config)
    u = (rest.x, rest.y, rest.xp, rest.yp)
    _, _, xpp, ypp = derivatives(config)(rest.t, u)
    if in_completeness_region(config, FlowState(rest.t, rest.x, rest.y, xpp, ypp)):
        return VERDICT_COMPLETE, None
    bound = recollapse_time_bound(config, RECOLLAPSE_V0)
    t_escape = None
    if bound is not None and screen is not None:
        term = integrate(config, *screen).termination
        if term.trigger == TRIGGER_VELOCITY_FLOOR:
            t_escape = term.t_event
            if t_escape + bound < settings.t_max:
                return VERDICT_RECOLLAPSE, t_escape
    return _verdict(integrate(config, settings, events).termination), t_escape


def escape_rate(n: int) -> float:
    """Rate lambda_n at which a run near a threshold leaves the boundary solution.

    Near the upper threshold the run follows the boundary solution y = 0
    (near the lower one its mirror x = 0) and leaves it along the growing
    mode of y'' + (n/sqrt 2) y' - 2n y = 0, whose rate is
    lambda_n = (-n/sqrt 2 + sqrt(n^2/2 + 8n))/2.  A probe at distance
    |s - s*| from the threshold therefore escapes at
    t_esc = C - ln|s - s*| / lambda_n, up to terms that vanish with
    |s - s*|.
    """
    return 0.5 * (-n / math.sqrt(2.0) + math.sqrt(0.5 * n * n + 8.0 * n))


def _threshold_estimate(escapes: list[tuple[float, float]],
                        rate: float) -> float | None:
    """s* extrapolated from the escape times of the three latest recollapses.

    The escape-time law s - s* = A e^(-lambda t) + B e^(-2 lambda t), with
    lambda from escape_rate, is fitted to the three (t_esc, s) with the
    latest escape times and read at e^(-lambda t) = 0.  None with fewer
    points or with escape times too close to tell apart.  Neither the points
    nor the estimate are tested against the law or the horizon: an estimate
    can only place a probe, and a poor one costs a probe, never a verdict
    (bisect_critical).
    """
    latest = sorted(escapes)[-3:]
    if len(latest) < 3:
        return None
    t3, s3 = latest[-1]
    (e1, s1), (e2, s2), (e3, _) = [
        (math.exp(-rate * (t - t3)), s) for t, s in latest
    ]
    if not e1 > e2 > e3:  # escape times too close to tell apart
        return None
    # Neville's scheme at e = 0.
    p12 = (e1 * s2 - e2 * s1) / (e1 - e2)
    p23 = (e2 * s3 - e3 * s2) / (e2 - e3)
    return (e1 * p23 - e3 * p12) / (e1 - e3)


def _placed_probe(
    estimate: float | None, known: list[float], lo: float, hi: float, tol: float
) -> float:
    """Where to probe the node (lo, hi), whose midpoint lies inside known.

    With an estimate of s* strictly inside known, the probe is the end, on
    the midpoint's side, of the bracket in which bisection of (lo, hi)
    would end if s* were the estimate.  That end is itself a point of
    bisection's tree, and if its verdict is the one the estimate predicts,
    the midpoint takes the same verdict.  Otherwise the probe is the
    midpoint.
    """
    mid = 0.5 * (lo + hi)
    if estimate is None or not known[0] < estimate < known[1]:
        return mid
    cell_lo, cell_hi = lo, hi
    while cell_hi - cell_lo > tol:
        cell_mid = 0.5 * (cell_lo + cell_hi)
        if estimate < cell_mid:
            cell_hi = cell_mid
        else:
            cell_lo = cell_mid
    return cell_hi if estimate < mid else cell_lo


def bisect_critical(
    n: int,
    sign: CurvatureSign,
    s_lo: float,
    s_hi: float,
    tol: float,
    horizon: float,
    settings: IntegratorSettings | None = None,
    events: EventSpec | None = None,
) -> BisectionResult:
    """Bisection on the classification predicate for the critical coupling.

    The bracket converges to the horizon-dependent empirical threshold,
    which approaches the analytic value as the horizon grows.  Positive
    curvature only: the negative family is complete for every coupling, so
    there is no threshold to find.

    A probe whose initial acceleration points into the completeness region R
    is complete without a run, and a probe whose x' + y' falls to
    RECOLLAPSE_V0 early enough that :func:`recollapse_time_bound` puts its
    blow-up inside the horizon recollapses without the last approach to the
    velocity floor (:func:`_probe_verdict`); the result is that of
    full-horizon probes.  That screening run steps no tighter than
    PROBE_REL_TOL and PROBE_ABS_TOL (1e-6 and 1e-8), since it only tests
    the certificate, and it moves an escape time far inside the
    certificate's margin.
    Every other probe is a full run at the caller's settings, or at
    RUN_MAX_STEP and the default tolerances without them, so each end's
    verdict is :func:`classify`'s at the same settings and horizon: either
    certified, or that of the same run.  No probe reads a sample, so every
    probe run has an infinite output_dt and keeps only its initial and
    terminal states; stepping does not depend on output_dt, so each
    termination and escape time is that at the caller's output_dt.

    The search walks bisection's own tree: the bracket (lo, hi) halves at
    its midpoint 0.5 * (lo + hi), and ``iterations`` counts the halvings,
    not the probe runs.  A midpoint at or below the furthest probe with
    verdict_lo takes verdict_lo without a run, and one at or above the
    nearest probe with verdict_hi takes verdict_hi.  Only an unresolved
    midpoint costs a probe.  Once three recollapse probes have escaped at
    distinct times, the law of :func:`escape_rate` extrapolates the
    threshold from them, whatever the horizon, and the probe goes to the end
    of the final bracket around that estimate (:func:`_placed_probe`);
    otherwise, and right after a placed probe that left the midpoint
    unresolved, it goes to the midpoint.  So a halving costs at most two
    probes, and whenever the verdict is monotone in s over the bracket, the
    bracket, ``iterations`` and both verdicts are exactly those of midpoint
    bisection: a poor estimate costs probes, never a different result.

    Both ends must be finite and tol at least math.ulp(s_hi), the spacing
    of doubles at s_hi, which no two neighbouring doubles in the bracket
    exceed.  So every midpoint lies strictly inside its bracket, and the
    bisection stops only once the bracket is no wider than tol.
    """
    if sign is not CurvatureSign.POSITIVE:
        raise PreconditionError(
            "the negative-curvature family has no completeness threshold"
        )
    thresholds(n)  # raises ValueError unless n is even and >= 2
    _require_finite(s_lo=s_lo, s_hi=s_hi)
    if not s_lo < s_hi:
        raise ValueError(f"need s_lo < s_hi, got [{s_lo}, {s_hi}]")
    spacing = math.ulp(s_hi)
    if not tol >= spacing:
        raise ValueError(
            f"tol must be at least {spacing!r}, the spacing of doubles at s_hi"
        )

    run_settings = replace(_settings_for(horizon, settings), output_dt=math.inf)
    screen = _screen(run_settings, events)
    rate = escape_rate(n)
    escapes = []  # (t_esc, s) of the recollapse probes

    def verdict_at(s):
        config = FlowConfig(m=n // 2, sign=sign, s=s)
        verdict, t_escape = _probe_verdict(config, run_settings, events, screen)
        if verdict == VERDICT_RECOLLAPSE and t_escape is not None:
            escapes.append((t_escape, s))
        return verdict

    verdict_lo = verdict_at(s_lo)
    verdict_hi = verdict_at(s_hi)
    if verdict_lo == verdict_hi:
        raise BracketError(
            f"both endpoints classify as {verdict_lo} at horizon {horizon}"
        )

    # known: the furthest probe with verdict_lo and the nearest with
    # verdict_hi.  A midpoint outside them takes their verdict unprobed.
    known = [s_lo, s_hi]
    iterations = 0
    lo, hi = s_lo, s_hi
    placed = False
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= known[0]:
            lo = mid
        elif mid >= known[1]:
            hi = mid
        else:
            # A placed probe that leaves the midpoint unresolved is followed
            # by the midpoint, so a halving costs at most two probes.
            s = mid if placed else _placed_probe(
                _threshold_estimate(escapes, rate),
                known, lo, hi, tol)
            placed = s != mid
            known[0 if verdict_at(s) == verdict_lo else 1] = s
            continue
        iterations += 1
        placed = False
    return BisectionResult(
        bracket=(lo, hi),
        iterations=iterations,
        horizon_used=horizon,
        verdict_lo=verdict_lo,
        verdict_hi=verdict_hi,
    )


def _fit_slope(points: list[tuple[float, float]]) -> float:
    t_mean = math.fsum(t for t, _ in points) / len(points)
    z_mean = math.fsum(z for _, z in points) / len(points)
    num = math.fsum((t - t_mean) * (z - z_mean) for t, z in points)
    den = math.fsum((t - t_mean) ** 2 for t, _ in points)
    return num / den


def _decay_rate(traj: Trajectory) -> float | None:
    # Fit window: the final half of the samples whose difference mode is
    # still above rounding noise.
    usable = [
        (state.t, math.log(abs(state.xp - state.yp)))
        for state in traj.samples
        if state.t > 0.0 and abs(state.xp - state.yp) > DECAY_FIT_FLOOR
    ]
    if len(usable) < 4:
        return None
    return _fit_slope(usable[len(usable) // 2 :])


def limit_Cs(
    config: FlowConfig,
    horizon: float,
    settings: IntegratorSettings | None = None,
) -> LimitEstimate:
    """Estimate lim (x - y) from the tail of one DP5 run toward the horizon.

    Valid in the convergent regime only: negative products for any
    coupling, positive products strictly between the thresholds.  The
    caller's settings govern the DP5 run that gives ``value``, x - y at
    the horizon; without settings its step cap is RUN_MAX_STEP.  That
    value is cross-checked against an independent RK4 pair: two runs, at
    the finer step ORACLE_DT = 8e-3 and at 2 * ORACLE_DT, give L_a and
    L_b, their x - y at the horizon.  Both follow one step plan theta(t),
    the finer run at theta * ORACLE_DT and the coarser at twice that, so
    RK4's global error is C h^4 + O(h^5) for both with one C, the paired
    value L_a + (L_a - L_b)/15 cancels the h^4 term (global Richardson
    extrapolation with variable steps; Hairer, Norsett & Wanner, Solving
    ODEs I, section II.8), and ``cross_check_delta`` is the distance from
    ``value`` to it.
    ``oracle_error_estimate`` = |L_a - L_b|/15 estimates the error of the
    finer run alone; the pair is more accurate than that run, so the
    estimate is a conservative error bar for the paired value.

    The DP5 run and the pair have the default blow-up floors, as no floor
    can fire in this regime: x' and y' stay positive for t > 0, so y >= 0
    and x' + y' >= 0, while every floor is negative.  For negative curvature
    the run starts in the quadrant {x' > 0, y' > 0}, forward-invariant as
    x'' = n + kx e^(-2x) > 0 on x' = 0, and likewise for y.  For positive
    curvature strictly inside the interval the run enters the completeness
    region R (:func:`in_completeness_region`) at t = 0+.

    In this regime d = x - y = L + A e^(-2t) + B e^(-4t) + ..., so
    L_2 = d + (3/4) d' + (1/8) d'', with d'' = x'' - y'' from the run's
    own right-hand side, cancels both terms.  Each run, the DP5 run and
    both of the pair, therefore goes toward the horizon T only until the
    first sample t_s at which L_2 has moved less than ORACLE_SETTLE_TOL
    over its settle window (:class:`_Settle`), and predicts its x - y at
    T as L_2 + a e^(-2(T - t_s)) + b e^(-4(T - t_s)), with
    a = -(d'' + 4d')/4 and b = (d'' + 2d')/8 at t_s.  A run that reaches
    the horizon unsettled uses its end value as it is.  Far from a
    threshold at n >= 4 the pair settles by t = 5.8-14.6 (4.2-10.8 on
    uniform steps); n = 6 rows gain most over the first-order rule, while
    n = 4 rows keep a resonant t e^(-4t) term.  Within about 1e-3 of a
    threshold, and at n = 2, where the free mode e^(-nt) decays like the
    forcing, the runs settle later (t = 14.4-16.5 on n = 2 rows).

    The DP5 run's settle window is that of its output_dt grid, 1.0 in t
    at the default 0.1, and a settled run ends ``Settled``
    (integrate's ``until``), which reads as complete: completeness in this
    regime is proven, not read off the horizon.  Most of the DP5 steps
    past t_s would be sized by the stability interval of DP5 (h 2n up to
    about 3.3; Hairer & Wanner, Solving ODEs II, section IV.2), not by the
    tolerance.  On the 64 limit rows of the first 8 seed-1 operations of
    the sweep-limits benchmark, at horizon 50, the DP5 runs settle at
    t = 10.13 on average, 14.60 at worst.  A settled run's ``value`` is
    the tail law's prediction, and ``tail_variation`` the spread of L_2
    over its settle window.  A run that reaches the horizon unsettled,
    such as one at an infinite output_dt, whose window never fills, reads
    ``value`` as its raw x - y at the horizon and ``tail_variation`` as
    the spread of x - y over the last fifth of its samples.  Either way
    ``decay_rate`` is fitted to the run's own samples (:func:`_decay_rate`)
    and the residual maxima of the row are taken over its own samples and
    steps.

    The plan widens the step once the transient has passed, where the
    pair makes almost none of its error.  The finer run makes it: at
    every ORACLE_PLAN_STEPS-th step of ORACLE_DT (t a multiple of 0.384)
    it takes the widest of 2, 4 and 8 times its step whose bound, 1e-2,
    1e-4 or 1e-6, the spread of L_2 over its settle window is below.  The
    plan is read off the run's own spread, never a clock: near a
    threshold the slow free mode keeps the spread up and the steps
    short.  The coarser run widens at the same samples by the same
    multiples, so its mesh is every other point of the finer run's.
    Each run's settle window spans the same time whatever its step:
    back to its latest sample 10 first sample intervals (0.96) before
    the last one, the last 11 samples on uniform steps.

    Measured at horizon 50 on the 64 limit rows of the benchmark's seed-1
    sweep-limits operations, against a single run of step 2.5e-4, the
    worst error in x - y is:

    ==================================  =====  ===========
    oracle                              steps  worst error
    ==================================  =====  ===========
    single run, 4e-3                    12500  1.27e-10
    pair 8e-3 / 1.6e-2 to T = 50         9375  5.75e-11
    pair 8e-3 / 1.6e-2 to t_s = 12       2250  5.79e-11
    pair to first settled L_ext          1679  5.79e-11
    pair to first settled L_2            1423  5.79e-11
    pair on its step plan to L_2          680  5.61e-11
    pair 1e-2 / 2e-2 to T = 50           7500  1.73e-10
    ==================================  =====  ===========

    L_ext = d + d'/2 is the first-order rule, which cancels only the
    e^(-2t) term; L_2 is the default.  The steps of the settled pairs are
    a mean over the rows; every one of those rows settles before t = 12
    on uniform steps, and on the step plan the runs stop at t = 6.7-14.2.
    ``oracle_error_estimate`` reaches at most 2.33e-9.  Both lie far
    inside the 1e-6 bound that cross_check_delta must meet.  A run of the
    pair that stops short of its end time raises RegimeError, which names
    its step.
    """
    if not _convergent(config):
        raise RegimeError(
            f"coupling s={config.s} is outside the open convergent "
            f"interval {thresholds(config.n)} for n={config.n}"
        )
    settle = _Settle()
    traj = integrate(config, _settings_for(horizon, settings),
                     until=settle.settled)
    return _limit(config, traj, horizon, settle)


def _convergent(config: FlowConfig) -> bool:
    if config.sign is not CurvatureSign.POSITIVE:
        return True
    lower, upper = thresholds(config.n)
    return config.s > lower and (upper is None or config.s < upper)


class _Settle:
    """The settle window of one run's samples and the tail law read at its
    last sample; the run's until hook fills it, one sample at a time.

    In the convergent regime d = x - y = L + A e^(-2t) + B e^(-4t) + ...,
    and L_2 = d + (3/4) d' + (1/8) d'' cancels both terms.  The window
    holds the times and L_2 of the samples back to the latest one
    ORACLE_SETTLE_SAMPLES - 1 first sample intervals before the last, the
    last ORACLE_SETTLE_SAMPLES samples on evenly spaced ones.  Sample gaps
    are whole numbers of intervals, so half an interval less tells them
    apart whatever their rounding.  The run has settled at the first sample
    whose full window spreads less than ORACLE_SETTLE_TOL.
    """

    def __init__(self):
        self.times = deque()
        self.window = deque()
        self.t = self.d1 = self.d2 = None  # at the last sample offered
        self.spread = None  # of L_2 over the window, once it is full

    def offer(self, samples, xpp, ypp) -> float | None:
        """Take the last of the samples, with x'' and y'' there from the
        run's right-hand side; the window's spread, or None while it is
        not full."""
        state = samples[-1]
        t = self.t = state.t
        d1 = self.d1 = state.xp - state.yp
        d2 = self.d2 = xpp - ypp
        times = self.times
        window = self.window
        times.append(t)
        window.append(state.x - state.y + 0.75 * d1 + 0.125 * d2)
        if len(samples) < 2:
            return None
        reach = (ORACLE_SETTLE_SAMPLES - 1.5) * (samples[1].t - samples[0].t)
        while len(times) > 1 and t - times[1] >= reach:
            times.popleft()
            window.popleft()
        if t - times[0] < reach:
            return None
        self.spread = max(window) - min(window)
        return self.spread

    def settled(self, samples, xpp, ypp) -> bool:
        """The until hook of a run that ends at its first settled sample."""
        spread = self.offer(samples, xpp, ypp)
        return spread is not None and spread < ORACLE_SETTLE_TOL

    def predict(self, horizon: float) -> float:
        """x - y at the horizon by the tail law read at the last sample t_s:
        L_2 + a e^(-2(T - t_s)) + b e^(-4(T - t_s))."""
        # With a = A e^(-2t_s) and b = B e^(-4t_s): d' = -2a - 4b and
        # d'' = 4a + 16b.
        a = -(self.d2 + 4.0 * self.d1) / 4.0
        b = (self.d2 + 2.0 * self.d1) / 8.0
        gap = horizon - self.t
        return (self.window[-1] + a * math.exp(-2.0 * gap)
                + b * math.exp(-4.0 * gap))


def _limit(config: FlowConfig, traj: Trajectory, horizon: float,
           settle: _Settle) -> LimitEstimate:
    """The LimitEstimate of a DP5 run whose until hook was settle.settled."""
    kind = traj.termination.kind
    if kind == SETTLED:
        value = settle.predict(horizon)
        tail_variation = settle.spread
    elif kind == REACHED_HORIZON:
        diffs = [state.x - state.y for state in traj.samples]
        value = diffs[-1]
        tail = diffs[-max(2, len(diffs) // 5) :]
        tail_variation = max(tail) - min(tail)
    else:
        raise RegimeError(
            f"trajectory did not reach the horizon: {traj.termination}"
        )

    fine, coarse = _oracle_pair(config, horizon)
    paired = fine + (fine - coarse) / 15.0

    return LimitEstimate(
        value=value,
        tail_variation=tail_variation,
        decay_rate=_decay_rate(traj),
        cross_check_delta=abs(value - paired),
        oracle_error_estimate=abs(fine - coarse) / 15.0,
    )


def _oracle_pair(config: FlowConfig, horizon: float) -> tuple[float, float]:
    """L_a and L_b of limit_Cs: x - y at the horizon from the RK4 runs at
    ORACLE_DT and twice it, the coarser one on the finer one's step plan."""
    fine, plan = _oracle_limit(config, ORACLE_DT, horizon)
    coarse, _ = _oracle_limit(config, 2.0 * ORACLE_DT, horizon, plan)
    return fine, coarse


def _oracle_limit(
    config: FlowConfig,
    dt: float,
    horizon: float,
    plan: tuple[tuple[float, int], ...] | None = None,
) -> tuple[float, tuple[tuple[float, int], ...]]:
    """x - y at the horizon from one RK4 oracle run of step dt, and the run's
    step plan: the (t, multiple) at which it widened its step to multiple * dt.

    The run stops at its first settled sample and predicts the value there
    by the tail law (:class:`_Settle`), with d'' from the accelerations the
    oracle passes its hook, never from :func:`derivatives`; a run that
    reaches the horizon unsettled gives its end value.  Without a plan the
    run makes its own: at every ORACLE_PLAN_STEPS-th step of dt where its
    settle window is full, it widens to the largest multiple of
    ORACLE_WIDENING whose bound the window's spread is below.  Given a
    plan, it widens at the plan's times, at the first sample at or past
    each, whatever its own spread; the empty plan gives the uniform run.
    """
    settle = _Settle()
    pending = None if plan is None else deque(plan)
    made = []
    multiple = 1

    def hook(samples, xpp, ypp):
        nonlocal multiple
        spread = settle.offer(samples, xpp, ypp)
        if spread is not None and spread < ORACLE_SETTLE_TOL:
            return True
        t = settle.t
        if pending is None:
            if spread is None or round(t / dt) % ORACLE_PLAN_STEPS:
                return False
            wider = max([m for bound, m in ORACLE_WIDENING if spread < bound],
                        default=multiple)
        elif pending and t >= pending[0][0]:
            wider = pending.popleft()[1]
        else:
            return False
        if wider <= multiple:
            return False
        multiple = wider
        made.append((t, wider))
        return wider

    oracle = integrate_oracle(config, dt, horizon, until=hook)
    kind = oracle.termination.kind
    if kind == SETTLED:
        return settle.predict(horizon), tuple(made)
    if kind != REACHED_HORIZON:
        raise RegimeError(
            f"oracle integration did not reach the horizon (dt={dt}): "
            f"{oracle.termination}"
        )
    end = oracle.final_state()
    return end.x - end.y, tuple(made)


def hamiltonian_audit(
    config: FlowConfig,
    horizon: float,
    settings: IntegratorSettings | None = None,
    events: EventSpec | None = None,
) -> HamiltonianAudit:
    """Reduced-Hamiltonian series along one run with a global verdict.

    The branch is fixed by the initial sample (tau^2 - n^2 > 0 selects the
    expanding-gauge branch, < 0 the reversed one) and every later sample
    must stay on it with a finite value; the first offender aborts with
    GaugeRangeError.  On the constraint surface
    d/dt log h_red = tau |Sigma|^2 / (tau^2/n - n) exactly, so h_red is
    monotone, and constant exactly on the Einstein backgrounds (s = 1).  The
    verdict reads that sign at each sample past t = 0, none where
    tau |Sigma|^2 = 0: no sign is Constant, only negative signs
    MonotoneNonIncreasing, only positive MonotoneNonDecreasing, both
    NonMonotone.  ``delta_total`` is the measured drift.  A run that ends
    before any sample past t = 0 has no verdict and raises ValueError
    naming its termination.
    """
    traj = integrate(
        config, _settings_for(horizon, settings or IntegratorSettings()), events)
    n = config.n

    series: list[tuple[float, float]] = []
    branch = None
    slopes: set[bool] = set()  # True for a rising sample, False for falling
    for state, obs in zip(traj.samples, traj.observables):
        tau = obs.tau
        gap = gauge_gap(n, tau)
        sample_branch = "H-" if gap > 0.0 else ("H+" if gap < 0.0 else None)
        if branch is None:
            branch = sample_branch
        if sample_branch != branch or obs.h_red is None:
            raise GaugeRangeError(
                f"sample at t={state.t:.12g} left the {branch} gauge range "
                f"(tau={tau}, n={n})"
            )
        if not math.isfinite(obs.h_red):
            raise GaugeRangeError(
                f"sample at t={state.t:.12g} has h_red={obs.h_red}, past the "
                f"double range"
            )
        series.append((state.t, obs.h_red))
        # d/dt log h_red has the sign of flux / gap
        flux = tau * obs.sigma_sq
        if state.t > 0.0 and flux != 0.0:
            slopes.add((flux > 0.0) == (gap > 0.0))

    values = [v for t, v in series if t > 0.0]
    if not values:
        raise ValueError(f"the run ended at t=0 ({traj.termination.kind}) "
                         f"before any sample past t = 0")
    if not slopes:
        verdict = AUDIT_CONSTANT
    elif len(slopes) == 2:
        verdict = AUDIT_NON_MONOTONE
    elif True in slopes:
        verdict = AUDIT_NON_DECREASING
    else:
        verdict = AUDIT_NON_INCREASING

    return HamiltonianAudit(
        series=series,
        verdict=verdict,
        branch=branch,
        delta_total=values[-1] - values[0],
    )


def coupling_grid(s_min: float, s_max: float, steps: int) -> list[float]:
    """Evenly spaced couplings from s_min to s_max inclusive; [s_min] for one step.

    Both ends must be finite, s_min <= s_max and steps >= 1; other input
    raises ValueError.
    """
    _require_finite(s_min=s_min, s_max=s_max)
    if not (steps >= 1 and s_min <= s_max):
        raise ValueError("need steps >= 1, s_min <= s_max")
    if steps == 1:
        return [s_min]
    span = s_max - s_min
    return [s_min + span * (i / (steps - 1)) for i in range(steps)]


def sweep(
    n: int,
    sign: CurvatureSign,
    s_grid: list[float],
    horizon: float,
    with_limits: bool = True,
    settings: IntegratorSettings | None = None,
    events: EventSpec | None = None,
) -> list[SweepRow]:
    """Classify (and optionally extract limits) over a coupling grid.

    Rows are computed one after another, in the order of the input grid.
    Each row integrates once; the verdict and the limit read that one
    trajectory.  With limits on, a row inside the convergent interval ends
    that run at its first settled sample, as :func:`limit_Cs` does, and its
    classification reads that run: ``Settled``, complete.  Every other row
    makes the run of :func:`classify`, bit for bit.  Rows outside the
    convergent interval get no limit; a failed
    limit is reported in the row's ``error``, next to its classification.
    The caller's settings and events govern each row's run (without
    settings its step cap is RUN_MAX_STEP, as in :func:`classify`); the
    limit's RK4 pair is the fixed one of :func:`limit_Cs`.  An invalid n
    or horizon raises ValueError before any row.
    """
    thresholds(n)  # raises ValueError unless n is even and >= 2
    run_settings = _settings_for(horizon, settings)

    def row(s: float) -> SweepRow:
        try:
            config = FlowConfig(m=n // 2, sign=sign, s=s)
            settle = (_Settle() if with_limits and _convergent(config)
                      else None)
            traj = integrate(config, run_settings, events,
                             until=None if settle is None else settle.settled)
            cls = _classification(config, traj, horizon)
        except Exception as exc:  # per-row diagnostics, never abort the sweep
            return SweepRow(s=s, classification=None, limit=None,
                            error=f"{type(exc).__name__}: {exc}")
        limit = error = None
        if settle is not None and cls.verdict == VERDICT_COMPLETE:
            try:
                limit = _limit(config, traj, horizon, settle)
            except RegimeError as exc:
                error = f"{type(exc).__name__}: {exc}"
        return SweepRow(s=s, classification=cls, limit=limit, error=error)

    return [row(s) for s in s_grid]
