"""Adaptive and fixed-plan time integration for the product systems.

The primary integrator is an embedded Dormand-Prince 5(4) pair with
proportional-integral step-size control, the standard quartic continuous
extension for dense output (Hairer, Norsett & Wanner, Solving ODEs I,
section II.6), and event location by bisection on the dense output.  On
an accepted step shorter than the step accepted before it, the
controller also takes Gustafsson's predictive factor (K. Gustafsson, ACM
TOMS 20 (1994) 496-517), in the form RADAU5 uses (Hairer & Wanner,
Solving ODEs II, section IV.8), and proposes the shorter of the two next
steps.  Near a blow-up each step must be shorter than the last, and the
PI proposal alone is then too long and rejected at almost every step;
the predictive one follows the shrinking steps.  RADAU5 applies the
factor on every step; here an ordinary step pays one compare and one
store for it.  The floors are tested at each accepted step end, and the
extension is built only for a step that holds a grid point or where a
floor fired; no other step evaluates it, so stepping never depends on
output_dt.  A classical fourth-order Runge-Kutta scheme on a fixed plan
of steps, whole multiples of one dt chosen by its caller, is kept as an
independent cross-check.  It keeps its own copy of the right-hand side,
written out in the operand order of ``products.derivatives``, so a
transcription error in either copy shows up as a cross-check failure
instead of reaching both sides; the pinned bits of both steppers' runs
in the tests tie the two copies together.  The accelerations it hands
its ``until`` hook come from that copy too, so the limit's settle rule
reads no other.
It shares with the adaptive path only the first-integral formula of
``products.first_integral_residual``, the blow-up triggers
(``_event_functions``) with their location tolerance ``_EVENT_T_TOL``,
the horizon rule and ``output_dt`` of ``IntegratorSettings``, and
``_finish``, where every run ends and its ``Trajectory`` is built.

Both step loops are hot: on the path of an ordinary step they call
nothing but their right-hand side, the builtins ``abs`` and ``sqrt``, and
``FlowState`` for each sample.  Their floor tests are the expressions of
``_event_functions`` written out, DP5's step-size clamps are comparisons
with ``min``'s and ``max``'s rule for ties and NaN, and the first-integral
residual of each step is ``first_integral_residual`` written out in its
operand order.  Only a step where a floor fired, and a run's first and
last state, call the shared functions themselves.  DP5's loop also reads
only local names: one unpack of ``_DP5_NAMES`` binds the module's
constants, ``abs`` and ``FlowState`` to locals before it, and the step's
start state and first slope are carried as scalars.  Each of its stages
is still a call of the right-hand side that ``products.derivatives``
returns.

Termination is a three-way taxonomy:

* ``ReachedHorizon``     - integrated to t_max;
* ``BlowUpEvent``        - a blow-up trigger crossed (y below its floor,
  x' + y' below the velocity floor, or the right-hand side overflowed);
* ``StepSizeCollapse``   - the controller demanded a step below min_step.
  This is reported as its own outcome, never silently reclassified.

Integrations are single-threaded and deterministic: identical inputs
produce bit-identical trajectories.  Time runs forward only; a backward
run is the forward run reflected by construction (``backward_integrate``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property

from .products import (
    OVERFLOW_FLOOR,
    BlowUpOverflow,
    FlowConfig,
    FlowState,
    Observables,
    constraint_terms_along,
    derivatives,
    first_integral_residual,
    initial_state,
    observables,
)
from .background import CurvatureSign

# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0,
    -25360.0 / 2187.0,
    64448.0 / 6561.0,
    -212.0 / 729.0,
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = (
    35.0 / 384.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
)
# Difference between the 5th- and 4th-order weights.
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# Weights of the quartic continuous extension.
_D1 = -12715105075.0 / 11282082432.0
_D3 = 87487479700.0 / 32700410799.0
_D4 = -10690763975.0 / 1880347072.0
_D5 = 701980252875.0 / 199316789632.0
_D6 = -1453857185.0 / 822651844.0
_D7 = 69997945.0 / 29380423.0

# PI controller constants (safety factor, integral gain, growth bounds).
# The predictive factor on a shrinking step, h < h_acc, is
# h_acc / h * (err^2 / max(err_acc, 1e-2))^(1/5) / _SAFETY, with err_acc the
# error of the step accepted before, of length h_acc; the larger of it and
# the PI factor divides h, and the clamps apply to the result.
_SAFETY = 0.9
_BETA = 0.04
_EXPO1 = 0.2 - 0.75 * _BETA
_MAX_GROW = 10.0
_MAX_SHRINK = 5.0
_MIN_FAC = 1.0 / _MAX_GROW

_INITIAL_STEP = 0.01
_EVENT_T_TOL = 1e-10

# Every module-level and builtin name the DP5 step loop reads, which
# integrate binds to locals of the same names in one unpack: a local read
# is cheaper than a global or builtin lookup, and an ordinary step reads
# these more than a hundred times.
_DP5_NAMES = (
    _C2, _C3, _C4, _C5,
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6,
    _E1, _E3, _E4, _E5, _E6, _E7,
    _D1, _D3, _D4, _D5, _D6, _D7,
    _EXPO1, _BETA, _SAFETY, _MAX_SHRINK, _MIN_FAC,
    _EVENT_T_TOL, abs, FlowState,
)

TRIGGER_Y_FLOOR = "y_floor"
TRIGGER_VELOCITY_FLOOR = "velocity_floor"
TRIGGER_OVERFLOW = "overflow"

REACHED_HORIZON = "ReachedHorizon"
BLOW_UP_EVENT = "BlowUpEvent"
STEP_SIZE_COLLAPSE = "StepSizeCollapse"


class TimeSymmetryError(ValueError):
    """Backward integration requested for data without time symmetry."""


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances, step bounds, horizon and output sampling interval.

    The default max_step, 0.03, is for runs that report a reduced-Hamiltonian
    series: on late-time trajectories all derivatives beyond the first decay
    exponentially, and an uncapped controller would grow the step until the
    local error sits at the tolerance floor, slowly bleeding the conserved
    quantities.  Capping the step keeps the local error proportional to the
    decaying mode instead, which is what holds a reported h_red series within
    1e-6 relative over audit-length horizons (5e-8 on the n = 4 backgrounds at
    horizon 8, 4e-5 with a cap of 0.1).  The audit's verdict does not use it,
    nor does any run reporting none, which defaults to experiments.RUN_MAX_STEP.

    The horizon t_max must be positive and finite: the steppers run until
    they reach it or a blow-up trigger fires, so an infinite horizon on a
    complete trajectory would never return.  So must both tolerances: at
    rel_tol = inf a component that stays at exactly 0 gets the error scale
    abs_tol + inf * 0 = nan, and every step is rejected.

    An infinite output_dt records no grid samples: a run then keeps only its
    initial and terminal states, and steps as it does at any other output_dt.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = 0.03
    min_step: float = 1e-13
    t_max: float = 50.0
    output_dt: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0.0 < self.min_step < self.max_step:
            raise ValueError("need 0 < min_step < max_step")
        if not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if not self.output_dt > 0.0:
            raise ValueError("output_dt must be positive")


@dataclass(frozen=True)
class EventSpec:
    """Blow-up triggers: a floor on y and a floor on the total velocity.

    Recollapse drives x' + y' to -infinity in finite time while the
    collapsing log scale factor dives; either floor crossing is treated as
    blow-up evidence and the earlier one is reported.
    """

    y_floor: float = -20.0
    velocity_floor: float = -100.0

    def __post_init__(self):
        if not self.y_floor < 0.0:
            raise ValueError("y_floor must be negative")
        if not self.velocity_floor < 0.0:
            raise ValueError("velocity_floor must be negative")


@dataclass(frozen=True)
class Termination:
    """How an integration ended.

    ``t_event``/``trigger`` are set for blow-up terminations, ``t_last``
    for step-size collapse.
    """

    kind: str
    t_event: float | None = None
    trigger: str | None = None
    t_last: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """Sampled integration output plus conservation monitors.

    Samples are the recorded states, strictly monotone in t (increasing for
    forward runs, decreasing for backward runs) and immutable once returned.
    ``max_first_integral_residual`` is taken over every accepted step
    endpoint, not just output samples.  ``observables``, the geometry of
    each sample, is built once, at its first read.  ``max_ham_residual``,
    computed at each read, is the maximum over the samples of the residual
    of :func:`constraint_terms`, taken in one pass that reads the config
    once (:func:`constraint_terms_along`); it skips NaNs, as a NaN never
    compares greater and the initial data is finite.
    """

    config: FlowConfig
    samples: tuple[FlowState, ...]
    termination: Termination
    max_first_integral_residual: float
    n_accepted: int
    n_rejected: int

    @cached_property
    def observables(self) -> list[Observables]:
        return [observables(self.config, state) for state in self.samples]

    @property
    def max_ham_residual(self) -> float:
        return max(abs(terms[3])
                   for terms in constraint_terms_along(self.config, self.samples))

    def final_state(self) -> FlowState:
        return self.samples[-1]


def _event_functions(events: EventSpec):
    # Each g is positive while safe and crosses <= 0 at the trigger.
    def g_y(u):
        return u[1] - events.y_floor

    def g_v(u):
        return (u[2] + u[3]) - events.velocity_floor

    return ((TRIGGER_Y_FLOOR, g_y), (TRIGGER_VELOCITY_FLOOR, g_v))


def _dense(ext, theta):
    # The quartic continuous extension of one DP5 step at the fraction theta
    # of it, from the coefficients u, rc2, rc3, rc4 and rc5 of its Horner
    # form, held flat in that order, four components each.
    (u_0, u_1, u_2, u_3, rc2_0, rc2_1, rc2_2, rc2_3,
     rc3_0, rc3_1, rc3_2, rc3_3, rc4_0, rc4_1, rc4_2, rc4_3,
     rc5_0, rc5_1, rc5_2, rc5_3) = ext
    th1 = 1.0 - theta
    return (
        u_0 + theta * (rc2_0 + th1 * (rc3_0 + theta * (rc4_0 + th1 * rc5_0))),
        u_1 + theta * (rc2_1 + th1 * (rc3_1 + theta * (rc4_1 + th1 * rc5_1))),
        u_2 + theta * (rc2_2 + th1 * (rc3_2 + theta * (rc4_2 + th1 * rc5_2))),
        u_3 + theta * (rc2_3 + th1 * (rc3_3 + theta * (rc4_3 + th1 * rc5_3))),
    )


def _finish(config, samples, t, u, termination, max_fir,
            n_accepted, n_rejected) -> Trajectory:
    # Every run ends here.  Grid samples and oracle step starts are strictly
    # increasing in t.  The terminal state (the horizon, the located event,
    # or the last accepted state before an overflow or a step-size collapse)
    # can only repeat the last of them, on a grid point or an oracle step
    # start, so it is kept only if it lies beyond it.
    if t > samples[-1].t:
        samples.append(FlowState(t, *u))
    return Trajectory(
        config=config,
        samples=tuple(samples),
        termination=termination,
        max_first_integral_residual=max_fir,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
    )


def integrate(
    config: FlowConfig,
    settings: IntegratorSettings | None = None,
    events: EventSpec | None = None,
) -> Trajectory:
    """Integrate the product system forward from its constrained initial data.

    Samples are placed on the output_dt grid by dense-output interpolation,
    with the initial state always included.  The run ends by recording its
    terminal state: the state at t_max, at the located event, or at the last
    accepted step before an overflow or a step-size collapse.  Blow-up
    triggers are located on the dense output to within 1e-10 in t.
    """
    (_C2, _C3, _C4, _C5,
     _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
     _A61, _A62, _A63, _A64, _A65,
     _B1, _B3, _B4, _B5, _B6,
     _E1, _E3, _E4, _E5, _E6, _E7,
     _D1, _D3, _D4, _D5, _D6, _D7,
     _EXPO1, _BETA, _SAFETY, _MAX_SHRINK, _MIN_FAC,
     _EVENT_T_TOL, abs, FlowState) = _DP5_NAMES
    settings = settings or IntegratorSettings()
    events = events or EventSpec()
    f = derivatives(config)
    state0 = initial_state(config)
    t = 0.0
    t_end = settings.t_max
    event_fns = _event_functions(events)
    y_floor = events.y_floor
    v_floor = events.velocity_floor

    # The state the step starts from, and its slope, which is the last
    # stage of the step before (first same as last).
    u_0, u_1, u_2, u_3 = state0.x, state0.y, state0.xp, state0.yp
    k1_0, k1_1, k1_2, k1_3 = f(t, (u_0, u_1, u_2, u_3))
    max_fir = abs(first_integral_residual(u_2, u_3, k1_2, k1_3))
    samples = [FlowState(t, u_0, u_1, u_2, u_3)]
    n_accepted = 0
    n_rejected = 0

    abs_tol = settings.abs_tol
    rel_tol = settings.rel_tol
    max_step = settings.max_step
    min_step = settings.min_step
    output_dt = settings.output_dt
    sqrt = math.sqrt
    # Grid point k is at k * output_dt, computed afresh for each k: a sum
    # of output_dts would drift off the grid.
    next_k = 1
    t_grid = next_k * output_dt
    h = max(min_step, min(_INITIAL_STEP, max_step, settings.t_max))
    facold = 1e-4
    h_acc = 0.0  # the step accepted before; none yet
    # |u_i| of the state the step starts from.  The error scale of component
    # i is abs_tol + rel_tol * max(|u_i|, |unew_i|); an accepted step's
    # |unew_i| is the next step's |u_i|, so each is taken once, and
    # "an if an > au else au" is max(au, an) with max's own rule for ties
    # and NaN: the first argument unless the second is greater.
    au_0, au_1, au_2, au_3 = abs(u_0), abs(u_1), abs(u_2), abs(u_3)

    # The stages are written out per component (suffix _i is component i of
    # the state u = (x, y, x', y')); every sum keeps the operand order of the
    # tableau row, so the arithmetic is that of the vector formulas.
    while True:
        last_step = False
        if t + h >= t_end:
            h = t_end - t
            last_step = True

        try:
            k2_0, k2_1, k2_2, k2_3 = f(t + _C2 * h, (
                u_0 + h * (_A21 * k1_0),
                u_1 + h * (_A21 * k1_1),
                u_2 + h * (_A21 * k1_2),
                u_3 + h * (_A21 * k1_3),
            ))
            k3_0, k3_1, k3_2, k3_3 = f(t + _C3 * h, (
                u_0 + h * (_A31 * k1_0 + _A32 * k2_0),
                u_1 + h * (_A31 * k1_1 + _A32 * k2_1),
                u_2 + h * (_A31 * k1_2 + _A32 * k2_2),
                u_3 + h * (_A31 * k1_3 + _A32 * k2_3),
            ))
            k4_0, k4_1, k4_2, k4_3 = f(t + _C4 * h, (
                u_0 + h * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
                u_1 + h * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
                u_2 + h * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
                u_3 + h * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3),
            ))
            k5_0, k5_1, k5_2, k5_3 = f(t + _C5 * h, (
                u_0 + h * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0
                           + _A54 * k4_0),
                u_1 + h * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1
                           + _A54 * k4_1),
                u_2 + h * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2
                           + _A54 * k4_2),
                u_3 + h * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3
                           + _A54 * k4_3),
            ))
            k6_0, k6_1, k6_2, k6_3 = f(t + h, (
                u_0 + h * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0
                           + _A64 * k4_0 + _A65 * k5_0),
                u_1 + h * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1
                           + _A64 * k4_1 + _A65 * k5_1),
                u_2 + h * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2
                           + _A64 * k4_2 + _A65 * k5_2),
                u_3 + h * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3
                           + _A64 * k4_3 + _A65 * k5_3),
            ))
            unew_0 = u_0 + h * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0
                                + _B5 * k5_0 + _B6 * k6_0)
            unew_1 = u_1 + h * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1
                                + _B5 * k5_1 + _B6 * k6_1)
            unew_2 = u_2 + h * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2
                                + _B5 * k5_2 + _B6 * k6_2)
            unew_3 = u_3 + h * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3
                                + _B5 * k5_3 + _B6 * k6_3)
            k7_0, k7_1, k7_2, k7_3 = f(t + h, (unew_0, unew_1, unew_2, unew_3))
        except BlowUpOverflow:
            # The state one step ahead is past the representable range; the
            # last accepted time is the last safe one.
            termination = Termination(
                BLOW_UP_EVENT, t_event=t, trigger=TRIGGER_OVERFLOW
            )
            break

        # Scaled error of each component, combined as a root mean square.
        an_0 = abs(unew_0)
        an_1 = abs(unew_1)
        an_2 = abs(unew_2)
        an_3 = abs(unew_3)
        r_0 = h * (_E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0
                   + _E6 * k6_0 + _E7 * k7_0) / (
            abs_tol + rel_tol * (an_0 if an_0 > au_0 else au_0))
        r_1 = h * (_E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1
                   + _E6 * k6_1 + _E7 * k7_1) / (
            abs_tol + rel_tol * (an_1 if an_1 > au_1 else au_1))
        r_2 = h * (_E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2
                   + _E6 * k6_2 + _E7 * k7_2) / (
            abs_tol + rel_tol * (an_2 if an_2 > au_2 else au_2))
        r_3 = h * (_E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3
                   + _E6 * k6_3 + _E7 * k7_3) / (
            abs_tol + rel_tol * (an_3 if an_3 > au_3 else au_3))
        err_norm = sqrt(
            (r_0 * r_0 + r_1 * r_1 + r_2 * r_2 + r_3 * r_3) / 4.0
        )

        if err_norm <= 1.0:
            t_new = t_end if last_step else t + h

            # The floors are tested at the step end, in the expressions of
            # _event_functions (at an infinite floor, u_1 <= y_floor would
            # differ); only a step that holds a grid point or a fired floor
            # needs the continuous extension.  A plain loop builds the fired
            # list: a comprehension would make unew a cell variable.
            fired = ()
            if unew_1 - y_floor <= 0.0 or (unew_2 + unew_3) - v_floor <= 0.0:
                fired = []
                unew = (unew_0, unew_1, unew_2, unew_3)
                for event in event_fns:
                    if event[1](unew) <= 0.0:
                        fired.append(event)
            if fired or t_grid <= t_new:
                # Quartic continuous extension over [t, t+h]: u and rc2 to
                # rc5 are the coefficients of its Horner form in _dense(),
                # which the grid samples below evaluate written out.
                rc2_0 = unew_0 - u_0
                rc2_1 = unew_1 - u_1
                rc2_2 = unew_2 - u_2
                rc2_3 = unew_3 - u_3
                rc3_0 = h * k1_0 - rc2_0
                rc3_1 = h * k1_1 - rc2_1
                rc3_2 = h * k1_2 - rc2_2
                rc3_3 = h * k1_3 - rc2_3
                rc4_0 = rc2_0 - h * k7_0 - rc3_0
                rc4_1 = rc2_1 - h * k7_1 - rc3_1
                rc4_2 = rc2_2 - h * k7_2 - rc3_2
                rc4_3 = rc2_3 - h * k7_3 - rc3_3
                rc5_0 = h * (_D1 * k1_0 + _D3 * k3_0 + _D4 * k4_0 + _D5 * k5_0
                             + _D6 * k6_0 + _D7 * k7_0)
                rc5_1 = h * (_D1 * k1_1 + _D3 * k3_1 + _D4 * k4_1 + _D5 * k5_1
                             + _D6 * k6_1 + _D7 * k7_1)
                rc5_2 = h * (_D1 * k1_2 + _D3 * k3_2 + _D4 * k4_2 + _D5 * k5_2
                             + _D6 * k6_2 + _D7 * k7_2)
                rc5_3 = h * (_D1 * k1_3 + _D3 * k3_3 + _D4 * k4_3 + _D5 * k5_3
                             + _D6 * k6_3 + _D7 * k7_3)

                hit_theta = None
                hit_name = None
                if fired:
                    ext = (u_0, u_1, u_2, u_3, rc2_0, rc2_1, rc2_2, rc2_3,
                           rc3_0, rc3_1, rc3_2, rc3_3,
                           rc4_0, rc4_1, rc4_2, rc4_3,
                           rc5_0, rc5_1, rc5_2, rc5_3)
                    for name, g in fired:
                        lo, hi = 0.0, 1.0
                        while h * (hi - lo) > _EVENT_T_TOL:
                            mid = 0.5 * (lo + hi)
                            if g(_dense(ext, mid)) <= 0.0:
                                hi = mid
                            else:
                                lo = mid
                        if hit_theta is None or hi < hit_theta:
                            hit_theta = hi
                            hit_name = name

                t_stop = t + hit_theta * h if hit_theta is not None else t_new
                while t_grid <= t_stop:
                    theta = (t_grid - t) / h
                    th1 = 1.0 - theta
                    samples.append(FlowState(
                        t_grid,
                        u_0 + theta * (rc2_0 + th1 * (rc3_0 + theta * (
                            rc4_0 + th1 * rc5_0))),
                        u_1 + theta * (rc2_1 + th1 * (rc3_1 + theta * (
                            rc4_1 + th1 * rc5_1))),
                        u_2 + theta * (rc2_2 + th1 * (rc3_2 + theta * (
                            rc4_2 + th1 * rc5_2))),
                        u_3 + theta * (rc2_3 + th1 * (rc3_3 + theta * (
                            rc4_3 + th1 * rc5_3))),
                    ))
                    next_k += 1
                    t_grid = next_k * output_dt

                if hit_theta is not None:
                    t = t_stop
                    u_0, u_1, u_2, u_3 = _dense(ext, hit_theta)
                    try:
                        _, _, xpp, ypp = f(t, (u_0, u_1, u_2, u_3))
                        fir = abs(first_integral_residual(u_2, u_3, xpp, ypp))
                    except BlowUpOverflow:
                        fir = max_fir  # floors set beyond the representable range
                    if fir > max_fir:
                        max_fir = fir
                    termination = Termination(BLOW_UP_EVENT, t_event=t,
                                              trigger=hit_name)
                    break

            # first_integral_residual(unew_2, unew_3, k7_2, k7_3), written out
            fir = abs(k7_2 + k7_3 + unew_2 * unew_2 + unew_3 * unew_3 - 2.0)
            if fir > max_fir:
                max_fir = fir

            t = t_new
            u_0 = unew_0
            u_1 = unew_1
            u_2 = unew_2
            u_3 = unew_3
            k1_0 = k7_0
            k1_1 = k7_1
            k1_2 = k7_2
            k1_3 = k7_3
            au_0 = an_0
            au_1 = an_1
            au_2 = an_2
            au_3 = an_3
            n_accepted += 1

            if last_step:
                termination = Termination(REACHED_HORIZON)
                break

            # The clamps are max(_MIN_FAC, min(_MAX_SHRINK, fac)) and
            # max(err_norm, 1e-4) written as comparisons, with min's and
            # max's rule for ties and NaN: a NaN factor is clamped to
            # _MAX_SHRINK.  The predictive factor (see the controller
            # constants) reads facold before its update, as the previous
            # step's error; its max(facold, 1e-2) and max(fac, gus) are
            # comparisons too.
            fac = err_norm**_EXPO1 / facold**_BETA / _SAFETY
            if h < h_acc:
                gus = h_acc / h * (err_norm * err_norm / (
                    1e-2 if 1e-2 > facold else facold)) ** 0.2 / _SAFETY
                if gus > fac:
                    fac = gus
            h_acc = h
            if not fac < _MAX_SHRINK:
                fac = _MAX_SHRINK
            elif fac < _MIN_FAC:
                fac = _MIN_FAC
            h = h / fac
            facold = 1e-4 if err_norm < 1e-4 else err_norm
            if h > max_step:
                h = max_step
        else:
            fac = err_norm**_EXPO1 / _SAFETY
            h = h / (fac if fac < _MAX_SHRINK else _MAX_SHRINK)
            n_rejected += 1

        if h < min_step:
            termination = Termination(STEP_SIZE_COLLAPSE, t_last=t)
            break

    return _finish(config, samples, t, (u_0, u_1, u_2, u_3), termination,
                   max_fir, n_accepted, n_rejected)


def backward_integrate(
    config: FlowConfig,
    settings: IntegratorSettings | None = None,
    events: EventSpec | None = None,
) -> Trajectory:
    """Integrate toward negative t; positive-curvature products only.

    The positive-curvature initial data is velocity-free, making the
    solution time-symmetric: x(-t) = x(t), y(-t) = y(t); negative-curvature
    data is rejected.  The run is the forward run reflected by construction:
    every sample past the first becomes (-t, x, y, 0.0 - x', 0.0 - y'), in
    stepping order (strictly decreasing t), and the event or collapse time
    is negated.  ``0.0 - v`` keeps a zero velocity at +0.0, as a stepper
    taking negative steps keeps it (x' = 0 at s = (n - 1)/n).
    """
    if config.sign is not CurvatureSign.POSITIVE:
        raise TimeSymmetryError(
            "backward integration needs time-symmetric initial data; the "
            "negative-curvature family starts with nonzero velocities"
        )
    forward = integrate(config, settings, events)
    first, *later = forward.samples
    term = forward.termination
    return replace(
        forward,
        samples=(first, *(FlowState(-st.t, st.x, st.y, 0.0 - st.xp, 0.0 - st.yp)
                          for st in later)),
        termination=replace(
            term,
            t_event=None if term.t_event is None else 0.0 - term.t_event,
            t_last=None if term.t_last is None else 0.0 - term.t_last,
        ),
    )


def integrate_oracle(
    config: FlowConfig,
    dt: float,
    t_max: float,
    events: EventSpec | None = None,
    *,
    until: Callable[[list[FlowState], float, float], bool | int] | None = None,
) -> Trajectory:
    """Classical RK4 cross-check of :func:`integrate` on a fixed step plan.

    Intended for verification only.  The horizon rule and output_dt (0.1)
    are those of ``IntegratorSettings(t_max=t_max)``.  Every step is a
    whole multiple m*dt, m = 1 until the ``until`` hook widens it.  The
    time after j whole dts is j*dt; a step is full while that product at
    its end stays within t_max, and a last, shorter step ends on t_max, so
    a run to t_max = k*dt ends bit for bit on the k-th state of any longer
    run at m = 1.  The right-hand side is the module's own
    copy, never :func:`derivatives`.  A sample is recorded at each step
    end after a multiple of k = max(1, round(0.1 / dt)) whole dts, with no
    interpolation, so sample times are true step times, k*dt apart at
    m = 1.  They lie on the 0.1
    grid that :func:`integrate` uses at default settings only when dt
    divides 0.1: at dt = 8e-3 and 1.6e-2 they fall every 0.096, and at
    dt = 3e-2 every 0.09.  The terminal
    sample is recorded when the run ends: the state at t_max, at the located
    event, or at the last completed step before an overflow.  Events are
    detected by a sign change across a step and then located by bisection
    over partial steps restarted from the step start, so the reported time
    does not inherit the full-step error.
    ``n_accepted`` counts the steps completed, whatever their size, as for
    :func:`integrate`; the partial step to an event is not counted.

    ``until(samples, xpp, ypp)``, if given, is called each time a sample
    is recorded before t_max, with the list of samples recorded so far and
    the accelerations x'' and y'' at the last of them, from this module's
    right-hand side.  The step from the sample computes them; if that step
    overflows they are computed alone, and a sample past the overflow
    floor is not offered, as the overflow ends the run there.  The hook
    returns one of:

    * an ``int`` m, wider than the multiple in use: the run steps by m*dt
      from this sample on, beginning with the step from it, taken again
      at the new size.  An ``int`` that does not widen raises ValueError.
      A ``bool`` is never read as a multiple, though ``True == 1``.  At a
      sample whose own step overflows, a multiple does not save the run;
    * any other true value, such as ``True``: the run ends at this sample
      as it ends at t_max, ``ReachedHorizon``, with the first integral
      evaluated at that sample, which is the terminal state;
    * any other false value, such as ``False``: the run goes on.

    Up to the first sample where the hook returns more than a false value,
    the run is bit for bit the run without the hook; a hook that never
    widens ends a prefix of that run.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    settings = IntegratorSettings(t_max=t_max)
    if events is None:
        events = EventSpec()
    event_fns = _event_functions(events)
    y_floor = events.y_floor
    v_floor = events.velocity_floor

    state0 = initial_state(config)
    u = (state0.x, state0.y, state0.xp, state0.yp)
    t = 0.0

    samples = []

    # The right-hand side of products.derivatives, written out: the same
    # coefficients with the curvature sign folded in, the same expressions
    # in the same operand order, and the same BlowUpOverflow below the
    # floor, tested on every stage state.
    n = float(config.n)
    half_n = 0.5 * n
    if config.sign is CurvatureSign.POSITIVE:
        kx, ky = -config.kx, -config.ky
    else:
        kx, ky = config.kx, config.ky
    exp = math.exp
    floor = OVERFLOW_FLOOR

    # One step of size h from (t0, us): the new state, then the
    # accelerations at the step start, which the caller needs for the
    # first-integral residual.  A stage's slope in x and y is its own x'
    # and y', so stage states are written from them directly.  At h = 0
    # every stage state is us (or NaN past an infinite slope), so only us
    # can raise, and the accelerations are those of us alone.
    def rk4_step(t0, us, h):
        u_0, u_1, u_2, u_3 = us
        if u_0 < floor or u_1 < floor:
            raise BlowUpOverflow(t0)
        cross = u_2 * u_3
        ka_2 = n + kx * exp(-2.0 * u_0) - half_n * (u_2 * u_2 + cross)
        ka_3 = n + ky * exp(-2.0 * u_1) - half_n * (u_3 * u_3 + cross)
        half = 0.5 * h
        b_0 = u_0 + half * u_2
        b_1 = u_1 + half * u_3
        b_2 = u_2 + half * ka_2
        b_3 = u_3 + half * ka_3
        if b_0 < floor or b_1 < floor:
            raise BlowUpOverflow(t0 + half)
        cross = b_2 * b_3
        kb_2 = n + kx * exp(-2.0 * b_0) - half_n * (b_2 * b_2 + cross)
        kb_3 = n + ky * exp(-2.0 * b_1) - half_n * (b_3 * b_3 + cross)
        c_0 = u_0 + half * b_2
        c_1 = u_1 + half * b_3
        c_2 = u_2 + half * kb_2
        c_3 = u_3 + half * kb_3
        if c_0 < floor or c_1 < floor:
            raise BlowUpOverflow(t0 + half)
        cross = c_2 * c_3
        kc_2 = n + kx * exp(-2.0 * c_0) - half_n * (c_2 * c_2 + cross)
        kc_3 = n + ky * exp(-2.0 * c_1) - half_n * (c_3 * c_3 + cross)
        d_0 = u_0 + h * c_2
        d_1 = u_1 + h * c_3
        d_2 = u_2 + h * kc_2
        d_3 = u_3 + h * kc_3
        if d_0 < floor or d_1 < floor:
            raise BlowUpOverflow(t0 + h)
        cross = d_2 * d_3
        kd_2 = n + kx * exp(-2.0 * d_0) - half_n * (d_2 * d_2 + cross)
        kd_3 = n + ky * exp(-2.0 * d_1) - half_n * (d_3 * d_3 + cross)
        sixth = h / 6.0
        return (
            u_0 + sixth * (u_2 + 2.0 * b_2 + 2.0 * c_2 + d_2),
            u_1 + sixth * (u_3 + 2.0 * b_3 + 2.0 * c_3 + d_3),
            u_2 + sixth * (ka_2 + 2.0 * kb_2 + 2.0 * kc_2 + kd_2),
            u_3 + sixth * (ka_3 + 2.0 * kb_3 + 2.0 * kc_3 + kd_3),
            ka_2,
            ka_3,
        )

    n_steps = 0
    units = 0  # whole dts run so far: t = units * dt
    multiple = 1  # the step is multiple * dt
    step = dt
    max_fir = 0.0
    k_sample = max(1, int(round(settings.output_dt / dt)))

    termination = None
    while t < t_max:
        hooked = False
        if units % k_sample == 0:
            samples.append(FlowState(t, *u))
            hooked = until is not None
        h = step if (units + multiple) * dt <= t_max else t_max - t
        try:
            x, y, xp, yp, xpp, ypp = rk4_step(t, u, h)
        except BlowUpOverflow:
            # The hook still judges a sample whose own accelerations are in
            # range; past it, or where it declines, the overflow ends the run.
            if hooked:
                try:
                    *_, xpp, ypp = rk4_step(t, u, 0.0)
                except BlowUpOverflow:
                    hooked = False
                else:
                    verdict = until(samples, xpp, ypp)
                    hooked = type(verdict) is not int and verdict
            if not hooked:
                termination = Termination(
                    BLOW_UP_EVENT, t_event=t, trigger=TRIGGER_OVERFLOW
                )
            break
        # first_integral_residual at the step start, written out
        _, _, u_2, u_3 = u
        fir = abs(xpp + ypp + u_2 * u_2 + u_3 * u_3 - 2.0)
        if fir > max_fir:
            max_fir = fir
        if hooked:
            verdict = until(samples, xpp, ypp)
            if type(verdict) is int:
                # A wider step from this sample on: the step just taken is
                # taken again at the new size.
                if verdict <= multiple:
                    raise ValueError(
                        f"until may only widen the step: {verdict} after "
                        f"{multiple}")
                multiple = verdict
                step = multiple * dt
                h = step if (units + multiple) * dt <= t_max else t_max - t
                try:
                    x, y, xp, yp, _, _ = rk4_step(t, u, h)
                except BlowUpOverflow:
                    termination = Termination(
                        BLOW_UP_EVENT, t_event=t, trigger=TRIGGER_OVERFLOW
                    )
                    break
            elif verdict:
                break

        # g(u) > 0: a step starts from the initial data or where none fired.
        # The floors are tested in the expressions of _event_functions, as
        # in integrate.  Each floor that fired is located, in trigger order;
        # the earliest crossing ends the run.  g reads only the state part
        # of a step's result.
        if y - y_floor <= 0.0 or (xp + yp) - v_floor <= 0.0:
            hit_h = None
            hit_name = None
            for name, g in event_fns:
                if g((x, y, xp, yp)) <= 0.0:
                    lo, hi = 0.0, h
                    try:
                        while hi - lo > _EVENT_T_TOL:
                            mid = 0.5 * (lo + hi)
                            if g(rk4_step(t, u, mid)) <= 0.0:
                                hi = mid
                            else:
                                lo = mid
                    except BlowUpOverflow:
                        pass
                    if hit_h is None or hi < hit_h:
                        hit_h = hi
                        hit_name = name
            u = rk4_step(t, u, hit_h)[:4]
            t = t + hit_h
            termination = Termination(BLOW_UP_EVENT, t_event=t, trigger=hit_name)
            break

        u = (x, y, xp, yp)
        n_steps += 1
        units += multiple
        t = units * dt if units * dt <= t_max else t_max
    if termination is None:
        # The loop reached t_max, or until accepted a sample.
        termination = Termination(REACHED_HORIZON)
    if termination.trigger in (None, TRIGGER_OVERFLOW):
        # The residual at the last completed state: the terminal one, or
        # the start of the step that overflowed, if it is itself in range.
        try:
            *_, xpp, ypp = rk4_step(t, u, 0.0)
            fir = abs(first_integral_residual(u[2], u[3], xpp, ypp))
            if fir > max_fir:
                max_fir = fir
        except BlowUpOverflow:
            pass

    return _finish(config, samples, t, u, termination, max_fir, n_steps, 0)
