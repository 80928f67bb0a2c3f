#!/usr/bin/env python3
"""Cost of one step of the integration core, layer by layer.

Times, as the minimum over --repeat rounds, in microseconds:

* one right-hand-side call, ``derivatives(config)(t, u)``, at a late state;
* one DP5 step, from whole ``integrate`` runs of a T = 50 limit row at the
  step cap of ``classify`` and ``sweep`` (``RUN_MAX_STEP``), sampled at the
  default output_dt and unsampled (output_dt = inf, as bisection probes
  run), divided by their accepted plus rejected steps;
* one RK4 step, from an ``integrate_oracle`` run of step ``ORACLE_DT`` to
  t = 12 (``RK4_T``), divided by its steps;
* the oracle pair of the T = 50 limit row, ``_oracle_pair``: both RK4 runs
  of ``limit_Cs``, at ``ORACLE_DT`` and twice it on the finer run's step
  plan, each to its first settled sample.  ``oracle_pair_steps`` counts the
  steps of both runs; with ``rk4_step_us`` it tells cheaper steps from
  fewer steps;
* one ``constraint_terms`` call and one ``observables`` call, over the
  samples of the sampled run, and one sample of ``max_ham_residual``, the
  constraint monitor of that run's ``Trajectory``, which takes every sample
  in one pass;
* one DP5 event location (``event_location_us``): a short unsampled run of
  ``EVENT_CONFIG`` whose y floor fires after 16 accepted steps, less the
  same run with no floors and its horizon at the located time.  That run
  takes the same steps but ends the last one on the horizon instead of
  locating the crossing on the dense output;
* one bisection probe, ``_probe_verdict``, of a recollapse near the upper
  n = 4 threshold (``PROBE_CONFIG``) at horizon 80, as ``bisect_critical`` runs
  it, with the screen that ``bisect_critical`` builds once per solve.  The
  screening run decides it, and ``probe_screen_steps`` counts its accepted
  plus rejected DP5 steps;
* one ``bisect_critical`` solve shaped like an operation of the
  bisect-critical benchmark workload (``BISECT_ARGS``: n = 4, bracket
  [1.47, 1.55] around the upper threshold, tol 1e-6, horizon 80).
  ``bisect_solve_runs`` counts the DP5 runs its probes make, and
  ``bisect_solve_steps`` their accepted plus rejected steps.

The minimum is the figure least disturbed by other work on the machine.
The figures are printed and written to --out as JSON.

    PYTHONPATH=src python3 scripts/step_costs.py [--repeat 30] [--out BENCH_steps.json]
"""

import argparse
import json
import math
import platform
import sys
from dataclasses import replace
from time import perf_counter

from cmcflow import (CurvatureSign, FlowConfig, IntegratorSettings, experiments,
                     integrate)
from cmcflow.experiments import (ORACLE_DT, RUN_MAX_STEP, _oracle_pair,
                                 _probe_verdict, _screen, bisect_critical)
from cmcflow.integrate import EventSpec, integrate_oracle
from cmcflow.products import constraint_terms, derivatives, observables

# A complete row of the sweep-limits workload's kind: n = 4, between the
# two positive-curvature thresholds 3/4 and 3/2.
CONFIG = FlowConfig(m=2, sign=CurvatureSign.POSITIVE, s=1.2)
HORIZON = 50.0
# The RK4 run ends where the oracle pair used to stop, so its figure stays
# comparable with the earlier ones.
RK4_T = 12.0
RHS_CALLS = 1000
# A recollapse probe 1e-4 above the upper n = 4 threshold 3/2, at the
# horizon of the bisect-critical workload.
PROBE_CONFIG = FlowConfig(m=2, sign=CurvatureSign.POSITIVE, s=1.5 + 1e-4)
PROBE_HORIZON = 80.0
# Past the upper n = 4 threshold y falls from the start; a floor just below
# 0 fires early, so the two runs of the event figure are short.
EVENT_CONFIG = FlowConfig(m=2, sign=CurvatureSign.POSITIVE, s=3.0)
EVENT_FLOORS = EventSpec(y_floor=-0.01)
NO_FLOORS = EventSpec(y_floor=-math.inf, velocity_floor=-math.inf)
# n, sign, bracket ends, tol and horizon of one bisection solve.
BISECT_ARGS = (4, CurvatureSign.POSITIVE, 1.47, 1.55, 1e-6, 80.0)


def dp5_runs(work) -> list[int]:
    """DP5 steps, accepted plus rejected, of each run that work() makes
    through ``experiments``."""
    steps = []
    real = experiments.integrate

    def counted(config, settings, events=None):
        done = real(config, settings, events)
        steps.append(done.n_accepted + done.n_rejected)
        return done

    experiments.integrate = counted
    try:
        work()
    finally:
        experiments.integrate = real
    return steps


def oracle_pair() -> int:
    """Both runs of the limit's oracle pair; returns their steps."""
    steps = []
    real = experiments.integrate_oracle

    def counted(*args, **kwargs):
        done = real(*args, **kwargs)
        steps.append(done.n_accepted)
        return done

    experiments.integrate_oracle = counted
    try:
        _oracle_pair(CONFIG, HORIZON)
    finally:
        experiments.integrate_oracle = real
    return sum(steps)


def measure(repeat: int) -> dict:
    sampled = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=HORIZON)
    unsampled = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=HORIZON,
                                   output_dt=math.inf)
    probe_settings = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=PROBE_HORIZON,
                                        output_dt=math.inf)
    probe_screen = _screen(probe_settings, None)
    traj = integrate(CONFIG, sampled)
    event_settings = replace(unsampled, t_max=1.0)
    event_run = integrate(EVENT_CONFIG, event_settings, EVENT_FLOORS)
    # The located run does not count the step in which the floor fired.
    no_location_settings = replace(unsampled,
                                   t_max=event_run.termination.t_event)
    no_location_run = integrate(EVENT_CONFIG, no_location_settings, NO_FLOORS)
    if (no_location_run.n_accepted, no_location_run.n_rejected) != (
            event_run.n_accepted + 1, event_run.n_rejected):
        raise RuntimeError("the two runs of the event figure step differently")
    late = traj.final_state()
    u = (late.x, late.y, late.xp, late.yp)
    f = derivatives(CONFIG)

    # Each returns the number of units it timed.
    def rhs_calls():
        for _ in range(RHS_CALLS):
            f(HORIZON, u)
        return RHS_CALLS

    def dp5_steps(settings):
        def run():
            done = integrate(CONFIG, settings)
            return done.n_accepted + done.n_rejected
        return run

    def rk4_steps():
        return integrate_oracle(CONFIG, ORACLE_DT, RK4_T).n_accepted

    def pair():
        oracle_pair()
        return 1

    def monitor():
        for state in traj.samples:
            constraint_terms(CONFIG, state)
        return len(traj.samples)

    def observe():
        for state in traj.samples:
            observables(CONFIG, state)
        return len(traj.samples)

    def ham_monitor():
        traj.max_ham_residual  # a property, computed at each read
        return len(traj.samples)

    def event_run_located():
        integrate(EVENT_CONFIG, event_settings, EVENT_FLOORS)
        return 1

    def event_run_not_located():
        integrate(EVENT_CONFIG, no_location_settings, NO_FLOORS)
        return 1

    def probe():
        _probe_verdict(PROBE_CONFIG, probe_settings, None, probe_screen)
        return 1

    def bisect_solve():
        bisect_critical(*BISECT_ARGS)
        return 1

    timed = {
        "rhs_call_us": rhs_calls,
        "dp5_step_sampled_us": dp5_steps(sampled),
        "dp5_step_unsampled_us": dp5_steps(unsampled),
        "rk4_step_us": rk4_steps,
        "oracle_pair_us": pair,
        "constraint_terms_us": monitor,
        "observables_us": observe,
        "max_ham_residual_us": ham_monitor,
        "probe_screen_us": probe,
        "bisect_solve_us": bisect_solve,
        "event_run_located": event_run_located,
        "event_run_not_located": event_run_not_located,
    }
    # Rounds visit every figure in turn, so a slow spell on the machine
    # touches them all alike; each figure keeps its least time per unit.
    best = dict.fromkeys(timed, math.inf)
    for _ in range(repeat):
        for name, run in timed.items():
            start = perf_counter()
            units = run()
            best[name] = min(best[name], (perf_counter() - start) / units)
    best["event_location_us"] = (best.pop("event_run_located")
                                 - best.pop("event_run_not_located"))
    return {
        **{name: 1e6 * seconds for name, seconds in best.items()},
        "dp5_steps_per_run": traj.n_accepted + traj.n_rejected,
        "oracle_pair_steps": oracle_pair(),
        "probe_screen_steps": sum(dp5_runs(probe)),
        "bisect_solve_runs": len(dp5_runs(bisect_solve)),
        "bisect_solve_steps": sum(dp5_runs(bisect_solve)),
        "repeat": repeat,
        "python": platform.python_version(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=30,
                    help="timing rounds per figure; the least is reported")
    ap.add_argument("--out", default="BENCH_steps.json",
                    help="JSON output path")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("need --repeat >= 1")
    figures = measure(args.repeat)
    for key, value in figures.items():
        print(f"{key:>24}  {value:.3f}" if isinstance(value, float)
              else f"{key:>24}  {value}")
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(figures, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write --out: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
