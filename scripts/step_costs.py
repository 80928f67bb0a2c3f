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
* the oracle pair of the T = 50 limit row: both ``_oracle_limit`` runs of
  ``limit_Cs``, at ``ORACLE_DT`` and twice it, each to its first settled
  sample.  With ``rk4_step_us`` it tells cheaper steps from fewer steps;
* one ``constraint_terms`` call and one ``observables`` call, over the
  samples of the sampled run;
* one bisection probe, ``_probe_verdict``, of a recollapse near the upper
  n = 4 threshold (``PROBE_CONFIG``) at horizon 80, as ``bisect_critical`` runs
  it.  The screening run decides it, and ``probe_screen_steps`` counts its
  accepted plus rejected DP5 steps.

The minimum is the figure least disturbed by other work on the machine.
The figures are printed and written to --out as JSON.

    PYTHONPATH=src python3 scripts/step_costs.py [--repeat 30] [--out BENCH_steps.json]
"""

import argparse
import json
import math
import platform
import sys
from time import perf_counter

from cmcflow import (CurvatureSign, FlowConfig, IntegratorSettings, experiments,
                     integrate)
from cmcflow.experiments import (ORACLE_DT, RUN_MAX_STEP, _oracle_limit,
                                 _probe_verdict)
from cmcflow.integrate import integrate_oracle
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


def probe_steps(settings: IntegratorSettings) -> int:
    """DP5 steps, accepted plus rejected, of every run of one probe."""
    steps = []
    real = experiments.integrate

    def counted(config, settings, events=None):
        done = real(config, settings, events)
        steps.append(done.n_accepted + done.n_rejected)
        return done

    experiments.integrate = counted
    try:
        _probe_verdict(PROBE_CONFIG, settings, None)
    finally:
        experiments.integrate = real
    return sum(steps)


def measure(repeat: int) -> dict:
    sampled = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=HORIZON)
    unsampled = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=HORIZON,
                                   output_dt=math.inf)
    probe_settings = IntegratorSettings(max_step=RUN_MAX_STEP, t_max=PROBE_HORIZON,
                                        output_dt=math.inf)
    traj = integrate(CONFIG, sampled)
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

    def oracle_pair():
        _oracle_limit(CONFIG, ORACLE_DT, HORIZON)
        _oracle_limit(CONFIG, 2.0 * ORACLE_DT, HORIZON)
        return 1

    def monitor():
        for state in traj.samples:
            constraint_terms(CONFIG, state)
        return len(traj.samples)

    def observe():
        for state in traj.samples:
            observables(CONFIG, state)
        return len(traj.samples)

    def probe():
        _probe_verdict(PROBE_CONFIG, probe_settings, None)
        return 1

    timed = {
        "rhs_call_us": rhs_calls,
        "dp5_step_sampled_us": dp5_steps(sampled),
        "dp5_step_unsampled_us": dp5_steps(unsampled),
        "rk4_step_us": rk4_steps,
        "oracle_pair_us": oracle_pair,
        "constraint_terms_us": monitor,
        "observables_us": observe,
        "probe_screen_us": probe,
    }
    # Rounds visit every figure in turn, so a slow spell on the machine
    # touches them all alike; each figure keeps its least time per unit.
    best = dict.fromkeys(timed, math.inf)
    for _ in range(repeat):
        for name, run in timed.items():
            start = perf_counter()
            units = run()
            best[name] = min(best[name], (perf_counter() - start) / units)
    return {
        **{name: 1e6 * seconds for name, seconds in best.items()},
        "dp5_steps_per_run": traj.n_accepted + traj.n_rejected,
        "probe_screen_steps": probe_steps(probe_settings),
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
