#!/usr/bin/env python3
"""Bisect the critical couplings and show convergence with the horizon.

The empirical threshold (last coupling that fails to blow up before the
horizon) approaches the analytic value as the horizon grows; in practice
the brackets lock onto it already at moderate horizons because blow-up
times grow only logarithmically in the distance to the threshold.

    python3 scripts/critical_coupling.py --n 4
"""

import argparse
import re
import sys

from cmcflow import CurvatureSign, bisect_critical, thresholds


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--tol", type=float, default=1e-4)
    ap.add_argument("--horizons", type=float, nargs="+",
                    default=[30.0, 50.0, 80.0])
    args = ap.parse_args()
    try:
        lower, upper = thresholds(args.n)
    except ValueError as exc:
        ap.error(f"--n: {exc}")
    if upper is None:
        ap.error(f"--n {args.n} has no critical coupling: every s > 1/2 is complete")
    targets = [
        ("upper", upper, 0.9 * upper, 1.2 * upper),
        ("lower", lower, max(0.51, 0.75 * lower), 0.5 * (lower + 1.0)),
    ]

    # Every bisection runs before anything is printed, so a library error
    # ends the script with a usage error and no partial table.
    try:
        solves = [
            [bisect_critical(args.n, CurvatureSign.POSITIVE, lo, hi, args.tol,
                             horizon)
             for horizon in args.horizons]
            for _, _, lo, hi in targets
        ]
    except ValueError as exc:
        # bisect_critical names its arguments; report them in this script's terms
        flags = {"tol": "--tol", "t_max": "--horizons",
                 "s_hi": "the upper end of the start bracket"}
        ap.error(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))

    for (name, analytic, lo, hi), results in zip(targets, solves):
        print(f"{name} threshold, analytic {analytic:.10f}, "
              f"start bracket [{lo:.4f}, {hi:.4f}]")
        for horizon, res in zip(args.horizons, results):
            mid = 0.5 * (res.bracket[0] + res.bracket[1])
            print(f"  horizon {horizon:>6.1f}: bracket "
                  f"[{res.bracket[0]:.8f}, {res.bracket[1]:.8f}]  "
                  f"mid {mid:.8f}  |mid-analytic| {abs(mid - analytic):.2e}  "
                  f"({res.iterations} halvings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
