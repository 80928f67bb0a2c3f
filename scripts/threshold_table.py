#!/usr/bin/env python3
"""Tabulate recollapse vs completeness across the coupling range.

Reproduces the dichotomy of the positive-curvature product family: complete
exactly for couplings in [(n-1)/n, (n-1)/(n-2)], recollapsing outside, with
the late-time volume-ratio limit on the open interval.

    python3 scripts/threshold_table.py --n 4 --points 25 --horizon 50
"""

import argparse
import re
import sys

from cmcflow import CurvatureSign, FlowConfig, limit_volume_ratio, sweep, thresholds
from cmcflow.experiments import coupling_grid


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--s-min", type=float, default=0.55)
    ap.add_argument("--s-max", type=float, default=2.5)
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--horizon", type=float, default=50.0)
    ap.add_argument("--no-limits", action="store_true")
    args = ap.parse_args()
    try:
        lower, upper = thresholds(args.n)
    except ValueError as exc:
        ap.error(f"--n: {exc}")
    try:
        grid = coupling_grid(args.s_min, args.s_max, args.points)
    except ValueError as exc:
        # coupling_grid names its arguments; report them as this script's flags
        flags = {"s_min": "--s-min", "s_max": "--s-max", "steps": "--points"}
        ap.error(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]), str(exc)))
    # The sweep runs before anything is printed, so a horizon the library
    # rejects ends the script with a usage error and no partial table.
    try:
        rows = sweep(args.n, CurvatureSign.POSITIVE, grid, args.horizon,
                     with_limits=not args.no_limits)
    except ValueError as exc:
        ap.error(re.sub(r"\bt_max\b", "--horizon", str(exc)))
    upper_text = f"{upper:.6f}" if upper is not None else "undefined (n=2)"
    print(f"n = {args.n}: analytic completeness interval "
          f"[{lower:.6f}, {upper_text}]")
    # the limit is shown both gauge-free, as lim (x - y), and as the
    # volume ratio of the two factors at unit base volumes
    print(f"{'s':>10}  {'verdict':<22} {'t_blowup':>12}  {'lim (x-y)':>12}  "
          f"{'vol ratio':>12}")
    for row in rows:
        if row.error:
            print(f"{row.s:>10.5f}  {row.error}")
            continue
        cls = row.classification
        t_blow = f"{cls.t_blowup:.6f}" if cls.t_blowup is not None else "-"
        if row.limit is not None:
            config = FlowConfig(m=args.n // 2, sign=CurvatureSign.POSITIVE,
                                s=row.s)
            lim = f"{row.limit.value:+.8f}"
            ratio = f"{limit_volume_ratio(config, row.limit.value):.8f}"
        else:
            lim = ratio = "-"
        flag = "  (near threshold)" if cls.low_confidence else ""
        print(f"{row.s:>10.5f}  {cls.verdict:<22} {t_blow:>12}  {lim:>12}  "
              f"{ratio:>12}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
