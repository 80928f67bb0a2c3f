#!/usr/bin/env python3
"""Audit the reduced Hamiltonian along product trajectories.

On the expanding branch the volume-weighted Hamiltonian is monotone and is
constant exactly on the homothetic backgrounds (coupling 1).  The audit
reads the verdict from the sign of d/dt log h_red = tau |Sigma|^2 /
(tau^2/n - n) and reports it with the measured total change, which past
horizons around 10 is dominated by rounding.  A case whose run leaves the
gauge range of its branch is reported in its row, and the script then
exits 4, as ``cmcflow hamiltonian`` does.

    python3 scripts/hamiltonian_monotonicity.py --horizon 8
"""

import argparse
import re
import sys

from cmcflow import (
    CurvatureSign,
    FlowConfig,
    GaugeRangeError,
    IntegratorSettings,
    hamiltonian_audit,
    thresholds,
)

CASES = [
    (CurvatureSign.NEGATIVE, 1.0),
    (CurvatureSign.NEGATIVE, 1.15),
    (CurvatureSign.NEGATIVE, 1.3),
    (CurvatureSign.NEGATIVE, 2.5),
    (CurvatureSign.POSITIVE, 1.0),
    (CurvatureSign.POSITIVE, 1.2),
    (CurvatureSign.POSITIVE, 1.4),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--horizon", type=float, default=8.0)
    args = ap.parse_args()
    try:
        thresholds(args.n)
    except ValueError as exc:
        ap.error(f"--n: {exc}")
    try:
        IntegratorSettings(t_max=args.horizon)  # the library's horizon rule
    except ValueError as exc:
        ap.error(re.sub(r"\bt_max\b", "--horizon", str(exc)))

    print(f"{'curvature':<10} {'s':>6} {'branch':>7} {'verdict':<24} "
          f"{'H(0+)':>14} {'H(end)':>14} {'total change':>14}")
    failed = False
    for sign, s in CASES:
        config = FlowConfig(m=args.n // 2, sign=sign, s=s)
        try:
            audit = hamiltonian_audit(config, args.horizon)
        except GaugeRangeError as exc:
            print(f"{sign.value:<10} {s:>6.2f} GaugeRangeError: {exc}")
            failed = True
            continue
        expanding = [(t, h) for t, h in audit.series if t > 0.0]
        print(f"{sign.value:<10} {s:>6.2f} {audit.branch:>7} "
              f"{audit.verdict:<24} {expanding[0][1]:>14.8g} "
              f"{expanding[-1][1]:>14.8g} {audit.delta_total:>+14.6e}")
    return 4 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
