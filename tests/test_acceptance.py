"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the line-per-criterion
report.  Expensive trajectories are shared through module-scoped fixtures.

The classification probes of criterion 3 run at rel_tol 1e-12 rather than
the library default 1e-10: near the velocity floor the state reaches
|x' + y'| = 100 and relative error control at 1e-10 leaves conserved-quantity
drift of order rtol * velocity^2 ~ 1e-6, too coarse for the monitor bounds
asserted in criteria 6 and 7.  The verdicts themselves are identical at both
tolerances.
"""

import math

import pytest

from cmcflow import experiments
from cmcflow.background import CurvatureSign, rescaled_background_residual
from cmcflow.cli import main as cli_main
from cmcflow.experiments import (
    AUDIT_CONSTANT,
    AUDIT_NON_DECREASING,
    AUDIT_NON_INCREASING,
    VERDICT_COMPLETE,
    VERDICT_RECOLLAPSE,
    bisect_critical,
    classify,
    hamiltonian_audit,
    limit_Cs,
)
from cmcflow.integrate import (
    IntegratorSettings,
    backward_integrate,
    integrate,
    integrate_oracle,
)
from cmcflow.products import FlowConfig

NEG = CurvatureSign.NEGATIVE
POS = CurvatureSign.POSITIVE

TIGHT = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14)

RECOLLAPSE_S = [0.6, 0.74, 1.51, 2.0, 3.0, 5.0]
COMPLETE_S = [0.76, 1.0, 1.25, 1.49, 1.5]


def report(number, name, ok, detail):
    line = f"[criterion {number:>2}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def closed_form_runs():
    runs = {}
    for key, m, sign in [("n2pos", 1, POS), ("n4pos", 2, POS), ("n4neg", 2, NEG)]:
        config = FlowConfig(m=m, sign=sign, s=1.0)
        runs[key] = integrate(config, IntegratorSettings(t_max=10.0))
    return runs


@pytest.fixture(scope="module")
def threshold_classifications():
    out = {}
    for s in RECOLLAPSE_S + COMPLETE_S:
        config = FlowConfig(m=2, sign=POS, s=s)
        out[s] = classify(config, 50.0, settings=TIGHT)
    return out


@pytest.fixture(scope="module")
def negative_classifications():
    out = {}
    for s in (0.6, 1.0, 3.0):
        config = FlowConfig(m=2, sign=NEG, s=s)
        out[s] = classify(config, 50.0)
    return out


def test_criterion_01_desitter_recovery(closed_form_runs):
    worst = 0.0
    for key in ("n2pos", "n4pos"):
        for state in closed_form_runs[key].samples:
            worst = max(worst, abs(state.x - math.log(math.cosh(state.t))))
    report(1, "de-Sitter recovery n in {2,4}", worst <= 1e-8,
           f"max |x - log cosh t| = {worst:.3e} <= 1e-8")


def test_criterion_02_negative_background_recovery(closed_form_runs):
    c = math.asinh(1.0)
    worst = max(
        abs(state.x - math.log(math.sinh(state.t + c)))
        for state in closed_form_runs["n4neg"].samples
    )
    report(2, "negative background recovery", worst <= 1e-8,
           f"max |x - log sinh(t + asinh 1)| = {worst:.3e} <= 1e-8")


def test_criterion_03_threshold_classification(threshold_classifications):
    wrong = []
    for s in RECOLLAPSE_S:
        if threshold_classifications[s].verdict != VERDICT_RECOLLAPSE:
            wrong.append(s)
    for s in COMPLETE_S:
        if threshold_classifications[s].verdict != VERDICT_COMPLETE:
            wrong.append(s)
    report(3, "threshold classification n=4 horizon 50", not wrong,
           f"verdicts wrong at s = {wrong}" if wrong
           else "11/11 verdicts match the completeness interval [3/4, 3/2]")


def test_criterion_04_bisection():
    upper4 = bisect_critical(4, POS, 1.4, 1.6, 1e-4, 80.0)
    lower4 = bisect_critical(4, POS, 0.6, 0.9, 1e-4, 80.0)
    upper6 = bisect_critical(6, POS, 1.2, 1.35, 1e-4, 80.0)
    checks = [
        (upper4, 1.5), (lower4, 0.75), (upper6, 1.25),
    ]
    ok = all(
        res.bracket[0] - 1e-2 <= target <= res.bracket[1] + 1e-2
        and res.bracket[1] - res.bracket[0] <= 1e-4
        for res, target in checks
    )
    detail = ", ".join(
        f"{target}: [{res.bracket[0]:.5f}, {res.bracket[1]:.5f}]"
        for res, target in checks
    )
    report(4, "critical-coupling bisection", ok, detail)


def test_criterion_05_negative_family_complete(negative_classifications):
    wrong = [
        s for s, cls in negative_classifications.items()
        if cls.verdict != VERDICT_COMPLETE
    ]
    report(5, "negative-family completeness", not wrong,
           f"recollapse at s = {wrong}" if wrong else "s in {0.6, 1, 3} all complete")


def test_criterion_06_first_integral(threshold_classifications):
    worst = max(
        cls.max_first_integral_residual
        for cls in threshold_classifications.values()
    )
    report(6, "first integral at accepted steps", worst <= 1e-7,
           f"max |x''+y''+x'^2+y'^2-2| = {worst:.3e} <= 1e-7")


def test_criterion_07_hamiltonian_constraint(
    closed_form_runs, threshold_classifications, negative_classifications
):
    worst = max(traj.max_ham_residual for traj in closed_form_runs.values())
    worst = max(
        worst,
        max(c.max_constraint_residual for c in threshold_classifications.values()),
        max(c.max_constraint_residual for c in negative_classifications.values()),
    )
    report(7, "Hamiltonian constraint at samples", worst <= 1e-6,
           f"max |R - |S|^2 + tau^2(n-1)/n - n(n-1)| = {worst:.3e} <= 1e-6")


def test_criterion_08_reduced_hamiltonian():
    neg_const = hamiltonian_audit(FlowConfig(m=2, sign=NEG, s=1.0), 8.0)
    pos_const = hamiltonian_audit(FlowConfig(m=2, sign=POS, s=1.0), 8.0)
    neg_mono = hamiltonian_audit(FlowConfig(m=2, sign=NEG, s=1.3), 8.0)
    vals = [h for _, h in neg_const.series] + [h for _, h in pos_const.series]
    value_ok = all(abs(h - 16.0) / 16.0 <= 1e-6 for h in vals)
    ok = (
        neg_const.verdict == AUDIT_CONSTANT
        and pos_const.verdict == AUDIT_CONSTANT
        and value_ok
        and neg_mono.verdict in (AUDIT_NON_INCREASING, AUDIT_NON_DECREASING)
    )
    report(8, "reduced Hamiltonian", ok,
           f"s=1 verdicts ({neg_const.verdict}, {pos_const.verdict}) at 16, "
           f"s=1.3 negative {neg_mono.verdict} with measured change "
           f"{neg_mono.delta_total:+.3e}")


def test_criterion_09_limit_extraction(monkeypatch):
    # The cross-check against a fine reference pair of step 1e-4.
    monkeypatch.setattr(experiments, "ORACLE_DT", 1e-4)
    details = []
    ok = True
    for sign, name in ((POS, "positive"), (NEG, "negative")):
        est = limit_Cs(FlowConfig(m=2, sign=sign, s=1.3), 40.0)
        ok = ok and est.tail_variation <= 1e-6
        ok = ok and est.decay_rate is not None and est.decay_rate < 0.0
        ok = ok and est.cross_check_delta <= 1e-6
        details.append(
            f"{name}: value {est.value:+.9f}, tail {est.tail_variation:.1e}, "
            f"rate {est.decay_rate:+.3f}, cross {est.cross_check_delta:.1e}"
        )
    report(9, "limit of x - y at s=1.3", ok, "; ".join(details))


def test_criterion_10_boundary_case():
    config = FlowConfig(m=2, sign=POS, s=1.5)
    traj = integrate(config, IntegratorSettings(t_max=30.0))
    worst = max(abs(state.y) for state in traj.samples)
    report(10, "boundary coupling keeps y = 0", worst <= 1e-8,
           f"max |y| = {worst:.3e} <= 1e-8 over [0, 30]")


def test_criterion_11_time_symmetry():
    config = FlowConfig(m=2, sign=POS, s=2.0)
    fwd = integrate(config).termination.t_event
    bwd = backward_integrate(config).termination.t_event
    mismatch = abs(bwd + fwd)
    report(11, "time symmetry of blow-up", mismatch <= 1e-5,
           f"forward {fwd:.8f}, backward {bwd:.8f}, |sum| = {mismatch:.2e}")


def test_criterion_12_rescaled_fixed_point():
    worst = 0.0
    for n in (2, 4, 6):
        for sign in (NEG, POS):
            for k in range(10):
                T = 0.3 + 0.45 * k
                res_g, res_sigma = rescaled_background_residual(n, sign, T)
                worst = max(worst, abs(res_g), abs(res_sigma))
    report(12, "rescaled background is a fixed point", worst <= 1e-12,
           f"max residual over 3x2x10 grid = {worst:.3e} <= 1e-12")


def test_criterion_13_oracle_agreement():
    config = FlowConfig(m=2, sign=POS, s=1.2)
    adaptive = integrate(config, IntegratorSettings(t_max=20.0)).samples
    oracle = integrate_oracle(config, 1e-4, 20.0).samples
    assert len(adaptive) == len(oracle)
    dev = 0.0
    for a, o in zip(adaptive, oracle):
        assert abs(a.t - o.t) <= 1e-9
        dev = max(dev, abs(a.x - o.x), abs(a.y - o.y),
                  abs(a.xp - o.xp), abs(a.yp - o.yp))
    report(13, "adaptive vs fixed-step oracle", dev <= 1e-6,
           f"max state deviation = {dev:.3e} <= 1e-6 over [0, 20]")


def test_criterion_14_determinism(tmp_path, capsys):
    argv = [
        "simulate", "--n", "4", "--s", "1.3", "--curvature", "positive",
        "--t-max", "20",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    identical = a.read_bytes() == b.read_bytes()
    report(14, "byte-identical repeated simulate", identical,
           f"{a.stat().st_size} bytes compared equal" if identical
           else "outputs differ")
