"""Seeded inputs, operations and output checks for the cmcflow benchmark.

Every operation is one call into a public entry point of the package: one
``experiments.sweep`` call, one ``experiments.bisect_critical`` solve, or one
in-process ``cli.main(argv)`` invocation.  The package receives only the
inputs generated here from the seed.  Entry points are looked up on their
modules at call time, so the tracer's wrappers (see ``tracing.py``) see them.

Importing this module imports cmcflow; the fresh-interpreter set-up probe
times exactly that import plus ``make_inputs``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random

from cmcflow import cli, experiments
from cmcflow.background import CurvatureSign

WORKLOADS = ("sweep-limits", "bisect-critical", "cli-mix")

# Operations every run completes, whatever --seconds says.  The output digest
# and the exact counters cover these first operations, so two runs with the
# same seed compare them exactly.
DIGEST_OPS = {"sweep-limits": 2, "bisect-critical": 8, "cli-mix": 64}

POSITIVE = CurvatureSign.POSITIVE
NEGATIVE = CurvatureSign.NEGATIVE

SWEEP_HORIZON = 50.0
# Positive calls sweep this many couplings below, inside and above the
# completeness interval.  Negative calls sweep this many in total, spread
# over the same three ranges: the negative family is complete for every
# coupling, so each of its rows pays for a limit, and a call of 8 rows costs
# about what a positive call of 24 rows (8 of them limit rows) costs.
SWEEP_PER_REGION = 8
# Couplings stay this far from a threshold so that the analytic verdict is
# reached well within the horizon.
SWEEP_MARGIN = 0.01
SWEEP_S_MIN = 0.55
SWEEP_ABOVE_SPAN = 1.0

BISECT_NS = (4, 6, 8)
BISECT_TOL = 1e-6
BISECT_HORIZON = 80.0
BISECT_OFFSET = (0.01, 0.08)
BISECT_ROUNDS = 4
# Criterion 4: the analytic threshold lies within this distance of the bracket.
BISECT_SLACK = 1e-2

# Criterion 9 bounds on extracted limits.
LIMIT_BOUND = 1e-6

CLI_ROUNDS = 256
CLI_COMMANDS = ("classify", "hamiltonian", "simulate", "background")
CLI_S_RANGE = (0.55, 2.5)
CLI_CLASSIFY_HORIZON = (10.0, 20.0)
CLI_HAMILTONIAN_HORIZON = 8.0
CLI_SIMULATE_T_MAX = (2.0, 6.0)
CLI_BACKGROUND_T = (0.1, 3.0)
# The positive reduced-Hamiltonian audit stays on one gauge branch only
# strictly inside the completeness interval.
CLI_HAMILTONIAN_MARGIN = 0.02


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation: which entry point, and the arguments it receives."""

    kind: str
    args: tuple


@dataclasses.dataclass
class Outcome:
    """What the checks concluded about one operation's output."""

    problem: str | None
    digest: str
    rows: int = 0
    rounds: int = 0
    output_bytes: int = 0


def make_inputs(workload: str, seed: int) -> list[Op]:
    """The workload's operation pool; runs cycle through it in order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-limits":
        return _sweep_ops(rng)
    if workload == "bisect-critical":
        return _bisect_ops(rng)
    if workload == "cli-mix":
        return _cli_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _strata(rng: random.Random, count: int) -> list[float]:
    """``count`` draws in [0, 1), one from each of ``count`` equal slices, in
    random order.  Stratified draws give every seed nearly the same cost mix,
    so runs with different seeds measure the same amount of work."""
    draws = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(draws)
    return draws


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _sweep_ops(rng: random.Random) -> list[Op]:
    combos = [(n, sign) for n in (4, 6) for sign in (POSITIVE, NEGATIVE)]
    ops = []
    for _ in range(2):
        rng.shuffle(combos)
        for n, sign in combos:
            lower, upper = experiments.thresholds(n)
            ranges = (
                (SWEEP_S_MIN, lower - SWEEP_MARGIN),
                (lower + SWEEP_MARGIN, upper - SWEEP_MARGIN),
                (upper + SWEEP_MARGIN, upper + SWEEP_ABOVE_SPAN),
            )
            if sign is POSITIVE:
                counts = (SWEEP_PER_REGION,) * 3
            else:
                counts = [len(range(i, SWEEP_PER_REGION, 3)) for i in range(3)]
            grid = sorted(
                _lerp(lo, hi, u)
                for (lo, hi), count in zip(ranges, counts)
                for u in _strata(rng, count)
            )
            ops.append(Op("sweep", (n, sign, tuple(grid))))
    return ops


def _bisect_ops(rng: random.Random) -> list[Op]:
    # Each bracket is followed by its mirror image about the threshold.  The
    # midpoints that land on the costly complete side in one land on the
    # recollapse side in the other, so a pair costs about the same whatever
    # the draw, and every seed gets nearly the same amount of work.
    targets = [(n, side) for n in BISECT_NS for side in (0, 1)]
    offsets = {
        target: list(zip(_strata(rng, BISECT_ROUNDS), _strata(rng, BISECT_ROUNDS)))
        for target in targets
    }
    ops = []
    for k in range(BISECT_ROUNDS):
        rng.shuffle(targets)
        for n, side in targets:
            threshold = experiments.thresholds(n)[side]
            below, above = (_lerp(*BISECT_OFFSET, u) for u in offsets[n, side][k])
            for d_lo, d_hi in ((below, above), (above, below)):
                ops.append(Op("bisect", (n, side, threshold - d_lo, threshold + d_hi)))
    return ops


def _num(x: float) -> str:
    return f"{x:.6f}"


def _cli_argv(command: str, n: int, sign: CurvatureSign, u: float, v: float):
    flow = ["--n", str(n), "--curvature", sign.value]
    if command == "classify":
        return ["classify", *flow, "--s", _num(_lerp(*CLI_S_RANGE, u)),
                "--horizon", _num(_lerp(*CLI_CLASSIFY_HORIZON, v))]
    if command == "hamiltonian":
        s_range = CLI_S_RANGE
        if sign is POSITIVE:
            lower, upper = experiments.thresholds(n)
            s_range = (lower + CLI_HAMILTONIAN_MARGIN, upper - CLI_HAMILTONIAN_MARGIN)
        return ["hamiltonian", *flow, "--s", _num(_lerp(*s_range, u)),
                "--horizon", _num(CLI_HAMILTONIAN_HORIZON)]
    if command == "simulate":
        return ["simulate", *flow, "--s", _num(_lerp(*CLI_S_RANGE, u)),
                "--t-max", _num(_lerp(*CLI_SIMULATE_T_MAX, v))]
    return ["background", *flow, "--t", _num(_lerp(*CLI_BACKGROUND_T, u))]


def _cli_ops(rng: random.Random) -> list[Op]:
    # Each command gets every (n, sign) equally often and stratified draws.
    combos = [(n, sign) for n in (4, 6) for sign in (POSITIVE, NEGATIVE)]
    columns = {}
    for command in CLI_COMMANDS:
        flows = combos * (CLI_ROUNDS // len(combos))
        rng.shuffle(flows)
        columns[command] = list(
            zip(flows, _strata(rng, CLI_ROUNDS), _strata(rng, CLI_ROUNDS)))
    ops = []
    order = list(CLI_COMMANDS)
    for k in range(CLI_ROUNDS):
        rng.shuffle(order)
        for command in order:
            (n, sign), u, v = columns[command][k]
            ops.append(Op("cli", tuple(_cli_argv(command, n, sign, u, v))))
    return ops


def call(op: Op):
    """Run one operation and return its raw output.  This is the timed part."""
    if op.kind == "sweep":
        n, sign, grid = op.args
        return experiments.sweep(n, sign, list(grid), SWEEP_HORIZON)
    if op.kind == "bisect":
        n, _, s_lo, s_hi = op.args
        return experiments.bisect_critical(
            n, POSITIVE, s_lo, s_hi, BISECT_TOL, BISECT_HORIZON
        )
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.args))
    return code, out.getvalue()


def check(op: Op, raw) -> Outcome:
    """Check one operation's output and digest its deterministic part."""
    if op.kind == "sweep":
        return _check_sweep(op, raw)
    if op.kind == "bisect":
        return _check_bisect(op, raw)
    return _check_cli(op, raw)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _limit_problem(limit) -> str | None:
    if limit.cross_check_delta > LIMIT_BOUND:
        return f"cross_check_delta {limit.cross_check_delta:.3e} > {LIMIT_BOUND}"
    if limit.tail_variation > LIMIT_BOUND:
        return f"tail_variation {limit.tail_variation:.3e} > {LIMIT_BOUND}"
    if limit.decay_rate is not None and not limit.decay_rate < 0.0:
        return f"decay_rate {limit.decay_rate} is not negative"
    return None


def _check_sweep(op: Op, rows) -> Outcome:
    n, sign, grid = op.args
    digest = _digest(repr([dataclasses.astuple(row) for row in rows]))
    outcome = Outcome(problem=None, digest=digest, rows=len(rows))
    if [row.s for row in rows] != list(grid):
        outcome.problem = "rows do not follow the input grid"
        return outcome
    lower, upper = experiments.thresholds(n)
    for row in rows:
        where = f"n={n} {sign.value} s={row.s!r}"
        if row.error is not None or row.classification is None:
            outcome.problem = f"{where}: row error {row.error}"
            return outcome
        verdict = row.classification.verdict
        if sign is POSITIVE:
            if min(abs(row.s - lower), abs(row.s - upper)) <= experiments.NEAR_THRESHOLD:
                continue
            complete = lower < row.s < upper
        else:
            complete = True
        expected = experiments.VERDICT_COMPLETE if complete else experiments.VERDICT_RECOLLAPSE
        if verdict != expected:
            outcome.problem = f"{where}: verdict {verdict}, expected {expected}"
            return outcome
        if complete and row.limit is None:
            outcome.problem = f"{where}: complete row without a limit"
            return outcome
        if row.limit is not None:
            problem = _limit_problem(row.limit)
            if problem is not None:
                outcome.problem = f"{where}: {problem}"
                return outcome
    return outcome


def _check_bisect(op: Op, res) -> Outcome:
    n, side, _, _ = op.args
    digest = _digest(repr(dataclasses.astuple(res)))
    outcome = Outcome(problem=None, digest=digest, rounds=res.iterations)
    threshold = experiments.thresholds(n)[side]
    lo, hi = res.bracket
    inside = (experiments.VERDICT_COMPLETE, experiments.VERDICT_RECOLLAPSE)
    expected = inside if side == 1 else inside[::-1]
    where = f"n={n} threshold {threshold!r}"
    if (res.verdict_lo, res.verdict_hi) != expected:
        outcome.problem = f"{where}: verdicts {res.verdict_lo}/{res.verdict_hi}"
    elif not hi - lo <= BISECT_TOL:
        outcome.problem = f"{where}: bracket width {hi - lo:.3e} > tol"
    elif not lo - BISECT_SLACK <= threshold <= hi + BISECT_SLACK:
        outcome.problem = f"{where}: bracket [{lo!r}, {hi!r}] misses the threshold"
    return outcome


def _check_cli(op: Op, raw) -> Outcome:
    code, text = raw
    command = op.args[0]
    outcome = Outcome(problem=None, digest="", output_bytes=len(text.encode()))
    if code != cli.EXIT_OK:
        outcome.problem = f"{' '.join(op.args)}: exit code {code}"
        outcome.digest = _digest(f"{code}")
        return outcome
    if command == "simulate":
        outcome.digest = _digest(text)
        lines = text.splitlines()
        width = cli.CSV_HEADER.count(",") + 1
        if not lines or lines[0] != cli.CSV_HEADER:
            outcome.problem = f"{' '.join(op.args)}: CSV header differs"
        elif len(lines) < 2 or any(line.count(",") + 1 != width for line in lines[1:]):
            outcome.problem = f"{' '.join(op.args)}: malformed CSV rows"
        return outcome
    try:
        doc = json.loads(text)
    except ValueError as exc:
        doc = exc
    if not (
        isinstance(doc, dict)
        and doc.keys() == {"result", "diagnostics", "manifest"}
        and isinstance(doc["manifest"], dict)
        and "wall_time_ms" in doc["manifest"]
    ):
        outcome.problem = f"{' '.join(op.args)}: not the JSON document expected"
        outcome.digest = _digest(text)
        return outcome
    # The manifest's wall time is the one non-deterministic field.
    del doc["manifest"]["wall_time_ms"]
    outcome.digest = _digest(json.dumps(doc, sort_keys=True))
    if doc["manifest"].get("command") != command:
        outcome.problem = f"{' '.join(op.args)}: manifest names another command"
    return outcome
