"""cmcflow benchmark: one workload, closed loop, end to end or traced.

Run from the root of a checkout (the directory holding ``src/cmcflow``):

    python3 cmcbench/run.py --workload sweep-limits --seed 1 --seconds 30 --trace 0
    python3 cmcbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process and one thread send each operation only after the previous one
returned, for ``--seconds`` seconds and at least ``workloads.DIGEST_OPS``
operations.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every operation twice, plain and then traced, and reports the per-layer
metrics from the traced copies (see ``tracing.py``).  Human-readable lines
come first; the last line of stdout is the JSON result.  A record of the run
(metadata, digest, counters, latencies) goes to ``cmcbench/out/``, and the
traced run writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
# Fresh interpreters timed before the operations, and as many again after
# them: the host's slow and fast phases can last tens of seconds, and probes
# taken at both ends of a run sample more than one.
SETUP_PROBES = 5
# A fresh interpreter imports cmcflow and builds the workload's inputs, then
# reports how long that took, up to where its first operation would start.
# Interpreter start-up before the first statement is left out: it does not
# depend on cmcflow, and it varied the most between probes.
PROBE = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import sys\n"
    "sys.path[:0] = sys.argv[3:5]\n"
    "import workloads\n"
    "workloads.make_inputs(sys.argv[1], int(sys.argv[2]))\n"
    "print(perf_counter() - t0)\n"
)
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(src: str, workload: str, seed: int) -> list[float]:
    """Import-and-generate times of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, workload, str(seed), src, BENCH_DIR],
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def attempt(workloads, op, call):
    """Run one call; an exception or a failed check makes a failed outcome.

    Returns the call's start and end times and the checked outcome.
    """
    t0 = perf_counter()
    try:
        raw = call(op)
    except Exception as exc:  # a failing operation is counted, not fatal
        t1 = perf_counter()
        return t0, t1, workloads.Outcome(f"{op.kind}: {type(exc).__name__}: {exc}", "error")
    t1 = perf_counter()
    try:
        return t0, t1, workloads.check(op, raw)
    except Exception as exc:
        return t0, t1, workloads.Outcome(f"{op.kind}: check raised {exc!r}", "error")


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies, and the maximum is
    reported as percentile 100.
    """
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(setup, latencies, ok, rss_mb) -> dict[str, float]:
    tail_s, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        # Closed loop with one client: completed operations per second of
        # operation time, the harness's checks between operations excluded.
        "ops_per_s": ok / math.fsum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss_mb,
    }


def run_plain(workloads, meter, ops, seconds, min_ops):
    times, outcomes = [], []
    with meter.sampling():
        deadline = perf_counter() + seconds
        while len(outcomes) < min_ops or perf_counter() < deadline:
            t0, t1, outcome = attempt(
                workloads, ops[len(outcomes) % len(ops)], workloads.call)
            times.append((t0, t1))
            outcomes.append(outcome)
    raw, normalised = zip(*(meter.normalise(t0, t1) for t0, t1 in times))
    return list(raw), list(normalised), outcomes


def run_traced(workloads, tracing, ops, seconds, min_ops):
    """Each operation runs plain, then traced; the pair gives the overhead."""
    tracer = tracing.Tracer()
    traced_call = tracer.wrap("op", workloads.call)
    outcomes = []
    plain_s = traced_s = 0.0
    deadline = perf_counter() + seconds
    while len(outcomes) < min_ops or perf_counter() < deadline:
        op = ops[len(outcomes) % len(ops)]
        t0, t1, plain = attempt(workloads, op, workloads.call)
        plain_s += t1 - t0
        tracer.op = len(outcomes)
        tracer.install()
        try:
            t0, t1, traced = attempt(workloads, op, traced_call)
        finally:
            tracer.uninstall()
        traced_s += t1 - t0
        if traced.problem is None:
            if plain.problem is not None:
                traced.problem = plain.problem
            elif traced.digest != plain.digest:
                traced.problem = f"{op.kind}: tracing changed the output"
        outcomes.append(traced)
    return tracer, outcomes, plain_s, traced_s


def src_line_count(src: str) -> int:
    lines = 0
    for folder, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    lines += fh.read().count(b"\n")
    return lines


def run_workload(args, src: str) -> int:
    import gauge
    import tracing
    import workloads

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_line_count(src),
    }
    min_ops = workloads.DIGEST_OPS[args.workload]
    record = {"meta": meta}
    if args.trace:
        ops = workloads.make_inputs(args.workload, args.seed)
        tracer, outcomes, plain_s, traced_s = run_traced(
            workloads, tracing, ops, args.seconds, min_ops)
        metrics = tracing.layer_metrics(
            tracer.spans, len(outcomes), outcomes, traced_s / plain_s, traced_s)
        record["counters"] = tracing.exact_counters(tracer.spans, outcomes, min_ops)
        units = {name: tracing.UNITS[name] for name in metrics}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        setup = measure_setup(src, args.workload, args.seed)
        meter = gauge.Gauge()
        ops = workloads.make_inputs(args.workload, args.seed)
        raw, latencies, outcomes = run_plain(
            workloads, meter, ops, args.seconds, min_ops)
        setup += measure_setup(src, args.workload, args.seed)
        ok = sum(1 for o in outcomes if o.problem is None)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(setup, latencies, ok, rss_mb)
        units = UNITS
        record["raw_metrics"] = end_to_end(setup, raw, ok, rss_mb)
        record["latencies_ms"] = [1e3 * x for x in latencies]
        record["raw_latencies_ms"] = [1e3 * x for x in raw]
        record["setup_s"] = setup
        record["gauge_s"] = meter.loops
        record["tail_percentile"] = tail(latencies)[1]

    failures = [o.problem for o in outcomes if o.problem is not None]
    digest = hashlib.sha256(
        "\n".join(o.digest for o in outcomes[:min_ops]).encode()).hexdigest()
    record.update(
        metrics={name: {"value": value, "unit": units[name]}
                 for name, value in metrics.items()},
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures[:20],
        digest=digest,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(" ".join(f"{key}={value}" for key, value in meta.items()))
    raw_metrics = record.get("raw_metrics", {})
    for name, value in metrics.items():
        note = ""
        if name in ("ops_per_s", "op_p50_ms", "op_tail_ms") and raw_metrics:
            note += f"  (raw {raw_metrics[name]:.6g})"
        if name == "op_tail_ms":
            note += f"  p{record['tail_percentile']:.1f} of {len(outcomes)} ops"
        print(f"{name:40s} {value:14.6g} {units[name]}{note}")
    print(f"{'fail_ratio':40s} {len(failures) / len(outcomes):14.6g} "
          f"({len(failures)} of {len(outcomes)} ops failed)")
    print(f"digest of the first {min_ops} ops: {digest}")
    if "counters" in record:
        print(f"counters over the first {min_ops} ops: "
              + json.dumps(record["counters"], sort_keys=True))
    for problem in failures[:5]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for workload in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cmcflow", "__init__.py")):
        print("error: no src/cmcflow here; run from the root of a cmcflow "
              "checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [src, BENCH_DIR]
    import cmcflow
    import workloads

    package = os.path.realpath(os.path.dirname(cmcflow.__file__))
    if package != os.path.realpath(os.path.join(src, "cmcflow")):
        print(f"error: cmcflow was imported from {package}, not from ./src",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(args, src)


if __name__ == "__main__":
    sys.exit(main())
