"""In-memory span tracer around the layers of cmcflow, and the per-layer metrics.

Spans come from the benchmark's own wrappers.  ``install`` replaces the names
that ``cmcflow.experiments`` and ``cmcflow.cli`` import from their sibling
modules (and ``cli.main`` itself); ``uninstall`` puts the originals back.  The
package source is never modified.

``products.derivatives`` and ``products.observables`` are wrapped as
``cmcflow.integrate`` sees them, but they run millions of times per operation,
so each call adds its count and time to the innermost open span instead of
opening a span of its own.  A span's self time is its duration minus its
child spans and minus those RHS and observables calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
from time import perf_counter

# (module, imported name, span name)
WRAPPED = (
    ("cmcflow.experiments", "integrate", "integrate.dp5"),
    ("cmcflow.experiments", "integrate_oracle", "integrate.oracle"),
    ("cmcflow.experiments", "classify", "experiments.classify"),
    ("cmcflow.experiments", "limit_Cs", "experiments.limit"),
    ("cmcflow.experiments", "bisect_critical", "experiments.bisect"),
    ("cmcflow.experiments", "sweep", "experiments.sweep"),
    ("cmcflow.cli", "main", "cli"),
    ("cmcflow.cli", "integrate", "integrate.dp5"),
    ("cmcflow.cli", "classify", "experiments.classify"),
    ("cmcflow.cli", "hamiltonian_audit", "experiments.hamiltonian"),
    ("cmcflow.cli", "bisect_critical", "experiments.bisect"),
    ("cmcflow.cli", "sweep", "experiments.sweep"),
)
STEPPERS = ("integrate.dp5", "integrate.oracle")

# Per-layer metrics in reporting order.  "/op" is per traced operation.
UNITS = {
    "integrate.oracle.calls": "count/op",
    "integrate.oracle.self_s": "s/op",
    "integrate.oracle.steps": "count/op",
    "integrate.oracle.rhs_per_step": "count/step",
    "integrate.oracle.us_per_step": "us/step",
    "integrate.oracle.wall_share": "ratio",
    "integrate.dp5.calls": "count/op",
    "integrate.dp5.self_s": "s/op",
    "integrate.dp5.accepted_steps": "count/op",
    "integrate.dp5.rejected_steps": "count/op",
    "integrate.dp5.accept_ratio": "ratio",
    "integrate.dp5.us_per_step": "us/step",
    "integrate.dp5.rhs_per_step": "count/step",
    "experiments.integrations_per_row": "count/row",
    "experiments.bisect.rounds_per_solve": "count/solve",
    "experiments.classify.calls": "count/op",
    "experiments.classify.self_s": "s/op",
    "experiments.limit.calls": "count/op",
    "experiments.limit.self_s": "s/op",
    "experiments.sweep.self_s": "s/op",
    "products.rhs_evals": "count/op",
    "products.rhs_s": "s/op",
    "products.observables_calls": "count/op",
    "products.observables_s": "s/op",
    "cli.calls": "count/op",
    "cli.self_ms_per_call": "ms/call",
    "cli.output_bytes_per_call": "bytes/call",
    "trace.overhead_ratio": "ratio",
}


class Span:
    __slots__ = (
        "name", "start", "end", "parent", "op", "children_s",
        "rhs_n", "rhs_s", "obs_n", "obs_s", "accepted", "rejected",
    )

    def __init__(self, name: str, parent: int | None, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.children_s = self.rhs_s = self.obs_s = 0.0
        self.rhs_n = self.obs_n = self.accepted = self.rejected = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s - self.rhs_s - self.obs_s

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Spans of every traced operation, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_steps = _step_counter(name, fn)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = Span(name, parent, self.op)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].children_s += span.end - span.start
            if count_steps is not None:
                span.accepted, span.rejected = count_steps(args, kwargs, result)
            return result

        return traced

    def _innermost(self) -> Span:
        return self.spans[self._stack[-1]]

    def _wrap_derivatives(self, derivatives):
        def traced_derivatives(config):
            f = derivatives(config)
            # An integrator builds its RHS once, inside its own span.
            span = self._innermost()

            def traced_f(t, u):
                t0 = perf_counter()
                try:
                    return f(t, u)
                finally:
                    span.rhs_s += perf_counter() - t0
                    span.rhs_n += 1

            return traced_f

        return traced_derivatives

    def _wrap_observables(self, observables):
        def traced_observables(config, state):
            span = self._innermost()
            t0 = perf_counter()
            try:
                return observables(config, state)
            finally:
                span.obs_s += perf_counter() - t0
                span.obs_n += 1

        return traced_observables

    def install(self) -> None:
        integrate = importlib.import_module("cmcflow.integrate")
        replacements = [
            (importlib.import_module(module), attr, lambda fn, name=name: self.wrap(name, fn))
            for module, attr, name in WRAPPED
        ]
        replacements += [
            (integrate, "derivatives", self._wrap_derivatives),
            (integrate, "observables", self._wrap_observables),
        ]
        for module, attr, make_wrapper in replacements:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make_wrapper(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _step_counter(name: str, fn):
    """Accepted and rejected steps of a stepper span, from its Trajectory."""
    if name == "integrate.dp5":
        return lambda args, kwargs, traj: (traj.n_accepted, traj.n_rejected)
    if name == "integrate.oracle":
        # The oracle's Trajectory reports n_accepted = 0 whatever it did, so
        # count its fixed steps of size dt up to the final sample instead.
        signature = inspect.signature(fn)

        def count(args, kwargs, traj):
            dt = signature.bind(*args, **kwargs).arguments["dt"]
            return math.ceil(traj.final_state().t / dt - 1e-6), 0

        return count
    return None


def layer_metrics(spans: list[Span], n_ops: int, outcomes, overhead_ratio: float,
                  traced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics, per traced operation unless the name says otherwise."""

    def div(a, b):
        return a / b if b else 0.0

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, field):
        return sum(getattr(span, field) for span in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    m: dict[str, float] = {}
    oracle_steps = total("integrate.oracle", "accepted")
    m["integrate.oracle.calls"] = div(count("integrate.oracle"), n_ops)
    m["integrate.oracle.self_s"] = div(total("integrate.oracle", "self_s"), n_ops)
    m["integrate.oracle.steps"] = div(oracle_steps, n_ops)
    m["integrate.oracle.rhs_per_step"] = div(total("integrate.oracle", "rhs_n"), oracle_steps)
    m["integrate.oracle.us_per_step"] = 1e6 * div(
        total("integrate.oracle", "duration"), oracle_steps)
    m["integrate.oracle.wall_share"] = div(
        total("integrate.oracle", "duration"), traced_wall_s)

    accepted = total("integrate.dp5", "accepted")
    rejected = total("integrate.dp5", "rejected")
    m["integrate.dp5.calls"] = div(count("integrate.dp5"), n_ops)
    m["integrate.dp5.self_s"] = div(total("integrate.dp5", "self_s"), n_ops)
    m["integrate.dp5.accepted_steps"] = div(accepted, n_ops)
    m["integrate.dp5.rejected_steps"] = div(rejected, n_ops)
    m["integrate.dp5.accept_ratio"] = div(accepted, accepted + rejected)
    m["integrate.dp5.us_per_step"] = 1e6 * div(
        total("integrate.dp5", "duration"), accepted + rejected)
    m["integrate.dp5.rhs_per_step"] = div(total("integrate.dp5", "rhs_n"), accepted + rejected)

    rows = sum(o.rows for o in outcomes)
    sweep_dp5 = sum(
        1 for span in by_name.get("integrate.dp5", ())
        if _ancestor_named(spans, span, "experiments.sweep")
    )
    m["experiments.integrations_per_row"] = div(sweep_dp5, rows)
    m["experiments.bisect.rounds_per_solve"] = div(
        sum(o.rounds for o in outcomes), count("experiments.bisect"))
    for layer, name in (("classify", "experiments.classify"), ("limit", "experiments.limit")):
        m[f"experiments.{layer}.calls"] = div(count(name), n_ops)
        m[f"experiments.{layer}.self_s"] = div(total(name, "self_s"), n_ops)
    m["experiments.sweep.self_s"] = div(total("experiments.sweep", "self_s"), n_ops)

    m["products.rhs_evals"] = div(sum(span.rhs_n for span in spans), n_ops)
    m["products.rhs_s"] = div(sum(span.rhs_s for span in spans), n_ops)
    m["products.observables_calls"] = div(sum(span.obs_n for span in spans), n_ops)
    m["products.observables_s"] = div(sum(span.obs_s for span in spans), n_ops)

    cli_calls = count("cli")
    m["cli.calls"] = div(cli_calls, n_ops)
    m["cli.self_ms_per_call"] = 1e3 * div(total("cli", "self_s"), cli_calls)
    m["cli.output_bytes_per_call"] = div(sum(o.output_bytes for o in outcomes), cli_calls)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def _ancestor_named(spans: list[Span], span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def exact_counters(spans: list[Span], outcomes, first_ops: int) -> dict[str, int]:
    """Integer work counters over the first operations; they repeat exactly."""
    head = [span for span in spans if span.op < first_ops]
    steppers = {name: [s for s in head if s.name == name] for name in STEPPERS}
    return {
        "rhs_evals": sum(s.rhs_n for s in head),
        "observables_calls": sum(s.obs_n for s in head),
        "dp5_calls": len(steppers["integrate.dp5"]),
        "dp5_accepted": sum(s.accepted for s in steppers["integrate.dp5"]),
        "dp5_rejected": sum(s.rejected for s in steppers["integrate.dp5"]),
        "oracle_calls": len(steppers["integrate.oracle"]),
        "oracle_steps": sum(s.accepted for s in steppers["integrate.oracle"]),
        "bisect_rounds": sum(o.rounds for o in outcomes[:first_ops]),
        "sweep_rows": sum(o.rows for o in outcomes[:first_ops]),
    }
