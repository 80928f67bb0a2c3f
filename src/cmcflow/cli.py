"""Command-line surface: simulate, classify, bisect, sweep, hamiltonian, background.

Output contracts:

* ``simulate`` writes a trajectory CSV (header exactly
  ``t,x,y,xp,yp,tau,sigma_sq,scalar_curv,ham_residual,first_integral_residual,h_red``,
  LF line endings, '.' decimal separator, h_red empty when out of gauge
  range, first_integral_residual empty past the overflow floor) and a JSON
  manifest next to it at ``<out>.manifest.json``.
* every other command prints a single JSON object
  ``{"result": ..., "diagnostics": ..., "manifest": ...}`` to stdout with
  floats serialized to 17 significant digits.

Exit codes: 0 success (a blow-up is a reported scientific result, not a
failure), 2 invalid flags, input that breaks a library rule or an ``--out``
path that cannot be written, 3 integrator failure (step-size collapse
without blow-up, simulate only), 4 precondition violation.

Every manifest echoes the full numeric configuration including defaulted
values, so a run can be reproduced without reading source.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields

from . import __version__
from .background import (
    BackgroundModel,
    CurvatureSign,
    GaugeDomainError,
    mean_curvature,
    scale_factor,
)
from .experiments import (
    RUN_MAX_STEP,
    BracketError,
    GaugeRangeError,
    PreconditionError,
    bisect_critical,
    classify,
    coupling_grid,
    hamiltonian_audit,
    sweep,
    thresholds,
)
from .integrate import (
    STEP_SIZE_COLLAPSE,
    EventSpec,
    IntegratorSettings,
    integrate,
)
from .products import (
    BlowUpOverflow,
    FlowConfig,
    derivatives,
    first_integral_residual,
)

CSV_HEADER = (
    "t,x,y,xp,yp,tau,sigma_sq,scalar_curv,ham_residual,"
    "first_integral_residual,h_red"
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTEGRATOR = 3
EXIT_PRECONDITION = 4


class UsageError(Exception):
    """Invalid flags, ``--config`` contents or environment; exit code 2."""


def _dumps17(obj, indent: int = 0) -> str:
    """JSON with floats at 17 significant digits and stable key order."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, float):
        # Strict JSON has no NaN/Infinity tokens.
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, dict) and obj:
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_dumps17(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = ",\n".join(f"{inner}{_dumps17(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    # None, booleans, integers, strings and empty containers; anything else
    # raises TypeError.
    return json.dumps(obj)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# option name -> (python type, default); None default means required.
_FLOW_OPTS = {
    "n": (int, None),
    "s": (float, None),
    "curvature": (str, None),
    "vol_m": (float, 1.0),
    "vol_n": (float, 1.0),
}
# The settings and event options are the library's dataclass fields, with the
# library's defaults; the horizon comes from each command's own argument.
_SETTINGS_OPTS = {
    field.name: (float, field.default)
    for field in fields(IntegratorSettings)
    if field.name != "t_max"
}
_EVENT_OPTS = {field.name: (float, field.default) for field in fields(EventSpec)}
# A command takes only the options that can change its output.  simulate and
# hamiltonian take every one; classify, bisect and sweep no base volumes,
# which enter only the reduced Hamiltonian, and, reporting no h_red series,
# the library's default cap for such runs; bisect and sweep no --s, as they
# scan the coupling; bisect no --output-dt, whose samples no probe reads.
_RUN_OPTS = {**_FLOW_OPTS, **_SETTINGS_OPTS, **_EVENT_OPTS}
_CLASSIFY_OPTS = {k: v for k, v in _RUN_OPTS.items() if k not in ("vol_m", "vol_n")}
_CLASSIFY_OPTS["max_step"] = (float, RUN_MAX_STEP)
_FAMILY_OPTS = {k: v for k, v in _CLASSIFY_OPTS.items() if k != "s"}
_BISECT_OPTS = {k: v for k, v in _FAMILY_OPTS.items() if k != "output_dt"}


# The values a flag and its --config key may take, in the order usage and
# help list them.
_CHOICES = {
    "curvature": [CurvatureSign.POSITIVE.value, CurvatureSign.NEGATIVE.value],
}


def _config_value(name: str, typ, raw):
    # The JSON type itself is checked: int() and float() would read true as
    # 1 and the string "4" as 4, and int() would truncate 4.7 to 4.
    if name in _CHOICES:
        if raw not in _CHOICES[name]:
            raise UsageError(f"bad value for {name!r} in --config: {raw!r}")
        return raw
    try:
        if type(raw) is int or (
                type(raw) is float and (typ is float or raw.is_integer())):
            return typ(raw)
    except OverflowError:  # float() of an integer beyond the float range
        pass
    raise UsageError(f"bad value for {name!r} in --config")


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Resolve each option as: explicit flag > --config entry > default."""
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read --config: {exc}") from None
        if not isinstance(raw, dict):
            raise UsageError("--config must hold a JSON object")
        file_values = {str(k).replace("-", "_"): v for k, v in raw.items()}

    resolved = {}
    for name, (typ, default) in options.items():
        value = getattr(args, name)
        if value is None and name in file_values:
            value = _config_value(name, typ, file_values[name])
        resolved[name] = default if value is None else value
    unknown = set(file_values) - set(options)
    if unknown:
        raise UsageError(f"unknown keys in --config: {sorted(unknown)}")
    return resolved


@dataclass(frozen=True)
class _Command:
    """One subcommand: its body, merged options and own arguments.

    ``options`` are the flags that ``--config`` may also supply; those
    without a default are required.  ``params`` maps the command's own
    arguments to their types; all but ``out`` are required and echoed as
    ``config.parameters``.  ``horizon`` names the argument that sets
    ``IntegratorSettings.t_max``.  ``preconditions`` are the library
    exceptions reported with exit code 4; any other ``ValueError`` is a
    library input rule, reported with exit code 2.
    """

    help: str
    body: Callable
    options: dict
    params: dict
    horizon: str = "horizon"
    preconditions: tuple = ()


@dataclass(frozen=True)
class _Run:
    """The merged options as library objects; ``flow`` is None without --s."""

    n: int
    sign: CurvatureSign
    flow: FlowConfig | None
    settings: IntegratorSettings
    events: EventSpec


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _require(values: dict, names) -> None:
    missing = [_flag(name) for name in names if values[name] is None]
    if len(missing) == 1:
        raise UsageError(f"{missing[0]} is required")
    if missing:
        raise UsageError(f"{', '.join(missing[:-1])} and {missing[-1]} are required")


def _own_args(args: argparse.Namespace, command: _Command) -> dict:
    """The command's own arguments except the output path, in table order."""
    return {name: getattr(args, name) for name in command.params if name != "out"}


def _resolve(args: argparse.Namespace, command: _Command) -> _Run | None:
    """Check every required flag, then build the library objects they name."""
    vals = _merge_config(args, command.options)
    own = _own_args(args, command)
    required = [name for name, (_, default) in command.options.items()
                if default is None]
    _require({**vals, **own}, required + list(own))
    if not command.options:
        return None
    n = vals["n"]
    thresholds(n)  # raises ValueError unless n is even and >= 2
    sign = CurvatureSign(vals["curvature"])
    flow = None
    if "s" in vals:
        shape = {name: vals[name] for name in ("s", "vol_m", "vol_n") if name in vals}
        flow = FlowConfig(m=n // 2, sign=sign, **shape)
    tuning = {name: vals[name] for name in _SETTINGS_OPTS if name in vals}
    settings = IntegratorSettings(t_max=own[command.horizon], **tuning)
    events = EventSpec(**{name: vals[name] for name in _EVENT_OPTS})
    return _Run(n, sign, flow, settings, events)


def _in_flag_names(message: str, command: _Command) -> str:
    """A library message under the command's flag names.

    ``n``, the horizon (``t_max``), the bracket ends (``s_lo``, ``s_hi``) and
    the command's own arguments become flags; other words, such as the
    coupling ``s``, stay as the library wrote them.
    """
    library = {"t_max": command.horizon, "s_lo": "lo", "s_hi": "hi"}

    def rename(match: re.Match) -> str:
        name = library.get(match[0], match[0])
        return _flag(name) if name == "n" or name in command.params else match[0]

    return re.sub(r"\w+", rename, message)


def _config_echo(args: argparse.Namespace, command: _Command, run: _Run | None) -> dict:
    echo: dict = {}
    parameters = _own_args(args, command)
    if run is not None:
        if run.flow is not None:
            echo["flow"] = {
                "n": run.flow.n,
                "m": run.flow.m,
                "curvature": run.flow.sign.value,
                "s": run.flow.s,
                "vol_m": run.flow.vol_m,
                "vol_n": run.flow.vol_n,
            }
        else:
            parameters = {"n": run.n, "curvature": run.sign.value, **parameters}
        echo["settings"] = asdict(run.settings)
        echo["events"] = asdict(run.events)
    echo["parameters"] = parameters
    return echo


def _classification(cls) -> tuple[dict, dict]:
    """Result and diagnostics blocks of one classification.

    The diagnostics are the residuals and the termination; the result is
    the other fields, in field order.
    """
    result = asdict(cls)
    diagnostics = {
        key: result.pop(key)
        for key in (
            "max_constraint_residual", "max_first_integral_residual", "termination"
        )
    }
    return result, diagnostics


def _write_out(path: str, text: str) -> None:
    """Write one --out file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out: {exc}") from None


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return repr(value)


# Command bodies return (result, diagnostics).  They reach the
# library through module globals, looked up at call time, so a wrapper
# installed on this module sees every call.


def _first_integral_cell(f, state):
    """The first-integral residual of a sample; None past the overflow floor."""
    try:
        _, _, xpp, ypp = f(state.t, (state.x, state.y, state.xp, state.yp))
    except BlowUpOverflow:
        return None
    return first_integral_residual(state.xp, state.yp, xpp, ypp)


def _cmd_simulate(args, run):
    traj = integrate(run.flow, run.settings, run.events)
    f = derivatives(run.flow)
    lines = [CSV_HEADER]
    for state, obs in zip(traj.samples, traj.observables):
        cells = (
            state.t, state.x, state.y, state.xp, state.yp,
            obs.tau, obs.sigma_sq, obs.scalar_curv, obs.ham_residual,
            _first_integral_cell(f, state), obs.h_red,
        )
        lines.append(",".join(map(_csv_cell, cells)))
    result = {
        "termination": asdict(traj.termination),
        "n_samples": len(traj.samples),
        "max_constraint_residual": traj.max_ham_residual,
        "max_first_integral_residual": traj.max_first_integral_residual,
    }
    csv_text = "\n".join(lines) + "\n"
    if args.out:
        _write_out(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    return result, None


def _cmd_classify(args, run):
    cls = classify(run.flow, args.horizon, run.settings, run.events)
    return _classification(cls)


def _cmd_bisect(args, run):
    res = bisect_critical(
        run.n, run.sign, args.lo, args.hi, args.tol, args.horizon,
        run.settings, run.events,
    )
    result = asdict(res)
    lo, hi = result.pop("bracket")
    result = {"bracket_lo": lo, "bracket_hi": hi, **result}
    return result, {"bracket_width": hi - lo}


def _cmd_sweep(args, run):
    rows = sweep(
        run.n,
        run.sign,
        coupling_grid(args.s_min, args.s_max, args.steps),
        args.horizon,
        with_limits=args.limits,
        settings=run.settings,
        events=run.events,
    )
    result_rows = []
    diag_rows = []
    for row in rows:
        result, diagnostics = None, None
        if row.classification is not None:
            result, diagnostics = _classification(row.classification)
        result_rows.append(
            {
                "s": row.s,
                "classification": result,
                "limit": None if row.limit is None else asdict(row.limit),
                "error": row.error,
            }
        )
        diag_rows.append({"s": row.s, "diagnostics": diagnostics})
    return {"rows": result_rows}, {"rows": diag_rows}


def _cmd_hamiltonian(args, run):
    audit = hamiltonian_audit(run.flow, args.horizon, run.settings, run.events)
    result = {
        "branch": audit.branch,
        "verdict": audit.verdict,
        "delta_total": audit.delta_total,
        "series": [[t, h] for t, h in audit.series],
    }
    return result, {"n_samples": len(audit.series)}


def _cmd_background(args, run):
    # The gauge comes from a(t), not from tau, which rounds to -n or n.
    model = BackgroundModel(n=args.n, sign=CurvatureSign(args.curvature))
    a = scale_factor(model, args.t)
    scale_sq = a * a
    result = {
        "t": args.t,
        "scale_factor": a,
        "tau": mean_curvature(model, args.t),
        "lapse": scale_sq / args.n,
        "scale_sq": scale_sq,
    }
    return result, {}


# Help texts of the command-level arguments that have one.
_HELP = {
    "out": "CSV path; manifest goes to <out>.manifest.json",
    "limits": "skip limit extraction on complete rows",
}

_COMMANDS = {
    "simulate": _Command(
        "integrate one trajectory to CSV", _cmd_simulate, _RUN_OPTS,
        {"t_max": float, "out": str}, horizon="t_max",
    ),
    "classify": _Command(
        "recollapse vs completeness verdict", _cmd_classify, _CLASSIFY_OPTS,
        {"horizon": float},
    ),
    "bisect": _Command(
        "bisect the critical coupling", _cmd_bisect, _BISECT_OPTS,
        {"lo": float, "hi": float, "tol": float, "horizon": float},
        preconditions=(BracketError, PreconditionError),
    ),
    "sweep": _Command(
        "classification table over a coupling grid", _cmd_sweep, _FAMILY_OPTS,
        {"s_min": float, "s_max": float, "steps": int, "horizon": float,
         "limits": bool},
    ),
    "hamiltonian": _Command(
        "reduced-Hamiltonian audit", _cmd_hamiltonian, _RUN_OPTS,
        {"horizon": float}, preconditions=(GaugeRangeError,),
    ),
    "background": _Command(
        "closed-form background quantities", _cmd_background, {},
        {"n": int, "curvature": str, "t": float},
        preconditions=(GaugeDomainError,),
    ),
}


def _add_flag(parser: argparse.ArgumentParser, name: str, typ) -> None:
    if typ is bool:
        parser.add_argument(
            "--no-" + name.replace("_", "-"), dest=name, action="store_false",
            help=_HELP[name],
        )
    else:
        parser.add_argument(
            _flag(name), type=typ, choices=_CHOICES.get(name),
            help=_HELP.get(name),
        )


def build_parser() -> argparse.ArgumentParser:
    """A new parser tree; :func:`main` builds one per process and reuses it."""
    parser = argparse.ArgumentParser(
        prog="cmcflow",
        description=(
            "Simulate warped-product vacuum cosmologies with positive "
            "cosmological constant, classify recollapse versus expansion, "
            "and monitor their conserved quantities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option, (typ, _) in command.options.items():
            _add_flag(p, option, typ)
        if command.options:
            p.add_argument("--config", help="JSON file mirroring the flags")
        for param, typ in command.params.items():
            _add_flag(p, param, typ)
    return parser


# main's one parser, built at its first call.  Reusing it is safe: argparse
# keeps no state between parses, no default is mutable, and usage, errors and
# help go to sys.stdout and sys.stderr as they are when printed.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    command = _COMMANDS[args.command]
    start = time.perf_counter()
    try:
        run = _resolve(args, command)
        result, diagnostics = command.body(args, run)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except command.preconditions as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, _in_flag_names(str(exc), command))
    manifest = {
        "command": args.command,
        "config": _config_echo(args, command, run),
        "tool_version": __version__,
        "wall_time_ms": int(round((time.perf_counter() - start) * 1000.0)),
    }
    if args.command != "simulate":
        doc = {"result": result, "diagnostics": diagnostics, "manifest": manifest}
        sys.stdout.write(_dumps17(doc) + "\n")
        return EXIT_OK
    # simulate has written its CSV; the manifest carries the run's result
    # block and goes next to the CSV file.
    manifest["result"] = result
    if args.out:
        try:
            _write_out(args.out + ".manifest.json", _dumps17(manifest) + "\n")
        except UsageError as exc:
            return _fail(EXIT_USAGE, str(exc))
    if result["termination"]["kind"] == STEP_SIZE_COLLAPSE:
        return EXIT_INTEGRATOR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
