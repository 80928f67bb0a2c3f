"""CLI contract tests: CSV format, JSON schema, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal, localcontext

import pytest

import cmcflow
from cmcflow import cli
from cmcflow.background import CurvatureSign
from cmcflow.cli import CSV_HEADER, _csv_cell, _dumps17, main
from cmcflow.integrate import IntegratorSettings, integrate
from cmcflow.products import OVERFLOW_FLOOR, FlowConfig, FlowState, observables

SIM_ARGS = [
    "simulate", "--n", "4", "--s", "1", "--curvature", "negative",
    "--t-max", "5",
]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSerializer:
    def test_seventeen_significant_digits(self):
        text = _dumps17({"x": 0.1})
        assert '"x": 0.10000000000000001' in text
        assert float("0.10000000000000001") == 0.1

    def test_roundtrip_and_strict_json(self):
        doc = {"a": [1.5, 2, None, True], "b": {"c": "x", "d": -1e-300}}
        parsed = json.loads(_dumps17(doc))
        assert parsed["a"] == [1.5, 2, None, True]
        assert parsed["b"]["d"] == -1e-300

    def test_non_finite_becomes_null(self):
        assert json.loads(_dumps17({"x": math.inf}))["x"] is None

    def test_gauge_boundary_cell_is_empty_string(self):
        # a state sitting exactly on tau^2 = n^2 has no reduced-Hamiltonian
        # branch; the CSV cell for it must be the empty string
        config = FlowConfig(m=2, sign=CurvatureSign.POSITIVE, s=1.0)
        boundary = observables(
            config, FlowState(t=0.0, x=0.0, y=0.0, xp=1.0, yp=1.0)
        )
        assert boundary.h_red is None
        assert _csv_cell(boundary.h_red) == ""
        assert _csv_cell(1.5) == "1.5"


class TestSimulate:
    def test_csv_header_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc, _, _ = run(capsys, SIM_ARGS + ["--out", str(out)])
        assert rc == 0
        lines = out.read_text().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[-1] == ""  # trailing LF
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["tool_version"] == "0.1.0"
        assert isinstance(manifest["wall_time_ms"], int)
        # defaults are echoed even when not passed on the command line
        assert manifest["config"]["settings"]["rel_tol"] == 1e-10
        assert manifest["config"]["events"]["y_floor"] == -20.0
        assert manifest["result"]["termination"]["kind"] == "ReachedHorizon"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(capsys, SIM_ARGS + ["--out", str(a)])[0] == 0
        assert run(capsys, SIM_ARGS + ["--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_h_red_column_constant_for_background(self, tmp_path, capsys):
        out = tmp_path / "bg.csv"
        run(capsys, SIM_ARGS + ["--out", str(out)])
        rows = out.read_text().strip().split("\n")[1:]
        hs = [float(r.split(",")[-1]) for r in rows]
        assert all(abs(h - 16.0) / 16.0 <= 1e-6 for h in hs)

    def test_x_column_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "ds.csv"
        rc, _, _ = run(capsys, [
            "simulate", "--n", "4", "--s", "1", "--curvature", "positive",
            "--t-max", "5", "--out", str(out),
        ])
        assert rc == 0
        for row in out.read_text().strip().split("\n")[1:]:
            cells = row.split(",")
            t, x = float(cells[0]), float(cells[1])
            assert abs(x - math.log(math.cosh(t))) <= 1e-8

    def test_blowup_is_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "blow.csv"
        rc, _, _ = run(capsys, [
            "simulate", "--n", "4", "--s", "3", "--curvature", "positive",
            "--t-max", "50", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "blow.csv.manifest.json").read_text())
        assert manifest["result"]["termination"]["kind"] == "BlowUpEvent"

    def test_step_collapse_is_exit_three(self, tmp_path, capsys):
        rc, _, _ = run(capsys, [
            "simulate", "--n", "4", "--s", "3", "--curvature", "positive",
            "--t-max", "50", "--out", str(tmp_path / "c.csv"),
            "--rel-tol", "1e-13", "--abs-tol", "1e-14",
            "--min-step", "0.2", "--max-step", "0.5",
        ])
        assert rc == 3

    @pytest.mark.parametrize("out, blocked", [
        ("run.csv", "run.csv"),
        ("run.csv", "run.csv.manifest.json"),
        ("missing/run.csv", None),
    ])
    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, out, blocked):
        # A directory where the CSV or its manifest goes, or a missing
        # parent directory: one error line and exit 2, no traceback.
        if blocked is not None:
            (tmp_path / blocked).mkdir()
        path = tmp_path / out
        rc, stdout, err = run(capsys, SIM_ARGS + ["--out", str(path)])
        assert (rc, stdout) == (2, "")
        assert re.fullmatch(r"error: cannot write --out: \[Errno \d+\] .+\n", err)
        assert str(tmp_path / (blocked or out)) in err

    def test_sample_past_the_overflow_floor_has_empty_first_integral(
        self, monkeypatch, tmp_path, capsys
    ):
        # The right-hand side raises past OVERFLOW_FLOOR, so the residual of
        # such a sample has no value; its cell is empty, like an out-of-range
        # h_red, and the run still succeeds.
        config = FlowConfig(m=2, sign=CurvatureSign.NEGATIVE, s=1.0)
        traj = integrate(config, IntegratorSettings(t_max=0.3))
        past = FlowState(t=0.35, x=0.0, y=OVERFLOW_FLOOR - 1.0, xp=0.1, yp=0.1)
        traj = replace(traj, samples=traj.samples + (past,))
        monkeypatch.setattr(cli, "integrate", lambda *args: traj)
        out = tmp_path / "past.csv"
        rc, _, _ = run(capsys, SIM_ARGS + ["--out", str(out)])
        assert rc == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        column = CSV_HEADER.split(",").index("first_integral_residual")
        assert len(rows) == len(traj.samples)
        assert all(row[column] != "" for row in rows[:-1])
        assert rows[-1][column] == ""
        assert rows[-1][column + 1] != ""  # h_red still has its value

    def test_stdout_when_no_out_path(self, capsys):
        rc, out, _ = run(capsys, SIM_ARGS)
        assert rc == 0
        assert out.startswith(CSV_HEADER + "\n")

    def test_manifest_flags_roundtrip(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        run(capsys, SIM_ARGS + ["--out", str(first)])
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
        flow = manifest["config"]["flow"]
        settings = manifest["config"]["settings"]
        events = manifest["config"]["events"]
        second = tmp_path / "second.csv"
        argv = [
            "simulate",
            "--n", str(flow["n"]), "--s", repr(flow["s"]),
            "--curvature", flow["curvature"],
            "--vol-m", repr(flow["vol_m"]), "--vol-n", repr(flow["vol_n"]),
            "--rel-tol", repr(settings["rel_tol"]),
            "--abs-tol", repr(settings["abs_tol"]),
            "--max-step", repr(settings["max_step"]),
            "--min-step", repr(settings["min_step"]),
            "--output-dt", repr(settings["output_dt"]),
            "--y-floor", repr(events["y_floor"]),
            "--velocity-floor", repr(events["velocity_floor"]),
            "--t-max", repr(settings["t_max"]),
            "--out", str(second),
        ]
        assert run(capsys, argv)[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestJsonCommands:
    def test_classify_schema(self, capsys):
        rc, out, _ = run(capsys, [
            "classify", "--n", "4", "--s", "2", "--curvature", "positive",
            "--horizon", "50",
        ])
        assert rc == 0
        doc = json.loads(out)
        assert set(doc) == {"result", "diagnostics", "manifest"}
        assert doc["result"]["verdict"] == "Recollapse"
        assert doc["result"]["t_blowup"] == pytest.approx(1.40560102, abs=1e-6)
        assert set(doc["result"]) == {
            "verdict", "t_blowup", "horizon", "low_confidence"
        }
        assert set(doc["diagnostics"]) == {
            "max_constraint_residual",
            "max_first_integral_residual",
            "termination",
        }

    def test_bisect_bracket(self, capsys):
        rc, out, _ = run(capsys, [
            "bisect", "--n", "4", "--curvature", "positive",
            "--lo", "1.4", "--hi", "1.6", "--tol", "1e-3", "--horizon", "30",
        ])
        assert rc == 0
        doc = json.loads(out)
        lo = doc["result"]["bracket_lo"]
        hi = doc["result"]["bracket_hi"]
        assert lo - 1e-2 <= 1.5 <= hi + 1e-2
        assert doc["result"]["iterations"] > 0

    def test_sweep_negative_all_complete(self, capsys):
        rc, out, _ = run(capsys, [
            "sweep", "--n", "4", "--curvature", "negative",
            "--s-min", "0.6", "--s-max", "3", "--steps", "5",
            "--horizon", "50", "--no-limits",
        ])
        assert rc == 0
        doc = json.loads(out)
        rows = doc["result"]["rows"]
        assert len(rows) == 5
        assert all(
            r["classification"]["verdict"] == "CompleteWithinHorizon"
            for r in rows
        )

    def test_hamiltonian_constant_background(self, capsys):
        rc, out, _ = run(capsys, [
            "hamiltonian", "--n", "4", "--s", "1", "--curvature", "negative",
            "--horizon", "8",
        ])
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["verdict"] == "Constant"
        assert doc["result"]["branch"] == "H-"
        for _, h in doc["result"]["series"]:
            assert abs(h - 16.0) / 16.0 <= 1e-6

    def test_background_example(self, capsys):
        rc, out, _ = run(capsys, [
            "background", "--n", "3", "--curvature", "negative",
            "--t", "0.8813735870",
        ])
        assert rc == 0
        doc = json.loads(out)
        assert doc["result"]["tau"] == pytest.approx(
            -3.0 * math.sqrt(2.0), abs=1e-9
        )
        assert doc["result"]["lapse"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def background_ref(sign, t):
    """(lapse, scale_sq) at n = 3 to 60 digits, with sinh and cosh from exp."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(t)
        grow, decay = x.exp(), (-x).exp()
        a = (grow - decay if sign == "negative" else grow + decay) / 2
        return a * a / 3, a * a


class TestBackgroundGauge:
    @pytest.mark.parametrize("sign", ["negative", "positive"])
    def test_gauge_matches_a_sixty_digit_reference(self, capsys, sign):
        # The gauge comes from a(t); from tau, which rounds towards -n,
        # the lapse was off by 6e-9 at t = 10, and past t = 19 (negative)
        # or 25 (positive) tau^2 = n^2 and no lapse could be formed.
        for t in (0.1, 1.0, 3.0, 10.0, 15.0, 17.0, 18.0, 19.0, 25.0, 100.0,
                  300.0):
            rc, out, _ = run(capsys, [
                "background", "--n", "3", "--curvature", sign, "--t", repr(t)])
            assert rc == 0, t
            result = json.loads(out)["result"]
            for key, ref in zip(("lapse", "scale_sq"), background_ref(sign, t)):
                rel = abs(Decimal(result[key]) - ref) / ref
                assert rel <= Decimal("1e-15"), (t, key, result[key])

    def test_lapse_and_scale_sq_past_the_double_range(self, capsys):
        # a(400) ~ 2.6e173 is a double; its square is not, and non-finite
        # floats print as null.
        rc, out, _ = run(capsys, [
            "background", "--n", "3", "--curvature", "negative", "--t", "400"])
        assert rc == 0
        result = json.loads(out)["result"]
        assert result["tau"] == -3
        assert math.isfinite(result["scale_factor"])
        assert result["lapse"] is None and result["scale_sq"] is None


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--n", "3", "--s", "2", "--curvature", "positive",
             "--horizon", "50"],
            ["classify", "--n", "4", "--s", "0.4", "--curvature", "positive",
             "--horizon", "50"],
            ["classify", "--n", "4", "--s", "1", "--curvature", "positive",
             "--horizon", "-3"],
            ["simulate", "--n", "4", "--s", "1", "--curvature", "positive"],
            ["simulate", "--n", "4", "--s", "1", "--curvature", "sideways",
             "--t-max", "5"],
            ["bisect", "--n", "4", "--curvature", "positive", "--lo", "1.6",
             "--hi", "1.4", "--tol", "1e-3", "--horizon", "30"],
            ["unknown-command"],
            ["bisect", "--n", "4", "--curvature", "positive", "--lo", "0.4",
             "--hi", "0.9", "--tol", "1e-3", "--horizon", "30"],
            # The run collapses at t = 0: no sample for a verdict.
            ["hamiltonian", "--n", "4", "--s", "1.3", "--curvature",
             "negative", "--horizon", "8", "--min-step", "0.02"],
        ],
    )
    def test_invalid_flags_exit_two(self, capsys, argv):
        assert run(capsys, argv)[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bisect", "--n", "4", "--curvature", "negative", "--lo", "1.4",
             "--hi", "1.6", "--tol", "1e-3", "--horizon", "30"],
            ["bisect", "--n", "4", "--curvature", "positive", "--lo", "2.0",
             "--hi", "3.0", "--tol", "1e-3", "--horizon", "30"],
            ["hamiltonian", "--n", "4", "--s", "3", "--curvature", "positive",
             "--horizon", "50"],
            # h_red passes the double range near t = 88.6: no verdict
            ["hamiltonian", "--n", "8", "--s", "1.3", "--curvature",
             "negative", "--horizon", "100"],
            ["background", "--n", "3", "--curvature", "negative", "--t", "-1"],
            # cosh(t) past the double range
            ["background", "--n", "3", "--curvature", "positive", "--t", "711"],
            ["background", "--n", "3", "--curvature", "negative", "--t", "1e6"],
            # The library checks the curvature before the bracket.
            ["bisect", "--n", "4", "--curvature", "negative", "--lo", "1.6",
             "--hi", "1.4", "--tol", "1e-3", "--horizon", "30"],
        ],
    )
    def test_precondition_violations_exit_four(self, capsys, argv):
        rc, _, err = run(capsys, argv)
        assert rc == 4
        assert err.startswith("error:") and err.count("\n") == 1

    def test_gauge_exit_names_the_grid_time(self, capsys):
        # The run leaves the H+ branch at the grid time 19.4, computed as
        # 194 * 0.1 = 19.400000000000002.
        rc, out, err = run(capsys, [
            "hamiltonian", "--n", "4", "--s", "1.4", "--curvature",
            "positive", "--horizon", "30"])
        assert (rc, out) == (4, "")
        assert err == ("error: sample at t=19.4 left the H+ gauge range "
                       "(tau=-4.0, n=4)\n")


def sweep_argv(s_min, s_max, steps):
    return ["sweep", "--n", "4", "--curvature", "positive", "--s-min", s_min,
            "--s-max", s_max, "--steps", steps, "--horizon", "10",
            "--no-limits"]


class TestUsageMessages:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (sweep_argv("0.8", "2", "0"), "need --steps >= 1, --s-min <= --s-max"),
            (sweep_argv("2", "1", "3"), "need --steps >= 1, --s-min <= --s-max"),
            (["background", "--n", "1", "--curvature", "negative", "--t", "1"],
             "--n must be >= 2, got 1"),
            # A bracket end at or below 1/2 gets the message of --s.
            (["classify", "--n", "4", "--s", "0.4", "--curvature", "positive",
              "--horizon", "30"], "coupling must satisfy s > 1/2, got s=0.4"),
            (["bisect", "--n", "4", "--curvature", "positive", "--lo", "0.4",
              "--hi", "0.9", "--tol", "1e-3", "--horizon", "30"],
             "coupling must satisfy s > 1/2, got s=0.4"),
            (sweep_argv("1", "inf", "3"), "--s-max must be finite, got inf"),
            (sweep_argv("nan", "2", "3"), "--s-min must be finite, got nan"),
            # The library's s_lo, s_hi and n, under the command's flags.
            (["bisect", "--n", "4", "--curvature", "positive", "--lo", "1.6",
              "--hi", "1.4", "--tol", "1e-3", "--horizon", "30"],
             "need --lo < --hi, got [1.6, 1.4]"),
            (["classify", "--n", "3", "--s", "1", "--curvature", "positive",
              "--horizon", "30"], "--n must be an even integer >= 2, got 3"),
            (["hamiltonian", "--n", "4", "--s", "1.3", "--curvature",
              "negative", "--horizon", "8", "--min-step", "0.02"],
             "the run ended at t=0 (StepSizeCollapse) before any sample "
             "past t = 0"),
            # Not a Recollapse: y stays exactly 0 at s = 1.5, and inf * 0
            # would make its error scale nan.
            (["classify", "--n", "4", "--s", "1.5", "--curvature", "positive",
              "--horizon", "5", "--rel-tol", "inf"],
             "tolerances must be positive and finite"),
            # An n that converts to no double, in every command.
            *(([*argv, "--n", str(10**400)],
               "--n must be at most 1.7976931348623157e+308, the largest double")
              for argv in (
                ["classify", "--s", "1", "--curvature", "positive",
                 "--horizon", "5"],
                ["simulate", "--s", "1", "--curvature", "positive",
                 "--t-max", "5"],
                ["hamiltonian", "--s", "1", "--curvature", "positive",
                 "--horizon", "5"],
                ["bisect", "--curvature", "positive", "--lo", "1.4", "--hi",
                 "1.6", "--tol", "1e-3", "--horizon", "5"],
                ["sweep", "--curvature", "positive", "--s-min", "1",
                 "--s-max", "2", "--steps", "2", "--horizon", "5",
                 "--no-limits"],
                ["background", "--curvature", "positive", "--t", "1"],
            )),
        ],
    )
    def test_exit_two_with_message(self, capsys, argv, message):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["classify", "--s", "1", "--curvature", "positive", "--horizon", "5"],
        ["simulate", "--s", "1", "--curvature", "positive", "--t-max", "5"],
        ["hamiltonian", "--s", "1", "--curvature", "positive", "--horizon", "5"],
        ["bisect", "--curvature", "positive", "--lo", "1.4", "--hi", "1.6",
         "--tol", "1e-3", "--horizon", "5"],
        ["sweep", "--curvature", "positive", "--s-min", "1", "--s-max", "2",
         "--steps", "2", "--horizon", "5", "--no-limits"],
    ], ids=lambda argv: argv[0])
    def test_flow_n_past_2_53_exits_two(self, capsys, argv):
        # 2**53 + 2 is a double, but n - 1 = 2**53 + 1 is not: the curvature
        # coefficient would round into n and cancel.
        rc, out, err = run(capsys, [*argv, "--n", str(2**53 + 2)])
        assert rc == 2
        assert err == ("error: --n must be at most 2**53 = 9007199254740992, "
                       "past which doubles skip integers\n")
        assert out == ""

    def test_background_keeps_the_largest_double_rule(self, capsys):
        # The closed forms need no exact n - 1.
        rc, out, _ = run(capsys, ["background", "--n", str(2**53 + 2),
                                  "--curvature", "positive", "--t", "1"])
        assert rc == 0
        assert json.loads(out)["result"]["lapse"] == math.cosh(1.0) ** 2 / (2**53 + 2)

    def test_one_step_sweep_is_one_row_at_s_min(self, capsys):
        rc, out, _ = run(capsys, sweep_argv("0.8", "2", "1"))
        assert rc == 0
        assert [row["s"] for row in json.loads(out)["result"]["rows"]] == [0.8]


def run_child(argv):
    # A child process under a timeout: an accepted infinite horizon steps
    # forever on a complete trajectory.
    src = os.path.dirname(os.path.dirname(cmcflow.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "cmcflow.cli", *argv],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=15,
    )


class TestNonFiniteHorizon:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--n", "4", "--s", "1", "--curvature", "positive",
             "--horizon", "inf"],
            ["simulate", "--n", "4", "--s", "1", "--curvature", "positive",
             "--t-max", "inf"],
        ],
    )
    def test_exits_two_promptly(self, argv):
        proc = run_child(argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""


class TestBisectEnds:
    # In a child process under a timeout: a bisection with an infinite end
    # would never close its bracket.  The tol rule is bisect_critical's,
    # reported under the command's flag names.
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bisect", "--n", "4", "--curvature", "positive", "--lo", "1.4",
              "--hi", "inf", "--tol", "1e-3", "--horizon", "30"],
             "--hi must be finite, got inf"),
            (["bisect", "--n", "4", "--curvature", "positive", "--lo", "1.4",
              "--hi", "1.6", "--tol", "1e-20", "--horizon", "30"],
             "--tol must be at least 2.220446049250313e-16, the spacing of "
             "doubles at --hi"),
            (["bisect", "--n", "4", "--curvature", "positive", "--lo", "1.4",
              "--hi", "1.6", "--tol", "0", "--horizon", "30"],
             "--tol must be at least 2.220446049250313e-16, the spacing of "
             "doubles at --hi"),
        ],
    )
    def test_exits_two_promptly(self, argv, message):
        proc = run_child(argv)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {message}\n"
        assert proc.stdout == ""

    def test_curvature_is_checked_before_tol(self, capsys):
        # bisect_critical checks the curvature first, then the ends, the
        # bracket order and the tol.
        rc, out, err = run(capsys, [
            "bisect", "--n", "4", "--curvature", "negative", "--lo", "1.4",
            "--hi", "1.6", "--tol", "1e-20", "--horizon", "30"])
        assert (rc, out) == (4, "")
        assert err == ("error: the negative-curvature family has no "
                       "completeness threshold\n")

    def test_tol_at_the_spacing_is_met(self, capsys):
        rc, out, _ = run(capsys, [
            "bisect", "--n", "4", "--curvature", "positive", "--lo", "1.4",
            "--hi", "1.6", "--tol", repr(math.ulp(1.6)), "--horizon", "10"])
        assert rc == 0
        result = json.loads(out)["result"]
        assert result["bracket_hi"] == math.nextafter(result["bracket_lo"], 2.0)


class TestHorizonMessage:
    # The horizon has one rule, the library's, reported under each command's
    # own flag.
    def test_one_message_for_every_bad_horizon(self):
        procs = [
            run_child(["classify", "--n", "4", "--s", "1", "--curvature",
                       "positive", "--horizon", value])
            for value in ("-3", "nan", "inf")
        ]
        assert [proc.returncode for proc in procs] == [2, 2, 2]
        assert procs[0].stderr == "error: --horizon must be positive and finite\n"
        assert all(proc.stderr == procs[0].stderr for proc in procs)

    def test_simulate_names_its_own_flag(self):
        proc = run_child(["simulate", "--n", "4", "--s", "1", "--curvature",
                          "positive", "--t-max", "-1"])
        assert proc.returncode == 2
        assert proc.stderr == "error: --t-max must be positive and finite\n"


class TestMissingFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bisect", "--n", "4", "--curvature", "positive", "--lo", "1.4",
              "--hi", "1.6", "--horizon", "30"], "--tol is required"),
            (["classify", "--n", "4", "--curvature", "positive",
              "--horizon", "5"], "--s is required"),
            (["simulate", "--n", "4", "--s", "1", "--curvature", "positive"],
             "--t-max is required"),
            (["bisect", "--n", "4", "--curvature", "positive", "--tol", "1e-3",
              "--horizon", "30"], "--lo and --hi are required"),
            (["classify", "--curvature", "positive", "--horizon", "5"],
             "--n and --s are required"),
            # Options and own arguments are named together, in table order.
            (["bisect", "--curvature", "positive", "--hi", "1.6", "--tol",
              "1e-3", "--horizon", "30"], "--n and --lo are required"),
        ],
    )
    def test_names_only_the_missing_flags(self, capsys, argv, message):
        rc, out, err = run(capsys, argv)
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""


class TestConfigFile:
    def test_config_supplies_values_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 4, "s": 2.0, "curvature": "positive",
        }))
        rc, out, _ = run(capsys, [
            "classify", "--horizon", "50", "--config", str(cfg),
        ])
        assert rc == 0
        assert json.loads(out)["result"]["verdict"] == "Recollapse"

        rc, out, _ = run(capsys, [
            "classify", "--horizon", "50", "--config", str(cfg), "--s", "1.0",
        ])
        assert rc == 0
        assert json.loads(out)["result"]["verdict"] == "CompleteWithinHorizon"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "s": 1.0, "curvature": "positive",
                                   "mystery": 7}))
        rc, _, err = run(capsys, [
            "classify", "--horizon", "10", "--config", str(cfg),
        ])
        assert rc == 2
        assert "mystery" in err

    @pytest.mark.parametrize(
        "contents, message",
        [
            ([4, 1.0], "--config must hold a JSON object"),
            ({"rel_tol": "abc"}, "bad value for 'rel_tol' in --config"),
        ],
    )
    def test_bad_config_contents(self, tmp_path, capsys, contents, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(contents))
        rc, out, err = run(capsys, [
            "classify", "--n", "4", "--s", "1", "--curvature", "positive",
            "--horizon", "10", "--config", str(cfg),
        ])
        assert rc == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, _ = run(capsys, [
            "classify", "--horizon", "10",
            "--config", str(tmp_path / "nope.json"),
        ])
        assert rc == 2


class TestParserReuse:
    # Two commands, an argparse error, help and a CSV on stdout, in one
    # process.
    SEQUENCE = [
        ["classify", "--n", "4", "--s", "1.3", "--curvature", "positive",
         "--horizon", "5"],
        ["background", "--n", "3", "--curvature", "negative", "--t", "1"],
        ["classify", "--n", "4", "--s", "1", "--curvature", "sideways",
         "--horizon", "5"],
        ["--help"],
        ["simulate", "--n", "4", "--s", "1", "--curvature", "negative",
         "--t-max", "2"],
        ["classify", "--n", "4", "--s", "1.3", "--curvature", "positive",
         "--horizon", "5"],
    ]

    def transcript(self, capsys):
        runs = []
        for argv in self.SEQUENCE:
            rc, out, err = run(capsys, list(argv))
            runs.append((rc, re.sub(r'"wall_time_ms": \d+', "", out), err))
        return runs

    def test_reused_parser_prints_what_a_fresh_one_prints(
        self, capsys, monkeypatch
    ):
        cli._parser.cache_clear()
        reused = self.transcript(capsys)
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, len(self.SEQUENCE) - 1)

        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self.transcript(capsys)
        assert reused == fresh
        assert [rc for rc, _, _ in reused] == [0, 0, 2, 0, 0, 0]
        assert "invalid choice: 'sideways'" in reused[2][2]
        assert reused[3][1].startswith("usage: cmcflow")

    def test_build_parser_returns_a_new_tree(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(cmcflow.__file__))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from cmcflow import cli; print(cli._parser.cache_info().currsize)"],
            env=dict(os.environ, PYTHONPATH=src), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=15,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0\n"
