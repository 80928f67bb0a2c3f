"""CLI option sets: which flags each command takes, --config merging and
the manifest sections each command echoes."""

import json
from dataclasses import asdict

import pytest

from cmcflow.background import CurvatureSign
from cmcflow.cli import build_parser, main
from cmcflow.experiments import coupling_grid, sweep

BISECT = ["bisect", "--lo", "1.4", "--hi", "1.6", "--tol", "1e-3",
          "--horizon", "30"]
SWEEP = ["sweep", "--s-min", "0.6", "--s-max", "2", "--steps", "3",
         "--horizon", "20", "--no-limits"]

SETTINGS_FLAGS = {"--rel-tol", "--abs-tol", "--max-step", "--min-step",
                  "--output-dt", "--y-floor", "--velocity-floor", "--config"}
RUN_FLAGS = {"--n", "--s", "--curvature", "--vol-m", "--vol-n"} | SETTINGS_FLAGS
FAMILY_FLAGS = {"--n", "--curvature"} | SETTINGS_FLAGS
CLASSIFY = ["classify", "--n", "4", "--s", "1", "--curvature", "positive",
            "--horizon", "5"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, values):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(values))
    return str(path)


def command_flags(name):
    sub = next(
        action for action in build_parser()._actions
        if action.dest == "command"
    )
    parser = sub.choices[name]
    return {
        flag for action in parser._actions for flag in action.option_strings
    } - {"-h", "--help"}


@pytest.mark.parametrize(
    "name, expected",
    [
        ("simulate", RUN_FLAGS | {"--t-max", "--out"}),
        ("classify", RUN_FLAGS - {"--vol-m", "--vol-n"} | {"--horizon"}),
        ("hamiltonian", RUN_FLAGS | {"--horizon"}),
        ("bisect", FAMILY_FLAGS - {"--output-dt"}
         | {"--lo", "--hi", "--tol", "--horizon"}),
        ("sweep", FAMILY_FLAGS | {"--s-min", "--s-max", "--steps", "--horizon",
                                  "--no-limits"}),
        ("background", {"--n", "--curvature", "--t"}),
    ],
)
def test_flag_set_per_command(name, expected):
    assert command_flags(name) == expected


class TestConfigForBisectAndSweep:
    def test_bisect_config_supplies_values_flags_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "n": 4, "curvature": "positive", "rel_tol": 1e-9,
        })
        rc, out, _ = run(capsys, BISECT + ["--config", cfg])
        assert rc == 0
        config = json.loads(out)["manifest"]["config"]
        assert config["parameters"]["n"] == 4
        assert config["parameters"]["curvature"] == "positive"
        assert config["settings"]["rel_tol"] == 1e-9

        rc, out, _ = run(capsys, BISECT + ["--config", cfg, "--rel-tol", "1e-10"])
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["settings"]["rel_tol"] == 1e-10

        # the negative family has no threshold, so the override is visible
        # in the exit code
        rc, _, err = run(capsys, BISECT + ["--config", cfg,
                                           "--curvature", "negative"])
        assert rc == 4
        assert err.startswith("error:")

    def test_sweep_config_supplies_values_flags_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "n": 4, "curvature": "negative", "max_step": 0.05,
        })
        rc, out, _ = run(capsys, SWEEP + ["--config", cfg])
        assert rc == 0
        doc = json.loads(out)
        assert doc["manifest"]["config"]["settings"]["max_step"] == 0.05
        verdicts = [r["classification"]["verdict"] for r in doc["result"]["rows"]]
        assert verdicts == ["CompleteWithinHorizon"] * 3

        rc, out, _ = run(capsys, SWEEP + ["--config", cfg,
                                          "--curvature", "positive"])
        assert rc == 0
        verdicts = [r["classification"]["verdict"]
                    for r in json.loads(out)["result"]["rows"]]
        # s = 0.6 and s = 2 lie outside the positive completeness interval
        assert verdicts == ["Recollapse", "CompleteWithinHorizon", "Recollapse"]


class TestRemovedVolumeFlags:
    @pytest.mark.parametrize("argv", [BISECT, SWEEP])
    @pytest.mark.parametrize("flag", ["--vol-m", "--vol-n"])
    def test_flag_rejected(self, capsys, argv, flag):
        rc, _, err = run(capsys, argv + ["--n", "4", "--curvature", "positive",
                                         flag, "2"])
        assert rc == 2
        assert flag in err

    @pytest.mark.parametrize("argv", [BISECT, SWEEP])
    @pytest.mark.parametrize("key", ["vol_m", "vol_n"])
    def test_config_key_rejected(self, tmp_path, capsys, argv, key):
        cfg = write_config(tmp_path, {"n": 4, "curvature": "positive", key: 2.0})
        rc, _, err = run(capsys, argv + ["--config", cfg])
        assert rc == 2
        assert err.startswith("error:")
        assert key in err


class TestFlagsThatCannotChangeTheResult:
    # classify does not report h_red, the only reader of the base volumes,
    # and no bisection probe reads the samples that output_dt places.
    BISECT_FLOW = BISECT + ["--n", "4", "--curvature", "positive"]

    @pytest.mark.parametrize("argv, flag", [
        (CLASSIFY, "--vol-m"), (CLASSIFY, "--vol-n"),
        (BISECT_FLOW, "--output-dt"),
    ])
    def test_flag_rejected(self, capsys, argv, flag):
        rc, out, err = run(capsys, argv + [flag, "0.05"])
        assert (rc, out) == (2, "")
        assert f"unrecognized arguments: {flag} 0.05" in err

    @pytest.mark.parametrize("argv, key", [
        (CLASSIFY, "vol_m"), (CLASSIFY, "vol_n"), (BISECT_FLOW, "output_dt"),
    ])
    def test_config_key_rejected(self, tmp_path, capsys, argv, key):
        cfg = write_config(tmp_path, {key: 0.05})
        rc, out, err = run(capsys, argv + ["--config", cfg])
        assert (rc, out) == (2, "")
        assert err == f"error: unknown keys in --config: [{key!r}]\n"

    @pytest.mark.parametrize("argv, section, key, default", [
        (CLASSIFY, "flow", "vol_m", 1.0), (CLASSIFY, "flow", "vol_n", 1.0),
        (BISECT_FLOW, "settings", "output_dt", 0.1),
    ])
    def test_manifest_echoes_the_default(self, capsys, argv, section, key,
                                         default):
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert json.loads(out)["manifest"]["config"][section][key] == default


class TestStepCapDefaults:
    # classify, bisect and sweep report no h_red series and default to the
    # library's wider cap; the other commands keep the dataclass default.
    BISECT_FLOW = BISECT + ["--n", "4", "--curvature", "positive"]
    SWEEP_FLOW = SWEEP + ["--n", "4", "--curvature", "negative"]
    HAMILTONIAN = ["hamiltonian", "--n", "4", "--s", "1", "--curvature",
                   "negative", "--horizon", "3"]

    @pytest.mark.parametrize("argv, cap", [
        (CLASSIFY, 0.3), (SWEEP_FLOW, 0.3), (HAMILTONIAN, 0.03),
        (BISECT_FLOW, 0.3),
    ])
    def test_manifest_echoes_the_default_cap(self, capsys, argv, cap):
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["settings"]["max_step"] == cap

    def test_simulate_keeps_the_fine_cap(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        rc, _, _ = run(capsys, ["simulate", "--n", "4", "--s", "1",
                                "--curvature", "negative", "--t-max", "2",
                                "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["config"]["settings"]["max_step"] == 0.03

    @pytest.mark.parametrize("argv", [CLASSIFY, SWEEP_FLOW])
    def test_flag_and_config_override_the_default(self, tmp_path, capsys, argv):
        rc, out, _ = run(capsys, argv + ["--max-step", "0.03"])
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["settings"]["max_step"] == 0.03

        cfg = write_config(tmp_path, {"max_step": 0.03})
        rc, out, _ = run(capsys, argv + ["--config", cfg])
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["settings"]["max_step"] == 0.03

        rc, out, _ = run(capsys, argv + ["--config", cfg, "--max-step", "0.05"])
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["settings"]["max_step"] == 0.05

    def test_sweep_rows_are_the_library_default_rows(self, capsys):
        rc, out, _ = run(capsys, ["sweep", "--n", "4", "--curvature", "negative",
                                  "--s-min", "0.6", "--s-max", "2", "--steps",
                                  "3", "--horizon", "20"])
        assert rc == 0
        rows = sweep(4, CurvatureSign.NEGATIVE, coupling_grid(0.6, 2.0, 3), 20.0)
        cli_rows = json.loads(out)["result"]["rows"]
        assert [row["limit"] for row in cli_rows] == [
            asdict(row.limit) for row in rows]


class TestConfigValues:
    @pytest.mark.parametrize("argv", [
        ["classify", "--horizon", "10", "--s", "1"], BISECT, SWEEP,
    ])
    def test_bad_curvature_is_usage_error(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, {"n": 4, "curvature": "sideways"})
        rc, _, err = run(capsys, argv + ["--config", cfg])
        assert rc == 2
        assert err.startswith("error:")
        assert "sideways" in err
        assert err == "error: bad value for 'curvature' in --config: 'sideways'\n"

    # A float option of each group: flow, settings, events.
    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("key", ["s", "rel_tol", "max_step", "y_floor"])
    def test_float_option_rejects_bool(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"n": 4, "s": 1.0, "curvature": "positive",
                                      key: value})
        rc, out, err = run(capsys, ["classify", "--horizon", "5", "--config", cfg])
        assert rc == 2
        assert err == f"error: bad value for {key!r} in --config\n"
        assert out == ""

    # A string is no number, whatever it spells; nor is an integer beyond
    # the float range.
    @pytest.mark.parametrize("key, value", [
        ("n", "4"), ("s", "1.3"), ("rel_tol", " 1e-9 "), ("y_floor", "-20"),
        pytest.param("s", 10**400, id="s-int-beyond-float"),
    ])
    def test_numeric_option_rejects_non_number(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"n": 4, "s": 1.0, "curvature": "positive",
                                      key: value})
        rc, out, err = run(capsys, ["classify", "--horizon", "5", "--config", cfg])
        assert rc == 2
        assert err == f"error: bad value for {key!r} in --config\n"
        assert out == ""

    @pytest.mark.parametrize("value", [4.7, True])
    @pytest.mark.parametrize("argv", [
        ["classify", "--horizon", "10", "--s", "1"], BISECT, SWEEP,
    ])
    def test_integer_option_rejects_fraction_and_bool(
        self, tmp_path, capsys, argv, value
    ):
        cfg = write_config(tmp_path, {"n": value, "curvature": "positive"})
        rc, _, err = run(capsys, argv + ["--config", cfg])
        assert rc == 2
        assert err.startswith("error:")
        assert "'n'" in err

    def test_integral_float_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 4.0, "s": 1.0,
                                      "curvature": "positive"})
        rc, out, _ = run(capsys, ["classify", "--horizon", "5", "--config", cfg])
        assert rc == 0
        assert json.loads(out)["manifest"]["config"]["flow"]["n"] == 4


FLOW_ARGS = ["--n", "4", "--s", "1", "--curvature", "negative"]


@pytest.mark.parametrize(
    "argv, sections",
    [
        (["classify", *FLOW_ARGS, "--horizon", "5"],
         ["flow", "settings", "events", "parameters"]),
        (["hamiltonian", *FLOW_ARGS, "--horizon", "3"],
         ["flow", "settings", "events", "parameters"]),
        (BISECT + ["--n", "4", "--curvature", "positive"],
         ["settings", "events", "parameters"]),
        (SWEEP + ["--n", "4", "--curvature", "negative"],
         ["settings", "events", "parameters"]),
        (["background", "--n", "3", "--curvature", "negative", "--t", "1"],
         ["parameters"]),
    ],
)
def test_manifest_config_sections(capsys, argv, sections):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert list(json.loads(out)["manifest"]["config"]) == sections


def test_simulate_manifest_config_sections(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc, _, _ = run(capsys, ["simulate", *FLOW_ARGS, "--t-max", "2",
                            "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert list(manifest["config"]) == ["flow", "settings", "events",
                                        "parameters"]


class TestRemovedThreadsKnob:
    ARGV = SWEEP + ["--n", "4", "--curvature", "positive"]

    @staticmethod
    def without_wall_time(out):
        doc = json.loads(out)
        del doc["manifest"]["wall_time_ms"]
        return doc

    def test_sweep_parameters_do_not_echo_threads(self, capsys):
        rc, out, _ = run(capsys, self.ARGV)
        assert rc == 0
        parameters = json.loads(out)["manifest"]["config"]["parameters"]
        assert list(parameters) == ["n", "curvature", "s_min", "s_max",
                                    "steps", "horizon", "limits"]

    def test_environment_variable_ignored(self, capsys, monkeypatch):
        rc, plain, _ = run(capsys, self.ARGV)
        assert rc == 0
        monkeypatch.setenv("EFL_THREADS", "zero")
        rc, with_env, _ = run(capsys, self.ARGV)
        assert rc == 0
        assert self.without_wall_time(with_env) == self.without_wall_time(plain)


SWEEP_LIMITS = ["sweep", "--s-min", "0.8", "--s-max", "1.2", "--steps", "2",
                "--horizon", "10", "--n", "4", "--curvature", "negative"]


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (["classify", *FLOW_ARGS, "--horizon", "5"], [("horizon", 5.0)]),
        (["hamiltonian", *FLOW_ARGS, "--horizon", "3"], [("horizon", 3.0)]),
        (BISECT + ["--n", "4", "--curvature", "positive"],
         [("n", 4), ("curvature", "positive"), ("lo", 1.4), ("hi", 1.6),
          ("tol", 1e-3), ("horizon", 30.0)]),
        (SWEEP + ["--n", "4", "--curvature", "negative"],
         [("n", 4), ("curvature", "negative"), ("s_min", 0.6), ("s_max", 2.0),
          ("steps", 3), ("horizon", 20.0), ("limits", False)]),
        (SWEEP_LIMITS,
         [("n", 4), ("curvature", "negative"), ("s_min", 0.8), ("s_max", 1.2),
          ("steps", 2), ("horizon", 10.0), ("limits", True)]),
        (["background", "--n", "3", "--curvature", "negative", "--t", "1"],
         [("n", 3), ("curvature", "negative"), ("t", 1.0)]),
    ],
)
def test_manifest_parameters(capsys, argv, parameters):
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    echo = json.loads(out)["manifest"]["config"]["parameters"]
    assert list(echo.items()) == parameters


def test_simulate_manifest_parameters(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc, _, _ = run(capsys, ["simulate", *FLOW_ARGS, "--t-max", "2",
                            "--out", str(out)])
    assert rc == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert list(manifest["config"]["parameters"].items()) == [("t_max", 2.0)]
