"""Command-line harness: subcommands, config handling, exit codes, artifacts."""

import dataclasses
import json

import numpy as np
import pytest

from bdie import cli
from bdie import geometry as geo
from bdie import reports


@pytest.fixture(autouse=True)
def isolated_output(monkeypatch):
    # Keep the environment override from leaking into --out based tests.
    monkeypatch.delenv(reports.ENV_OUTPUT_DIR, raising=False)


def run(argv):
    return cli.main(argv)


# --- configuration ---------------------------------------------------------------


def test_load_config_defaults():
    config = cli.load_config()
    assert config.case == "point-source"
    assert config.coefficient == "gaussian"
    assert config.levels == (1, 2, 3)


def test_load_config_flag_overrides_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"level": 1, "case": "zero"}))
    config = cli.load_config(str(path), {"case": "u1", "level": None})
    assert config.case == "u1"
    assert config.level == 1


@pytest.mark.filterwarnings("error")
def test_load_config_closes_its_file(tmp_path):
    # A file left for the garbage collector to close warns ResourceWarning.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"level": 1}))
    assert cli.load_config(str(path)).level == 1


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"wibble": 3}))
    with pytest.raises(cli.ConfigError, match="wibble"):
        cli.load_config(str(path))


@pytest.mark.parametrize("overrides,fragment", [
    ({"case": "bogus"}, "unknown case"),
    ({"coefficient": "bogus"}, "unknown coefficient"),
    ({"partition": "bogus"}, "unknown partition"),
    ({"level": 9}, "level"),
    ({"levels": (2, 1)}, "increasing"),
    ({"truncation_radius": 0.5}, "truncation"),
    ({"workers": 0}, "workers"),
    ({"method": "magic"}, "method"),
    ({"probe_points": ((1.0, 2.0),)}, "probe"),
    ({"probe_points": ((0.0, 0.0, 0.5),)}, "shell"),
    ({"probe_points": ((0.0, 0.0, 9.0),)}, "shell"),
    ({"n_radial": 0}, "n_radial"),
    ({"angular_level": -1}, "angular_level"),
    ({"output_dir": 7}, "output_dir must be a string"),
    ({"truncation_radius": float("inf")}, "truncation"),
])
def test_validation_rejects_bad_settings(overrides, fragment):
    with pytest.raises(cli.ConfigError, match=fragment):
        cli.load_config(None, overrides)


def test_config_echo_omits_execution_knobs():
    body = cli.load_config().to_dict()
    assert "workers" not in body
    assert "output_dir" not in body
    assert body["case"] == "point-source"


# --- exit codes ------------------------------------------------------------------


def test_unknown_case_exits_config_error(tmp_path, capsys):
    code = run(["solve", "--case", "bogus", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "unknown case" in capsys.readouterr().err


def test_unknown_partition_exit_names_rule(tmp_path, capsys):
    code = run(["mesh", "--level", "1", "--partition", "banana",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "banana" in capsys.readouterr().err


def test_unreadable_config_file_exits_config_error(tmp_path, capsys):
    code = run(["mesh", "--config", str(tmp_path / "missing.json")])
    assert code == cli.EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-coeff", "solve"])
@pytest.mark.parametrize("params", [{"bogus": 1}, {"beta": -1}])
def test_coefficient_params_the_catalog_rejects_exit_config_error(tmp_path, capsys,
                                                                  command, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"coefficient_params": params}))
    code = run([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "coefficient_params" in capsys.readouterr().err


@pytest.mark.parametrize("command,values", [
    ("check-coeff", {"levels": 3}),
    ("check-coeff", {"levels": [1, 2.5]}),
    ("check-coeff", {"probe_points": 5}),
    ("check-coeff", {"probe_points": [[2.0, 0.0, "x"]]}),
    ("check-coeff", {"probe_points": [[2.0, 0.0, 0.0], [2.0, 0.0]]}),
    ("check-coeff", {"truncation_radius": "x"}),
    ("check-coeff", {"truncation_radius": True}),
    ("check-coeff", {"workers": "2"}),
    ("check-coeff", {"case": ["zero"]}),
    ("mesh", {"level": 2.0}),
    ("mesh", {"n_radial": 2.5}),
    ("mesh", {"angular_level": 1.5}),
    ("mesh", {"angular_level": False}),
])
def test_config_values_of_the_wrong_type_exit_config_error(tmp_path, capsys, command,
                                                          values):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(values))
    code = run([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert f"{next(iter(values))} must be" in capsys.readouterr().err


def test_every_config_key_has_a_kind():
    assert set(cli._KINDS) == {f.name for f in dataclasses.fields(cli.RunConfig)}


def test_dense_cap_exits_resource_code(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n_radial": 10, "angular_level": 3}))
    code = run(["solve", "--config", str(path), "--case", "zero",
                "--level", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


# --- mesh ------------------------------------------------------------------------


def test_mesh_writes_off_and_summary(tmp_path, capsys):
    code = run(["mesh", "--level", "2", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert "surface: 320 triangles" in capsys.readouterr().out

    mesh = geo.read_off(tmp_path / "surface_level2.off")
    assert mesh.n_triangles == 320

    body = reports.read_json_report(tmp_path / "mesh_level2.json")
    assert body["schema_version"] == reports.SCHEMA_VERSION
    assert body["surface"]["n_dirichlet"] + body["surface"]["n_neumann"] == 320
    assert body["surface"]["area_rel_error"] < 0.02
    assert body["volume"]["volume_rel_error"] < 1e-12


# --- check-coeff -----------------------------------------------------------------


def test_check_coeff_gaussian_passes(tmp_path):
    code = run(["check-coeff", "--coefficient", "gaussian",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "coeff_gaussian.json")
    assert body["report"]["passes_cond1"] is True


def test_check_coeff_inclusion_passes(tmp_path):
    code = run(["check-coeff", "--coefficient", "inclusion",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "coeff_inclusion.json")
    assert all(body["report"][k] for k in ("passes_cond0", "passes_cond1",
                                           "passes_cond3", "passes_decay"))


def test_check_coeff_sinusoidal_flagged(tmp_path):
    code = run(["check-coeff", "--coefficient", "sinusoidal",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_GATE
    body = reports.read_json_report(tmp_path / "coeff_sinusoidal.json")
    flags = [body["report"][k] for k in ("passes_cond0", "passes_cond1",
                                         "passes_cond3", "passes_decay")]
    assert not all(flags)


# --- operators -------------------------------------------------------------------


def test_operators_cross_checks_pass(tmp_path):
    code = run(["operators", "--level", "1", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "operators_level1.json")
    assert body["all_pass"] is True
    for check in body["checks"].values():
        assert check["diff"] <= check["gate"]


# --- green-check -----------------------------------------------------------------


def test_green_check_zero_case_all_residuals_vanish(tmp_path):
    code = run(["green-check", "--case", "zero", "--level", "1",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "green_zero_level1.json")
    assert body["checks"]["third_green"]["max_abs"] == 0.0
    assert body["checks"]["trace_identity"]["max_abs"] == 0.0
    csv_text = (tmp_path / "green_zero_level1.csv").read_text()
    assert csv_text.splitlines()[0] == "check,scale,max_abs,rel_to_scale,gate"


def test_green_check_constant_case_measures_against_term_at_infinity(tmp_path):
    # the residuals of u == 1 are u_inf = 1 before it is subtracted
    code = run(["green-check", "--case", "u1", "--level", "1",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "green_u1_level1.json")
    assert body["checks"]["third_green"]["rel_to_scale"] <= 0.05
    assert body["checks"]["trace_identity"]["rel_to_scale"] <= 0.05


def test_green_check_refuses_probes_that_are_all_excluded(tmp_path, capsys):
    # A probe inside the shell but within one panel diameter of the sphere
    # is excluded from the third identity; with no probe left, the check
    # is a configuration error, not a pass at rel 0.
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"probe_points": [[0.0, 0.0, 1.01]]}))
    code = run(["green-check", "--level", "1", "--config", str(path),
                "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "excluded" in capsys.readouterr().err
    assert not (tmp_path / "green_point-source_level1.json").exists()


# --- solve -----------------------------------------------------------------------


def test_solve_zero_case_writes_zero_solution(tmp_path):
    code = run(["solve", "--case", "zero", "--level", "1",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "solve_zero_level1.json")
    assert body["solution"]["residual_norm"] == 0.0
    assert all(row["value"] == 0.0 for row in body["probes"])
    csv_lines = (tmp_path / "solve_zero_level1_probes.csv").read_text().splitlines()
    assert csv_lines[0] == "x,y,z,value,exact,abs_error"
    assert len(csv_lines) == 1 + len(body["probes"])


def test_solve_constant_case_reports_undefined_conormal_as_null(tmp_path):
    # u == 1 has zero conormal, so its relative conormal error is undefined
    code = run(["solve", "--case", "u1", "--level", "1",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "solve_u1_level1.json")
    equivalence = body["equivalence"]
    assert equivalence["conormal_scale"] == 0.0
    assert equivalence["conormal_residual"] > 0.0
    assert equivalence["conormal_rel"] is None
    assert equivalence["trace_rel"] == (equivalence["trace_residual"]
                                        / equivalence["trace_scale"])
    assert body["solution"]["residual_norm"] <= cli.SOLVE_RESIDUAL_GATE


def test_solve_constant_case_restores_term_at_infinity(tmp_path):
    # without u_inf = 1 on the right the probes read 0.24-0.41 at level 2
    code = run(["solve", "--case", "u1", "--level", "2",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    body = reports.read_json_report(tmp_path / "solve_u1_level2.json")
    assert all(abs(row["value"] - 1.0) <= 0.02 for row in body["probes"])
    assert body["equivalence"]["trace_rel"] <= 0.02


def test_converge_constant_case_restores_term_at_infinity(tmp_path):
    code = run(["converge", "--case", "u1", "--levels", "1", "2",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    table = reports.ConvergenceTable.from_csv(tmp_path / "converge_u1.csv")
    probe = table.column("probe_max_rel_error")
    trace = table.column("trace_error")
    assert probe[1] < probe[0] and probe[1] <= 0.02
    assert trace[1] < trace[0] and trace[1] <= 0.02


def test_solve_iterative_meets_residual_gate(tmp_path, capsys):
    code = run(["solve", "--case", "point-source", "--level", "1",
                "--method", "iterative", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    assert "cond n/a" in capsys.readouterr().out
    body = reports.read_json_report(tmp_path / "solve_point-source_level1.json")
    assert body["solution"]["method"] == "iterative"
    assert body["solution"]["conditioning"] is None
    assert body["solution"]["residual_norm"] <= cli.SOLVE_RESIDUAL_GATE


def test_solve_outputs_byte_identical_across_runs_and_workers(tmp_path):
    for name, workers in [("a", "1"), ("b", "1"), ("c", "4")]:
        code = run(["solve", "--case", "zero", "--level", "1",
                    "--workers", workers, "--out", str(tmp_path / name)])
        assert code == cli.EXIT_OK
    ref_json = (tmp_path / "a" / "solve_zero_level1.json").read_bytes()
    ref_csv = (tmp_path / "a" / "solve_zero_level1_probes.csv").read_bytes()
    for name in ("b", "c"):
        assert (tmp_path / name / "solve_zero_level1.json").read_bytes() == ref_json
        assert (tmp_path / name / "solve_zero_level1_probes.csv").read_bytes() == ref_csv


def test_environment_variable_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv(reports.ENV_OUTPUT_DIR, str(env_dir))
    code = run(["solve", "--case", "zero", "--level", "1",
                "--out", str(tmp_path / "ignored")])
    assert code == cli.EXIT_OK
    assert (env_dir / "solve_zero_level1.json").exists()
    assert not (tmp_path / "ignored").exists()


# --- converge --------------------------------------------------------------------


def test_converge_two_levels_table(tmp_path):
    code = run(["converge", "--case", "point-source", "--levels", "1", "2",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    table = reports.ConvergenceTable.from_csv(tmp_path / "converge_point-source.csv")
    assert table.column("level") == [1, 2]
    assert table.column("n_cells") == [80, 480]
    interior = table.column("interior_error")
    assert interior[1] < interior[0]
    assert all(t > 0.0 for t in table.column("runtime_seconds"))
    assert all(r <= cli.SOLVE_RESIDUAL_GATE for r in table.column("solve_residual"))
