import argparse
import csv
import json

import pytest

from qdm.cli import (
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_UNKNOWN_SCENARIO,
    EXIT_UNWRITABLE,
    build_parser,
    main,
)
from qdm.scenarios import sweep_presets

EXPECTED_TRAJECTORY_HEADER = [
    "t_ns",
    "concurrence",
    "leak",
    "p_00",
    "p_S01",
    "p_A01",
    "p_11",
    "p_S0s",
    "p_S1s",
]


def test_run_writes_trajectory_and_manifest(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "--scenario", "fig3a", "--out", str(out)]) == EXIT_OK
    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == EXPECTED_TRAJECTORY_HEADER
    assert len(rows) == 202  # header + 201 grid points
    assert float(rows[1][0]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["steady_concurrence"] > 0.99
    assert manifest["output_files"] == ["trajectory.csv"]
    assert manifest["config"]["name"] == "fig3a"
    assert (out / "trajectory.csv").stat().st_size > 0


def test_unknown_scenario_exit_code(tmp_path, capsys):
    code = main(["run", "--scenario", "not-a-thing", "--out", str(tmp_path)])
    assert code == EXIT_UNKNOWN_SCENARIO
    assert "unknown scenario" in capsys.readouterr().err


def test_unknown_sweep_preset_exits_before_the_sweep(tmp_path, capsys):
    # argparse's choices reject it with exit code 2, before any command runs
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig3a", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unwritable_output_dir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = main(["run", "--scenario", "fig3a", "--out", str(blocker / "sub")])
    assert code == EXIT_UNWRITABLE


def test_config_file_roundtrip(tmp_path):
    cfg = {
        "name": "tiny",
        "model": "effective6",
        "drive": {"omega": 20.0, "omega_m": 9.0, "gamma0": 1.2, "gamma1": 1.2},
        "t_grid": [0.0, 10.0, 11],
        "epsilon_T0": 0.1,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["name"] == "tiny"


def test_config_schema_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": "effective6", "not_a_field": 1}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SCHEMA
    assert "not_a_field" in capsys.readouterr().err


def test_invalid_nested_block(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"drive": {"omega": -5.0}}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SCHEMA


def test_calc_zeeman_output(capsys):
    assert main(["calc", "zeeman", "--B", "1", "--ge", "-0.46", "--gh", "-0.29"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "E_B_e" in text and "E_B_h" in text and "|Delta_H|" in text


def test_calc_forster_and_wkb(capsys):
    assert main(["calc", "forster"]) == EXIT_OK
    assert "-0.2000 meV" in capsys.readouterr().out
    assert main(["calc", "wkb"]) == EXIT_OK
    assert "2.8689 meV" in capsys.readouterr().out


def test_calc_spectral_density(capsys):
    assert main(["calc", "spectral-density", "--omega", "30", "--parity", "plus"]) == EXIT_OK
    assert "J_plus" in capsys.readouterr().out


def test_sweep_fig3b(tmp_path):
    out = tmp_path / "s"
    assert main(["sweep", "--preset", "fig3b", "--out", str(out)]) == EXIT_OK
    with (out / "sweep.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "omega_ueV",
        "omega_m_ueV",
        "gamma_ueV",
        "concurrence_ss",
        "t0_ns",
        "leak",
        "error",
    ]
    assert len(rows) == 16  # header + 15 grid points
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["rows"] == 15


@pytest.mark.parametrize("preset", ["fig3b", "fig4b"])
def test_sweep_csv_numeric_cells_parse_as_floats(tmp_path, preset):
    out = tmp_path / preset
    assert main(["sweep", "--preset", preset, "--out", str(out)]) == EXIT_OK
    with (out / "sweep.csv").open() as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-1] == "error"
    for row in rows:
        for name, cell in zip(header[:-1], row[:-1]):
            try:
                float(cell)
            except ValueError:
                pytest.fail(f"{preset} {name} cell {cell!r} is not a number")


def test_sweep_preset_choices_are_the_catalog():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (preset,) = [a for a in commands.choices["sweep"]._actions if a.dest == "preset"]
    assert list(preset.choices) == list(sweep_presets())


@pytest.mark.parametrize("preset", list(sweep_presets()))
def test_sweep_writes_the_catalog_sweep(tmp_path, preset):
    out = tmp_path / preset
    assert main(["sweep", "--preset", preset, "--out", str(out)]) == EXIT_OK
    fn, config, grids = sweep_presets()[preset]
    result = fn(config, **grids)
    with (out / "sweep.csv").open() as fh:
        header, *rows = list(csv.reader(fh))
    assert header == list(result.columns)
    assert rows == [[repr(c) if isinstance(c, float) else c for c in row] for row in result.rows]
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    for name, table in result.summary.items():
        assert summary[name] == {"_".join(map(str, key)): value for key, value in table.items()}


def test_dropped_material_field_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "zeeman.json"
    path.write_text(json.dumps({"material": {"b_x": 2.0}}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SCHEMA
    assert "b_x" in capsys.readouterr().err


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("QDM_SEED", "1234")
    cfg = {"model": "effective6", "initial_state": "random", "t_grid": [0.0, 5.0, 3], "epsilon_T0": 0.1}
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1234


def test_non_integer_seed_env_var_is_a_schema_error_for_a_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QDM_SEED", "abc")
    code = main(["run", "--scenario", "fig3a", "--out", str(tmp_path / "o")])
    assert code == EXIT_SCHEMA
    assert "QDM_SEED" in capsys.readouterr().err


def test_non_integer_seed_env_var_is_a_schema_error_for_a_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QDM_SEED", "1.5")
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps({"model": "effective6", "t_grid": [0.0, 5.0, 3]}))
    code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_SCHEMA
    assert "QDM_SEED" in capsys.readouterr().err
