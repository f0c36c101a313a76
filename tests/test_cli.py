"""CLI behavior: exit codes, stdout shape, and file side effects."""

import json

import pytest

from flatmin import __version__
from flatmin.cli import main


def write_config(tmp_path, cfg):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_presets_text(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "landscape-A" in out and "blobs-4c" in out


def test_presets_json(capsys):
    assert main(["presets", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = {p["name"] for p in data}
    assert {"landscape-A", "landscape-B", "blobs-4c"} <= names
    assert all({"name", "kind", "description", "values"} <= set(p) for p in data)


def test_run_trajectory(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = {
        "kind": "trajectory",
        "seed": 0,
        "output_dir": str(out_dir),
        "landscape": "landscape-A",
        "start": [1.0, 1.0],
        "total_steps": 20,
        "optimizers": [{"name": "adam", "kind": "adam", "alpha": 0.05}],
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 0
    assert "report.json" in capsys.readouterr().out
    assert (out_dir / "report.json").exists()
    assert (out_dir / "trajectory_adam.csv").exists()


def test_output_dir_override(tmp_path):
    cfg = {
        "kind": "trajectory",
        "seed": 0,
        "output_dir": str(tmp_path / "ignored"),
        "landscape": "landscape-A",
        "start": [1.0, 1.0],
        "total_steps": 5,
        "optimizers": [{"name": "sgd", "kind": "sgd", "alpha": 0.01}],
    }
    path = write_config(tmp_path, cfg)
    override = tmp_path / "actual"
    assert main(["run", str(path), "--output-dir", str(override)]) == 0
    assert (override / "report.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_invalid_config_exit_2_no_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = {"kind": "trajectory", "seed": 0, "output_dir": str(out_dir)}
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 2
    assert "missing required" in capsys.readouterr().err
    assert not out_dir.exists()


def test_runtime_failure_exit_1(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = {
        "kind": "trajectory",
        "seed": 0,
        "output_dir": str(out_dir),
        "landscape": "landscape-A",
        "start": [1.0, 1.0],
        "total_steps": 5,
        # switch_epochs is only meaningful for training runs; caught at run time
        "optimizers": [{"name": "mi", "kind": "miadam", "switch_epochs": 2}],
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 1
    assert "switch_epochs" in capsys.readouterr().err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _trajectory(out_dir, **optimizer):
    return {
        "kind": "trajectory",
        "seed": 0,
        "output_dir": str(out_dir),
        "landscape": "landscape-A",
        "start": [1.0, 1.0],
        "total_steps": 5,
        "optimizers": [dict({"name": "adam", "kind": "adam"}, **optimizer)],
    }


@pytest.mark.parametrize("name", ["../escaped", "a/b", ".hidden", "", 3, None])
def test_unsafe_optimizer_name_exit_2(tmp_path, capsys, name):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, _trajectory(out_dir, name=name))
    assert main(["run", str(path)]) == 2
    assert "config.optimizers[0].name" in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("seed", ["abc", 1.5, True, None])
def test_bad_seed_exit_2(tmp_path, capsys, seed):
    cfg = _trajectory(tmp_path / "out")
    cfg["seed"] = seed
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert "config.seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "0.1", False])
def test_non_finite_optimizer_number_exit_2(tmp_path, capsys, value):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, _trajectory(out_dir, alpha=value))
    assert main(["run", str(path)]) == 2
    assert "config.optimizers[0].alpha" in capsys.readouterr().err
    assert not out_dir.exists()


def test_non_finite_miadam_field_names_its_path(tmp_path, capsys):
    path = write_config(tmp_path, _trajectory(tmp_path / "out", kind="miadam", kappa=float("nan")))
    assert main(["run", str(path)]) == 2
    assert "config.optimizers[0].kappa" in capsys.readouterr().err
