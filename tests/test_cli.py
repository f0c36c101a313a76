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


def _train(out_dir, **fields):
    cfg = {
        "kind": "train",
        "seed": 0,
        "output_dir": str(out_dir),
        "model": {"layer_sizes": [20, 8, 4]},
        "dataset": {"classes": 4, "per_class": 10},
        "epochs": 1,
        "batch_size": 16,
        "optimizers": [{"name": "adam", "kind": "adam"}],
    }
    cfg.update(fields)
    return cfg


def _grid(out_dir, **fields):
    cfg = {
        "kind": "grid-flatness",
        "seed": 0,
        "output_dir": str(out_dir),
        "landscape": "landscape-B",
        "region": [[-2.0, 3.0], [-2.0, 3.0]],
        "grid": [2, 2],
        "total_steps": 3,
        "optimizers": [{"name": "adam", "kind": "adam"}],
    }
    cfg.update(fields)
    return cfg


@pytest.mark.parametrize(
    "build,field,value,path",
    [
        (_trajectory, "total_steps", "abc", "config.total_steps"),
        (_trajectory, "total_steps", True, "config.total_steps"),
        (_trajectory, "total_steps", 20.7, "config.total_steps"),
        (_trajectory, "total_steps", -1, "config.total_steps"),
        (_trajectory, "start", [1.0], "config.start"),
        (_trajectory, "start", [1.0, 2.0, 3.0], "config.start"),
        (_trajectory, "start", 1.0, "config.start"),
        (_trajectory, "start", [1.0, "x"], "config.start[1]"),
        (_trajectory, "start", [1.0, float("nan")], "config.start[1]"),
        (_trajectory, "landscape", {"wells": []}, "config.landscape.wells"),
        (_trajectory, "landscape", {"wells": [{"center": [0.0], "depth": 1.0, "width": 0.5}]},
         "config.landscape.wells[0].center"),
        (_trajectory, "landscape", {"wells": [{"center": [0.0, 0.0], "depth": "1", "width": 0.5}]},
         "config.landscape.wells[0].depth"),
        (_trajectory, "schedule", {"kind": "cosine_annealing", "total": "9"},
         "config.schedule.total"),
        (_trajectory, "schedule", {"kind": "milestones", "milestones": [1.5]},
         "config.schedule.milestones[0]"),
        (_trajectory, "schedule", {"kind": "milestones", "gamma": None}, "config.schedule.gamma"),
        (_grid, "region", [[-2.0, 3.0]], "config.region"),
        (_grid, "region", [[-2.0, 3.0], [-2.0]], "config.region[1]"),
        (_grid, "grid", [3], "config.grid"),
        (_grid, "grid", [3, 0], "config.grid[1]"),
        (_grid, "grid", [3, 2.5], "config.grid[1]"),
        (_train, "model", {"layer_sizes": [20]}, "config.model.layer_sizes"),
        (_train, "model", {"layer_sizes": [20, 0, 4]}, "config.model.layer_sizes[1]"),
        (_train, "model", {"layer_sizes": "20,4"}, "config.model.layer_sizes"),
        (_train, "dataset", {"spread": float("nan")}, "config.dataset.spread"),
        (_train, "dataset", {"spread": 0.0}, "config.dataset.spread"),
        (_train, "dataset", {"per_class": "10"}, "config.dataset.per_class"),
        (_train, "epochs", 0, "config.epochs"),
        (_train, "batch_size", True, "config.batch_size"),
    ],
)
def test_invalid_field_exit_2_names_its_path(tmp_path, capsys, build, field, value, path):
    out_dir = tmp_path / "out"
    cfg = build(out_dir)
    cfg[field] = value
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"error: {path}:" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "kind,block,field,value",
    [
        ("regret", "problem", "dim", "4"),
        ("regret", None, "horizon", 0),
        ("regret", None, "lr_decay_h", float("inf")),
        ("hessian-report", "hessian", "probes", 2.5),
        ("escape-theory", "scenario", "h_a_eigs", [1.0, "2"]),
    ],
)
def test_invalid_field_of_other_kinds_exit_2(tmp_path, capsys, kind, block, field, value):
    base = {
        "regret": {"horizon": 10, "optimizers": [{"name": "adam", "kind": "adam"}]},
        "hessian-report": dict(_train(tmp_path), kind="hessian-report"),
        "escape-theory": {"scenario": {
            "alpha": 0.01, "beta1": 0.9, "batch_size_b": 32, "delta_L": 0.5,
            "h_a_eigs": [1.0, 2.0], "h_u_eigs": [-0.5, 1.0], "escape_index": 0, "rho": 1.0,
        }},
    }[kind]
    cfg = dict(base, kind=kind, seed=0, output_dir=str(tmp_path / "out"))
    if block is None:
        cfg[field] = value
    else:
        cfg[block] = dict(cfg.get(block, {}), **{field: value})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    prefix = "config." + (f"{block}." if block else "") + field
    assert f"error: {prefix}" in capsys.readouterr().err


def test_runtime_failure_removes_the_directories_it_created(tmp_path, capsys):
    out_dir = tmp_path / "new" / "deeper"
    cfg = _trajectory(out_dir, kind="miadam", switch_epochs=2)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert "switch_epochs" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_runtime_failure_keeps_an_existing_output_dir_and_its_files(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("mine")
    cfg = _trajectory(out_dir, kind="miadam", switch_epochs=2)
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["keep.txt"]
