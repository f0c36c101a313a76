"""CLI behavior: exit codes, stdout shape, and file side effects."""

import contextlib
import copy
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import __version__, harness
from flatmin.cli import main
from flatmin.harness import normalize_config
from flatmin.landscapes import grid_starts
from flatmin.optim import MAX_ORDER_N
from flatmin.presets import DATASET_PRESETS, LANDSCAPE_PRESETS, get_landscape


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


def test_presets_json_values_match_the_tables(capsys):
    assert main(["presets", "--json"]) == 0
    data = {p["name"]: p for p in json.loads(capsys.readouterr().out)}
    landscapes = [p for p in data.values() if p["kind"] == "landscape"]
    assert {p["name"] for p in landscapes} == set(LANDSCAPE_PRESETS)
    for p in landscapes:
        assert p["values"]["wells"] == len(get_landscape(p["name"]).wells)
        assert p["description"]
    assert data["blobs-4c"]["values"] == DATASET_PRESETS["blobs-4c"]


def test_run_trajectory(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = {
        "kind": "trajectory",
        "seed": 0,
        "output_dir": str(out_dir),
        "landscape": "landscape-A",
        "start": [1.0, 1.0],
        "total_steps": 20,
        # the run evaluates the multiplier at steps 0 .. 19, so 19 is the shortest total
        "schedule": {"kind": "cosine_annealing", "total": 19},
        "optimizers": [{"name": "adam", "kind": "adam", "alpha": 0.05}],
    }
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 0
    assert "report.json" in capsys.readouterr().out
    assert (out_dir / "report.json").exists()
    assert (out_dir / "trajectory_adam.csv").exists()


def _readme_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    return json.loads(example)


def test_readme_example_runs(tmp_path, capsys):
    path = write_config(tmp_path, _readme_example())
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out_dir)]) == 0
    assert "report.json" in capsys.readouterr().out
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["report.json", "trajectory_adam.csv", "trajectory_miadam1.csv"]


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


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"kind": "trajectory", "seed": 1' + "0" * 5000 + "}",
], ids=["nested-too-deep", "int-too-long"])
def test_config_the_decoder_cannot_read_exit_2(tmp_path, capsys, text):
    # past the decoder's recursion limit, or past Python's 4,300-digit int limit
    p = tmp_path / "config.json"
    p.write_text(text)
    assert main(["run", str(p), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and err.count("\n") == 1
    assert sorted(q.name for q in tmp_path.iterdir()) == ["config.json"]


def test_config_path_is_a_directory_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {tmp_path}")


def test_config_file_not_utf8_exit_2(tmp_path, capsys):
    p = tmp_path / "config.json"
    p.write_bytes(b'{"kind": "\xff"}')
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {p}")
    assert sorted(q.name for q in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("fields,optimizer,error", [
    ('"seed": 0, "seed": 1', '"alpha": 0.1', "config: duplicate key 'seed'"),
    ('"seed": 0', '"alpha": 0.1, "alpha": 0.2', "config.optimizers[1]: duplicate key 'alpha'"),
], ids=["top-level", "nested"])
def test_duplicate_key_exit_2(tmp_path, capsys, fields, optimizer, error):
    # json.loads alone would keep the last of two equal keys and run
    out_dir = tmp_path / "out"
    p = tmp_path / "config.json"
    p.write_text(
        f'{{"kind": "regret", {fields}, "output_dir": "{out_dir}", "horizon": 10, '
        f'"optimizers": [{{"name": "a", "kind": "adam"}}, {{"name": "b", "kind": "adam", '
        f'{optimizer}}}]}}'
    )
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(q.name for q in tmp_path.iterdir()) == ["config.json"]


def test_invalid_config_exit_2_no_outputs(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = {"kind": "trajectory", "seed": 0, "output_dir": str(out_dir)}
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 2
    assert "missing required" in capsys.readouterr().err
    assert not out_dir.exists()


def _diverging(out_dir):
    # a valid config that fails at run time: at a constant rate of 3, SGD on
    # the quadratic stream doubles its distance to the target every step
    return {
        "kind": "regret",
        "seed": 0,
        "output_dir": str(out_dir),
        "horizon": 1100,
        "lr_decay_h": 0.0,
        "optimizers": [
            {"name": "adam", "kind": "adam"},
            {"name": "sgd", "kind": "sgd", "alpha": 3.0},
        ],
    }


def test_runtime_failure_exit_1(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, _diverging(out_dir))
    assert main(["run", str(path)]) == 1
    assert "regret run diverged" in capsys.readouterr().err
    assert not out_dir.exists() or list(out_dir.iterdir()) == []


def _deep_well_grid(out_dir, optimizer, width, steps):
    return {
        "kind": "grid-flatness",
        "seed": 0,
        "output_dir": str(out_dir),
        "landscape": {"wells": [{"center": [0.0, 0.0], "depth": 1e300, "width": width}]},
        "region": [[-3.0, 3.0], [-3.0, 3.0]],
        "grid": [5, 5],
        "total_steps": steps,
        "optimizers": [optimizer],
    }


@pytest.mark.parametrize("cfg,start,step", [
    # a width-0.5 well: starts 7, 11, 13 and 17 alone fail at step 1, the rest finish
    (_deep_well_grid("out", {"name": "sgd", "kind": "sgd", "alpha": 1e10}, 0.5, 20), 7, 1),
    # start 1 alone fails at step 2; start 2, later in row-major order, at step 1
    (_deep_well_grid("out", {"name": "sgdm", "kind": "sgdm", "alpha": 1e10}, 1.0, 30), 1, 2),
], ids=["sgd-first-step", "sgdm-order"])
def test_diverging_grid_exit_1_names_its_first_failing_start(tmp_path, capsys, cfg, start, step):
    # a grid fails with the error that a loop of per-start runs reports first
    lone = []
    for x, y in grid_starts(cfg["region"], cfg["grid"]).tolist():
        alone = dict(cfg, output_dir=str(tmp_path / "alone"), region=[[x, x], [y, y]], grid=[1, 1])
        code = main(["run", str(write_config(tmp_path, alone))])
        lone.append((code, capsys.readouterr().err))
    codes = [code for code, _ in lone]
    assert codes.index(1) == start
    assert lone[start][1].endswith(f"(at step {step})\n")
    cfg = dict(cfg, output_dir=str(tmp_path / "out"))
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == lone[start][1]
    assert not (tmp_path / "out").exists()


def _overflowing_hessian(out_dir, spread):
    # training finishes; at 1e154 the trace's standard error overflows, at 1e160 ||Hv|| does
    dataset = {"classes": 3, "per_class": 5, "n_features": 4, "noise_rate": 0.2, "spread": spread}
    return _train(out_dir, kind="hessian-report", dataset=dataset, epochs=2, batch_size=4,
                  model={"layer_sizes": [4, 5, 3], "activation": "relu"},
                  hessian={"max_iters": 3, "probes": 2})


@pytest.mark.parametrize("build", [
    lambda out: _grid(out, optimizers=[{"name": "adam", "kind": "adam", "alpha": 1e300}]),
    lambda out: _train(out, model={"layer_sizes": [20, 8, 4], "activation": "relu"},
                       optimizers=[{"name": "adam", "kind": "adam", "alpha": 1e300}]),
    lambda out: _overflowing_hessian(out, 1e154),
    lambda out: _overflowing_hessian(out, 1e160),
    # 3 * spread overflows as make_blobs places the class centres
    lambda out: _train(out, dataset={"classes": 4, "per_class": 10, "spread": 1e308}),
], ids=["adam-grid", "relu-train", "hessian-trace", "hessian-top", "spread"])
def test_diverging_run_prints_one_error_line_and_no_warning(tmp_path, build):
    # numpy's RuntimeWarnings go to stderr in a child, where no test filter applies
    path = write_config(tmp_path, build(tmp_path / "out"))
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-m", "flatmin.cli", "run", str(path)], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 1
    lines = child.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), child.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_regret_exit_1(tmp_path, capsys):
    # targets of 1e200 square to inf on the first step
    cfg = dict(_regret(tmp_path / "out"), problem={"target_low": -1e200, "target_high": 1e200})
    path = write_config(tmp_path, cfg)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cumulative regret overflowed (at step 1)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_an_error_with_no_message_prints_its_type(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg, output_dir=None):
        raise MemoryError()

    monkeypatch.setattr("flatmin.cli.run_config", out_of_memory)
    assert main(["run", str(write_config(tmp_path, _trajectory(tmp_path / "out")))]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_one_cell_grid_at_the_float_limit_starts_where_its_trajectory_does(tmp_path):
    # 1e308 + 1e308 overflows, but the axis's middle is 1e308
    grid = _grid(tmp_path / "grid", landscape="landscape-A", total_steps=5, grid=[1, 1],
                 region=[[1e308, 1e308], [0.0, 0.0]])
    trajectory = dict(_trajectory(tmp_path / "trajectory"), start=[1e308, 0.0])
    for cfg in (grid, trajectory):
        assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    header, row = (tmp_path / "grid" / "flatness.csv").read_text().splitlines()
    assert header == "row,col,theta1_0,theta2_0,adam"
    report = json.loads((tmp_path / "trajectory" / "report.json").read_text())
    flatness = report["results"]["adam"]["flatness"]
    assert row.split(",")[2:] == [repr(x) for x in (*trajectory["start"], flatness)]


def test_killed_run_leaves_no_file(tmp_path):
    # 40 Adam optimizers of distinct epsilon, so that each steps as a lane group
    # of its own: 40 x 20,000 steps, well over 10 s of work
    out_dir = tmp_path / "out" / "deep"
    cfg = {
        "kind": "regret",
        "seed": 0,
        "output_dir": str(out_dir),
        "horizon": 20000,
        "optimizers": [
            {"name": f"adam{i}", "kind": "adam", "epsilon": 1e-8 * (i + 1)} for i in range(40)
        ],
    }
    path = write_config(tmp_path, cfg)
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.Popen([sys.executable, "-m", "flatmin.cli", "run", str(path)], env=env)
    try:
        deadline = time.monotonic() + 30
        while not out_dir.exists() and child.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(1.0)  # the run is under way
        assert child.poll() is None, "the run ended before it could be killed"
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait()
    assert [p for p in (tmp_path / "out").rglob("*") if not p.is_dir()] == []


@pytest.mark.parametrize("root", [[], 3, None, "x"], ids=["list", "number", "null", "string"])
def test_a_config_that_is_not_an_object_exit_2(tmp_path, capsys, root):
    assert main(["run", str(write_config(tmp_path, root))]) == 2
    assert capsys.readouterr().err == "error: config: expected an object\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


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


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None, [True]])
def test_non_bool_eps_in_sqrt_exit_2(tmp_path, capsys, value):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, _trajectory(out_dir, kind="miadam", eps_in_sqrt=value))
    assert main(["run", str(path)]) == 2
    assert "error: config.optimizers[0].eps_in_sqrt: expected true or false" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "optimizer,message",
    [
        ({"kind": "sgd", "alpha": -0.1}, "alpha must be > 0"),
        ({"kind": "sgdm", "alpha": 0.0}, "alpha must be > 0"),
        ({"kind": "sgdm", "beta": 1.0}, "beta must lie in [0, 1)"),
        ({"kind": "adam", "beta1": 1.0}, "beta1 and beta2 must lie in [0, 1)"),
        ({"kind": "adam", "beta2": -0.5}, "beta1 and beta2 must lie in [0, 1)"),
        ({"kind": "adam", "beta2": 0.0}, "require beta1^2 / sqrt(beta2) < 1"),
        ({"kind": "adam", "epsilon": 0.0}, "epsilon must be > 0"),
        ({"kind": "adam", "weight_decay": -1e-4}, "weight_decay must be >= 0"),
        ({"kind": "miadam", "kappa": 0}, "kappa must lie in (0, 1]"),
        ({"kind": "miadam", "order_n": 0}, "order_n must be >= 1"),
        ({"kind": "miadam", "switch_step": 0}, "switch_step must be >= 1"),
        ({"kind": "miadam", "pre_switch_lr_override": -1.0}, "pre_switch_lr_override must be > 0"),
        ({"kind": "miadam", "order_n": MAX_ORDER_N + 1}, f"order_n must be <= {MAX_ORDER_N}"),
    ],
)
def test_out_of_range_optimizer_value_exit_2(tmp_path, capsys, optimizer, message):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, _trajectory(out_dir, **optimizer))
    assert main(["run", str(path)]) == 2
    assert f"error: config.optimizers[0]: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


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


def _blobs(out_dir):
    return _train(out_dir, dataset="blobs-4c")


def _no_steps(out_dir):
    return dict(_trajectory(out_dir), total_steps=0)


def _long_train(out_dir):
    # 32 training examples in batches of 16: 2 steps per epoch, 6 steps in all
    return _train(out_dir, epochs=3)


def _long_hessian(out_dir):
    return _train(out_dir, kind="hessian-report", epochs=3)


def _regret(out_dir):
    return {
        "kind": "regret",
        "seed": 0,
        "output_dir": str(out_dir),
        "horizon": 10,
        "optimizers": [{"name": "adam", "kind": "adam"}],
    }


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
        (_train, "model", {"layer_sizes": [20, 8, 4], "activation": "sigmoid"}, "config.model"),
        (_train, "model", {"layer_sizes": [20, 8, 1]}, "config.model"),
        (_train, "optimizers", [{"name": "mi", "kind": "miadam", "switch_epochs": 0}],
         "config.optimizers[0].switch_epochs"),
        (_trajectory, "optimizers", [{"name": "mi", "kind": "miadam", "switch_epochs": 2}],
         "config.optimizers[0].switch_epochs"),
        (_grid, "optimizers", [{"name": "mi", "kind": "miadam", "switch_epochs": 2}],
         "config.optimizers[0].switch_epochs"),
        # a model that does not fit its dataset (20 features, 4 classes)
        (_train, "model", {"layer_sizes": [10, 8, 4]}, "config.model.layer_sizes"),
        (_train, "model", {"layer_sizes": [20, 8, 3]}, "config.model.layer_sizes"),
        (_train, "dataset", {"classes": 5}, "config.model.layer_sizes"),
        (_train, "dataset", {"n_features": 5}, "config.model.layer_sizes"),
        (_blobs, "model", {"layer_sizes": [2, 8, 4]}, "config.model.layer_sizes"),
        (_blobs, "model", {"layer_sizes": [20, 3]}, "config.model.layer_sizes"),
        (_train, "dataset", {"classes": 1}, "config.dataset.classes"),
        (_train, "dataset", {"per_class": 0}, "config.dataset.per_class"),
        (_train, "dataset", {"n_features": 1}, "config.dataset.n_features"),
        (_train, "dataset", {"noise_rate": 1.0}, "config.dataset.noise_rate"),
        (_train, "dataset", {"noise_rate": 1.5}, "config.dataset.noise_rate"),
        (_train, "dataset", {"noise_rate": -0.1}, "config.dataset.noise_rate"),
        (_trajectory, "landscape", {"wells": [{"center": [0.0, 0.0], "depth": 0.0, "width": 0.5}]},
         "config.landscape.wells[0]"),
        (_trajectory, "landscape", {"wells": [{"center": [0.0, 0.0], "depth": 1.0, "width": -1}]},
         "config.landscape.wells[0]"),
        (_trajectory, "schedule", {"kind": "milestones", "milestones": [3, 1]}, "config.schedule"),
        (_trajectory, "schedule", {"kind": "milestones", "gamma": 0.0}, "config.schedule"),
        (_trajectory, "schedule", {"kind": "milestones", "gamma": 1.5}, "config.schedule"),
        (_trajectory, "schedule", {"kind": "cosine_annealing", "total": 0}, "config.schedule"),
        (_train, "schedule", {"kind": "cosine_annealing", "total": -2, "unit": "epochs"},
         "config.schedule"),
        (_no_steps, "schedule", {"kind": "cosine_annealing"}, "config.schedule"),
        (_trajectory, "output_dir", None, "config.output_dir"),
        (_trajectory, "output_dir", 3, "config.output_dir"),
        (_trajectory, "output_dir", "", "config.output_dir"),
        # a cosine total shorter than the run's steps - 1 (5 trajectory, 3 grid, 6 training steps)
        (_trajectory, "schedule", {"kind": "cosine_annealing", "total": 3}, "config.schedule"),
        (_grid, "schedule", {"kind": "cosine_annealing", "total": 1}, "config.schedule"),
        (_long_train, "schedule", {"kind": "cosine_annealing", "total": 1, "unit": "epochs"},
         "config.schedule"),
        (_long_hessian, "schedule", {"kind": "cosine_annealing", "total": 4}, "config.schedule"),
        (_trajectory, "optimizers", [{"name": "a", "kind": ["adam"]}], "config.optimizers[0].kind"),
        (_trajectory, "optimizers", [{"name": "a", "kind": {"a": 1}}], "config.optimizers[0].kind"),
        (_train, "dataset", {"classes": 4, "per_class": 10, "seed": -1}, "config.dataset.seed"),
        # 2 examples: the 80/20 split trains on both and tests on none
        (_train, "dataset", {"classes": 2, "per_class": 1}, "config.dataset"),
        (_train, "schedule", {"kind": "cosine_annealing", "eta_min": -50}, "config.schedule"),
        (_trajectory, "landscape", "nope", "config.landscape"),
        # a grid optimizer named like a fixed column of flatness.csv
        (_grid, "optimizers", [{"name": "row", "kind": "adam"}], "config.optimizers[0].name"),
        (_grid, "optimizers", [{"name": "a", "kind": "adam"}, {"name": "theta2_0", "kind": "sgd"}],
         "config.optimizers[1].name"),
        # sizes whose arrays numpy cannot index
        (_grid, "grid", [2 ** 62, 1], "config.grid[0]"),
        (_grid, "grid", [2 ** 63, 1], "config.grid[0]"),
        (_grid, "grid", [2 ** 64, 1], "config.grid[0]"),
        (_grid, "grid", [1, 2 ** 63], "config.grid[1]"),
        (_regret, "horizon", 2 ** 64, "config.horizon"),
        (_regret, "problem", {"dim": 2 ** 64}, "config.problem.dim"),
        (_long_hessian, "hessian", {"probes": 2 ** 64}, "config.hessian.probes"),
        (_train, "dataset", {"classes": 4, "per_class": 2 ** 64}, "config.dataset.per_class"),
        (_train, "model", {"layer_sizes": [20, 2 ** 64, 4]}, "config.model.layer_sizes"),
        # a field that its block's kind does not read
        (_trajectory, "schedule", {"kind": "constant", "gamma": 0.5}, "config.schedule"),
        (_trajectory, "schedule", {"kind": "constant", "total": 5}, "config.schedule"),
        (_trajectory, "schedule", {"kind": "cosine_annealing", "milestones": [1]},
         "config.schedule"),
        (_trajectory, "schedule", {"kind": "milestones", "eta_min": 0.1}, "config.schedule"),
        (_train, "optimizers",
         [{"name": "mi", "kind": "miadam", "switch_epochs": 1, "switch_step": 3}],
         "config.optimizers[0]"),
        # more sizes whose arrays numpy cannot index: the trajectory's (total_steps, 2) path
        # and a training run's metric columns
        (_trajectory, "total_steps", 2 ** 62, "config.total_steps"),
        (_trajectory, "total_steps", 2 ** 64, "config.total_steps"),
        (_train, "epochs", 2 ** 62, "config.epochs"),
        # a value in epochs outside a training run
        (_trajectory, "schedule", {"kind": "milestones", "unit": "epochs", "milestones": [5]},
         "config.schedule.unit"),
        (_grid, "schedule", {"kind": "cosine_annealing", "unit": "epochs"},
         "config.schedule.unit"),
        # a well width whose 2 * width**2 overflows or underflows, and a region whose span
        # hi - lo overflows
        (_trajectory, "landscape", {"wells": [{"center": [0, 0], "depth": 1, "width": 1e154}]},
         "config.landscape.wells[0]"),
        (_grid, "landscape", {"wells": [{"center": [0, 0], "depth": 1, "width": 1e-308}]},
         "config.landscape.wells[0]"),
        (_grid, "region", [[-2.0, 3.0], [-1e308, 1e308]], "config.region[1]"),
        # an integer beyond the float range
        (_trajectory, "optimizers", [{"name": "a", "kind": "adam", "alpha": 10 ** 400}],
         "config.optimizers[0].alpha"),
        # the descent's (3, total_steps, 1) record of a trajectory
        (_trajectory, "total_steps", 2 ** 63 // 24 + 1, "config.total_steps"),
    ],
)
def test_invalid_field_exit_2_names_its_path(tmp_path, capsys, build, field, value, path):
    out_dir = tmp_path / "out"
    cfg = build(out_dir)
    cfg[field] = value
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    assert f"error: {path}:" in capsys.readouterr().err
    assert not out_dir.exists()


_SCENARIO = {
    "alpha": 0.01, "beta1": 0.9, "batch_size_b": 32, "delta_L": 0.5,
    "h_a_eigs": [1.0, 2.0], "h_u_eigs": [-0.5, 1.0], "escape_index": 0, "rho": 1.0,
}


@pytest.mark.parametrize(
    "kind,block,field,value",
    [
        ("regret", "problem", "dim", "4"),
        ("regret", None, "horizon", 0),
        ("regret", None, "lr_decay_h", float("inf")),
        ("hessian-report", "hessian", "probes", 2.5),
        ("escape-theory", "scenario", "h_a_eigs", [1.0, "2"]),
        ("escape-theory", None, "scenario", dict(_SCENARIO, alpha=0)),
        ("escape-theory", None, "scenario", dict(_SCENARIO, escape_index=5)),
        ("escape-theory", None, "scenario", dict(_SCENARIO, h_u_eigs=[0.5, 1.0])),
        ("regret", "problem", "dim", 0),
        ("regret", "problem", "dim", -1),
        ("regret", None, "lr_decay_h", -1000),
        ("hessian-report", "hessian", "max_iters", 0),
        ("hessian-report", "hessian", "probes", 0),
        ("regret", None, "output_dir", None),
        ("escape-theory", None, "scenario", dict(_SCENARIO, h_u_eigs=[-0.5, 0.0])),
        ("regret", None, "problem", {"target_low": 1e308, "target_high": -1e308}),
        ("regret", None, "problem", {"target_low": 1.0, "target_high": -1.0}),
        ("hessian-report", "hessian", "tol", -1e-9),
    ],
)
def test_invalid_field_of_other_kinds_exit_2(tmp_path, capsys, kind, block, field, value):
    base = {
        "regret": {"horizon": 10, "optimizers": [{"name": "adam", "kind": "adam"}]},
        "hessian-report": dict(_train(tmp_path), kind="hessian-report"),
        "escape-theory": {"scenario": _SCENARIO},
    }[kind]
    cfg = dict(base, kind=kind, seed=0, output_dir=str(tmp_path / "out"))
    if block is None:
        cfg[field] = value
    else:
        cfg[block] = dict(cfg.get(block, {}), **{field: value})
    assert main(["run", str(write_config(tmp_path, cfg))]) == 2
    prefix = "config." + (f"{block}." if block else "") + field
    assert f"error: {prefix}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "scenario,phi",
    [
        # det_ratio underflows to 0, and with it both times
        (dict(_SCENARIO, h_a_eigs=[1e200, 1e200], h_u_eigs=[-1e-200, 1e-200]), 0.0),
        # t_tilde * alpha underflows to 0 in a denominator
        (dict(_SCENARIO, alpha=1e-300, t_tilde=1e-300), math.inf),
        # the batch size overflows a float
        (dict(_SCENARIO, batch_size_b=10 ** 400), math.inf),
        # the prefactor overflows while the geometry factor underflows to 0
        (dict(_SCENARIO, alpha=1e300, h_a_eigs=[1, 1e300], h_u_eigs=[-1e200, 1e-300]), math.inf),
    ],
)
def test_extreme_escape_scenario_exit_0(tmp_path, scenario, phi):
    out_dir = tmp_path / "out"
    cfg = {"kind": "escape-theory", "seed": 0, "output_dir": str(out_dir), "scenario": scenario}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    text = (out_dir / "report.json").read_text()
    assert "NaN" not in text
    results = json.loads(text)["results"]
    assert results["phi_miadam1"] == results["phi_adam"] == phi
    assert results["ratio_miadam1_over_adam"] is None
    assert results["overflowed"] is (phi == math.inf)


def _reject_nan(constant):
    if constant == "NaN":
        raise ValueError("NaN in report.json")
    return float(constant)


def test_one_probe_hessian_report_is_strict_json(tmp_path):
    # one probe leaves the trace's standard error undefined: null, not a bare NaN
    out_dir = tmp_path / "out"
    cfg = _train(
        out_dir, kind="hessian-report", model={"layer_sizes": [20, 3, 2]},
        dataset={"classes": 2, "per_class": 10}, hessian={"max_iters": 3, "probes": 1},
    )
    assert main(["run", str(write_config(tmp_path, cfg))]) == 0
    report = json.loads((out_dir / "report.json").read_text(), parse_constant=_reject_nan)
    result = report["results"]["adam"]
    assert result["trace_stderr"] is None
    assert math.isfinite(result["trace_estimate"]) and result["trace_probes"] == 1


@pytest.mark.parametrize("build,message", [
    (_regret, "regret run diverged to non-finite iterates (at step 1)"),
    (_trajectory, "MIAdam update produced non-finite parameters (at step 1)"),
], ids=["regret", "trajectory"])
def test_overflowing_pre_switch_rate_exit_1(tmp_path, capsys, build, message):
    # alpha ** order_n is beyond the float range, so the first step diverges
    mi = {"name": "mi", "kind": "miadam", "alpha": 1e300, "order_n": 2}
    cfg = dict(build(tmp_path / "out"), optimizers=[mi])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("batch_size,message", [
    (16, "training diverged at epoch 1, batch 1 (at step 2)"),
    # one batch an epoch: the first pass to overflow is the evaluation after step 1
    (40, "training diverged at epoch 1, evaluating the train split (at step 1)"),
], ids=["batch", "evaluation"])
def test_a_training_failure_names_its_epoch_and_step(tmp_path, capsys, batch_size, message):
    adam = {"name": "adam", "kind": "adam", "alpha": 1e155}
    cfg = _train(tmp_path / "out", model={"layer_sizes": [20, 8, 4], "activation": "relu"},
                 epochs=3, batch_size=batch_size, optimizers=[adam])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_runtime_failure_removes_the_directories_it_created(tmp_path, capsys):
    out_dir = tmp_path / "new" / "deeper"
    assert main(["run", str(write_config(tmp_path, _diverging(out_dir)))]) == 1
    assert "regret run diverged" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_runtime_failure_keeps_an_existing_output_dir_and_its_files(tmp_path):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("mine")
    assert main(["run", str(write_config(tmp_path, _diverging(out_dir)))]) == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["keep.txt"]


def test_out_of_memory_exit_1_no_outputs(tmp_path, capsys):
    # a valid config whose regret targets would take petabytes: numpy refuses at once
    cfg = {"kind": "regret", "seed": 0, "output_dir": str(tmp_path / "out"),
           "horizon": 10 ** 14, "optimizers": [{"name": "adam", "kind": "adam"}]}
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_grid_too_large_to_allocate_exit_1_no_outputs(tmp_path, capsys):
    # 2**40 grid starts would take 16 TiB: numpy refuses at once
    cfg = _grid(tmp_path / "out", grid=[2 ** 20, 2 ** 20])
    assert main(["run", str(write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_unwritable_output_dir_exit_1(tmp_path, capsys):
    (tmp_path / "some_file").write_text("")
    path = write_config(tmp_path, _trajectory(tmp_path / "out"))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "some_file" / "sub")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "some_file"]


# the README example, shortened, and one small config of each other kind
# between them the bases give every field that some block's parser reads
_BASES = [
    dict(_readme_example(), total_steps=30),
    _grid(
        Path("out"),
        landscape={
            "wells": [{"center": [0.5, 0.0], "depth": 1.0, "width": 0.8}], "base_level": 0.5,
        },
        schedule={"kind": "cosine_annealing", "total": 5, "eta_min": 0.1},
    ),
    _train(
        Path("out"),
        model={"layer_sizes": [20, 8, 4], "activation": "relu"},
        dataset={"classes": 4, "per_class": 10, "spread": 1.5, "n_features": 20,
                 "noise_rate": 0.1, "seed": 5},
        schedule={"kind": "milestones", "milestones": [1], "gamma": 0.5, "unit": "epochs"},
        optimizers=[
            {"name": "adam", "kind": "adam", "beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6,
             "eps_in_sqrt": True},
            {"name": "mi", "kind": "miadam", "switch_epochs": 1, "pre_switch_lr_override": 0.01},
        ],
    ),
    {"kind": "escape-theory", "seed": 0, "output_dir": "out",
     "scenario": dict(_SCENARIO, t_tilde=2.0)},
    {"kind": "regret", "seed": 0, "output_dir": "out", "horizon": 10, "lr_decay_h": 0.3,
     "problem": {"dim": 2, "target_low": -0.5, "target_high": 2.0, "theta0": 0.0},
     "optimizers": [{"name": "mi", "kind": "miadam"}]},
    dict(_train(Path("out")), kind="hessian-report",
         hessian={"max_iters": 3, "tol": 1e-3, "probes": 2}),
]


def test_every_field_a_parser_reads_is_given_in_some_base(monkeypatch):
    """Each (block, field) a parser asks for while ``_BASES`` resolve is given in some base."""
    asked, given = set(), set()
    take = harness._Block.take

    def recording_take(self, key, *args, **kwargs):
        block = re.sub(r"\[\d+\]", "[]", self.path)  # one entry for every list item
        asked.add((block, key))
        if key in self.raw:
            given.add((block, key))
        return take(self, key, *args, **kwargs)

    monkeypatch.setattr(harness._Block, "take", recording_take)
    for base in _BASES:
        normalize_config(copy.deepcopy(base))
    assert sorted(asked - given) == []


_DROP = object()
_FUZZ_VALUES = (_DROP, None, True, "x", [], {}, [1.0], {"a": 1}, 2.5, -1, 0)


def _mutations(node, path=()):
    """Each (path, value) that drops or replaces one field or list item of a JSON tree."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from ((path + (key,), value) for value in _FUZZ_VALUES)
        if isinstance(child, (dict, list)):
            yield from _mutations(child, path + (key,))


_MUTATIONS = [(i, path, value) for i, base in enumerate(_BASES) for path, value in _mutations(base)]
# the regret base's MIAdam one order above the cap
_MUTATIONS.append((4, ("optimizers", 0, "order_n"), MAX_ORDER_N + 1))


@settings(max_examples=len(_MUTATIONS), deadline=None, database=None, derandomize=True)
@given(st.sampled_from(_MUTATIONS))
def test_mutated_config_exits_0_1_or_2(mutation):
    i, path, value = mutation
    cfg = copy.deepcopy(_BASES[i])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("config.json").write_text(json.dumps(cfg))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "config.json"])
            left = sorted(os.listdir("."))
            if code == 0:
                report = json.loads((Path(cfg["output_dir"]) / "report.json").read_text())
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")
        assert left == ["config.json"]
    if code == 2:  # an invalid field is named by its path
        assert err.getvalue().startswith("error: config")
    if code == 1:
        assert "diverged" in err.getvalue()
    if code == 0:  # the report's config resolves to itself
        assert normalize_config(report["config"]) == report["config"]
