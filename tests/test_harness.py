"""Tests for config validation, the runner, and output artifacts."""

import dataclasses
import itertools
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatmin import harness, reporting
from flatmin.errors import ContractViolationError, NonFiniteError
from flatmin.harness import normalize_config, run, run_config
from flatmin.hessian import hutchinson_trace, top_eigenvalue
from flatmin.landscapes import grid_starts
from flatmin.mlp import inject_label_noise, loss_and_grad, make_blobs, train_classifier
from flatmin.optim import OptimizerState
from flatmin.reporting import _BLOCK_ROWS, write_csv
from flatmin.seeding import derive_seed, splitmix64
from test_optim import _ref_run_step


def trajectory_config(out_dir):
    return {
        "kind": "trajectory",
        "seed": 1,
        "output_dir": str(out_dir),
        "landscape": "landscape-A",
        "start": [1.6, -0.3],
        "total_steps": 50,
        "optimizers": [
            {"name": "adam", "kind": "adam", "alpha": 0.05},
            {"name": "sgd", "kind": "sgd", "alpha": 0.05},
        ],
    }


ALONE_CONFIGS = {
    "trajectory": {
        "kind": "trajectory",
        "seed": 1,
        "landscape": "landscape-B",
        "start": [1.6, -0.3],
        "total_steps": 40,
        "schedule": {"kind": "cosine_annealing"},
        "optimizers": [
            {"name": "mi2", "kind": "miadam", "alpha": 0.05, "order_n": 2, "kappa": 0.9,
             "switch_step": 25, "pre_switch_lr_override": 0.02},
            {"name": "adam", "kind": "adam", "alpha": 0.05},
            {"name": "sgdm", "kind": "sgdm", "alpha": 0.05},
        ],
    },
    "grid-flatness": {
        "kind": "grid-flatness",
        "seed": 2,
        "landscape": "landscape-B",
        "region": [[-2.0, 3.0], [-2.0, 3.0]],
        "grid": [3, 4],
        "total_steps": 30,
        "schedule": {"kind": "cosine_annealing"},
        "optimizers": [
            {"name": "mi2", "kind": "miadam", "alpha": 0.005, "weight_decay": 0.0,
             "order_n": 2, "kappa": 0.885, "switch_step": 20},
            {"name": "adam", "kind": "adam", "alpha": 0.005, "weight_decay": 0.0},
            {"name": "sgd", "kind": "sgd", "alpha": 0.05},
        ],
    },
    "train": {
        "kind": "train",
        "seed": 8,
        "model": {"layer_sizes": [20, 16, 4], "activation": "relu"},
        "dataset": {"classes": 4, "per_class": 30, "noise_rate": 0.2},
        "epochs": 3,
        "batch_size": 16,
        "optimizers": [
            {"name": "mi1", "kind": "miadam", "alpha": 1e-2, "switch_epochs": 2},
            {"name": "adam", "kind": "adam", "alpha": 1e-2},
            {"name": "sgdm", "kind": "sgdm", "alpha": 1e-2},
        ],
    },
    "regret": {
        "kind": "regret",
        "seed": 4,
        "horizon": 300,
        "optimizers": [
            {"name": "mi3", "kind": "miadam", "alpha": 0.1, "order_n": 3, "kappa": 0.9,
             "switch_step": None, "pre_switch_lr_override": 0.1},
            {"name": "adam", "kind": "adam", "alpha": 0.1, "eps_in_sqrt": True},
            {"name": "sgd", "kind": "sgd", "alpha": 0.1},
            # one lane group with mi3, of another order, alpha, kappa and switch step
            {"name": "mi1", "kind": "miadam", "alpha": 0.05, "order_n": 1, "kappa": 0.95,
             "switch_step": 120},
        ],
    },
}


def _optimizer_csv(out_dir, kind, name) -> bytes:
    """The bytes one optimizer contributes to a run's CSV output."""
    if kind == "grid-flatness":
        lines = (out_dir / "flatness.csv").read_text().splitlines()
        col = lines[0].split(",").index(name)
        return "\n".join(
            ",".join(cells[:4] + [cells[col]]) for cells in (line.split(",") for line in lines)
        ).encode()
    prefix = {"trajectory": "trajectory", "train": "metrics", "regret": "regret"}[kind]
    return (out_dir / f"{prefix}_{name}.csv").read_bytes()


class TestSeeding:
    def test_splitmix_known_stream(self):
        # distinct, deterministic, 64-bit
        vals = [splitmix64(i) for i in range(5)]
        assert len(set(vals)) == 5
        assert all(0 <= v < 2 ** 64 for v in vals)
        assert [splitmix64(i) for i in range(5)] == vals

    def test_derive_seed_label_sensitivity(self):
        a = derive_seed(1, "model-init")
        b = derive_seed(1, "train-shuffle")
        c = derive_seed(2, "model-init")
        assert len({a, b, c}) == 3

    def test_derive_seed_multi_label(self):
        assert derive_seed(1, "x", "y") != derive_seed(1, "xy")


class TestValidation:
    def test_unknown_top_level_field(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        cfg["extra"] = 1
        with pytest.raises(ContractViolationError, match="extra"):
            normalize_config(cfg)

    def test_unknown_kind(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        cfg["kind"] = "bogus"
        with pytest.raises(ContractViolationError, match="kind"):
            normalize_config(cfg)

    def test_missing_required_field(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        del cfg["start"]
        with pytest.raises(ContractViolationError, match="start"):
            normalize_config(cfg)

    def test_unknown_optimizer_field_has_path(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        cfg["optimizers"][1]["kappa"] = 0.9  # sgd has no kappa
        with pytest.raises(ContractViolationError, match=r"optimizers\[1\]"):
            normalize_config(cfg)

    def test_duplicate_optimizer_names(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        cfg["optimizers"][1]["name"] = "adam"
        with pytest.raises(ContractViolationError, match="unique"):
            normalize_config(cfg)

    def test_switch_epochs_outside_training_rejected(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        cfg["optimizers"] = [
            {"name": "mi", "kind": "miadam", "switch_epochs": 20}
        ]
        with pytest.raises(ContractViolationError, match=r"optimizers\[0\]\.switch_epochs"):
            normalize_config(cfg)

    def test_null_switch_step_disables(self, tmp_path):
        def trajectory_csv(switch_step):
            cfg = trajectory_config(tmp_path / str(switch_step))
            cfg["optimizers"] = [{"name": "mi", "kind": "miadam", "switch_step": switch_step}]
            norm = normalize_config(cfg)
            assert norm["optimizers"][0]["switch_step"] == switch_step
            run_config(norm)
            return (tmp_path / str(switch_step) / "trajectory_mi.csv").read_bytes()

        never = trajectory_csv(None)
        # the run takes 50 steps: a switch at step 51 never fires, one at 50 does
        assert never == trajectory_csv(51)
        assert never != trajectory_csv(50)

    def test_defaults_filled(self, tmp_path):
        norm = normalize_config(trajectory_config(tmp_path))
        adam = norm["optimizers"][0]
        assert adam["beta1"] == 0.9 and adam["beta2"] == 0.999
        assert adam["weight_decay"] == 5e-5 and adam["eps_in_sqrt"] is False
        assert norm["schedule"] == {"kind": "constant", "unit": "steps"}

        # the whole normalized dict of a minimal config of each kind
        out = str(tmp_path)
        adam = {"name": "adam", "kind": "adam", "alpha": 1e-3, "beta1": 0.9, "beta2": 0.999,
                "epsilon": 1e-8, "weight_decay": 5e-5, "eps_in_sqrt": False}
        miadam = dict(adam, name="mi", kind="miadam", order_n=1, kappa=0.98, switch_step=20)
        every_optimizer = [
            {"name": "sgd", "kind": "sgd"}, {"name": "sgdm", "kind": "sgdm"},
            {"name": "adam", "kind": "adam"}, {"name": "mi", "kind": "miadam"},
        ]
        every_optimizer_filled = [
            {"name": "sgd", "kind": "sgd", "alpha": 1e-3},
            {"name": "sgdm", "kind": "sgdm", "alpha": 1e-3, "beta": 0.9},
            adam, miadam,
        ]
        constant = {"kind": "constant", "unit": "steps"}
        scenario = {"alpha": 0.01, "beta1": 0.9, "batch_size_b": 32, "delta_L": 0.5,
                    "h_a_eigs": [1.0, 2.0], "h_u_eigs": [-0.5, 1.0], "escape_index": 0, "rho": 1.0}
        cases = [
            ({"kind": "trajectory", "landscape": "landscape-A", "start": [1, 2], "total_steps": 5,
              "optimizers": every_optimizer},
             {"landscape": "landscape-A", "start": [1.0, 2.0], "total_steps": 5,
              "schedule": constant, "optimizers": every_optimizer_filled}),
            ({"kind": "grid-flatness", "landscape": "landscape-B", "region": [[0, 1], [2, 3]],
              "grid": [2, 3], "total_steps": 5, "optimizers": [{"name": "mi", "kind": "miadam"}]},
             {"landscape": "landscape-B", "region": [[0.0, 1.0], [2.0, 3.0]], "grid": [2, 3],
              "total_steps": 5, "schedule": constant, "optimizers": [miadam]}),
            ({"kind": "train", "model": {"layer_sizes": [20, 4]}, "dataset": {}, "epochs": 1,
              "batch_size": 8, "optimizers": every_optimizer},
             {"model": {"layer_sizes": [20, 4], "activation": "tanh"},
              "dataset": {"classes": 4, "per_class": 500, "spread": 1.0, "n_features": 20,
                          "noise_rate": 0.0},
              "epochs": 1, "batch_size": 8, "schedule": constant,
              "optimizers": every_optimizer_filled}),
            ({"kind": "escape-theory", "scenario": scenario},
             {"scenario": dict(scenario, t_tilde=1.0)}),
            ({"kind": "regret", "horizon": 3, "optimizers": every_optimizer},
             {"problem": {"dim": 4, "target_low": -1.0, "target_high": 1.0, "theta0": 1.0},
              "horizon": 3, "lr_decay_h": 0.5, "optimizers": every_optimizer_filled}),
            ({"kind": "hessian-report", "model": {"layer_sizes": [20, 4]}, "dataset": "blobs-4c",
              "epochs": 1, "batch_size": 8, "optimizers": [{"name": "adam", "kind": "adam"}]},
             {"model": {"layer_sizes": [20, 4], "activation": "tanh"}, "dataset": "blobs-4c",
              "epochs": 1, "batch_size": 8, "schedule": constant, "optimizers": [adam],
              "hessian": {"max_iters": 200, "tol": 1e-6, "probes": 200}}),
        ]
        for raw, filled in cases:
            raw = dict(raw, seed=3, output_dir=out)
            assert normalize_config(raw) == dict(filled, kind=raw["kind"], seed=3, output_dir=out)


class TestRuns:
    def test_trajectory_outputs(self, tmp_path):
        report = run(trajectory_config(tmp_path / "out"))
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "trajectory_adam.csv").exists()
        assert (out / "trajectory_sgd.csv").exists()
        lines = (out / "trajectory_adam.csv").read_text().splitlines()
        assert lines[0] == "t,theta1,theta2,loss"
        assert len(lines) == 51
        assert set(report["results"]) == {"adam", "sgd"}
        assert report["kind"] == "trajectory"

    def test_report_embeds_resolved_config(self, tmp_path):
        report = run(trajectory_config(tmp_path / "out"))
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk["config"] == report["config"]
        assert on_disk["config"]["optimizers"][0]["beta2"] == 0.999

    def test_run_config_validates_its_input(self, tmp_path):
        cfg = normalize_config({
            "kind": "regret", "seed": 0, "output_dir": str(tmp_path / "out"), "horizon": 10,
            "optimizers": [{"name": "adam", "kind": "adam"}],
        })
        del cfg["horizon"]
        with pytest.raises(ContractViolationError, match=r"config\.horizon"):
            run_config(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_rerun_from_embedded_config_identical_csv_bytes(self, tmp_path):
        report = run(trajectory_config(tmp_path / "a"))
        run_config(report["config"], output_dir=tmp_path / "b")
        for name in ("trajectory_adam.csv", "trajectory_sgd.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_grid_flatness_run(self, tmp_path):
        cfg = {
            "kind": "grid-flatness",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "landscape": "landscape-B",
            "region": [[-2.0, 3.0], [-2.0, 3.0]],
            "grid": [4, 4],
            "total_steps": 40,
            "optimizers": [{"name": "adam", "kind": "adam", "alpha": 0.05}],
        }
        report = run(cfg)
        rows = (tmp_path / "out" / "flatness.csv").read_text().splitlines()
        assert rows[0] == "row,col,theta1_0,theta2_0,adam"
        assert len(rows) == 17
        assert report["results"]["adam"]["mean_flatness"] > 0

    @pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
    def test_grid_flatness_far_from_every_well_is_zero(self, tmp_path):
        # a step of 1e308 flings every start far out, where each well's term underflows to 0
        cfg = {
            "kind": "grid-flatness",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "landscape": "landscape-B",
            "region": [[-2.0, 3.0], [-2.0, 3.0]],
            "grid": [4, 4],
            "total_steps": 3,
            "optimizers": [{"name": "sgd", "kind": "sgd", "alpha": 1e308}],
        }
        report = run(cfg)
        rows = (tmp_path / "out" / "flatness.csv").read_text().splitlines()[1:]
        assert len(rows) == 16 and all(row.endswith(",0.0") for row in rows)
        assert report["results"]["sgd"] == {"mean_flatness": 0.0, "median_flatness": 0.0}

    def test_grid_flatness_csv_cells_are_plain_numbers(self, tmp_path):
        cfg = {
            "kind": "grid-flatness",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "landscape": "landscape-A",
            "region": [[-2.0, 3.0], [-1.0, 2.0]],
            "grid": [3, 5],
            "total_steps": 20,
            "optimizers": [
                {"name": "adam", "kind": "adam", "alpha": 0.05},
                {"name": "sgd", "kind": "sgd", "alpha": 0.05},
            ],
        }
        run(cfg)
        rows = (tmp_path / "out" / "flatness.csv").read_text().splitlines()[1:]
        assert len(rows) == 15
        for row in rows:
            for cell in row.split(","):
                assert "np." not in cell
                float(cell)

    def test_train_run_with_switch_epochs(self, tmp_path):
        cfg = {
            "kind": "train",
            "seed": 3,
            "output_dir": str(tmp_path / "out"),
            "model": {"layer_sizes": [20, 8, 3], "activation": "tanh"},
            "dataset": {"classes": 3, "per_class": 30, "spread": 1.0, "seed": 5},
            "epochs": 3,
            "batch_size": 16,
            "optimizers": [
                {"name": "adam", "kind": "adam"},
                {"name": "miadam", "kind": "miadam", "switch_epochs": 1, "kappa": 0.9},
            ],
            "schedule": {"kind": "cosine_annealing", "unit": "epochs", "total": 3},
        }
        report = run(cfg)
        assert (tmp_path / "out" / "metrics_adam.csv").exists()
        assert (tmp_path / "out" / "metrics_miadam.csv").exists()
        final = report["results"]["adam"]["final"]
        assert 0.0 <= final["test_acc"] <= 1.0
        assert report["results"]["adam"]["steps_per_epoch"] == 5  # ceil(72/16)
        # 15 steps evaluate the multiplier at steps 0 .. 14, so 14 is the shortest cosine total
        cfg["schedule"] = {"kind": "cosine_annealing", "total": 14}
        run(dict(cfg, output_dir=str(tmp_path / "boundary")))

    def test_preset_dataset_equals_its_object(self, tmp_path):
        def train(name, dataset):
            cfg = {
                "kind": "train", "seed": 2, "output_dir": str(tmp_path / name),
                "model": {"layer_sizes": [20, 4]}, "dataset": dataset, "epochs": 2,
                "batch_size": 400, "optimizers": [{"name": "adam", "kind": "adam"}],
            }
            results = run(cfg)["results"]
            return results, (tmp_path / name / "metrics_adam.csv").read_bytes()

        blobs_4c = {"classes": 4, "per_class": 500, "spread": 1.0, "n_features": 20}
        assert train("preset", "blobs-4c") == train("object", blobs_4c)

    @pytest.mark.parametrize("preset", ["landscape-A", "landscape-B"])
    def test_preset_landscape_equals_its_object(self, tmp_path, preset):
        coords = (-1.5, 0.5, 2.5)
        wells = {  # in the order the preset sums them, which fixes the loss bits
            "landscape-A": [([-1.0, -1.0], 2.0, 0.18), ([0.5, 0.5], 2.5, 1.3),
                            ([2.0, 2.0], 2.0, 0.18)],
            "landscape-B": [
                ([x, y], 1.5, 0.15) if (i + j) % 2 == 0 else ([x, y], 1.0, 0.8)
                for i, x in enumerate(coords) for j, y in enumerate(coords)
            ],
        }[preset]
        landscape = {"wells": [{"center": c, "depth": d, "width": w} for c, d, w in wells]}

        def trajectory(name, landscape):
            cfg = dict(trajectory_config(tmp_path / name), landscape=landscape)
            results = run(cfg)["results"]
            csvs = [(tmp_path / name / f"trajectory_{o}.csv").read_bytes() for o in ("adam", "sgd")]
            return results, csvs

        assert trajectory("preset", preset) == trajectory("object", landscape)

    def test_escape_theory_run(self, tmp_path):
        cfg = {
            "kind": "escape-theory",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "scenario": {
                "alpha": 1e-2, "beta1": 0.9, "batch_size_b": 128, "delta_L": 0.1,
                "h_a_eigs": [10.0, 2.0, 3.0], "h_u_eigs": [-5.0, 2.0, 3.0],
                "escape_index": 0, "rho": 0.5, "t_tilde": 4.0,
            },
        }
        report = run(cfg)
        assert report["results"]["phi_miadam1"] < report["results"]["phi_adam"]

    def test_regret_run(self, tmp_path):
        cfg = {
            "kind": "regret",
            "seed": 2,
            "output_dir": str(tmp_path / "out"),
            "horizon": 200,
            "optimizers": [
                {"name": "adam", "kind": "adam", "alpha": 0.1, "weight_decay": 0.0},
                {"name": "miadam-unswitched", "kind": "miadam", "alpha": 0.1,
                 "weight_decay": 0.0, "switch_step": None},
            ],
        }
        report = run(cfg)
        assert (tmp_path / "out" / "regret_adam.csv").exists()
        res = report["results"]
        assert res["adam"]["final_average_regret"] < res["miadam-unswitched"]["final_average_regret"]

    def test_hessian_report_run(self, tmp_path):
        cfg = {
            "kind": "hessian-report",
            "seed": 4,
            "output_dir": str(tmp_path / "out"),
            "model": {"layer_sizes": [20, 6, 3]},
            "dataset": {"classes": 3, "per_class": 20, "seed": 6},
            "epochs": 2,
            "batch_size": 16,
            "optimizers": [{"name": "adam", "kind": "adam"}],
            "hessian": {"max_iters": 50, "tol": 1e-5, "probes": 20},
        }
        report = run(cfg)
        r = report["results"]["adam"]
        assert np.isfinite(r["top_eigenvalue"])
        assert np.isfinite(r["trace_estimate"])
        assert r["trace_probes"] == 20

    @pytest.mark.parametrize("probes", [1, 5])
    def test_hessian_report_measures_the_trained_model(self, tmp_path, probes):
        # each field is what the estimators return for the trained model on
        # its training split, with the run's derived seeds
        raw = {
            "kind": "hessian-report", "seed": 5, "output_dir": str(tmp_path / "out"),
            "model": {"layer_sizes": [20, 6, 3]},
            "dataset": {"classes": 3, "per_class": 20, "noise_rate": 0.1},
            "epochs": 2, "batch_size": 16,
            "optimizers": [
                {"name": "adam", "kind": "adam"},
                {"name": "mi", "kind": "miadam", "switch_epochs": 1},
            ],
            # mi's power iteration converges after 18 HVPs; adam's runs all 30
            "hessian": {"max_iters": 30, "tol": 1e-3, "probes": probes},
        }
        run(raw)
        results = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        cfg, typed = harness._resolve(raw)
        data, h, seed = typed["dataset"], cfg["hessian"], cfg["seed"]
        ds = inject_label_noise(make_blobs(**data["blobs"]), data["noise_rate"], data["noise_seed"])
        for block, params in zip(cfg["optimizers"], typed["optimizers"]):
            name = block["name"]
            model, _ = train_classifier(
                typed["model"], ds, params, typed["schedule"], cfg["epochs"], cfg["batch_size"],
                derive_seed(seed, "train-shuffle"),
            )

            def grad_fn(p, _model=model):
                _model.set_flat(p)
                return loss_and_grad(_model, ds.x_train, ds.y_train)[1]

            theta = model.get_flat()
            top = top_eigenvalue(
                grad_fn, theta, h["max_iters"], h["tol"], derive_seed(seed, "hessian-top", name)
            )
            trace = hutchinson_trace(
                grad_fn, theta, h["probes"], derive_seed(seed, "hessian-trace", name)
            )
            r = results[name]
            assert (r["top_eigenvalue"], r["top_hvp_count"], r["top_tolerance_reached"]) == top
            assert (r["trace_estimate"], r["trace_stderr"]) == trace
            assert r["trace_probes"] == probes
            assert (r["trace_stderr"] is None) == (probes == 1)

    def test_hessian_report_trains_as_a_train_run(self, tmp_path):
        cfg = {
            "kind": "train", "seed": 3, "output_dir": str(tmp_path / "train"),
            "model": {"layer_sizes": [20, 6, 3]},
            "dataset": {"classes": 3, "per_class": 20, "noise_rate": 0.2},
            "epochs": 2, "batch_size": 16,
            "optimizers": [
                {"name": "adam", "kind": "adam"},
                {"name": "mi", "kind": "miadam", "switch_epochs": 1},
            ],
        }
        train = run(cfg)["results"]
        report = dict(cfg, kind="hessian-report", output_dir=str(tmp_path / "hessian"),
                      hessian={"max_iters": 3, "probes": 2})
        results = run(report)["results"]
        for name in ("adam", "mi"):
            csv = f"metrics_{name}.csv"
            assert (tmp_path / "hessian" / csv).read_bytes() == (tmp_path / "train" / csv).read_bytes()
            assert results[name]["train"] == train[name]

    def test_failure_cleans_outputs(self, tmp_path):
        # sgd diverges after adam's run has finished (at a constant rate of 3
        # SGD doubles its distance to the target every step); no file is left
        cfg = {
            "kind": "regret",
            "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "horizon": 1100,
            "lr_decay_h": 0.0,
            "optimizers": [
                {"name": "adam", "kind": "adam"},
                {"name": "sgd", "kind": "sgd", "alpha": 3.0},
            ],
        }
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            run(cfg)
        leftover = list((tmp_path / "out").iterdir()) if (tmp_path / "out").exists() else []
        assert leftover == []

    def test_no_file_is_written_before_every_result_is_computed(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        seen = []

        def spy(*args, **kwargs):
            seen.append(sorted(p.name for p in out_dir.iterdir()))
            return run_regret_experiment(*args, **kwargs)

        run_regret_experiment = harness.run_regret_experiment
        monkeypatch.setattr(harness, "run_regret_experiment", spy)
        cfg = {
            "kind": "regret",
            "seed": 0,
            "output_dir": str(out_dir),
            "horizon": 20,
            "optimizers": [{"name": "adam", "kind": "adam"}, {"name": "sgd", "kind": "sgd"}],
        }
        run(cfg)
        assert seen == [[]]
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "regret_adam.csv", "regret_sgd.csv", "report.json"
        ]

    def test_failed_write_removes_written_csvs_and_created_dirs(self, tmp_path, monkeypatch):
        written = []

        def fail(path, report):
            written.extend(sorted(p.name for p in path.parent.iterdir()))
            raise OSError("disk full")

        monkeypatch.setattr(harness, "write_report", fail)
        cfg = trajectory_config(tmp_path / "new" / "out")
        with pytest.raises(OSError, match="disk full"):
            run(cfg)
        assert written == ["trajectory_adam.csv", "trajectory_sgd.csv"]
        assert list(tmp_path.iterdir()) == []

    def test_warnings_for_override_and_high_order(self, tmp_path):
        cfg = trajectory_config(tmp_path / "out")
        cfg["optimizers"] = [
            {"name": "mi", "kind": "miadam", "switch_step": 10,
             "order_n": 4, "pre_switch_lr_override": 0.01},
        ]
        report = run(cfg)
        joined = " ".join(report["warnings"])
        assert "override" in joined and "order_n=4" in joined
        # the highest tested order runs without a warning
        cfg["optimizers"] = [{"name": "mi", "kind": "miadam", "switch_step": 10, "order_n": 3}]
        assert run(cfg)["warnings"] == []

    @pytest.mark.parametrize("kind", sorted(ALONE_CONFIGS))
    def test_each_optimizer_runs_as_if_alone(self, tmp_path, kind):
        # An optimizer's CSV bytes and results must not depend on which other
        # optimizers share its config or where it sits among them.
        cfg = ALONE_CONFIGS[kind]
        opts = cfg["optimizers"]
        name = opts[0]["name"]
        outputs = []
        for label, order in (("alone", opts[:1]), ("first", opts), ("last", opts[1:] + opts[:1])):
            out_dir = tmp_path / label
            report = run(dict(cfg, output_dir=str(out_dir), optimizers=order))
            assert list(report["results"]) == [o["name"] for o in order]
            outputs.append((report["results"][name], _optimizer_csv(out_dir, kind, name)))
        assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# Generated configs: every optimizer, and every grid start, runs as if alone

# per kind of config: the alphas an optimizer draws, and the one that may make it diverge
_ALPHAS = {
    "trajectory": ([0.01, 0.05], {"sgd": 1e10, "sgdm": 1e10, "adam": 1e300, "miadam": 1e300}),
    "grid-flatness": ([0.01, 0.05], {"sgd": 1e10, "sgdm": 1e10, "adam": 1e300, "miadam": 1e300}),
    "regret": ([0.05, 0.1], {"sgd": 1e200, "sgdm": 1e200, "adam": 1e300, "miadam": 1e300}),
    "train": ([0.01, 0.05], {"sgd": 1e300, "sgdm": 1e300, "adam": 1e300, "miadam": 1e300}),
}


@st.composite
def _optimizer_blocks(draw, kind, switch_steps, diverge):
    """2 to 4 optimizers of every kind: MIAdam of orders 1-3 switching never, early
    or mid-run, with or without an override; Adam options that mostly share a lane group."""
    normal, huge = _ALPHAS[kind]
    shared = draw(st.sampled_from([0.0, 0.1])), draw(st.booleans())
    options = [shared, shared, shared, (0.0, False), (0.1, True)]
    blocks = []
    for i in range(draw(st.integers(2, 4))):
        opt = draw(st.sampled_from(["sgd", "sgdm", "adam", "miadam", "miadam"]))
        alphas = [huge[opt]] if diverge and draw(st.booleans()) else normal
        block = {"name": f"opt{i}", "kind": opt, "alpha": draw(st.sampled_from(alphas))}
        if opt in ("adam", "miadam"):
            block["weight_decay"], block["eps_in_sqrt"] = draw(st.sampled_from(options))
        if opt == "miadam":
            block["order_n"] = draw(st.integers(1, 3))
            block["kappa"] = draw(st.sampled_from([0.5, 0.9, 0.98]))
            block["switch_step"] = draw(st.sampled_from(switch_steps))
            block["pre_switch_lr_override"] = draw(st.sampled_from([None, None, 0.01]))
        blocks.append(block)
    return blocks


@st.composite
def _configs(draw, kind):
    """A small valid config of ``kind``, which may be made to diverge."""
    diverge = draw(st.booleans())
    steps = draw(st.integers(6, 14))
    cfg = {"kind": kind, "seed": draw(st.integers(0, 3)), "output_dir": "unused"}
    if kind in ("trajectory", "grid-flatness"):
        if diverge:  # SGDM at alpha 1e10 fails its grid starts at steps 1 and 5 on width 1
            width = draw(st.sampled_from([0.5, 1.0]))
            cfg["landscape"] = {"wells": [{"center": [0.0, 0.0], "depth": 1e300, "width": width}]}
        else:
            cfg["landscape"] = draw(st.sampled_from(["landscape-A", "landscape-B"]))
        cfg["total_steps"] = steps
        cfg["schedule"] = {"kind": draw(st.sampled_from(["constant", "cosine_annealing"]))}
        if kind == "trajectory":
            cfg["start"] = draw(st.sampled_from([[1.6, -0.3], [0.5, 0.2], [-3.0, -2.0]]))
        else:
            cfg["region"] = [[-3.0, 3.0], [-2.0, 3.0]]
            cfg["grid"] = [draw(st.integers(1, 2)), draw(st.integers(1, 3))]
    elif kind == "regret":
        steps *= 4
        cfg.update(horizon=steps, lr_decay_h=draw(st.sampled_from([0.0, 0.5, 0.5])),
                   problem={"dim": draw(st.integers(1, 4))})
    else:  # two epochs of two batches
        steps = 4
        cfg.update(model={"layer_sizes": [20, 4, 2]}, dataset={"classes": 2, "per_class": 8},
                   epochs=2, batch_size=8)
    cfg["optimizers"] = draw(_optimizer_blocks(kind, [None, 1, 2, steps // 2], diverge))
    return cfg


def _outcome(cfg, out_dir):
    """A run's error, or each optimizer's result and CSV bytes; a failed run leaves nothing."""
    try:
        report = run_config(cfg, out_dir)
    except NonFiniteError as err:
        assert not out_dir.exists()
        return str(err)
    kind = cfg["kind"]
    return {
        o["name"]: (report["results"][o["name"]], _optimizer_csv(out_dir, kind, o["name"]))
        for o in cfg["optimizers"]
    }


def _flatness_cells(outcome, name) -> list[bytes]:
    """The flatness cells of one optimizer's grid column, in row-major order."""
    return [line.rsplit(b",", 1)[1] for line in outcome[name][1].splitlines()[1:]]


def _reference_regret(cfg, block):
    """``_outcome`` of a regret run of one optimizer, from the verbatim reference steps."""
    cfg, typed = harness._resolve(dict(cfg, optimizers=[block]))
    (params,), problem = typed["optimizers"], typed["problem"]
    if getattr(params, "switch_step", 0) is None:  # the reference knows no null switch
        params = dataclasses.replace(params, switch_step=10 ** 9)
    targets = problem.targets(cfg["horizon"])
    best = targets.mean(axis=0)
    theta = np.full(problem.dim, problem.theta0)
    state = OptimizerState.zeros(problem.dim, getattr(params, "order_n", 0))
    cumulative, rows = 0.0, []
    with np.errstate(over="ignore", invalid="ignore"):
        for t, target in enumerate(targets, 1):
            diff, gap = theta - target, best - target
            cumulative = cumulative + (0.5 * (diff @ diff) - 0.5 * (gap @ gap))
            rows.append((t, float(cumulative), float(cumulative / t)))
            try:
                theta, state = _ref_run_step(params, theta, diff, state, t ** -cfg["lr_decay_h"])
            except NonFiniteError:
                theta = np.array(np.nan)
            if not np.isfinite(theta).all():
                return f"regret run diverged to non-finite iterates (at step {t})"
    overflow = [t for t, c, _ in rows if not np.isfinite(c)]
    if overflow:
        return f"cumulative regret overflowed (at step {overflow[0]})"
    header = ["t", "cumulative_regret", "average_regret"]
    result = {"final_average_regret": rows[-1][2], "final_cumulative_regret": rows[-1][1]}
    return {block["name"]: (result, _reference_csv(header, rows).encode())}


def _check_as_if_alone(cfg, base):
    """Each optimizer, and each grid start, gives the bytes and the error of a run alone."""
    runs = itertools.count()

    def outcome(config):
        return _outcome(config, base / f"run{next(runs)}")

    opts = cfg["optimizers"]
    whole = outcome(cfg)
    reverse = outcome(dict(cfg, optimizers=opts[::-1]))
    alone = [outcome(dict(cfg, optimizers=[o])) for o in opts]
    failing = [a for a in alone if isinstance(a, str)]
    if failing:
        # the error of the first optimizer in config order that fails alone
        assert whole == failing[0] and reverse == failing[-1]
    else:
        for o, a in zip(opts, alone):
            assert whole[o["name"]] == reverse[o["name"]] == a[o["name"]]
    if cfg["kind"] == "regret":  # and alone, the bits of the verbatim steppers
        assert alone == [_reference_regret(cfg, o) for o in opts]
    if cfg["kind"] != "grid-flatness":
        return
    traj = {k: v for k, v in cfg.items() if k not in ("region", "grid")}
    for o, a in zip(opts, alone):
        starts = []  # each start alone: its error, or its flatness cell
        for x, y in grid_starts(cfg["region"], cfg["grid"]).tolist():
            cell = outcome(dict(cfg, region=[[x, x], [y, y]], grid=[1, 1], optimizers=[o]))
            path = outcome(dict(traj, kind="trajectory", start=[x, y], optimizers=[o]))
            if isinstance(cell, str):
                assert path == cell
                starts.append(cell)
            else:
                (flatness,) = _flatness_cells(cell, o["name"])
                # a trajectory from the start ends at the same flatness
                assert fmt_value(path[o["name"]][0]["flatness"]).encode() == flatness
                starts.append(flatness)
        errors = [s for s in starts if isinstance(s, str)]
        if errors:  # the error of the first start in row-major order that fails alone
            assert a == errors[0]
        else:
            assert _flatness_cells(a, o["name"]) == starts


_PINNED_CONFIGS = {
    # one lane group of four heights, three alphas and three switches, at a decaying rate
    "regret-group": {
        "kind": "regret", "seed": 3, "output_dir": "unused", "horizon": 40, "lr_decay_h": 0.5,
        "problem": {"dim": 3},
        "optimizers": [
            {"name": "adam", "kind": "adam", "alpha": 0.1},
            {"name": "mi2", "kind": "miadam", "alpha": 0.05, "order_n": 2, "switch_step": 20},
            {"name": "sgd", "kind": "sgd", "alpha": 0.05},
            {"name": "mi1", "kind": "miadam", "alpha": 0.1, "order_n": 1, "kappa": 0.9,
             "switch_step": None, "pre_switch_lr_override": 0.01},
            {"name": "mi3", "kind": "miadam", "alpha": 0.05, "order_n": 3, "kappa": 0.5,
             "switch_step": 1},
        ],
    },
    # the SGD and the SGDM split three compatible Adam-family lanes into groups of one; mi1
    # alone diverges, so the whole run and its reverse raise mi1's error
    "regret-adjacency": {
        "kind": "regret", "seed": 1, "output_dir": "unused", "horizon": 40, "lr_decay_h": 0.5,
        "problem": {"dim": 3},
        "optimizers": [
            {"name": "adam", "kind": "adam", "alpha": 0.1},
            {"name": "sgd", "kind": "sgd", "alpha": 0.05},
            {"name": "mi1", "kind": "miadam", "alpha": 1e300, "order_n": 1, "switch_step": None},
            {"name": "sgdm", "kind": "sgdm", "alpha": 0.05},
            {"name": "mi2", "kind": "miadam", "alpha": 0.05, "order_n": 2, "switch_step": 20},
        ],
    },
    # SGDM alone fails starts 0 and 2 at step 5, and starts 1 and 4 at step 1
    "grid-order": {
        "kind": "grid-flatness", "seed": 0, "output_dir": "unused",
        "landscape": {"wells": [{"center": [0.0, 0.0], "depth": 1e300, "width": 1.0}]},
        "region": [[-3.0, 3.0], [-2.0, 3.0]], "grid": [2, 3], "total_steps": 10,
        "optimizers": [
            {"name": "adam", "kind": "adam", "alpha": 0.05},
            {"name": "sgdm", "kind": "sgdm", "alpha": 1e10},
            {"name": "sgd", "kind": "sgd", "alpha": 1e10},
        ],
    },
}


class TestGeneratedConfigs:
    @pytest.mark.parametrize("kind", ["trajectory", "grid-flatness", "regret", "train"])
    @settings(max_examples=12, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_each_optimizer_and_start_runs_as_if_alone(self, tmp_path, kind, data):
        _check_as_if_alone(data.draw(_configs(kind)), Path(tempfile.mkdtemp(dir=tmp_path)))

    @pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
    def test_pinned_configs_run_as_if_alone(self, tmp_path, name):
        _check_as_if_alone(_PINNED_CONFIGS[name], tmp_path)


def fmt_value(x) -> str:
    """The cell spelling of the row-by-row writer that ``write_csv`` replaced."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        # float() drops numpy's spelling: repr(np.float64(2.5)) is 'np.float64(2.5)'
        return repr(float(x))
    return str(x)


def _reference_csv(header, rows) -> str:
    """The cell-by-cell writer that ``write_csv`` must match byte for byte."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _reference_columns(columns) -> str:
    """``_reference_csv`` of the rows of ``columns``, each cell a numpy scalar."""
    return _reference_csv(columns, zip(*columns.values()))


_INT64 = np.iinfo(np.int64)
# special floats: signed zeros, nan, infinities, subnormals and the extremes
_SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -2.5e-320,
            np.finfo(float).max, np.finfo(float).tiny, 1 / 3, 1e300, 0.1]


def _column(n: int):
    """An int64 or a float64 column of ``n`` cells."""
    ints = st.lists(st.integers(_INT64.min, _INT64.max), min_size=n, max_size=n)
    floats = st.lists(st.floats() | st.sampled_from(_SPECIAL), min_size=n, max_size=n)
    return ints.map(lambda v: np.array(v, dtype=np.int64)) | floats.map(np.array)


class TestCsvWriter:
    def test_mixed_cells_match_the_cell_by_cell_writer(self, tmp_path):
        columns = {
            "a": np.array([1, -7, 2 ** 62]),
            "b": np.array([0.1, -0.0, float("nan")]),
            "c": np.array([-0.0, 1e300, float("-inf")]),
            "d": np.array([2.5, 1 / 3, 5e-324]),
        }
        write_csv(tmp_path / "x.csv", columns)
        text = (tmp_path / "x.csv").read_text()
        assert text == _reference_columns(columns)
        assert text.splitlines() == [
            "a,b,c,d", "1,0.1,-0.0,2.5", "-7,-0.0,1e+300,0.3333333333333333",
            "4611686018427387904,nan,-inf,5e-324",
        ]

    def test_no_rows_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "x.csv", {"t": np.arange(0), "loss": np.empty(0)})
        assert (tmp_path / "x.csv").read_bytes() == b"t,loss\n"

    # each example overwrites the one file, so the shared tmp_path is safe
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data(), width=st.integers(1, 5), block=st.sampled_from([1, 2, 3, _BLOCK_ROWS]))
    def test_random_cells_match_the_cell_by_cell_writer(self, tmp_path, data, width, block):
        # small blocks make the at most 8 rows span several of them
        n = data.draw(st.integers(0, 8))
        columns = {f"c{i}": data.draw(_column(n)) for i in range(width)}
        with mock.patch.object(reporting, "_BLOCK_ROWS", block):
            write_csv(tmp_path / "x.csv", columns)
        assert (tmp_path / "x.csv").read_bytes() == _reference_columns(columns).encode()

    @pytest.mark.parametrize("dtype", [np.float64, np.int64], ids=["float64", "int64"])
    def test_extreme_cells_in_a_later_block_match(self, tmp_path, dtype):
        # every block is spelled alike: the extremes sit past the first one
        values = _SPECIAL if dtype is np.float64 else [_INT64.min, _INT64.max, -1, 0]
        column = np.zeros(2 * _BLOCK_ROWS + 7, dtype=dtype)
        column[_BLOCK_ROWS + 5 : _BLOCK_ROWS + 5 + len(values)] = values
        columns = {"t": np.arange(len(column)), "a": column}
        write_csv(tmp_path / "x.csv", columns)
        assert (tmp_path / "x.csv").read_bytes() == _reference_columns(columns).encode()

    @pytest.mark.parametrize(
        "column",
        [np.array([True, False]), np.array(["x", "y"]), np.zeros((2, 1)), np.array([1, None])],
        ids=["bool", "str", "2-d", "object"],
    )
    def test_a_column_that_is_not_1d_int_or_float_raises(self, tmp_path, column):
        with pytest.raises(ValueError, match="1-D int or float"):
            write_csv(tmp_path / "x.csv", {"t": np.arange(2), "c": column})
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n", [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS])
    def test_tables_around_the_block_size_match(self, tmp_path, n):
        t = np.arange(n)
        columns = {"t": t, "inv": 1 / (t + 1), "third": t % 3}
        write_csv(tmp_path / "x.csv", columns)
        text = (tmp_path / "x.csv").read_text()
        assert text == _reference_columns(columns)
        assert text.count("\n") == n + 1

    @pytest.mark.parametrize(
        "length", [3, _BLOCK_ROWS + 3, 2 * _BLOCK_ROWS + 3],
        ids=["first-block", "later-block", "later-block-long"],
    )
    def test_a_ragged_row_raises(self, tmp_path, length):
        # a column of ``length`` cells beside two of ``n`` leaves rows ragged
        n = 2 * _BLOCK_ROWS
        columns = {"a": np.arange(n), "b": np.zeros(length), "c": np.ones(n)}
        with pytest.raises(ValueError, match="unequal lengths"):
            write_csv(tmp_path / "x.csv", columns)
        assert not (tmp_path / "x.csv").exists()

    def test_a_later_block_of_shorter_rows_raises(self, tmp_path):
        columns = {"a": np.arange(2 * _BLOCK_ROWS), "b": np.zeros(2 * _BLOCK_ROWS)}
        columns["c"] = np.arange(_BLOCK_ROWS)
        with pytest.raises(ValueError, match="unequal lengths"):
            write_csv(tmp_path / "x.csv", columns)
        assert not (tmp_path / "x.csv").exists()

    def test_memory_holds_a_block_not_the_table(self, tmp_path):
        # a regret CSV's shape: an int step and two float columns
        n = 15_000
        t = np.arange(1, n + 1)
        cumulative = np.cumsum(np.linspace(0.1, 2.0, n))
        columns = {"t": t, "c": cumulative, "a": cumulative / t}
        tracemalloc.start()
        try:
            write_csv(tmp_path / "x.csv", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "x.csv").read_text().count("\n") == n + 1
        assert peak < 1.5 * 2 ** 20
