"""Tests for config validation, the runner, and output artifacts."""

import json

import numpy as np
import pytest

from flatmin.errors import ContractViolationError
from flatmin.harness import SWITCH_DISABLED, normalize_config, run, run_config
from flatmin.seeding import derive_seed, splitmix64


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
        norm = normalize_config(cfg)
        with pytest.raises(ContractViolationError, match="switch_epochs"):
            run_config(norm)

    def test_null_switch_step_disables(self, tmp_path):
        cfg = trajectory_config(tmp_path)
        cfg["optimizers"] = [{"name": "mi", "kind": "miadam", "switch_step": None}]
        norm = normalize_config(cfg)
        assert norm["optimizers"][0]["switch_step"] is None
        assert SWITCH_DISABLED > 10 ** 18

    def test_defaults_filled(self, tmp_path):
        norm = normalize_config(trajectory_config(tmp_path))
        adam = norm["optimizers"][0]
        assert adam["beta1"] == 0.9 and adam["beta2"] == 0.999
        assert adam["weight_decay"] == 5e-5 and adam["eps_in_sqrt"] is False
        assert norm["schedule"] == {"kind": "constant", "unit": "steps"}


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

    def test_failure_cleans_outputs(self, tmp_path):
        cfg = trajectory_config(tmp_path / "out")
        cfg["optimizers"] = [
            {"name": "adam", "kind": "adam", "alpha": 0.05},
            {"name": "mi", "kind": "miadam", "switch_epochs": 10},  # invalid outside train
        ]
        with pytest.raises(ContractViolationError):
            run(cfg)
        leftover = list((tmp_path / "out").iterdir()) if (tmp_path / "out").exists() else []
        assert leftover == []

    def test_warnings_for_override_and_high_order(self, tmp_path):
        cfg = trajectory_config(tmp_path / "out")
        cfg["optimizers"] = [
            {"name": "mi", "kind": "miadam", "switch_step": 10,
             "order_n": 4, "pre_switch_lr_override": 0.01},
        ]
        report = run(cfg)
        joined = " ".join(report["warnings"])
        assert "override" in joined and "order_n=4" in joined

    def test_threaded_training_matches_single_thread(self, tmp_path, monkeypatch):
        # Two optimizers train two models at once on two pool threads (what
        # the default thread count gives on any machine with 2+ CPUs).  Each
        # model owns its workspace, so the bytes must not depend on threads.
        cfg = {
            "kind": "train",
            "seed": 8,
            "model": {"layer_sizes": [20, 64, 4], "activation": "tanh"},
            "dataset": {"classes": 4, "per_class": 40, "noise_rate": 0.2},
            "epochs": 6,
            "batch_size": 16,
            "optimizers": [
                {"name": "adam", "kind": "adam", "alpha": 1e-2},
                {"name": "mi1", "kind": "miadam", "alpha": 1e-2, "switch_epochs": 2},
            ],
        }
        reports = {}
        for threads in ("2", "1"):
            monkeypatch.setenv("FLATMIN_THREADS", threads)
            reports[threads] = run(dict(cfg, output_dir=str(tmp_path / threads)))
        assert reports["2"]["results"] == reports["1"]["results"]
        for name in ("metrics_adam.csv", "metrics_mi1.csv"):
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    def test_single_thread_env_matches_parallel(self, tmp_path, monkeypatch):
        r1 = run(trajectory_config(tmp_path / "a"))
        monkeypatch.setenv("FLATMIN_THREADS", "1")
        r2 = run(trajectory_config(tmp_path / "b"))
        assert r1["results"] == r2["results"]
