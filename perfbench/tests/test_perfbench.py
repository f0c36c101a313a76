"""Tests of the benchmark's own machinery: tracer, floors and output checks.

Run from the repository root: python -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import flatmin  # noqa: E402
import flatmin.cli  # noqa: E402
from flatmin import harness, landscapes, optim  # noqa: E402
from flatmin.optim import AdamHyperParams, MIAdamHyperParams  # noqa: E402

import floors  # noqa: E402
import workloads  # noqa: E402
from run import layer_metrics, run_child  # noqa: E402
from tracer import LAYER_FUNCTIONS, Span, Tracer, self_times, union_length  # noqa: E402

GRID = {
    "kind": "grid-flatness",
    "seed": 3,
    "output_dir": "unused",
    "landscape": "landscape-B",
    "region": [[-2.0, 3.0], [-2.0, 3.0]],
    "grid": [3, 4],
    "total_steps": 30,
    "schedule": {"kind": "cosine_annealing"},
    "optimizers": [
        {"name": "adam", "kind": "adam", "alpha": 0.005, "weight_decay": 0.0},
        {"name": "mi2", "kind": "miadam", "alpha": 0.005, "weight_decay": 0.0,
         "order_n": 2, "kappa": 0.885, "switch_step": 20},
    ],
}
HESSIAN = {
    "kind": "hessian-report",
    "seed": 5,
    "output_dir": "unused",
    "model": {"layer_sizes": [20, 6, 3], "activation": "relu"},
    "dataset": {"classes": 3, "per_class": 20, "noise_rate": 0.2},
    "epochs": 3,
    "batch_size": 16,
    "optimizers": [
        {"name": "adam", "kind": "adam", "alpha": 1e-3},
        {"name": "mi1", "kind": "miadam", "alpha": 1e-3, "switch_epochs": 1},
    ],
    "hessian": {"max_iters": 5, "probes": 4},
}


def _namespace_snapshot() -> dict:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "flatmin" or name.startswith("flatmin.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _run_bytes(config: dict, out: Path) -> dict:
    harness.run(config, out)
    return {p.name: workloads.canonical_report(p.read_bytes()) if p.name == "report.json"
            else p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("config", [GRID, HESSIAN], ids=["grid", "hessian"])
def test_tracer_keeps_outputs_and_restores_originals(config, tmp_path, monkeypatch):
    monkeypatch.setenv("FLATMIN_THREADS", "2")
    before = _namespace_snapshot()
    submit = harness.ThreadPoolExecutor.submit
    plain = _run_bytes(config, tmp_path / "plain")
    with Tracer() as tracer:
        assert harness.grid_flatness_study is landscapes.grid_flatness_study
        assert flatmin.adam_step is optim.adam_step
        assert flatmin.cli.run_config.__wrapped__ is harness.run_config.__wrapped__
        traced = _run_bytes(config, tmp_path / "traced")
    assert traced == plain
    assert _namespace_snapshot() == before
    assert harness.ThreadPoolExecutor.submit is submit
    assert not hasattr(optim.adam_step, "__wrapped__")
    names = {s.name for s in tracer.spans}
    assert "harness.run_config" in names and "reporting.write_report" in names


def test_pool_thread_spans_have_the_submitting_span_as_parent(tmp_path, monkeypatch):
    monkeypatch.setenv("FLATMIN_THREADS", "2")
    with Tracer() as tracer:
        harness.run(GRID, tmp_path)
    by_id = {s.id: s for s in tracer.spans}
    (root,) = [s for s in tracer.spans if s.name == "harness.run_config"]
    studies = [s for s in tracer.spans if s.name == "landscapes.grid_flatness_study"]
    assert len(studies) == 2
    assert all(s.parent == root.id for s in studies)
    for s in tracer.spans:
        if s.name == "landscapes.batch_loss_grad":
            assert by_id[s.parent].name == "landscapes.grid_flatness_study"
            assert by_id[s.parent].thread == s.thread


def test_every_traced_function_is_wrapped_where_callers_look_it_up():
    with Tracer():
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                assert hasattr(getattr(sys.modules[f"flatmin.{layer}"], name), "__wrapped__")
        for attr in ("normalize_config", "run_config"):
            assert hasattr(getattr(flatmin.cli, attr), "__wrapped__")
        for attr in ("simulate_trajectory", "grid_flatness_study", "loss_and_grad",
                     "top_eigenvalue", "run_regret_experiment", "write_csv"):
            assert hasattr(getattr(harness, attr), "__wrapped__")


def test_self_time_subtracts_the_union_of_children_across_threads():
    spans = [
        Span(0, "root", 1, None, 0.0, 10.0),
        Span(1, "a", 2, 0, 1.0, 5.0),
        Span(2, "b", 3, 0, 3.0, 7.0),  # overlaps a on another thread
        Span(3, "c", 2, 1, 2.0, 3.0),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 4.0, 1: 3.0, 2: 4.0, 3: 1.0}
    assert union_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0


def test_layer_metrics_counts_on_a_small_hessian_run(tmp_path):
    with Tracer() as tracer:
        report = harness.run(HESSIAN, tmp_path)
    w = workloads.Workload("small", "", 0, {}, optimizers=2, epochs=3, step_dim=0)
    m = layer_metrics(w, tracer.spans, report["results"])
    assert m["mlp.eval_passes_per_split"] == 2.0
    assert m["hessian.grad_evals_per_hvp"] == 2.0
    assert m["hessian.hvp.calls"] == 2 * (5 + 4)
    assert m["reporting.rows_written"] == 2 * (3 + 1)
    assert m["reporting.bytes_written"] == sum(p.stat().st_size for p in tmp_path.glob("*.csv"))
    assert m["harness.thread_overlap"] >= 1.0 - 1e-9


@pytest.mark.parametrize(
    "wd, alpha, order, kappa, eps_in_sqrt",
    [(0.0, 0.005, 3, 0.885, False), (5e-5, 3e-5, 1, 0.98, False), (1e-3, 0.1, 2, 0.9, True)],
)
@pytest.mark.parametrize("dim", [1, 4, 1604])
def test_floors_match_the_package_bit_for_bit(wd, alpha, order, kappa, eps_in_sqrt, dim):
    adam = AdamHyperParams(alpha=alpha, weight_decay=wd, eps_in_sqrt=eps_in_sqrt)
    mi = MIAdamHyperParams(adam=adam, order_n=order, kappa=kappa, switch_step=10**9)
    floors.check_floors(adam, mi, dim, seed=dim)


@pytest.mark.parametrize("which", ["adam_floor", "miadam_floor"])
def test_floor_check_rejects_a_floor_off_by_one_ulp(which, monkeypatch):
    real = getattr(floors, which)

    def off_by_one_ulp(b, *args, **kwargs):
        real(b, *args, **kwargs)
        b.theta[0] = np.nextafter(b.theta[0], np.inf)

    monkeypatch.setattr(floors, which, off_by_one_ulp)
    adam = AdamHyperParams(alpha=0.01)
    mi = MIAdamHyperParams(adam=adam, order_n=2, switch_step=100)
    with pytest.raises(floors.FloorMismatch):
        floors.check_floors(adam, mi, 8)


def test_output_check_rejects_non_finite_and_missing_rows(tmp_path):
    w = workloads.WORKLOADS["train-hessian"]
    good = "epoch,train_loss,train_acc,test_loss,test_acc\n" + "1,0.5,0.5,0.5,0.5\n" * 150
    for name in w.files:
        (tmp_path / name).write_text(good if name.endswith(".csv") else '{"results": {}}')
    assert set(workloads.read_outputs(w, tmp_path)) == set(w.files)

    (tmp_path / "metrics_adam.csv").write_text(good.replace("1,0.5,0.5", "1,nan,0.5", 1))
    with pytest.raises(workloads.OutputError, match="non-finite"):
        workloads.read_outputs(w, tmp_path)
    (tmp_path / "metrics_adam.csv").write_text(good.rsplit("1,", 1)[0])
    with pytest.raises(workloads.OutputError, match="lines"):
        workloads.read_outputs(w, tmp_path)
    (tmp_path / "metrics_adam.csv").write_text(good)
    (tmp_path / "report.json").write_text('{"x": NaN}')
    with pytest.raises(workloads.OutputError, match="non-finite"):
        workloads.read_outputs(w, tmp_path)


def test_numpy_scalar_cells_are_numbers_and_digests_ignore_their_spelling():
    plain = b"a,b\n1,-2.5\n"
    wrapped = b"a,b\n1,np.float64(-2.5)\n"
    assert [v for _, v, _ in workloads.csv_numbers(wrapped)] == [1.0, -2.5]
    assert workloads.wrapped_cells({"x.csv": wrapped}) == 1
    assert workloads.digests({"x.csv": plain}) == workloads.digests({"x.csv": wrapped})
    assert workloads.digests({"x.csv": plain}) != workloads.digests({"x.csv": b"a,b\n1,-2.6\n"})


def test_workload_configs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.config(7) == w.config(7)
        assert w.config(7) != w.config(8)
        harness.normalize_config(w.config(7))


def test_run_child_reports_the_childs_cpu_time_not_its_sleep(tmp_path):
    code = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\ntime.sleep(0.3)"
    child = run_child([sys.executable, "-c", code], None, tmp_path / "log", 30.0, tmp_path)
    assert child.code == 0
    assert 0.3 <= child.cpu_s < 0.3 + 0.2
    assert child.wall_s >= 0.6
    assert child.steal_s >= 0.0
