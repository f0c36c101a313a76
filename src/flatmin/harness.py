"""Config-driven experiment runner.

Configs are strict JSON: unknown keys are rejected with a field path, and
every run report embeds the fully resolved config so that re-running
from the report reproduces the numeric payload bitwise on one platform.
Outputs are report.json plus kind-specific CSV files; on any failure the
files written so far are removed.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ContractViolationError
from .hessian import hutchinson_trace, top_eigenvalue
from .landscapes import (
    LandscapeSpec,
    WellSpec,
    grid_flatness_study,
    simulate_trajectory,
)
from .mlp import (
    Dataset,
    MlpSpec,
    inject_label_noise,
    loss_and_grad,
    make_blobs,
    steps_per_epoch,
    train_classifier,
)
from .optim import (
    AdamHyperParams,
    LrSchedule,
    MIAdamHyperParams,
    SgdParams,
    SgdmParams,
    TESTED_MAX_ORDER,
)
from .presets import ADAM_DEFAULTS, DATASET_PRESETS, get_landscape
from .reporting import write_csv, write_report
from .seeding import derive_seed
from .theory import DriftingQuadraticProblem, EscapeScenario, escape_report, run_regret_experiment

# switch_step value used when a config disables the MIAdam switch
SWITCH_DISABLED = 2 ** 62

KINDS = ("trajectory", "grid-flatness", "train", "escape-theory", "regret", "hessian-report")


def max_threads() -> int:
    env = os.environ.get("FLATMIN_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ContractViolationError(f"FLATMIN_THREADS must be an integer, got {env!r}")
        if n < 1:
            raise ContractViolationError("FLATMIN_THREADS must be >= 1")
        return n
    return os.cpu_count() or 1


def _map_ordered(fn, items):
    """Apply fn to items, possibly in parallel, returning results in order."""
    items = list(items)
    workers = min(max_threads(), max(len(items), 1))
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Strict config validation


def _check_keys(block: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(block, dict):
        raise ContractViolationError(f"{path}: expected an object")
    unknown = set(block) - allowed
    if unknown:
        raise ContractViolationError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(block)
    if missing:
        raise ContractViolationError(f"{path}: missing required field(s) {sorted(missing)}")


_OPT_COMMON = {"name", "kind"}
_OPT_ADAM_FIELDS = {"alpha", "beta1", "beta2", "epsilon", "weight_decay", "eps_in_sqrt"}
_OPT_FIELDS = {
    "sgd": _OPT_COMMON | {"alpha"},
    "sgdm": _OPT_COMMON | {"alpha", "beta"},
    "adam": _OPT_COMMON | _OPT_ADAM_FIELDS,
    "miadam": _OPT_COMMON
    | _OPT_ADAM_FIELDS
    | {"order_n", "kappa", "switch_step", "switch_epochs", "pre_switch_lr_override"},
}


# optimizer names become parts of output file names
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _int(value, path: str, minimum: int | None = None) -> int:
    """A JSON integer (an integral float counts), at least ``minimum`` if given.

    Bools and strings are rejected.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractViolationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ContractViolationError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _float(value, path: str) -> float:
    """A finite JSON number; bools, strings, NaN and infinities are rejected."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if number is None or not math.isfinite(number):
        raise ContractViolationError(f"{path}: expected a finite number, got {value!r}")
    return number


def _list(value, path: str, length: int | None = None, min_length: int = 0) -> list:
    """A JSON list of exactly ``length`` items, or of at least ``min_length``."""
    if isinstance(value, list) and (
        len(value) == length if length is not None else len(value) >= min_length
    ):
        return value
    want = length if length is not None else f"at least {min_length}"
    raise ContractViolationError(f"{path}: expected a list of {want} items, got {value!r}")


def _floats(value, path: str, length: int | None = None) -> list[float]:
    return [_float(x, f"{path}[{i}]") for i, x in enumerate(_list(value, path, length))]


def _ints(
    value, path: str, length: int | None = None, min_length: int = 0, minimum: int | None = None
) -> list[int]:
    items = _list(value, path, length, min_length)
    return [_int(x, f"{path}[{i}]", minimum) for i, x in enumerate(items)]


def _normalize_optimizer(block: dict, path: str) -> dict:
    _check_keys(block, set().union(*_OPT_FIELDS.values()), {"name", "kind"}, path)
    kind = block["kind"]
    if kind not in _OPT_FIELDS:
        raise ContractViolationError(f"{path}.kind: unknown optimizer kind {kind!r}")
    _check_keys(block, _OPT_FIELDS[kind], {"name", "kind"}, path)
    name = block["name"]
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ContractViolationError(
            f"{path}.name: expected a name matching {_NAME_RE.pattern}, got {name!r}"
        )

    def num(key, default):
        return _float(block.get(key, default), f"{path}.{key}")

    out = {"name": name, "kind": kind}
    if kind == "sgd":
        out["alpha"] = num("alpha", 1e-3)
    elif kind == "sgdm":
        out["alpha"] = num("alpha", 1e-3)
        out["beta"] = num("beta", 0.9)
    else:
        for key, default in ADAM_DEFAULTS.items():
            out[key] = num(key, default)
        out["eps_in_sqrt"] = bool(block.get("eps_in_sqrt", False))
        if kind == "miadam":
            out["order_n"] = _int(block.get("order_n", 1), f"{path}.order_n")
            out["kappa"] = num("kappa", 0.98)
            if "switch_epochs" in block:
                out["switch_epochs"] = _int(block["switch_epochs"], f"{path}.switch_epochs")
            else:
                switch = block.get("switch_step", 20)
                out["switch_step"] = None if switch is None else _int(switch, f"{path}.switch_step")
            if block.get("pre_switch_lr_override") is not None:
                out["pre_switch_lr_override"] = num("pre_switch_lr_override", None)
    return out


def _optimizer_params(block: dict, spe: int | None = None):
    kind = block["kind"]
    if kind == "sgd":
        return SgdParams(alpha=block["alpha"])
    if kind == "sgdm":
        return SgdmParams(alpha=block["alpha"], beta=block["beta"])
    adam = AdamHyperParams(
        alpha=block["alpha"],
        beta1=block["beta1"],
        beta2=block["beta2"],
        epsilon=block["epsilon"],
        weight_decay=block["weight_decay"],
        eps_in_sqrt=block["eps_in_sqrt"],
    )
    if kind == "adam":
        return adam
    if "switch_epochs" in block:
        if spe is None:
            raise ContractViolationError(
                f"optimizer {block['name']!r}: switch_epochs only valid for training runs"
            )
        switch = block["switch_epochs"] * spe
    else:
        switch = block["switch_step"]
        if switch is None:
            switch = SWITCH_DISABLED
    return MIAdamHyperParams(
        adam=adam,
        order_n=block["order_n"],
        kappa=block["kappa"],
        switch_step=switch,
        pre_switch_lr_override=block.get("pre_switch_lr_override"),
    )


def _normalize_schedule(block: dict | None, path: str) -> dict:
    if block is None:
        return {"kind": "constant", "unit": "steps"}
    allowed = {"kind", "total", "eta_min", "milestones", "gamma", "unit"}
    _check_keys(block, allowed, {"kind"}, path)
    out = {"kind": block["kind"], "unit": block.get("unit", "steps")}
    if out["unit"] not in ("steps", "epochs"):
        raise ContractViolationError(f"{path}.unit: must be 'steps' or 'epochs'")
    if block["kind"] == "cosine_annealing":
        out["total"] = _int(block["total"], f"{path}.total") if "total" in block else None
        out["eta_min"] = _float(block.get("eta_min", 0.0), f"{path}.eta_min")
    elif block["kind"] == "milestones":
        out["milestones"] = _ints(block.get("milestones", []), f"{path}.milestones")
        out["gamma"] = _float(block.get("gamma", 0.1), f"{path}.gamma")
    elif block["kind"] != "constant":
        raise ContractViolationError(f"{path}.kind: unknown schedule kind {block['kind']!r}")
    return out


def _build_schedule(norm: dict, total_steps: int, spe: int = 1) -> LrSchedule:
    scale = spe if norm["unit"] == "epochs" else 1
    if norm["kind"] == "cosine_annealing":
        total = norm.get("total")
        total = total_steps if total is None else total * scale
        return LrSchedule(kind="cosine_annealing", total_steps=total, eta_min=norm["eta_min"])
    if norm["kind"] == "milestones":
        return LrSchedule(
            kind="milestones",
            milestones=tuple(m * scale for m in norm["milestones"]),
            gamma=norm["gamma"],
        )
    return LrSchedule(kind="constant")


def _normalize_landscape(block, path: str):
    if isinstance(block, str):
        get_landscape(block)  # validate the preset name early
        return block
    allowed = {"wells", "base_level"}
    _check_keys(block, allowed, {"wells"}, path)
    wells = []
    for i, w in enumerate(_list(block["wells"], f"{path}.wells", min_length=1)):
        wpath = f"{path}.wells[{i}]"
        _check_keys(w, {"center", "depth", "width"}, {"center", "depth", "width"}, wpath)
        wells.append(
            {
                "center": _floats(w["center"], f"{wpath}.center", 2),
                "depth": _float(w["depth"], f"{wpath}.depth"),
                "width": _float(w["width"], f"{wpath}.width"),
            }
        )
    base_level = _float(block.get("base_level", 0.0), f"{path}.base_level")
    return {"wells": wells, "base_level": base_level}


def _build_landscape(norm) -> LandscapeSpec:
    if isinstance(norm, str):
        return get_landscape(norm)
    return LandscapeSpec(
        wells=tuple(
            WellSpec(center=(w["center"][0], w["center"][1]), depth=w["depth"], width=w["width"])
            for w in norm["wells"]
        ),
        base_level=norm["base_level"],
    )


def _normalize_dataset(block, path: str):
    if isinstance(block, str):
        if block not in DATASET_PRESETS:
            raise ContractViolationError(f"{path}: unknown dataset preset {block!r}")
        return block
    allowed = {"classes", "per_class", "spread", "seed", "n_features", "noise_rate"}
    _check_keys(block, allowed, set(), path)
    out = {
        "classes": _int(block.get("classes", 4), f"{path}.classes"),
        "per_class": _int(block.get("per_class", 500), f"{path}.per_class"),
        "spread": _float(block.get("spread", 1.0), f"{path}.spread"),
        "n_features": _int(block.get("n_features", 20), f"{path}.n_features"),
        "noise_rate": _float(block.get("noise_rate", 0.0), f"{path}.noise_rate"),
    }
    if out["spread"] <= 0:
        raise ContractViolationError(f"{path}.spread: must be > 0, got {out['spread']!r}")
    if "seed" in block:
        out["seed"] = _int(block["seed"], f"{path}.seed")
    return out


def _build_dataset(norm, root_seed: int) -> Dataset:
    if isinstance(norm, str):
        return DATASET_PRESETS[norm](seed=derive_seed(root_seed, "dataset"))
    seed = norm.get("seed", derive_seed(root_seed, "dataset"))
    ds = make_blobs(
        classes=norm["classes"],
        per_class=norm["per_class"],
        spread=norm["spread"],
        seed=seed,
        n_features=norm["n_features"],
    )
    if norm["noise_rate"] > 0:
        ds = inject_label_noise(ds, norm["noise_rate"], derive_seed(root_seed, "label-noise"))
    return ds


def _normalize_model(block: dict, path: str) -> dict:
    _check_keys(block, {"layer_sizes", "activation"}, {"layer_sizes"}, path)
    return {
        "layer_sizes": _ints(block["layer_sizes"], f"{path}.layer_sizes", min_length=2, minimum=1),
        "activation": block.get("activation", "tanh"),
    }


_KIND_FIELDS = {
    "trajectory": {"landscape", "start", "total_steps", "optimizers", "schedule"},
    "grid-flatness": {"landscape", "region", "grid", "total_steps", "optimizers", "schedule"},
    "train": {"model", "dataset", "epochs", "batch_size", "optimizers", "schedule"},
    "escape-theory": {"scenario"},
    "regret": {"problem", "horizon", "lr_decay_h", "optimizers"},
    "hessian-report": {"model", "dataset", "epochs", "batch_size", "optimizers", "schedule", "hessian"},
}
_KIND_REQUIRED = {
    "trajectory": {"landscape", "start", "total_steps", "optimizers"},
    "grid-flatness": {"landscape", "region", "grid", "total_steps", "optimizers"},
    "train": {"model", "dataset", "epochs", "batch_size", "optimizers"},
    "escape-theory": {"scenario"},
    "regret": {"horizon", "optimizers"},
    "hessian-report": {"model", "dataset", "epochs", "batch_size", "optimizers"},
}


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict and fill every default in."""
    base = {"kind", "seed", "output_dir"}
    if not isinstance(raw, dict):
        raise ContractViolationError("config root: expected an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ContractViolationError(f"config.kind: expected one of {KINDS}, got {kind!r}")
    _check_keys(raw, base | _KIND_FIELDS[kind], base | _KIND_REQUIRED[kind], "config")

    out = {
        "kind": kind,
        "seed": _int(raw["seed"], "config.seed"),
        "output_dir": str(raw["output_dir"]),
    }
    if "optimizers" in _KIND_FIELDS[kind] and "optimizers" in raw:
        blocks = raw["optimizers"]
        if not isinstance(blocks, list) or not blocks:
            raise ContractViolationError("config.optimizers: expected a non-empty list")
        out["optimizers"] = [
            _normalize_optimizer(b, f"config.optimizers[{i}]") for i, b in enumerate(blocks)
        ]
        names = [b["name"] for b in out["optimizers"]]
        if len(set(names)) != len(names):
            raise ContractViolationError("config.optimizers: names must be unique")
    if "schedule" in _KIND_FIELDS[kind]:
        out["schedule"] = _normalize_schedule(raw.get("schedule"), "config.schedule")

    if kind in ("trajectory", "grid-flatness"):
        out["landscape"] = _normalize_landscape(raw["landscape"], "config.landscape")
        out["total_steps"] = _int(raw["total_steps"], "config.total_steps", minimum=0)
    if kind == "trajectory":
        out["start"] = _floats(raw["start"], "config.start", 2)
    if kind == "grid-flatness":
        region = _list(raw["region"], "config.region", 2)
        out["region"] = [_floats(r, f"config.region[{i}]", 2) for i, r in enumerate(region)]
        out["grid"] = _ints(raw["grid"], "config.grid", 2, minimum=1)
    if kind in ("train", "hessian-report"):
        out["model"] = _normalize_model(raw["model"], "config.model")
        out["dataset"] = _normalize_dataset(raw["dataset"], "config.dataset")
        out["epochs"] = _int(raw["epochs"], "config.epochs", minimum=1)
        out["batch_size"] = _int(raw["batch_size"], "config.batch_size", minimum=1)
    if kind == "escape-theory":
        s = raw["scenario"]
        allowed = {
            "alpha", "beta1", "batch_size_b", "delta_L", "h_a_eigs", "h_u_eigs",
            "escape_index", "rho", "t_tilde",
        }
        _check_keys(s, allowed, allowed - {"t_tilde"}, "config.scenario")
        sp = "config.scenario"
        out["scenario"] = {
            "alpha": _float(s["alpha"], f"{sp}.alpha"),
            "beta1": _float(s["beta1"], f"{sp}.beta1"),
            "batch_size_b": _int(s["batch_size_b"], f"{sp}.batch_size_b"),
            "delta_L": _float(s["delta_L"], f"{sp}.delta_L"),
            "h_a_eigs": _floats(s["h_a_eigs"], f"{sp}.h_a_eigs"),
            "h_u_eigs": _floats(s["h_u_eigs"], f"{sp}.h_u_eigs"),
            "escape_index": _int(s["escape_index"], f"{sp}.escape_index"),
            "rho": _float(s["rho"], f"{sp}.rho"),
            "t_tilde": _float(s.get("t_tilde", 1.0), f"{sp}.t_tilde"),
        }
    if kind == "regret":
        p = raw.get("problem", {})
        _check_keys(p, {"dim", "target_low", "target_high", "theta0"}, set(), "config.problem")
        out["problem"] = {
            "dim": _int(p.get("dim", 4), "config.problem.dim"),
            "target_low": _float(p.get("target_low", -1.0), "config.problem.target_low"),
            "target_high": _float(p.get("target_high", 1.0), "config.problem.target_high"),
            "theta0": _float(p.get("theta0", 1.0), "config.problem.theta0"),
        }
        out["horizon"] = _int(raw["horizon"], "config.horizon", minimum=1)
        out["lr_decay_h"] = _float(raw.get("lr_decay_h", 0.5), "config.lr_decay_h")
    if kind == "hessian-report":
        h = raw.get("hessian", {})
        _check_keys(h, {"max_iters", "tol", "probes"}, set(), "config.hessian")
        out["hessian"] = {
            "max_iters": _int(h.get("max_iters", 200), "config.hessian.max_iters"),
            "tol": _float(h.get("tol", 1e-6), "config.hessian.tol"),
            "probes": _int(h.get("probes", 200), "config.hessian.probes"),
        }
    return out


# ---------------------------------------------------------------------------
# Execution


def _optimizer_warnings(blocks: list[dict]) -> list[str]:
    warnings = []
    for b in blocks:
        if b["kind"] == "miadam":
            if b.get("pre_switch_lr_override") is not None:
                warnings.append(
                    f"optimizer {b['name']!r}: pre-switch learning-rate override active "
                    f"(replaces alpha**order_n)"
                )
            if b["order_n"] > TESTED_MAX_ORDER:
                warnings.append(
                    f"optimizer {b['name']!r}: order_n={b['order_n']} is above the tested range "
                    f"(1..{TESTED_MAX_ORDER})"
                )
    return warnings


class _RunWriter:
    """Funnels all file writes for one run and cleans up on failure."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []
        # directories this run creates, deepest first
        self.created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header, rows):
        path = self.out_dir / name
        write_csv(path, header, rows)
        self.written.append(path)

    def report(self, report: dict):
        path = self.out_dir / "report.json"
        write_report(path, report)
        self.written.append(path)

    def cleanup(self):
        """Remove the files written so far, then each created directory left empty."""
        for path in self.written:
            path.unlink(missing_ok=True)
        for directory in self.created:
            try:
                directory.rmdir()
            except OSError:  # not empty: something else wrote there
                break


def _run_trajectory(cfg: dict, writer: _RunWriter) -> dict:
    spec = _build_landscape(cfg["landscape"])
    sched = _build_schedule(cfg["schedule"], cfg["total_steps"])
    start = (cfg["start"][0], cfg["start"][1])

    def one(block):
        params = _optimizer_params(block)
        return block["name"], simulate_trajectory(spec, start, params, sched, cfg["total_steps"])

    results = {}
    for name, rec in _map_ordered(one, cfg["optimizers"]):
        writer.csv(
            f"trajectory_{name}.csv",
            ["t", "theta1", "theta2", "loss"],
            [(t, th[0], th[1], loss) for t, th, loss in rec.steps],
        )
        results[name] = {
            "final_theta": list(rec.final_theta),
            "converged_well": rec.converged_well,
            "flatness": rec.flatness,
        }
    return results


def _run_grid_flatness(cfg: dict, writer: _RunWriter) -> dict:
    spec = _build_landscape(cfg["landscape"])
    sched = _build_schedule(cfg["schedule"], cfg["total_steps"])
    region = (tuple(cfg["region"][0]), tuple(cfg["region"][1]))
    grid = (cfg["grid"][0], cfg["grid"][1])
    names = [b["name"] for b in cfg["optimizers"]]

    def one(block):
        return grid_flatness_study(
            spec, region, grid, [_optimizer_params(block)], sched, cfg["total_steps"]
        )[0]

    flats = _map_ordered(one, cfg["optimizers"])
    from .landscapes import grid_starts

    starts = grid_starts(region, grid)
    rows, cols = grid
    table = []
    for i in range(len(starts)):
        table.append(
            [i // cols, i % cols, starts[i, 0], starts[i, 1]] + [float(f[i]) for f in flats]
        )
    writer.csv("flatness.csv", ["row", "col", "theta1_0", "theta2_0"] + names, table)
    return {
        name: {"mean_flatness": float(np.mean(f)), "median_flatness": float(np.median(f))}
        for name, f in zip(names, flats)
    }


def _run_train(cfg: dict, writer: _RunWriter) -> dict:
    seed = cfg["seed"]
    ds = _build_dataset(cfg["dataset"], seed)
    spe = steps_per_epoch(len(ds.train_idx), cfg["batch_size"])
    total_steps = spe * cfg["epochs"]
    sched = _build_schedule(cfg["schedule"], total_steps, spe=spe)
    model_spec = MlpSpec(
        layer_sizes=tuple(cfg["model"]["layer_sizes"]),
        activation=cfg["model"]["activation"],
        init_seed=derive_seed(seed, "model-init"),
    )
    shuffle_seed = derive_seed(seed, "train-shuffle")

    def one(block):
        params = _optimizer_params(block, spe=spe)
        model, metrics = train_classifier(
            model_spec, ds, params, sched, cfg["epochs"], cfg["batch_size"], shuffle_seed
        )
        return block["name"], model, metrics

    results = {}
    trained = {}
    for name, model, metrics in _map_ordered(one, cfg["optimizers"]):
        writer.csv(
            f"metrics_{name}.csv",
            ["epoch", "train_loss", "train_acc", "test_loss", "test_acc"],
            [
                (m["epoch"], m["train_loss"], m["train_acc"], m["test_loss"], m["test_acc"])
                for m in metrics
            ],
        )
        results[name] = {"final": metrics[-1], "steps_per_epoch": spe}
        trained[name] = model
    return results, trained, ds


def _run_escape_theory(cfg: dict) -> dict:
    s = cfg["scenario"]
    scenario = EscapeScenario(
        alpha=s["alpha"],
        beta1=s["beta1"],
        batch_size_b=s["batch_size_b"],
        delta_L=s["delta_L"],
        h_a_eigs=tuple(s["h_a_eigs"]),
        h_u_eigs=tuple(s["h_u_eigs"]),
        escape_index=s["escape_index"],
        rho=s["rho"],
        t_tilde=s["t_tilde"],
    )
    return escape_report(scenario)


def _run_regret(cfg: dict, writer: _RunWriter) -> dict:
    p = cfg["problem"]
    problem = DriftingQuadraticProblem(
        dim=p["dim"],
        target_low=p["target_low"],
        target_high=p["target_high"],
        theta0=p["theta0"],
        seed=derive_seed(cfg["seed"], "regret-problem"),
    )

    def one(block):
        params = _optimizer_params(block)
        return run_regret_experiment(
            problem, params, cfg["horizon"], lr_decay_h=cfg["lr_decay_h"], label=block["name"]
        )

    results = {}
    for series in _map_ordered(one, cfg["optimizers"]):
        ts = np.arange(1, series.horizon + 1)
        writer.csv(
            f"regret_{series.optimizer_label}.csv",
            ["t", "cumulative_regret", "average_regret"],
            zip(ts.tolist(), series.cumulative_regret.tolist(), series.average_regret.tolist()),
        )
        results[series.optimizer_label] = {
            "final_average_regret": float(series.average_regret[-1]),
            "final_cumulative_regret": float(series.cumulative_regret[-1]),
        }
    return results


def _run_hessian_report(cfg: dict, writer: _RunWriter) -> dict:
    train_results, trained, ds = _run_train(cfg, writer)
    h = cfg["hessian"]
    x_train = ds.inputs[ds.train_idx]
    y_train = ds.labels[ds.train_idx]
    results = {}
    for block in cfg["optimizers"]:
        name = block["name"]
        model = trained[name]
        theta = model.get_flat()

        def grad_fn(p, _model=model):
            _model.set_flat(p)
            _, g, _ = loss_and_grad(_model, x_train, y_train)
            return g

        top = top_eigenvalue(
            grad_fn,
            theta,
            max_iters=h["max_iters"],
            tol=h["tol"],
            seed=derive_seed(cfg["seed"], "hessian-top", name),
        )
        trace = hutchinson_trace(
            grad_fn,
            theta,
            probes=h["probes"],
            seed=derive_seed(cfg["seed"], "hessian-trace", name),
        )
        model.set_flat(theta)
        results[name] = {
            "train": train_results[name],
            "top_eigenvalue": top.top_eigenvalue,
            "top_tolerance_reached": top.tolerance_reached,
            "top_hvp_count": top.hvp_count,
            "trace_estimate": trace.trace_estimate,
            "trace_stderr": trace.trace_stderr,
            "trace_probes": trace.probe_count,
        }
    return results


def run_config(cfg: dict, output_dir: str | Path | None = None) -> dict:
    """Execute a normalized config; returns the report dict (also written to disk)."""
    out_dir = Path(output_dir if output_dir is not None else cfg["output_dir"])
    writer = _RunWriter(out_dir)
    start_time = time.perf_counter()
    try:
        kind = cfg["kind"]
        if kind == "trajectory":
            results = _run_trajectory(cfg, writer)
        elif kind == "grid-flatness":
            results = _run_grid_flatness(cfg, writer)
        elif kind == "train":
            results = _run_train(cfg, writer)[0]
        elif kind == "escape-theory":
            results = _run_escape_theory(cfg)
        elif kind == "regret":
            results = _run_regret(cfg, writer)
        else:
            results = _run_hessian_report(cfg, writer)
        report = {
            "artifact_version": __version__,
            "kind": kind,
            "config": cfg,
            "results": results,
            "warnings": _optimizer_warnings(cfg.get("optimizers", [])),
            "duration_s": time.perf_counter() - start_time,
        }
        writer.report(report)
        return report
    except BaseException:
        writer.cleanup()
        raise


def run(config: dict, output_dir: str | Path | None = None) -> dict:
    """Validate and execute a raw config dict."""
    return run_config(normalize_config(config), output_dir)
