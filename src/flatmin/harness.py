"""Config-driven experiment runner.

Configs are strict JSON: unknown keys are rejected with a field path.  One
function, ``_resolve``, turns a config into its resolved form (every default
filled in) and its typed run (the optimizer params, schedule, landscape,
model, scenario and problem it describes), building each typed object once.
``normalize_config`` returns the resolved form, and ``run_config`` resolves
whatever it is given before it runs, so an invalid config never starts.  The
resolved form resolves to itself, and every run report embeds it, so a
report's config runs again unchanged and reproduces the numeric payload
bitwise on one platform.  Outputs are report.json plus kind-specific CSV
files.  A run computes every result before it writes its first file; on any
failure the files written so far are removed.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ContractViolationError
from .hessian import hutchinson_trace, top_eigenvalue
from .landscapes import (
    LandscapeSpec,
    WellSpec,
    grid_flatness_study,
    grid_starts,
    simulate_trajectory,
)
from .mlp import (
    MlpSpec,
    inject_label_noise,
    loss_and_grad,
    make_blobs,
    steps_per_epoch,
    train_classifier,
    train_size,
)
from .optim import (
    AdamHyperParams, LrSchedule, MIAdamHyperParams, SgdParams, SgdmParams, schedule_multiplier,
)
from .presets import DATASET_PRESETS, get_landscape
from .reporting import write_csv, write_report
from .seeding import derive_seed
from .theory import DriftingQuadraticProblem, EscapeScenario, escape_report, run_regret_experiment

# MIAdam orders above this run, but the report warns that they are untested
TESTED_MAX_ORDER = 3


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
        names = ", ".join(f"{path}.{name}" for name in sorted(missing))
        raise ContractViolationError(f"{names}: missing required field(s)")


# each optimizer kind's typed params, whose fields are its config fields;
# miadam adds its own fields to Adam's
_OPT_PARAMS = {
    "sgd": SgdParams, "sgdm": SgdmParams, "adam": AdamHyperParams, "miadam": AdamHyperParams,
}
_MIADAM_FIELDS = {"order_n", "kappa", "switch_step", "switch_epochs", "pre_switch_lr_override"}
_OPT_FIELDS = {
    kind: {"name", "kind", *(f.name for f in fields(cls))} for kind, cls in _OPT_PARAMS.items()
}
_OPT_FIELDS["miadam"] |= _MIADAM_FIELDS


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


def _check_size(*dims: tuple[str, int]) -> None:
    """Refuse a float64 array of (path, length) dimensions that numpy cannot index.

    numpy fails on more than ``intp`` max bytes with a ValueError or an
    IndexError, not MemoryError.  The error names the first path at which
    the running size passes that limit.
    """
    nbytes = 8
    for path, length in dims:
        nbytes *= length
        if nbytes > np.iinfo(np.intp).max:
            raise ContractViolationError(f"{path}: {nbytes} bytes is beyond numpy's array limit")


def _build(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with any range error it raises prefixed by ``path``."""
    try:
        return make(*args, **kwargs)
    except ContractViolationError as err:
        raise ContractViolationError(f"{path}: {err}") from None


def _optimizer(block: dict, path: str, trains: bool, spe: int):
    """A resolved optimizer block and its typed params; ``spe`` is steps per epoch."""
    _check_keys(block, set().union(*_OPT_FIELDS.values()), {"name", "kind"}, path)
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in _OPT_FIELDS:
        raise ContractViolationError(f"{path}.kind: unknown optimizer kind {kind!r}")
    _check_keys(block, _OPT_FIELDS[kind], {"name", "kind"}, path)
    name = block["name"]
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ContractViolationError(
            f"{path}.name: expected a name matching {_NAME_RE.pattern}, got {name!r}"
        )

    out = {"name": name, "kind": kind}
    cls = _OPT_PARAMS[kind]
    for f in fields(cls):
        # an omitted field takes the default of the typed params class
        value = block.get(f.name, f.default)
        if not isinstance(f.default, bool):
            value = _float(value, f"{path}.{f.name}")
        elif not isinstance(value, bool):
            raise ContractViolationError(f"{path}.{f.name}: expected true or false, got {value!r}")
        out[f.name] = value
    # the typed params check the values' ranges
    params = _build(path, cls, **{f.name: out[f.name] for f in fields(cls)})
    if kind != "miadam":
        return out, params
    mi = MIAdamHyperParams
    out["order_n"] = _int(block.get("order_n", mi.order_n), f"{path}.order_n")
    out["kappa"] = _float(block.get("kappa", mi.kappa), f"{path}.kappa")
    if "switch_epochs" in block:
        if not trains:
            raise ContractViolationError(f"{path}.switch_epochs: only valid for training runs")
        out["switch_epochs"] = _int(block["switch_epochs"], f"{path}.switch_epochs", 1)
        switch = out["switch_epochs"] * spe
    else:
        switch = block.get("switch_step", mi.switch_step)
        if switch is not None:
            switch = _int(switch, f"{path}.switch_step")
        out["switch_step"] = switch
    override = block.get("pre_switch_lr_override")
    if override is not None:
        override = _float(override, f"{path}.pre_switch_lr_override")
        out["pre_switch_lr_override"] = override
    return out, _build(
        path, mi, adam=params, order_n=out["order_n"], kappa=out["kappa"], switch_step=switch,
        pre_switch_lr_override=override,
    )


def _schedule(block: dict | None, path: str, steps: int, spe: int):
    """A resolved schedule block and its LrSchedule, for a run of ``steps`` steps.

    A cosine ``total`` that is omitted or null spans the whole run.
    """
    block = {"kind": "constant"} if block is None else block
    _check_keys(block, {"kind", "total", "eta_min", "milestones", "gamma", "unit"}, {"kind"}, path)
    out = {"kind": block["kind"], "unit": block.get("unit", "steps")}
    if out["unit"] not in ("steps", "epochs"):
        raise ContractViolationError(f"{path}.unit: must be 'steps' or 'epochs'")
    scale = spe if out["unit"] == "epochs" else 1
    kwargs = {}  # the LrSchedule fields beyond its kind; an omitted one takes the class default
    if block["kind"] == "cosine_annealing":
        total = block.get("total")
        out["total"] = None if total is None else _int(total, f"{path}.total")
        eta_min = block.get("eta_min", LrSchedule.eta_min)
        out["eta_min"] = kwargs["eta_min"] = _float(eta_min, f"{path}.eta_min")
        kwargs["total_steps"] = steps if total is None else out["total"] * scale
    elif block["kind"] == "milestones":
        milestones = block.get("milestones", list(LrSchedule.milestones))
        out["milestones"] = _ints(milestones, f"{path}.milestones")
        gamma = block.get("gamma", LrSchedule.gamma)
        out["gamma"] = kwargs["gamma"] = _float(gamma, f"{path}.gamma")
        kwargs["milestones"] = tuple(m * scale for m in out["milestones"])
    elif block["kind"] != "constant":
        raise ContractViolationError(f"{path}.kind: unknown schedule kind {block['kind']!r}")
    sched = _build(path, LrSchedule, kind=block["kind"], **kwargs)
    if steps:  # a run evaluates the multiplier at completed steps 0 .. steps - 1
        _build(path, schedule_multiplier, sched, steps - 1)
    return out, sched


def _landscape(block, path: str):
    """A resolved landscape (a preset name or an object) and its LandscapeSpec."""
    if isinstance(block, str):
        return block, _build(path, get_landscape, block)
    allowed = {"wells", "base_level"}
    _check_keys(block, allowed, {"wells"}, path)
    wells, specs = [], []
    for i, w in enumerate(_list(block["wells"], f"{path}.wells", min_length=1)):
        wpath = f"{path}.wells[{i}]"
        _check_keys(w, {"center", "depth", "width"}, {"center", "depth", "width"}, wpath)
        well = {
            "center": _floats(w["center"], f"{wpath}.center", 2),
            "depth": _float(w["depth"], f"{wpath}.depth"),
            "width": _float(w["width"], f"{wpath}.width"),
        }
        specs.append(_build(wpath, WellSpec, tuple(well["center"]), well["depth"], well["width"]))
        wells.append(well)
    base_level = _float(block.get("base_level", LandscapeSpec.base_level), f"{path}.base_level")
    spec = LandscapeSpec(wells=tuple(specs), base_level=base_level)
    return {"wells": wells, "base_level": base_level}, spec


def _dataset(block, path: str, root_seed: int):
    """A resolved dataset and the recipe a run builds it from.

    A preset name resolves to itself and builds as the object it names.  The
    recipe holds the ``make_blobs`` arguments ("blobs") and the "noise_rate"
    and "noise_seed" of ``inject_label_noise``; a dataset with no seed of its
    own takes one derived from the config's.
    """
    name = None
    if isinstance(block, str):
        if block not in DATASET_PRESETS:
            raise ContractViolationError(f"{path}: unknown dataset preset {block!r}")
        name, block = block, DATASET_PRESETS[block]
    allowed = {"classes", "per_class", "spread", "seed", "n_features", "noise_rate"}
    _check_keys(block, allowed, set(), path)
    preset = DATASET_PRESETS["blobs-4c"]  # an omitted field takes this preset's value
    out = {
        "classes": _int(block.get("classes", preset["classes"]), f"{path}.classes", 2),
        "per_class": _int(block.get("per_class", preset["per_class"]), f"{path}.per_class", 1),
        "spread": _float(block.get("spread", preset["spread"]), f"{path}.spread"),
        # the class centres sit in features 0 and 1
        "n_features": _int(block.get("n_features", preset["n_features"]), f"{path}.n_features", 2),
        "noise_rate": _float(block.get("noise_rate", 0.0), f"{path}.noise_rate"),
    }
    if out["spread"] <= 0:
        raise ContractViolationError(f"{path}.spread: must be > 0, got {out['spread']!r}")
    if not 0 <= out["noise_rate"] < 1:
        raise ContractViolationError(
            f"{path}.noise_rate: must lie in [0, 1), got {out['noise_rate']!r}"
        )
    n = out["classes"] * out["per_class"]
    if train_size(n) == n:
        raise ContractViolationError(f"{path}: {n} examples leave the 80/20 split no test example")
    if "seed" in block:
        out["seed"] = _int(block["seed"], f"{path}.seed", 0)
    blobs = {key: out[key] for key in ("classes", "per_class", "spread", "n_features")}
    blobs["seed"] = out.get("seed", derive_seed(root_seed, "dataset"))
    noise = {"noise_rate": out["noise_rate"], "noise_seed": derive_seed(root_seed, "label-noise")}
    return out if name is None else name, {"blobs": blobs, **noise}


def _model(block: dict, path: str, init_seed: int):
    """A resolved model block and its MlpSpec."""
    _check_keys(block, {"layer_sizes", "activation"}, {"layer_sizes"}, path)
    out = {
        "layer_sizes": _ints(block["layer_sizes"], f"{path}.layer_sizes", min_length=2, minimum=1),
        "activation": block.get("activation", MlpSpec.activation),
    }
    sizes = tuple(out["layer_sizes"])
    return out, _build(path, MlpSpec, sizes, activation=out["activation"], init_seed=init_seed)


def _check_model_fits(model: dict, blobs: dict) -> None:
    sizes = model["layer_sizes"]
    if sizes[0] != blobs["n_features"] or sizes[-1] < blobs["classes"]:
        raise ContractViolationError(
            f"config.model.layer_sizes: {sizes} does not fit a dataset of "
            f"{blobs['n_features']} features and {blobs['classes']} classes "
            "(the input width must equal n_features, the output width be >= classes)"
        )


# the escape scenario's fields and their parsers; only t_tilde may be left out
_SCENARIO_FIELDS = {
    "alpha": _float, "beta1": _float, "batch_size_b": _int, "delta_L": _float,
    "h_a_eigs": _floats, "h_u_eigs": _floats, "escape_index": _int, "rho": _float,
    "t_tilde": _float,
}


# the kind fields a config may leave out; every other one is required
_KIND_OPTIONAL = {"schedule", "problem", "lr_decay_h", "hessian"}
# the fixed columns of a grid run's flatness.csv; each optimizer adds one more
_GRID_COLUMNS = ("row", "col", "theta1_0", "theta2_0")


def _resolve(raw: dict) -> tuple[dict, dict]:
    """Validate a raw config; return its resolved form and its typed run.

    The resolved form fills every default in and resolves to itself.  The
    typed run maps each block to the object built from it ("optimizers" to
    their typed params, "schedule", "landscape", "model", "scenario",
    "problem") and, for a training run, holds its "steps_per_epoch" and the
    "dataset" recipe, whose seeds are derived here.
    """
    base = {"kind", "seed", "output_dir"}
    if not isinstance(raw, dict):
        raise ContractViolationError("config root: expected an object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ContractViolationError(f"config.kind: expected one of {KINDS}, got {kind!r}")
    kind_fields = _KINDS[kind][0]
    _check_keys(raw, base | kind_fields, base | (kind_fields - _KIND_OPTIONAL), "config")
    if not isinstance(raw["output_dir"], str) or not raw["output_dir"]:
        raise ContractViolationError(
            f"config.output_dir: expected a non-empty string, got {raw['output_dir']!r}"
        )

    seed = _int(raw["seed"], "config.seed")
    out = {"kind": kind, "seed": seed, "output_dir": raw["output_dir"]}
    typed = {}
    trains = kind in ("train", "hessian-report")
    if kind in ("trajectory", "grid-flatness"):
        out["landscape"], typed["landscape"] = _landscape(raw["landscape"], "config.landscape")
        out["total_steps"] = _int(raw["total_steps"], "config.total_steps", minimum=0)
    if kind == "trajectory":
        out["start"] = _floats(raw["start"], "config.start", 2)
    if kind == "grid-flatness":
        region = _list(raw["region"], "config.region", 2)
        out["region"] = [_floats(r, f"config.region[{i}]", 2) for i, r in enumerate(region)]
        out["grid"] = _ints(raw["grid"], "config.grid", 2, minimum=1)
        # the descent's (W, B) planes and (2, B) points for B = rows * cols starts
        planes = ("config.landscape", max(2, len(typed["landscape"].wells)))
        _check_size(planes, *zip(("config.grid[0]", "config.grid[1]"), out["grid"]))
    spe = 1
    if trains:
        init_seed = derive_seed(seed, "model-init")
        out["model"], typed["model"] = _model(raw["model"], "config.model", init_seed)
        out["dataset"], typed["dataset"] = _dataset(raw["dataset"], "config.dataset", seed)
        blobs = typed["dataset"]["blobs"]
        _check_model_fits(out["model"], blobs)
        out["epochs"] = _int(raw["epochs"], "config.epochs", minimum=1)
        out["batch_size"] = _int(raw["batch_size"], "config.batch_size", minimum=1)
        # the flat parameters, then the inputs and each layer's activations
        _check_size(("config.model.layer_sizes", typed["model"].num_params))
        examples = [(f"config.dataset.{key}", blobs[key]) for key in ("classes", "per_class")]
        _check_size(*examples, ("config.model.layer_sizes", max(out["model"]["layer_sizes"])))
        n_train = train_size(blobs["classes"] * blobs["per_class"])
        typed["steps_per_epoch"] = spe = steps_per_epoch(n_train, out["batch_size"])
    if "optimizers" in kind_fields:
        blocks = raw["optimizers"]
        if not isinstance(blocks, list) or not blocks:
            raise ContractViolationError("config.optimizers: expected a non-empty list")
        resolved = [
            _optimizer(b, f"config.optimizers[{i}]", trains, spe) for i, b in enumerate(blocks)
        ]
        out["optimizers"] = [block for block, _ in resolved]
        typed["optimizers"] = [params for _, params in resolved]
        names = [b["name"] for b in out["optimizers"]]
        if len(set(names)) != len(names):
            raise ContractViolationError("config.optimizers: names must be unique")
        for i, name in enumerate(names):
            if kind == "grid-flatness" and name in _GRID_COLUMNS:
                raise ContractViolationError(
                    f"config.optimizers[{i}].name: {name!r} is a fixed column of flatness.csv"
                )
    if "schedule" in kind_fields:
        steps = out["epochs"] * spe if trains else out["total_steps"]
        out["schedule"], typed["schedule"] = _schedule(
            raw.get("schedule"), "config.schedule", steps, spe
        )
    if kind == "escape-theory":
        sp = "config.scenario"
        _check_keys(raw["scenario"], set(_SCENARIO_FIELDS), set(_SCENARIO_FIELDS) - {"t_tilde"}, sp)
        s = {"t_tilde": EscapeScenario.t_tilde, **raw["scenario"]}
        out["scenario"] = {k: parse(s[k], f"{sp}.{k}") for k, parse in _SCENARIO_FIELDS.items()}
        spec = {k: tuple(v) if isinstance(v, list) else v for k, v in out["scenario"].items()}
        typed["scenario"] = _build(sp, EscapeScenario, **spec)
    if kind == "regret":
        p = raw.get("problem", {})
        _check_keys(p, {"dim", "target_low", "target_high", "theta0"}, set(), "config.problem")
        problem = DriftingQuadraticProblem  # an omitted field takes the class default
        out["problem"] = {"dim": _int(p.get("dim", problem.dim), "config.problem.dim", 1)}
        for key in ("target_low", "target_high", "theta0"):
            out["problem"][key] = _float(p.get(key, getattr(problem, key)), f"config.problem.{key}")
        typed["problem"] = _build(
            "config.problem", problem, **out["problem"], seed=derive_seed(seed, "regret-problem")
        )
        out["horizon"] = _int(raw["horizon"], "config.horizon", minimum=1)
        # the (horizon, dim) targets
        dims = ("config.problem.dim", out["problem"]["dim"]), ("config.horizon", out["horizon"])
        _check_size(*dims)
        out["lr_decay_h"] = _float(raw.get("lr_decay_h", 0.5), "config.lr_decay_h")
        if out["lr_decay_h"] < 0:
            raise ContractViolationError(
                f"config.lr_decay_h: must be >= 0, got {out['lr_decay_h']!r}"
            )
    if kind == "hessian-report":
        h = raw.get("hessian", {})
        _check_keys(h, {"max_iters", "tol", "probes"}, set(), "config.hessian")
        out["hessian"] = {
            "max_iters": _int(h.get("max_iters", 200), "config.hessian.max_iters", 1),
            "tol": _float(h.get("tol", 1e-6), "config.hessian.tol"),
            "probes": _int(h.get("probes", 200), "config.hessian.probes", 1),
        }
        # the (probes, parameters) Rademacher probes
        probes = ("config.hessian.probes", out["hessian"]["probes"])
        _check_size(("config.model.layer_sizes", typed["model"].num_params), probes)
    return out, typed


def normalize_config(raw: dict) -> dict:
    """Validate a raw config dict and fill every default in; the result normalizes to itself."""
    return _resolve(raw)[0]


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


def _run_trajectory(cfg: dict, typed: dict, csvs: dict) -> dict:
    results = {}
    for block, params in zip(cfg["optimizers"], typed["optimizers"]):
        name = block["name"]
        rec = simulate_trajectory(
            typed["landscape"], cfg["start"], params, typed["schedule"], cfg["total_steps"]
        )
        csvs[f"trajectory_{name}.csv"] = (
            ["t", "theta1", "theta2", "loss"],
            ((t, th[0], th[1], loss) for t, th, loss in rec.steps),
        )
        results[name] = {
            "final_theta": list(rec.final_theta),
            "converged_well": rec.converged_well,
            "flatness": rec.flatness,
        }
    return results


def _run_grid_flatness(cfg: dict, typed: dict, csvs: dict) -> dict:
    region, grid = cfg["region"], cfg["grid"]
    names = [b["name"] for b in cfg["optimizers"]]
    flats = grid_flatness_study(
        typed["landscape"], region, grid, typed["optimizers"], typed["schedule"], cfg["total_steps"]
    )
    cols = grid[1]
    table = [
        [i // cols, i % cols, x, y] + [float(f[i]) for f in flats]
        for i, (x, y) in enumerate(grid_starts(region, grid))
    ]
    csvs["flatness.csv"] = ([*_GRID_COLUMNS, *names], table)
    return {
        name: {"mean_flatness": float(np.mean(f)), "median_flatness": float(np.median(f))}
        for name, f in zip(names, flats)
    }


def _run_train(cfg: dict, typed: dict, csvs: dict) -> dict:
    data = typed["dataset"]
    ds = inject_label_noise(make_blobs(**data["blobs"]), data["noise_rate"], data["noise_seed"])
    shuffle_seed = derive_seed(cfg["seed"], "train-shuffle")
    results = {}
    for block, params in zip(cfg["optimizers"], typed["optimizers"]):
        name = block["name"]
        model, metrics = train_classifier(
            typed["model"], ds, params, typed["schedule"], cfg["epochs"], cfg["batch_size"],
            shuffle_seed,
        )
        csvs[f"metrics_{name}.csv"] = (list(metrics[0]), [list(m.values()) for m in metrics])
        results[name] = {"final": metrics[-1], "steps_per_epoch": typed["steps_per_epoch"]}
        if cfg["kind"] != "hessian-report":
            continue
        # a hessian report measures each model right after training it
        h = cfg["hessian"]
        x_train = ds.inputs[ds.train_idx]
        y_train = ds.labels[ds.train_idx]
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
        results[name] = {
            "train": results[name],
            "top_eigenvalue": top.top_eigenvalue,
            "top_tolerance_reached": top.tolerance_reached,
            "top_hvp_count": top.hvp_count,
            "trace_estimate": trace.trace_estimate,
            "trace_stderr": trace.trace_stderr,
            "trace_probes": trace.probe_count,
        }
    return results


def _regret_rows(series):
    # a generator, so the rows' Python lists are built only as the CSV is written
    ts = range(1, len(series.cumulative_regret) + 1)
    yield from zip(ts, series.cumulative_regret.tolist(), series.average_regret.tolist())


def _run_regret(cfg: dict, typed: dict, csvs: dict) -> dict:
    results = {}
    all_series = run_regret_experiment(
        typed["problem"], typed["optimizers"], cfg["horizon"], lr_decay_h=cfg["lr_decay_h"]
    )
    for block, series in zip(cfg["optimizers"], all_series):
        name = block["name"]
        csvs[f"regret_{name}.csv"] = (
            ["t", "cumulative_regret", "average_regret"],
            _regret_rows(series),
        )
        results[name] = {
            "final_average_regret": float(series.average_regret[-1]),
            "final_cumulative_regret": float(series.cumulative_regret[-1]),
        }
    return results


_TRAIN_FIELDS = {"model", "dataset", "epochs", "batch_size", "optimizers", "schedule"}
# each kind's fields and its runner; a runner computes its results and adds
# each CSV to ``csvs``, and none writes a file
_KINDS = {
    "trajectory": ({"landscape", "start", "total_steps", "optimizers", "schedule"}, _run_trajectory),
    "grid-flatness": (
        {"landscape", "region", "grid", "total_steps", "optimizers", "schedule"},
        _run_grid_flatness,
    ),
    "train": (_TRAIN_FIELDS, _run_train),
    "escape-theory": ({"scenario"}, lambda cfg, typed, csvs: escape_report(typed["scenario"])),
    "regret": ({"problem", "horizon", "lr_decay_h", "optimizers"}, _run_regret),
    "hessian-report": (_TRAIN_FIELDS | {"hessian"}, _run_train),
}
# a tuple, so that a membership test on an unhashable kind returns False
KINDS = tuple(_KINDS)


def run_config(cfg: dict, output_dir: str | Path | None = None) -> dict:
    """Validate and execute a config; returns the report dict (also written to disk).

    An invalid config raises before anything is created.  Every result is
    computed before the first file is written.  On any failure the files
    written so far are removed, then each directory the run created,
    deepest first, as long as it is empty.
    """
    cfg, typed = _resolve(cfg)
    out_dir = Path(output_dir if output_dir is not None else cfg["output_dir"])
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    written: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        start_time = time.perf_counter()
        csvs = {}  # file name -> (header, rows)
        results = _KINDS[cfg["kind"]][1](cfg, typed, csvs)
        report = {
            "artifact_version": __version__,
            "kind": cfg["kind"],
            "config": cfg,
            "results": results,
            "warnings": _optimizer_warnings(cfg.get("optimizers", [])),
            "duration_s": time.perf_counter() - start_time,
        }
        for name, (header, rows) in csvs.items():
            written.append(out_dir / name)
            write_csv(written[-1], header, rows)
        written.append(out_dir / "report.json")
        write_report(written[-1], report)
        return report
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        for directory in created:
            try:
                directory.rmdir()
            except OSError:  # not empty: something else wrote there
                break
        raise


def run(config: dict, output_dir: str | Path | None = None) -> dict:
    """Validate and execute a raw config dict."""
    return run_config(config, output_dir)
