"""Config-driven experiment runner.

Configs are strict JSON, read a block at a time by ``_Block``.  A block's
parser reads each field with ``take``, which parses it with its path, and
``done`` refuses every field that no ``take`` read.  So a block accepts
exactly the fields its parser reads, and no other list names them.  One
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
# Strict config reading

# ``_Block.take`` defaults: a field that must be given, and one that reads None if omitted
_REQUIRED, _OPTIONAL = object(), object()


class JsonObject(dict):
    """A config file's JSON object (its ``object_pairs_hook``), noting the first key it repeats."""

    def __init__(self, pairs: list):
        super().__init__()
        self.repeated = None
        for key, value in pairs:
            if key in self and self.repeated is None:
                self.repeated = key
            self[key] = value


class _Block:
    """A config object, read one field at a time: ``done`` refuses each field no ``take`` read."""

    def __init__(self, raw, path: str):
        if not isinstance(raw, dict):
            raise ContractViolationError(f"{path}: expected an object")
        if getattr(raw, "repeated", None) is not None:  # json.loads alone keeps the last value
            raise ContractViolationError(f"{path}: duplicate key {raw.repeated!r}")
        self.raw, self.path, self.read = raw, path, set()

    def take(self, key: str, parser, default=_REQUIRED, *args, **kwargs):
        """``parser(value, path, *args, **kwargs)`` of the field, or of ``default`` if omitted."""
        self.read.add(key)
        value = self.raw.get(key, default)
        if value is _REQUIRED:
            raise ContractViolationError(f"{self.path}.{key}: missing required field(s)")
        if value is _OPTIONAL:
            return None
        return parser(value, f"{self.path}.{key}", *args, **kwargs)

    def done(self) -> None:
        unknown = set(self.raw) - self.read
        if unknown:
            raise ContractViolationError(f"{self.path}: unknown field(s) {sorted(unknown)}")


# each optimizer kind's typed params, whose fields it reads; miadam then reads its own
_OPT_PARAMS = {
    "sgd": SgdParams, "sgdm": SgdmParams, "adam": AdamHyperParams, "miadam": AdamHyperParams,
}
# optimizer names become parts of output file names
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _same(value, path: str):
    """The value itself, for a field that its reader or typed class checks."""
    return value


def _or_null(parse):
    """``parse``, with a JSON null read as None."""
    return lambda value, path: None if value is None else parse(value, path)


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ContractViolationError(f"{path}: expected true or false, got {value!r}")
    return value


def _int(value, path: str, minimum: int | None = None) -> int:
    """A JSON integer, at least ``minimum`` if given; an integral float counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractViolationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ContractViolationError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _float(value, path: str, minimum: float | None = None) -> float:
    """A finite JSON number, at least ``minimum`` if given; bools, strings, NaN and inf are not."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if number is None or not math.isfinite(number):
        raise ContractViolationError(f"{path}: expected a finite number, got {value!r}")
    if minimum is not None and number < minimum:
        raise ContractViolationError(f"{path}: must be >= {minimum}, got {number!r}")
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


def _optimizer(block, path: str, spe: int | None):
    """A resolved optimizer block and its typed params; ``spe`` is steps per epoch or None."""
    b = _Block(block, path)
    kind = b.take("kind", _same)
    if not isinstance(kind, str) or kind not in _OPT_PARAMS:
        raise ContractViolationError(f"{path}.kind: unknown optimizer kind {kind!r}")
    name = b.take("name", _same)
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise ContractViolationError(
            f"{path}.name: expected a name matching {_NAME_RE.pattern}, got {name!r}"
        )
    out = {"name": name, "kind": kind}
    cls = _OPT_PARAMS[kind]
    for f in fields(cls):  # an omitted field takes the default of the typed params class
        out[f.name] = b.take(f.name, _bool if isinstance(f.default, bool) else _float, f.default)
    # the typed params check the values' ranges
    params = _build(path, cls, **{f.name: out[f.name] for f in fields(cls)})
    if kind == "miadam":
        mi = MIAdamHyperParams
        out["order_n"] = b.take("order_n", _int, mi.order_n)
        out["kappa"] = b.take("kappa", _float, mi.kappa)
        switch = b.take("switch_epochs", _int, _OPTIONAL, 1)
        if switch is not None and spe is None:
            raise ContractViolationError(f"{path}.switch_epochs: epochs need a training run")
        if switch is None:
            out["switch_step"] = switch = b.take("switch_step", _or_null(_int), mi.switch_step)
        else:
            out["switch_epochs"], switch = switch, switch * spe
        override = b.take("pre_switch_lr_override", _or_null(_float), mi.pre_switch_lr_override)
        if override is not None:
            out["pre_switch_lr_override"] = override
        params = _build(path, mi, params, out["order_n"], out["kappa"], switch, override)
    b.done()
    return out, params


def _schedule(block, path: str, steps: int, spe: int | None):
    """A resolved schedule block and its LrSchedule, for a run of ``steps`` steps.

    An omitted or null schedule is constant.  A cosine ``total`` that is
    omitted or null spans the whole run.
    """
    b = _Block({"kind": LrSchedule.kind} if block is None else block, path)
    kind = b.take("kind", _same)
    out = {"kind": kind, "unit": b.take("unit", _same, "steps")}
    if out["unit"] not in ("steps", "epochs"):
        raise ContractViolationError(f"{path}.unit: must be 'steps' or 'epochs'")
    if out["unit"] == "epochs" and spe is None:
        raise ContractViolationError(f"{path}.unit: epochs need a training run")
    scale = spe if out["unit"] == "epochs" else 1
    kwargs = {}  # the LrSchedule fields beyond its kind; an omitted one takes the class default
    if kind == "cosine_annealing":
        out["total"] = b.take("total", _or_null(_int), None)
        out["eta_min"] = kwargs["eta_min"] = b.take("eta_min", _float, LrSchedule.eta_min)
        kwargs["total_steps"] = steps if out["total"] is None else out["total"] * scale
    elif kind == "milestones":
        out["milestones"] = b.take("milestones", _ints, list(LrSchedule.milestones))
        out["gamma"] = kwargs["gamma"] = b.take("gamma", _float, LrSchedule.gamma)
        kwargs["milestones"] = tuple(m * scale for m in out["milestones"])
    elif kind != "constant":
        raise ContractViolationError(f"{path}.kind: unknown schedule kind {kind!r}")
    b.done()
    sched = _build(path, LrSchedule, kind=kind, **kwargs)
    if steps:  # a run evaluates the multiplier at completed steps 0 .. steps - 1
        _build(path, schedule_multiplier, sched, steps - 1)
    return out, sched


def _landscape(block, path: str):
    """A resolved landscape (a preset name or an object) and its LandscapeSpec."""
    if isinstance(block, str):
        return block, _build(path, get_landscape, block)
    b = _Block(block, path)
    wells, specs = [], []
    for i, raw in enumerate(b.take("wells", _list, _REQUIRED, min_length=1)):
        w = _Block(raw, f"{path}.wells[{i}]")
        well = {
            "center": w.take("center", _floats, _REQUIRED, 2),
            "depth": w.take("depth", _float),
            "width": w.take("width", _float),
        }
        w.done()
        specs.append(_build(w.path, WellSpec, tuple(well["center"]), well["depth"], well["width"]))
        wells.append(well)
    base_level = b.take("base_level", _float, LandscapeSpec.base_level)
    b.done()
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
    b = _Block(block, path)
    preset = DATASET_PRESETS["blobs-4c"]  # an omitted field takes this preset's value
    out = {
        "classes": b.take("classes", _int, preset["classes"], 2),
        "per_class": b.take("per_class", _int, preset["per_class"], 1),
        "spread": b.take("spread", _float, preset["spread"]),
        # the class centres sit in features 0 and 1
        "n_features": b.take("n_features", _int, preset["n_features"], 2),
        "noise_rate": b.take("noise_rate", _float, 0.0),
    }
    if (seed := b.take("seed", _int, _OPTIONAL, 0)) is not None:
        out["seed"] = seed
    b.done()
    if out["spread"] <= 0:
        raise ContractViolationError(f"{path}.spread: must be > 0, got {out['spread']!r}")
    if not 0 <= out["noise_rate"] < 1:
        raise ContractViolationError(
            f"{path}.noise_rate: must lie in [0, 1), got {out['noise_rate']!r}"
        )
    n = out["classes"] * out["per_class"]
    if train_size(n) == n:
        raise ContractViolationError(f"{path}: {n} examples leave the 80/20 split no test example")
    blobs = {key: out[key] for key in ("classes", "per_class", "spread", "n_features")}
    blobs["seed"] = out.get("seed", derive_seed(root_seed, "dataset"))
    noise = {"noise_rate": out["noise_rate"], "noise_seed": derive_seed(root_seed, "label-noise")}
    return out if name is None else name, {"blobs": blobs, **noise}


def _model(block, path: str, init_seed: int):
    """A resolved model block and its MlpSpec."""
    b = _Block(block, path)
    out = {
        "layer_sizes": b.take("layer_sizes", _ints, _REQUIRED, min_length=2, minimum=1),
        "activation": b.take("activation", _same, MlpSpec.activation),
    }
    b.done()
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


# the escape scenario's fields and parsers; one that EscapeScenario gives no default is required
_SCENARIO_FIELDS = {
    "alpha": _float, "beta1": _float, "batch_size_b": _int, "delta_L": _float,
    "h_a_eigs": _floats, "h_u_eigs": _floats, "escape_index": _int, "rho": _float,
    "t_tilde": _float,
}


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
    root = _Block(raw, "config")
    kind = root.take("kind", _same, None)
    if kind not in KINDS:
        raise ContractViolationError(f"config.kind: expected one of {KINDS}, got {kind!r}")
    output_dir = root.take("output_dir", _same)
    if not isinstance(output_dir, str) or not output_dir:
        raise ContractViolationError(
            f"config.output_dir: expected a non-empty string, got {output_dir!r}"
        )
    seed = root.take("seed", _int)
    out = {"kind": kind, "seed": seed, "output_dir": output_dir}
    typed = {}
    trains = kind in ("train", "hessian-report")
    if kind in ("trajectory", "grid-flatness"):
        out["landscape"], typed["landscape"] = root.take("landscape", _landscape)
        out["total_steps"] = root.take("total_steps", _int, _REQUIRED, minimum=0)
    if kind == "trajectory":
        out["start"] = root.take("start", _floats, _REQUIRED, 2)
        _check_size(("config.total_steps", 3 * out["total_steps"]))  # the (3, steps, 1) record
    if kind == "grid-flatness":
        region = root.take("region", _list, _REQUIRED, 2)
        out["region"] = [_floats(r, f"config.region[{i}]", 2) for i, r in enumerate(region)]
        for i, (lo, hi) in enumerate(out["region"]):
            if not math.isfinite(hi - lo):  # np.linspace spaces the starts over hi - lo
                raise ContractViolationError(f"config.region[{i}]: span {[lo, hi]} overflows")
        out["grid"] = root.take("grid", _ints, _REQUIRED, 2, minimum=1)
        # the descent's (W, B) planes and (2, B) points for B = rows * cols starts
        planes = ("config.landscape", max(2, len(typed["landscape"].wells)))
        _check_size(planes, *zip(("config.grid[0]", "config.grid[1]"), out["grid"]))
    spe = None
    if trains:
        init_seed = derive_seed(seed, "model-init")
        out["model"], typed["model"] = root.take("model", _model, _REQUIRED, init_seed)
        out["dataset"], typed["dataset"] = root.take("dataset", _dataset, _REQUIRED, seed)
        blobs = typed["dataset"]["blobs"]
        _check_model_fits(out["model"], blobs)
        out["epochs"] = root.take("epochs", _int, _REQUIRED, minimum=1)
        out["batch_size"] = root.take("batch_size", _int, _REQUIRED, minimum=1)
        # the metric columns, the flat parameters, then the inputs and each layer's activations
        _check_size(("config.epochs", out["epochs"]))
        _check_size(("config.model.layer_sizes", typed["model"].num_params))
        examples = [(f"config.dataset.{key}", blobs[key]) for key in ("classes", "per_class")]
        _check_size(*examples, ("config.model.layer_sizes", max(out["model"]["layer_sizes"])))
        n_train = train_size(blobs["classes"] * blobs["per_class"])
        typed["steps_per_epoch"] = spe = steps_per_epoch(n_train, out["batch_size"])
    if kind != "escape-theory":
        blocks = root.take("optimizers", _same)
        if not isinstance(blocks, list) or not blocks:
            raise ContractViolationError("config.optimizers: expected a non-empty list")
        resolved = [
            _optimizer(b, f"config.optimizers[{i}]", spe) for i, b in enumerate(blocks)
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
    if kind not in ("escape-theory", "regret"):
        steps = out["epochs"] * spe if trains else out["total_steps"]
        out["schedule"], typed["schedule"] = root.take("schedule", _schedule, None, steps, spe)
    if kind == "escape-theory":
        s = root.take("scenario", _Block)
        out["scenario"] = {
            k: s.take(k, parse, getattr(EscapeScenario, k, _REQUIRED))
            for k, parse in _SCENARIO_FIELDS.items()
        }
        s.done()
        spec = {k: tuple(v) if isinstance(v, list) else v for k, v in out["scenario"].items()}
        typed["scenario"] = _build(s.path, EscapeScenario, **spec)
    if kind == "regret":
        p = root.take("problem", _Block, {})
        problem = DriftingQuadraticProblem  # an omitted field takes the class default
        out["problem"] = {"dim": p.take("dim", _int, problem.dim, 1)}
        for key in ("target_low", "target_high", "theta0"):
            out["problem"][key] = p.take(key, _float, getattr(problem, key))
        p.done()
        typed["problem"] = _build(
            p.path, problem, **out["problem"], seed=derive_seed(seed, "regret-problem")
        )
        out["horizon"] = root.take("horizon", _int, _REQUIRED, 1)
        # the (horizon, dim) targets
        dims = ("config.problem.dim", out["problem"]["dim"]), ("config.horizon", out["horizon"])
        _check_size(*dims)
        out["lr_decay_h"] = root.take("lr_decay_h", _float, 0.5, 0)
    if kind == "hessian-report":
        h = root.take("hessian", _Block, {})
        out["hessian"] = {
            "max_iters": h.take("max_iters", _int, 200, 1),
            "tol": h.take("tol", _float, 1e-6, 0),
            "probes": h.take("probes", _int, 200, 1),
        }
        h.done()
        # the trace estimate of each probe
        _check_size(("config.hessian.probes", out["hessian"]["probes"]))
    root.done()
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
        columns, final_theta, well, flatness = simulate_trajectory(
            typed["landscape"], cfg["start"], params, typed["schedule"], cfg["total_steps"]
        )
        csvs[f"trajectory_{block['name']}.csv"] = columns
        results[block["name"]] = {
            "final_theta": list(final_theta), "converged_well": well, "flatness": flatness,
        }
    return results


def _run_grid_flatness(cfg: dict, typed: dict, csvs: dict) -> dict:
    names = [b["name"] for b in cfg["optimizers"]]
    starts = grid_starts(cfg["region"], cfg["grid"])
    flats = grid_flatness_study(
        typed["landscape"], starts, typed["optimizers"], typed["schedule"], cfg["total_steps"]
    )
    fixed = (*np.divmod(np.arange(len(starts)), cfg["grid"][1]), *starts.T)
    csvs["flatness.csv"] = dict(zip((*_GRID_COLUMNS, *names), (*fixed, *flats)))
    return {
        name: {"mean_flatness": float(np.mean(f)), "median_flatness": float(np.median(f))}
        for name, f in zip(names, flats)
    }


def _run_train(cfg: dict, typed: dict, csvs: dict) -> dict:
    data = typed["dataset"]
    with np.errstate(over="ignore", invalid="ignore"):  # training reports non-finite inputs
        ds = inject_label_noise(make_blobs(**data["blobs"]), data["noise_rate"], data["noise_seed"])
    shuffle_seed = derive_seed(cfg["seed"], "train-shuffle")
    results = {}
    for block, params in zip(cfg["optimizers"], typed["optimizers"]):
        name = block["name"]
        model, metrics = train_classifier(
            typed["model"], ds, params, typed["schedule"], cfg["epochs"], cfg["batch_size"],
            shuffle_seed,
        )
        csvs[f"metrics_{name}.csv"] = metrics
        final = {key: column[-1].item() for key, column in metrics.items()}
        results[name] = {"final": final, "steps_per_epoch": typed["steps_per_epoch"]}
        if cfg["kind"] != "hessian-report":
            continue
        # a hessian report measures each model right after training it
        h, theta = cfg["hessian"], model.get_flat()

        def grad_fn(p, _model=model):
            _model.set_flat(p)
            return loss_and_grad(_model, ds.x_train, ds.y_train)[1]

        top, hvps, reached = top_eigenvalue(
            grad_fn, theta, h["max_iters"], h["tol"], derive_seed(cfg["seed"], "hessian-top", name)
        )
        trace, stderr = hutchinson_trace(
            grad_fn, theta, h["probes"], derive_seed(cfg["seed"], "hessian-trace", name)
        )
        results[name] = {
            "train": results[name],
            "top_eigenvalue": top,
            "top_tolerance_reached": reached,
            "top_hvp_count": hvps,
            "trace_estimate": trace,
            "trace_stderr": stderr,
            "trace_probes": h["probes"],
        }
    return results


def _run_regret(cfg: dict, typed: dict, csvs: dict) -> dict:
    results = {}
    cumulative, average = run_regret_experiment(
        typed["problem"], typed["optimizers"], cfg["horizon"], lr_decay_h=cfg["lr_decay_h"]
    )
    t = np.arange(1, cfg["horizon"] + 1)
    for block, cum, avg in zip(cfg["optimizers"], cumulative, average):
        name = block["name"]
        csvs[f"regret_{name}.csv"] = {"t": t, "cumulative_regret": cum, "average_regret": avg}
        results[name] = {
            "final_average_regret": float(avg[-1]),
            "final_cumulative_regret": float(cum[-1]),
        }
    return results


# each kind's runner: it computes its results and adds each CSV's columns to ``csvs``
_KINDS = {
    "trajectory": _run_trajectory, "grid-flatness": _run_grid_flatness, "train": _run_train,
    "escape-theory": lambda cfg, typed, csvs: escape_report(typed["scenario"]),
    "regret": _run_regret, "hessian-report": _run_train,
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
        csvs = {}  # file name -> {column name: 1-D array}
        results = _KINDS[cfg["kind"]](cfg, typed, csvs)
        report = {
            "artifact_version": __version__,
            "kind": cfg["kind"],
            "config": cfg,
            "results": results,
            "warnings": _optimizer_warnings(cfg.get("optimizers", [])),
            "duration_s": time.perf_counter() - start_time,
        }
        for name, columns in csvs.items():
            written.append(out_dir / name)
            write_csv(written[-1], columns)
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
