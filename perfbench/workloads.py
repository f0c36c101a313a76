"""The benchmark's workloads: seeded `flatmin run` configs and their output checks.

Each workload is one config kind at a fixed size. The benchmark seed picks the
config's own ``seed`` (and, for the grid, a small jitter of the region), so two
runs with one seed feed `flatmin run` the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
# The embedded config records this, not the per-repetition --output-dir, so
# report.json bytes do not depend on where a repetition wrote.
CONFIG_OUTPUT_DIR = "perfbench-out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # optimizer lane-updates one run performs
    updates: int
    # expected output file -> line count (header included)
    files: dict
    # optimizer count and epochs, for per-layer ratios
    optimizers: int
    epochs: int
    # optimizer dimension the floor ratios are timed at
    step_dim: int

    def config(self, seed: int) -> dict:
        return _BUILDERS[self.name](random.Random(f"{self.name}:{seed}"))


GRID_ROWS = GRID_COLS = 32
GRID_STEPS = 500
# the MIAdam switch sits where the paper's 1400-of-1500 puts it
GRID_SWITCH = 467
REGRET_HORIZON = 15_000
TRAIN_EPOCHS = 150
TRAIN_PER_CLASS = 150
TRAIN_BATCH = 128
# 80 % of 4 * 150 points train; ceil(480 / 128) steps per epoch
TRAIN_STEPS_PER_EPOCH = 4


def _grid_config(rng: random.Random) -> dict:
    jitter = [round(rng.uniform(-0.05, 0.05), 6) for _ in range(4)]
    adam = {"kind": "adam", "alpha": 0.005, "weight_decay": 0.0}
    mi = dict(adam, kind="miadam", kappa=0.885, switch_step=GRID_SWITCH)
    return {
        "kind": "grid-flatness",
        "seed": rng.randrange(2**31),
        "output_dir": CONFIG_OUTPUT_DIR,
        "landscape": "landscape-B",
        "region": [[-2.0 + jitter[0], 3.0 + jitter[1]], [-2.0 + jitter[2], 3.0 + jitter[3]]],
        "grid": [GRID_ROWS, GRID_COLS],
        "total_steps": GRID_STEPS,
        "schedule": {"kind": "cosine_annealing"},
        "optimizers": [
            dict(adam, name="adam"),
            dict(mi, name="miadam2", order_n=2),
            dict(mi, name="miadam3", order_n=3),
        ],
    }


def _regret_config(rng: random.Random) -> dict:
    return {
        "kind": "regret",
        "seed": rng.randrange(2**31),
        "output_dir": CONFIG_OUTPUT_DIR,
        "horizon": REGRET_HORIZON,
        "optimizers": [
            {"name": "adam", "kind": "adam", "alpha": 0.1, "weight_decay": 0.0},
            {"name": "miadam1", "kind": "miadam", "alpha": 0.1, "weight_decay": 0.0,
             "order_n": 1, "kappa": 0.98, "switch_step": None},
        ],
    }


def _train_config(rng: random.Random) -> dict:
    return {
        "kind": "hessian-report",
        "seed": rng.randrange(2**31),
        "output_dir": CONFIG_OUTPUT_DIR,
        "model": {"layer_sizes": [20, 64, 4], "activation": "relu"},
        "dataset": {"classes": 4, "per_class": TRAIN_PER_CLASS, "spread": 1.0,
                    "noise_rate": 0.4},
        "epochs": TRAIN_EPOCHS,
        "batch_size": TRAIN_BATCH,
        "schedule": {"kind": "cosine_annealing"},
        "optimizers": [
            {"name": "adam", "kind": "adam", "alpha": 3e-5},
            {"name": "miadam1", "kind": "miadam", "alpha": 3e-5, "order_n": 1,
             "kappa": 0.98, "switch_epochs": 40},
        ],
        # tol 0: power iteration always spends its 200 HVPs. Whether it
        # converges sooner depends on the seed (4 of 10 seeds did at the
        # default 1e-6), which made the work of a run bimodal across seeds.
        "hessian": {"max_iters": 200, "tol": 0.0, "probes": 300},
    }


_BUILDERS = {
    "grid-sweep": _grid_config,
    "regret-stream": _regret_config,
    "train-hessian": _train_config,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-sweep",
            why="landscapes at batch 1024 and optim at d=2048 for 500 steps, 3 optimizers; writes almost nothing",
            updates=GRID_ROWS * GRID_COLS * GRID_STEPS * 3,
            files={"report.json": None, "flatness.csv": GRID_ROWS * GRID_COLS + 1},
            optimizers=3,
            epochs=0,
            step_dim=2 * GRID_ROWS * GRID_COLS,
        ),
        Workload(
            name="regret-stream",
            why="per-call overhead: 30k optim steps at d=4 in the theory loop; the write-heavy one (30k CSV lines); no landscapes",
            updates=REGRET_HORIZON * 2,
            files={
                "report.json": None,
                "regret_adam.csv": REGRET_HORIZON + 1,
                "regret_miadam1.csv": REGRET_HORIZON + 1,
            },
            optimizers=2,
            epochs=0,
            step_dim=4,
        ),
        Workload(
            name="train-hessian",
            why="mlp training at d=1604 then power iteration and Hutchinson HVPs; no landscapes",
            updates=TRAIN_EPOCHS * TRAIN_STEPS_PER_EPOCH * 2,
            files={
                "report.json": None,
                "metrics_adam.csv": TRAIN_EPOCHS + 1,
                "metrics_miadam1.csv": TRAIN_EPOCHS + 1,
            },
            optimizers=2,
            epochs=TRAIN_EPOCHS,
            step_dim=20 * 64 + 64 + 64 * 4 + 4,
        ),
    )
}


# ---------------------------------------------------------------------------
# Output checks


class OutputError(Exception):
    """A run's outputs are missing, malformed or not finite."""


def canonical_report(raw: bytes) -> bytes:
    """report.json without its wall-clock ``duration_s``, re-serialised."""
    report = json.loads(raw)
    report.pop("duration_s", None)
    return json.dumps(report, indent=2, sort_keys=True).encode()


def _check_finite_json(value, path: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise OutputError(f"{path}: non-finite number {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite_json(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite_json(item, f"{path}[{i}]")


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def csv_numbers(data: bytes):
    """Yield (line number, cell value, wrapped) for every data cell of a CSV.

    ``wrapped`` marks a cell written as ``np.float64(x)``: numpy 2 changed the
    scalar repr, and flatmin's CSV writer passes numpy scalars to ``repr``.
    Such a cell still holds a number, so it is checked and reported, not failed.
    """
    for line_no, row in enumerate(data.decode().splitlines()[1:], start=2):
        for cell in row.split(","):
            match = _NUMPY_REPR.fullmatch(cell)
            yield line_no, float(match.group(1) if match else cell), bool(match)


def read_outputs(workload: Workload, out_dir: Path) -> dict:
    """Check one run's output directory; return {file name: comparable bytes}.

    Raises OutputError unless exactly the expected files exist, each CSV has
    the expected line count, and every number in every file is finite.
    report.json is returned without its ``duration_s``.
    """
    present = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    if present != sorted(workload.files):
        raise OutputError(f"expected files {sorted(workload.files)}, found {present}")
    outputs = {}
    for name, lines in workload.files.items():
        data = (out_dir / name).read_bytes()
        if name == "report.json":
            # json parses NaN/Infinity literals, so they reach the finite check
            _check_finite_json(json.loads(data), name)
            outputs[name] = canonical_report(data)
            continue
        found = data.count(b"\n")
        if found != lines:
            raise OutputError(f"{name}: {found} lines, expected {lines}")
        try:
            for line_no, value, _ in csv_numbers(data):
                if not math.isfinite(value):
                    raise OutputError(f"{name}:{line_no}: non-finite value {value!r}")
        except ValueError as err:
            raise OutputError(f"{name}: {err}") from None
        outputs[name] = data
    return outputs


def wrapped_cells(outputs: dict) -> int:
    """Number of CSV cells written as ``np.float64(x)`` instead of a plain number."""
    return sum(
        wrapped
        for name, data in outputs.items()
        if name.endswith(".csv")
        for _, _, wrapped in csv_numbers(data)
    )


def digests(outputs: dict) -> dict:
    """SHA-256 of each output's content.

    A CSV is hashed as its header plus every value re-printed with ``repr``
    of a Python float, so the digest pins each number bit for bit but not the
    spelling of a cell; report.json is hashed without ``duration_s``.
    """
    out = {}
    for name, data in sorted(outputs.items()):
        if name.endswith(".csv"):
            header = data.split(b"\n", 1)[0]
            values = ",".join(repr(v) for _, v, _ in csv_numbers(data)).encode()
            data = header + b"\n" + values
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def paper_orderings(workload: Workload, outputs: dict) -> dict:
    """The paper's qualitative claims on this workload; reported, not gated."""
    results = json.loads(outputs["report.json"])["results"]
    if workload.name == "grid-sweep":
        adam, mi3 = results["adam"]["mean_flatness"], results["miadam3"]["mean_flatness"]
        return {"miadam3_flatter_than_adam": mi3 < adam}
    if workload.name == "regret-stream":
        adam = results["adam"]["final_average_regret"]
        mi = results["miadam1"]["final_average_regret"]
        return {"unswitched_regret_over_10x_adam": mi > 10.0 * adam}
    return {}
