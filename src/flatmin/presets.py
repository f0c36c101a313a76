"""Named presets: landscapes, datasets, and the optimizer settings ``flatmin presets`` lists.

The landscape and dataset presets are data: a landscape preset is its
description plus a table of its wells, a dataset preset its ``make_blobs``
arguments.  A config may name a preset or write the same values out as an
object.
"""

from __future__ import annotations

from dataclasses import asdict

from .errors import ContractViolationError
from .landscapes import LandscapeSpec, WellSpec
from .optim import AdamHyperParams, MIAdamHyperParams

# Landscape-simulation MIAdam extras (switch in steps, 1500-step runs).
SIMULATION_KAPPA = 0.885
SIMULATION_SWITCH_STEP = 1400
SIMULATION_TOTAL_STEPS = 1500


# name -> description and wells as (center, depth, width), in the order the
# landscape sums them (the order fixes the loss bits); every base level is 0
LANDSCAPE_PRESETS = {
    "landscape-A": {
        "description": "one wide flat well between two narrow deep wells",
        "wells": (((-1.0, -1.0), 2.0, 0.18), ((0.5, 0.5), 2.5, 1.3), ((2.0, 2.0), 2.0, 0.18)),
    },
    "landscape-B": {
        "description": "3x3 checkerboard of sharp and flat wells over [-2,3]^2",
        "wells": (  # row by row
            ((-1.5, -1.5), 1.5, 0.15), ((-1.5, 0.5), 1.0, 0.8), ((-1.5, 2.5), 1.5, 0.15),
            ((0.5, -1.5), 1.0, 0.8), ((0.5, 0.5), 1.5, 0.15), ((0.5, 2.5), 1.0, 0.8),
            ((2.5, -1.5), 1.5, 0.15), ((2.5, 0.5), 1.0, 0.8), ((2.5, 2.5), 1.5, 0.15),
        ),
    },
}


# name -> the ``make_blobs`` arguments other than the seed
DATASET_PRESETS = {
    "blobs-4c": {"classes": 4, "per_class": 500, "spread": 1.0, "n_features": 20},
}


def get_landscape(name: str) -> LandscapeSpec:
    if name not in LANDSCAPE_PRESETS:
        raise ContractViolationError(f"unknown landscape preset {name!r}")
    return LandscapeSpec(wells=tuple(WellSpec(*w) for w in LANDSCAPE_PRESETS[name]["wells"]))


def list_presets() -> list[dict]:
    """Names, kinds, and descriptions of every shipped preset."""
    adam = asdict(AdamHyperParams())
    del adam["eps_in_sqrt"]
    return [
        {
            "name": name,
            "kind": "landscape",
            "description": preset["description"],
            "values": {"wells": len(preset["wells"])},
        }
        for name, preset in LANDSCAPE_PRESETS.items()
    ] + [
        {
            "name": "blobs-4c",
            "kind": "dataset",
            "description": "4-class Gaussian blobs, 500 points per class, 20 features",
            "values": dict(DATASET_PRESETS["blobs-4c"]),
        },
        {
            "name": "table-defaults",
            "kind": "optimizer",
            "description": "the paper's training settings: Adam base plus kappa=0.98, which a "
            "config states with switch_epochs: 20 (the default switch_step: 20 is 20 steps)",
            "values": {
                **adam,
                "kappa": MIAdamHyperParams().kappa,
                "switch_epochs": 20,
            },
        },
        {
            "name": "simulation-defaults",
            "kind": "optimizer",
            "description": "landscape-simulation extras: kappa=0.885, switch at step 1400 of 1500",
            "values": {
                **adam,
                "kappa": SIMULATION_KAPPA,
                "switch_step": SIMULATION_SWITCH_STEP,
                "total_steps": SIMULATION_TOTAL_STEPS,
            },
        },
    ]
