"""Named presets: landscapes, datasets, and the optimizer settings ``flatmin presets`` lists."""

from __future__ import annotations

from dataclasses import asdict

from .errors import ContractViolationError
from .landscapes import LandscapeSpec, WellSpec
from .optim import AdamHyperParams, MIAdamHyperParams

# Landscape-simulation MIAdam extras (switch in steps, 1500-step runs).
SIMULATION_KAPPA = 0.885
SIMULATION_SWITCH_STEP = 1400
SIMULATION_TOTAL_STEPS = 1500


def landscape_a() -> LandscapeSpec:
    """One wide flat well flanked by two narrow deep wells."""
    return LandscapeSpec(
        wells=(
            WellSpec(center=(-1.0, -1.0), depth=2.0, width=0.18),
            WellSpec(center=(0.5, 0.5), depth=2.5, width=1.3),
            WellSpec(center=(2.0, 2.0), depth=2.0, width=0.18),
        )
    )


def landscape_b() -> LandscapeSpec:
    """Checkerboard of sharp and flat wells covering [-2, 3]^2."""
    wells = []
    coords = (-1.5, 0.5, 2.5)
    for i, x in enumerate(coords):
        for j, y in enumerate(coords):
            if (i + j) % 2 == 0:
                wells.append(WellSpec(center=(x, y), depth=1.5, width=0.15))
            else:
                wells.append(WellSpec(center=(x, y), depth=1.0, width=0.8))
    return LandscapeSpec(wells=tuple(wells))


LANDSCAPE_PRESETS = {
    "landscape-A": landscape_a,
    "landscape-B": landscape_b,
}


# name -> the ``make_blobs`` arguments other than the seed
DATASET_PRESETS = {
    "blobs-4c": {"classes": 4, "per_class": 500, "spread": 1.0, "n_features": 20},
}


def get_landscape(name: str) -> LandscapeSpec:
    try:
        return LANDSCAPE_PRESETS[name]()
    except KeyError:
        raise ContractViolationError(f"unknown landscape preset {name!r}") from None


def list_presets() -> list[dict]:
    """Names, kinds, and descriptions of every shipped preset."""
    adam = asdict(AdamHyperParams())
    del adam["eps_in_sqrt"]
    return [
        {
            "name": "landscape-A",
            "kind": "landscape",
            "description": "one wide flat well between two narrow deep wells",
            "values": {"wells": 3},
        },
        {
            "name": "landscape-B",
            "kind": "landscape",
            "description": "3x3 checkerboard of sharp and flat wells over [-2,3]^2",
            "values": {"wells": 9},
        },
        {
            "name": "blobs-4c",
            "kind": "dataset",
            "description": "4-class Gaussian blobs, 500 points per class, 20 features",
            "values": dict(DATASET_PRESETS["blobs-4c"]),
        },
        {
            "name": "table-defaults",
            "kind": "optimizer",
            "description": "training defaults: Adam base plus kappa=0.98, switch at 20 epochs",
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
