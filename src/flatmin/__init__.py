"""Flat-minima optimization lab.

Optimizer family (SGD / SGDM / Adam / multiple-integral Adam), analytic
2-parameter landscapes, Hessian spectral estimates, closed-form escape
times, regret tracking, and a deterministic config-driven runner.
"""

__version__ = "0.1.0"

from .errors import ContractViolationError, NonFiniteError
from .optim import (
    AdamHyperParams,
    LrSchedule,
    MIAdamHyperParams,
    OptimizerState,
    SgdParams,
    SgdmParams,
    adam_step,
    build_lanes,
    miadam_step,
    schedule_multiplier,
    sgd_step,
    sgdm_step,
)

__all__ = [
    "__version__",
    "ContractViolationError",
    "NonFiniteError",
    "AdamHyperParams",
    "MIAdamHyperParams",
    "OptimizerState",
    "LrSchedule",
    "SgdParams",
    "SgdmParams",
    "sgd_step",
    "sgdm_step",
    "adam_step",
    "miadam_step",
    "schedule_multiplier",
    "build_lanes",
]
