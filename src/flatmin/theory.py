"""Closed-form mean escape times and online-convex regret runs.

The escape-time calculators evaluate the quasi-equilibrium /
low-temperature closed forms for the expected time an optimizer takes to
leave a sharp minimum through a saddle.  The two expressions coincide at
continuous time 1; for larger continuous times the multiple-integral
variant escapes strictly faster.

The regret runner probes convergence: on a drifting quadratic stream,
Adam's average regret decays while the unswitched multiple-integral
variant keeps accumulating, so its average regret stays bounded away
from zero.  It steps all of a run's optimizers in one loop, each as one
lane (row) of a shared (optimizers, dim) array, and draws the stream once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NonFiniteError
from .optim import OptimizerParams, build_lanes


@dataclass(frozen=True)
class EscapeScenario:
    """Inputs to the escape-time closed forms.

    ``h_a_eigs`` / ``h_u_eigs`` are the full Hessian spectra at the sharp
    minimum and the saddle; ``escape_index`` marks the saddle's single
    negative eigenvalue (the escape direction), and the matching entry of
    ``h_a_eigs`` is the curvature of the minimum along that direction.
    """

    alpha: float
    beta1: float
    batch_size_b: int
    delta_L: float
    h_a_eigs: tuple[float, ...]
    h_u_eigs: tuple[float, ...]
    escape_index: int
    rho: float
    t_tilde: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractViolationError("alpha must be > 0")
        if not (0 <= self.beta1 < 1):
            raise ContractViolationError("beta1 must lie in [0, 1)")
        if self.batch_size_b < 1:
            raise ContractViolationError("batch size must be >= 1")
        if self.delta_L <= 0:
            raise ContractViolationError("delta_L must be > 0")
        if len(self.h_a_eigs) != len(self.h_u_eigs):
            raise ContractViolationError("spectra must have equal dimension")
        if not (0 <= self.escape_index < len(self.h_u_eigs)):
            raise ContractViolationError("escape_index out of range")
        if any(x <= 0 for x in self.h_a_eigs):
            raise ContractViolationError("all minimum eigenvalues must be > 0")
        if 0 in self.h_u_eigs:  # both escape times would be 0
            raise ContractViolationError("saddle eigenvalues must be nonzero")
        negatives = [i for i, x in enumerate(self.h_u_eigs) if x < 0]
        if negatives != [self.escape_index]:
            raise ContractViolationError(
                "saddle spectrum must have exactly one negative entry, at escape_index"
            )
        if not (0 <= self.rho <= 1):
            raise ContractViolationError("rho must lie in [0, 1]")
        if self.t_tilde <= 0:
            raise ContractViolationError("t_tilde must be > 0")

    @property
    def h_ae(self) -> float:
        return self.h_a_eigs[self.escape_index]

    @property
    def h_ue_abs(self) -> float:
        return abs(self.h_u_eigs[self.escape_index])

    @property
    def det_ratio(self) -> float:
        """|det(H_a^{-1} H_u)| from the two spectra."""
        r = 1.0
        for ha, hu in zip(self.h_a_eigs, self.h_u_eigs):
            r *= abs(hu) / ha
        return r


def _escape_time(s: EscapeScenario, t_tilde: float) -> float:
    # Escape times legitimately explode for deep sharp wells: a factor that
    # overflows, or a denominator that underflows to 0, gives +inf, not an error.
    # So does an overflowed factor times one that underflowed to 0 (inf * 0 = NaN).
    try:
        b = float(s.batch_size_b)
        hue = s.h_ue_abs
        prefactor = math.pi * (
            math.sqrt(1.0 + 4.0 * s.alpha * math.sqrt(b * hue) / (t_tilde * (1.0 - s.beta1)))
            + 1.0
        )
        geometry = s.det_ratio ** 0.25 / hue
        exponent = (2.0 * math.sqrt(b) * s.delta_L / (t_tilde * s.alpha)) * (
            s.rho / math.sqrt(s.h_ae) + (1.0 - s.rho) / math.sqrt(hue)
        )
        phi = prefactor * geometry * math.exp(exponent)
        return math.inf if math.isnan(phi) else phi
    except (OverflowError, ZeroDivisionError):
        return math.inf


def escape_time_miadam1(s: EscapeScenario) -> float:
    """Mean escape time with the first-order multiple-integral term, at s.t_tilde."""
    return _escape_time(s, s.t_tilde)


def escape_time_adam(s: EscapeScenario) -> float:
    """Mean escape time of plain Adam (the t-tilde-free form)."""
    return _escape_time(s, 1.0)


def escape_report(s: EscapeScenario) -> dict:
    """Both escape times, their ratio (None unless both are finite and non-zero), overflow flag."""
    phi_mi = escape_time_miadam1(s)
    phi_adam = escape_time_adam(s)
    finite = math.isfinite(phi_mi) and math.isfinite(phi_adam)
    return {
        "phi_miadam1": phi_mi,
        "phi_adam": phi_adam,
        "ratio_miadam1_over_adam": phi_mi / phi_adam if finite and phi_mi and phi_adam else None,
        "overflowed": not finite,
    }


# ---------------------------------------------------------------------------
# Regret tracking


@dataclass(frozen=True)
class DriftingQuadraticProblem:
    """Stream of convex losses f_t(theta) = 0.5 ||theta - c_t||^2.

    Targets c_t are drawn uniformly from [target_low, target_high]^dim by
    a seeded generator; the offline minimizer of the summed losses is the
    mean target.  Setting target_low == target_high gives a constant
    (zero-drift) problem.
    """

    dim: int = 4
    target_low: float = -1.0
    target_high: float = 1.0
    theta0: float = 1.0
    seed: int = 0

    def __post_init__(self):
        spread = self.target_high - self.target_low  # numpy's uniform rejects any other
        if not 0 <= spread < math.inf:
            raise ContractViolationError("target_high - target_low must be finite and >= 0")

    def targets(self, horizon: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        return rng.uniform(self.target_low, self.target_high, size=(horizon, self.dim))


def run_regret_experiment(
    problem: DriftingQuadraticProblem,
    optimizers: list[OptimizerParams],
    horizon: int,
    lr_decay_h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative and average regret on one stream, as two (optimizers, horizon) arrays.

    The learning-rate multiplier decays as t**(-lr_decay_h); pass 0 to
    disable the decay.  MIAdam callers should disable the switch
    (``switch_step=None``) to probe pre-switch behavior.

    The targets and the comparator's losses are computed once.  Row i of a
    (len(optimizers), dim) theta is optimizer i, lane i of the steppers that
    ``build_lanes`` returns, and one loop steps every stepper on its rows;
    each row has the bits of a run of its optimizer alone, and the steppers'
    ``errors``, in order, are the rows' errors.  The run raises
    ``NonFiniteError`` for the first optimizer in list order that diverged
    (at its step) or whose cumulative regret overflowed (at the first step
    that did); it stops early once optimizer 0 diverges.
    """
    if horizon < 1:
        raise ContractViolationError("horizon must be >= 1")
    if not optimizers:
        raise ContractViolationError("a regret run needs at least one optimizer")
    targets = problem.targets(horizon)
    theta = np.full((len(optimizers), problem.dim), problem.theta0, dtype=np.float64)
    diff = np.empty_like(theta)  # theta - c_t, which is also every lane's gradient
    steppers = build_lanes(optimizers, theta.shape, lane_axis=0)
    bounds = np.cumsum([len(s.errors) for s in steppers])[:-1]
    lanes = list(zip(steppers, np.split(theta, bounds), np.split(diff, bounds)))
    # a squared norm is a stacked (1, dim) @ (dim, 1) product, which calls the BLAS dot
    # that d @ d calls on one row, with the same bits
    diff_rows, diff_cols = diff[:, None, :], diff[:, :, None]
    squares = np.empty((horizon, len(optimizers), 1, 1))  # each step's ||theta - c_t||^2
    # every overflow here ends in the NonFiniteError raised below, and the lanes after a
    # failing optimizer do work that a run of each optimizer alone would not reach
    with np.errstate(over="ignore", invalid="ignore"):
        # the comparator's loss on each target does not depend on theta: compute it up front
        gaps = targets.mean(axis=0) - targets
        comparator = 0.5 * np.matmul(gaps[:, None, :], gaps[:, :, None])[:, 0, 0]
        for t, target, square in zip(range(1, horizon + 1), targets, squares):
            np.subtract(theta, target, out=diff)
            np.matmul(diff_rows, diff_cols, out=square)
            lr = t ** -lr_decay_h
            for stepper, lane_theta, lane_grad in lanes:
                stepper.step(lane_theta, lane_grad, lr)
            if steppers[0].errors[0]:
                break
        # no term is -0.0, so this has the bits of a Python running sum from 0.0
        cumulative = np.cumsum(0.5 * squares[:, :, 0, 0].T - comparator, axis=1)
    errors = [error for s in steppers for error in s.errors]  # row i's first error, or None
    for cum, error in zip(cumulative, errors):
        if error is not None:
            raise NonFiniteError("regret run diverged to non-finite iterates", step=error.step)
        finite = np.isfinite(cum)
        if not finite.all():
            raise NonFiniteError("cumulative regret overflowed", step=int(np.argmin(finite)) + 1)
    return cumulative, cumulative / np.arange(1, horizon + 1)
