"""Optimizer family over flat float64 parameter vectors.

Implements SGD, SGD with momentum, Adam, and MIAdam (Adam with an
n-th-order multiple-summation of the first moment applied until a switch
step), plus the learning-rate schedules used by the simulations and
training runs.

Each update rule has one implementation, an in-place stepper
(:class:`Sgd`, :class:`Sgdm`, :class:`Adam`, :class:`MIAdam`, built by
:func:`build_optimizer`).  A stepper owns its ``OptimizerState`` and two
scratch buffers and updates the caller's parameter vector in place, so a
step allocates no arrays.  The pure ``sgd_step`` / ``sgdm_step`` /
``adam_step`` / ``miadam_step`` copy theta and the state, run a stepper
once, and return ``(theta', state')``, leaving their inputs untouched.
Parameter vectors are 1-D float64 numpy arrays; every update rule is
elementwise, so a batch of independent problems can be run as one
concatenated vector.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, NonFiniteError

ParamVector = np.ndarray


@dataclass(frozen=True)
class AdamHyperParams:
    """Adam hyperparameters.  Defaults are the image-classification set.

    ``eps_in_sqrt`` toggles the denominator between sqrt(v_hat) + eps
    (the default, matching the executable pseudocode) and
    sqrt(v_hat + eps) (the update-formula variant), for ablation.
    """

    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 5e-5
    eps_in_sqrt: bool = False

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractViolationError("alpha must be > 0")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ContractViolationError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ContractViolationError("epsilon must be > 0")
        if self.weight_decay < 0:
            raise ContractViolationError("weight_decay must be >= 0")
        if self.beta2 == 0 or self.beta1 ** 2 / math.sqrt(self.beta2) >= 1:
            raise ContractViolationError("require beta1^2 / sqrt(beta2) < 1")


@dataclass(frozen=True)
class MIAdamHyperParams:
    """MIAdam hyperparameters on top of an Adam base.

    ``switch_step`` is always counted in optimizer steps; callers working
    in epochs convert before constructing this, and ``None`` never switches.
    ``pre_switch_lr_override`` replaces the alpha**order_n pre-switch
    learning rate when set (useful on landscapes where alpha**n would make
    steps vanish for n >= 2).
    """

    adam: AdamHyperParams = field(default_factory=AdamHyperParams)
    order_n: int = 1
    kappa: float = 0.98
    switch_step: int | None = 20
    pre_switch_lr_override: float | None = None

    def __post_init__(self):
        if self.order_n < 1:
            raise ContractViolationError("order_n must be >= 1")
        if not (0 < self.kappa <= 1):
            raise ContractViolationError("kappa must lie in (0, 1]")
        if self.switch_step is not None and self.switch_step < 1:
            raise ContractViolationError("switch_step must be >= 1")
        if self.pre_switch_lr_override is not None and self.pre_switch_lr_override <= 0:
            raise ContractViolationError("pre_switch_lr_override must be > 0")

    @property
    def pre_switch_alpha(self) -> float:
        if self.pre_switch_lr_override is not None:
            return self.pre_switch_lr_override
        return self.adam.alpha ** self.order_n


@dataclass
class OptimizerState:
    """Per-run optimizer buffers: step counter, moments, and the m-bar stack."""

    step_t: int
    m: ParamVector
    v: ParamVector
    mbar_stack: list[ParamVector]

    @classmethod
    def zeros(cls, dim: int | tuple[int, ...], order_n: int = 0) -> "OptimizerState":
        return cls(
            step_t=0,
            m=np.zeros(dim),
            v=np.zeros(dim),
            mbar_stack=[np.zeros(dim) for _ in range(order_n)],
        )

    def copy(self) -> "OptimizerState":
        return OptimizerState(
            step_t=self.step_t,
            m=self.m.copy(),
            v=self.v.copy(),
            mbar_stack=[x.copy() for x in self.mbar_stack],
        )


@dataclass(frozen=True)
class SgdParams:
    alpha: float = 1e-3

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractViolationError("alpha must be > 0")


@dataclass(frozen=True)
class SgdmParams:
    alpha: float = 1e-3
    beta: float = 0.9

    def __post_init__(self):
        if self.alpha <= 0:
            raise ContractViolationError("alpha must be > 0")
        if not (0 <= self.beta < 1):
            raise ContractViolationError("beta must lie in [0, 1)")


OptimizerParams = SgdParams | SgdmParams | AdamHyperParams | MIAdamHyperParams


# ---------------------------------------------------------------------------
# In-place steppers: the one implementation of each update rule


class Stepper:
    """One optimizer run over parameter vectors of a fixed shape.

    ``step`` updates the caller's ``theta`` in place.  The stepper owns its
    ``state``, two scratch buffers of theta's shape and a finiteness mask,
    so a step allocates no arrays.  A step computes theta' in scratch and
    makes one finiteness check of it before copying it into theta; only if
    that check fails are the inputs checked, to name the culprit in the
    ``NonFiniteError``.  A non-finite entry of theta or grad always reaches
    theta', so none is missed.  After that error theta is unchanged but the
    state is not, and the stepper must not be stepped again.
    """

    name = ""

    def __init__(self, params, state: OptimizerState):
        self.params = params
        self.state = state
        self._a = np.empty_like(state.m)
        self._b = np.empty_like(state.m)
        self._finite = np.empty(state.m.shape, dtype=bool)

    def step(self, theta: ParamVector, grad: ParamVector, lr_multiplier: float = 1.0) -> None:
        if theta.shape != grad.shape:
            raise ContractViolationError(
                f"dimension mismatch: theta has shape {theta.shape}, grad has shape {grad.shape}"
            )
        if theta.shape != self.state.m.shape:
            raise ContractViolationError("state dimension does not match theta")
        t = self.state.step_t + 1
        theta_new = self._update(theta, grad, t, lr_multiplier)
        if not np.isfinite(theta_new, out=self._finite).all():
            if not np.isfinite(theta).all():
                raise NonFiniteError("non-finite entries in parameter vector", step=t)
            if not np.isfinite(grad).all():
                raise NonFiniteError("non-finite entries in gradient vector", step=t)
            raise NonFiniteError(f"{self.name} update produced non-finite parameters", step=t)
        np.copyto(theta, theta_new)
        self.state.step_t = t

    def _update(self, theta, grad, t: int, lr_multiplier: float) -> ParamVector:
        """Advance the state to step ``t`` and return theta' in a scratch buffer."""
        raise NotImplementedError


class Sgd(Stepper):
    """theta' = theta - (lr * alpha) * grad."""

    name = "SGD"

    def _update(self, theta, grad, t, lr_multiplier):
        np.multiply(grad, lr_multiplier * self.params.alpha, out=self._a)
        return np.subtract(theta, self._a, out=self._b)


class Sgdm(Stepper):
    """Heavy-ball momentum: m' = beta*m + g, theta' = theta - (lr * alpha) * m'."""

    name = "SGDM"

    def _update(self, theta, grad, t, lr_multiplier):
        m = self.state.m
        m *= self.params.beta
        m += grad
        np.multiply(m, lr_multiplier * self.params.alpha, out=self._a)
        return np.subtract(theta, self._a, out=self._b)


class Adam(Stepper):
    """Adam with coupled L2 weight decay and bias correction."""

    name = "Adam"

    def _update(self, theta, grad, t, lr_multiplier):
        hp = self.params
        self._moments(theta, grad, hp)
        return self._apply(theta, self.state.m, t, hp, hp.alpha, lr_multiplier)

    def _moments(self, theta, grad, hp: AdamHyperParams) -> None:
        """m = beta1*m + (1-beta1)*g and v = beta2*v + ((1-beta2)*g)*g, g = grad + wd*theta."""
        m, v, a = self.state.m, self.state.v, self._a
        g = grad
        if hp.weight_decay != 0.0:
            g = np.multiply(theta, hp.weight_decay, out=self._b)
            np.add(grad, g, out=g)
        m *= hp.beta1
        np.multiply(g, 1.0 - hp.beta1, out=a)
        m += a
        v *= hp.beta2
        np.multiply(g, 1.0 - hp.beta2, out=a)
        a *= g
        v += a

    def _apply(self, theta, numerator, t, hp: AdamHyperParams, alpha_t, lr_multiplier):
        """theta - ((lr * alpha_t) * (numerator / (1 - beta1^t))) / denom(v / (1 - beta2^t)).

        Shared by Adam and both MIAdam branches so that the post-switch MIAdam
        step is bitwise identical to a plain Adam step on the same state.
        """
        a, b = self._a, self._b
        np.divide(numerator, 1.0 - hp.beta1 ** t, out=a)
        np.divide(self.state.v, 1.0 - hp.beta2 ** t, out=b)
        if hp.eps_in_sqrt:
            b += hp.epsilon
            np.sqrt(b, out=b)
        else:
            np.sqrt(b, out=b)
            b += hp.epsilon
        a *= lr_multiplier * alpha_t
        a /= b
        return np.subtract(theta, a, out=b)


class MIAdam(Adam):
    """MIAdam: before the switch step the first moment is pushed through an
    n-level stack, each level a kappa-decayed running sum of the one below
    (level 0 being the Adam first moment), the update uses the top of the
    stack, and the base learning rate is alpha**n (or its override).  From
    the switch step on, the step is exactly Adam; the stack is frozen, not
    cleared.
    """

    name = "MIAdam"

    def __init__(self, params: MIAdamHyperParams, state: OptimizerState):
        if len(state.mbar_stack) != params.order_n:
            raise ContractViolationError(
                f"mbar_stack has {len(state.mbar_stack)} levels, expected order_n={params.order_n}"
            )
        super().__init__(params, state)
        self._pre_switch_alpha = params.pre_switch_alpha

    def _update(self, theta, grad, t, lr_multiplier):
        hp = self.params
        ahp = hp.adam
        self._moments(theta, grad, ahp)
        if hp.switch_step is not None and t >= hp.switch_step:
            return self._apply(theta, self.state.m, t, ahp, ahp.alpha, lr_multiplier)
        below = self.state.m
        for level in self.state.mbar_stack:
            level *= hp.kappa
            level += below
            below = level
        return self._apply(theta, below, t, ahp, self._pre_switch_alpha, lr_multiplier)


_STEPPERS = {SgdParams: Sgd, SgdmParams: Sgdm, AdamHyperParams: Adam, MIAdamHyperParams: MIAdam}


def build_optimizer(params: OptimizerParams, dim: int | tuple[int, ...]) -> Stepper:
    """A stepper for ``params`` over arrays of shape ``dim``, from zero state."""
    cls = _STEPPERS.get(type(params))
    if cls is None:
        raise ContractViolationError(f"unknown optimizer params type {type(params)!r}")
    order_n = params.order_n if cls is MIAdam else 0
    return cls(params, OptimizerState.zeros(dim, order_n))


# ---------------------------------------------------------------------------
# Pure single steps: each copies theta and the state, runs its stepper once,
# and leaves its inputs untouched.


def _pure_step(stepper: Stepper, theta, grad, lr_multiplier: float = 1.0):
    theta_new = np.array(theta, dtype=np.float64)
    stepper.step(theta_new, grad, lr_multiplier)
    return theta_new, stepper.state


def sgd_step(theta: ParamVector, grad: ParamVector, alpha: float) -> ParamVector:
    """Plain gradient descent: theta - alpha * grad."""
    state = OptimizerState.zeros(np.shape(theta))
    return _pure_step(Sgd(SgdParams(alpha), state), theta, grad)[0]


def sgdm_step(
    theta: ParamVector,
    grad: ParamVector,
    state: OptimizerState,
    alpha: float,
    beta: float,
) -> tuple[ParamVector, OptimizerState]:
    """Heavy-ball momentum: m' = beta*m + g, theta' = theta - alpha*m'."""
    return _pure_step(Sgdm(SgdmParams(alpha, beta), state.copy()), theta, grad)


def adam_step(
    theta: ParamVector,
    grad: ParamVector,
    state: OptimizerState,
    hp: AdamHyperParams,
    lr_multiplier: float = 1.0,
) -> tuple[ParamVector, OptimizerState]:
    """One Adam step with coupled L2 weight decay and bias correction."""
    return _pure_step(Adam(hp, state.copy()), theta, grad, lr_multiplier)


def miadam_step(
    theta: ParamVector,
    grad: ParamVector,
    state: OptimizerState,
    hp: MIAdamHyperParams,
    lr_multiplier: float = 1.0,
) -> tuple[ParamVector, OptimizerState]:
    """One MIAdam step (see :class:`MIAdam`)."""
    return _pure_step(MIAdam(hp, state.copy()), theta, grad, lr_multiplier)


# ---------------------------------------------------------------------------
# Learning-rate schedules


@dataclass(frozen=True)
class LrSchedule:
    """Multiplier schedule applied on top of the optimizer's base rate.

    ``kind`` is one of constant / cosine_annealing / milestones.  For the
    cosine kind, ``total_steps`` is the horizon and ``eta_min`` the
    multiplier floor reached at the horizon.  For milestones, the
    multiplier is gamma**(number of milestones <= t).
    """

    kind: str = "constant"
    total_steps: int = 0
    eta_min: float = 0.0
    milestones: tuple[int, ...] = ()
    gamma: float = 0.1

    def __post_init__(self):
        if self.kind not in ("constant", "cosine_annealing", "milestones"):
            raise ContractViolationError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "cosine_annealing" and self.total_steps < 1:
            raise ContractViolationError("cosine schedule needs total_steps >= 1")
        if self.kind == "cosine_annealing" and self.eta_min < 0:
            raise ContractViolationError("cosine schedule needs eta_min >= 0")
        if self.kind == "milestones":
            if list(self.milestones) != sorted(self.milestones):
                raise ContractViolationError("milestones must be sorted")
            if not (0 < self.gamma <= 1):
                raise ContractViolationError("gamma must lie in (0, 1]")


def schedule_multiplier(sched: LrSchedule, t: int) -> float:
    """Multiplier at step count ``t`` (completed steps; t=0 gives 1 for cosine)."""
    if sched.kind == "constant":
        return 1.0
    if sched.kind == "cosine_annealing":
        if not (0 <= t <= sched.total_steps):
            raise ContractViolationError(
                f"t={t} outside [0, {sched.total_steps}] for cosine schedule"
            )
        return sched.eta_min + 0.5 * (1.0 - sched.eta_min) * (
            1.0 + math.cos(math.pi * t / sched.total_steps)
        )
    return sched.gamma ** bisect_right(sched.milestones, t)

