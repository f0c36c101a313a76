"""Optimizer family over flat float64 parameter vectors.

Implements SGD, SGD with momentum, Adam, and MIAdam (Adam with an
n-th-order multiple-summation of the first moment applied until a switch
step), plus the learning-rate schedules used by the simulations and
training runs.

Each update rule has one implementation, an in-place stepper
(:class:`Sgd`, :class:`Sgdm`, and :class:`Adam`, which runs MIAdam too:
Adam is a MIAdam lane of order 0).  A stepper owns its ``OptimizerState``
and two scratch buffers and updates the caller's parameter vector in
place, so a step allocates no arrays.  Every update rule is elementwise,
so a stepper runs independent problems, its lanes, as the slices of one
array (see :class:`Stepper`).  :func:`build_lanes` is the one constructor
of a zero-state stepper: one optimizer over every lane, or a list of
optimizers, one per lane, in order.  The pure ``*_step`` functions copy
theta and the state, run a one-lane stepper once and return
``(theta', state')`` or raise its error, leaving their inputs untouched.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

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


# the highest MIAdam order a run may ask for, far above any order the paper tests
MAX_ORDER_N = 64


@dataclass(frozen=True)
class MIAdamHyperParams:
    """MIAdam hyperparameters on top of an Adam base.

    ``switch_step`` is always counted in optimizer steps; callers working
    in epochs convert before constructing this, and ``None`` never switches.
    ``pre_switch_lr_override`` replaces the alpha**order_n pre-switch
    learning rate when set (useful on landscapes where alpha**n would make
    steps vanish for n >= 2).  ``order_n`` is at most ``MAX_ORDER_N``: each
    level is an array of its own, stepped every step before the switch.
    """

    adam: AdamHyperParams = field(default_factory=AdamHyperParams)
    order_n: int = 1
    kappa: float = 0.98
    switch_step: int | None = 20
    pre_switch_lr_override: float | None = None

    def __post_init__(self):
        if self.order_n < 1:
            raise ContractViolationError("order_n must be >= 1")
        if self.order_n > MAX_ORDER_N:
            raise ContractViolationError(f"order_n must be <= {MAX_ORDER_N}")
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
        try:
            return self.adam.alpha ** self.order_n
        except OverflowError:  # beyond the float range: the first step diverges
            return math.inf


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
    """One optimizer run over arrays of a fixed shape, split into lanes.

    ``step`` updates the caller's ``theta`` in place.  The stepper owns its
    ``state``, two scratch buffers of theta's shape and a finiteness mask,
    so a step allocates no arrays and checks theta' once before it copies
    it into theta.  The lanes are the indices along ``lane_axis`` (``None``:
    the whole array is one lane).  The one lane rule: a lane whose theta' is
    not finite keeps its slice of theta, and at its first such step its
    entry of ``errors`` (None until then, one per lane in lane order)
    becomes the ``NonFiniteError`` that names the step and the culprit in
    its own slices (parameter, else gradient, else update).  The other
    lanes finish the step and the state advances.  ``step`` raises only for
    shapes: the loop that owns the lanes stops on ``errors[0]`` and raises
    the first error in lane order.
    """

    def __init__(self, params, state: OptimizerState, lane_axis: int | None = None):
        self.params = params
        self.state = state
        self.lane_axis = lane_axis
        self._a = np.empty_like(state.m)
        self._b = np.empty_like(state.m)
        self._finite = np.empty(state.m.shape, dtype=bool)
        self.errors: list[NonFiniteError | None] = [None] * len(self._by_lane(state.m))

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
            self._non_finite(theta, grad, theta_new, t)
        np.copyto(theta, theta_new)
        self.state.step_t = t

    def _by_lane(self, a: np.ndarray) -> np.ndarray:
        """A view of ``a`` whose index 0 is the lane."""
        return a[None] if self.lane_axis is None else np.moveaxis(a, self.lane_axis, 0)

    def _name(self, lane: int) -> str:
        return self.name

    def _non_finite(self, theta, grad, theta_new, t: int) -> None:
        """Keep each non-finite lane's slice of theta, and record a new lane's error."""
        theta, grad, theta_new, finite = map(self._by_lane, (theta, grad, theta_new, self._finite))
        bad = np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))
        theta_new[bad] = theta[bad]
        for lane in [i for i in bad.tolist() if self.errors[i] is None]:
            if not np.isfinite(theta[lane]).all():
                message = "non-finite entries in parameter vector"
            elif not np.isfinite(grad[lane]).all():
                message = "non-finite entries in gradient vector"
            else:
                message = f"{self._name(lane)} update produced non-finite parameters"
            self.errors[lane] = NonFiniteError(message, step=t)

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


class _Lane(NamedTuple):
    """One Adam-family lane; Adam is a lane of order 0 that never runs a stack."""

    base: AdamHyperParams
    order: int
    kappa: float | None
    switch_step: int | None
    pre_switch_alpha: float

    @classmethod
    def of(cls, params: AdamHyperParams | MIAdamHyperParams) -> "_Lane":
        if isinstance(params, MIAdamHyperParams):
            return cls(params.adam, params.order_n, params.kappa, params.switch_step,
                       params.pre_switch_alpha)
        return cls(params, 0, None, None, params.alpha)

    def at(self, t: int) -> tuple:
        """``(height, kappa, alpha)`` of step ``t``: the levels that it runs, else Adam's."""
        if self.order and (self.switch_step is None or t < self.switch_step):
            return self.order, self.kappa, self.pre_switch_alpha
        return 0, None, self.base.alpha

    @property
    def shared(self) -> tuple:
        """The hyperparameters that every lane of one group shares."""
        b = self.base
        return b.beta1, b.beta2, b.epsilon, b.weight_decay, b.eps_in_sqrt


class Adam(Stepper):
    """Adam and MIAdam, over one lane or over a group of lanes.

    Adam is a MIAdam lane of order 0.  Before its switch step a MIAdam lane
    pushes the first moment through an n-level stack, each level a
    kappa-decayed running sum of the one below (level 0 being the Adam first
    moment), its update uses the top of the stack, and its base learning
    rate is alpha**n (or its override).  From the switch step on, the step is
    exactly Adam's; the stack is frozen, not cleared.

    ``params`` is one optimizer's hyperparameters, which every lane takes,
    or a list that gives lane i ``params[i]``, one per lane: a group whose
    lanes share beta1, beta2, epsilon, weight_decay and eps_in_sqrt.  The
    stack holds the largest order's levels.  Until the next switch step the
    lanes split into runs, the slices of adjacent lanes that run the same
    levels with the same kappa and alpha; each run steps its own slices
    with its own floats, so each lane gets the bits it would get alone.
    """

    def __init__(self, params, state: OptimizerState, lane_axis: int | None = None):
        lanes = [_Lane.of(p) for p in params] if isinstance(params, list) else [_Lane.of(params)]
        order = max(lane.order for lane in lanes)
        if order and len(state.mbar_stack) != order:  # plain Adam ignores a stack
            raise ContractViolationError(
                f"mbar_stack has {len(state.mbar_stack)} levels, expected order_n={order}"
            )
        if len({lane.shared for lane in lanes}) != 1:
            raise ContractViolationError(
                "lanes of one group must share beta1, beta2, epsilon, weight_decay and eps_in_sqrt"
            )
        super().__init__(params, state, lane_axis)
        self.hp = lanes[0].base
        self._lanes = lanes
        self._plan(state.step_t + 1)

    def _name(self, lane: int) -> str:
        return "MIAdam" if self._lanes[lane if len(self._lanes) > 1 else 0].order else "Adam"

    def _plan(self, t: int) -> None:
        """Split the lanes into runs that step alike from step ``t`` to the next switch.

        A run is ``(kappa, alpha, a, m, levels)``: its lanes' floats and their
        slices of the scratch ``a``, the first moment and the levels that they run.
        """
        keys = [lane.at(t) for lane in self._lanes]
        # a lane that runs its stack switches at a later step, or never
        self._replan_at = min(
            [lane.switch_step or math.inf for lane, key in zip(self._lanes, keys) if key[0]],
            default=math.inf,
        )
        runs = [(key, len(list(same))) for key, same in groupby(keys)]
        self._runs, lo = [], 0
        for (height, kappa, alpha), n in runs:
            arrays = [self._a, self.state.m, *self.state.mbar_stack[:height]]
            if len(runs) > 1:
                arrays = [self._by_lane(x)[lo:lo + n] for x in arrays]
            self._runs.append((kappa, alpha, arrays[0], arrays[1], arrays[2:]))
            lo += n

    def _update(self, theta, grad, t, lr_multiplier):
        if t >= self._replan_at:
            self._plan(t)
        hp, m, v, a, b = self.hp, self.state.m, self.state.v, self._a, self._b
        # m = beta1*m + (1-beta1)*g and v = beta2*v + ((1-beta2)*g)*g, g = grad + wd*theta
        g = grad
        if hp.weight_decay != 0.0:
            g = np.multiply(theta, hp.weight_decay, out=b)
            np.add(grad, g, out=g)
        m *= hp.beta1
        np.multiply(g, 1.0 - hp.beta1, out=a)
        m += a
        v *= hp.beta2
        np.multiply(g, 1.0 - hp.beta2, out=a)
        a *= g
        v += a
        # theta - ((lr * alpha_t) * (numerator / (1 - beta1^t))) / denom(v / (1 - beta2^t)),
        # the same operations before and after the switch, so that a switched MIAdam step is
        # bitwise an Adam step on the same state
        bias = 1.0 - hp.beta1 ** t
        for kappa, alpha, a_run, below, levels in self._runs:
            for level in levels:  # level j = kappa * level j + level j-1
                level *= kappa
                level += below
                below = level
            np.divide(below, bias, out=a_run)  # the numerator: the run's top level, else m
            a_run *= lr_multiplier * alpha
        np.divide(v, 1.0 - hp.beta2 ** t, out=b)
        if hp.eps_in_sqrt:
            b += hp.epsilon
            np.sqrt(b, out=b)
        else:
            np.sqrt(b, out=b)
            b += hp.epsilon
        a /= b
        return np.subtract(theta, a, out=b)


_STEPPERS = {SgdParams: Sgd, SgdmParams: Sgdm, AdamHyperParams: Adam, MIAdamHyperParams: Adam}


def build_lanes(params, shape: int | tuple, lane_axis: int | None = None) -> list[Stepper]:
    """Zero-state steppers that run ``params`` over arrays of shape ``shape``.

    One params object is one stepper over every lane.  A list gives lane i
    ``params[i]`` along ``lane_axis``: adjacent Adam-family params that share
    beta1, beta2, epsilon, weight_decay and eps_in_sqrt form one group, a
    list-params :class:`Adam`, and every other optimizer is a group of one.
    The steppers come in lane order, stepper k running the next
    ``len(errors)`` lanes, each a lane under :class:`Stepper`'s lane rule.
    """
    dims = [shape] if isinstance(shape, int) else list(shape)
    if not isinstance(params, list):
        groups = [[params]]
    elif lane_axis is None:
        raise ContractViolationError("a params list, one params per lane, needs a lane_axis")
    elif len(params) != dims[lane_axis]:
        raise ContractViolationError(f"{len(params)} params given for {dims[lane_axis]} lanes")
    else:
        def key(item):
            i, p = item
            return _Lane.of(p).shared if _STEPPERS.get(type(p)) is Adam else i

        groups = [[p for _, p in run] for _, run in groupby(enumerate(params), key)]
    steppers = []
    for group in groups:
        if (cls := _STEPPERS.get(type(group[0]))) is None:
            raise ContractViolationError(f"no stepper runs the optimizer params {group[0]!r}")
        if isinstance(params, list):
            dims[lane_axis] = len(group)
        state = OptimizerState.zeros(tuple(dims), max(getattr(p, "order_n", 0) for p in group))
        steppers.append(cls(group if len(group) > 1 else group[0], state, lane_axis))
    return steppers


# ---------------------------------------------------------------------------
# Pure single steps: each copies theta and the state, runs its stepper once,
# raises the error of a lane that diverged, and leaves its inputs untouched.


def _pure_step(stepper: Stepper, theta, grad, lr_multiplier: float = 1.0):
    theta_new = np.array(theta, dtype=np.float64)
    stepper.step(theta_new, grad, lr_multiplier)
    if stepper.errors[0]:
        raise stepper.errors[0]
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
    """One MIAdam step (see :class:`Adam`)."""
    return _pure_step(Adam(hp, state.copy()), theta, grad, lr_multiplier)


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

