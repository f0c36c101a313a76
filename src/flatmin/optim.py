"""Optimizer family over flat float64 parameter vectors.

Implements SGD, SGD with momentum, Adam, and MIAdam (Adam with an
n-th-order multiple-summation of the first moment applied until a switch
step), plus the learning-rate schedules used by the simulations and
training runs.

Each update rule has one implementation, an in-place stepper
(:class:`Sgd`, :class:`Sgdm`, and :class:`Adam`, which runs MIAdam too:
Adam is a MIAdam lane of order 0), built by :func:`build_optimizer`.  A
stepper owns its ``OptimizerState`` and two scratch buffers and updates
the caller's parameter vector in place, so a step allocates no arrays.
Every update rule is elementwise, so a stepper runs independent problems,
its lanes, as the slices of one array (see :class:`Stepper`), and
:func:`build_lanes` groups optimizers as the rows of one array.  The pure
``*_step`` functions copy theta and the state, run a one-lane stepper once
and return ``(theta', state')``, leaving their inputs untouched.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
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
    """One optimizer run over arrays of a fixed shape, split into lanes.

    ``step`` updates the caller's ``theta`` in place.  The stepper owns its
    ``state``, two scratch buffers of theta's shape and a finiteness mask,
    so a step allocates no arrays and checks theta' once before it copies
    it into theta.  The lanes are the indices along ``lane_axis`` (``None``:
    the whole array is one lane).  The one lane rule: a lane whose theta' is
    not finite keeps its slice of theta, and at its first such step
    ``diverged`` maps it to the ``NonFiniteError`` it raises alone, naming
    the step and the culprit in its own slices (parameter, else gradient,
    else update).  The other lanes finish the step, the state advances, and
    ``step`` raises the first new lane's error; a lane raises only once.
    """

    def __init__(self, params, state: OptimizerState, lane_axis: int | None = None):
        self.params = params
        self.state = state
        self.lane_axis = lane_axis
        self._a = np.empty_like(state.m)
        self._b = np.empty_like(state.m)
        self._finite = np.empty(state.m.shape, dtype=bool)
        self.diverged: dict[int, NonFiniteError] = {}  # lane -> the error it raises alone

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
        """Keep each non-finite lane's slice of theta; on a new lane, finish the step and raise."""
        theta, grad, theta_new, finite = map(self._by_lane, (theta, grad, theta_new, self._finite))
        bad = np.flatnonzero(~finite.reshape(len(finite), -1).all(axis=1))
        theta_new[bad] = theta[bad]
        new = [lane for lane in bad.tolist() if lane not in self.diverged]
        for lane in new:
            if not np.isfinite(theta[lane]).all():
                message = "non-finite entries in parameter vector"
            elif not np.isfinite(grad[lane]).all():
                message = "non-finite entries in gradient vector"
            else:
                message = f"{self._name(lane)} update produced non-finite parameters"
            self.diverged[lane] = NonFiniteError(message, step=t)
        if new:
            np.copyto(theta, theta_new)
            self.state.step_t = t
            raise self.diverged[new[0]]

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

    def height(self, t: int) -> int:
        """The levels that step ``t`` runs: the order before the switch, else 0."""
        return self.order if self.switch_step is None or t < self.switch_step else 0

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
    or a list that gives lane i ``params[i]``: a group whose lanes share
    beta1, beta2, epsilon, weight_decay and eps_in_sqrt.  A value that the
    lanes share is a Python float and a per-lane one a full plane, so each
    lane gets the bits it would get alone.  The stack holds the largest
    order's levels.  A lane updates only its own levels and only before its
    switch, and reads its numerator from its own top level; masks select
    both, and change only at a switch step.
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
        self._scale = None
        self._plan(state.step_t + 1)

    def _name(self, lane: int) -> str:
        return "MIAdam" if self._lanes[lane if len(self._lanes) > 1 else 0].order else "Adam"

    def _rows(self, values: list, dtype=np.float64) -> np.ndarray:
        """A plane of the state's shape whose lane i holds ``values[i]``."""
        plane = np.empty(self.state.m.shape, dtype=dtype)
        for lane, value in zip(self._by_lane(plane), values):
            lane.fill(value)
        return plane

    def _per_lane(self, values: list):
        """A float if the lanes that take a value (not ``None``) agree on it, else a plane.

        A plane holds 1.0 in the rows of the lanes without a value.
        """
        taken = set(values)
        taken.discard(None)
        if len(taken) == 1:
            return taken.pop()
        return self._rows([1.0 if v is None else v for v in values])

    def _plan(self, t: int) -> None:
        """Fix the level updates, the numerators and alpha from step ``t`` to the next switch."""
        lanes, m, stack = self._lanes, self.state.m, self.state.mbar_stack
        heights = [lane.height(t) for lane in lanes]
        # a lane that runs its stack switches at a later step, or never
        self._replan_at = min(
            [lane.switch_step or math.inf for lane, h in zip(lanes, heights) if h],
            default=math.inf,
        )
        self._levels = [  # (level, kappa, None if every lane updates it, else their mask)
            (
                stack[j],
                self._per_lane([lane.kappa if h > j else None for lane, h in zip(lanes, heights)]),
                None if min(heights) > j else self._rows([h > j for h in heights], bool),
            )
            for j in range(max(heights))
        ]
        # a lane's numerator is the top level that it runs, else m: the first lane's fills
        # the numerator, and each other one is copied over the rows of its lanes
        self._numerator = stack[heights[0] - 1] if heights[0] else m
        self._picks = [
            (stack[h - 1] if h else m, self._rows([x == h for x in heights], bool))
            for h in dict.fromkeys(heights) if h != heights[0]
        ]
        self._alpha = self._per_lane(
            [lane.pre_switch_alpha if h else lane.base.alpha for lane, h in zip(lanes, heights)]
        )
        if isinstance(self._alpha, np.ndarray) and self._scale is None:
            self._scale = np.empty_like(m)

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
        # level j = kappa * level j + level j-1, for the lanes that run their stack
        below = m
        for level, kappa, mask in self._levels:
            if mask is None:
                level *= kappa
                level += below
            else:
                np.multiply(level, kappa, out=a)
                a += below
                np.copyto(level, a, where=mask)
            below = level
        numerator = self._numerator
        if self._picks:
            np.copyto(b, numerator)
            for source, mask in self._picks:
                np.copyto(b, source, where=mask)
            numerator = b
        # theta - ((lr * alpha_t) * (numerator / (1 - beta1^t))) / denom(v / (1 - beta2^t)),
        # the same operations before and after the switch, so that a switched MIAdam step is
        # bitwise an Adam step on the same state
        np.divide(numerator, 1.0 - hp.beta1 ** t, out=a)
        np.divide(v, 1.0 - hp.beta2 ** t, out=b)
        if hp.eps_in_sqrt:
            b += hp.epsilon
            np.sqrt(b, out=b)
        else:
            np.sqrt(b, out=b)
            b += hp.epsilon
        if self._scale is None:
            a *= lr_multiplier * self._alpha
        else:  # alpha_t * lr has the bits of lr * alpha_t
            a *= np.multiply(self._alpha, lr_multiplier, out=self._scale)
        a /= b
        return np.subtract(theta, a, out=b)


_STEPPERS = {SgdParams: Sgd, SgdmParams: Sgdm, AdamHyperParams: Adam, MIAdamHyperParams: Adam}


def build_optimizer(params, dim: int | tuple[int, ...], lane_axis: int | None = None) -> Stepper:
    """A stepper for ``params`` over arrays of shape ``dim``, from zero state.

    ``params`` is one optimizer, or a list of Adam-family lanes (see
    :class:`Adam`); a list of one optimizer of another kind is that optimizer.
    """
    group = params if isinstance(params, list) else [params]
    cls = _STEPPERS.get(type(group[0]))
    if cls is None or (cls is not Adam and len(group) > 1):
        raise ContractViolationError(f"no stepper runs the optimizer params {params!r}")
    order = max(getattr(p, "order_n", 0) for p in group)
    return cls(params if cls is Adam else group[0], OptimizerState.zeros(dim, order), lane_axis)


def build_lanes(params: list[OptimizerParams], dim: int) -> list[tuple[list[int], Stepper]]:
    """Steppers that run ``params`` as the rows of (lanes, dim) arrays, with each one's indices.

    Adam-family params that share beta1, beta2, epsilon, weight_decay and
    eps_in_sqrt form one group; every other optimizer is a group of one.
    Each row is a lane under :class:`Stepper`'s lane rule.
    """
    groups: dict[object, list[int]] = {}
    for i, p in enumerate(params):
        groups.setdefault(_Lane.of(p).shared if _STEPPERS.get(type(p)) is Adam else i, []).append(i)
    return [
        (lanes, build_optimizer([params[i] for i in lanes], (len(lanes), dim), lane_axis=0))
        for lanes in groups.values()
    ]


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

