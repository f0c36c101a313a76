"""Raw in-place numpy floors for one Adam step and one pre-switch MIAdam step.

Each floor is the package's update written with preallocated buffers and no
checks, in the same operation order, so it produces the same bits. The
benchmark proves that on seeded inputs (:func:`check_floors`) before it times
the package against the floor (:func:`floor_ratios`).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from flatmin.optim import AdamHyperParams, MIAdamHyperParams, OptimizerState, adam_step, miadam_step


class FloorMismatch(AssertionError):
    """A floor's result differs in some bit from the package's step."""


class StepBuffers:
    """Adam state and scratch space, updated in place by the floors."""

    def __init__(self, theta, m, v, stack=()):
        self.theta = theta.copy()
        self.m = m.copy()
        self.v = v.copy()
        self.stack = [x.copy() for x in stack]
        self.g = np.empty_like(theta)
        self.tmp = np.empty_like(theta)
        self.tmp2 = np.empty_like(theta)


def _moments(b: StepBuffers, grad, hp: AdamHyperParams) -> None:
    g = grad
    if hp.weight_decay != 0.0:
        g = np.multiply(b.theta, hp.weight_decay, out=b.g)
        np.add(grad, g, out=g)
    # m = beta1 * m + (1 - beta1) * g
    b.m *= hp.beta1
    np.multiply(g, 1.0 - hp.beta1, out=b.tmp)
    b.m += b.tmp
    # v = beta2 * v + ((1 - beta2) * g) * g
    b.v *= hp.beta2
    np.multiply(g, 1.0 - hp.beta2, out=b.tmp)
    b.tmp *= g
    b.v += b.tmp


def _apply(b: StepBuffers, numerator, t: int, hp: AdamHyperParams, alpha_t, lr_multiplier) -> None:
    # theta -= ((lr * alpha_t) * (numerator / c1)) / denom(v / c2)
    np.divide(numerator, 1.0 - hp.beta1 ** t, out=b.tmp)
    np.divide(b.v, 1.0 - hp.beta2 ** t, out=b.tmp2)
    if hp.eps_in_sqrt:
        b.tmp2 += hp.epsilon
        np.sqrt(b.tmp2, out=b.tmp2)
    else:
        np.sqrt(b.tmp2, out=b.tmp2)
        b.tmp2 += hp.epsilon
    b.tmp *= lr_multiplier * alpha_t
    b.tmp /= b.tmp2
    b.theta -= b.tmp


def adam_floor(b: StepBuffers, grad, t: int, hp: AdamHyperParams, lr_multiplier: float = 1.0) -> None:
    """Adam step ``t`` (1-based) on ``b`` in place."""
    _moments(b, grad, hp)
    _apply(b, b.m, t, hp, hp.alpha, lr_multiplier)


def miadam_floor(b: StepBuffers, grad, t: int, hp: MIAdamHyperParams, lr_multiplier: float = 1.0) -> None:
    """Pre-switch MIAdam step ``t`` on ``b`` in place: level j = kappa * level j + level j-1."""
    _moments(b, grad, hp.adam)
    below = b.m
    for level in b.stack:
        level *= hp.kappa
        level += below
        below = level
    _apply(b, below, t, hp.adam, hp.pre_switch_alpha, lr_multiplier)


def _inputs(dim: int, order: int, seed: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    theta = rng.standard_normal(dim)
    grad = rng.standard_normal(dim)
    m = 0.1 * rng.standard_normal(dim)
    v = rng.uniform(0.0, 0.5, dim)
    stack = [rng.standard_normal(dim) for _ in range(order)]
    return theta, grad, m, v, stack


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_floors(adam_hp: AdamHyperParams, mi_hp: MIAdamHyperParams, dim: int, seed: int = 0) -> None:
    """Raise FloorMismatch unless both floors give the package's bits.

    The comparison covers theta', m', v' and, for MIAdam, every stack level.
    """
    step_t = 4  # the floors run step 5, before any MIAdam switch
    theta, grad, m, v, stack = _inputs(dim, mi_hp.order_n, seed)
    mult = 0.75

    want, state = adam_step(theta, grad, OptimizerState(step_t, m, v, []), adam_hp, mult)
    b = StepBuffers(theta, m, v)
    adam_floor(b, grad, step_t + 1, adam_hp, mult)
    if not all(map(_same_bits, (want, state.m, state.v), (b.theta, b.m, b.v))):
        raise FloorMismatch(f"adam floor differs from adam_step at d={dim}")

    if step_t + 1 >= mi_hp.switch_step:
        raise ValueError("the MIAdam floor covers pre-switch steps only")
    want, state = miadam_step(theta, grad, OptimizerState(step_t, m, v, stack), mi_hp, mult)
    b = StepBuffers(theta, m, v, stack)
    miadam_floor(b, grad, step_t + 1, mi_hp, mult)
    got = [b.theta, b.m, b.v, *b.stack]
    if not all(map(_same_bits, [want, state.m, state.v, *state.mbar_stack], got)):
        raise FloorMismatch(f"miadam floor differs from miadam_step at d={dim}")


def _per_call(fn, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls


def _ratio(package, floor, rounds: int, block_s: float) -> float:
    package()
    floor()
    calls = max(20, int(block_s / max(_per_call(package, 20), 1e-9)))
    ratios = []
    for _ in range(rounds):
        ratios.append(_per_call(package, calls) / _per_call(floor, calls))
    return statistics.median(ratios)


def floor_ratios(
    adam_hp: AdamHyperParams,
    mi_hp: MIAdamHyperParams,
    dim: int,
    seed: int = 0,
    rounds: int = 7,
    block_s: float = 0.02,
) -> dict:
    """Median over ``rounds`` of package time per step / floor time per step.

    MIAdam is timed before its switch. The package steps repeat from one
    state; the floors update their buffers in place, as a loop would.
    """
    check_floors(adam_hp, mi_hp, dim, seed)
    theta, grad, m, v, stack = _inputs(dim, mi_hp.order_n, seed)
    adam_state = OptimizerState(0, m, v, [])
    mi_state = OptimizerState(0, m, v, stack)
    adam_b = StepBuffers(theta, m, v)
    mi_b = StepBuffers(theta, m, v, stack)
    return {
        "adam_step": _ratio(
            lambda: adam_step(theta, grad, adam_state, adam_hp),
            lambda: adam_floor(adam_b, grad, 1, adam_hp),
            rounds,
            block_s,
        ),
        "miadam_step": _ratio(
            lambda: miadam_step(theta, grad, mi_state, mi_hp),
            lambda: miadam_floor(mi_b, grad, 1, mi_hp),
            rounds,
            block_s,
        ),
    }
