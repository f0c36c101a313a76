"""Unit and oracle tests for the optimizer family and schedules."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatmin.errors import ContractViolationError, NonFiniteError
from flatmin.harness import _optimizer_warnings, normalize_config
from flatmin.mlp import Mlp, MlpSpec, make_blobs, train_classifier
from flatmin.optim import (
    MAX_ORDER_N,
    Adam,
    AdamHyperParams,
    LrSchedule,
    MIAdamHyperParams,
    OptimizerState,
    Sgd,
    Sgdm,
    SgdmParams,
    SgdParams,
    adam_step,
    build_lanes,
    miadam_step,
    schedule_multiplier,
    sgd_step,
    sgdm_step,
)

ParamVector = np.ndarray


# Verbatim copy of the pure step functions as they were before each update
# rule became one in-place stepper: fresh arrays for every intermediate and
# three full finiteness scans per step.  The steppers and the pure wrappers
# must match it bit for bit.


def _ref_check_step_inputs(theta: ParamVector, grad: ParamVector) -> None:
    if theta.shape != grad.shape:
        raise ContractViolationError(
            f"dimension mismatch: theta has shape {theta.shape}, grad has shape {grad.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise NonFiniteError("non-finite entries in parameter vector")
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("non-finite entries in gradient vector")


def ref_sgd_step(theta: ParamVector, grad: ParamVector, alpha: float) -> ParamVector:
    """Plain gradient descent: theta - alpha * grad."""
    if alpha <= 0:
        raise ContractViolationError("alpha must be > 0")
    _ref_check_step_inputs(theta, grad)
    return theta - alpha * grad


def ref_sgdm_step(
    theta: ParamVector,
    grad: ParamVector,
    state: OptimizerState,
    alpha: float,
    beta: float,
) -> tuple[ParamVector, OptimizerState]:
    """Heavy-ball momentum: m' = beta*m + g, theta' = theta - alpha*m'."""
    if alpha <= 0:
        raise ContractViolationError("alpha must be > 0")
    if not (0 <= beta < 1):
        raise ContractViolationError("beta must lie in [0, 1)")
    _ref_check_step_inputs(theta, grad)
    if state.m.shape != theta.shape:
        raise ContractViolationError("state.m dimension does not match theta")
    m = beta * state.m + grad
    theta_new = theta - alpha * m
    new_state = OptimizerState(
        step_t=state.step_t + 1,
        m=m,
        v=state.v.copy(),
        mbar_stack=[x.copy() for x in state.mbar_stack],
    )
    return theta_new, new_state


def _ref_updated_moments(g, state, beta1, beta2):
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    return m, v


def _ref_apply_update(theta, numerator, v, t, hp: AdamHyperParams, alpha_t, lr_multiplier):
    """theta - lr * alpha_t * (numerator / (1 - beta1^t)) / denom(v_hat).

    Shared by Adam and both MIAdam branches so that the post-switch MIAdam
    step is bitwise identical to a plain Adam step on the same state.
    """
    m_hat = numerator / (1.0 - hp.beta1 ** t)
    v_hat = v / (1.0 - hp.beta2 ** t)
    if hp.eps_in_sqrt:
        denom = np.sqrt(v_hat + hp.epsilon)
    else:
        denom = np.sqrt(v_hat) + hp.epsilon
    return theta - lr_multiplier * alpha_t * m_hat / denom


def ref_adam_step(
    theta: ParamVector,
    grad: ParamVector,
    state: OptimizerState,
    hp: AdamHyperParams,
    lr_multiplier: float = 1.0,
) -> tuple[ParamVector, OptimizerState]:
    """One Adam step with coupled L2 weight decay and bias correction."""
    _ref_check_step_inputs(theta, grad)
    if state.m.shape != theta.shape:
        raise ContractViolationError("state dimension does not match theta")
    t = state.step_t + 1
    g = grad + hp.weight_decay * theta if hp.weight_decay != 0.0 else grad
    m, v = _ref_updated_moments(g, state, hp.beta1, hp.beta2)
    theta_new = _ref_apply_update(theta, m, v, t, hp, hp.alpha, lr_multiplier)
    if not np.all(np.isfinite(theta_new)):
        raise NonFiniteError("Adam update produced non-finite parameters", step=t)
    new_state = OptimizerState(
        step_t=t, m=m, v=v, mbar_stack=[x.copy() for x in state.mbar_stack]
    )
    return theta_new, new_state


def ref_miadam_step(
    theta: ParamVector,
    grad: ParamVector,
    state: OptimizerState,
    hp: MIAdamHyperParams,
    lr_multiplier: float = 1.0,
) -> tuple[ParamVector, OptimizerState]:
    """One MIAdam step.

    Before the switch step the first moment is pushed through an
    n-level stack, each level a kappa-decayed running sum of the one
    below (level 0 being the Adam first moment), the update uses the top
    of the stack, and the base learning rate is alpha**n (or its
    override).  From the switch step on, the step is exactly Adam; the
    stack is frozen, not cleared.
    """
    ahp = hp.adam
    _ref_check_step_inputs(theta, grad)
    if state.m.shape != theta.shape:
        raise ContractViolationError("state dimension does not match theta")
    if len(state.mbar_stack) != hp.order_n:
        raise ContractViolationError(
            f"mbar_stack has {len(state.mbar_stack)} levels, expected order_n={hp.order_n}"
        )
    t = state.step_t + 1
    g = grad + ahp.weight_decay * theta if ahp.weight_decay != 0.0 else grad
    m, v = _ref_updated_moments(g, state, ahp.beta1, ahp.beta2)

    if t < hp.switch_step:
        stack: list[ParamVector] = []
        below = m
        for j in range(hp.order_n):
            level = hp.kappa * state.mbar_stack[j] + below
            stack.append(level)
            below = level
        alpha_t = hp.pre_switch_alpha
        numerator = stack[-1]
    else:
        stack = [x.copy() for x in state.mbar_stack]
        alpha_t = ahp.alpha
        numerator = m

    theta_new = _ref_apply_update(theta, numerator, v, t, ahp, alpha_t, lr_multiplier)
    if not np.all(np.isfinite(theta_new)):
        raise NonFiniteError("MIAdam update produced non-finite parameters", step=t)
    new_state = OptimizerState(step_t=t, m=m, v=v, mbar_stack=stack)
    return theta_new, new_state


def explicit_momentum(grads, beta1):
    """By-hand geometric sum m_t = (1-b) sum_j b^(t-j) g_j, per step."""
    out = []
    for t in range(1, len(grads) + 1):
        m = sum(beta1 ** (t - j) * grads[j - 1] for j in range(1, t + 1))
        out.append((1.0 - beta1) * m)
    return out


def nested_summation_stack_top(grads, beta1, kappa, order_n):
    """Brute-force multiple summation: each level is an explicit
    kappa-weighted sum of the level below, level 0 being the plain
    first moment.  Coded from the summation form, independent of the
    in-step recurrence."""
    ms = [np.zeros_like(grads[0])] + explicit_momentum(grads, beta1)  # index by t, t=0..T
    level = ms
    for _ in range(order_n):
        nxt = [np.zeros_like(grads[0])]
        for t in range(1, len(ms)):
            acc = np.zeros_like(grads[0])
            for s in range(0, t + 1):
                acc = acc + kappa ** (t - s) * level[s]
            nxt.append(acc)
        level = nxt
    return level  # indexed by t


class TestSgd:
    def test_zero_gradient_is_identity(self):
        out = sgd_step(np.array([1.0, 2.0]), np.array([0.0, 0.0]), 0.1)
        assert np.array_equal(out, [1.0, 2.0])

    def test_hand_arithmetic(self):
        out = sgd_step(np.array([1.0]), np.array([2.0]), 0.5)
        assert np.array_equal(out, [0.0])

    def test_matches_elementwise_recomputation(self):
        rng = np.random.Generator(np.random.PCG64(3))
        theta = rng.standard_normal(10)
        grad = rng.standard_normal(10)
        out = sgd_step(theta, grad, 1e-3)
        expected = np.array([theta[i] - 1e-3 * grad[i] for i in range(10)])
        assert np.array_equal(out, expected)

    def test_inputs_unmodified(self):
        theta = np.array([1.0, 2.0])
        grad = np.array([3.0, 4.0])
        sgd_step(theta, grad, 0.1)
        assert np.array_equal(theta, [1.0, 2.0])
        assert np.array_equal(grad, [3.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolationError):
            sgd_step(np.array([1.0, 2.0]), np.array([1.0]), 0.1)

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteError):
            sgd_step(np.array([np.nan]), np.array([1.0]), 0.1)


class TestSgdm:
    def test_beta_zero_reduces_to_sgd(self):
        rng = np.random.Generator(np.random.PCG64(4))
        theta = rng.standard_normal(5)
        state = OptimizerState.zeros(5)
        for _ in range(5):
            grad = rng.standard_normal(5)
            expected = sgd_step(theta, grad, 0.01)
            theta, state = sgdm_step(theta, grad, state, 0.01, 0.0)
            assert np.array_equal(theta, expected)

    def test_two_step_unroll(self):
        theta = np.array([0.0])
        state = OptimizerState.zeros(1)
        theta, state = sgdm_step(theta, np.array([1.0]), state, 1.0, 0.9)
        assert state.m[0] == 1.0 and theta[0] == -1.0
        theta, state = sgdm_step(theta, np.array([1.0]), state, 1.0, 0.9)
        assert state.m[0] == pytest.approx(1.9, abs=0) and theta[0] == pytest.approx(-2.9)

    def test_momentum_matches_explicit_sum(self):
        rng = np.random.Generator(np.random.PCG64(5))
        theta = np.zeros(3)
        state = OptimizerState.zeros(3)
        beta = 0.9
        grads = [rng.standard_normal(3) for _ in range(20)]
        for t, g in enumerate(grads, start=1):
            theta, state = sgdm_step(theta, g, state, 0.01, beta)
            expected = sum(beta ** (t - j) * grads[j - 1] for j in range(1, t + 1))
            assert np.max(np.abs(state.m - expected)) < 1e-12


class TestAdam:
    def test_zero_gradient_fresh_state(self):
        hp = AdamHyperParams(weight_decay=0.0)
        theta, state = adam_step(np.array([0.0]), np.array([0.0]), OptimizerState.zeros(1), hp)
        assert theta[0] == 0.0 and state.m[0] == 0.0 and state.v[0] == 0.0

    def test_first_step_bias_correction_cancels(self):
        hp = AdamHyperParams(alpha=1e-3, weight_decay=0.0)
        theta, state = adam_step(np.array([0.0]), np.array([1.0]), OptimizerState.zeros(1), hp)
        assert theta[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-15)
        assert state.m[0] / (1 - 0.9) == pytest.approx(1.0)
        assert state.v[0] / (1 - 0.999) == pytest.approx(1.0)

    def test_momentum_matches_geometric_sum(self):
        hp = AdamHyperParams(weight_decay=0.0)
        rng = np.random.Generator(np.random.PCG64(6))
        grads = [rng.standard_normal(4) for _ in range(50)]
        theta = np.zeros(4)
        state = OptimizerState.zeros(4)
        oracle = explicit_momentum(grads, hp.beta1)
        for g, expected in zip(grads, oracle):
            theta, state = adam_step(theta, g, state, hp)
            assert np.max(np.abs(state.m - expected)) < 1e-12

    def test_v_nonnegative_and_denominator_nonzero(self):
        hp = AdamHyperParams(weight_decay=0.0)
        rng = np.random.Generator(np.random.PCG64(7))
        theta = np.zeros(6)
        state = OptimizerState.zeros(6)
        for t in range(1, 101):
            theta, state = adam_step(theta, rng.standard_normal(6), state, hp)
            assert np.all(state.v >= 0)
            assert (1 - hp.beta1 ** t) > 0 and (1 - hp.beta2 ** t) > 0

    def test_weight_decay_coupled(self):
        hp = AdamHyperParams(weight_decay=0.1)
        hp0 = AdamHyperParams(weight_decay=0.0)
        theta0 = np.array([2.0])
        g = np.array([0.5])
        out_wd, _ = adam_step(theta0, g, OptimizerState.zeros(1), hp)
        out_eq, _ = adam_step(theta0, g + 0.1 * theta0, OptimizerState.zeros(1), hp0)
        assert np.array_equal(out_wd, out_eq)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_non_finite_with_step(self):
        hp = AdamHyperParams(weight_decay=0.0)
        with pytest.raises(NonFiniteError):
            adam_step(np.array([0.0]), np.array([np.inf]), OptimizerState.zeros(1), hp)

    def test_invalid_hyperparams(self):
        with pytest.raises(ContractViolationError):
            AdamHyperParams(beta1=1.0)
        with pytest.raises(ContractViolationError):
            AdamHyperParams(beta1=0.999, beta2=0.5)  # beta1^2/sqrt(beta2) >= 1
        with pytest.raises(ContractViolationError):
            AdamHyperParams(alpha=-1.0)


class TestMIAdam:
    def test_kappa_small_order1_matches_adam_direction(self):
        # kappa -> 0 collapses the level recurrence to mbar = m; with
        # order 1 the pre-switch learning rate is alpha^1 = alpha.
        base = AdamHyperParams(weight_decay=0.0)
        hp = MIAdamHyperParams(adam=base, order_n=1, kappa=1e-300, switch_step=1000)
        rng = np.random.Generator(np.random.PCG64(8))
        theta_a = theta_m = np.zeros(4)
        sa = OptimizerState.zeros(4)
        sm = OptimizerState.zeros(4, order_n=1)
        for _ in range(10):
            g = rng.standard_normal(4)
            theta_a, sa = adam_step(theta_a, g, sa, base)
            theta_m, sm = miadam_step(theta_m, g, sm, hp)
            assert np.max(np.abs(theta_a - theta_m)) < 1e-15

    def test_post_switch_bitwise_equals_adam(self):
        base = AdamHyperParams(weight_decay=0.0)
        hp = MIAdamHyperParams(adam=base, order_n=2, kappa=0.98, switch_step=1)
        rng = np.random.Generator(np.random.PCG64(9))
        theta = rng.standard_normal(5)
        state = OptimizerState(
            step_t=7,
            m=rng.standard_normal(5),
            v=np.abs(rng.standard_normal(5)),
            mbar_stack=[rng.standard_normal(5) for _ in range(2)],
        )
        g = rng.standard_normal(5)
        adam_state = OptimizerState(step_t=7, m=state.m.copy(), v=state.v.copy(), mbar_stack=[])
        out_mi, st_mi = miadam_step(theta, g, state, hp)
        out_ad, _ = adam_step(theta, g, adam_state, base)
        assert np.array_equal(out_mi, out_ad)
        # stack frozen, not cleared
        assert all(np.array_equal(a, b) for a, b in zip(st_mi.mbar_stack, state.mbar_stack))

    @pytest.mark.parametrize("order_n,kappa", [(1, 0.5), (2, 0.98), (3, 1.0)])
    def test_stack_matches_nested_summation(self, order_n, kappa):
        base = AdamHyperParams(weight_decay=0.0)
        hp = MIAdamHyperParams(adam=base, order_n=order_n, kappa=kappa, switch_step=10 ** 9)
        rng = np.random.Generator(np.random.PCG64(10 + order_n))
        grads = [rng.standard_normal(3) for _ in range(30)]
        oracle = nested_summation_stack_top(grads, base.beta1, kappa, order_n)
        theta = np.zeros(3)
        state = OptimizerState.zeros(3, order_n=order_n)
        for t, g in enumerate(grads, start=1):
            theta, state = miadam_step(theta, g, state, hp)
            assert np.max(np.abs(state.mbar_stack[-1] - oracle[t])) < 1e-10

    def test_pre_switch_alpha_power(self):
        base = AdamHyperParams(alpha=0.1, weight_decay=0.0)
        hp = MIAdamHyperParams(adam=base, order_n=2, kappa=0.9, switch_step=100)
        assert hp.pre_switch_alpha == pytest.approx(0.01)
        hp2 = MIAdamHyperParams(
            adam=base, order_n=2, kappa=0.9, switch_step=100, pre_switch_lr_override=0.05
        )
        assert hp2.pre_switch_alpha == 0.05

    def test_order_flagging(self):
        def warnings_for(order_n):
            cfg = normalize_config({
                "kind": "trajectory", "seed": 0, "output_dir": "unused",
                "landscape": "landscape-A", "start": [1.6, -0.3], "total_steps": 5,
                "optimizers": [
                    {"name": "mi", "kind": "miadam", "order_n": order_n, "switch_step": 5},
                ],
            })
            return _optimizer_warnings(cfg["optimizers"])

        assert warnings_for(3) == []
        assert len(warnings_for(4)) == 1 and "order_n=4" in warnings_for(4)[0]

    def test_order_above_the_cap_is_refused(self):
        # each level is an array stepped every step: a huge order would exhaust memory
        with pytest.raises(ContractViolationError, match=f"order_n must be <= {MAX_ORDER_N}"):
            MIAdamHyperParams(order_n=MAX_ORDER_N + 1)
        hp = MIAdamHyperParams(order_n=MAX_ORDER_N, switch_step=None)
        state = OptimizerState.zeros(2, order_n=MAX_ORDER_N)
        theta, state = miadam_step(np.ones(2), np.ones(2), state, hp)
        assert np.isfinite(theta).all() and len(state.mbar_stack) == MAX_ORDER_N

    def test_determinism(self):
        base = AdamHyperParams()
        hp = MIAdamHyperParams(adam=base, order_n=2, kappa=0.9, switch_step=15)
        rng = np.random.Generator(np.random.PCG64(11))
        grads = [rng.standard_normal(4) for _ in range(30)]

        def run():
            theta = np.ones(4)
            state = OptimizerState.zeros(4, order_n=2)
            for g in grads:
                theta, state = miadam_step(theta, g, state, hp)
            return theta

        assert np.array_equal(run(), run())

    def test_null_switch_step_never_switches(self):
        steps = 40
        base = AdamHyperParams()
        rng = np.random.Generator(np.random.PCG64(12))
        grads = [rng.standard_normal(5) for _ in range(steps)]

        def run(switch_step):
            (opt,) = build_lanes(
                MIAdamHyperParams(adam=base, order_n=2, kappa=0.9, switch_step=switch_step), 5
            )
            theta = np.ones(5)
            for g in grads:
                opt.step(theta, g)
            return theta, opt.state

        theta, state = run(None)
        late_theta, late_state = run(steps + 1)
        assert theta.tobytes() == late_theta.tobytes()
        assert state.m.tobytes() == late_state.m.tobytes()
        for level, late_level in zip(state.mbar_stack, late_state.mbar_stack):
            assert level.tobytes() == late_level.tobytes()
        # a switch inside the run changes the result, so the comparison above has teeth
        assert run(steps)[0].tobytes() != theta.tobytes()
        with pytest.raises(ContractViolationError, match="switch_step must be >= 1"):
            MIAdamHyperParams(switch_step=0)


class TestElementwise:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), steps=st.integers(1, 20))
    def test_updates_commute_with_coordinate_permutation(self, seed, steps):
        # every update rule is elementwise, so permuting coordinates of the
        # whole run must equal running on permuted inputs
        rng = np.random.Generator(np.random.PCG64(seed))
        dim = 6
        perm = rng.permutation(dim)
        base = AdamHyperParams(weight_decay=5e-5)
        hp = MIAdamHyperParams(adam=base, order_n=2, kappa=0.9, switch_step=steps // 2 + 1)
        grads = [rng.standard_normal(dim) for _ in range(steps)]
        theta_a = rng.standard_normal(dim)
        theta_b = theta_a[perm].copy()
        sa = OptimizerState.zeros(dim, order_n=2)
        sb = OptimizerState.zeros(dim, order_n=2)
        for g in grads:
            theta_a, sa = miadam_step(theta_a, g, sa, hp)
            theta_b, sb = miadam_step(theta_b, g[perm], sb, hp)
        assert np.array_equal(theta_a[perm], theta_b)


KINDS = ("sgd", "sgdm", "adam", "miadam")


def _params(kind, alpha=0.05, weight_decay=0.0, eps_in_sqrt=False, order_n=2, kappa=0.9,
            switch_step=10**9, override=None):
    if kind == "sgd":
        return SgdParams(alpha=alpha)
    if kind == "sgdm":
        return SgdmParams(alpha=alpha, beta=0.9)
    adam = AdamHyperParams(alpha=alpha, weight_decay=weight_decay, eps_in_sqrt=eps_in_sqrt)
    if kind == "adam":
        return adam
    return MIAdamHyperParams(
        adam=adam, order_n=order_n, kappa=kappa, switch_step=switch_step,
        pre_switch_lr_override=override,
    )


def _ref_run_step(params, theta, grad, state, mult):
    """One step of the reference, driven the way the old stateful wrappers drove it."""
    if isinstance(params, SgdParams):
        return ref_sgd_step(theta, grad, mult * params.alpha), state
    if isinstance(params, SgdmParams):
        return ref_sgdm_step(theta, grad, state, mult * params.alpha, params.beta)
    if isinstance(params, AdamHyperParams):
        return ref_adam_step(theta, grad, state, params, mult)
    return ref_miadam_step(theta, grad, state, params, mult)


def _pure_run_step(params, theta, grad, state, mult):
    if isinstance(params, SgdParams):
        return sgd_step(theta, grad, mult * params.alpha), state
    if isinstance(params, SgdmParams):
        return sgdm_step(theta, grad, state, mult * params.alpha, params.beta)
    if isinstance(params, AdamHyperParams):
        return adam_step(theta, grad, state, params, mult)
    return miadam_step(theta, grad, state, params, mult)


def _state_bytes(state):
    return [state.m.tobytes(), state.v.tobytes(), *(x.tobytes() for x in state.mbar_stack)]


class TestBitExactOracle:
    """The in-place steppers and the pure wrappers against the verbatim reference above."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        order_n=st.integers(1, 4),
        weight_decay=st.sampled_from([0.0, 5e-5, 0.1]),
        eps_in_sqrt=st.booleans(),
        alpha=st.sampled_from([1e-3, 0.05, 0.3]),
        kappa=st.sampled_from([0.5, 0.885, 0.98, 1.0]),
        override=st.sampled_from([None, 0.01]),
        dim=st.integers(1, 300),
        mults=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=12),
        switch_step=st.integers(1, 12),
        grad_scale=st.sampled_from([1e-6, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="miadam", order_n=3, weight_decay=5e-5, eps_in_sqrt=False, alpha=0.05,
             kappa=0.885, override=None, dim=300, mults=[1.0, 0.5, 0.25, 2.0, 1.0],
             switch_step=3, grad_scale=1.0, seed=0)
    def test_matches_reference_bit_for_bit(
        self, kind, order_n, weight_decay, eps_in_sqrt, alpha, kappa, override, dim, mults,
        switch_step, grad_scale, seed,
    ):
        params = _params(kind, alpha, weight_decay, eps_in_sqrt, order_n, kappa, switch_step,
                         override)
        rng = np.random.Generator(np.random.PCG64(seed))
        theta = rng.standard_normal(dim)
        (stepper,) = build_lanes(params, dim)
        order = len(stepper.state.mbar_stack)
        ref_theta, ref_state = theta.copy(), OptimizerState.zeros(dim, order)
        pure_theta, pure_state = theta.copy(), ref_state.copy()
        for mult in mults:
            grad = grad_scale * rng.standard_normal(dim)
            stepper.step(theta, grad, mult)
            ref_theta, ref_state = _ref_run_step(params, ref_theta, grad, ref_state, mult)
            pure_theta, pure_state = _pure_run_step(params, pure_theta, grad, pure_state, mult)
        assert theta.tobytes() == ref_theta.tobytes() == pure_theta.tobytes()
        if kind != "sgd":
            assert stepper.state.step_t == ref_state.step_t == pure_state.step_t == len(mults)
            want = _state_bytes(ref_state)
            assert _state_bytes(stepper.state) == want == _state_bytes(pure_state)

    @pytest.mark.parametrize("kind", KINDS)
    def test_pure_steps_leave_their_inputs_untouched(self, kind):
        rng = np.random.Generator(np.random.PCG64(12))
        params = _params(kind, weight_decay=0.1, switch_step=3)
        theta, grad = rng.standard_normal(6), rng.standard_normal(6)
        state = OptimizerState(2, rng.standard_normal(6), rng.uniform(0, 1, 6),
                               [rng.standard_normal(6) for _ in range(2)])
        before = [theta.tobytes(), grad.tobytes(), *_state_bytes(state)]
        theta_new, new_state = _pure_run_step(params, theta, grad, state, 0.5)
        assert [theta.tobytes(), grad.tobytes(), *_state_bytes(state)] == before
        assert state.step_t == 2
        outputs = [theta_new]
        if kind != "sgd":  # sgd_step takes and returns no state
            outputs += [new_state.m, new_state.v, *new_state.mbar_stack]
        inputs = [theta, grad, state.m, state.v, *state.mbar_stack]
        assert not any(np.shares_memory(a, b) for a in outputs for b in inputs)


class _Counted(np.ndarray):
    """An array that counts the ufunc and array-function calls that it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.calls += 1

        def plain(arrays):
            return tuple(x.view(np.ndarray) if isinstance(x, _Counted) else x for x in arrays)

        if out is not None:
            kwargs["out"] = plain(out)
        result = getattr(ufunc, method)(*plain(inputs), **kwargs)
        if out is not None:  # hand back the caller's arrays, so that calls on them count too
            return out[0] if len(out) == 1 else out
        return result.view(_Counted) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        _Counted.calls += 1
        return super().__array_function__(func, types, args, kwargs)


_REGRET_ADAM = AdamHyperParams(alpha=0.1, weight_decay=0.0)


class TestStepper:
    @pytest.mark.parametrize(
        "params",
        [AdamHyperParams(), MIAdamHyperParams(order_n=3, switch_step=10**9)],
        ids=["adam", "miadam3"],
    )
    def test_warm_step_allocates_no_vector(self, params):
        # A d=5000 step used to allocate about a dozen 40,000 B temporaries.
        # A warm in-place step may allocate only scalars, so its peak stays
        # below even one bool vector of theta's length.
        dim = 5000
        rng = np.random.Generator(np.random.PCG64(13))
        theta, grad = rng.standard_normal(dim), rng.standard_normal(dim)
        (stepper,) = build_lanes(params, dim)
        stepper.step(theta, grad, 0.5)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            stepper.step(theta, grad, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim

    @pytest.mark.parametrize("params,shape,lane_axis,calls", [
        (AdamHyperParams(), 1604, None, 19),
        (MIAdamHyperParams(adam=AdamHyperParams(weight_decay=0.1), order_n=2), (2, 1024), 1, 23),
        ([_REGRET_ADAM, MIAdamHyperParams(adam=_REGRET_ADAM, kappa=0.98, switch_step=None)],
         (2, 4), 0, 21),
    ], ids=["adam-1604", "miadam2-plane", "regret-group"])
    def test_numpy_calls_per_step_are_pinned(self, params, shape, lane_axis, calls):
        # every ufunc and array-function call of a warm step, on theta, grad, the state and
        # the scratch buffers, for training's step, a grid plane's and the regret group's
        group = params if isinstance(params, list) else [params]
        order = max(getattr(p, "order_n", 0) for p in group)

        def counted():
            return np.zeros(shape).view(_Counted)

        stepper = Adam(params, OptimizerState(0, counted(), counted(),
                                              [counted() for _ in range(order)]), lane_axis)
        stepper._finite = stepper._finite.view(_Counted)
        assert isinstance(stepper._a, _Counted) and isinstance(stepper._b, _Counted)
        rng = np.random.Generator(np.random.PCG64(5))
        theta = rng.standard_normal(shape).view(_Counted)
        per_step = []
        for _ in range(3):
            grad = rng.standard_normal(shape).view(_Counted)
            _Counted.calls = 0
            stepper.step(theta, grad, 0.5)
            per_step.append(_Counted.calls)
        assert per_step == [calls] * 3
        assert np.isfinite(theta).all() and stepper.state.step_t == 3

    @pytest.mark.parametrize("params", ["adam"], ids=["str"])
    def test_params_no_stepper_runs_rejected(self, params):
        # a name is not params
        with pytest.raises(ContractViolationError, match="no stepper runs the optimizer params"):
            build_lanes(params, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["parameter", "gradient"])
    def test_non_finite_input_names_the_culprit_and_step(self, kind, bad, where):
        (stepper,) = build_lanes(_params(kind, weight_decay=0.1), 3)
        theta, grad = np.ones(3), np.full(3, 0.5)
        stepper.step(theta, grad)
        (theta if where == "parameter" else grad)[1] = bad
        kept = theta.tobytes()
        message = rf"^non-finite entries in {where} vector \(at step 2\)$"
        stepper.step(theta, grad)  # records the lane's error, and never raises for it
        assert stepper.errors[0] is not None and re.search(message, str(stepper.errors[0]))
        assert stepper.errors[0].step == 2 and stepper.state.step_t == 2
        assert theta.tobytes() == kept

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "kind,name", [("sgd", "SGD"), ("sgdm", "SGDM"), ("adam", "Adam"), ("miadam", "MIAdam")]
    )
    def test_overflowing_update_is_named_as_such(self, kind, name):
        # finite inputs whose update overflows theta to -inf
        (stepper,) = build_lanes(_params(kind, alpha=1.0), 1)
        theta = np.array([-1e308])
        message = rf"^{name} update produced non-finite parameters \(at step 1\)$"
        stepper.step(theta, np.array([1e308 if kind.startswith("sgd") else 1.0]), 1e308)
        assert stepper.errors[0] is not None and re.search(message, str(stepper.errors[0]))
        assert theta[0] == -1e308

    def test_step_counts_and_checks_shapes(self):
        (stepper,) = build_lanes(AdamHyperParams(), 4)
        stepper.step(np.zeros(4), np.ones(4))
        stepper.step(np.zeros(4), np.ones(4))
        assert stepper.state.step_t == 2
        with pytest.raises(ContractViolationError, match="dimension mismatch"):
            stepper.step(np.zeros(4), np.ones(3))
        with pytest.raises(ContractViolationError, match="state dimension"):
            stepper.step(np.zeros(5), np.ones(5))
        with pytest.raises(ContractViolationError, match="order_n=2"):
            miadam_step(np.zeros(4), np.ones(4), OptimizerState.zeros(4, 1),
                        MIAdamHyperParams(order_n=2))

    @pytest.mark.parametrize("params", [SgdParams(alpha=0.05), SgdmParams(alpha=0.05, beta=0.9)],
                             ids=["sgd", "sgdm"])
    def test_sgd_training_moves_the_model(self, params):
        spec = MlpSpec(layer_sizes=(20, 8, 4), init_seed=0)
        ds = make_blobs(classes=4, per_class=20, spread=1.0, seed=0)
        model, metrics = train_classifier(spec, ds, params, LrSchedule(), 3, 16, seed=0)
        assert not np.array_equal(model.get_flat(), Mlp(spec).get_flat())
        assert metrics["train_loss"][-1] < metrics["train_loss"][0]

    @pytest.mark.parametrize("bad", [{"alpha": 0.0}, {"alpha": -1.0}, {"beta": 1.0}])
    def test_sgd_params_validate(self, bad):
        with pytest.raises(ContractViolationError):
            SgdmParams(**bad)
        if "alpha" in bad:
            with pytest.raises(ContractViolationError):
                SgdParams(**bad)


_lane_params = st.fixed_dictionaries({
    "order_n": st.integers(0, 3),  # 0 is plain Adam
    "alpha": st.sampled_from([1e-3, 0.05, 0.3]),
    "kappa": st.sampled_from([0.5, 0.9, 0.98, 1.0]),
    "switch_step": st.one_of(st.none(), st.just(1), st.integers(2, 11)),
    "override": st.sampled_from([None, 0.01]),
})


_RUNS = [
    {"order_n": 2, "alpha": 0.05, "kappa": 0.9, "switch_step": 4, "override": None},
    {"order_n": 0, "alpha": 0.05, "kappa": 0.9, "switch_step": None, "override": None},
    {"order_n": 1, "alpha": 0.05, "kappa": 0.5, "switch_step": 6, "override": None},
    {"order_n": 1, "alpha": 0.05, "kappa": 0.5, "switch_step": 6, "override": None},
    {"order_n": 0, "alpha": 0.05, "kappa": 0.9, "switch_step": None, "override": None},
]


class TestLanes:
    """A stepper of several lanes against one lone stepper per lane, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["group", "sgd", "sgdm"]),
        lanes=st.lists(_lane_params, min_size=2, max_size=4),
        lane_axis=st.sampled_from([0, 1]),
        weight_decay=st.sampled_from([0.0, 0.1]),
        eps_in_sqrt=st.booleans(),
        dim=st.integers(1, 5),
        mults=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=12),
        negative_zeros=st.booleans(),
        diverge=st.lists(st.tuples(
            st.integers(0, 3), st.integers(1, 12), st.sampled_from(["parameter", "gradient"]),
        ), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        kind="group",
        lanes=[
            {"order_n": 0, "alpha": 0.05, "kappa": 0.9, "switch_step": None, "override": None},
            {"order_n": 3, "alpha": 0.05, "kappa": 0.98, "switch_step": 4, "override": None},
            {"order_n": 1, "alpha": 0.3, "kappa": 0.5, "switch_step": None, "override": 0.01},
        ],
        lane_axis=0, weight_decay=0.1, eps_in_sqrt=False, dim=3,
        mults=[1.0, 0.5, 0.25, 2.0, 1.0, 0.75], negative_zeros=True,
        diverge=[(2, 5, "gradient"), (1, 5, "parameter")], seed=0,
    )
    # runs of identical lanes that re-form at each switch: [mi2] [adam] [mi1 mi1] [adam] before
    # step 4, [mi2 adam] [mi1 mi1] [adam] from it, and one run of the whole group from step 6
    @example(kind="group", lanes=_RUNS, lane_axis=0, weight_decay=0.1, eps_in_sqrt=False, dim=2,
             mults=[1.0, 0.5] * 5, negative_zeros=True, diverge=[(3, 7, "gradient")], seed=1)
    @example(kind="group", lanes=_RUNS, lane_axis=1, weight_decay=0.0, eps_in_sqrt=True, dim=3,
             mults=[1.0, 0.5] * 5, negative_zeros=False, diverge=[], seed=2)
    def test_each_lane_steps_as_if_alone(
        self, kind, lanes, lane_axis, weight_decay, eps_in_sqrt, dim, mults, negative_zeros,
        diverge, seed,
    ):
        if kind == "group":
            params = []
            for p in lanes:
                adam = AdamHyperParams(alpha=p["alpha"], weight_decay=weight_decay,
                                       eps_in_sqrt=eps_in_sqrt)
                params.append(adam if p["order_n"] == 0 else MIAdamHyperParams(
                    adam=adam, order_n=p["order_n"], kappa=p["kappa"],
                    switch_step=p["switch_step"], pre_switch_lr_override=p["override"],
                ))
        else:  # every lane takes the one params object
            params = [_params(kind, alpha=lanes[0]["alpha"])] * len(lanes)
        rng = np.random.Generator(np.random.PCG64(seed))
        if lane_axis == 0:
            stepped = rng.standard_normal((len(params), dim))
        else:
            stepped = rng.standard_normal((dim, len(params)))
        (group,) = build_lanes(params if kind == "group" else params[0], stepped.shape,
                               lane_axis=lane_axis)
        assert group.state.m.shape == stepped.shape

        def lane(a, i):
            return np.moveaxis(a, lane_axis, 0)[i]

        theta = np.moveaxis(stepped, lane_axis, 0)  # a view: row i is lane i
        alone = [build_lanes(p, dim)[0] for p in params]
        thetas = [row.copy() for row in theta]
        # each lane whose gradient or parameter turns infinite at a step: lane -> (step, culprit)
        events = {}
        for bad_lane, bad_step, culprit in diverge:
            events.setdefault(bad_lane % len(params), (bad_step, culprit))
        with np.errstate(invalid="ignore", over="ignore"):
            for t, mult in enumerate(mults, 1):
                grad = rng.standard_normal(theta.shape)
                if negative_zeros:
                    grad[rng.uniform(size=grad.shape) < 0.3] = -0.0
                for i, (bad_step, culprit) in events.items():
                    if t == bad_step and culprit == "gradient":
                        grad[i, 0] = np.inf
                    elif t == bad_step:
                        theta[i, 0] = thetas[i][0] = np.inf
                new = []  # the lanes that diverge at this step
                for i, stepper in enumerate(alone):
                    kept = thetas[i].tobytes()
                    stepper.step(thetas[i], grad[i].copy(), mult)
                    if i in events and t == events[i][0]:
                        assert stepper.errors[0].step == t
                        assert thetas[i].tobytes() == kept
                        new.append(i)
                grads = np.ascontiguousarray(np.moveaxis(grad, 0, lane_axis))
                group.step(stepped, grads, mult)
                # each lane has recorded exactly the error of its lone stepper
                # each lane has recorded exactly the error of its lone stepper
                assert [str(error) for error in group.errors] == [str(s.errors[0]) for s in alone]
                for i in new:
                    assert group.errors[i].step == t
                    # a diverged lane keeps its slice, as its lone stepper keeps theta
                    assert theta[i].tobytes() == thetas[i].tobytes()
        diverged = {i: step for i, (step, _) in events.items() if step <= len(mults)}
        assert {i: err.step for i, err in enumerate(group.errors) if err} == diverged
        assert group.state.step_t == len(mults)
        for i, stepper in enumerate(alone):
            if i in diverged:  # checked at its step, above; from there on its state is inf or nan
                continue
            assert theta[i].tobytes() == thetas[i].tobytes()
            state = stepper.state
            assert lane(group.state.m, i).tobytes() == state.m.tobytes()
            assert lane(group.state.v, i).tobytes() == state.v.tobytes()
            levels = [lane(level, i) for level in group.state.mbar_stack]
            order = len(state.mbar_stack)
            assert [x.tobytes() for x in levels[:order]] == [x.tobytes() for x in state.mbar_stack]
            # a padded level is never updated
            assert all(x.tobytes() == bytes(x.nbytes) for x in levels[order:])

    @pytest.mark.parametrize("lane_axis", [0, 1])
    @pytest.mark.parametrize("bad", [0, 1])
    def test_a_lane_names_its_own_update(self, lane_axis, bad):
        # an Adam lane and a MIAdam lane of one group; only lane ``bad`` overflows
        adam = AdamHyperParams(alpha=1.0, weight_decay=0.0)
        params = [adam, MIAdamHyperParams(adam=adam, order_n=2, kappa=0.9)]
        theta = np.zeros((2, 1))
        theta[bad] = -1e308
        (lone,) = build_lanes(params[bad], 1)
        with np.errstate(over="ignore"):
            lone.step(theta[bad].copy(), np.ones(1), 1e308)
        stepped = np.moveaxis(theta, 0, lane_axis).copy()
        (group,) = build_lanes(params, stepped.shape, lane_axis=lane_axis)
        with np.errstate(over="ignore"):
            group.step(stepped, np.ones(stepped.shape), 1e308)
        assert str(group.errors[bad]) == str(lone.errors[0])
        assert str(group.errors[bad]).startswith(f"{['Adam', 'MIAdam'][bad]} update produced")
        assert [i for i, error in enumerate(group.errors) if error] == [bad]

    @pytest.mark.parametrize("count,shape,lane_axis", [
        (2, (3, 4), 0), (3, (4, 2), 1), (1, (3, 4), 0), (2, (2, 4), None),
    ])
    def test_a_params_list_gives_one_per_lane(self, count, shape, lane_axis):
        adam = AdamHyperParams(weight_decay=0.0)
        params = [adam, MIAdamHyperParams(adam=adam, order_n=2), adam][:count]
        # with no lane axis the whole array is one lane, and a list is refused whatever its length
        message = ("needs a lane_axis" if lane_axis is None
                   else f"{count} params given for {shape[lane_axis]} lanes")
        with pytest.raises(ContractViolationError, match=message):
            build_lanes(params, shape, lane_axis=lane_axis)

    @pytest.mark.parametrize("params,shape,lane_axis,message", [
        ([AdamHyperParams(), "sgd"], (2, 3), 0, "no stepper runs the optimizer params 'sgd'"),
        ([SgdParams(), SgdParams()], 3, None, "needs a lane_axis"),
        ([AdamHyperParams()], (1, 3), None, "needs a lane_axis"),
        ([], (2, 4), 0, "0 params given for 2 lanes"),
        ([SgdParams()], (3, 4), 0, "1 params given for 3 lanes"),
    ], ids=["name-in-list", "two-sgd-no-axis", "adam-no-axis", "empty", "short"])
    def test_build_lanes_names_what_it_refuses(self, params, shape, lane_axis, message):
        with pytest.raises(ContractViolationError, match=message):
            build_lanes(params, shape, lane_axis=lane_axis)

    @pytest.mark.parametrize("params,kinds", [
        ([SgdParams()], [Sgd]), ([SgdmParams()], [Sgdm]),
        ([AdamHyperParams(), SgdParams()], [Adam, Sgd]),
        ([SgdmParams(), AdamHyperParams()], [Sgdm, Adam]),
    ], ids=["sgd", "sgdm", "adam-sgd", "sgdm-adam"])
    @pytest.mark.parametrize("lane_axis", [0, 1, -1])
    def test_a_params_list_of_any_kinds_is_one_stepper_per_group(self, params, kinds, lane_axis):
        shape = (len(params), 4) if lane_axis == 0 else (4, len(params))
        steppers = build_lanes(params, shape, lane_axis=lane_axis)
        assert [type(s) for s in steppers] == kinds
        assert [s.params for s in steppers] == params
        lane = (1, 4) if lane_axis == 0 else (4, 1)
        assert [s.state.m.shape for s in steppers] == [lane] * len(params)
        assert [s.errors for s in steppers] == [[None]] * len(params)

    def test_an_int_shape_is_one_axis_of_lanes(self):
        steppers = build_lanes([SgdParams(), AdamHyperParams(), AdamHyperParams()], 3, lane_axis=0)
        assert [s.state.m.shape for s in steppers] == [(1,), (2,)]
        assert [len(s.errors) for s in steppers] == [1, 2]

    def test_groups_split_on_any_shared_hyperparameter(self):
        base = AdamHyperParams(weight_decay=0.0)
        mi = MIAdamHyperParams(adam=dataclasses.replace(base, alpha=0.1), order_n=2)
        # alpha and order do not split a group; an SGD between two compatible lanes does
        params = [base, mi, SgdParams(), mi, base]
        for name, value in [("beta1", 0.5), ("beta2", 0.99), ("epsilon", 1e-6),
                            ("weight_decay", 0.1), ("eps_in_sqrt", True)]:
            params += [dataclasses.replace(base, **{name: value}), base]
        steppers = build_lanes(params, (len(params), 3), lane_axis=0)
        assert [s.state.m.shape for s in steppers] == [(2, 3), (1, 3), (2, 3)] + [(1, 3)] * 10
        # stepper k runs the next rows, in config order
        rows = [s.params if isinstance(s.params, list) else [s.params] for s in steppers]
        assert sum(rows, []) == params
        with pytest.raises(ContractViolationError, match="must share"):
            Adam([base, AdamHyperParams(beta1=0.5)], OptimizerState.zeros((2, 3)))


class TestSchedule:
    def test_cosine_endpoints(self):
        sched = LrSchedule(kind="cosine_annealing", total_steps=100, eta_min=0.0)
        assert schedule_multiplier(sched, 0) == 1.0
        assert schedule_multiplier(sched, 100) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_floor(self):
        sched = LrSchedule(kind="cosine_annealing", total_steps=10, eta_min=0.1)
        assert schedule_multiplier(sched, 10) == pytest.approx(0.1)

    def test_cosine_out_of_range(self):
        sched = LrSchedule(kind="cosine_annealing", total_steps=10)
        with pytest.raises(ContractViolationError):
            schedule_multiplier(sched, 11)

    def test_milestones_step_decay(self):
        sched = LrSchedule(kind="milestones", milestones=(50, 75), gamma=0.1)
        assert schedule_multiplier(sched, 10) == 1.0
        assert schedule_multiplier(sched, 60) == pytest.approx(0.1)
        assert schedule_multiplier(sched, 80) == pytest.approx(0.01)

    def test_constant(self):
        assert schedule_multiplier(LrSchedule(), 12345) == 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolationError, match="unknown schedule kind 'linear'"):
            LrSchedule(kind="linear")

    def test_multiplier_in_unit_interval(self):
        sched = LrSchedule(kind="cosine_annealing", total_steps=200, eta_min=0.01)
        for t in range(1, 201):
            assert 0.0 < schedule_multiplier(sched, t) <= 1.0
