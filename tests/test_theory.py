"""Tests for closed-form escape times and the regret experiment."""

import itertools
import math

import numpy as np
import pytest

from flatmin.errors import ContractViolationError, NonFiniteError
from flatmin.optim import AdamHyperParams, MIAdamHyperParams, SgdParams
from flatmin.theory import (
    DriftingQuadraticProblem,
    EscapeScenario,
    escape_report,
    escape_time_adam,
    escape_time_miadam1,
    run_regret_experiment,
)

# Reference scenario: 3-dim spectra, one negative saddle direction.
BASE = dict(
    beta1=0.9,
    batch_size_b=128,
    delta_L=0.1,
    h_a_eigs=(10.0, 2.0, 3.0),
    h_u_eigs=(-5.0, 2.0, 3.0),
    escape_index=0,
    rho=0.5,
)


def scenario(alpha, t_tilde=1.0):
    return EscapeScenario(alpha=alpha, t_tilde=t_tilde, **BASE)


class TestEscapeTimes:
    def test_equal_at_unit_continuous_time(self):
        s = scenario(alpha=1e-2, t_tilde=1.0)
        mi = escape_time_miadam1(s)
        ad = escape_time_adam(s)
        assert mi == pytest.approx(ad, rel=1e-12)

    def test_faster_escape_for_larger_t_tilde(self):
        ad = escape_time_adam(scenario(alpha=1e-2))
        prev = ad
        for tt in (1.5, 2.0, 4.0, 8.0):
            mi = escape_time_miadam1(scenario(alpha=1e-2, t_tilde=tt))
            assert mi < prev
            prev = mi

    def test_pinned_value_moderate_alpha(self):
        # 60-digit arbitrary-precision evaluation of the closed form at
        # alpha=1e-2, t_tilde=4 gives these references.
        s = scenario(alpha=1e-2, t_tilde=4.0)
        assert escape_time_miadam1(s) == pytest.approx(3630931438.670424476336, rel=1e-10)
        assert escape_time_adam(s) == pytest.approx(7.437293314011251178165e37, rel=1e-10)

    def test_pinned_value_small_alpha(self):
        # At alpha=1e-3 the Adam expression exceeds float64 range
        # (true value ~1.667e375): reported as +inf, not an error.
        s = scenario(alpha=1e-3, t_tilde=4.0)
        assert escape_time_miadam1(s) == pytest.approx(6.729726065193706293407109e93, rel=1e-10)
        assert escape_time_adam(s) == math.inf

    def test_report_fields(self):
        rep = escape_report(scenario(alpha=1e-2, t_tilde=4.0))
        assert rep["phi_miadam1"] < rep["phi_adam"]
        assert rep["ratio_miadam1_over_adam"] == pytest.approx(
            rep["phi_miadam1"] / rep["phi_adam"]
        )
        assert not rep["overflowed"]

    def test_report_flags_overflow(self):
        rep = escape_report(scenario(alpha=1e-3, t_tilde=4.0))
        assert rep["phi_adam"] == math.inf
        assert rep["ratio_miadam1_over_adam"] is None
        assert rep["overflowed"]

    def test_monotone_in_barrier_height(self):
        prev = 0.0
        for dl in (0.05, 0.1, 0.2, 0.4):
            s = EscapeScenario(alpha=1e-2, t_tilde=2.0, **{**BASE, "delta_L": dl})
            val = escape_time_miadam1(s)
            assert val > prev
            prev = val

    def test_monotone_decreasing_in_alpha(self):
        vals = [escape_time_miadam1(scenario(a, t_tilde=2.0)) for a in (5e-3, 1e-2, 2e-2)]
        assert vals[0] > vals[1] > vals[2]

    def test_validation(self):
        with pytest.raises(ContractViolationError):
            scenario(alpha=0.0)
        with pytest.raises(ContractViolationError):
            EscapeScenario(alpha=1e-2, **{**BASE, "h_u_eigs": (-5.0, -2.0, 3.0)})
        with pytest.raises(ContractViolationError):
            EscapeScenario(alpha=1e-2, **{**BASE, "escape_index": 1})
        with pytest.raises(ContractViolationError):
            EscapeScenario(alpha=1e-2, **{**BASE, "h_a_eigs": (-1.0, 2.0, 3.0)})
        with pytest.raises(ContractViolationError):
            EscapeScenario(alpha=1e-2, t_tilde=0.0, **BASE)

    def test_pinned_values_recomputed_at_high_precision(self):
        # Re-derive the pinned constants from the closed form with mpmath
        # at 60 digits, so the frozen numbers are self-checking.
        mp = pytest.importorskip("mpmath").mp
        mpmath = pytest.importorskip("mpmath")
        mp.dps = 60

        def phi(alpha, t_tilde):
            alpha = mpmath.mpf(alpha)
            t_tilde = mpmath.mpf(t_tilde)
            b = mpmath.mpf(128)
            beta1 = mpmath.mpf("0.9")
            dl = mpmath.mpf("0.1")
            h_ae, h_ue = mpmath.mpf(10), mpmath.mpf(5)
            det_ratio = (h_ue / h_ae) * 1 * 1
            pref = mpmath.pi * (
                mpmath.sqrt(1 + 4 * alpha * mpmath.sqrt(b * h_ue) / (t_tilde * (1 - beta1))) + 1
            )
            geom = det_ratio ** mpmath.mpf("0.25") / h_ue
            expo = (2 * mpmath.sqrt(b) * dl / (t_tilde * alpha)) * (
                mpmath.mpf("0.5") / mpmath.sqrt(h_ae) + mpmath.mpf("0.5") / mpmath.sqrt(h_ue)
            )
            return pref * geom * mpmath.exp(expo)

        assert abs(float(phi("0.001", 4)) / 6.729726065193706293407109e93 - 1) < 1e-12
        assert abs(float(phi("0.01", 4)) / 3630931438.670424476336 - 1) < 1e-12
        assert abs(float(phi("0.01", 1)) / 7.437293314011251178165e37 - 1) < 1e-12

    def test_det_ratio_from_spectra(self):
        s = scenario(alpha=1e-2)
        expected = (5.0 / 10.0) * (2.0 / 2.0) * (3.0 / 3.0)
        assert s.det_ratio == pytest.approx(expected, rel=1e-14)


# each optimizer and the error that it raises alone, over 1,100 steps at a constant rate
_OUTCOMES = [
    (AdamHyperParams(alpha=0.1, weight_decay=0.0), None),
    # in adam's lane group; its first step overflows
    (AdamHyperParams(alpha=1e308, weight_decay=0.0),
     "regret run diverged to non-finite iterates (at step 1)"),
    # their distance to the targets grows 1.5x and 2x a step
    (SgdParams(alpha=2.5), "cumulative regret overflowed (at step 874)"),
    (SgdParams(alpha=3.0), "regret run diverged to non-finite iterates (at step 1023)"),
]


def _regret_error(optimizers):
    try:
        run_regret_experiment(DriftingQuadraticProblem(seed=2), optimizers, 1100, 0.0)
    except NonFiniteError as err:
        return str(err)
    return None


class TestRegret:
    def test_constant_problem_zero_regret_at_optimum(self):
        # theta0 equals the (constant) target, so every per-step regret is 0.
        prob = DriftingQuadraticProblem(dim=3, target_low=0.5, target_high=0.5, theta0=0.5)
        cumulative, _ = run_regret_experiment(prob, [AdamHyperParams(weight_decay=0.0)], 50, 0.5)
        assert cumulative.shape == (1, 50)
        assert np.max(np.abs(cumulative)) < 1e-12

    def test_zero_drift_cumulative_regret_nondecreasing(self):
        # With a fixed target the comparator is that target, so the
        # instantaneous regret is a squared distance: always >= 0.
        prob = DriftingQuadraticProblem(dim=2, target_low=1.0, target_high=1.0, theta0=0.0)
        cumulative, _ = run_regret_experiment(prob, [AdamHyperParams(weight_decay=0.0)], 200, 0.5)
        diffs = np.diff(cumulative[0])
        assert np.all(diffs >= -1e-12)

    @pytest.mark.parametrize("target", [-0.0, 0.5])
    def test_constant_problem_draws_its_target(self, target):
        class FullTargets(DriftingQuadraticProblem):
            def targets(self, horizon):
                return np.full((horizon, self.dim), self.target_low)

        fields = dict(dim=3, target_low=target, target_high=target, theta0=-1.0, seed=4)
        prob = DriftingQuadraticProblem(**fields)
        assert np.array_equal(prob.targets(20), np.full((20, 3), target))
        # a -0.0 target is drawn as +0.0; regret squares it, so no value changes
        hp = AdamHyperParams(alpha=0.1)
        drawn, _ = run_regret_experiment(prob, [hp], horizon=40, lr_decay_h=0.5)
        full, _ = run_regret_experiment(FullTargets(**fields), [hp], horizon=40, lr_decay_h=0.5)
        assert drawn.tobytes() == full.tobytes()

    def test_adam_average_regret_decays(self):
        prob = DriftingQuadraticProblem(seed=5)
        _, (average,) = run_regret_experiment(
            prob, [AdamHyperParams(alpha=0.1, weight_decay=0.0)], horizon=4000, lr_decay_h=0.5
        )
        early = average[99]
        late = average[-1]
        assert late < 0.5 * early

    def test_unswitched_miadam_average_regret_stalls(self):
        prob = DriftingQuadraticProblem(seed=5)
        adam = AdamHyperParams(alpha=0.1, weight_decay=0.0)
        mi = MIAdamHyperParams(adam=adam, order_n=1, kappa=0.98, switch_step=None)
        _, (avg_ad, avg_mi) = run_regret_experiment(prob, [adam, mi], horizon=4000, lr_decay_h=0.5)
        assert avg_mi[-1] > 10.0 * avg_ad[-1]

    def test_deterministic(self):
        prob = DriftingQuadraticProblem(seed=9)
        hp = AdamHyperParams(weight_decay=0.0)
        a, _ = run_regret_experiment(prob, [hp], horizon=100, lr_decay_h=0.5)
        b, _ = run_regret_experiment(prob, [hp], horizon=100, lr_decay_h=0.5)
        assert np.array_equal(a, b)

    def test_average_is_cumulative_over_t(self):
        prob = DriftingQuadraticProblem(seed=1)
        hp = AdamHyperParams(weight_decay=0.0)
        cumulative, average = run_regret_experiment(prob, [hp], 30, 0.5)
        assert np.array_equal(average, cumulative / np.arange(1, 31))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("params,outcome", _OUTCOMES)
    def test_each_outcome_alone(self, params, outcome):
        assert _regret_error([params]) == outcome

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_a_run_raises_the_error_of_its_first_failing_optimizer(self, order):
        first = next(e for e in (_OUTCOMES[i][1] for i in order) if e is not None)
        assert _regret_error([_OUTCOMES[i][0] for i in order]) == first

    def test_no_optimizers(self):
        class Undrawn(DriftingQuadraticProblem):
            def targets(self, horizon):
                raise AssertionError("the stream was drawn")

        with pytest.raises(ContractViolationError, match="at least one optimizer"):
            run_regret_experiment(Undrawn(), [], 10, 0.5)

    def test_bad_horizon(self):
        with pytest.raises(ContractViolationError):
            run_regret_experiment(
                DriftingQuadraticProblem(), [AdamHyperParams()], horizon=0, lr_decay_h=0.5
            )
