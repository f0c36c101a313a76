"""Oracle tests for Gaussian-well surfaces and trajectory simulation."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import landscapes
from flatmin.errors import ContractViolationError, NonFiniteError
from flatmin.landscapes import (
    LandscapeSpec,
    WellSpec,
    _abs_eig_sum,
    _descend,
    _Wells,
    batch_loss_grad,
    classify_converged_well,
    grid_flatness_study,
    grid_starts,
    landscape_eval,
    simulate_trajectory,
)
from flatmin.optim import (
    AdamHyperParams,
    LrSchedule,
    MIAdamHyperParams,
    SgdmParams,
    SgdParams,
    build_optimizer,
    schedule_multiplier,
)
from flatmin.presets import get_landscape

TWO_WELLS = LandscapeSpec(
    wells=(
        WellSpec(center=(0.0, 0.0), depth=1.0, width=0.5),
        WellSpec(center=(2.0, 1.0), depth=2.0, width=1.5),
    ),
    base_level=0.25,
)


def scalar_loss(spec, x, y):
    """Independent loss recomputation straight from the well definition."""
    total = spec.base_level
    for w in spec.wells:
        r2 = (x - w.center[0]) ** 2 + (y - w.center[1]) ** 2
        total -= w.depth * np.exp(-r2 / (2.0 * w.width ** 2))
    return total


# Reference: the per-point evaluator and scalar flatness formula the batched
# kernel replaced, kept verbatim so the kernel can be held to the same bits.


def reference_landscape_eval(spec, theta):
    th = np.asarray(theta, dtype=np.float64).reshape(1, 2)
    centers = np.array([w.center for w in spec.wells])
    depths = np.array([w.depth for w in spec.wells])
    widths = np.array([w.width for w in spec.wells])
    diff = th[:, None, :] - centers[None, :, :]
    r2 = np.sum(diff * diff, axis=2)
    w2 = widths * widths
    e = depths * np.exp(-r2 / (2.0 * w2))  # (1, W)
    loss = float(spec.base_level - np.sum(e))
    grad = np.sum((e / w2)[:, :, None] * diff, axis=1)[0]
    hess = np.zeros((2, 2))
    for k in range(len(spec.wells)):
        u = diff[0, k]
        hess += (e[0, k] / w2[k]) * (np.eye(2) - np.outer(u, u) / w2[k])
    return loss, grad, hess


def reference_flatness(hess):
    a, b, d = hess[0, 0], hess[0, 1], hess[1, 1]
    tr = a + d
    disc = np.sqrt((a - d) ** 2 + 4.0 * b * b)
    lam1 = 0.5 * (tr + disc)
    lam2 = 0.5 * (tr - disc)
    return abs(lam1) + abs(lam2)


# Reference: the descent loop as it was before it held the points as (2, B)
# planes, kept verbatim: one interleaved parameter vector, stepped on the
# (B, 2) gradient of ``batch_loss_grad`` with the loss at every step.  Here
# ``batch_loss_grad`` is the per-point reference above, so the descent's
# kernel is held to it as well.


def reference_batch_loss_grad(spec, thetas):
    evals = [reference_landscape_eval(spec, p) for p in thetas]
    return np.array([ev[0] for ev in evals]), np.array([ev[1] for ev in evals])


def reference_descend(spec, starts, optimizer, sched, total_steps, record=None) -> np.ndarray:
    if total_steps < 0:
        raise ContractViolationError("total_steps must be >= 0")
    n = len(starts)
    theta = starts.reshape(-1).copy()
    opt = build_optimizer(optimizer, theta.size)
    for t in range(1, total_steps + 1):
        loss, grad = reference_batch_loss_grad(spec, theta.reshape(n, 2))
        mult = schedule_multiplier(sched, t - 1)
        opt.step(theta, grad.reshape(-1), lr_multiplier=mult)
        if record is not None:
            record(t, theta, loss)
    return theta.reshape(n, 2)


def abs_eig_sum(hess):
    """The flatness kernel on symmetric 2x2 matrices (..., 2, 2)."""
    hess = np.asarray(hess)
    return _abs_eig_sum(hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1])


def flatness_at(spec, theta):
    return abs_eig_sum(landscape_eval(spec, theta)[2])


def same_bits(x, y):
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


_coord = st.floats(-4.0, 4.0, allow_nan=False)
_wells = st.lists(
    st.builds(
        WellSpec,
        center=st.tuples(_coord, _coord),
        depth=st.floats(0.01, 5.0),
        width=st.floats(0.05, 3.0),
    ),
    min_size=1,
    max_size=9,
)
_landscapes = st.builds(
    LandscapeSpec, wells=_wells.map(tuple), base_level=st.floats(-1.0, 1.0)
)
_batches = st.lists(st.tuples(_coord, _coord), min_size=1, max_size=40).map(np.array)

# (a, b, d) where (a - d) ** 2 through libm pow and (a - d) * (a - d) lead to
# flatness values one ulp apart
POW_SENSITIVE_HESSIAN = (-1.0632074069004986e-05, 0.0004194599297343268, 0.13327315312405535)


class TestBitExactOracle:
    @settings(max_examples=150, deadline=None)
    @given(spec=_landscapes, pts=_batches)
    def test_batched_equals_reference(self, spec, pts):
        wells = _Wells(spec, len(pts))
        grad = np.empty((2, len(pts)))
        wells.gradient(pts[:, 0], pts[:, 1], grad)
        loss, (hxx, hxy, hyy) = wells.loss(), wells.hessian()
        flatness = _abs_eig_sum(hxx, hxy, hyy)
        losses, grads = batch_loss_grad(spec, pts)
        for i, p in enumerate(pts):
            ref_loss, ref_grad, ref_hess = reference_landscape_eval(spec, p)
            assert loss[i] == ref_loss and losses[i] == ref_loss
            assert same_bits(grad[:, i], ref_grad) and same_bits(grads[i], ref_grad)
            assert same_bits([[hxx[i], hxy[i]], [hxy[i], hyy[i]]], ref_hess)
            assert same_bits(flatness[i], reference_flatness(ref_hess))

    @settings(max_examples=150, deadline=None)
    @given(spec=_landscapes, x=_coord, y=_coord)
    def test_single_point_equals_reference(self, spec, x, y):
        loss, grad, hess = landscape_eval(spec, (x, y))
        ref_loss, ref_grad, ref_hess = reference_landscape_eval(spec, (x, y))
        assert loss == ref_loss
        assert same_bits(grad, ref_grad) and same_bits(hess, ref_hess)
        assert same_bits(flatness_at(spec, (x, y)), reference_flatness(ref_hess))

    def test_nine_wells_single_point(self):
        # at B = 1 with >= 8 wells, np.sum over the well axis goes pairwise
        spec = get_landscape("landscape-B")
        rng = np.random.Generator(np.random.PCG64(25))
        for p in rng.uniform(-2, 3, size=(200, 2)):
            _, grad, hess = landscape_eval(spec, tuple(p))
            _, ref_grad, ref_hess = reference_landscape_eval(spec, tuple(p))
            assert same_bits(grad, ref_grad) and same_bits(hess, ref_hess)

    def test_square_goes_through_pow(self):
        a, b, d = POW_SENSITIVE_HESSIAN
        x = np.float64(a - d)
        if x * x == x ** 2:
            pytest.skip("this platform's pow rounds the pinned square like x * x")
        hess = np.array([[a, b], [b, d]])
        expected = reference_flatness(hess)
        assert abs_eig_sum(hess) == expected
        assert same_bits(abs_eig_sum(hess[None]), [expected])


DESCENT_STEPS = 24
_descent_optimizers = st.sampled_from([
    SgdParams(alpha=0.05),
    SgdmParams(alpha=0.02, beta=0.9),
    AdamHyperParams(alpha=0.05, weight_decay=0.1),
    # switches halfway through the run
    MIAdamHyperParams(
        adam=AdamHyperParams(alpha=0.05, weight_decay=0.0),
        order_n=3,
        kappa=0.9,
        switch_step=DESCENT_STEPS // 2,
        pre_switch_lr_override=0.01,
    ),
])
_descent_schedules = st.sampled_from(
    [LrSchedule(), LrSchedule(kind="cosine_annealing", total_steps=DESCENT_STEPS)]
)


class TestPlaneDescent:
    @settings(max_examples=40, deadline=None)
    @given(
        spec=_landscapes,
        n=st.sampled_from([1, 2, 37]),
        optimizer=_descent_optimizers,
        sched=_descent_schedules,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_interleaved_loop(self, spec, n, optimizer, sched, seed):
        starts = np.random.Generator(np.random.PCG64(seed)).uniform(-4.0, 4.0, size=(n, 2))
        ref_steps, steps = [], []

        def ref_record(t, theta, loss):
            ref_steps.append((t, theta.reshape(n, 2).copy(), loss.copy()))

        def record(t, planes, loss):
            steps.append((t, planes.T.copy(), loss.copy()))

        ref = reference_descend(spec, starts, optimizer, sched, DESCENT_STEPS, ref_record)
        final, flatness = _descend(_Wells(spec, n), starts, optimizer, sched, DESCENT_STEPS, record)
        assert same_bits(final, ref)
        ref_flatness = [reference_flatness(reference_landscape_eval(spec, p)[2]) for p in ref]
        assert same_bits(flatness, ref_flatness)
        assert len(steps) == len(ref_steps) == DESCENT_STEPS
        for (t, theta, loss), (ref_t, ref_theta, ref_loss) in zip(steps, ref_steps):
            assert t == ref_t and same_bits(theta, ref_theta) and same_bits(loss, ref_loss)

    def test_computes_the_loss_only_when_it_records(self, monkeypatch):
        def no_loss(self):
            raise AssertionError("the loss was computed without a record")

        starts = grid_starts(((-1.0, 2.0), (-1.0, 2.0)), (3, 3))
        expected = reference_descend(TWO_WELLS, starts, SgdParams(0.05), LrSchedule(), 5)
        monkeypatch.setattr(_Wells, "loss", no_loss)
        final, _ = _descend(_Wells(TWO_WELLS, len(starts)), starts, SgdParams(0.05), LrSchedule(), 5)
        assert same_bits(final, expected)

    def test_one_kernel_per_run(self, monkeypatch):
        built = []

        class CountingWells(_Wells):
            def __init__(self, spec, n):
                built.append(n)
                super().__init__(spec, n)

        monkeypatch.setattr(landscapes, "_Wells", CountingWells)
        optimizers = [SgdParams(0.05), SgdmParams(0.02, 0.9), AdamHyperParams(alpha=0.05)]
        grid_flatness_study(TWO_WELLS, ((-1.0, 2.0), (-1.0, 2.0)), (3, 3), optimizers, LrSchedule(), 5)
        assert built == [9]
        simulate_trajectory(TWO_WELLS, (0.5, 0.5), SgdParams(0.05), LrSchedule(), 5)
        assert built == [9, 1]


class TestAllocation:
    def test_warm_gradient_allocates_less_than_one_row(self):
        # every (W, B) plane and the (2, B) gradient live in buffers allocated
        # once; a warm call may allocate only views and scalars
        n = 1024
        spec = get_landscape("landscape-B")
        planes = np.random.Generator(np.random.PCG64(26)).uniform(-2.0, 3.0, size=(2, n))
        wells = _Wells(spec, n)
        grad = np.empty_like(planes)
        wells.gradient(planes[0], planes[1], grad)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            wells.gradient(planes[0], planes[1], grad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 8


class TestSurface:
    def test_loss_at_well_center(self):
        spec = LandscapeSpec(wells=(WellSpec(center=(1.0, -1.0), depth=3.0, width=0.7),))
        loss, grad, _ = landscape_eval(spec, (1.0, -1.0))
        assert loss == pytest.approx(-3.0, abs=1e-15)
        assert np.max(np.abs(grad)) < 1e-15

    def test_loss_matches_scalar_recomputation(self):
        rng = np.random.Generator(np.random.PCG64(20))
        pts = rng.uniform(-3, 4, size=(50, 2))
        losses, _ = batch_loss_grad(TWO_WELLS, pts)
        for p, loss in zip(pts, losses):
            assert loss == pytest.approx(scalar_loss(TWO_WELLS, p[0], p[1]), rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(21))
        h = 1e-6
        for _ in range(25):
            x, y = rng.uniform(-3, 4, size=2)
            _, grad, _ = landscape_eval(TWO_WELLS, (x, y))
            gx = (scalar_loss(TWO_WELLS, x + h, y) - scalar_loss(TWO_WELLS, x - h, y)) / (2 * h)
            gy = (scalar_loss(TWO_WELLS, x, y + h) - scalar_loss(TWO_WELLS, x, y - h)) / (2 * h)
            assert grad[0] == pytest.approx(gx, rel=1e-6, abs=1e-9)
            assert grad[1] == pytest.approx(gy, rel=1e-6, abs=1e-9)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(22))
        h = 1e-5
        for _ in range(15):
            pt = rng.uniform(-2, 3, size=2)
            _, _, hess = landscape_eval(TWO_WELLS, tuple(pt))
            fd = np.empty((2, 2))
            for i in range(2):
                for j in range(2):
                    e_i = np.eye(2)[i] * h
                    e_j = np.eye(2)[j] * h
                    fd[i, j] = (
                        scalar_loss(TWO_WELLS, *(pt + e_i + e_j))
                        - scalar_loss(TWO_WELLS, *(pt + e_i - e_j))
                        - scalar_loss(TWO_WELLS, *(pt - e_i + e_j))
                        + scalar_loss(TWO_WELLS, *(pt - e_i - e_j))
                    ) / (4 * h * h)
            assert np.max(np.abs(hess - fd)) < 1e-4 * (1 + np.max(np.abs(hess)))

    def test_hessian_symmetric(self):
        _, _, hess = landscape_eval(TWO_WELLS, (0.3, -0.8))
        assert hess[0, 1] == hess[1, 0]

    def test_batch_matches_single_eval(self):
        rng = np.random.Generator(np.random.PCG64(23))
        pts = rng.uniform(-2, 3, size=(10, 2))
        losses, grads = batch_loss_grad(TWO_WELLS, pts)
        for i, p in enumerate(pts):
            loss, grad, _ = landscape_eval(TWO_WELLS, tuple(p))
            assert losses[i] == loss
            assert np.array_equal(grads[i], grad)

    def test_spec_validation(self):
        with pytest.raises(ContractViolationError):
            WellSpec(center=(0, 0), depth=0.0, width=1.0)
        with pytest.raises(ContractViolationError):
            WellSpec(center=(0, 0), depth=1.0, width=-1.0)
        with pytest.raises(ContractViolationError):
            LandscapeSpec(wells=())


# far from every well k underflows to 0 while dx * dx / w2 overflows to inf
FAR = (1e200, 1e200)


@pytest.mark.filterwarnings("error:overflow encountered:RuntimeWarning")
class TestFarField:
    def test_eval_is_flat(self):
        loss, grad, hess = landscape_eval(TWO_WELLS, FAR)
        assert loss == TWO_WELLS.base_level
        assert same_bits(grad, np.zeros(2)) and same_bits(hess, np.zeros((2, 2)))
        assert flatness_at(TWO_WELLS, FAR) == 0.0

    def test_trajectory_flatness_is_zero(self):
        hp = AdamHyperParams(alpha=0.05, weight_decay=0.0)
        rec = simulate_trajectory(TWO_WELLS, FAR, hp, LrSchedule(), 5)
        assert rec.final_theta == FAR and rec.flatness == 0.0


class TestFlatness:
    def test_matches_eigendecomposition(self):
        rng = np.random.Generator(np.random.PCG64(24))
        for _ in range(50):
            a, b, d = rng.standard_normal(3)
            hess = np.array([[a, b], [b, d]])
            expected = np.sum(np.abs(np.linalg.eigvalsh(hess)))
            assert abs_eig_sum(hess) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_positive_definite_equals_trace(self):
        hess = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert abs_eig_sum(hess) == pytest.approx(np.trace(hess), rel=1e-14)

    def test_sharp_well_flatter_than_wide(self):
        sharp = LandscapeSpec(wells=(WellSpec(center=(0, 0), depth=1.0, width=0.1),))
        wide = LandscapeSpec(wells=(WellSpec(center=(0, 0), depth=1.0, width=2.0),))
        assert flatness_at(sharp, (0.0, 0.0)) > flatness_at(wide, (0.0, 0.0))


DEEP_WELL = LandscapeSpec(wells=(WellSpec(center=(0.0, 0.0), depth=1e300, width=1.0),))


def mp_flatness(spec, x, y):
    """|lambda_1| + |lambda_2| of the Hessian at (x, y), in 50-digit arithmetic."""
    with mpmath.workdps(50):
        hxx = hxy = hyy = mpmath.mpf(0)
        for w in spec.wells:
            dx, dy = mpmath.mpf(x) - w.center[0], mpmath.mpf(y) - w.center[1]
            w2 = mpmath.mpf(w.width) ** 2
            k = w.depth * mpmath.exp(-(dx * dx + dy * dy) / (2 * w2)) / w2
            hxx += k * (1 - dx * dx / w2)
            hxy -= k * dx * dy / w2
            hyy += k * (1 - dy * dy / w2)
        return mp_abs_eig_sum(hxx, hxy, hyy)


def mp_abs_eig_sum(a, b, d):
    with mpmath.workdps(50):
        a, b, d = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(d)
        half_tr, root = (a + d) / 2, mpmath.sqrt(((a - d) / 2) ** 2 + b * b)
        return float(abs(half_tr + root) + abs(half_tr - root))


class TestDeepWell:
    # depth 1e300: the squares (a - d)^2 + 4 b^2 overflow, the eigenvalues do not

    @pytest.mark.parametrize("abd", [(1e300, -9e300, 1e300), (-8e296, -9e296, -8e296),
                                     (1e307, 3e306, -5e306), (3e200, 1e200, 2e200)])
    def test_abs_eig_sum_matches_mpmath(self, abd):
        with np.errstate(over="ignore"):
            got = _abs_eig_sum(*(np.array([x]) for x in abd))[0]
        assert got == pytest.approx(mp_abs_eig_sum(*abd), rel=1e-14)

    def test_grid_and_trajectory_flatness_match_mpmath(self):
        region, sgd = ((-3.0, 3.0), (-3.0, 3.0)), SgdParams(alpha=1e-3)
        (flat,) = grid_flatness_study(DEEP_WELL, region, (3, 3), [sgd], LrSchedule(), 0)
        want = [mp_flatness(DEEP_WELL, x, y) for x, y in grid_starts(region, (3, 3))]
        assert flat.tolist() == pytest.approx(want, rel=1e-13)
        assert flat[0] == pytest.approx(2.22e297, rel=1e-3)
        rec = simulate_trajectory(DEEP_WELL, (0.5, 0.2), sgd, LrSchedule(), 0)
        assert rec.flatness == pytest.approx(mp_flatness(DEEP_WELL, 0.5, 0.2), rel=1e-13)
        assert rec.flatness == pytest.approx(1.48e300, rel=1e-3)


class TestClassification:
    def test_at_center(self):
        assert classify_converged_well(TWO_WELLS, (0.0, 0.0)) == 0
        assert classify_converged_well(TWO_WELLS, (2.0, 1.0)) == 1

    def test_far_from_all_wells(self):
        assert classify_converged_well(TWO_WELLS, (50.0, 50.0)) is None

    def test_radius_boundary(self):
        # well 0 has width 0.5 -> capture radius 1.5 along x from origin
        assert classify_converged_well(TWO_WELLS, (-1.49, 0.0)) == 0


class TestTrajectories:
    def test_sgd_descends_into_well(self):
        spec = LandscapeSpec(wells=(WellSpec(center=(0, 0), depth=2.0, width=1.0),))
        rec = simulate_trajectory(
            spec, (0.8, -0.6), SgdParams(alpha=0.1), LrSchedule(), total_steps=300
        )
        assert rec.converged_well == 0
        assert np.linalg.norm(rec.final_theta) < 1e-3
        assert rec.steps[-1][0] == 300

    def test_losses_monotone_for_small_sgd_steps(self):
        rec = simulate_trajectory(
            TWO_WELLS, (1.0, 0.5), SgdParams(alpha=0.01), LrSchedule(), total_steps=200
        )
        losses = [s[2] for s in rec.steps]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        hp = AdamHyperParams(alpha=0.05, weight_decay=0.0)
        r1 = simulate_trajectory(TWO_WELLS, (-1.0, 2.0), hp, LrSchedule(), 100)
        r2 = simulate_trajectory(TWO_WELLS, (-1.0, 2.0), hp, LrSchedule(), 100)
        assert r1.steps == r2.steps and r1.final_theta == r2.final_theta

    def test_zero_steps(self):
        rec = simulate_trajectory(TWO_WELLS, (0.1, 0.1), SgdParams(alpha=0.1), LrSchedule(), 0)
        assert rec.steps == [] and rec.final_theta == (0.1, 0.1)

    def test_negative_steps_rejected(self):
        with pytest.raises(ContractViolationError):
            simulate_trajectory(TWO_WELLS, (0, 0), SgdParams(alpha=0.1), LrSchedule(), -1)


class TestGrid:
    def test_grid_starts_row_major(self):
        pts = grid_starts(((0.0, 1.0), (10.0, 12.0)), (3, 2))
        assert pts.shape == (6, 2)
        assert np.array_equal(pts[0], [0.0, 10.0])
        assert np.array_equal(pts[1], [1.0, 10.0])
        assert np.array_equal(pts[2], [0.0, 11.0])
        assert np.array_equal(pts[-1], [1.0, 12.0])

    def test_single_cell_uses_midpoint(self):
        pts = grid_starts(((0.0, 2.0), (4.0, 6.0)), (1, 1))
        assert np.array_equal(pts, [[1.0, 5.0]])

    def test_bad_grid(self):
        with pytest.raises(ContractViolationError):
            grid_starts(((0, 1), (0, 1)), (0, 5))

    def test_batched_study_equals_per_start_runs(self):
        hp = AdamHyperParams(alpha=0.05, weight_decay=0.0)
        sched = LrSchedule(kind="cosine_annealing", total_steps=60)
        region = ((-1.5, 2.5), (-1.5, 2.5))
        (flat,) = grid_flatness_study(TWO_WELLS, region, (3, 3), [hp], sched, 60)
        starts = grid_starts(region, (3, 3))
        for i, start in enumerate(starts):
            rec = simulate_trajectory(TWO_WELLS, tuple(start), hp, sched, 60)
            assert flat[i] == pytest.approx(rec.flatness, rel=0, abs=0)

    def test_a_diverging_start_fails_the_study_with_its_lone_error(self):
        # SGDM at alpha 1e10 on the deep well: start 1 alone fails at step 2, and start 2,
        # later in row-major order, fails sooner, at step 1
        region, sgdm = ((-3.0, 3.0), (-3.0, 3.0)), SgdmParams(alpha=1e10, beta=0.9)
        with pytest.raises(NonFiniteError) as lone:
            simulate_trajectory(DEEP_WELL, tuple(grid_starts(region, (5, 5))[1]), sgdm,
                                LrSchedule(), 30)
        with pytest.raises(NonFiniteError) as batch:
            grid_flatness_study(DEEP_WELL, region, (5, 5), [sgdm], LrSchedule(), 30)
        assert str(batch.value) == str(lone.value)
        assert batch.value.step == lone.value.step == 2

    def test_multiple_optimizers_independent(self):
        hp = AdamHyperParams(alpha=0.05, weight_decay=0.0)
        sgd = SgdParams(alpha=0.05)
        region = ((-1, 2), (-1, 2))
        both = grid_flatness_study(TWO_WELLS, region, (2, 2), [hp, sgd], LrSchedule(), 50)
        (only_adam,) = grid_flatness_study(TWO_WELLS, region, (2, 2), [hp], LrSchedule(), 50)
        assert np.array_equal(both[0], only_adam)


class TestPresets:
    def test_landscape_a_shape(self):
        spec = get_landscape("landscape-A")
        assert len(spec.wells) == 3
        # flanking wells are sharper than the middle one at their centers
        flats = []
        for w in spec.wells:
            flats.append(flatness_at(spec, w.center))
        assert flats[0] > flats[1] and flats[2] > flats[1]

    def test_landscape_b_checkerboard(self):
        spec = get_landscape("landscape-B")
        assert len(spec.wells) == 9
        widths = sorted({w.width for w in spec.wells})
        assert len(widths) == 2 and widths[0] < widths[1]

    def test_unknown_preset(self):
        with pytest.raises(ContractViolationError):
            get_landscape("no-such-landscape")
