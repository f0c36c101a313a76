"""Tests for finite-difference HVPs, power iteration, and Hutchinson trace."""

import math
import tracemalloc

import numpy as np
import pytest

from flatmin.errors import ContractViolationError, NonFiniteError
from flatmin.hessian import hutchinson_trace, hvp, top_eigenvalue


def quadratic_grad(mat):
    """Gradient of 0.5 x^T A x for symmetric A."""
    return lambda theta: mat @ theta


def random_symmetric(dim, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    m = rng.standard_normal((dim, dim))
    return 0.5 * (m + m.T)


def dense_quadratic(dim):
    """Gradient of 0.5 x^T B B^T x: a dense Hessian, with B of 8 columns to keep HVPs cheap."""
    b = np.random.Generator(np.random.PCG64(dim)).standard_normal((dim, 8))
    return lambda theta: b @ (b.T @ theta)


def one_shot_trace(grad_fn, theta, probes, seed):
    """The estimator with every probe drawn up front as one (probes, dim) matrix."""
    rng = np.random.Generator(np.random.PCG64(seed))
    zs = rng.integers(0, 2, size=(probes, theta.shape[0])) * 2.0 - 1.0
    estimates = np.array([float(z @ hvp(grad_fn, theta, z)) for z in zs])
    stderr = float(np.std(estimates, ddof=1) / np.sqrt(probes)) if probes > 1 else None
    return float(np.mean(estimates)), stderr


def unscaled_top_eigenvalue(grad_fn, theta, max_iters, tol, seed):
    """Power iteration with the plain norm of Hv: the reference wherever that norm is finite."""
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(theta.shape[0])
    v /= np.linalg.norm(v)
    lam_prev, lam = None, 0.0
    for count in range(1, max_iters + 1):
        w = hvp(grad_fn, theta, v)
        lam = float(v @ w)
        w_norm = float(np.linalg.norm(w))
        if w_norm == 0.0:
            return lam, count, True
        v = w / w_norm
        if lam_prev is not None and abs(lam - lam_prev) < tol:
            return lam, count, True
        lam_prev = lam
    return lam, max_iters, False


class TestHvp:
    def test_identity_matrix(self):
        v = np.array([1.0, -2.0, 3.0])
        out = hvp(quadratic_grad(np.eye(3)), np.zeros(3), v)
        assert np.max(np.abs(out - v)) < 1e-10

    def test_diagonal_matrix(self):
        mat = np.diag([4.0, -1.0, 0.5])
        v = np.array([1.0, 1.0, 1.0])
        out = hvp(quadratic_grad(mat), np.zeros(3), v)
        assert np.max(np.abs(out - mat @ v)) < 1e-8

    def test_dense_matrix_random_vectors(self):
        mat = random_symmetric(12, seed=30)
        gf = quadratic_grad(mat)
        rng = np.random.Generator(np.random.PCG64(31))
        theta = rng.standard_normal(12)
        for _ in range(10):
            v = rng.standard_normal(12)
            out = hvp(gf, theta, v)
            expected = mat @ v
            assert np.max(np.abs(out - expected)) < 1e-6 * max(1.0, np.max(np.abs(expected)))

    def test_linearity(self):
        mat = random_symmetric(6, seed=32)
        gf = quadratic_grad(mat)
        theta = np.zeros(6)
        v1 = np.arange(1.0, 7.0)
        v2 = np.ones(6)
        lhs = hvp(gf, theta, 2.0 * v1 + 3.0 * v2)
        rhs = 2.0 * hvp(gf, theta, v1) + 3.0 * hvp(gf, theta, v2)
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_nongaussian_function(self):
        # f(x) = sum cos(x_i): Hessian is diag(-cos(x_i))
        grad_fn = lambda x: -np.sin(x)
        theta = np.array([0.3, -1.1, 2.0])
        out = hvp(grad_fn, theta, np.ones(3))
        assert np.max(np.abs(out - (-np.cos(theta)))) < 1e-7

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolationError):
            hvp(quadratic_grad(np.eye(2)), np.zeros(2), np.zeros(2))

    def test_non_finite_gradient_raises(self):
        with pytest.raises(NonFiniteError, match="non-finite gradient"):
            hvp(lambda theta: np.full(2, np.nan), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e3])
    def test_step_grows_with_theta(self, scale):
        # the gradient of the cubic sum(x**3) / 6 is x**2 / 2, whose central
        # difference along e_0 is exact up to rounding: H e_0 = x_0 e_0
        theta = np.full(4, scale)
        steps = []

        def grad_fn(x):
            steps.append(abs(x[0] - theta[0]))
            return 0.5 * x * x

        out = hvp(grad_fn, theta, np.eye(4)[0])
        assert steps == pytest.approx([1e-4 * (1.0 + 2.0 * scale)] * 2, rel=1e-6)
        assert out == pytest.approx(np.eye(4)[0] * scale, abs=1e-6 * (1.0 + scale))


class TestTopEigenvalue:
    def test_matches_dense_eig_random(self):
        for seed in range(5):
            mat = random_symmetric(30, seed=40 + seed)
            true_top = max(np.linalg.eigvalsh(mat), key=abs)
            lam, _, _ = top_eigenvalue(quadratic_grad(mat), np.zeros(30), 5000, 1e-12, seed=0)
            assert lam == pytest.approx(true_top, rel=1e-4)

    def test_negative_dominant_eigenvalue_signed(self):
        mat = np.diag([-5.0, 1.0, 2.0])
        lam, _, _ = top_eigenvalue(quadratic_grad(mat), np.zeros(3), 500, 1e-12, seed=0)
        assert lam == pytest.approx(-5.0, rel=1e-6)

    def test_identity(self):
        lam, _, reached = top_eigenvalue(quadratic_grad(np.eye(8)), np.zeros(8), 50, 1e-6, seed=0)
        assert lam == pytest.approx(1.0, rel=1e-8)
        assert reached

    def test_budget_exhaustion_flagged(self):
        mat = np.diag([1.0, 0.999])  # near-degenerate: slow power iteration
        _, count, reached = top_eigenvalue(quadratic_grad(mat), np.zeros(2), 2, 1e-15, seed=0)
        assert not reached
        assert count == 2

    def test_zero_tolerance_runs_the_whole_budget(self):
        mat = random_symmetric(10, seed=51)
        _, count, reached = top_eigenvalue(quadratic_grad(mat), np.zeros(10), 7, 0.0, seed=0)
        assert (count, reached) == (7, False)

    def test_deterministic_for_seed(self):
        mat = random_symmetric(10, seed=50)
        a = top_eigenvalue(quadratic_grad(mat), np.zeros(10), 100, 1e-6, seed=3)
        b = top_eigenvalue(quadratic_grad(mat), np.zeros(10), 100, 1e-6, seed=3)
        assert a == b

    def test_bad_budget(self):
        with pytest.raises(ContractViolationError):
            top_eigenvalue(quadratic_grad(np.eye(2)), np.zeros(2), 0, 1e-6, seed=0)

    def test_zero_hessian_returns_zero_at_once(self):
        out = top_eigenvalue(quadratic_grad(np.zeros((3, 3))), np.zeros(3), 10, 1e-6, seed=0)
        assert out == (0.0, 1, True)

    def test_overflowing_norm_is_scaled_without_a_warning(self):
        # finite HVP entries near 1e308 whose squares overflow; RuntimeWarnings are errors here
        mat = np.diag([1e308, 1e308])
        lam, _, _ = top_eigenvalue(quadratic_grad(mat), np.zeros(2), 3, 0.0, seed=0)
        assert lam == pytest.approx(1e308, rel=1e-15)

    def test_top_eigenvalue_of_1e200(self):
        # ||Hv|| is about 1e200, whose square overflows
        mat = np.diag([1e200, 1e200])
        lam, _, _ = top_eigenvalue(quadratic_grad(mat), np.zeros(2), 3, 0.0, seed=0)
        assert lam == pytest.approx(1e200, rel=1e-15)

    def test_eigenvalue_beyond_the_float_range_raises(self):
        # the top eigenvalue is 2e308: the scaled norm overflows too
        with pytest.raises(NonFiniteError, match="power iteration"):
            top_eigenvalue(quadratic_grad(np.full((2, 2), 1e308)), np.zeros(2), 3, 0.0, seed=0)

    @pytest.mark.parametrize("mat,max_iters,tol,seed", [
        *((random_symmetric(30, seed=40 + seed), 5000, 1e-12, 0) for seed in range(5)),
        (np.diag([-5.0, 1.0, 2.0]), 500, 1e-12, 0),
        (np.eye(8), 50, 1e-6, 0),
        (np.diag([1.0, 0.999]), 2, 1e-15, 0),
        (random_symmetric(10, seed=51), 7, 0.0, 0),
        (random_symmetric(10, seed=50), 100, 1e-6, 3),
        (np.zeros((3, 3)), 10, 1e-6, 0),
    ])
    def test_finite_norms_keep_the_unscaled_bits(self, mat, max_iters, tol, seed):
        grad_fn, theta = quadratic_grad(mat), np.zeros(len(mat))
        want = unscaled_top_eigenvalue(grad_fn, theta, max_iters, tol, seed)
        assert top_eigenvalue(grad_fn, theta, max_iters, tol, seed) == want

    @pytest.mark.parametrize("tol", [-1e-12, -1.0, math.nan])
    def test_bad_tolerance(self, tol):
        # two successive estimates can never differ by less than a negative tol
        with pytest.raises(ContractViolationError, match="tol must be >= 0"):
            top_eigenvalue(quadratic_grad(np.eye(2)), np.zeros(2), 10, tol, seed=0)


class TestHutchinson:
    def test_identity_exact_every_probe(self):
        # z . I z = dim for every Rademacher probe, so stderr is ~0
        estimate, stderr = hutchinson_trace(quadratic_grad(np.eye(7)), np.zeros(7), 10, seed=0)
        assert estimate == pytest.approx(7.0, abs=1e-8)
        assert stderr == pytest.approx(0.0, abs=1e-8)

    def test_diagonal_within_two_percent(self):
        mat = np.diag([3.0, 1.0])
        estimate, _ = hutchinson_trace(quadratic_grad(mat), np.zeros(2), probes=1000, seed=1)
        assert abs(estimate - 4.0) <= 0.02 * 4.0

    def test_dense_estimate_within_stderr_band(self):
        mat = random_symmetric(20, seed=60)
        true_trace = float(np.trace(mat))
        estimate, stderr = hutchinson_trace(quadratic_grad(mat), np.zeros(20), probes=800, seed=2)
        assert abs(estimate - true_trace) < 5.0 * stderr + 1e-6

    def test_single_probe_has_no_stderr(self):
        estimate, stderr = hutchinson_trace(quadratic_grad(np.eye(3)), np.zeros(3), 1, seed=0)
        assert stderr is None
        assert estimate == pytest.approx(3.0, abs=1e-8)

    def test_deterministic_for_seed(self):
        mat = random_symmetric(9, seed=61)
        a = hutchinson_trace(quadratic_grad(mat), np.zeros(9), probes=50, seed=4)
        b = hutchinson_trace(quadratic_grad(mat), np.zeros(9), probes=50, seed=4)
        assert a == b

    @pytest.mark.parametrize("probes", [1, 2, 300])
    @pytest.mark.parametrize("dim", [1, 7, 1604])
    def test_probes_drawn_one_at_a_time_match_the_one_shot_matrix(self, dim, probes):
        grad_fn = dense_quadratic(dim)
        theta = np.linspace(-1.0, 1.0, dim)
        out = hutchinson_trace(grad_fn, theta, probes=probes, seed=dim + probes)
        # == on both numbers, None standing for the undefined one-probe stderr
        assert out == one_shot_trace(grad_fn, theta, probes, seed=dim + probes)

    def test_memory_holds_a_few_probes_not_all(self):
        dim, probes = 1604, 300
        diag = np.linspace(0.5, 2.0, dim)
        theta = np.ones(dim)

        def grad_fn(t):
            return diag * t

        # a first call pays numpy.random's one-time setup outside the count
        hutchinson_trace(grad_fn, theta, probes=1, seed=0)
        tracemalloc.start()
        try:
            hutchinson_trace(grad_fn, theta, probes=probes, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 300 probes at once take 300 * 1604 * 8 B = 3.85 MB, twice
        assert peak < 16 * dim * 8

    def test_bad_probe_count(self):
        with pytest.raises(ContractViolationError):
            hutchinson_trace(quadratic_grad(np.eye(2)), np.zeros(2), probes=0, seed=0)

    def test_overflowing_estimate_raises_without_a_warning(self):
        # every probe's z . Hz is 2e308, beyond the float range
        with pytest.raises(NonFiniteError, match="Hutchinson"):
            hutchinson_trace(quadratic_grad(np.diag([1e308, 1e308])), np.zeros(2), 2, seed=0)

    def test_overflowing_stderr_raises_without_a_warning(self):
        # the two probes of seed 0 give z . Hz = 2e307 and -2e307: a finite mean, and
        # deviations whose squares overflow
        mat = np.array([[0.0, 1e307], [1e307, 0.0]])
        with pytest.raises(NonFiniteError, match="Hutchinson"):
            hutchinson_trace(quadratic_grad(mat), np.zeros(2), 2, seed=0)
