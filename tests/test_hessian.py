"""Tests for finite-difference HVPs, power iteration, and Hutchinson trace."""

import math
import tracemalloc

import numpy as np
import pytest

from flatmin.errors import ContractViolationError
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
    stderr = np.std(estimates, ddof=1) / np.sqrt(probes) if probes > 1 else math.nan
    return float(np.mean(estimates)), float(stderr)


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
        h = 1e-4
        lhs = hvp(gf, theta, 2.0 * v1 + 3.0 * v2, h=h)
        rhs = 2.0 * hvp(gf, theta, v1, h=h) + 3.0 * hvp(gf, theta, v2, h=h)
        assert np.max(np.abs(lhs - rhs)) < 1e-7

    def test_nongaussian_function(self):
        # f(x) = sum cos(x_i): Hessian is diag(-cos(x_i))
        grad_fn = lambda x: -np.sin(x)
        theta = np.array([0.3, -1.1, 2.0])
        out = hvp(grad_fn, theta, np.ones(3), h=1e-5)
        assert np.max(np.abs(out - (-np.cos(theta)))) < 1e-7

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolationError):
            hvp(quadratic_grad(np.eye(2)), np.zeros(2), np.zeros(2))

    def test_bad_step_rejected(self):
        with pytest.raises(ContractViolationError):
            hvp(quadratic_grad(np.eye(2)), np.zeros(2), np.ones(2), h=0.0)


class TestTopEigenvalue:
    def test_matches_dense_eig_random(self):
        for seed in range(5):
            mat = random_symmetric(30, seed=40 + seed)
            true_top = max(np.linalg.eigvalsh(mat), key=abs)
            out = top_eigenvalue(quadratic_grad(mat), np.zeros(30), max_iters=5000, tol=1e-12)
            assert out.top_eigenvalue == pytest.approx(true_top, rel=1e-4)

    def test_negative_dominant_eigenvalue_signed(self):
        mat = np.diag([-5.0, 1.0, 2.0])
        out = top_eigenvalue(quadratic_grad(mat), np.zeros(3), max_iters=500, tol=1e-12)
        assert out.top_eigenvalue == pytest.approx(-5.0, rel=1e-6)

    def test_identity(self):
        out = top_eigenvalue(quadratic_grad(np.eye(8)), np.zeros(8), max_iters=50)
        assert out.top_eigenvalue == pytest.approx(1.0, rel=1e-8)
        assert out.tolerance_reached

    def test_budget_exhaustion_flagged(self):
        mat = np.diag([1.0, 0.999])  # near-degenerate: slow power iteration
        out = top_eigenvalue(quadratic_grad(mat), np.zeros(2), max_iters=2, tol=1e-15)
        assert not out.tolerance_reached
        assert out.hvp_count == 2

    def test_deterministic_for_seed(self):
        mat = random_symmetric(10, seed=50)
        a = top_eigenvalue(quadratic_grad(mat), np.zeros(10), seed=3)
        b = top_eigenvalue(quadratic_grad(mat), np.zeros(10), seed=3)
        assert a.top_eigenvalue == b.top_eigenvalue and a.hvp_count == b.hvp_count

    def test_bad_budget(self):
        with pytest.raises(ContractViolationError):
            top_eigenvalue(quadratic_grad(np.eye(2)), np.zeros(2), max_iters=0)


class TestHutchinson:
    def test_identity_exact_every_probe(self):
        # z . I z = dim for every Rademacher probe, so stderr is ~0
        out = hutchinson_trace(quadratic_grad(np.eye(7)), np.zeros(7), probes=10)
        assert out.trace_estimate == pytest.approx(7.0, abs=1e-8)
        assert out.trace_stderr == pytest.approx(0.0, abs=1e-8)

    def test_diagonal_within_two_percent(self):
        mat = np.diag([3.0, 1.0])
        out = hutchinson_trace(quadratic_grad(mat), np.zeros(2), probes=1000, seed=1)
        assert abs(out.trace_estimate - 4.0) <= 0.02 * 4.0

    def test_dense_estimate_within_stderr_band(self):
        mat = random_symmetric(20, seed=60)
        true_trace = float(np.trace(mat))
        out = hutchinson_trace(quadratic_grad(mat), np.zeros(20), probes=800, seed=2)
        assert abs(out.trace_estimate - true_trace) < 5.0 * out.trace_stderr + 1e-6

    def test_single_probe_nan_stderr(self):
        out = hutchinson_trace(quadratic_grad(np.eye(3)), np.zeros(3), probes=1)
        assert math.isnan(out.trace_stderr)
        assert out.probe_count == 1

    def test_deterministic_for_seed(self):
        mat = random_symmetric(9, seed=61)
        a = hutchinson_trace(quadratic_grad(mat), np.zeros(9), probes=50, seed=4)
        b = hutchinson_trace(quadratic_grad(mat), np.zeros(9), probes=50, seed=4)
        assert a.trace_estimate == b.trace_estimate

    @pytest.mark.parametrize("probes", [1, 2, 300])
    @pytest.mark.parametrize("dim", [1, 7, 1604])
    def test_probes_drawn_one_at_a_time_match_the_one_shot_matrix(self, dim, probes):
        grad_fn = dense_quadratic(dim)
        theta = np.linspace(-1.0, 1.0, dim)
        out = hutchinson_trace(grad_fn, theta, probes=probes, seed=dim + probes)
        expected = one_shot_trace(grad_fn, theta, probes, seed=dim + probes)
        # == on both numbers, NaN standing for the undefined one-probe stderr
        assert np.array_equal((out.trace_estimate, out.trace_stderr), expected, equal_nan=True)

    def test_memory_holds_a_few_probes_not_all(self):
        dim, probes = 1604, 300
        diag = np.linspace(0.5, 2.0, dim)
        theta = np.ones(dim)

        def grad_fn(t):
            return diag * t

        # a first call pays numpy.random's one-time setup outside the count
        hutchinson_trace(grad_fn, theta, probes=1)
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
            hutchinson_trace(quadratic_grad(np.eye(2)), np.zeros(2), probes=0)
