"""Matrix-free Hessian spectral estimates.

Hessian-vector products are taken by central finite differences of a
user-supplied gradient function, so this module works with any model
that can return exact gradients (the MLP, the landscapes, or a plain
quadratic).  On top of the HVP sit power iteration for the
dominant-magnitude eigenvalue and a Hutchinson trace estimator with
Rademacher probes.  Each estimator runs its HVPs with numpy's overflow
warnings off, and raises ``NonFiniteError`` for an estimate that is not
finite.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, NonFiniteError


def hvp(grad_fn, theta: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Central-difference Hessian-vector product H(theta) @ vec.

    The step along ``vec / ||vec||`` is ``1e-4 * (1 + ||theta||)``.
    """
    norm = float(np.linalg.norm(vec))
    if norm <= 0:
        raise ContractViolationError("hvp requires a nonzero vector")
    h = 1e-4 * (1.0 + float(np.linalg.norm(theta)))
    unit = vec / norm
    g_plus = grad_fn(theta + h * unit)
    g_minus = grad_fn(theta - h * unit)
    out = (g_plus - g_minus) * (norm / (2.0 * h))
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite gradient in Hessian-vector product")
    return out


def top_eigenvalue(
    grad_fn, theta: np.ndarray, max_iters: int, tol: float, seed: int
) -> tuple[float, int, bool]:
    """Power iteration for the dominant-magnitude eigenvalue (signed).

    Iterates v <- Hv / ||Hv|| from a seeded random unit vector and stops
    when successive Rayleigh quotients differ by less than ``tol``.
    Returns ``(eigenvalue, hvp_count, tolerance_reached)``; if the budget
    runs out first, the last estimate comes back with ``tolerance_reached``
    False.
    """
    if max_iters < 1:
        raise ContractViolationError("max_iters must be >= 1")
    if not tol >= 0:
        raise ContractViolationError(f"tol must be >= 0, got {tol!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(theta.shape[0])
    v /= np.linalg.norm(v)
    lam_prev = None
    lam = 0.0
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate raises
        for _ in range(max_iters):
            w = hvp(grad_fn, theta, v)
            count += 1
            lam = float(v @ w)
            w_norm = float(np.linalg.norm(w))
            if math.isinf(w_norm):  # the squares overflow: scale by max|w|, as BLAS dnrm2 does
                scale = float(np.max(np.abs(w)))
                w_norm = scale * float(np.linalg.norm(w / scale))
            if not (math.isfinite(lam) and math.isfinite(w_norm)):
                raise NonFiniteError("non-finite estimate in power iteration")
            if w_norm == 0.0:
                # Hessian annihilates v; zero is the best available estimate.
                return lam, count, True
            v = w / w_norm
            if lam_prev is not None and abs(lam - lam_prev) < tol:
                return lam, count, True
            lam_prev = lam
    return lam, count, False


def hutchinson_trace(
    grad_fn, theta: np.ndarray, probes: int, seed: int
) -> tuple[float, float | None]:
    """Rademacher-probe trace estimate: mean over probes of z . Hz.

    Probe vectors are drawn sequentially from one seeded generator, each
    one just before it is measured, so only one probe is alive at a time.
    The draws are the rows of one ``(probes, dim)`` draw from the same
    seed, and the aggregate is deterministic for a fixed seed.  Returns
    ``(estimate, stderr)``; with a single probe the standard error is
    undefined and returned as None.
    """
    if probes < 1:
        raise ContractViolationError("probes must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = theta.shape[0]
    estimates = np.empty(probes)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite estimate raises
        for i in range(probes):
            z = rng.integers(0, 2, size=dim) * 2.0 - 1.0
            estimates[i] = float(z @ hvp(grad_fn, theta, z))
        mean = float(np.mean(estimates))
        stderr = None if probes == 1 else float(np.std(estimates, ddof=1) / np.sqrt(probes))
    if not (math.isfinite(mean) and (stderr is None or math.isfinite(stderr))):
        raise NonFiniteError("non-finite Hutchinson trace estimate")
    return mean, stderr
