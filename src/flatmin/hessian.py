"""Matrix-free Hessian spectral estimates.

Hessian-vector products are taken by central finite differences of a
user-supplied gradient function, so this module works with any model
that can return exact gradients (the MLP, the landscapes, or a plain
quadratic).  On top of the HVP sit power iteration for the
dominant-magnitude eigenvalue and a Hutchinson trace estimator with
Rademacher probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NonFiniteError


@dataclass
class HessianSummary:
    top_eigenvalue: float | None = None
    trace_estimate: float | None = None
    trace_stderr: float | None = None
    hvp_count: int = 0
    probe_count: int = 0
    tolerance_reached: bool = False


def default_fd_step(theta: np.ndarray) -> float:
    return 1e-4 * (1.0 + float(np.linalg.norm(theta)))


def hvp(grad_fn, theta: np.ndarray, vec: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference Hessian-vector product H(theta) @ vec."""
    norm = float(np.linalg.norm(vec))
    if norm <= 0:
        raise ContractViolationError("hvp requires a nonzero vector")
    if h is None:
        h = default_fd_step(theta)
    if h <= 0:
        raise ContractViolationError("finite-difference step h must be > 0")
    unit = vec / norm
    g_plus = grad_fn(theta + h * unit)
    g_minus = grad_fn(theta - h * unit)
    out = (g_plus - g_minus) * (norm / (2.0 * h))
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("non-finite gradient in Hessian-vector product")
    return out


def top_eigenvalue(
    grad_fn,
    theta: np.ndarray,
    max_iters: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
) -> HessianSummary:
    """Power iteration for the dominant-magnitude eigenvalue (signed).

    Iterates v <- Hv / ||Hv|| from a seeded random unit vector and stops
    when successive Rayleigh quotients differ by less than ``tol``.  If
    the budget runs out first, the last estimate is returned with
    ``tolerance_reached`` False.
    """
    if max_iters < 1:
        raise ContractViolationError("max_iters must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(theta.shape[0])
    v /= np.linalg.norm(v)
    lam_prev = None
    lam = 0.0
    count = 0
    reached = False
    for _ in range(max_iters):
        w = hvp(grad_fn, theta, v)
        count += 1
        lam = float(v @ w)
        w_norm = float(np.linalg.norm(w))
        if w_norm == 0.0:
            # Hessian annihilates v; zero is the best available estimate.
            reached = True
            break
        v = w / w_norm
        if lam_prev is not None and abs(lam - lam_prev) < tol:
            reached = True
            break
        lam_prev = lam
    return HessianSummary(
        top_eigenvalue=lam, hvp_count=count, tolerance_reached=reached
    )


def hutchinson_trace(
    grad_fn,
    theta: np.ndarray,
    probes: int = 100,
    seed: int = 0,
) -> HessianSummary:
    """Rademacher-probe trace estimate: mean over probes of z . Hz.

    Probe vectors are drawn sequentially from one seeded generator, each
    one just before it is measured, so only one probe is alive at a time.
    The draws are the rows of one ``(probes, dim)`` draw from the same
    seed, and the aggregate is deterministic for a fixed seed.  With a
    single probe the standard error is undefined and returned as NaN.
    """
    if probes < 1:
        raise ContractViolationError("probes must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = theta.shape[0]
    estimates = np.empty(probes)
    for i in range(probes):
        z = rng.integers(0, 2, size=dim) * 2.0 - 1.0
        estimates[i] = float(z @ hvp(grad_fn, theta, z))
    mean = float(np.mean(estimates))
    stderr = (
        float(np.std(estimates, ddof=1) / np.sqrt(probes)) if probes > 1 else float("nan")
    )
    return HessianSummary(
        trace_estimate=mean,
        trace_stderr=stderr,
        hvp_count=probes,
        probe_count=probes,
        tolerance_reached=True,
    )
