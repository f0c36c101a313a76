"""Analytic 2-parameter loss surfaces built from Gaussian wells.

Each well contributes -depth * exp(-||theta - center||^2 / (2 width^2)),
so loss, gradient and Hessian are available in closed form everywhere.

One kernel writes the well terms of B points into (W, B) planes, one row
per well, and the gradient into (2, B) rows; it is the only copy of the
well formulas and the only evaluator.  The loss and the 2x2 Hessian are
read off its planes at the points of its last gradient call, bit-identical
to evaluating each point on its own.  ``batch_loss_grad`` and
``landscape_eval`` are one-shot views of it.

Trajectory simulation and the grid flatness study share one descent loop,
which steps every start as a lane of one (2, B) array; a trajectory is a
batch of one and comes back as its CSV columns.  A grid run shares one kernel
among its optimizers, a trajectory has its own; the final flatness (sum of
absolute Hessian eigenvalues) and a trajectory's well are read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .optim import (
    LrSchedule,
    OptimizerParams,
    build_lanes,
    schedule_multiplier,
)

Point = tuple[float, float]


@dataclass(frozen=True)
class WellSpec:
    center: Point
    depth: float
    width: float

    def __post_init__(self):
        if self.depth <= 0:
            raise ContractViolationError("well depth must be > 0")
        if not (self.width > 0 and 0 < 2.0 * (self.width * self.width) < np.inf):
            raise ContractViolationError("well width must be > 0, with 2 * width**2 finite and > 0")


@dataclass(frozen=True)
class LandscapeSpec:
    wells: tuple[WellSpec, ...]
    base_level: float = 0.0

    def __post_init__(self):
        if len(self.wells) < 1:
            raise ContractViolationError("landscape needs at least one well")


def _sum_wells(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum (W, B) terms over wells into ``out`` (B,), from zero and in well order, for every B.

    ``np.sum(axis=0)`` keeps this order only while B > 1: at B = 1 with eight
    or more wells numpy sums the column pairwise.
    """
    if out is None:
        out = np.empty(terms.shape[1])
    out.fill(0.0)
    for row in terms:
        out += row
    return out


class _Wells:
    """The well terms of one landscape at B points, in (W, B) planes allocated once.

    ``gradient`` writes the offsets ``dx``, ``dy`` from the W well centres,
    ``e = depth * exp(-r^2 / (2 w^2))`` and ``k = e / w^2``, then the
    gradient rows; ``loss`` and ``hessian`` read those planes.  The well
    constants are spread over B once, because numpy buffers a broadcast
    operand in a block of its own.
    """

    def __init__(self, spec: LandscapeSpec, n: int):
        self.spec = spec
        cx, cy = np.array([w.center for w in spec.wells], dtype=np.float64).T
        depth = np.array([w.depth for w in spec.wells], dtype=np.float64)
        width = np.array([w.width for w in spec.wells], dtype=np.float64)
        w2 = width * width
        consts = np.stack((cx, cy, depth, w2, -2.0 * w2))[..., None]
        planes = np.broadcast_to(consts, (*consts.shape[:2], n)).copy()
        self.cx, self.cy, self.depth, self.w2, self.neg_two_w2 = planes
        self.reach = 3.0 * width[:, None]
        self.dx, self.dy, self.e, self.k, self._t = np.empty_like(planes)

    def gradient(self, x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
        """Fill the planes at the points (x, y), each (B,), and the gradient rows ``out``."""
        dx, dy, e, k, t = self.dx, self.dy, self.e, self.k, self._t
        np.copyto(dx, x)
        dx -= self.cx
        np.copyto(dy, y)
        dy -= self.cy
        np.multiply(dx, dx, out=e)
        np.multiply(dy, dy, out=t)
        e += t
        # IEEE division is sign-symmetric: r2 / (-2 w^2) has the bits of (-r2) / (2 w^2)
        e /= self.neg_two_w2
        np.exp(e, out=e)
        np.multiply(self.depth, e, out=e)
        np.divide(e, self.w2, out=k)
        _sum_wells(np.multiply(k, dx, out=t), out[0])
        _sum_wells(np.multiply(k, dy, out=t), out[1])

    def loss(self) -> np.ndarray:
        """Loss (B,) at the points of the last ``gradient`` call."""
        # numpy sums a contiguous row of 8+ wells pairwise; a (B, W) copy keeps that order
        return self.spec.base_level - np.ascontiguousarray(self.e.T).sum(axis=1)

    def hessian(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hessian rows (hxx, hxy, hyy), each (B,), at the points of the last ``gradient`` call."""
        dx, dy, k, w2 = self.dx, self.dy, self.k, self.w2
        # far out k underflows to 0 while dx * dx / w2 overflows: such a well adds +0.0, not NaN
        far = k == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            # each term is k * (eye(2) - outer(u, u) / w2), entry by entry
            hxx = _sum_wells(np.where(far, 0.0, k * (1.0 - dx * dx / w2)))
            hxy = _sum_wells(np.where(far, 0.0, k * (0.0 - dx * dy / w2)))
            hyy = _sum_wells(np.where(far, 0.0, k * (1.0 - dy * dy / w2)))
        return hxx, hxy, hyy

    def nearest(self) -> np.ndarray:
        """Nearest well (B,) within 3 widths of each point of the last ``gradient`` call, else -1.

        A tie goes to the lower index.  Each distance is the root of a stacked (1, 2) @ (2, 1)
        product, the BLAS dot of ``np.linalg.norm`` with its bits (``dx*dx + dy*dy`` is not).
        """
        u = np.stack((self.dx, self.dy), axis=-1)[..., None, :]
        with np.errstate(over="ignore"):  # a far-field distance is inf, and no well is near
            dist = np.sqrt(np.matmul(u, u.swapaxes(-1, -2))[..., 0, 0])
        dist = np.where(dist <= self.reach, dist, np.inf)
        return np.where(np.isfinite(dist.min(axis=0)), dist.argmin(axis=0), -1)


def _abs_eig_sum(a, b, d):
    """|lambda_1| + |lambda_2| of the symmetric 2x2 matrices [[a, b], [b, d]].

    ``np.float_power`` squares through libm ``pow``, as the scalar formula
    did; the ``**2`` / ``x*x`` fast path rounds some inputs differently.
    Where the squares overflow (deep wells), ``np.hypot`` takes the root, and
    where ``tr +- disc`` does, the sum is its closed form ``max(|tr|, disc)``.
    """
    tr = a + d
    disc = np.sqrt(np.float_power(a - d, 2) + 4.0 * b * b)
    disc = np.where(np.isinf(disc), np.hypot(a - d, 2.0 * b), disc)
    total = np.abs(0.5 * (tr + disc)) + np.abs(0.5 * (tr - disc))
    return np.where(np.isinf(total), np.maximum(np.abs(tr), disc), total)


def batch_loss_grad(spec: LandscapeSpec, thetas: np.ndarray):
    """Loss (B,) and gradient (B, 2) for a batch of points (B, 2)."""
    wells = _Wells(spec, len(thetas))
    grad = np.empty((len(thetas), 2))
    wells.gradient(thetas[:, 0], thetas[:, 1], grad.T)
    return wells.loss(), grad


def landscape_eval(spec: LandscapeSpec, theta: Point):
    """Loss, exact gradient (2,) and exact Hessian (2, 2) at one point."""
    wells = _Wells(spec, 1)
    grad = np.empty(2)
    with np.errstate(over="ignore"):  # far from every well, as in a descent
        wells.gradient(*np.asarray(theta, dtype=np.float64).reshape(2, 1), grad[:, None])
    hxx, hxy, hyy = wells.hessian()
    return float(wells.loss()[0]), grad, np.stack((hxx, hxy, hxy, hyy), axis=-1).reshape(2, 2)


def _descend(wells, starts, optimizer, sched, total_steps, record=False):
    """Run one optimizer from every start (B, 2) at once on the kernel ``wells``.

    Returns the final points (B, 2), their flatness (B,) and, if ``record``,
    the steps as (3, T, B): x and y after step t, and the loss at the points
    step t started from, computed only when recording; else None.  The
    points are (2, B) planes stepped in place, each start a lane (column) of
    the stepper.  It raises the first of the stepper's ``errors``, the first
    diverged start in row-major order, so it ends once start 0 has diverged.
    """
    if total_steps < 0:
        raise ContractViolationError("total_steps must be >= 0")
    steps = np.empty((3, total_steps, len(starts))) if record else None
    planes = starts.T.copy()
    x, y = planes
    grad = np.empty_like(planes)
    (opt,) = build_lanes(optimizer, planes.shape, lane_axis=1)
    # far-field offsets overflow to inf (the well terms to 0); a diverged start ends in an error
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(total_steps):
            wells.gradient(x, y, grad)
            if record:
                steps[2, t] = wells.loss()
            opt.step(planes, grad, lr_multiplier=schedule_multiplier(sched, t))
            if opt.errors[0]:
                break
            if record:
                steps[:2, t] = planes
        if any(opt.errors):
            raise next(filter(None, opt.errors))
        wells.gradient(x, y, grad)
        return planes.T, _abs_eig_sum(*wells.hessian()), steps


def simulate_trajectory(
    spec: LandscapeSpec,
    start: Point,
    optimizer: OptimizerParams,
    sched: LrSchedule,
    total_steps: int,
) -> tuple[dict[str, np.ndarray], Point, int | None, float]:
    """Run one optimizer from ``start`` on the exact gradient, recording every step.

    Returns ``(columns, final_theta, converged_well, flatness)``.  ``columns``
    maps ``t``, ``theta1``, ``theta2`` and ``loss`` to their values at each
    step t = 1..T: the point after step t and the loss it started from.
    """
    starts = np.asarray(start, dtype=np.float64).reshape(1, 2)
    wells = _Wells(spec, 1)
    (final,), (flat,), steps = _descend(wells, starts, optimizer, sched, total_steps, record=True)
    columns = {"t": np.arange(1, total_steps + 1)}
    columns.update(zip(("theta1", "theta2", "loss"), steps[..., 0]))
    (well,) = wells.nearest().tolist()  # _descend leaves the kernel at the final point
    return columns, tuple(final.tolist()), None if well < 0 else well, float(flat)


def grid_starts(region, grid) -> np.ndarray:
    """Row-major (rows*cols, 2) grid of start points over a rectangular region."""
    (x0, x1), (y0, y1) = region
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ContractViolationError("grid dimensions must be >= 1")

    def mid(lo, hi):  # a one-cell axis starts at the middle; halve first where lo + hi overflows
        return 0.5 * (lo + hi) if math.isfinite(lo + hi) else 0.5 * lo + 0.5 * hi

    xs = np.linspace(x0, x1, cols) if cols > 1 else np.array([mid(x0, x1)])
    ys = np.linspace(y0, y1, rows) if rows > 1 else np.array([mid(y0, y1)])
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def grid_flatness_study(
    spec: LandscapeSpec,
    starts: np.ndarray,
    optimizers: list[OptimizerParams],
    sched: LrSchedule,
    total_steps: int,
) -> list[np.ndarray]:
    """Final-point flatness from every start (B, 2), per optimizer, in the order of the starts.

    Each optimizer runs all starts as the lanes of one (2, B) array, each with
    the bits and the error of a run from that start alone; a failing run
    raises for the first optimizer in list order that fails.
    """
    # every gradient call rewrites the kernel's planes, so the optimizers can share it
    wells = _Wells(spec, len(starts))
    return [_descend(wells, starts, params, sched, total_steps)[1] for params in optimizers]
