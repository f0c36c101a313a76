"""Analytic 2-parameter loss surfaces built from Gaussian wells.

Each well contributes -depth * exp(-||theta - center||^2 / (2 width^2)),
so loss, gradient and Hessian are available in closed form everywhere.

One kernel writes the well terms of B points into (W, B) planes, one row
per well, and the gradient into (2, B) rows; it is the only copy of the
well formulas.  :func:`evaluate_batch` builds on it the loss, gradient and,
on request, the 2x2 Hessian and its flatness (sum of absolute eigenvalues)
of a whole batch of points; ``batch_loss_grad`` and ``landscape_eval`` are
thin views of it.  Its outputs are bit-identical to evaluating each point
on its own.

Trajectory simulation and the grid flatness study share one descent loop.
It holds every start in one (2, B) array, row 0 x and row 1 y, that the
optimizer steps in place (every update is elementwise, so this is exactly
equivalent to running each start separately); a trajectory is a batch of
one.  The descent allocates its kernel buffers once and computes the loss
only when it records, so a grid run evaluates gradients alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractViolationError
from .optim import (
    LrSchedule,
    OptimizerParams,
    build_optimizer,
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
        if self.width <= 0:
            raise ContractViolationError("well width must be > 0")


@dataclass(frozen=True)
class LandscapeSpec:
    wells: tuple[WellSpec, ...]
    base_level: float = 0.0

    def __post_init__(self):
        if len(self.wells) < 1:
            raise ContractViolationError("landscape needs at least one well")


@dataclass
class TrajectoryRecord:
    """Per-step samples of one optimizer run plus final-point diagnostics."""

    steps: list[tuple[int, Point, float]]
    final_theta: Point
    converged_well: int | None
    flatness: float


class Evaluation(NamedTuple):
    """Loss (B,) and gradient (B, 2); Hessian (B, 2, 2) and flatness (B,) on request."""

    loss: np.ndarray
    grad: np.ndarray
    hess: np.ndarray | None = None
    flatness: np.ndarray | None = None


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

    ``gradient`` is the one implementation of the well formulas: it writes
    the offsets ``dx``, ``dy`` from the W well centres,
    ``e = depth * exp(-r^2 / (2 w^2))`` and ``k = e / w^2``, then the
    gradient rows.  The well constants are spread over B once, because
    numpy buffers a broadcast operand in a block of its own.
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


def _abs_eig_sum(a, b, d):
    """|lambda_1| + |lambda_2| of the symmetric 2x2 matrices [[a, b], [b, d]].

    ``np.float_power`` squares through libm ``pow``, as the scalar formula
    did; the ``**2`` / ``x*x`` fast path rounds some inputs differently.
    """
    tr = a + d
    disc = np.sqrt(np.float_power(a - d, 2) + 4.0 * b * b)
    return np.abs(0.5 * (tr + disc)) + np.abs(0.5 * (tr - disc))


def evaluate_batch(spec: LandscapeSpec, thetas: np.ndarray, hessian: bool = False) -> Evaluation:
    """Evaluate the landscape at a batch of points (B, 2), vectorised over B.

    The batch is held as (W, B) planes of offsets from the W well centres.
    Each reduction keeps the summation order of the per-point formulas, so
    every output is bit-identical to evaluating the points one at a time.
    """
    wells = _Wells(spec, len(thetas))
    grad = np.empty((len(thetas), 2))
    wells.gradient(thetas[:, 0], thetas[:, 1], grad.T)
    loss = wells.loss()
    if not hessian:
        return Evaluation(loss, grad)
    dx, dy, k, w2 = wells.dx, wells.dy, wells.k, wells.w2
    # each term is k * (eye(2) - outer(u, u) / w2), entry by entry
    hxx = _sum_wells(k * (1.0 - dx * dx / w2))
    hxy = _sum_wells(k * (0.0 - dx * dy / w2))
    hyy = _sum_wells(k * (1.0 - dy * dy / w2))
    hess = np.stack((hxx, hxy, hxy, hyy), axis=-1).reshape(-1, 2, 2)
    return Evaluation(loss, grad, hess, _abs_eig_sum(hxx, hxy, hyy))


def batch_loss_grad(spec: LandscapeSpec, thetas: np.ndarray):
    """Loss (B,) and gradient (B, 2) for a batch of points (B, 2)."""
    ev = evaluate_batch(spec, thetas)
    return ev.loss, ev.grad


def landscape_eval(spec: LandscapeSpec, theta: Point):
    """Loss, exact gradient (2,) and exact Hessian (2, 2) at one point."""
    ev = evaluate_batch(spec, np.asarray(theta, dtype=np.float64).reshape(1, 2), hessian=True)
    return float(ev.loss[0]), ev.grad[0], ev.hess[0]


def classify_converged_well(spec: LandscapeSpec, theta: Point) -> int | None:
    """Index of the nearest well center within 3*width of theta, else None."""
    th = np.asarray(theta)
    best = None
    best_dist = np.inf
    for i, w in enumerate(spec.wells):
        dist = float(np.linalg.norm(th - np.asarray(w.center)))
        if dist <= 3.0 * w.width and dist < best_dist:
            best, best_dist = i, dist
    return best


def _descend(spec, starts, optimizer, sched, total_steps, record=None) -> np.ndarray:
    """Run one optimizer from every start (B, 2) at once; return the final points (B, 2).

    The points are held as (2, B) planes, row 0 x and row 1 y, which the
    stepper steps in place.  ``record(t, planes, loss)`` is called after each
    step with the planes and the loss (B,) at the points the step started
    from; the loss is computed only when there is a ``record``.
    """
    if total_steps < 0:
        raise ContractViolationError("total_steps must be >= 0")
    planes = starts.T.copy()
    x, y = planes
    wells = _Wells(spec, planes.shape[1])
    grad = np.empty_like(planes)
    opt = build_optimizer(optimizer, planes.shape)
    for t in range(1, total_steps + 1):
        wells.gradient(x, y, grad)
        loss = None if record is None else wells.loss()
        opt.step(planes, grad, lr_multiplier=schedule_multiplier(sched, t - 1))
        if record is not None:
            record(t, planes, loss)
    return planes.T


def simulate_trajectory(
    spec: LandscapeSpec,
    start: Point,
    optimizer: OptimizerParams,
    sched: LrSchedule,
    total_steps: int,
) -> TrajectoryRecord:
    """Run one optimizer from ``start`` on the exact gradient, recording every step."""
    steps: list[tuple[int, Point, float]] = []

    def record(t, planes, loss):
        steps.append((t, (float(planes[0, 0]), float(planes[1, 0])), float(loss[0])))

    starts = np.asarray(start, dtype=np.float64).reshape(1, 2)
    finals = _descend(spec, starts, optimizer, sched, total_steps, record)
    final = (float(finals[0, 0]), float(finals[0, 1]))
    return TrajectoryRecord(
        steps=steps,
        final_theta=final,
        converged_well=classify_converged_well(spec, final),
        flatness=evaluate_batch(spec, finals, hessian=True).flatness[0],
    )


def grid_starts(region, grid) -> np.ndarray:
    """Row-major (rows*cols, 2) grid of start points over a rectangular region."""
    (x0, x1), (y0, y1) = region
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ContractViolationError("grid dimensions must be >= 1")
    xs = np.linspace(x0, x1, cols) if cols > 1 else np.array([0.5 * (x0 + x1)])
    ys = np.linspace(y0, y1, rows) if rows > 1 else np.array([0.5 * (y0 + y1)])
    return np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)


def grid_flatness_study(
    spec: LandscapeSpec,
    region,
    grid,
    optimizers: list[OptimizerParams],
    sched: LrSchedule,
    total_steps: int,
) -> list[np.ndarray]:
    """Final-point flatness for every grid start, per optimizer.

    Results are in row-major grid order.  Internally all starts run as one
    (2, B) array, which is equivalent to per-start runs because every
    optimizer update rule is elementwise.
    """
    starts = grid_starts(region, grid)
    return [
        evaluate_batch(spec, _descend(spec, starts, params, sched, total_steps), hessian=True).flatness
        for params in optimizers
    ]
