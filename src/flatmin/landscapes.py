"""Analytic 2-parameter loss surfaces built from Gaussian wells.

Each well contributes -depth * exp(-||theta - center||^2 / (2 width^2)),
so loss, gradient and Hessian are available in closed form everywhere.

One evaluator, :func:`evaluate_batch`, computes loss, gradient and, on
request, the 2x2 Hessian and its flatness (sum of absolute eigenvalues) for
a whole batch of points at once; ``batch_loss_grad``, ``landscape_eval``
and ``flatness_from_hessian`` are thin views of it. Its outputs are
bit-identical to evaluating each point on its own.

Trajectory simulation and the grid flatness study share one descent loop.
It runs every start as part of one big parameter vector (every optimizer
update is elementwise, so this is exactly equivalent to running each start
separately); a trajectory is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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

    @cached_property
    def well_columns(self):
        """(W, 1) columns: centre x, centre y, depth, width^2, 2 width^2.

        Built once per spec and shared by every evaluation on it.
        """
        cx, cy = np.array([w.center for w in self.wells], dtype=np.float64).T
        depth = np.array([w.depth for w in self.wells], dtype=np.float64)
        width = np.array([w.width for w in self.wells], dtype=np.float64)
        w2 = width * width
        cols = tuple(c.reshape(-1, 1) for c in (cx, cy, depth, w2, 2.0 * w2))
        for c in cols:
            c.flags.writeable = False
        return cols


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


def _sum_wells(terms: np.ndarray) -> np.ndarray:
    """Sum (W, B) terms over wells, from zero and in well order, for every B.

    ``np.sum(axis=0)`` keeps this order only while B > 1: at B = 1 with eight
    or more wells numpy sums the column pairwise.
    """
    total = np.zeros(terms.shape[1])
    for row in terms:
        total += row
    return total


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
    cx, cy, depth, w2, two_w2 = spec.well_columns
    dx = thetas[:, 0] - cx  # (W, B)
    dy = thetas[:, 1] - cy
    e = depth * np.exp(-(dx * dx + dy * dy) / two_w2)
    # numpy sums a contiguous row of 8+ wells pairwise; a (B, W) copy keeps that order
    loss = spec.base_level - np.ascontiguousarray(e.T).sum(axis=1)
    k = e / w2
    grad = np.stack((_sum_wells(k * dx), _sum_wells(k * dy)), axis=-1)
    if not hessian:
        return Evaluation(loss, grad)
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


def flatness_from_hessian(hess: np.ndarray):
    """Sum of absolute eigenvalues of symmetric 2x2 matrices (..., 2, 2), in closed form."""
    hess = np.asarray(hess)
    return _abs_eig_sum(hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1])


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
    """Run one optimizer from every start (B, 2) at once; return the final points.

    ``record(t, theta, loss)`` is called after each step with the flat
    parameter vector and the loss (B,) at the points the step started from.
    """
    if total_steps < 0:
        raise ContractViolationError("total_steps must be >= 0")
    n = len(starts)
    theta = starts.reshape(-1).copy()
    opt = build_optimizer(optimizer, theta.size)
    for t in range(1, total_steps + 1):
        loss, grad = batch_loss_grad(spec, theta.reshape(n, 2))
        mult = schedule_multiplier(sched, t - 1)
        opt.step(theta, grad.reshape(-1), lr_multiplier=mult)
        if record is not None:
            record(t, theta, loss)
    return theta.reshape(n, 2)


def simulate_trajectory(
    spec: LandscapeSpec,
    start: Point,
    optimizer: OptimizerParams,
    sched: LrSchedule,
    total_steps: int,
) -> TrajectoryRecord:
    """Run one optimizer from ``start`` on the exact gradient, recording every step."""
    steps: list[tuple[int, Point, float]] = []

    def record(t, theta, loss):
        steps.append((t, (float(theta[0]), float(theta[1])), float(loss[0])))

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
    pts = [(x, y) for y in ys for x in xs]
    return np.array(pts)


def grid_flatness_study(
    spec: LandscapeSpec,
    region,
    grid,
    optimizers: list[OptimizerParams],
    sched: LrSchedule,
    total_steps: int,
) -> list[np.ndarray]:
    """Final-point flatness for every grid start, per optimizer.

    Results are in row-major grid order.  Internally all starts run as a
    single concatenated parameter vector, which is equivalent to
    per-start runs because every optimizer update rule is elementwise.
    """
    starts = grid_starts(region, grid)
    return [
        evaluate_batch(spec, _descend(spec, starts, params, sched, total_steps), hessian=True).flatness
        for params in optimizers
    ]
