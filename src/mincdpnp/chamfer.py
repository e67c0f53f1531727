"""Bidirectional projected Chamfer cost, its twist gradient, and the solver.

The cost at pose T sums, over every pixel, the squared distance to the
nearest projected cloud point, plus, over every cloud point, the squared
distance from its projection to the nearest pixel. Minimizing it aligns
the projected cloud with the pixel set without any explicit matching,
which is what lets a pose be solved from unmatched keypoint sets.

Up to DENSE_CELLS pixel-projection pairs, one dense cdist matrix serves
both searches: its row argmins are the forward search, its column
argmins the backward one. Larger searches are two k-d tree queries
(features.nearest_points), O(N log N): the pixel set keeps one tree for
a whole solve, the projections get one per pose. Either way an
evaluation gives the dense N x M argmin's assignments, terms and values
to the bit (ties to the lowest index), so the cost at the true pose of
a clean scene is exactly 0.0.

The cost is piecewise smooth: it switches faces whenever a nearest
neighbor changes. The gradient and the Gauss-Newton steps freeze the
assignments of the current iterate (the standard subgradient choice)
and re-derive them after every accepted step, so the solver is a
projective flavor of ICP. The next linearization reuses the assignment
of the evaluation that accepted the step: one search per trial pose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import AllPointsBehindCamera, Divergence, EmptySet
from .features import KeypointSet2D, KeypointSet3D, nearest_points
from .geometry import (
    Z_MIN,
    CameraIntrinsics,
    Pose,
    _front_rows,
    pinhole,
    pose_difference,
    project_points,
    projection_jacobian,
    se3_exp,
)


@dataclass(frozen=True)
class ChamferReport:
    """Chamfer cost with its per-term breakdown.

    forward_terms has one entry per pixel. backward_terms has one entry
    per cloud point; points behind the camera are excluded and hold NaN.
    assignment is the pair of nearest-index arrays (cloud index per
    pixel, pixel index per cloud point, -1 where undefined).
    """

    value: float
    forward_terms: np.ndarray
    backward_terms: np.ndarray
    assignment: tuple


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap of the Gauss-Newton loop; its other settings are constants."""

    max_iters: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.max_iters, Integral) or self.max_iters < 1:  # NumPy's too
            raise ValueError("max_iters must be an integer of at least 1")


@dataclass(frozen=True)
class TraceRow:
    """One solver iteration: cost after the step and what the step was."""

    iteration: int
    cost: float
    step_size: float
    rot_err_deg: float | None = None
    trans_err_m: float | None = None


# Pixel-projection pairs up to which _projected_search reads one dense
# cdist matrix both ways instead of making two k-d tree queries. One
# search on a Xeon with 1 BLAS thread, tree -> dense: N=100 234 -> 73 us,
# N=300 572 -> 331 us, N=400 742 us -> 1.5 ms; so 256 x 256 cells.
DENSE_CELLS = 2**16


def _projected_search(T, image_set, cloud_set, K):
    """chamfer_cost's and kappa_star's search at T: (visible cloud indices,
    (index into them, squared distance) per pixel, (pixel index, squared
    distance) per visible projection)."""
    proj, in_front = project_points(cloud_set.points, T, K)
    keep = _front_rows(in_front, "no cloud point projects in front of the camera")
    visible_idx, visible, pixels = np.flatnonzero(in_front), proj[keep], image_set.pixels
    if len(pixels) * len(visible) > DENSE_CELLS:
        forward = nearest_points(cKDTree(visible), pixels)
        return visible_idx, forward, nearest_points(image_set.tree(), visible)
    D = cdist(pixels, visible, "sqeuclidean")  # (v-p)^2 == (p-v)^2 bit for bit
    fwd, bwd = D.argmin(axis=1), D.argmin(axis=0)
    forward = fwd, D[np.arange(len(pixels)), fwd]
    return visible_idx, forward, (bwd, D[bwd, np.arange(len(visible))])


def chamfer_cost(
    T: Pose,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
) -> ChamferReport:
    """Two-sided sum of squared nearest-neighbor distances at pose T.

    Cloud points behind the camera are excluded. Ties go to the lowest
    index.
    """
    if len(image_set) == 0 or len(cloud_set) == 0:
        raise EmptySet("chamfer_cost needs a nonempty pixel set and cloud")
    visible_idx, (fwd_nearest, forward_terms), (bwd_nearest, bwd_sq) = _projected_search(
        T, image_set, cloud_set, K
    )
    value = float(forward_terms.sum() + bwd_sq.sum())
    if len(visible_idx) == len(cloud_set):  # every point in front: no gaps to fill
        return ChamferReport(value, forward_terms, bwd_sq, (fwd_nearest, bwd_nearest))
    backward_terms = np.full(len(cloud_set), np.nan)
    backward_terms[visible_idx] = bwd_sq
    bwd_assign = np.full(len(cloud_set), -1, dtype=np.int64)
    bwd_assign[visible_idx] = bwd_nearest
    assignment = (visible_idx[fwd_nearest], bwd_assign)
    return ChamferReport(value, forward_terms, backward_terms, assignment)


def _term_pairs(assignment, image_set, x0):
    """The pixel and pre-pose point of every cost term of an assignment,
    shared points repeated once per term."""
    fwd_assign, bwd_assign = assignment
    pixels, points = image_set.pixels, x0.take(fwd_assign, axis=0)
    visible = bwd_assign >= 0
    if not visible.all():
        x0, bwd_assign = x0[visible], bwd_assign[visible]
    pixels = np.concatenate([pixels, pixels.take(bwd_assign, axis=0)])
    return pixels, np.concatenate([points, x0])


def _pair_residuals(pixels, x0, K):
    """Residuals pixel - pi(x0) (n, 2) over the pairs whose camera-frame
    point x0 is in front of the camera, and those points (n, 3), where
    _gradient linearizes."""
    keep = _front_rows(x0[:, 2] > Z_MIN, "no paired point is in front of the camera")
    y = x0[keep]
    return pixels[keep] - pinhole(y, K), y


def _chamfer_terms(T, image_set, cloud_set, K):
    """_minimize's Chamfer cost_fn: chamfer_cost's value at T, and the
    residuals and camera-frame points of its frozen-assignment terms."""
    report = chamfer_cost(T, image_set, cloud_set, K)
    x0 = T.apply(cloud_set.points)
    return (report.value, *_pair_residuals(*_term_pairs(report.assignment, image_set, x0), K))


def _pair_jacobian(cam, K):
    """(n, 2, 6) Jacobians of pi(exp(xi) p) at xi = 0 for camera-frame p
    = cam (n, 3): projection_jacobian P = [[a, 0, b], [0, c, d]] times
    [-[p]x | I], written out. Each entry sums at most two nonzero products
    of that matrix product, so it has the product's value (a zero may
    differ in sign)."""
    x, y, z = cam.T
    P = projection_jacobian(cam, K)
    a, b, c, d = P[:, 0, 0], P[:, 0, 2], P[:, 1, 1], P[:, 1, 2]
    J = np.empty((len(z), 2, 6))  # every entry is written below
    J[:, :, 3:] = P
    J[:, 0, 0], J[:, 0, 1], J[:, 0, 2] = b * y, a * z - b * x, -a * y
    J[:, 1, 0], J[:, 1, 1], J[:, 1, 2] = d * y - c * z, -d * x, c * x
    return J


def _gradient(residuals, cam, K):
    """The twist gradient -2 J^T r of the summed squared residuals (n, 2)
    at camera-frame points cam (n, 3), and the stacked pair Jacobian J
    (2n, 6) that the Gauss-Newton step reuses."""
    Jf = _pair_jacobian(cam, K).reshape(-1, 6)
    return -2.0 * (Jf.T @ residuals.reshape(-1)), Jf


def chamfer_grad_twist(
    T0: Pose,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
) -> np.ndarray:
    """Exact gradient of the frozen-assignment cost in the twist coordinates.

    The pose is parameterized as se3_exp(xi) composed with T0, xi a (6,)
    twist (omega, v); the returned 6-vector is the derivative at xi = 0
    through the projection, under the assignments of chamfer_cost at T0.
    """
    _, residuals, cam = _chamfer_terms(T0, image_set, cloud_set, K)
    return _gradient(residuals, cam, K)[0]


# An accepted step that lowers the cost by at most this fraction of it
# ends the solve. Without it, steps whose decrease rounds to zero pass
# the Armijo test (cost + c*alpha*decrease rounds back to cost) and
# keep a noisy solve running until max_iters.
CONVERGED_RTOL = 1e-12
# A cost at or below COST_TOL, or a gradient norm at or below GRAD_TOL,
# ends the solve.
COST_TOL = 1e-12
GRAD_TOL = 1e-10
# Added to the Gauss-Newton normal matrix's diagonal.
DAMPING = 1e-6
# Armijo line search: the first trial step, the sufficient-decrease
# constant, the step shrink per backtrack and the trials per search.
STEP_INIT = 1.0
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30


def _minimize(cost_fn, T_init, K, cfg, T_gt=None):
    """Damped Gauss-Newton with Armijo backtracking.

    cost_fn(T) is the one callback (_chamfer_terms, pnp._cost_from_arrays):
    the summed squared residual at pose T, the residuals (n, 2) and their
    camera-frame points (n, 3); at a trial pose it may raise
    AllPointsBehindCamera, which shrinks the step. The accepted
    evaluation's residuals are the next linearization: _gradient gives
    the gradient -2 J^T r and the direction solves (J^T J + DAMPING I) d
    = J^T r. Steps T <- exp(alpha * d) o T are accepted only when the
    cost passes the Armijo test, so the trace is monotone nonincreasing.
    Returns (pose, trace, reason), reason being one of "cost_tol",
    "grad_tol", "converged" (an accepted step lowered the cost by at most
    CONVERGED_RTOL of it), "stalled" (a line search that accepts no step,
    at a gradient norm at most 10 GRAD_TOL; above it the search raises
    Divergence) or "max_iters". A failed search leaves the pose, cost and
    residuals as they were, so a retry would repeat its trials bit for
    bit: the first one ends the solve. With T_gt the trace rows carry the
    pose error against it. The module constants above are read at call
    time.
    """
    T = T_init
    cost, residuals, cam = cost_fn(T)
    damping = DAMPING * np.eye(6)

    def row(it, step_size):
        rot, trans = (None, None) if T_gt is None else pose_difference(T, T_gt)
        return TraceRow(it, cost, step_size, rot, trans)

    trace = [row(0, 0.0)]
    for it in range(1, cfg.max_iters + 1):
        if cost <= COST_TOL:
            return T, trace, "cost_tol"
        grad, Jf = _gradient(residuals, cam, K)
        direction = np.linalg.solve(Jf.T @ Jf + damping, -0.5 * grad)  # J^T r, exactly
        grad_norm = math.sqrt(grad.dot(grad))  # np.linalg.norm's arithmetic
        if grad_norm <= GRAD_TOL:
            return T, trace, "grad_tol"

        alpha = STEP_INIT
        decrease = float(grad @ direction)  # negative along a descent direction
        cost_before = cost
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            T_try = se3_exp(alpha * direction).compose(T)
            try:
                trial = cost_fn(T_try)
            except AllPointsBehindCamera:
                alpha *= BACKTRACK_FACTOR
                continue
            if trial[0] <= cost + ARMIJO_C * alpha * decrease:
                T, (cost, residuals, cam), accepted = T_try, trial, True
                break
            alpha *= BACKTRACK_FACTOR
        trace.append(row(it, alpha if accepted else 0.0))
        if not accepted:
            if grad_norm > GRAD_TOL * 10:
                raise Divergence(f"line search stalled with gradient norm {grad_norm:.3e}")
            return T, trace, "stalled"
        if cost_before - cost <= CONVERGED_RTOL * cost_before:
            return T, trace, "converged"
    return T, trace, "cost_tol" if cost <= COST_TOL else "max_iters"


def _solve_chamfer(T_init, image_set, cloud_set, K, cfg, T_gt=None):
    """solve_pose_chamfer that also returns _minimize's stop reason."""
    return _minimize(lambda T: _chamfer_terms(T, image_set, cloud_set, K), T_init, K, cfg, T_gt)


def solve_pose_chamfer(
    T_init: Pose,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
    cfg: SolverConfig = SolverConfig(),
    T_gt: Pose | None = None,
) -> tuple[Pose, list[TraceRow]]:
    """Minimize the Chamfer cost over poses, starting from T_init.

    Each iteration freezes the nearest-neighbor assignments (those the
    evaluation that accepted the current pose found), takes a
    damped Gauss-Newton step in the local twist, and
    backtracks until the true (re-assigned) cost decreases, so the cost
    trace is monotone nonincreasing. The loop, shared with pnp_refine,
    stops once the cost is at most COST_TOL or the gradient norm at most
    GRAD_TOL, once an accepted step lowers the cost by no more than a
    CONVERGED_RTOL fraction, or at cfg.max_iters. A line search that
    accepts no step ends the solve, raising Divergence only if the
    gradient says the iterate is not a stationary point.
    With T_gt, trace rows also hold the pose error against it.
    """
    return _solve_chamfer(T_init, image_set, cloud_set, K, cfg, T_gt)[:2]


def save_trace_csv(path, trace: list[TraceRow]) -> None:
    """Trace rows as CSV; ground-truth error columns blank when untracked."""
    with open(path, "w") as fh:
        fh.write("iteration,cost,step_size,rot_err_deg,trans_err_m\n")
        for row in trace:
            rot = "" if row.rot_err_deg is None else repr(row.rot_err_deg)
            trans = "" if row.trans_err_m is None else repr(row.trans_err_m)
            fh.write(
                f"{row.iteration},{repr(row.cost)},{repr(row.step_size)},{rot},{trans}\n"
            )

