"""Bidirectional projected Chamfer cost, its twist gradient, and the solver.

The cost at pose T sums, over every pixel, the squared distance to the
nearest projected cloud point, plus, over every cloud point, the squared
distance from its projection to the nearest pixel. Minimizing it aligns
the projected cloud with the pixel set without any explicit matching,
which is what lets a pose be solved from unmatched keypoint sets.

Both searches are k-d tree queries (features.nearest_points): the pixel
set keeps one tree for a whole solve, the projections get one per pose.
An evaluation is O(N log N) and gives the dense N x M argmin's
assignments, terms and values to the bit (ties to the lowest index), so
the cost at the true pose of a clean scene is exactly 0.0.

The cost is piecewise smooth: it switches faces whenever a nearest
neighbor changes. Gradient and Gauss-Newton steps freeze the
assignments of the current iterate (the standard subgradient choice)
and re-derive them after every accepted step, so the solver is a
projective flavor of ICP. The next linearization reuses the assignment
of the evaluation that accepted the step: one search per trial pose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import AllPointsBehindCamera, Divergence, EmptySet, NonFiniteInput
from .features import KeypointSet2D, KeypointSet3D, nearest_points
from .geometry import (
    Z_MIN,
    CameraIntrinsics,
    Pose,
    pinhole,
    pose_difference,
    project_points,
    projection_jacobian,
    se3_exp,
    zero_twist_jacobian,
)

DEFAULT_LAMBDA1 = 0.2
DEFAULT_LAMBDA2 = 1e-4


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
class LossWeights:
    """Weights of the keypoint and Chamfer terms in the combined objective."""

    lambda1: float = DEFAULT_LAMBDA1
    lambda2: float = DEFAULT_LAMBDA2

    def __post_init__(self) -> None:
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("loss weights must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap and step rule ("gn" damped Gauss-Newton, "gd"
    gradient descent); the loop's other settings are module constants."""

    max_iters: int = 200
    method: str = "gn"

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.method not in ("gn", "gd"):
            raise ValueError("method must be 'gn' or 'gd'")


@dataclass(frozen=True)
class TraceRow:
    """One solver iteration: cost after the step and what the step was."""

    iteration: int
    cost: float
    step_size: float
    rot_err_deg: float | None = None
    trans_err_m: float | None = None


def _projected_search(T, image_set, cloud_set, K):
    """chamfer_cost's and kappa_star's search at T: (visible cloud indices,
    (index into them, squared distance) per pixel, (pixel index, squared
    distance) per visible projection)."""
    proj, in_front = project_points(cloud_set.points, T, K)
    if not in_front.any():
        raise AllPointsBehindCamera("no cloud point projects in front of the camera")
    visible_idx = np.flatnonzero(in_front)
    visible = proj[visible_idx]
    forward = nearest_points(cKDTree(visible), image_set.pixels)
    return visible_idx, forward, nearest_points(image_set.tree(), visible)


def chamfer_cost(
    T: Pose,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
) -> ChamferReport:
    """Two-sided sum of squared nearest-neighbor distances at pose T.

    Cloud points behind the camera are excluded. Each search is a k-d
    tree query; ties go to the lowest index.
    """
    if len(image_set) == 0 or len(cloud_set) == 0:
        raise EmptySet("chamfer_cost needs a nonempty pixel set and cloud")
    visible_idx, (fwd_nearest, forward_terms), (bwd_nearest, bwd_sq) = _projected_search(
        T, image_set, cloud_set, K
    )
    backward_terms = np.full(len(cloud_set), np.nan)
    backward_terms[visible_idx] = bwd_sq
    bwd_assign = np.full(len(cloud_set), -1, dtype=np.int64)
    bwd_assign[visible_idx] = bwd_nearest
    value = float(forward_terms.sum() + bwd_sq.sum())
    assignment = (visible_idx[fwd_nearest], bwd_assign)
    return ChamferReport(value, forward_terms, backward_terms, assignment)


def _term_pairs(assignment, image_set, x0):
    """The pixel and pre-pose point of every cost term of an assignment,
    shared points repeated once per term."""
    fwd_assign, bwd_assign = assignment
    visible = np.flatnonzero(bwd_assign >= 0)
    q_idx = np.concatenate([np.arange(len(image_set)), bwd_assign[visible]])
    p_idx = np.concatenate([fwd_assign, visible])
    return image_set.pixels[q_idx], x0[p_idx]


def _pair_residuals(pixels, x0, K):
    """Residuals pixel - pi(x0) (n, 2) over the pairs whose point is in
    front of the camera, and their Jacobians (n, 2, 6) in the twist xi of
    exp(xi) x0 at xi = 0, where both solvers linearize."""
    in_front = x0[:, 2] > Z_MIN
    if not in_front.any():
        raise AllPointsBehindCamera("no paired point is in front of the camera")
    y = x0[in_front]
    J = np.einsum("nij,njk->nik", projection_jacobian(y, K), zero_twist_jacobian(y))
    return pixels[in_front] - pinhole(y, K), J


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
    report = chamfer_cost(T0, image_set, cloud_set, K)
    x0 = cloud_set.points @ T0.R.T + T0.t
    residuals, J = _pair_residuals(*_term_pairs(report.assignment, image_set, x0), K)
    # d/dxi sum ||q - pi(y)||^2 = -2 sum r^T J_pi J_exp
    return -2.0 * np.einsum("ni,nik->k", residuals, J)


# An accepted step that lowers the cost by at most this fraction of it
# ends the solve. Without it, steps whose decrease rounds to zero pass
# the Armijo test (cost + c*alpha*decrease rounds back to cost), reset
# the stall count and keep a noisy solve running until max_iters.
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


def _minimize(cost_fn, residual_fn, T_init, cfg, T_gt=None):
    """Damped Gauss-Newton (or gradient descent) with Armijo backtracking.

    cost_fn(T) gives the summed squared residual at pose T and a state
    for residual_fn (the Chamfer assignment); at a trial pose it may
    raise AllPointsBehindCamera, which shrinks the step. residual_fn(T,
    state) gives the residuals (n, 2) and their twist Jacobians (n, 2, 6)
    at T. Steps T <- exp(alpha * direction) o T are accepted only when
    the cost passes the Armijo test, so the trace is monotone
    nonincreasing. Returns (pose, trace, reason), reason being one of
    "cost_tol", "grad_tol", "converged" (an accepted step lowered the
    cost by at most CONVERGED_RTOL of it), "stalled" (five fruitless line
    searches in a row at a near-stationary point; away from one they
    raise Divergence) or "max_iters". With T_gt the trace rows carry
    the pose error against it. The module constants above are read at
    call time.
    """
    T = T_init
    cost, state = cost_fn(T)

    def row(it, step_size):
        rot, trans = (None, None) if T_gt is None else pose_difference(T, T_gt)
        return TraceRow(it, cost, step_size, rot, trans)

    trace = [row(0, 0.0)]
    stalls = 0
    for it in range(1, cfg.max_iters + 1):
        if cost <= COST_TOL:
            return T, trace, "cost_tol"
        residuals, J = residual_fn(T, state)
        Jf = J.reshape(-1, 6)
        g = Jf.T @ residuals.reshape(-1)
        grad = -2.0 * g
        if cfg.method == "gn":
            direction = np.linalg.solve(Jf.T @ Jf + DAMPING * np.eye(6), g)
        else:
            direction = -grad
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRAD_TOL:
            return T, trace, "grad_tol"

        alpha = STEP_INIT
        decrease = float(grad @ direction)  # negative along a descent direction
        cost_before = cost
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            T_try = se3_exp(alpha * direction).compose(T)
            try:
                trial, trial_state = cost_fn(T_try)
            except AllPointsBehindCamera:
                alpha *= BACKTRACK_FACTOR
                continue
            if trial <= cost + ARMIJO_C * alpha * decrease:
                T, cost, state, accepted = T_try, trial, trial_state, True
                break
            alpha *= BACKTRACK_FACTOR
        trace.append(row(it, alpha if accepted else 0.0))
        if accepted:
            if cost_before - cost <= CONVERGED_RTOL * cost_before:
                return T, trace, "converged"
            stalls = 0
            continue
        stalls += 1
        if stalls >= 5:
            if grad_norm > GRAD_TOL * 10:
                raise Divergence(
                    f"line search stalled 5 times with gradient norm {grad_norm:.3e}"
                )
            return T, trace, "stalled"
    return T, trace, "cost_tol" if cost <= COST_TOL else "max_iters"


def _solve_chamfer(T_init, image_set, cloud_set, K, cfg, T_gt=None):
    """solve_pose_chamfer that also returns _minimize's stop reason."""

    def cost(T):  # chamfer_cost looked up by name, so a wrapper sees each call
        report = chamfer_cost(T, image_set, cloud_set, K)
        return report.value, report.assignment

    def residuals(T, assignment):
        x0 = cloud_set.points @ T.R.T + T.t
        return _pair_residuals(*_term_pairs(assignment, image_set, x0), K)

    return _minimize(cost, residuals, T_init, cfg, T_gt)


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
    damped Gauss-Newton or gradient step in the local twist, and
    backtracks until the true (re-assigned) cost decreases, so the cost
    trace is monotone nonincreasing. The loop, shared with pnp_refine,
    stops once the cost is at most COST_TOL or the gradient norm at most
    GRAD_TOL, once an accepted step lowers the cost by no more than a
    CONVERGED_RTOL fraction, or at cfg.max_iters. Five fruitless line
    searches in a row end the solve, raising Divergence only if the
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


def mincd_objective(
    corr_loss: float,
    key_loss: float,
    chamfer_value: float,
    w: LossWeights = LossWeights(),
) -> float:
    """Combined training objective: corr + lambda1 * key + lambda2 * chamfer."""
    for name, value in (
        ("corr_loss", corr_loss),
        ("key_loss", key_loss),
        ("chamfer_value", chamfer_value),
    ):
        if not np.isfinite(value):
            raise NonFiniteInput(f"{name} is not finite: {value}")
    return float(corr_loss + w.lambda1 * key_loss + w.lambda2 * chamfer_value)
