"""Guided 3D keypoint selection and the keypoint loss.

Selection walks every 2D keypoint, finds its nearest 3D partner in
feature space, and keeps the partner when the match score clears a
confidence threshold. The keypoint loss scores a selection against a
known pose: it is an exact negative count of confident and
geometrically correct picks.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from itertools import chain

from scipy.spatial import cKDTree

from .errors import EmptyGroundTruth
from .features import (
    KeypointSet2D,
    KeypointSet3D,
    MatchConfig,
    nearest_features,
)
from .geometry import CameraIntrinsics, Pose, project_points

DEFAULT_S_TH = float(np.exp(-0.4))
PRECISION_RECALL_PIXEL_THRESHOLD = 3.0


@dataclass(frozen=True)
class SelectConfig:
    """Confidence and reprojection thresholds for keypoint selection."""

    s_th: float = DEFAULT_S_TH
    tau: float = 5.0

    def __post_init__(self) -> None:
        if not (self.s_th > 0):
            raise ValueError("s_th must be positive")
        if not (self.tau > 0):
            raise ValueError("tau must be positive")


@dataclass(frozen=True, eq=False)
class SelectedKeypoints:
    """Retained 3D keypoints with their provenance.

    Parallel arrays: cloud_indices into the source 3D set, source_2d
    the 2D keypoint that nominated each point, scores the nominating
    feature distance. Rows are ordered by ascending cloud index.
    """

    points: KeypointSet3D
    cloud_indices: np.ndarray
    source_2d: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.cloud_indices)


@dataclass(frozen=True)
class KeypointReport:
    selected: SelectedKeypoints
    precision: float
    recall: float
    count: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.precision <= 1.0 and 0.0 <= self.recall <= 1.0):
            raise ValueError("precision and recall must lie in [0, 1]")
        if self.count != len(self.selected):
            raise ValueError("count must equal the selection size")


def _nearest_matches(image_set, cloud_set, match_cfg):
    return nearest_features(
        image_set.require_features(), cloud_set.require_features(), match_cfg
    )


def select_3d_keypoints(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    cfg: SelectConfig = SelectConfig(),
    match_cfg: MatchConfig = MatchConfig(),
) -> SelectedKeypoints:
    """Keep each 2D keypoint's nearest 3D partner when its score clears s_th.

    A 3D point nominated by several 2D keypoints is kept once with its
    best (lowest) score; ties keep the lowest 2D index. Growing s_th
    only ever adds rows, so selections are nested across thresholds.
    """
    best_j, best_s = _nearest_matches(image_set, cloud_set, match_cfg)
    keep: dict[int, tuple[float, int]] = {}
    for q_idx in range(len(image_set)):
        if best_s[q_idx] > cfg.s_th:
            continue
        j = int(best_j[q_idx])
        candidate = (float(best_s[q_idx]), q_idx)
        if j not in keep or candidate < keep[j]:
            keep[j] = candidate
    cloud_idx = np.array(sorted(keep), dtype=np.int64)
    scores = np.array([keep[j][0] for j in cloud_idx])
    sources = np.array([keep[j][1] for j in cloud_idx], dtype=np.int64)
    pts = cloud_set.points[cloud_idx] if len(cloud_idx) else np.zeros((0, 3))
    feats = (
        cloud_set.features[cloud_idx]
        if cloud_set.features is not None and len(cloud_idx)
        else None
    )
    return SelectedKeypoints(
        points=KeypointSet3D(pts, feats),
        cloud_indices=cloud_idx,
        source_2d=sources,
        scores=scores,
    )


def _nearest_partners(image_set, cloud_set, T, K, match_cfg):
    """Each 2D keypoint's nearest-feature partner: (match score, squared
    reprojection error under T, partner in front of the camera)."""
    best_j, best_s = _nearest_matches(image_set, cloud_set, match_cfg)
    proj, in_front = project_points(cloud_set.points, T, K)
    diff = image_set.pixels - proj[best_j]
    return best_s, np.einsum("nd,nd->n", diff, diff), in_front[best_j]


def key_loss(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    T_gt: Pose,
    K: CameraIntrinsics,
    cfg: SelectConfig = SelectConfig(),
    match_cfg: MatchConfig = MatchConfig(),
) -> tuple[int, np.ndarray]:
    """Negative count of confident, correctly reprojecting keypoints.

    Returns (loss, per_q flags); loss is minus the number of set flags
    and lies in [-M0, 0]. A nearest partner behind the camera is never
    correct.
    """
    scores, sq, in_front = _nearest_partners(image_set, cloud_set, T_gt, K, match_cfg)
    counted = (scores <= cfg.s_th) & in_front & (sq <= cfg.tau)
    return -int(np.count_nonzero(counted)), counted


def guided_reprojection_total(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    T: Pose,
    K: CameraIntrinsics,
    match_cfg: MatchConfig = MatchConfig(),
) -> float:
    """Diagnostic only: summed reprojection error of nearest-feature matches.

    The guided-matching objective this evaluates is dominated by its
    replacement losses and ships with no solver; behind-camera partners
    are skipped.
    """
    _, sq, in_front = _nearest_partners(image_set, cloud_set, T, K, match_cfg)
    return float(np.sum(sq[in_front]))


@dataclass(frozen=True)
class GroundTruthCorrectness:
    """Reprojection-based correctness oracle at a known pose.

    pair_ok tells whether a specific 2D-3D pair reprojects within the
    pixel threshold: its squared pixel distance, du*du + dv*dv, is at
    most threshold_px**2, and a point behind the camera never is.
    q_with_partner lists the 2D keypoints for which any 3D point does;
    a k-d tree over the projections in front of the camera proposes the
    candidates and each one is rechecked with pair_ok's arithmetic, so
    no N x M matrix is formed.
    """

    pixels: np.ndarray
    projected: np.ndarray
    in_front: np.ndarray
    threshold_px: float

    def _ok(self, q_idx, cloud_idx):
        d = self.pixels[q_idx] - self.projected[cloud_idx]
        sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        return self.in_front[cloud_idx] & (sq <= self.threshold_px**2)

    def pair_ok(self, q_idx: int, cloud_idx: int) -> bool:
        return bool(self._ok(q_idx, cloud_idx))

    @property
    def q_with_partner(self) -> np.ndarray:
        front = np.flatnonzero(self.in_front)
        # subtraction rounds correctly, so the tree's and the recheck's
        # squared distances are a few ulps from the true one: a relative
        # 1e-9 on the radius keeps every pair the recheck accepts
        near = cKDTree(self.projected[front]).query_ball_point(
            self.pixels, self.threshold_px * (1 + 1e-9)
        )
        counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
        q = np.repeat(np.arange(len(near)), counts)
        j = front[np.fromiter(chain.from_iterable(near), dtype=np.intp, count=len(q))]
        return np.unique(q[self._ok(q, j)])


def reprojection_correctness(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    T_gt: Pose,
    K: CameraIntrinsics,
    pixel_threshold: float = PRECISION_RECALL_PIXEL_THRESHOLD,
) -> GroundTruthCorrectness:
    proj, in_front = project_points(cloud_set.points, T_gt, K)
    return GroundTruthCorrectness(image_set.pixels, proj, in_front, pixel_threshold)


def keypoint_precision_recall(
    selected: SelectedKeypoints, ground_truth: GroundTruthCorrectness
) -> tuple[float, float]:
    """Score a selection against reprojection ground truth.

    precision: fraction of selected keypoints whose nominating 2D
    keypoint they reproject next to (0 by convention when nothing is
    selected). recall: fraction of 2D keypoints having any valid
    partner that got a correct selected keypoint.
    """
    gt_q = ground_truth.q_with_partner
    if len(gt_q) == 0:
        raise EmptyGroundTruth("no 2D keypoint has a partner within the threshold")
    if len(selected) == 0:
        return 0.0, 0.0
    ok = ground_truth._ok(selected.source_2d, selected.cloud_indices)
    precision = float(np.count_nonzero(ok) / len(selected))
    recovered = set(selected.source_2d[ok].tolist()) & set(gt_q.tolist())
    recall = float(len(recovered) / len(gt_q))
    return precision, recall


def evaluate_selection(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    T_gt: Pose,
    K: CameraIntrinsics,
    cfg: SelectConfig = SelectConfig(),
    match_cfg: MatchConfig = MatchConfig(),
    pixel_threshold: float = PRECISION_RECALL_PIXEL_THRESHOLD,
) -> KeypointReport:
    """Select keypoints and grade them in one step."""
    selected = select_3d_keypoints(image_set, cloud_set, cfg, match_cfg)
    gt = reprojection_correctness(image_set, cloud_set, T_gt, K, pixel_threshold)
    precision, recall = keypoint_precision_recall(selected, gt)
    return KeypointReport(
        selected=selected, precision=precision, recall=recall, count=len(selected)
    )


def tau_criterion(rr_threshold: float, K: CameraIntrinsics, d_max: float) -> float:
    """Largest inlier threshold consistent with a registration tolerance.

    A pixel error of sqrt(tau) at depth d_max moves the back-projected
    point by rr_threshold meters, so tau above this bound admits
    correspondences that already violate the pose tolerance.
    """
    if rr_threshold < 0:
        raise ValueError("rr_threshold must be nonnegative")
    if d_max <= 0:
        raise ValueError("d_max must be positive")
    return (rr_threshold * max(K.fu, K.fv) / d_max) ** 2
