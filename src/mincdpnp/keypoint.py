"""Guided 3D keypoint selection and its grader.

Selection walks every 2D keypoint, finds its nearest 3D partner in
feature space, and keeps the partner when the match score clears a
confidence threshold. The grader scores a selection against a known
pose: precision and recall of picks that reproject next to the 2D
keypoint that nominated them.
"""

from __future__ import annotations

import numpy as np

from dataclasses import dataclass
from functools import cached_property

from scipy.spatial import cKDTree

from .errors import EmptyGroundTruth
from .features import KeypointSet2D, KeypointSet3D, nearest_points
from .geometry import CameraIntrinsics, Pose, project_points

DEFAULT_S_TH = float(np.exp(-0.4))
PRECISION_RECALL_PIXEL_THRESHOLD = 3.0


@dataclass(frozen=True)
class SelectConfig:
    """Keypoint selection's confidence threshold: a match score of at most s_th."""

    s_th: float = DEFAULT_S_TH

    def __post_init__(self) -> None:
        if not (self.s_th > 0):
            raise ValueError("s_th must be positive")


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

    def __post_init__(self) -> None:
        if not (0.0 <= self.precision <= 1.0 and 0.0 <= self.recall <= 1.0):
            raise ValueError("precision and recall must lie in [0, 1]")


def select_3d_keypoints(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    cfg: SelectConfig = SelectConfig(),
) -> SelectedKeypoints:
    """Keep each 2D keypoint's nearest 3D partner when its score clears s_th.

    A 3D point nominated by several 2D keypoints is kept once with its
    best (lowest) score; ties keep the lowest 2D index. Growing s_th
    only ever adds rows, so selections are nested across thresholds.
    """
    best_j, best_s = image_set.nearest_in(cloud_set)
    q = np.flatnonzero(best_s <= cfg.s_th)
    q = q[np.lexsort((q, best_s[q], best_j[q]))]  # by partner, then score, then q
    sources = q[np.diff(best_j[q], prepend=-1) != 0].astype(np.int64)
    cloud_idx = best_j[sources].astype(np.int64)
    scores = best_s[sources]
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


@dataclass(frozen=True)
class GroundTruthCorrectness:
    """Reprojection-based correctness oracle at a known pose.

    pairs_ok tells, pair by pair, whether 2D-3D pairs reproject within
    the pixel threshold: a pair's squared pixel distance, du*du + dv*dv,
    is at most threshold_px**2, and a point behind the camera never is.
    q_with_partner lists the 2D keypoints for which any 3D point does:
    those whose nearest projection in front of the camera, found with a
    k-d tree, is within the threshold, so no N x M matrix is formed. It
    is computed on first access and kept.
    """

    pixels: np.ndarray
    projected: np.ndarray
    in_front: np.ndarray
    threshold_px: float

    def pairs_ok(self, q_idx, cloud_idx) -> np.ndarray:
        d = self.pixels[q_idx] - self.projected[cloud_idx]
        sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
        return self.in_front[cloud_idx] & (sq <= self.threshold_px**2)

    @cached_property
    def q_with_partner(self) -> np.ndarray:
        front = np.flatnonzero(self.in_front)
        if len(front) == 0:
            return np.zeros(0, dtype=np.int64)
        # the nearest projection's squared distance, d0*d0 + d1*d1, is the
        # smallest pairs_ok value of each pixel, bit for bit
        _, sq = nearest_points(cKDTree(self.projected[front]), self.pixels)
        return np.flatnonzero(sq <= self.threshold_px**2)


def reprojection_correctness(
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    T_gt: Pose,
    K: CameraIntrinsics,
) -> GroundTruthCorrectness:
    """The correctness oracle of image_set against cloud_set projected at
    T_gt, a pair being correct within PRECISION_RECALL_PIXEL_THRESHOLD
    pixels; the value is read at each call and kept as threshold_px."""
    proj, in_front = project_points(cloud_set.points, T_gt, K)
    return GroundTruthCorrectness(
        image_set.pixels, proj, in_front, PRECISION_RECALL_PIXEL_THRESHOLD
    )


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
    ok = ground_truth.pairs_ok(selected.source_2d, selected.cloud_indices)
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
) -> KeypointReport:
    """Select keypoints and grade them in one step, a pick being correct
    within PRECISION_RECALL_PIXEL_THRESHOLD pixels."""
    selected = select_3d_keypoints(image_set, cloud_set, cfg)
    gt = reprojection_correctness(image_set, cloud_set, T_gt, K)
    precision, recall = keypoint_precision_recall(selected, gt)
    return KeypointReport(selected=selected, precision=precision, recall=recall)


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
