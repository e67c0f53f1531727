"""Inlier-count objectives for pose + correspondence estimation.

kappa counts inliers of an explicit 2D-3D matching under a pose;
kappa_star is its correspondence-free relaxation, counting two-sided
nearest-neighbor inliers between the pixel set and the projected cloud.
For any one-to-one matching, kappa never exceeds kappa_star, which is
what makes the relaxation usable as a surrogate objective; see
check_inequality8.

Behind-camera points cannot be projected, so they count as non-inliers
on their own side and are excluded from the other side's minima; the
counting effect is the same as assigning them infinite distance.

kappa_star runs chamfer_cost's two k-d tree searches
(features.nearest_points), O(N log N) and no N x M matrix; its minima
are cdist's bits, so a pair at exactly sq == tau counts as the dense
comparison counts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chamfer import _projected_search
from .errors import AllPointsBehindCamera, EmptySet
from .features import CorrespondenceSet, KeypointSet2D, KeypointSet3D
from .geometry import CameraIntrinsics, Pose, project_points

# tau, the squared-pixel inlier radius of kappa, kappa*, keypoint
# selection and the RANSAC consensus: the one default of all four
DEFAULT_TAU = 5.0


@dataclass(frozen=True)
class InlierConfig:
    """Squared-pixel threshold below which a reprojection is an inlier."""

    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not (self.tau > 0):
            raise ValueError("tau must be positive")


def _validated_indices(C: CorrespondenceSet, n2d: int, n3d: int):
    if len(C) == 0:
        return C.idx2d, C.idx3d
    if C.idx2d.max() >= n2d:
        raise ValueError(f"2D index {C.idx2d.max()} out of range for set of {n2d}")
    if C.idx3d.max() >= n3d:
        raise ValueError(f"3D index {C.idx3d.max()} out of range for set of {n3d}")
    return C.idx2d, C.idx3d


def kappa(
    T: Pose,
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
    cfg: InlierConfig = InlierConfig(),
) -> int:
    """Inlier count of an explicit correspondence list under pose T."""
    i, j = _validated_indices(C, len(image_set), len(cloud_set))
    if len(C) == 0:
        return 0
    proj, in_front = project_points(cloud_set.points, T, K)
    diff = image_set.pixels[i] - proj[j]
    sq = np.einsum("nd,nd->n", diff, diff)
    ok = in_front[j] & (sq <= cfg.tau)
    return int(np.count_nonzero(ok))


def kappa_star(
    T: Pose,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
    cfg: InlierConfig = InlierConfig(),
) -> int:
    """Correspondence-free two-sided inlier count at pose T."""
    if len(image_set) == 0 or len(cloud_set) == 0:
        raise EmptySet("kappa_star needs a nonempty pixel set and cloud")
    try:
        _, (_, forward), (_, backward) = _projected_search(T, image_set, cloud_set, K)
    except AllPointsBehindCamera:
        return 0
    return int(np.count_nonzero(forward <= cfg.tau) + np.count_nonzero(backward <= cfg.tau))


def check_inequality8(
    T: Pose,
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
    cfg: InlierConfig = InlierConfig(),
) -> tuple[int, int, bool]:
    """Evaluate both counts for a one-to-one matching and test the bound.

    Returns (kappa, kappa_star, kappa <= kappa_star). The bound is a
    theorem for matchings, so a violation means a bug; it is reported
    rather than asserted so sweeps can tally it.
    """
    C.require_one_to_one()
    k = kappa(T, C, image_set, cloud_set, K, cfg)
    ks = kappa_star(T, image_set, cloud_set, K, cfg)
    return k, ks, k <= ks
