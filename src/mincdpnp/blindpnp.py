"""Inlier-count objectives for pose + correspondence estimation.

kappa counts inliers of an explicit 2D-3D matching under a pose;
kappa_star is its correspondence-free relaxation, counting two-sided
nearest-neighbor inliers between the pixel set and the projected cloud.
For any one-to-one matching, kappa never exceeds kappa_star, which is
what makes the relaxation usable as a surrogate objective; see
check_inequality8.

Behind-camera points cannot be projected, so they count as non-inliers
on their own side and are excluded from the other side's minima; the
counting effect is the same as assigning them infinite distance, which
is what kappa's pair errors (geometry._pair_sq_errors) hold for them.

kappa_star runs chamfer_cost's two-sided search (one dense matrix up to
chamfer.DENSE_CELLS pairs, else two k-d tree queries, O(N log N)); its
minima are cdist's bits, so a pair at exactly sq == tau counts as the
dense comparison counts it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chamfer import _projected_search
from .errors import AllPointsBehindCamera, EmptySet
from .features import CorrespondenceSet, KeypointSet2D, KeypointSet3D
from .geometry import CameraIntrinsics, Pose, _pair_sq_errors

# tau, the squared-pixel inlier radius of kappa, kappa* and the RANSAC
# consensus: the one default of all three
DEFAULT_TAU = 5.0


@dataclass(frozen=True)
class InlierConfig:
    """Squared-pixel threshold below which a reprojection is an inlier."""

    tau: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not (self.tau > 0):
            raise ValueError("tau must be positive")


def kappa(
    T: Pose,
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
    cfg: InlierConfig = InlierConfig(),
) -> int:
    """Inlier count of an explicit correspondence list under pose T."""
    pixels, points = C.gather(image_set, cloud_set)
    sq = _pair_sq_errors(T.R[None], T.t[None], pixels, points, K)[0]
    return int(np.count_nonzero(sq <= cfg.tau))


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
