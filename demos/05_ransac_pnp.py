"""Classical PnP from matches, made robust to heavy contamination.

P3P solves the pose from three clean pairs; RANSAC draws three-pair
samples until one is clean inside a half-wrong matching, refines each
new best by a few Gauss-Newton steps on its inliers, and refines the
final pose on the consensus.
"""

import numpy as np

from mincdpnp import (
    NoiseSpec,
    RansacConfig,
    generate_scene,
    perturb_pose,
    pnp_ransac,
    pnp_refine,
    pose_difference,
    reprojection_cost,
)

scene = generate_scene(200, noise=NoiseSpec(seed=3, outlier_rate=0.5))
C = scene.pairs_with_outliers()
wrong = len(C) - len(C.pairs() & scene.gt_pairs.pairs())
print(f"{len(C)} pairs, {wrong} of them wrong")

T, mask = pnp_ransac(C, scene.pixels, scene.cloud, scene.K, RansacConfig(seed=0))
rot, trans = pose_difference(T, scene.T_gt)
print(f"ransac: {mask.sum()}/{len(C)} inliers, {rot:.2e} deg / {trans:.2e} m off")

# The mask separates the planted outliers almost perfectly.
gt_ok = np.array([(i, j) in scene.gt_pairs.pairs() for i, j in zip(C.idx2d, C.idx3d)])
agree = (mask == gt_ok).mean()
print(f"inlier mask agrees with the planted labels on {agree:.1%} of pairs")
print()

# On clean pairs refinement works alone: from a pose 5 deg / 0.1 m off.
clean = generate_scene(20, noise=NoiseSpec(seed=5, pixel_noise_sigma=0.5))
T_start = perturb_pose(clean.T_gt, 5.0, 0.1, seed=5)
T_ref = pnp_refine(T_start, clean.gt_pairs, clean.pixels, clean.cloud, clean.K)
for name, pose in (("start", T_start), ("refined", T_ref)):
    sse = reprojection_cost(pose, clean.gt_pairs, clean.pixels, clean.cloud, clean.K)
    rot, trans = pose_difference(pose, clean.T_gt)
    print(f"{name:8s} cost {sse:8.3f}  ({rot:.3f} deg, {trans:.4f} m from truth)")
print("refinement brings the reprojection cost down to the pixel noise")
