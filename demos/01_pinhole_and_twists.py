"""Pinhole projection and twist-parameterized rigid motion.

Walks through the two geometric primitives everything else builds on:
projecting world points through a calibrated camera, and moving poses
around with the exponential map.
"""

import numpy as np

from mincdpnp import (
    CameraIntrinsics,
    Pose,
    perturb_pose,
    pose_difference,
    se3_exp,
    se3_log,
)
from mincdpnp.geometry import project_points

K = CameraIntrinsics(fu=585.0, fv=585.0, cu=320.0, cv=240.0)
print(f"camera: fu={K.fu} fv={K.fv} principal point ({K.cu}, {K.cv})")

points = np.array(
    [
        [0.0, 0.0, 4.0],   # straight ahead
        [0.5, -0.3, 2.0],  # off axis, closer
        [0.0, 0.0, -1.0],  # behind the camera
    ]
)
pixels, in_front = project_points(points, Pose.identity(), K)
for p, uv, ok in zip(points, pixels, in_front):
    where = f"({uv[0]:8.2f}, {uv[1]:8.2f})" if ok else "not visible"
    print(f"  {p} -> {where}")

print()
print("a twist is the 6-vector (omega, v); exp maps it to a pose, log maps back")
xi = np.array([0.02, -0.05, 0.01, 0.1, 0.0, -0.2])
T = se3_exp(xi)
xi_back = se3_log(T)
gap = np.linalg.norm(xi - xi_back)
print(f"  round trip |xi - log(exp(xi))| = {gap:.2e}")

T_perturbed = perturb_pose(T, rot_deg=5.0, trans_m=0.1, seed=0)
rot, trans = pose_difference(T_perturbed, T)
print(f"  perturb_pose lands at exactly {rot:.6f} deg, {trans:.6f} m from T")

# Left-composed small steps move the projected image smoothly.
step = se3_exp(np.array([0.0, 0.0, 0.0, 0.01, 0.0, 0.0]))
before, _ = project_points(points[:2], T, K)
after, _ = project_points(points[:2], step.compose(T), K)
print(f"  a 1 cm x-step shifts pixels by {np.abs(after - before).max():.2f} px at most")
