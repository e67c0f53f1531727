"""The correspondence-free inlier count and why it bounds the real one.

kappa counts inliers of an explicit matching; kappa_star counts them
without knowing the matching, by taking nearest projections in both
directions. For any one-to-one matching kappa <= kappa_star, so the
relaxed count is a certificate you can maximize without solving the
assignment problem.
"""

import numpy as np

from mincdpnp import (
    CorrespondenceSet,
    InlierConfig,
    NoiseSpec,
    check_inequality8,
    generate_scene,
    kappa_star,
    perturb_pose,
)

scene = generate_scene(40, noise=NoiseSpec(seed=11, pixel_noise_sigma=1.0))
cfg = InlierConfig(tau=5.0)
n = len(scene.pixels)

rng = np.random.default_rng(0)
shuffled = CorrespondenceSet(np.arange(n), rng.permutation(n))

print("matching          pose      kappa  kappa*  bound holds")
for name, C in (("ground truth", scene.gt_pairs), ("shuffled", shuffled)):
    for pname, T in (
        ("truth", scene.T_gt),
        ("5 deg off", perturb_pose(scene.T_gt, 5.0, 0.1, seed=1)),
    ):
        k, ks, ok = check_inequality8(T, C, scene.pixels, scene.cloud, scene.K, cfg)
        print(f"{name:14s}  {pname:10s}  {k:5d}  {ks:6d}  {ok}")

print()
print(f"at the truth kappa* saturates near 2N = {2 * n}; far away it collapses:")
for deg in (0.0, 2.0, 10.0, 45.0):
    T = perturb_pose(scene.T_gt, deg, deg / 100.0, seed=2)
    print(f"  {deg:4.0f} deg off -> kappa* = {kappa_star(T, scene.pixels, scene.cloud, scene.K, cfg)}")
