"""Descriptor matching between image keypoints and cloud keypoints.

Generates a scene whose 2D and 3D features agree up to noise, then
shows how the distance threshold delta, applied to each pixel's nearest
3D feature, trades match count against match quality.
"""

import numpy as np

from mincdpnp import MatchConfig, NoiseSpec, generate_scene, match_scene

scene = generate_scene(80, noise=NoiseSpec(seed=4, feature_noise_sigma=0.3))
gt = scene.gt_pairs.pairs()
print(f"scene: {len(scene.pixels)} pixels, {len(scene.cloud)} cloud points")
print(f"ground truth links {len(gt)} pairs")
print()

print("delta   pairs  correct  precision")
for delta in (0.2, 0.35, 0.5, 0.8):
    C = match_scene(scene, MatchConfig(delta=delta))
    hits = len(C.pairs() & gt)
    prec = hits / len(C) if len(C) else float("nan")
    print(f"{delta:5.2f}  {len(C):6d}  {hits:7d}  {prec:9.3f}")

print()
C = match_scene(scene, MatchConfig(delta=0.5))
scores = np.asarray(C.scores)
print(
    f"at delta=0.5 the kept distances span "
    f"[{scores.min():.3f}, {scores.max():.3f}], median {np.median(scores):.3f}"
)
print("true pairs sit well below the random-descriptor distance, so the")
print("separation is clean at this noise level")
print()

# Crank the descriptor noise and the clean separation is gone.
hard = generate_scene(80, noise=NoiseSpec(seed=4, feature_noise_sigma=1.5))
hard_gt = hard.gt_pairs.pairs()
print("same scene with feature_noise_sigma=1.5:")
print("delta   pairs  correct  precision")
for delta in (1.0, 1.2, 1.4):
    C = match_scene(hard, MatchConfig(delta=delta))
    hits = len(C.pairs() & hard_gt)
    prec = hits / len(C) if len(C) else float("nan")
    print(f"{delta:5.2f}  {len(C):6d}  {hits:7d}  {prec:9.3f}")
print("a tight threshold misses most of the truth and a loose one lets")
print("wrong nearest features in; the pair list is a candidate pool and")
print("the robust solvers downstream sort it out")
