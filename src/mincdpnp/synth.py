"""Deterministic synthetic scene pairs for exercising solvers and metrics.

A scene pair is a desk-scale point cloud, a ground-truth camera pose,
the cloud's projected keypoint pixels with per-pixel depth, feature
embeddings on both sides, and the ground-truth 2D-3D matching. Noise,
outlier, and dropout levels are explicit and every draw comes from one
seeded generator, so a seed fully determines the scene down to the bit
pattern.

Construction invariants the tests rely on:

- Pixels are produced by projecting the stored cloud points through the
  stored pose, so with zero noise the reprojection error of every
  ground-truth pair and the Chamfer cost at the true pose are exactly
  zero, not merely small.
- Outlier and dropout counts are floors of rate * n_points, making
  expected counts exact rather than binomial.
- Points are sampled inside the camera frustum within a depth window,
  so every cloud point projects validly under the true pose.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import (
    DEFAULT_FEATURE_DIM,
    CorrespondenceSet,
    KeypointSet2D,
    KeypointSet3D,
    _load_matrix_csv,
    _save_matrix_csv,
)
from .geometry import CameraIntrinsics, Pose, dumps_json, pinhole, so3_exp
from .plyio import load_ply, save_ply

DEFAULT_INTRINSICS = CameraIntrinsics(fu=585.0, fv=585.0, cu=320.0, cv=240.0)
DEFAULT_D_MAX = 10.0


@dataclass(frozen=True)
class NoiseSpec:
    """Noise levels for scene generation; the seed is always explicit."""

    seed: int
    pixel_noise_sigma: float = 0.0
    feature_noise_sigma: float = 0.0
    outlier_rate: float = 0.0
    dropout_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier_rate must lie in [0, 1)")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.pixel_noise_sigma < 0 or self.feature_noise_sigma < 0:
            raise ValueError("noise sigmas must be nonnegative")


@dataclass(frozen=True, eq=False)
class ScenePair:
    """One synthetic 2D-3D scene: cloud, pixels, truth, and bookkeeping."""

    cloud: KeypointSet3D
    pixels: KeypointSet2D
    T_gt: Pose
    K: CameraIntrinsics
    depth: np.ndarray
    gt_pairs: CorrespondenceSet
    meta: dict

    def __post_init__(self) -> None:
        depth = np.asarray(self.depth, dtype=np.float64).reshape(-1)
        if len(depth) != len(self.pixels):
            raise ValueError("depth must be parallel to the pixel set")
        defined = ~np.isnan(depth)
        if np.any(depth[defined] <= 0):
            raise ValueError("defined depth entries must be positive")
        depth.setflags(write=False)
        object.__setattr__(self, "depth", depth)

    def pairs_with_outliers(self) -> CorrespondenceSet:
        """Ground-truth pairs plus each outlier pixel paired to the cloud
        point it displaced: the natural robust-solver test input."""
        extra = self.meta.get("outlier_nominal_pairs", [])
        i = list(self.gt_pairs.idx2d) + [p[0] for p in extra]
        j = list(self.gt_pairs.idx3d) + [p[1] for p in extra]
        return CorrespondenceSet(i, j, n2d=len(self.pixels), n3d=len(self.cloud))

    def save_dir(self, directory: str | Path) -> None:
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        save_ply(d / "cloud.ply", self.cloud.points)
        _save_matrix_csv(d / "features_3d.csv", self.cloud.features)
        _save_matrix_csv(d / "pixels.csv", self.pixels.pixels)
        _save_matrix_csv(d / "features_2d.csv", self.pixels.features)
        self.T_gt.save(d / "pose_gt.json")
        self.K.save(d / "intrinsics.json")
        _save_matrix_csv(d / "depth.csv", self.depth.reshape(-1, 1))
        self.gt_pairs.save_csv(d / "gt_pairs.csv")
        (d / "meta.json").write_text(dumps_json(self.meta))

    @classmethod
    def load_dir(cls, directory: str | Path) -> "ScenePair":
        d = Path(directory)
        points = load_ply(d / "cloud.ply")
        feats3d = _load_matrix_csv(d / "features_3d.csv")
        pixels = _load_matrix_csv(d / "pixels.csv")
        feats2d = _load_matrix_csv(d / "features_2d.csv")
        depth = _load_matrix_csv(d / "depth.csv")
        depth = depth.reshape(-1) if depth is not None else np.zeros(0)
        return cls(
            cloud=KeypointSet3D(points, feats3d),
            pixels=KeypointSet2D(pixels.reshape(-1, 2) if pixels is not None else np.zeros((0, 2)), feats2d),
            T_gt=Pose.load(d / "pose_gt.json"),
            K=CameraIntrinsics.load(d / "intrinsics.json"),
            depth=depth,
            gt_pairs=CorrespondenceSet.load_csv(d / "gt_pairs.csv"),
            meta=json.loads((d / "meta.json").read_text()),
        )


def random_pose(rng: np.random.Generator, max_rot_deg: float = 60.0, trans_sigma: float = 1.0) -> Pose:
    """Random camera pose: bounded-angle rotation and gaussian translation."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, max_rot_deg))
    return Pose(so3_exp(axis * angle), rng.normal(scale=trans_sigma, size=3), check=False)


def perturb_pose(T: Pose, rot_deg: float, trans_m: float, seed: int) -> Pose:
    """Offset a pose by exactly rot_deg of rotation and trans_m of translation.

    The rotation axis and translation direction are drawn from the seed;
    the magnitudes are exact, so pose_difference(result, T) reads back
    (rot_deg, trans_m) up to roundoff.
    """
    if not (0.0 <= rot_deg < 180.0):
        raise ValueError("rot_deg must lie in [0, 180)")
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    R_delta = so3_exp(axis * np.radians(rot_deg))
    return Pose(R_delta @ T.R, T.t + trans_m * direction, check=False)


def generate_scene(
    n_points: int,
    K: CameraIntrinsics = DEFAULT_INTRINSICS,
    *,
    pose: Pose | None = None,
    noise: NoiseSpec = NoiseSpec(seed=0),
    d_max: float = DEFAULT_D_MAX,
    z_near: float = 0.5,
    width: int = 640,
    height: int = 480,
    feature_dim: int = DEFAULT_FEATURE_DIM,
    pixel_margin: float = 10.0,
) -> ScenePair:
    """Sample one scene pair; identical arguments give identical bits.

    Points are drawn in the camera frustum (pixel position uniform
    inside the image with a margin, depth uniform in [z_near, d_max])
    and carried to world coordinates with the inverse pose. Matched
    features share a latent vector plus independent gaussian noise;
    outlier pixels and their features are drawn fresh. floor(rate * n)
    pixels are displaced as outliers and floor(rate * n) cloud points
    lose their pixel to dropout.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    rng = np.random.default_rng(noise.seed)
    T_gt = pose if pose is not None else random_pose(rng)

    u = rng.uniform(pixel_margin, width - pixel_margin, size=n_points)
    v = rng.uniform(pixel_margin, height - pixel_margin, size=n_points)
    z = rng.uniform(z_near, d_max, size=n_points)
    cam = np.column_stack([(u - K.cu) / K.fu * z, (v - K.cv) / K.fv * z, z])
    world = T_gt.inverse().apply(cam)

    latent = rng.normal(size=(n_points, feature_dim))
    feats3d = latent + noise.feature_noise_sigma * rng.normal(size=latent.shape)

    n_dropped = int(np.floor(noise.dropout_rate * n_points))
    n_outliers = int(np.floor(noise.outlier_rate * n_points))
    if n_dropped + n_outliers > n_points:
        raise ValueError("dropout and outlier counts exceed the point budget")
    order = rng.permutation(n_points)
    dropped = np.sort(order[:n_dropped])
    outlier_cloud = np.sort(order[n_dropped : n_dropped + n_outliers])
    kept = np.sort(order[n_dropped:])

    # exact projections of the stored world points through the stored pose:
    # recomputing the same expression downstream reproduces these bits
    cam_kept = world[kept] @ T_gt.R.T + T_gt.t
    pix = pinhole(cam_kept, K)
    depth = cam_kept[:, 2].copy()
    feats2d = latent[kept] + noise.feature_noise_sigma * rng.normal(
        size=(len(kept), feature_dim)
    )
    if noise.pixel_noise_sigma > 0:
        pix = pix + noise.pixel_noise_sigma * rng.normal(size=pix.shape)

    shuffle = rng.permutation(len(kept))
    pix = pix[shuffle]
    depth = depth[shuffle]
    feats2d = feats2d[shuffle]
    cloud_of_pixel = kept[shuffle]

    is_outlier_pixel = np.isin(cloud_of_pixel, outlier_cloud)
    outlier_pixel_idx = np.flatnonzero(is_outlier_pixel)
    if n_outliers:
        pix[outlier_pixel_idx, 0] = rng.uniform(0, width, size=n_outliers)
        pix[outlier_pixel_idx, 1] = rng.uniform(0, height, size=n_outliers)
        depth[outlier_pixel_idx] = rng.uniform(z_near, d_max, size=n_outliers)
        feats2d[outlier_pixel_idx] = rng.normal(size=(n_outliers, feature_dim))

    true_pixel_idx = np.flatnonzero(~is_outlier_pixel)
    gt_pairs = CorrespondenceSet(
        true_pixel_idx,
        cloud_of_pixel[true_pixel_idx],
        n2d=len(pix),
        n3d=n_points,
    )
    meta = {
        "seed": noise.seed,
        "n_points": n_points,
        "feature_dim": feature_dim,
        "d_max": d_max,
        "z_near": z_near,
        "width": width,
        "height": height,
        "pixel_noise_sigma": noise.pixel_noise_sigma,
        "feature_noise_sigma": noise.feature_noise_sigma,
        "outlier_rate": noise.outlier_rate,
        "dropout_rate": noise.dropout_rate,
        "n_outliers": n_outliers,
        "n_dropped": n_dropped,
        "outlier_pixel_indices": outlier_pixel_idx.tolist(),
        "dropped_cloud_indices": dropped.tolist(),
        "outlier_nominal_pairs": np.column_stack(
            [outlier_pixel_idx, cloud_of_pixel[outlier_pixel_idx]]
        ).tolist()
        if n_outliers
        else [],
    }
    return ScenePair(
        cloud=KeypointSet3D(world, feats3d),
        pixels=KeypointSet2D(pix, feats2d),
        T_gt=T_gt,
        K=K,
        depth=depth,
        gt_pairs=gt_pairs,
        meta=meta,
    )
