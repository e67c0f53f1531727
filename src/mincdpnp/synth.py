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
)
from .geometry import CameraIntrinsics, Pose, backproject, dumps_json, pinhole, so3_exp
from .plyio import load_ply, save_ply

DEFAULT_INTRINSICS = CameraIntrinsics(fu=585.0, fv=585.0, cu=320.0, cv=240.0)
DEFAULT_D_MAX = 10.0
Z_NEAR = 0.5
IMAGE_WIDTH = 640
IMAGE_HEIGHT = 480
PIXEL_MARGIN = 10.0
POSE_MAX_ROT_DEG = 60.0
POSE_TRANS_SIGMA = 1.0


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
        for sigma in (self.pixel_noise_sigma, self.feature_noise_sigma):
            if not (0.0 <= sigma < np.inf):
                raise ValueError("noise sigmas must be finite and nonnegative")


def _save_array(path: Path, a) -> None:
    """A little-endian float64 .npy, or a zero-byte file for None."""
    if a is None:  # np.save(None) would write a pickled object array
        path.write_bytes(b"")
    else:
        np.save(path, np.asarray(a, dtype="<f8"))


def _load_array(path: Path):
    """The array of a _save_array file; None for a zero-byte file."""
    if path.stat().st_size == 0:
        return None
    return np.load(path, allow_pickle=False)


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
        depth = np.array(self.depth, dtype=np.float64).reshape(-1)
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
        return CorrespondenceSet(i, j)

    def save_dir(self, directory: str | Path) -> None:
        """Write the scene's files: cloud.ply (binary little-endian doubles),
        .npy arrays, gt_pairs.csv and JSON, every float bit-exact."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        save_ply(d / "cloud.ply", self.cloud.points)
        _save_array(d / "features_3d.npy", self.cloud.features)
        _save_array(d / "pixels.npy", self.pixels.pixels)
        _save_array(d / "features_2d.npy", self.pixels.features)
        self.T_gt.save(d / "pose_gt.json")
        self.K.save(d / "intrinsics.json")
        _save_array(d / "depth.npy", self.depth)
        self.gt_pairs.save_csv(d / "gt_pairs.csv")
        (d / "meta.json").write_text(dumps_json(self.meta))

    @classmethod
    def load_dir(cls, directory: str | Path) -> "ScenePair":
        """The scene save_dir wrote. A file in an older format (ASCII PLY,
        CSV arrays) raises, so synth must remake that scene, and so does a
        gt_pairs.csv that indexes past its nonempty pixel set or cloud."""
        d = Path(directory)
        points = load_ply(d / "cloud.ply")
        feats3d = _load_array(d / "features_3d.npy")
        pixels = _load_array(d / "pixels.npy")
        feats2d = _load_array(d / "features_2d.npy")
        depth = _load_array(d / "depth.npy")
        scene = cls(
            cloud=KeypointSet3D(points, feats3d),
            pixels=KeypointSet2D(pixels if pixels is not None else np.zeros((0, 2)), feats2d),
            T_gt=Pose.load(d / "pose_gt.json"),
            K=CameraIntrinsics.load(d / "intrinsics.json"),
            depth=depth if depth is not None else np.zeros(0),
            gt_pairs=CorrespondenceSet.load_csv(d / "gt_pairs.csv"),
            meta=json.loads((d / "meta.json").read_text()),
        )
        # an empty set loads: the stage that needs it raises EmptySet
        scene.gt_pairs.require_in_range(len(scene.pixels) or None, len(scene.cloud) or None)
        return scene


def random_pose(rng: np.random.Generator) -> Pose:
    """Random camera pose: rotation by an angle uniform in [0, POSE_MAX_ROT_DEG]
    degrees, translation gaussian with POSE_TRANS_SIGMA meters per axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = np.radians(rng.uniform(0.0, POSE_MAX_ROT_DEG))
    return Pose._owned(so3_exp(axis * angle), rng.normal(scale=POSE_TRANS_SIGMA, size=3))


def check_rot_deg(rot_deg: float) -> None:
    """perturb_pose's rotation range, [0, 180) degrees."""
    if not (0.0 <= rot_deg < 180.0):
        raise ValueError("rot_deg must lie in [0, 180)")


def check_trans_m(trans_m: float) -> None:
    """perturb_pose's translation offset, finite and nonnegative meters."""
    if not (0.0 <= trans_m < np.inf):
        raise ValueError("trans_m must be finite and nonnegative")


def point_budget(n_points: int, outlier_rate: float, dropout_rate: float) -> tuple[int, int]:
    """(dropped, outlier) point counts of a scene, floors of rate * n_points;
    ValueError when together they exceed n_points."""
    n_dropped = int(np.floor(dropout_rate * n_points))
    n_outliers = int(np.floor(outlier_rate * n_points))
    if n_dropped + n_outliers > n_points:
        raise ValueError(
            f"{n_dropped} dropped and {n_outliers} outlier points exceed "
            f"the budget of {n_points} points"
        )
    return n_dropped, n_outliers


def perturb_pose(T: Pose, rot_deg: float, trans_m: float, seed: int) -> Pose:
    """Offset a pose by exactly rot_deg of rotation and trans_m of translation.

    The rotation axis and translation direction are drawn from the seed;
    the magnitudes are exact, so pose_difference(result, T) reads back
    (rot_deg, trans_m) up to roundoff.
    """
    check_rot_deg(rot_deg)
    check_trans_m(trans_m)
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    R_delta = so3_exp(axis * np.radians(rot_deg))
    return Pose._owned(R_delta @ T.R, T.t + trans_m * direction)


def generate_scene(n_points: int, *, noise: NoiseSpec = NoiseSpec(seed=0)) -> ScenePair:
    """Sample one scene pair; identical arguments give identical bits.

    The true pose is random_pose's first draw from the seed. Points are
    drawn in the frustum of DEFAULT_INTRINSICS (pixel position uniform
    inside the IMAGE_WIDTH x IMAGE_HEIGHT image less PIXEL_MARGIN, depth
    uniform in [Z_NEAR, DEFAULT_D_MAX] meters) and carried to world
    coordinates with the inverse pose. Matched features, DEFAULT_FEATURE_DIM
    long, share a latent vector plus independent gaussian noise; outlier
    pixels and their features are drawn fresh. floor(rate * n) pixels are
    displaced as outliers and floor(rate * n) cloud points lose their
    pixel to dropout.
    """
    if n_points < 1:
        raise ValueError("n_points must be at least 1")
    rng = np.random.default_rng(noise.seed)
    T_gt = random_pose(rng)
    K = DEFAULT_INTRINSICS

    u = rng.uniform(PIXEL_MARGIN, IMAGE_WIDTH - PIXEL_MARGIN, size=n_points)
    v = rng.uniform(PIXEL_MARGIN, IMAGE_HEIGHT - PIXEL_MARGIN, size=n_points)
    z = rng.uniform(Z_NEAR, DEFAULT_D_MAX, size=n_points)
    world = T_gt.inverse().apply(backproject(np.column_stack([u, v]), z, K))

    latent = rng.normal(size=(n_points, DEFAULT_FEATURE_DIM))
    feats3d = latent + noise.feature_noise_sigma * rng.normal(size=latent.shape)

    n_dropped, n_outliers = point_budget(n_points, noise.outlier_rate, noise.dropout_rate)
    order = rng.permutation(n_points)
    dropped = np.sort(order[:n_dropped])
    outlier_cloud = np.sort(order[n_dropped : n_dropped + n_outliers])
    kept = np.sort(order[n_dropped:])

    # exact projections of the stored world points through the stored pose:
    # recomputing the same expression downstream reproduces these bits
    cam_kept = T_gt.apply(world[kept])
    pix = pinhole(cam_kept, K)
    depth = cam_kept[:, 2].copy()
    feats2d = latent[kept] + noise.feature_noise_sigma * rng.normal(
        size=(len(kept), DEFAULT_FEATURE_DIM)
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
        pix[outlier_pixel_idx, 0] = rng.uniform(0, IMAGE_WIDTH, size=n_outliers)
        pix[outlier_pixel_idx, 1] = rng.uniform(0, IMAGE_HEIGHT, size=n_outliers)
        depth[outlier_pixel_idx] = rng.uniform(Z_NEAR, DEFAULT_D_MAX, size=n_outliers)
        feats2d[outlier_pixel_idx] = rng.normal(size=(n_outliers, DEFAULT_FEATURE_DIM))

    true_pixel_idx = np.flatnonzero(~is_outlier_pixel)
    gt_pairs = CorrespondenceSet(true_pixel_idx, cloud_of_pixel[true_pixel_idx])
    meta = {
        "seed": noise.seed,
        "n_points": n_points,
        "feature_dim": DEFAULT_FEATURE_DIM,
        "d_max": DEFAULT_D_MAX,
        "z_near": Z_NEAR,
        "width": IMAGE_WIDTH,
        "height": IMAGE_HEIGHT,
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
