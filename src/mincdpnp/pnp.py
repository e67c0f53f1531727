"""Correspondence-based pose estimation.

Given explicit 2D-3D pairs this module recovers the camera pose two
ways: damped Gauss-Newton refinement of the summed squared reprojection
error, and a consensus wrapper that tolerates outlier pairs. The
refinement runs the Chamfer solver's loop, chamfer._minimize, so both
share the twist parameterization, the Armijo line search and the stop
reasons (cost_tol, grad_tol, converged, stalled, max_iters); here
correspondences are fixed inputs rather than nearest-neighbor
assignments.

The consensus loop draws minimal samples of three pairs, solves each
by P3P (up to four poses), and scores the valid poses of a whole block
of samples with one broadcast projection; each sample's hypothesis is
its best pose. It then replays the best-count update and adaptive stop
over the block in hypothesis order. The solver and the scorer work on
stacks, and a single fit or score is the stack of one, so the result
does not depend on the block sizes. Hypothesis k's sample comes from a
counter-based hash of (seed, k), drawn for a whole block in three
vector steps, and each new best found by the replay is locally
optimized (LO-RANSAC) by one short Gauss-Newton refine on its inliers
before the adaptive stop reads its count.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .blindpnp import DEFAULT_TAU
from .chamfer import SolverConfig, _gradient, _minimize
from .errors import (
    AllPointsBehindCamera,
    Divergence,
    NoConsensus,
    TooFewPoints,
)
from .features import CorrespondenceSet, KeypointSet2D, KeypointSet3D
from .geometry import (
    CameraIntrinsics,
    Pose,
    _front_rows,
    _pair_sq_errors,
    _poses_pass_checks,
    backproject,
    project_points,
)

# the consensus a RANSAC result needs: every P3P root fits its own
# three pairs exactly, so a floor of three would accept any sample
MIN_PNP_POINTS = 6
# pairs in a RANSAC minimal sample, solved by P3P
P3P_SAMPLE = 3

# Hypotheses per block: the first block holds RANSAC_BLOCK_START and
# each next one twice as many, up to RANSAC_BLOCK_PAIRS // (4 n) for n
# pairs, so an early stop wastes about as many fits as it used and a
# block's (4 B, n) root scores stay at a few MB.
RANSAC_BLOCK_START = 8
RANSAC_BLOCK_PAIRS = 1 << 16

# confidence of the adaptive stop (see _ransac_from_arrays)
RANSAC_CONFIDENCE = 0.999

# Gauss-Newton iterations of the LO step: one refine of a new best
# hypothesis on its own inliers, kept only if the inlier count grows
# (Lebeda, Matas & Chum, BMVC 2012; Chum, Matas & Kittler, DAGM 2003).
LO_MAX_ITERS = 5

# SplitMix64's golden-ratio increment (Steele, Lea & Flood, OOPSLA 2014)
_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RansacConfig:
    """Consensus-loop parameters; the sampler seed is mandatory.

    Hypothesis k's minimal sample of three pairs is a pure function of
    (seed mod 2^64, k) and the number of pairs, drawn by a
    counter-based hash, so no generator state is carried between
    hypotheses. iterations caps the hypotheses drawn; the adaptive stop
    at RANSAC_CONFIDENCE reads the inlier count after the LO step.
    threshold is a squared pixel distance, the same inlier semantics
    the rest of the package uses.
    """

    seed: int
    iterations: int = 1000
    threshold: float = DEFAULT_TAU

    def __post_init__(self) -> None:
        if not isinstance(self.seed, Integral) or self.seed < 0:  # NumPy's too
            raise ValueError("seed must be a nonnegative integer")
        if not isinstance(self.iterations, Integral) or self.iterations < 1:
            raise ValueError("iterations must be an integer of at least 1")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")


def _p3p_batch(pixels: np.ndarray, points: np.ndarray, K: CameraIntrinsics):
    """P3P on B minimal samples, pixels (B, 3, 2) and points (B, 3, 3).

    Grunert's quartic in the Haralick et al. form (IJCV 1994): with
    depths s1, s2 = u s1 and s3 = v s1 along the unit bearings,
    eliminating u from the three laws of cosines leaves a quartic in v.
    Its roots are the eigenvalues of the companion matrix, polished by
    two Newton steps; s1 follows from the side |P1 P3|, s2 from the side
    |P1 P2| (the sign that fits |P2 P3| better, which stays accurate
    where Grunert's formula for u divides by nearly zero), and a Kabsch
    SVD aligns the points with the scaled bearings.

    Returns R (B, 4, 3, 3), t (B, 4, 3) and ok (B, 4): a root is ok when
    it is real and gives three finite positive depths, and R and t are
    NaN where it is not: only the ok roots reach the Kabsch SVD.
    Collinear or coincident points give no root.
    """
    B = len(pixels)
    f = backproject(pixels, 1.0, K)
    f /= np.sqrt(np.einsum("bid,bid->bi", f, f))[..., None]
    cos_a = np.einsum("bd,bd->b", f[:, 1], f[:, 2])[:, None]
    cos_b = np.einsum("bd,bd->b", f[:, 0], f[:, 2])[:, None]
    cos_g = np.einsum("bd,bd->b", f[:, 0], f[:, 1])[:, None]
    d12, d13 = points[:, 1] - points[:, 0], points[:, 2] - points[:, 0]
    d23 = points[:, 2] - points[:, 1]
    a2, b2, c2 = (np.einsum("bd,bd->b", d, d)[:, None] for d in (d23, d13, d12))
    area = np.cross(d12, d13)
    degenerate = np.einsum("bd,bd->b", area, area) <= 1e-20 * (c2 * b2)[:, 0]
    b2 = np.where(degenerate[:, None], 1.0, b2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p, q = (a2 - c2) / b2, (a2 + c2) / b2
        A4 = (p - 1) ** 2 - 4 * c2 / b2 * cos_a**2
        A3 = 4 * (p * (1 - p) * cos_b - (1 - q) * cos_a * cos_g + 2 * c2 / b2 * cos_a**2 * cos_b)
        A2 = 2 * (
            p**2 - 1 + 2 * p**2 * cos_b**2 + 2 * (b2 - c2) / b2 * cos_a**2
            - 4 * q * cos_a * cos_b * cos_g + 2 * (b2 - a2) / b2 * cos_g**2
        )
        A1 = 4 * (-p * (1 + p) * cos_b + 2 * a2 / b2 * cos_g**2 * cos_b - (1 - q) * cos_a * cos_g)
        A0 = (1 + p) ** 2 - 4 * a2 / b2 * cos_g**2
        monic = np.concatenate([A3, A2, A1, A0], axis=1) / A4
        usable = ~degenerate & np.isfinite(monic).all(axis=1)
        companion = np.zeros((B, 4, 4))
        companion[:, 0] = np.where(usable[:, None], -monic, 0.0)
        companion[:, 1, 0] = companion[:, 2, 1] = companion[:, 3, 2] = 1.0
        roots = np.linalg.eigvals(companion)
        v = roots.real
        for _ in range(2):
            step = ((((A4 * v + A3) * v + A2) * v + A1) * v + A0) / (
                ((4 * A4 * v + 3 * A3) * v + 2 * A2) * v + A1
            )
            v = np.where(np.isfinite(step), v - step, v)
        s1 = np.sqrt(b2 / (1 + v * v - 2 * v * cos_b))
        s3 = v * s1
        half = np.sqrt(np.maximum(c2 - s1 * s1 * (1 - cos_g * cos_g), 0.0))
        s2 = s1 * cos_g + np.array([[[1.0]], [[-1.0]]]) * half
        miss = np.abs(s2 * s2 + s3 * s3 - 2 * s2 * s3 * cos_a - a2)
        depth = np.stack([s1, np.where(miss[0] <= miss[1], s2[0], s2[1]), s3], axis=-1)
        # a double root can split into a pair with a tiny imaginary part
        ok = (
            usable[:, None]
            & (np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(roots.real)))
            & (np.isfinite(depth) & (depth > 0)).all(axis=-1)
        )
    sample = np.nonzero(ok)[0]
    world, cam = points.take(sample, axis=0), depth[ok][..., None] * f.take(sample, axis=0)
    # np.mean's arithmetic, a sum over the three points then / 3, without its wrapper
    world_mean, cam_mean = np.add.reduce(world, axis=1) / 3, np.add.reduce(cam, axis=1) / 3
    H = np.swapaxes(world - world_mean[:, None], -1, -2) @ (cam - cam_mean[:, None])
    U, _, Vt = np.linalg.svd(H)
    V, Ut = np.swapaxes(Vt, -1, -2), np.swapaxes(U, -1, -2)
    D = np.zeros((len(sample), 3, 3))
    D[:, 0, 0] = D[:, 1, 1] = 1.0
    D[:, 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R_ok = V @ D @ Ut
    R, t = np.full((B, 4, 3, 3), np.nan), np.full((B, 4, 3), np.nan)
    R[ok], t[ok] = R_ok, cam_mean - (R_ok @ world_mean[..., None])[..., 0]
    return R, t, ok


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer on a uint64 array. Arrays wrap modulo 2^64
    without the overflow warning numpy scalars raise, so keep z an array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _samples(seed: int, ks, n: int, s: int) -> np.ndarray:
    """Minimal samples of hypotheses ks, (B, s) int64: row b holds s
    distinct indices in [0, n) and depends only on (seed, ks[b], n, s).

    Hypothesis k's key is mix(mix(seed) ^ k) and its i-th draw is
    mix(key + (i + 1) * gamma), a SplitMix64 stream. Floyd's algorithm
    turns the draws into a subset: for j = n - s .. n - 1 it takes
    draw % (j + 1), or j itself when that index is already taken.
    """
    ks = np.asarray(ks, dtype=np.uint64)
    key = _mix64(_mix64(np.array([int(seed) & _MASK64], dtype=np.uint64)) ^ ks)
    out = np.empty((len(ks), s), dtype=np.int64)
    for i, j in enumerate(range(n - s, n)):
        r = (_mix64(key + ((i + 1) * _GAMMA & _MASK64)) % (j + 1)).astype(np.int64)
        out[:, i] = np.where((out[:, :i] == r[:, None]).any(axis=1), j, r)
    return out


def _fit_block(pixels: np.ndarray, points: np.ndarray, K: CameraIntrinsics):
    """_p3p_batch plus {index: LinAlgError}: if a stacked eigvals or SVD
    fails, the samples are refit one at a time, and the replay raises a
    failed sample's error only on reaching it, as the sequential loop does."""
    try:
        return (*_p3p_batch(pixels, points, K), {})
    except np.linalg.LinAlgError:
        B = len(pixels)
    R, t, ok = np.full((B, 4, 3, 3), np.nan), np.full((B, 4, 3), np.nan), np.zeros((B, 4), bool)
    failed = {}
    for j in range(B):
        try:
            fit = _p3p_batch(pixels[j : j + 1], points[j : j + 1], K)
        except np.linalg.LinAlgError as exc:
            failed[j] = exc
            continue
        R[j], t[j], ok[j] = (a[0] for a in fit)
    return R, t, ok, failed


def reprojection_cost(
    T: Pose,
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
) -> float:
    """Sum of squared reprojection errors over the given pairs.

    Pairs whose point falls behind the camera are excluded; if every
    pair does, there is nothing to measure and the call raises.
    """
    return _cost_from_arrays(T, *C.gather(image_set, cloud_set), K)[0]


def _cost_from_arrays(T, pixels, points, K):
    """_minimize's PnP cost_fn: reprojection_cost on gathered pairs, and
    the in-front pairs' residuals (n, 2) and camera-frame points (n, 3)."""
    proj, in_front = project_points(points, T, K)
    keep = _front_rows(in_front, "no corresponded point is in front of the camera")
    r = pixels[keep] - proj[keep]
    return float(np.einsum("nd,nd->", r, r)), r, T.apply(points)[keep]


def reprojection_grad_twist(
    T0: Pose,
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
) -> np.ndarray:
    """Exact gradient of reprojection_cost in the (6,) twist xi = (omega, v)
    of se3_exp(xi) composed with T0, at xi = 0."""
    _, residuals, cam = _cost_from_arrays(T0, *C.gather(image_set, cloud_set), K)
    return _gradient(residuals, cam, K)[0]


def _refine_from_arrays(T_init, pixels, points, K, cfg):
    """pnp_refine on gathered pairs: (pose, trace, stop reason)."""
    return _minimize(lambda T: _cost_from_arrays(T, pixels, points, K), T_init, K, cfg)


def pnp_refine(
    T_init: Pose,
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
) -> Pose:
    """Minimize the summed squared reprojection error from T_init.

    Damped Gauss-Newton in the local twist with Armijo backtracking, so
    the cost trace is monotone nonincreasing. The loop and its stops are
    solve_pose_chamfer's under the default SolverConfig: a cost at most
    chamfer.COST_TOL or a gradient norm at most chamfer.GRAD_TOL, an
    accepted step that lowers the cost by no more than a CONVERGED_RTOL
    fraction, SolverConfig.max_iters, and a line search that accepts no
    step, which raises Divergence only away from a stationary point. A
    pair index past its set raises ValueError (CorrespondenceSet.gather).
    """
    pixels, points = C.gather(image_set, cloud_set)
    if len(pixels) < 3:
        raise TooFewPoints("refinement needs at least 3 pairs")
    return _refine_from_arrays(T_init, pixels, points, K, SolverConfig())[0]


def _score(T, pixels, points, K, threshold):
    """Inlier mask and summed inlier error of a pose against all pairs."""
    err = _pair_sq_errors(T.R[None], T.t[None], pixels, points, K)[0]
    mask = err <= threshold
    return mask, float(err[mask].sum())


def _local_opt(T, mask, count, pixels, points, K, threshold):
    """LO step for a new best (T, mask, count): one Gauss-Newton refine
    of at most LO_MAX_ITERS iterations on its inliers, taken only if it
    keeps strictly more inliers. A refine that diverges or finds every
    inlier behind the camera keeps the hypothesis."""
    inl = np.flatnonzero(mask)
    try:
        T_lo, _, _ = _refine_from_arrays(
            T, pixels[inl], points[inl], K, SolverConfig(max_iters=LO_MAX_ITERS)
        )
    except (AllPointsBehindCamera, Divergence):
        return T, mask, count
    mask_lo, _ = _score(T_lo, pixels, points, K, threshold)
    count_lo = int(np.count_nonzero(mask_lo))
    return (T_lo, mask_lo, count_lo) if count_lo > count else (T, mask, count)


def pnp_ransac(
    C: CorrespondenceSet,
    image_set: KeypointSet2D,
    cloud_set: KeypointSet3D,
    K: CameraIntrinsics,
    cfg: RansacConfig,
) -> tuple[Pose, np.ndarray]:
    """Consensus pose over correspondences that may contain outliers.

    Hypothesis k draws three pairs by hashing (seed, k) with SplitMix64
    and picking distinct indices by Floyd's algorithm (so any evaluation
    order gives the same hypotheses), solves them by P3P, and counts
    each of up to four poses' inliers under the squared-pixel
    threshold; the pose with the most (the first on ties) is the
    hypothesis, and a sample with no valid pose is skipped. Blocks of
    hypotheses are sampled, fitted and scored at once, starting at
    RANSAC_BLOCK_START and doubling; the best-count update and the
    adaptive stop are then replayed over each block in order of k, so
    the result is the sequential loop's to the bit and fits past the
    stop never count. Each new best is locally optimized in the replay
    by a Gauss-Newton refine of at most LO_MAX_ITERS iterations on its
    inliers, kept only if the inlier count grows, and the adaptive stop
    uses the count it leaves. A best count below MIN_PNP_POINTS raises
    NoConsensus, and fewer than MIN_PNP_POINTS pairs raise TooFewPoints.
    The best pose is then refined to convergence on its inliers; of it
    and its refine, the pose that keeps more inliers (ties broken toward
    lower inlier error, then toward the refine) is returned with its
    mask.
    """
    pixels, points = C.gather(image_set, cloud_set)
    T, mask, _, _ = _ransac_from_arrays(pixels, points, K, cfg)
    return T, mask


def _ransac_from_arrays(pixels, points, K, cfg):
    """pnp_ransac on gathered pairs: (pose, mask, hypotheses consumed,
    degenerate samples skipped), the counts as the in-order loop sees them."""
    n = len(pixels)
    if n < MIN_PNP_POINTS:
        raise TooFewPoints(f"need at least {MIN_PNP_POINTS} correspondences, got {n}")

    best_count = -1
    best_pose = None
    best_mask = None
    consumed = skipped = 0
    k0, size, cap = 0, RANSAC_BLOCK_START, max(1, RANSAC_BLOCK_PAIRS // (4 * n))
    stopped = False
    while k0 < cfg.iterations and not stopped:
        ks = range(k0, min(k0 + min(size, cap), cfg.iterations))
        samples = _samples(cfg.seed, ks, n, P3P_SAMPLE)
        R, t, ok, failed = _fit_block(pixels[samples], points[samples], K)
        # score the valid roots only; each sample keeps its best root,
        # ties to the lower root index, and -1 marks a sample with none
        row = np.cumsum(ok).reshape(ok.shape) - 1
        masks = _pair_sq_errors(R[ok], t[ok], pixels, points, K) <= cfg.threshold
        counts = np.full(ok.shape, -1)
        counts[ok] = np.count_nonzero(masks, axis=1)
        picked = np.arange(len(ks)), counts.argmax(axis=1)
        R, t, row, counts = R[picked], t[picked], row[picked], counts[picked]
        valid = _poses_pass_checks(R, t)
        for j, k in enumerate(ks):
            consumed += 1
            if j in failed:
                raise failed[j]
            if counts[j] < 0:
                skipped += 1
                continue
            if not valid[j]:
                Pose(R[j], t[j])  # raises the constructor's own ValueError
            count = int(counts[j])
            if count > best_count:
                best_pose, best_mask, best_count = _local_opt(
                    Pose._owned(R[j].copy(), t[j].copy()), masks[row[j]], count,
                    pixels, points, K, cfg.threshold,
                )
            # standard adaptive stop: a size-s sample is all-inlier with
            # probability w^s, so after ceil(log(1-conf)/log(1-w^s)) draws
            # the chance of having missed every clean sample drops below
            # 1 - RANSAC_CONFIDENCE
            w = best_count / n
            if w >= 1.0:
                stopped = True
                break
            if w > 0.0:
                miss = np.log1p(-(w**P3P_SAMPLE))
                if miss < 0 and (k + 1) >= np.log1p(-RANSAC_CONFIDENCE) / miss:
                    stopped = True
                    break
        k0, size = ks.stop, 2 * size

    if best_pose is None or best_count < MIN_PNP_POINTS:
        raise NoConsensus(
            f"best consensus {max(best_count, 0)} is below the {MIN_PNP_POINTS}-pair "
            "consensus floor"
        )

    candidates = [best_pose]
    inl = np.flatnonzero(best_mask)
    try:
        candidates.append(
            _refine_from_arrays(best_pose, pixels[inl], points[inl], K, SolverConfig())[0]
        )
    except (AllPointsBehindCamera, Divergence):
        pass

    scored = []
    for rank, T in enumerate(candidates):
        mask, sse = _score(T, pixels, points, K, cfg.threshold)
        scored.append((int(mask.sum()), -sse, rank, T, mask))
    _, _, _, T_best, mask = max(scored, key=lambda row: row[:3])
    return T_best, mask, consumed, skipped
