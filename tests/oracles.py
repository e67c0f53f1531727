"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (matrix
exponentials, scalar loops, brute-force argmins) so that agreement with
the fast library code is meaningful evidence rather than a tautology.
"""

import numpy as np
from scipy.linalg import expm
from scipy.spatial.distance import cdist
from scipy.spatial.transform import Rotation

from mincdpnp import (
    AllPointsBehindCamera,
    ChamferReport,
    Divergence,
    EmptySet,
    KeypointSet3D,
    NoConsensus,
    Pose,
    SolverConfig,
    TooFewPoints,
    feature_distance_matrix,
    project_points,
)
from mincdpnp.chamfer import _minimize, _pair_residuals
from mincdpnp import pnp
from mincdpnp.pnp import LO_MAX_ITERS, MIN_PNP_POINTS, _p3p_batch, _refine_from_arrays


def se3_exp_expm(omega, v):
    """exp of the 4x4 hat matrix via scipy.linalg.expm."""
    hat = np.zeros((4, 4))
    hat[:3, :3] = np.array(
        [
            [0.0, -omega[2], omega[1]],
            [omega[2], 0.0, -omega[0]],
            [-omega[1], omega[0], 0.0],
        ]
    )
    hat[:3, 3] = v
    M = expm(hat)
    return M[:3, :3], M[:3, 3]


def rotation_rotvec(omega):
    """Rotation part only, through scipy's quaternion path."""
    # copy: scipy rejects the read-only arrays our twist type hands out
    return Rotation.from_rotvec(np.array(omega, dtype=float)).as_matrix()


def project_scalar(p, R, t, fu, fv, cu, cv):
    """Pinhole projection done one scalar at a time."""
    x = R[0][0] * p[0] + R[0][1] * p[1] + R[0][2] * p[2] + t[0]
    y = R[1][0] * p[0] + R[1][1] * p[1] + R[1][2] * p[2] + t[1]
    z = R[2][0] * p[0] + R[2][1] * p[1] + R[2][2] * p[2] + t[2]
    return fu * x / z + cu, fv * y / z + cv


def reprojection_error_scalar(q, p, R, t, fu, fv, cu, cv):
    u, v = project_scalar(p, R, t, fu, fv, cu, cv)
    du = q[0] - u
    dv = q[1] - v
    return du * du + dv * dv


def feature_distance_scalar(a, b):
    """L2 distance of the unit-normalized features (a zero vector stays
    zero), with explicit loops and no vectorization."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    na = sum(x * x for x in a) ** 0.5
    nb = sum(x * x for x in b) ** 0.5
    a = [x / na for x in a] if na > 0 else a
    b = [x / nb for x in b] if nb > 0 else b
    return sum((x - y) ** 2 for x, y in zip(a, b)) ** 0.5


def match_pairs_bruteforce(feats2d, feats3d, delta):
    """Exhaustive double loop over all 2D-3D feature pairs."""
    out = []
    for i, fa in enumerate(feats2d):
        for j, fb in enumerate(feats3d):
            d = feature_distance_scalar(fa, fb)
            if d <= delta:
                out.append((i, j, d))
    return out


def numeric_jacobian(f, x, h=1e-6):
    """Central finite differences, one column per coordinate of x."""
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(f(x), dtype=float)
    J = np.zeros(y0.shape + (x.size,))
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        J[..., i] = (np.asarray(f(x + step)) - np.asarray(f(x - step))) / (2.0 * h)
    return J


def kappa_bruteforce(pixels, points, C, R, t, fu, fv, cu, cv, tau, z_min=1e-6):
    """Inlier count over an explicit correspondence matrix, scalar loops."""
    count = 0
    for i in range(len(pixels)):
        for j in range(len(points)):
            if not C[i][j]:
                continue
            x = R[0][0] * points[j][0] + R[0][1] * points[j][1] + R[0][2] * points[j][2] + t[0]
            y = R[1][0] * points[j][0] + R[1][1] * points[j][1] + R[1][2] * points[j][2] + t[1]
            z = R[2][0] * points[j][0] + R[2][1] * points[j][1] + R[2][2] * points[j][2] + t[2]
            if z <= z_min:
                continue
            du = pixels[i][0] - (fu * x / z + cu)
            dv = pixels[i][1] - (fv * y / z + cv)
            if du * du + dv * dv <= tau:
                count += 1
    return count


def _projected(points, R, t, fu, fv, cu, cv, z_min=1e-6):
    out = []
    for p in points:
        x = R[0][0] * p[0] + R[0][1] * p[1] + R[0][2] * p[2] + t[0]
        y = R[1][0] * p[0] + R[1][1] * p[1] + R[1][2] * p[2] + t[1]
        z = R[2][0] * p[0] + R[2][1] * p[1] + R[2][2] * p[2] + t[2]
        if z > z_min:
            out.append((fu * x / z + cu, fv * y / z + cv))
        else:
            out.append(None)
    return out


def kappa_star_bruteforce(pixels, points, R, t, fu, fv, cu, cv, tau, z_min=1e-6):
    """Two-sided relaxed inlier count by exhaustive nearest neighbors."""
    proj = _projected(points, R, t, fu, fv, cu, cv, z_min)
    visible = [uv for uv in proj if uv is not None]
    count = 0
    for q in pixels:
        best = np.inf
        for uv in visible:
            d = (q[0] - uv[0]) ** 2 + (q[1] - uv[1]) ** 2
            best = min(best, d)
        if best <= tau:
            count += 1
    for uv in visible:
        best = np.inf
        for q in pixels:
            d = (q[0] - uv[0]) ** 2 + (q[1] - uv[1]) ** 2
            best = min(best, d)
        if best <= tau:
            count += 1
    return count


def chamfer_cost_bruteforce(pixels, points, R, t, fu, fv, cu, cv, z_min=1e-6):
    """Bidirectional sum of squared nearest-neighbor pixel distances."""
    proj = _projected(points, R, t, fu, fv, cu, cv, z_min)
    visible = [uv for uv in proj if uv is not None]
    if not visible or len(pixels) == 0:
        return None
    fwd = []
    for q in pixels:
        fwd.append(min((q[0] - u) ** 2 + (q[1] - v) ** 2 for u, v in visible))
    bwd = []
    for u, v in visible:
        bwd.append(min((q[0] - u) ** 2 + (q[1] - v) ** 2 for q in pixels))
    return float(np.sum(fwd) + np.sum(bwd))


def chamfer_cost_dense(T, image_set, cloud_set, K):
    """chamfer_cost through the whole N x M cdist matrix and np.argmin,
    whose ties go to the lowest index."""
    if len(image_set) == 0 or len(cloud_set) == 0:
        raise EmptySet("chamfer_cost needs a nonempty pixel set and cloud")
    proj, in_front = project_points(cloud_set.points, T, K)
    if not in_front.any():
        raise AllPointsBehindCamera("no cloud point projects in front of the camera")
    visible_idx = np.flatnonzero(in_front)
    D = cdist(image_set.pixels, proj[visible_idx], metric="sqeuclidean")
    fwd_nearest = np.argmin(D, axis=1)
    forward_terms = D[np.arange(len(image_set)), fwd_nearest]
    bwd_nearest = np.argmin(D, axis=0)
    backward_terms = np.full(len(cloud_set), np.nan)
    backward_terms[visible_idx] = D[bwd_nearest, np.arange(len(visible_idx))]
    bwd_assign = np.full(len(cloud_set), -1, dtype=np.int64)
    bwd_assign[visible_idx] = bwd_nearest
    value = float(forward_terms.sum() + backward_terms[visible_idx].sum())
    assignment = (visible_idx[fwd_nearest], bwd_assign)
    return ChamferReport(value, forward_terms, backward_terms, assignment)


def kappa_star_dense(T, image_set, cloud_set, K, cfg):
    """kappa_star through the whole N x M cdist matrix."""
    if len(image_set) == 0 or len(cloud_set) == 0:
        raise EmptySet("kappa_star needs a nonempty pixel set and cloud")
    proj, in_front = project_points(cloud_set.points, T, K)
    if not in_front.any():
        return 0
    D = cdist(image_set.pixels, proj[in_front], metric="sqeuclidean")
    return int(np.count_nonzero(D.min(axis=1) <= cfg.tau)) + int(
        np.count_nonzero(D.min(axis=0) <= cfg.tau)
    )


def solve_chamfer_dense(T_init, image_set, cloud_set, K, cfg):
    """The Chamfer solve with chamfer_cost_dense at every evaluation and a
    new dense search at every linearization, run on the points moved into
    the current pose's frame. Returns (pose, trace, stop reason)."""

    def residuals(T, _):
        x0 = cloud_set.points @ T.R.T + T.t
        fwd, bwd = chamfer_cost_dense(Pose.identity(), image_set, KeypointSet3D(x0), K).assignment
        visible = np.flatnonzero(bwd >= 0)
        q_idx = np.concatenate([np.arange(len(image_set)), bwd[visible]])
        p_idx = np.concatenate([fwd, visible])
        return _pair_residuals(image_set.pixels[q_idx], x0[p_idx], K)

    return _minimize(
        lambda T: (chamfer_cost_dense(T, image_set, cloud_set, K).value, None),
        residuals, T_init, cfg,
    )


def nearest_match_bruteforce(feats2d, feats3d):
    """Per-query argmin over all 3D features; ties keep the lowest index."""
    out = []
    for fa in feats2d:
        best_j, best_s = 0, np.inf
        for j, fb in enumerate(feats3d):
            s = feature_distance_scalar(fa, fb)
            if s < best_s:
                best_j, best_s = j, s
        out.append((best_j, best_s))
    return out


def nearest_features_dense(feats2d, feats3d):
    """The whole N x M feature_distance_matrix, then np.argmin per row."""
    D = feature_distance_matrix(feats2d, feats3d)
    best = np.argmin(D, axis=1)
    return best, D[np.arange(len(D)), best]


class DenseCorrectness:
    """The reprojection check through a full N x M squared-distance matrix:
    cdist over the points in front of the camera, +inf behind it."""

    def __init__(self, image_set, cloud_set, T_gt, K, pixel_threshold=3.0):
        proj, in_front = project_points(cloud_set.points, T_gt, K)
        self.sq = np.full((len(image_set), len(cloud_set)), np.inf)
        if in_front.any():
            self.sq[:, in_front] = cdist(
                image_set.pixels, proj[in_front], metric="sqeuclidean"
            )
        self.threshold_px = pixel_threshold

    def pair_ok(self, q_idx, cloud_idx):
        return bool(self.sq[q_idx, cloud_idx] <= self.threshold_px**2)

    @property
    def q_with_partner(self):
        return np.flatnonzero((self.sq <= self.threshold_px**2).any(axis=1))


def evaluate_selection_dense(image_set, cloud_set, T_gt, K, s_th):
    """Keypoint selection from the dense argmin, graded by DenseCorrectness.

    Returns (cloud indices, source 2D indices, scores, precision, recall)
    with the selection rule of select_3d_keypoints written out.
    """
    best, score = nearest_features_dense(image_set.features, cloud_set.features)
    keep = {}
    for q in range(len(image_set)):
        if score[q] > s_th:
            continue
        j = int(best[q])
        if j not in keep or (float(score[q]), q) < keep[j]:
            keep[j] = (float(score[q]), q)
    cloud_idx = np.array(sorted(keep), dtype=np.int64)
    sources = np.array([keep[j][1] for j in cloud_idx], dtype=np.int64)
    scores = np.array([keep[j][0] for j in cloud_idx])
    gt = DenseCorrectness(image_set, cloud_set, T_gt, K)
    gt_q = set(gt.q_with_partner.tolist())
    ok = [gt.pair_ok(q, j) for q, j in zip(sources, cloud_idx)]
    precision = float(sum(ok) / len(ok)) if ok else 0.0
    recovered = {int(q) for q, hit in zip(sources, ok) if hit} & gt_q
    recall = float(len(recovered) / len(gt_q))
    return cloud_idx, sources, scores, precision, recall


def save_matrix_csv_scalar(path, matrix):
    """One repr(float(x)) per value, one line per row; None writes nothing."""
    with open(path, "w") as fh:
        if matrix is None:
            return
        for row in np.atleast_2d(matrix):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def select_keypoints_bruteforce(feats2d, feats3d, s_th):
    """Exhaustive confident-match filter with keep-best deduplication.

    Returns {cloud index: (score, query index)} so tests can compare
    whole selections as dictionaries.
    """
    keep = {}
    for q, (j, s) in enumerate(nearest_match_bruteforce(feats2d, feats3d)):
        if s > s_th:
            continue
        if j not in keep or (s, q) < keep[j]:
            keep[j] = (s, q)
    return keep


def key_loss_flags_bruteforce(
    pixels, feats2d, points, feats3d, R, t, fu, fv, cu, cv, tau, s_th, z_min=1e-6,
):
    """Per-query confident and correct flags, one scalar pair at a time."""
    matches = nearest_match_bruteforce(feats2d, feats3d)
    confident, correct = [], []
    for q_idx, (j, s) in enumerate(matches):
        confident.append(s <= s_th)
        p = points[j]
        z = R[2][0] * p[0] + R[2][1] * p[1] + R[2][2] * p[2] + t[2]
        if z <= z_min:
            correct.append(False)
            continue
        err = reprojection_error_scalar(
            pixels[q_idx], p, R, t, fu, fv, cu, cv
        )
        correct.append(err <= tau)
    return confident, correct


def inlier_ratio_bruteforce(
    pixels, depth, points, idx2d, idx3d, R, t, fu, fv, cu, cv, threshold_m
):
    """Back-projection inlier ratio with explicit per-pair arithmetic."""
    hits = 0
    for i, j in zip(idx2d, idx3d):
        u, v = pixels[i]
        d = depth[i]
        cam = [d * (u - cu) / fu, d * (v - cv) / fv, d]
        # inverse rigid transform, written out
        rel = [cam[0] - t[0], cam[1] - t[1], cam[2] - t[2]]
        world = [
            R[0][0] * rel[0] + R[1][0] * rel[1] + R[2][0] * rel[2],
            R[0][1] * rel[0] + R[1][1] * rel[1] + R[2][1] * rel[2],
            R[0][2] * rel[0] + R[1][2] * rel[1] + R[2][2] * rel[2],
        ]
        p = points[j]
        dist = (
            (world[0] - p[0]) ** 2 + (world[1] - p[1]) ** 2 + (world[2] - p[2]) ** 2
        ) ** 0.5
        if dist <= threshold_m:
            hits += 1
    return hits / len(idx2d)


def linear_pnp_full_svd(pixels, points, fu, fv, cu, cv):
    """Linear PnP with the system built row by row and the full SVD.

    np.linalg.svd's default full_matrices=True also builds the 2n x 2n
    left factor. The nullspace vector gives the 3x4 projection matrix;
    its sign is fixed so most depths come out positive, and its left
    block is projected onto SO(3), whose mean singular value sets the
    scale. Returns (R, t).
    """
    rows = []
    for (u, v), X in zip(pixels, points):
        xn = (u - cu) / fu
        yn = (v - cv) / fv
        Xh = [X[0], X[1], X[2], 1.0]
        rows.append(Xh + [0.0] * 4 + [-xn * c for c in Xh])
        rows.append([0.0] * 4 + Xh + [-yn * c for c in Xh])
    _, _, Vt = np.linalg.svd(np.array(rows))
    G = Vt[-1].reshape(3, 4)
    positive = sum(1 for X in points if G[2, :3] @ X + G[2, 3] > 0)
    if positive * 2 < len(points):
        G = -G
    U, S, Wt = np.linalg.svd(G[:, :3])
    d = np.sign(np.linalg.det(U @ Wt))
    R = U @ np.diag([1.0, 1.0, d]) @ Wt
    return R, G[:, 3] / (S.sum() / 3.0)


def _splitmix64_scalar(z):
    """SplitMix64's finalizer on one Python int, kept to 64 bits by hand."""
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def ransac_sample_scalar(seed, k, n, s):
    """Hypothesis k's minimal sample, one Python int at a time.

    The key is mix(mix(seed) ^ k); draw i is mix(key + (i + 1) * gamma)
    modulo 2^64. Floyd's algorithm: for j = n - s .. n - 1 take
    draw % (j + 1) unless it is already in the sample, else take j.
    """
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    key = _splitmix64_scalar(_splitmix64_scalar(int(seed) & mask) ^ k)
    sample = []
    for i, j in enumerate(range(n - s, n)):
        r = _splitmix64_scalar((key + (i + 1) * gamma) & mask) % (j + 1)
        sample.append(j if r in sample else r)
    return sample


def _score_sequential(T, pixels, points, K, threshold):
    """Inlier mask and summed inlier error of one pose, through project_points."""
    proj, in_front = project_points(points, T, K)
    err = np.full(len(pixels), np.inf)
    d = pixels[in_front] - proj[in_front]
    err[in_front] = np.einsum("nd,nd->n", d, d)
    mask = err <= threshold
    return mask, float(err[mask].sum())


def _p3p_hypothesis_sequential(pixels, points, sample, K, threshold):
    """One P3P hypothesis as a stack of one: every valid root scored
    through project_points, the first with the most inliers kept.
    Returns (pose, mask, count), or None when no root is valid."""
    R, t, ok = _p3p_batch(pixels[sample][None], points[sample][None], K)
    best = None
    for r in range(R.shape[1]):
        if not ok[0, r]:
            continue
        T = Pose(R[0, r], t[0, r], check=False)
        mask, _ = _score_sequential(T, pixels, points, K, threshold)
        count = int(mask.sum())
        if best is None or count > best[2]:
            best = (r, mask, count)
    if best is None:
        return None
    r, mask, count = best
    return Pose(R[0, r], t[0, r]), mask, count


def pnp_ransac_sequential(C, image_set, cloud_set, K, cfg):
    """RANSAC-PnP one hypothesis at a time, in order of k.

    Draw, P3P fit, score, best-count update with its LO refine and
    adaptive stop run for hypothesis k before hypothesis k + 1 is drawn.
    Returns (pose, mask, hypotheses consumed, degenerate samples skipped).
    """
    pixels = image_set.pixels[C.idx2d]
    points = cloud_set.points[C.idx3d]
    n = len(pixels)
    if n < MIN_PNP_POINTS:
        raise TooFewPoints(f"need at least {MIN_PNP_POINTS} correspondences, got {n}")

    best_count = -1
    best_pose = None
    best_mask = None
    consumed = skipped = 0
    for k in range(cfg.iterations):
        consumed += 1
        sample = ransac_sample_scalar(cfg.seed, k, n, 3)
        hypothesis = _p3p_hypothesis_sequential(pixels, points, sample, K, cfg.threshold)
        if hypothesis is None:
            skipped += 1
            continue
        T_k, mask, count = hypothesis
        if count > best_count:
            best_count, best_pose, best_mask = count, T_k, mask
            inl = np.flatnonzero(mask)
            try:
                T_lo = _refine_from_arrays(
                    T_k, pixels[inl], points[inl], K, SolverConfig(max_iters=LO_MAX_ITERS)
                )[0]
                mask_lo, _ = _score_sequential(T_lo, pixels, points, K, cfg.threshold)
            except (AllPointsBehindCamera, Divergence):
                mask_lo = mask
            if mask_lo.sum() > best_count:
                best_count, best_pose, best_mask = int(mask_lo.sum()), T_lo, mask_lo
        w = best_count / n
        if w >= 1.0:
            break
        if w > 0.0:
            miss = np.log1p(-(w**3))
            if miss < 0 and (k + 1) >= np.log1p(-pnp.RANSAC_CONFIDENCE) / miss:
                break

    if best_pose is None or best_count < MIN_PNP_POINTS:
        raise NoConsensus(
            f"best consensus {max(best_count, 0)} is below the {MIN_PNP_POINTS}-pair floor"
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
        mask, sse = _score_sequential(T, pixels, points, K, cfg.threshold)
        scored.append((int(mask.sum()), -sse, rank, T, mask))
    _, _, _, T_best, mask = max(scored, key=lambda row: row[:3])
    return T_best, mask, consumed, skipped
