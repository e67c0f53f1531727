import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincdpnp import (
    AllPointsBehindCamera,
    CameraIntrinsics,
    CorrespondenceSet,
    Divergence,
    KeypointSet2D,
    KeypointSet3D,
    MatchConfig,
    NoConsensus,
    NoiseSpec,
    Pose,
    RansacConfig,
    SolverConfig,
    TooFewPoints,
    generate_scene,
    match_scene,
    perturb_pose,
    pnp_ransac,
    pnp_refine,
    pose_difference,
    project_points,
    registration_success,
    reprojection_cost,
    reprojection_grad_twist,
    se3_exp,
)
from mincdpnp.geometry import Z_MIN
from mincdpnp.synth import DEFAULT_INTRINSICS, random_pose

from mincdpnp import chamfer, pnp
from mincdpnp.pnp import _local_opt, _p3p_batch, _ransac_from_arrays, _refine_from_arrays, _samples

from oracles import (
    linear_pnp_full_svd,
    numeric_jacobian,
    p3p_batch_all_roots,
    pnp_ransac_sequential,
    ransac_sample_scalar,
    reprojection_error_scalar,
)


def scene_instance(seed, n=30, **noise):
    s = generate_scene(n, noise=NoiseSpec(seed=seed, **noise))
    return s, s.gt_pairs


def linear_start(s, C):
    """The linear PnP oracle's pose from scene s's pairs C: a refine start."""
    R, t = linear_pnp_full_svd(
        s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d], s.K.fu, s.K.fv, s.K.cu, s.K.cv
    )
    return Pose(R, t)


def pool_scene(seed):
    """Scene `seed` of the pnp-n1000 benchmark pool and its matches."""
    noise = NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.5)
    s = generate_scene(1000, noise=noise)
    return s, match_scene(s, MatchConfig(delta=2.0))


class TestReprojectionCost:
    def test_matches_scalar_sum(self):
        rng = np.random.default_rng(11)
        s, C = scene_instance(11, pixel_noise_sigma=1.0)
        T = s.T_gt
        got = reprojection_cost(T, C, s.pixels, s.cloud, s.K)
        want = 0.0
        for i, j in zip(C.idx2d, C.idx3d):
            want += reprojection_error_scalar(
                s.pixels.pixels[i],
                s.cloud.points[j],
                T.R,
                T.t,
                s.K.fu,
                s.K.fv,
                s.K.cu,
                s.K.cv,
            )
        assert got == pytest.approx(want, rel=1e-12)

    def test_pairs_partly_behind_cost_their_in_front_part(self):
        # the masked path against the all-in-front path on the pairs in
        # front alone, for the cost and its gradient
        s, C = scene_instance(17, n=60, pixel_noise_sigma=1.0)
        depth = s.T_gt.apply(s.cloud.points)[:, 2]
        T = Pose(np.eye(3), [0.0, 0.0, -float(np.median(depth))]).compose(s.T_gt)
        _, in_front = project_points(C.gather(s.pixels, s.cloud)[1], T, s.K)
        assert 0 < np.count_nonzero(in_front) < len(C)
        front = CorrespondenceSet(C.idx2d[in_front], C.idx3d[in_front])
        got = reprojection_cost(T, C, s.pixels, s.cloud, s.K)
        assert got.hex() == reprojection_cost(T, front, s.pixels, s.cloud, s.K).hex()
        grad = reprojection_grad_twist(T, C, s.pixels, s.cloud, s.K)
        assert grad.tobytes() == reprojection_grad_twist(T, front, s.pixels, s.cloud, s.K).tobytes()
        want = sum(
            reprojection_error_scalar(
                s.pixels.pixels[i], s.cloud.points[j], T.R, T.t, s.K.fu, s.K.fv, s.K.cu, s.K.cv
            )
            for i, j in zip(front.idx2d, front.idx3d)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_pair_in_front_raises(self):
        # every pair behind the camera, or no pair at all
        s, C = scene_instance(19)
        behind = Pose(np.eye(3), [0.0, 0.0, -1e3]).compose(s.T_gt)
        for T, pairs in ((behind, C), (s.T_gt, CorrespondenceSet([], []))):
            for f in (reprojection_cost, reprojection_grad_twist):
                with pytest.raises(AllPointsBehindCamera):
                    f(T, pairs, s.pixels, s.cloud, s.K)

    def test_zero_at_ground_truth_noiseless(self):
        s, C = scene_instance(13)
        assert reprojection_cost(s.T_gt, C, s.pixels, s.cloud, s.K) == 0.0

    def test_index_out_of_range(self):
        s, _ = scene_instance(7, n=8)
        bad = CorrespondenceSet(np.arange(8), np.arange(8) + 5)
        with pytest.raises(ValueError, match="3D index 12 out of range"):
            reprojection_cost(s.T_gt, bad, s.pixels, s.cloud, s.K)
        with pytest.raises(ValueError, match="3D index 12 out of range"):
            pnp_refine(s.T_gt, bad, s.pixels, s.cloud, s.K)


class TestGradTwist:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for seed in range(30):
            s, C = scene_instance(seed, n=20)
            xi0 = np.concatenate(
                [rng.uniform(-0.05, 0.05, 3), rng.uniform(-0.02, 0.02, 3)]
            )
            # the gradient at xi = 0 around a pose off the truth
            T0 = se3_exp(xi0).compose(s.T_gt)

            def cost_at(xi_vec):
                T = se3_exp(xi_vec).compose(T0)
                return reprojection_cost(T, C, s.pixels, s.cloud, s.K)

            got = reprojection_grad_twist(T0, C, s.pixels, s.cloud, s.K)
            want = numeric_jacobian(cost_at, np.zeros(6), h=1e-6)
            rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)
            worst = max(worst, rel)
        assert worst <= 1e-5


class TestPnpRefine:
    def test_ground_truth_start_unchanged(self):
        s, C = scene_instance(19)
        T = pnp_refine(s.T_gt, C, s.pixels, s.cloud, s.K)
        rot, trans = pose_difference(T, s.T_gt)
        assert rot <= 1e-10
        assert trans <= 1e-10

    def test_noisy_rms_within_two_sigma(self):
        sigma = 0.5
        for seed in range(50):
            s = generate_scene(
                100, noise=NoiseSpec(seed=seed, pixel_noise_sigma=sigma)
            )
            C = s.gt_pairs
            T0 = linear_start(s, C)
            T = pnp_refine(T0, C, s.pixels, s.cloud, s.K)
            rms = np.sqrt(reprojection_cost(T, C, s.pixels, s.cloud, s.K) / len(C))
            assert rms <= 2 * sigma

    def test_trace_monotone_nonincreasing(self):
        for seed in range(5):
            s = generate_scene(40, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0))
            T0 = perturb_pose(s.T_gt, rot_deg=5.0, trans_m=0.1, seed=seed)
            pixels, points = s.gt_pairs.gather(s.pixels, s.cloud)
            _, rows, _ = _refine_from_arrays(T0, pixels, points, s.K, SolverConfig())
            costs = [r.cost for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
            assert len(rows) >= 2
            # only the last accepted step may leave the cost where it was
            for prev, row in zip(rows, rows[1:-1]):
                if row.step_size > 0:
                    assert row.cost < prev.cost

    def test_the_refine_steps_along_the_public_gradient(self, monkeypatch):
        # the first gradient the refine steps along is reprojection_grad_twist
        # at the start, bit for bit, so grad-check audits the stepped gradient
        gradient, stepped = chamfer._gradient, []

        def recorded(*args):
            out = gradient(*args)
            stepped.append(out[0])
            return out

        for seed in range(4):
            s = generate_scene(40, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0))
            T0 = perturb_pose(s.T_gt, rot_deg=5.0, trans_m=0.1, seed=seed)
            pixels, points = s.gt_pairs.gather(s.pixels, s.cloud)
            stepped.clear()
            with monkeypatch.context() as mp:
                mp.setattr(chamfer, "_gradient", recorded)
                _refine_from_arrays(T0, pixels, points, s.K, SolverConfig(max_iters=3))
            want = reprojection_grad_twist(T0, s.gt_pairs, s.pixels, s.cloud, s.K)
            assert stepped[0].tobytes() == want.tobytes()

    def test_noisy_refine_converges_within_ten_iterations(self):
        for seed in range(10):
            s = generate_scene(100, noise=NoiseSpec(seed=seed, pixel_noise_sigma=0.5))
            C = s.gt_pairs
            T0 = linear_start(s, C)
            _, rows, reason = _refine_from_arrays(
                T0, s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d], s.K,
                SolverConfig(),
            )
            assert reason == "converged"
            assert rows[-1].iteration <= 10

    def test_clean_refine_stops_at_cost_tol_on_the_truth(self):
        for seed in range(5):
            s = generate_scene(100, noise=NoiseSpec(seed=seed))
            C = s.gt_pairs
            T0 = perturb_pose(s.T_gt, rot_deg=5.0, trans_m=0.1, seed=2000 + seed)
            T, _, reason = _refine_from_arrays(
                T0, s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d], s.K,
                SolverConfig(),
            )
            assert reason == "cost_tol"
            np.testing.assert_allclose(T.R, s.T_gt.R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(T.t, s.T_gt.t, rtol=0, atol=1e-9)

    def test_too_few_pairs(self):
        s, _ = scene_instance(29, n=6)
        C = CorrespondenceSet([0, 1], [0, 1])
        with pytest.raises(TooFewPoints):
            pnp_refine(Pose.identity(), C, s.pixels, s.cloud, s.K)


class TestPnpRansac:
    def test_no_outliers_mask_all_true(self):
        s, C = scene_instance(31)
        cfg = RansacConfig(seed=0, iterations=100)
        T, mask = pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)
        assert mask.all()
        T_ref = pnp_refine(linear_start(s, C), C, s.pixels, s.cloud, s.K)
        rot, trans = pose_difference(T, T_ref)
        assert rot <= 1e-6
        assert trans <= 1e-8

    def test_half_outliers_recovers_pose(self):
        for seed in range(10):
            s = generate_scene(200, noise=NoiseSpec(seed=seed, outlier_rate=0.5))
            C = s.pairs_with_outliers()
            T, mask = pnp_ransac(C, s.pixels, s.cloud, s.K, RansacConfig(seed=seed))
            rot, trans = pose_difference(T, s.T_gt)
            assert rot <= 0.5
            assert trans <= 5e-3
            # the genuine pairs should dominate the consensus set
            assert mask.sum() >= 100

    def test_mask_consistent_with_returned_pose(self):
        for seed in range(5):
            s = generate_scene(
                120,
                noise=NoiseSpec(seed=seed, outlier_rate=0.3, pixel_noise_sigma=0.3),
            )
            C = s.pairs_with_outliers()
            cfg = RansacConfig(seed=seed)
            T, mask = pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)
            proj, in_front = project_points(s.cloud.points, T, s.K)
            pix = s.pixels.pixels[C.idx2d]
            err = np.full(len(C), np.inf)
            ok = in_front[C.idx3d]
            d = pix[ok] - proj[C.idx3d[ok]]
            err[ok] = np.einsum("nd,nd->n", d, d)
            assert (err[mask] <= cfg.threshold).all()

    def test_consensus_at_least_any_explored_hypothesis(self, monkeypatch):
        s = generate_scene(150, noise=NoiseSpec(seed=41, outlier_rate=0.4))
        C = s.pairs_with_outliers()
        # confidence close to 1 disables early exit so every iteration
        # is explored and can be replayed here
        monkeypatch.setattr(pnp, "RANSAC_CONFIDENCE", 1 - 1e-12)
        cfg = RansacConfig(seed=41, iterations=40)
        T, mask = pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)
        pix = s.pixels.pixels[C.idx2d]
        pts = s.cloud.points[C.idx3d]
        best_explored = 0
        for k in range(cfg.iterations):
            sample = ransac_sample_scalar(cfg.seed, k, len(C), pnp.P3P_SAMPLE)
            R, t, ok = _p3p_batch(pix[sample][None], pts[sample][None], s.K)
            for r in np.flatnonzero(ok[0]):
                proj, in_front = project_points(pts, Pose(R[0, r], t[0, r]), s.K)
                err = np.full(len(C), np.inf)
                d = pix[in_front] - proj[in_front]
                err[in_front] = np.einsum("nd,nd->n", d, d)
                best_explored = max(best_explored, int((err <= cfg.threshold).sum()))
        assert mask.sum() >= best_explored

    def test_pool_recipe_scenes_that_had_no_consensus(self):
        # pnp-n1000 recipe scenes where 6-point DLT samples found no
        # consensus of six within the 1000-hypothesis budget
        for seed in (176, 316, 328):
            s, C = pool_scene(seed)
            T, mask = pnp_ransac(C, s.pixels, s.cloud, s.K, RansacConfig(seed=seed))
            assert mask.sum() >= pnp.MIN_PNP_POINTS
            assert registration_success(T, s)[1]

    def test_identical_seeds_identical_output(self):
        s = generate_scene(80, noise=NoiseSpec(seed=43, outlier_rate=0.25))
        C = s.pairs_with_outliers()
        cfg = RansacConfig(seed=7)
        T1, m1 = pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)
        T2, m2 = pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)
        assert T1.R.tobytes() == T2.R.tobytes()
        assert T1.t.tobytes() == T2.t.tobytes()
        assert np.array_equal(m1, m2)

    def test_different_seeds_allowed_to_differ(self):
        s = generate_scene(80, noise=NoiseSpec(seed=47, outlier_rate=0.25))
        C = s.pairs_with_outliers()
        T1, _ = pnp_ransac(C, s.pixels, s.cloud, s.K, RansacConfig(seed=1))
        T2, _ = pnp_ransac(C, s.pixels, s.cloud, s.K, RansacConfig(seed=2))
        # both near the truth even if their consensus paths differ
        for T in (T1, T2):
            rot, _ = pose_difference(T, s.T_gt)
            assert rot <= 0.5

    def test_garbage_pairs_no_consensus(self):
        rng = np.random.default_rng(53)
        kp2d = KeypointSet2D(rng.uniform(0, 640, size=(12, 2)))
        kp3d = KeypointSet3D(rng.normal(size=(12, 3)) + [0, 0, 5.0])
        C = CorrespondenceSet(np.arange(12), np.arange(12))
        K = CameraIntrinsics(585.0, 585.0, 320.0, 240.0)
        cfg = RansacConfig(seed=0, iterations=50, threshold=1e-6)
        with pytest.raises(NoConsensus):
            pnp_ransac(C, kp2d, kp3d, K, cfg)

    def test_too_few_pairs(self):
        s, _ = scene_instance(59, n=6)
        for n in (4, pnp.MIN_PNP_POINTS - 1):
            C = CorrespondenceSet(np.arange(n), np.arange(n))
            with pytest.raises(TooFewPoints):
                pnp_ransac(C, s.pixels, s.cloud, s.K, RansacConfig(seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(seed=-1)
        with pytest.raises(ValueError):
            RansacConfig(seed=0, iterations=0)
        with pytest.raises(ValueError):
            RansacConfig(seed=0, threshold=0.0)

    @pytest.mark.parametrize("field", ["seed", "iterations"])
    @pytest.mark.parametrize("value", [0.5, 2.5, 3.0, np.float64(3.0), "3", None])
    def test_config_refuses_a_non_integer_count_or_seed(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a.* integer"):
            RansacConfig(**{"seed": 0, field: value})

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint64(3), np.int32(3)])
    def test_config_takes_python_and_numpy_integers(self, value):
        cfg = RansacConfig(seed=value, iterations=value)
        assert cfg.seed == 3 and cfg.iterations == 3


def blocked_and_sequential(C, image_set, cloud_set, K, cfg):
    """Both loops' results, or the class of what each raised."""
    pixels, points = image_set.pixels[C.idx2d], cloud_set.points[C.idx3d]
    out = []
    for run in (
        lambda: _ransac_from_arrays(pixels, points, K, cfg),
        lambda: pnp_ransac_sequential(C, image_set, cloud_set, K, cfg),
    ):
        try:
            out.append(run())
        except Exception as exc:  # compared by class below
            out.append(type(exc))
    return out


def assert_bit_identical(blocked, sequential):
    if isinstance(sequential, type):
        assert blocked is sequential
        return
    (T, mask, consumed, skipped), (T_o, mask_o, consumed_o, skipped_o) = blocked, sequential
    assert T.R.tobytes() == T_o.R.tobytes()
    assert T.t.tobytes() == T_o.t.tobytes()
    assert np.array_equal(mask, mask_o)
    assert (consumed, skipped) == (consumed_o, skipped_o)


class TestRansacBlocks:
    """The blocked loop against the one-hypothesis-at-a-time oracle."""

    def test_half_outlier_scenes_match_the_sequential_loop(self):
        for seed in range(10):
            s = generate_scene(200, noise=NoiseSpec(seed, outlier_rate=0.5))
            cfg = RansacConfig(seed=seed)
            got = blocked_and_sequential(s.pairs_with_outliers(), s.pixels, s.cloud, s.K, cfg)
            assert_bit_identical(*got)

    def test_early_stop_inside_a_block_matches(self):
        for seed in range(5):
            s = generate_scene(200, noise=NoiseSpec(seed, outlier_rate=0.2))
            cfg = RansacConfig(seed=seed)
            got = blocked_and_sequential(s.pairs_with_outliers(), s.pixels, s.cloud, s.K, cfg)
            assert_bit_identical(*got)
            # the adaptive stop fired before the budget, so fits past it were wasted
            assert got[1][2] < cfg.iterations

    def test_iteration_budgets_across_block_boundaries(self):
        s = generate_scene(200, noise=NoiseSpec(3, outlier_rate=0.5))
        C = s.pairs_with_outliers()
        for iterations in (1, 7, 8, 9, 40, 1000):
            cfg = RansacConfig(seed=3, iterations=iterations)
            got = blocked_and_sequential(C, s.pixels, s.cloud, s.K, cfg)
            assert_bit_identical(*got)
            if iterations <= 40 and not isinstance(got[1], type):
                assert got[1][2] == iterations

    def test_benchmark_scenes_match(self):
        # the first scenes of the pnp-n1000 benchmark pool, then
        # pnp-n1000-recipe seeds that once ended in NoConsensus
        for seed in (0, 1, 2, 176, 316, 328, 3000013):
            s, C = pool_scene(seed)
            cfg = RansacConfig(seed=seed)
            got = blocked_and_sequential(C, s.pixels, s.cloud, s.K, cfg)
            assert_bit_identical(*got)
            # P3P samples and the LO step stop the loop near the w^3 bound
            assert got[0][2] < 100

    def test_no_consensus_matches(self):
        rng = np.random.default_rng(53)
        kp2d = KeypointSet2D(rng.uniform(0, 640, size=(12, 2)))
        kp3d = KeypointSet3D(rng.normal(size=(12, 3)) + [0, 0, 5.0])
        C = CorrespondenceSet(np.arange(12), np.arange(12))
        K = CameraIntrinsics(585.0, 585.0, 320.0, 240.0)
        cfg = RansacConfig(seed=0, iterations=50, threshold=1e-6)
        got = blocked_and_sequential(C, kp2d, kp3d, K, cfg)
        assert got == [NoConsensus, NoConsensus]

    def test_duplicated_points_give_the_same_degenerate_skips(self, monkeypatch):
        # every cloud point appears three times, paired with the same
        # pixel, so a 3-sample that draws two copies of one point has no
        # P3P root
        s = generate_scene(20, noise=NoiseSpec(seed=67, outlier_rate=0.4))
        pairs = s.pairs_with_outliers()
        idx = np.tile(np.arange(len(pairs)), 3)
        kp3d = KeypointSet3D(s.cloud.points[pairs.idx3d][idx])
        C = CorrespondenceSet(pairs.idx2d[idx], np.arange(len(idx)))
        # a sample with a root fits its own three pairs and their copies,
        # nine consensus pairs, so only a run whose every draw is skipped
        # finds none: seed 4 finds one in 60 draws, seed 32 skips all 3
        monkeypatch.setattr(pnp, "RANSAC_CONFIDENCE", 1 - 1e-12)
        for seed, iterations, found in ((4, 60, True), (32, 3, False)):
            cfg = RansacConfig(seed=seed, iterations=iterations)
            blocked, sequential = blocked_and_sequential(C, s.pixels, kp3d, s.K, cfg)
            assert_bit_identical(blocked, sequential)
            if found:
                assert blocked[3] > 0
            else:
                assert blocked is NoConsensus

    def _corrupt_rotation_of(self, monkeypatch, bad_k):
        """Make every root of hypothesis bad_k fail Pose's orthonormality check."""
        real, offset = pnp._p3p_batch, [0]

        def p3p_batch(pixels, points, K):
            R, t, ok = real(pixels, points, K)
            k0, offset[0] = offset[0], offset[0] + len(R)
            if k0 <= bad_k < k0 + len(R):
                R = R.copy()
                R[bad_k - k0] *= 2.0
            return R, t, ok

        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)

    def test_invalid_pose_raises_only_when_the_loop_reaches_it(self, monkeypatch):
        s = generate_scene(200, noise=NoiseSpec(0, outlier_rate=0.2))
        C = s.pairs_with_outliers()
        cfg = RansacConfig(seed=0)
        T, mask, consumed, skipped = pnp_ransac_sequential(C, s.pixels, s.cloud, s.K, cfg)
        # the stop leaves the rest of its block fitted but unread
        assert skipped == 0 and consumed % pnp.RANSAC_BLOCK_START != 0
        self._corrupt_rotation_of(monkeypatch, consumed)
        T_late, mask_late = pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)
        assert T_late.R.tobytes() == T.R.tobytes() and np.array_equal(mask_late, mask)
        self._corrupt_rotation_of(monkeypatch, consumed - 1)
        with pytest.raises(ValueError, match="orthonormal"):
            pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)

    def _fail_stacked_fits_with(self, monkeypatch, C, s, cfg, bad_k):
        """Make every _p3p_batch call whose stack holds hypothesis bad_k's
        sample raise LinAlgError, as a failed eigvals or SVD would. The
        returned list records the size of each stack."""
        points = s.cloud.points[C.idx3d]
        sample = ransac_sample_scalar(cfg.seed, bad_k, len(points), pnp.P3P_SAMPLE)
        bad, real, stacks = points[sample], pnp._p3p_batch, []

        def p3p_batch(pixels, pts, K):
            stacks.append(len(pts))
            if (pts == bad).all(axis=(1, 2)).any():
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(pixels, pts, K)

        monkeypatch.setattr(pnp, "_p3p_batch", p3p_batch)
        return stacks

    def test_failed_stacked_svd_past_the_stop_is_contained(self, monkeypatch):
        s = generate_scene(200, noise=NoiseSpec(0, outlier_rate=0.2))
        C = s.pairs_with_outliers()
        cfg = RansacConfig(seed=0)
        want = pnp_ransac_sequential(C, s.pixels, s.cloud, s.K, cfg)
        consumed = want[2]
        assert consumed % pnp.RANSAC_BLOCK_START != 0  # the stop is inside a block
        stacks = self._fail_stacked_fits_with(monkeypatch, C, s, cfg, consumed)
        pixels, points = s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d]
        assert_bit_identical(_ransac_from_arrays(pixels, points, s.K, cfg), want)
        # the failed block was refit one hypothesis at a time
        assert stacks.count(1) >= 2

    def test_failed_svd_the_loop_reaches_raises(self, monkeypatch):
        s = generate_scene(200, noise=NoiseSpec(0, outlier_rate=0.2))
        C = s.pairs_with_outliers()
        cfg = RansacConfig(seed=0)
        consumed = pnp_ransac_sequential(C, s.pixels, s.cloud, s.K, cfg)[2]
        self._fail_stacked_fits_with(monkeypatch, C, s, cfg, consumed - 1)
        with pytest.raises(np.linalg.LinAlgError):
            pnp_ransac(C, s.pixels, s.cloud, s.K, cfg)


@st.composite
def ransac_instances(draw):
    """(C, image set, cloud, K, cfg): n pairs at a random pose, each an
    inlier (0.5 px noise), an outlier (a random pixel), or a true pair
    whose point is moved behind the camera, to Z_MIN or below: mirrored
    through the camera centre (on its pixel's ray), or given the x and y
    it has at depth 1 (on the ray if its depth were read as 1). The
    iteration budget is at, just before or just past a block boundary."""
    n = draw(st.integers(6, 300))
    outlier_rate = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]))
    behind_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    iterations = draw(st.sampled_from([1, 7, 8, 9, 24, 25, 56, 57, 110, 121, 300, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = random_pose(rng)
    cam = np.column_stack([rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(0.5, 8.0, n)])
    pixels = project_points(cam, Pose.identity(), DEFAULT_INTRINSICS)[0]
    pixels += rng.normal(scale=0.5, size=pixels.shape)
    outlier = rng.uniform(size=n) < outlier_rate
    behind = ~outlier & (rng.uniform(size=n) < behind_rate)
    pixels[outlier] = rng.uniform([0.0, 0.0], [640.0, 480.0], size=(outlier.sum(), 2))
    cam[behind] *= -1.0
    flat = behind & (rng.uniform(size=n) < 0.5)
    cam[flat, :2] /= cam[flat, 2:]
    cam[flat, 2] = rng.choice([Z_MIN, 0.0, -1.0], size=flat.sum())
    points = T.inverse().apply(cam)
    cfg = RansacConfig(seed=draw(st.integers(0, 2**64 - 1)), iterations=iterations)
    C = CorrespondenceSet(np.arange(n), np.arange(n))
    return C, KeypointSet2D(pixels), KeypointSet3D(points), DEFAULT_INTRINSICS, cfg


class TestRansacProperties:
    """The blocked loop against the sequential one on drawn instances."""

    @given(ransac_instances())
    @settings(max_examples=40, deadline=None)
    def test_blocked_loop_is_the_sequential_loop(self, instance):
        assert_bit_identical(*blocked_and_sequential(*instance))


class TestRansacSamples:
    """_samples against the scalar hash-and-Floyd oracle, and its draws."""

    # s > n is no sample, so (6, 8) and (7, 8) are left out
    @pytest.mark.parametrize("n, s", [
        (3, 3), (6, 3), (6, 6), (7, 6), (200, 3), (200, 6), (200, 8),
        (1000, 3), (1000, 6), (1000, 8),
    ])
    def test_matches_the_scalar_oracle(self, n, s):
        for seed in (0, np.int64(7), 2**64 - 1):
            rows = _samples(seed, range(1000), n, s)
            assert rows.dtype == np.int64 and rows.shape == (1000, s)
            assert rows.tolist() == [ransac_sample_scalar(seed, k, n, s) for k in range(1000)]

    def test_rows_do_not_depend_on_the_block_schedule(self):
        whole = _samples(11, range(300), 200, 6)
        blocks, k0, size = [], 0, pnp.RANSAC_BLOCK_START
        while k0 < 300:
            blocks.append(_samples(11, range(k0, min(k0 + size, 300)), 200, 6))
            k0, size = k0 + size, 2 * size
        assert np.array_equal(np.concatenate(blocks), whole)

    def test_rows_hold_distinct_indices_in_range(self):
        for n, s in ((7, 6), (50, 8), (1000, 6)):
            rows = np.sort(_samples(3, range(2000), n, s), axis=1)
            assert rows[:, 0].min() >= 0 and rows[:, -1].max() < n
            assert (rows[:, 1:] > rows[:, :-1]).all()

    def test_n_equal_to_s_gives_a_permutation(self):
        for s in (6, 8):
            rows = _samples(5, range(500), s, s)
            assert (np.sort(rows, axis=1) == np.arange(s)).all()

    def test_index_counts_stay_in_a_band(self):
        # 10,000 samples of 6 from 100: each index is expected 600 times
        # with a binomial standard deviation of about 24.4, so the band
        # 600 +- 120 is about five deviations wide; the seed is fixed
        counts = np.bincount(_samples(0, range(10_000), 100, 6).ravel(), minlength=100)
        assert counts.sum() == 60_000
        assert 480 <= counts.min() and counts.max() <= 720

    def test_hash_raises_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _samples(2**64 - 1, range(2**40, 2**40 + 100), 1000, 8)


class TestP3P:
    """_p3p_batch against the true pose of clean samples."""

    def test_clean_samples_have_a_root_at_the_true_pose(self):
        # 10,000 clean 3-samples, 500 from each of 20 scenes; a root's
        # error is the largest entry of |R - R_gt| and |t - t_gt|
        best = []
        for seed in range(20):
            s = generate_scene(200, noise=NoiseSpec(seed=seed))
            C = s.gt_pairs
            rows = _samples(seed, range(500), len(C), 3)
            pixels, points = s.pixels.pixels[C.idx2d][rows], s.cloud.points[C.idx3d][rows]
            R, t, ok = _p3p_batch(pixels, points, s.K)
            assert R.shape == (500, 4, 3, 3) and t.shape == (500, 4, 3) and ok.shape == (500, 4)
            err_R = np.abs(R - s.T_gt.R).max(axis=(2, 3))
            err = np.maximum(err_R, np.abs(t - s.T_gt.t).max(axis=2))
            best.append(np.where(ok, err, np.inf).min(axis=1))
        best = np.concatenate(best)
        assert np.count_nonzero(best <= 1e-8) >= 9_900
        assert best.max() <= 1e-3

    def test_collinear_or_coincident_points_give_no_root(self):
        K = CameraIntrinsics(585.0, 585.0, 320.0, 240.0)
        p, q = np.array([0.1, -0.2, 4.0]), np.array([0.5, 0.3, 5.0])
        points = np.array([
            [p, q, 0.25 * p + 0.75 * q],  # collinear
            [p, q, 3.0 * q - 2.0 * p],  # collinear, outside the segment
            [p, q, q],  # two coincide
            [p, p, p],  # all three coincide
        ])
        T = Pose(se3_exp([0.1, -0.05, 0.02, 0.1, 0.0, 0.3]).R, [0.1, 0.0, 0.3])
        pixels = np.stack([project_points(pts, T, K)[0] for pts in points])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, _, ok = _p3p_batch(pixels, points, K)
        assert not ok.any()

    def test_ok_roots_are_the_all_roots_kabsch_bit_for_bit(self):
        # pnp-n1000-recipe samples, half of their matches wrong; then
        # samples of a cloud whose every point appears three times, many
        # of them degenerate; then collinear and coincident samples
        stacks = []
        for seed in (0, 1):
            s, C = pool_scene(seed)
            rows = _samples(seed, range(2000), len(C), 3)
            stacks.append((s.pixels.pixels[C.idx2d][rows], s.cloud.points[C.idx3d][rows], s.K))
        s = generate_scene(20, noise=NoiseSpec(seed=67, outlier_rate=0.4))
        pairs = s.pairs_with_outliers()
        idx = np.tile(np.arange(len(pairs)), 3)
        rows = _samples(4, range(500), len(idx), 3)
        pixels, points = s.pixels.pixels[pairs.idx2d][idx], s.cloud.points[pairs.idx3d][idx]
        stacks.append((pixels[rows], points[rows], s.K))
        p, q = np.array([0.1, -0.2, 4.0]), np.array([0.5, 0.3, 5.0])
        line = np.array([[p, q, 0.25 * p + 0.75 * q], [p, q, q], [p, p, p]])
        stacks.append((project_points(line.reshape(-1, 3), s.T_gt, s.K)[0].reshape(3, 3, 2),
                       line, s.K))
        rootless = 0
        for pixels, points, K in stacks:
            R, t, ok = _p3p_batch(pixels, points, K)
            R_o, t_o, ok_o = p3p_batch_all_roots(pixels, points, K)
            assert ok.tobytes() == ok_o.tobytes()
            assert R[ok].tobytes() == R_o[ok].tobytes()
            assert t[ok].tobytes() == t_o[ok].tobytes()
            assert np.isnan(R[~ok]).all() and np.isnan(t[~ok]).all()
            rootless += np.count_nonzero(~ok.any(axis=1))
        assert rootless >= 100


def without_lo(T, mask, count, *_):
    """_local_opt replaced by the identity: the replay without LO."""
    return T, mask, count


class TestLocalOptimization:
    """The Gauss-Newton LO step the replay runs on each new best hypothesis."""

    def test_refine_whose_count_does_not_grow_is_refused(self, monkeypatch):
        s, C = pool_scene(1)
        pixels, points = s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d]
        cfg = RansacConfig(seed=1, iterations=60)
        calls = []

        def no_inliers(T, pixels, points, K, threshold):
            calls.append(T)
            return np.zeros(len(pixels), bool), 0.0

        monkeypatch.setattr(pnp, "_score", no_inliers)
        refused = _ransac_from_arrays(pixels, points, s.K, cfg)
        scored = len(calls)
        monkeypatch.setattr(pnp, "_local_opt", without_lo)
        # the refines were scored, refused, and left the replay as it is
        # without LO (whose tail scores two candidates)
        assert_bit_identical(refused, _ransac_from_arrays(pixels, points, s.K, cfg))
        assert scored > 2 and len(calls) - scored == 2
        # a refine that only ties the count is refused too, even when its
        # inliers are other pairs
        monkeypatch.undo()
        mask, _ = pnp._score(s.T_gt, pixels, points, s.K, cfg.threshold)
        tie = np.roll(mask, 1)
        assert tie.sum() == mask.sum() and not np.array_equal(tie, mask)
        calls.clear()

        def tied(T, *_):
            calls.append(T)
            return tie, 0.0

        monkeypatch.setattr(pnp, "_score", tied)
        out = _local_opt(s.T_gt, mask, int(mask.sum()), pixels, points, s.K, cfg.threshold)
        assert out[0] is s.T_gt and out[1] is mask and out[2] == mask.sum()
        assert len(calls) == 1

    def test_refine_that_raises_keeps_the_hypothesis(self, monkeypatch):
        s, C = pool_scene(1)
        pixels, points = s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d]
        cfg = RansacConfig(seed=1, iterations=60)
        # no inliers leave the refine nothing in front of the camera
        none = np.zeros(len(pixels), bool)
        out = _local_opt(s.T_gt, none, 0, pixels, points, s.K, cfg.threshold)
        assert out[0] is s.T_gt and out[1] is none and out[2] == 0
        mask, _ = pnp._score(s.T_gt, pixels, points, s.K, cfg.threshold)
        for exc in (Divergence, AllPointsBehindCamera):

            def failing(*_):
                raise exc("refine failed")

            monkeypatch.setattr(pnp, "_refine_from_arrays", failing)
            out = _local_opt(s.T_gt, mask, int(mask.sum()), pixels, points, s.K, cfg.threshold)
            assert out[0] is s.T_gt and out[1] is mask and out[2] == mask.sum()
            # the tail's refine fails too, so the replay ends as it does
            # without LO, on the best hypothesis
            failed = _ransac_from_arrays(pixels, points, s.K, cfg)
            monkeypatch.setattr(pnp, "_local_opt", without_lo)
            assert_bit_identical(failed, _ransac_from_arrays(pixels, points, s.K, cfg))
            monkeypatch.undo()

    def test_lo_cuts_the_hypotheses_consumed(self, monkeypatch):
        # pool scene 1 stops after 52 hypotheses with LO and 73 without
        s, C = pool_scene(1)
        pixels, points = s.pixels.pixels[C.idx2d], s.cloud.points[C.idx3d]
        cfg = RansacConfig(seed=1)
        with_lo = _ransac_from_arrays(pixels, points, s.K, cfg)[2]
        monkeypatch.setattr(pnp, "_local_opt", without_lo)
        assert with_lo < _ransac_from_arrays(pixels, points, s.K, cfg)[2]
