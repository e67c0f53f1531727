import numpy as np
import pytest

from mincdpnp import (
    NoiseSpec,
    Pose,
    ScenePair,
    generate_scene,
    perturb_pose,
    pose_difference,
    project_points,
    rotation_angle_deg,
)
from mincdpnp.synth import DEFAULT_INTRINSICS, random_pose


class TestGenerateScene:
    def test_zero_noise_exact_reprojection(self):
        scene = generate_scene(120, noise=NoiseSpec(seed=5))
        proj, in_front = project_points(scene.cloud.points, scene.T_gt, scene.K)
        assert in_front.all()
        for i, j, _ in scene.gt_pairs:
            err = float(np.sum((scene.pixels.pixels[i] - proj[j]) ** 2))
            assert err <= 1e-20

    def test_zero_noise_pixels_bitwise_match_batch_projection(self):
        # the solver modules project with project_points; generation must
        # agree to the bit for the exact-zero invariants to hold
        scene = generate_scene(150, noise=NoiseSpec(seed=9))
        proj, in_front = project_points(scene.cloud.points, scene.T_gt, scene.K)
        assert in_front.all()
        for i, j, _ in scene.gt_pairs:
            assert scene.pixels.pixels[i][0] == proj[j][0]
            assert scene.pixels.pixels[i][1] == proj[j][1]

    def test_same_seed_bitwise_identical(self):
        spec = NoiseSpec(
            seed=77, pixel_noise_sigma=1.0, feature_noise_sigma=0.3, outlier_rate=0.2
        )
        a = generate_scene(80, noise=spec)
        b = generate_scene(80, noise=spec)
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        np.testing.assert_array_equal(a.cloud.features, b.cloud.features)
        np.testing.assert_array_equal(a.pixels.pixels, b.pixels.pixels)
        np.testing.assert_array_equal(a.pixels.features, b.pixels.features)
        np.testing.assert_array_equal(a.depth, b.depth)
        np.testing.assert_array_equal(a.T_gt.R, b.T_gt.R)
        np.testing.assert_array_equal(a.T_gt.t, b.T_gt.t)
        assert a.meta == b.meta

    def test_different_seeds_differ(self):
        a = generate_scene(40, noise=NoiseSpec(seed=1))
        b = generate_scene(40, noise=NoiseSpec(seed=2))
        assert not np.array_equal(a.cloud.points, b.cloud.points)

    def test_outlier_count_is_exact_floor(self):
        scene = generate_scene(200, noise=NoiseSpec(seed=3, outlier_rate=0.5))
        assert scene.meta["n_outliers"] == 100
        assert len(scene.meta["outlier_pixel_indices"]) == 100
        assert len(scene.gt_pairs) == 100
        assert len(scene.pixels) == 200

    def test_dropout_count_is_exact_floor(self):
        scene = generate_scene(100, noise=NoiseSpec(seed=4, dropout_rate=0.3))
        assert scene.meta["n_dropped"] == 30
        assert len(scene.pixels) == 70
        assert len(scene.gt_pairs) == 70
        assert len(scene.cloud) == 100

    def test_outliers_and_dropout_combine(self):
        scene = generate_scene(
            50, noise=NoiseSpec(seed=6, outlier_rate=0.2, dropout_rate=0.1)
        )
        assert len(scene.pixels) == 45
        assert scene.meta["n_outliers"] == 10
        assert len(scene.gt_pairs) == 35

    def test_budget_overflow_raises(self):
        with pytest.raises(ValueError):
            generate_scene(10, noise=NoiseSpec(seed=0, outlier_rate=0.6, dropout_rate=0.5))

    def test_depths_positive_and_within_window(self):
        scene = generate_scene(90, noise=NoiseSpec(seed=8, outlier_rate=0.1), d_max=10.0)
        assert np.all(scene.depth > 0)
        assert np.all(scene.depth <= 10.0)
        cam = scene.T_gt.apply(scene.cloud.points)
        assert np.all(cam[:, 2] >= 0.5 - 1e-12)
        assert np.all(cam[:, 2] <= 10.0 + 1e-12)

    def test_all_points_in_frustum(self):
        for seed in range(5):
            scene = generate_scene(60, noise=NoiseSpec(seed=seed))
            proj, in_front = project_points(scene.cloud.points, scene.T_gt, scene.K)
            assert in_front.all()
            assert np.all(proj[:, 0] >= 10.0 - 1e-9) and np.all(proj[:, 0] <= 630.0 + 1e-9)
            assert np.all(proj[:, 1] >= 10.0 - 1e-9) and np.all(proj[:, 1] <= 470.0 + 1e-9)

    def test_matched_features_closer_than_random(self):
        scene = generate_scene(
            60, noise=NoiseSpec(seed=10, feature_noise_sigma=0.3), feature_dim=32
        )
        rng = np.random.default_rng(0)
        for i, j, _ in scene.gt_pairs:
            matched = np.linalg.norm(scene.pixels.features[i] - scene.cloud.features[j])
            k = rng.integers(0, len(scene.cloud))
            if k == j:
                continue
            random_pair = np.linalg.norm(scene.pixels.features[i] - scene.cloud.features[k])
            assert matched < random_pair

    def test_explicit_pose_is_kept(self):
        T = Pose.identity()
        scene = generate_scene(30, pose=T, noise=NoiseSpec(seed=11))
        assert scene.T_gt.almost_equal(T, atol=0.0)

    def test_pairs_with_outliers(self):
        scene = generate_scene(100, noise=NoiseSpec(seed=12, outlier_rate=0.25))
        mixed = scene.pairs_with_outliers()
        assert len(mixed) == 100
        assert len(scene.gt_pairs) == 75
        assert mixed.pairs() >= scene.gt_pairs.pairs()

    def test_save_load_round_trip(self, tmp_path):
        scene = generate_scene(
            40,
            noise=NoiseSpec(seed=13, pixel_noise_sigma=0.5, outlier_rate=0.1),
            feature_dim=16,
        )
        scene.save_dir(tmp_path / "scene")
        back = ScenePair.load_dir(tmp_path / "scene")
        np.testing.assert_array_equal(back.cloud.points, scene.cloud.points)
        np.testing.assert_array_equal(back.cloud.features, scene.cloud.features)
        np.testing.assert_array_equal(back.pixels.pixels, scene.pixels.pixels)
        np.testing.assert_array_equal(back.pixels.features, scene.pixels.features)
        np.testing.assert_array_equal(back.depth, scene.depth)
        np.testing.assert_array_equal(back.T_gt.R, scene.T_gt.R)
        np.testing.assert_array_equal(back.gt_pairs.idx2d, scene.gt_pairs.idx2d)
        np.testing.assert_array_equal(back.gt_pairs.idx3d, scene.gt_pairs.idx3d)
        assert back.meta == scene.meta

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            generate_scene(0, noise=NoiseSpec(seed=0))

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, outlier_rate=1.0)
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, dropout_rate=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(seed=0, pixel_noise_sigma=-1.0)


class TestPerturbPose:
    def test_zero_perturbation_is_identity(self):
        rng = np.random.default_rng(21)
        T = random_pose(rng)
        P = perturb_pose(T, 0.0, 0.0, seed=99)
        assert P.almost_equal(T, atol=1e-15)

    def test_exact_magnitudes(self):
        rng = np.random.default_rng(22)
        for seed in range(20):
            T = random_pose(rng)
            rot_deg = rng.uniform(0.1, 90.0)
            trans_m = rng.uniform(0.01, 2.0)
            P = perturb_pose(T, rot_deg, trans_m, seed=seed)
            rot, trans = pose_difference(P, T)
            assert rot == pytest.approx(rot_deg, abs=1e-9)
            assert trans == pytest.approx(trans_m, abs=1e-12)

    def test_relative_rotation_angle_via_log(self):
        T = Pose.identity()
        P = perturb_pose(T, 30.0, 0.0, seed=5)
        assert rotation_angle_deg(P.R @ T.R.T) == pytest.approx(30.0, abs=1e-9)

    def test_distinct_seeds_give_distinct_results(self):
        T = Pose.identity()
        poses = [perturb_pose(T, 5.0, 0.1, seed=s) for s in range(100)]
        keys = {(p.R.tobytes(), p.t.tobytes()) for p in poses}
        assert len(keys) == 100

    def test_rejects_out_of_range_rotation(self):
        with pytest.raises(ValueError):
            perturb_pose(Pose.identity(), 180.0, 0.0, seed=0)


def test_default_intrinsics_match_depth_sensor_convention():
    assert DEFAULT_INTRINSICS.fu == 585.0
    assert DEFAULT_INTRINSICS.fv == 585.0
    assert DEFAULT_INTRINSICS.cu == 320.0
    assert DEFAULT_INTRINSICS.cv == 240.0
