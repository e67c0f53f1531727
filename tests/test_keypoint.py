import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincdpnp import (
    DEFAULT_S_TH,
    CameraIntrinsics,
    EmptyGroundTruth,
    KeypointReport,
    KeypointSet2D,
    KeypointSet3D,
    NoiseSpec,
    Pose,
    SelectConfig,
    evaluate_selection,
    generate_scene,
    keypoint_precision_recall,
    perturb_pose,
    project_points,
    reprojection_correctness,
    select_3d_keypoints,
    tau_criterion,
)
from mincdpnp import keypoint
from oracles import (
    DenseCorrectness,
    evaluate_selection_dense,
    select_keypoints_bruteforce,
)

K_DEFAULT = CameraIntrinsics(585.0, 585.0, 320.0, 240.0)


def random_instance(rng, m=12, n=15, dim=16, sigma=0.4):
    """2D/3D sets sharing some latent features plus independent noise."""
    latent = rng.normal(size=(n, dim))
    f3d = latent + sigma * rng.normal(size=(n, dim))
    f2d = latent[rng.integers(0, n, size=m)] + sigma * rng.normal(size=(m, dim))
    kp2d = KeypointSet2D(rng.uniform(0, 640, size=(m, 2)), f2d)
    kp3d = KeypointSet3D(rng.normal(size=(n, 3)) + [0, 0, 5.0], f3d)
    return kp2d, kp3d


@st.composite
def selection_instances(draw):
    """(2D set, 3D set, s_th): 2D features are noisy copies of 3D rows, so
    several 2D keypoints share a partner, and some 2D rows are copies of
    other 2D rows, so their scores tie."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 20))
    f3d = rng.normal(size=(n, dim))
    sigma = draw(st.sampled_from([0.0, 0.1, 0.5]))
    f2d = f3d[rng.integers(0, n, size=m)] + sigma * rng.normal(size=(m, dim))
    copied = rng.integers(0, m, size=draw(st.integers(0, m)))
    f2d[copied] = f2d[rng.integers(0, m, size=len(copied))]
    pixels = np.column_stack([np.arange(m, dtype=float), np.zeros(m)])
    kp3d = KeypointSet3D(rng.normal(size=(n, 3)) + [0, 0, 5.0], f3d)
    s_th = draw(st.sampled_from([0.05, 0.3, DEFAULT_S_TH, 1.0, 2.0]))
    return KeypointSet2D(pixels, f2d), kp3d, s_th


def assert_selection_matches_bruteforce(kp2d, kp3d, s_th):
    sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=s_th))
    want = select_keypoints_bruteforce(kp2d.features, kp3d.features, s_th)
    got = {
        int(j): (s, int(q))
        for j, s, q in zip(sel.cloud_indices, sel.scores, sel.source_2d)
    }
    assert set(got) == set(want)
    for j in want:
        assert got[j][1] == want[j][1]
        assert got[j][0] == pytest.approx(want[j][0], abs=1e-12)


class TestSelect3DKeypoints:
    @given(selection_instances())
    @settings(max_examples=150, deadline=None)
    def test_property_ties_and_shared_partners(self, instance):
        assert_selection_matches_bruteforce(*instance)

    def test_matches_bruteforce_selection(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            kp2d, kp3d = random_instance(rng)
            assert_selection_matches_bruteforce(kp2d, kp3d, float(rng.uniform(0.2, 1.2)))

    def test_duplicate_nominations_keep_best_score(self):
        f3d = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        # both queries prefer cloud point 0, the second more strongly
        f2d = np.array([[0.9, 0.1, 0.0], [0.99, 0.01, 0.0]])
        kp2d = KeypointSet2D(np.array([[10.0, 10.0], [20.0, 20.0]]), f2d)
        kp3d = KeypointSet3D(np.array([[0, 0, 5.0], [1, 0, 5.0]]), f3d)
        sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=1.0))
        assert list(sel.cloud_indices) == [0]
        assert list(sel.source_2d) == [1]

    def test_duplicate_tie_keeps_lowest_query_index(self):
        f3d = np.array([[1.0, 0.0], [0.0, 1.0]])
        f2d = np.array([[1.0, 0.0], [1.0, 0.0]])
        kp2d = KeypointSet2D(np.array([[10.0, 10.0], [20.0, 20.0]]), f2d)
        kp3d = KeypointSet3D(np.array([[0, 0, 5.0], [1, 0, 5.0]]), f3d)
        sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=0.5))
        assert list(sel.source_2d) == [0]

    def test_tiny_threshold_selects_nothing(self):
        rng = np.random.default_rng(29)
        kp2d, kp3d = random_instance(rng)
        sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=1e-15))
        assert len(sel) == 0
        assert sel.points.points.shape == (0, 3)

    def test_selections_nested_in_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            kp2d, kp3d = random_instance(rng)
            prev: set = set()
            for s_th in (0.3, 0.5, 0.7, 0.9, 1.3):
                sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=s_th))
                cur = set(int(j) for j in sel.cloud_indices)
                assert prev <= cur
                prev = cur

    def test_rows_sorted_by_cloud_index_and_data_carried(self):
        rng = np.random.default_rng(37)
        kp2d, kp3d = random_instance(rng, sigma=0.1)
        sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=1.0))
        assert (np.diff(sel.cloud_indices) > 0).all()
        assert np.array_equal(sel.points.points, kp3d.points[sel.cloud_indices])
        assert np.array_equal(sel.points.features, kp3d.features[sel.cloud_indices])

    def test_cloud_order_independence(self):
        rng = np.random.default_rng(41)
        kp2d, kp3d = random_instance(rng)
        perm = rng.permutation(len(kp3d))
        shuffled = KeypointSet3D(kp3d.points[perm], kp3d.features[perm])
        a = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=0.8))
        b = select_3d_keypoints(kp2d, shuffled, SelectConfig(s_th=0.8))
        # same physical points picked either way
        pts_a = set(map(tuple, a.points.points))
        pts_b = set(map(tuple, b.points.points))
        assert pts_a == pts_b

    def test_equals_the_dense_loop(self):
        # the sorted selection against the oracle's per-query loop, bit
        # for bit, across thresholds and with many nominations per point
        scenes = [
            generate_scene(
                n, noise=NoiseSpec(seed=seed, feature_noise_sigma=0.3, outlier_rate=0.2)
            )
            for n, seed in ((100, 0), (100, 1), (300, 2))
        ]
        instances = [(s.pixels, s.cloud, s.T_gt, s.K) for s in scenes]
        rng = np.random.default_rng(43)
        for _ in range(3):
            kp2d, kp3d = random_instance(rng, m=60, n=8)
            pixels = kp2d.pixels.copy()  # ground truth for the oracle's recall
            pixels[:8] = project_points(kp3d.points, Pose.identity(), K_DEFAULT)[0]
            instances.append((KeypointSet2D(pixels, kp2d.features), kp3d, Pose.identity(), K_DEFAULT))
        for kp2d, kp3d, T, K in instances:
            for s_th in (0.3, DEFAULT_S_TH, 1.0, 2.0):
                sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=s_th))
                cloud_idx, sources, scores, _, _ = evaluate_selection_dense(
                    kp2d, kp3d, T, K, s_th
                )
                assert sel.cloud_indices.dtype == sel.source_2d.dtype == np.int64
                assert np.array_equal(sel.cloud_indices, cloud_idx)
                assert np.array_equal(sel.source_2d, sources)
                assert sel.scores.tobytes() == scores.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SelectConfig(s_th=0.0)


class TestTauCriterion:
    def test_reference_configuration(self):
        assert tau_criterion(0.05, K_DEFAULT, 10.0) == 8.555625

    def test_zero_tolerance(self):
        assert tau_criterion(0.0, K_DEFAULT, 10.0) == 0.0

    def test_quadratic_in_tolerance(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            rr = float(rng.uniform(0.01, 0.5))
            lam = float(rng.uniform(0.1, 4.0))
            d = float(rng.uniform(1.0, 20.0))
            base = tau_criterion(rr, K_DEFAULT, d)
            assert tau_criterion(lam * rr, K_DEFAULT, d) == pytest.approx(
                lam**2 * base, rel=1e-12
            )
            assert tau_criterion(rr, K_DEFAULT, lam * d) == pytest.approx(
                base / lam**2, rel=1e-12
            )

    def test_uses_larger_focal_length(self):
        K = CameraIntrinsics(100.0, 400.0, 320.0, 240.0)
        assert tau_criterion(0.1, K, 10.0) == pytest.approx((0.1 * 400.0 / 10.0) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            tau_criterion(-0.1, K_DEFAULT, 10.0)
        with pytest.raises(ValueError):
            tau_criterion(0.1, K_DEFAULT, 0.0)


class TestPrecisionRecall:
    def test_perfect_scene_is_perfect(self):
        for seed in range(5):
            s = generate_scene(30, noise=NoiseSpec(seed=seed))
            rep = evaluate_selection(s.pixels, s.cloud, s.T_gt, s.K)
            assert rep.precision == 1.0
            assert rep.recall == 1.0
            assert len(rep.selected) == 30

    def test_nothing_selected_zero_convention(self):
        s = generate_scene(10, noise=NoiseSpec(seed=1, feature_noise_sigma=0.5))
        sel = select_3d_keypoints(s.pixels, s.cloud, SelectConfig(s_th=1e-15))
        gt = reprojection_correctness(s.pixels, s.cloud, s.T_gt, s.K)
        assert keypoint_precision_recall(sel, gt) == (0.0, 0.0)

    def test_empty_ground_truth_raises(self):
        # looking away from the cloud leaves no pixel with a partner
        s = generate_scene(10, noise=NoiseSpec(seed=4))
        flipped = Pose(np.diag([1.0, -1.0, -1.0]) @ s.T_gt.R, s.T_gt.t - [0, 0, 50])
        sel = select_3d_keypoints(s.pixels, s.cloud)
        gt = reprojection_correctness(s.pixels, s.cloud, flipped, s.K)
        with pytest.raises(EmptyGroundTruth):
            keypoint_precision_recall(sel, gt)

    def test_hand_worked_instance(self):
        # q0 selects a correct point, q1 selects a wrong one, q2 selects
        # nothing; q0 and q1 both have some valid partner, so precision
        # is 1/2 and recall is 1/2
        pts = np.array([[0.0, 0.0, 5.0], [0.5, 0.0, 5.0], [3.0, 3.0, 5.0]])
        f3d = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
        K = K_DEFAULT
        u0 = K.fu * 0.0 / 5.0 + K.cu
        u1 = K.fu * 0.5 / 5.0 + K.cu
        pix = np.array([[u0, 240.0], [u1, 240.0], [600.0, 100.0]])
        # q1's features point at cloud index 0, which reprojects ~58px away
        f2d = np.array([[1.0, 0, 0], [0.9, 0.1, 0], [0, 0, 1.0]])
        kp2d = KeypointSet2D(pix, f2d)
        kp3d = KeypointSet3D(pts, f3d)
        sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=0.5))
        gt = reprojection_correctness(kp2d, kp3d, Pose.identity(), K)
        assert set(gt.q_with_partner) == {0, 1}
        precision, recall = keypoint_precision_recall(sel, gt)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)

    def test_recall_monotone_in_threshold(self):
        for seed in range(5):
            s = generate_scene(
                60, noise=NoiseSpec(seed=seed, feature_noise_sigma=0.55)
            )
            prev = -1.0
            prev_sel: set = set()
            for s_th in np.exp([-0.5, -0.4, -0.3, -0.2]):
                rep = evaluate_selection(
                    s.pixels, s.cloud, s.T_gt, s.K, SelectConfig(s_th=float(s_th))
                )
                cur = set(int(j) for j in rep.selected.cloud_indices)
                assert prev_sel <= cur
                assert rep.recall >= prev
                prev, prev_sel = rep.recall, cur


def assert_same_as_dense(kp2d, kp3d, T, K, pixel_threshold=3.0):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keypoint, "PRECISION_RECALL_PIXEL_THRESHOLD", pixel_threshold)
        got = reprojection_correctness(kp2d, kp3d, T, K)
    assert got.threshold_px == pixel_threshold
    want = DenseCorrectness(kp2d, kp3d, T, K, pixel_threshold)
    assert got.q_with_partner.dtype == want.q_with_partner.dtype
    assert np.array_equal(got.q_with_partner, want.q_with_partner)
    assert got.q_with_partner is got.q_with_partner  # one tree query, then cached
    q, j = np.divmod(np.arange(len(kp2d) * len(kp3d)), len(kp3d))
    assert got.pairs_ok(q, j).tolist() == [want.pair_ok(a, b) for a, b in zip(q, j)]
    return got


class TestReprojectionCorrectness:
    """The k-d tree check agrees with the dense N x M matrix."""

    def test_small_scenes(self):
        for seed in range(4):
            s = generate_scene(
                60,
                noise=NoiseSpec(seed=seed, pixel_noise_sigma=2.0, outlier_rate=0.3),
            )
            for threshold in (0.5, 3.0, 20.0):
                assert_same_as_dense(s.pixels, s.cloud, s.T_gt, s.K, threshold)
            # a pose off the truth, with some points behind the camera
            T = Pose(s.T_gt.R, s.T_gt.t - [0.0, 0.0, 4.0])
            assert_same_as_dense(s.pixels, s.cloud, T, s.K, 30.0)

    def test_scene_io_recipe_at_the_truth_and_off_it(self):
        # the scene-io-n4000 benchmark's noise, at a size the dense oracle affords
        for seed in range(3):
            s = generate_scene(
                800,
                noise=NoiseSpec(
                    seed=seed, pixel_noise_sigma=0.5, feature_noise_sigma=0.3,
                    outlier_rate=0.2, dropout_rate=0.1,
                ),
            )
            for T in (s.T_gt, perturb_pose(s.T_gt, 5.0, 0.1, seed)):
                gt = assert_same_as_dense(s.pixels, s.cloud, T, s.K)
                assert 0 < len(gt.q_with_partner) < len(s.pixels)

    def test_random_instances(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            kp2d, kp3d = random_instance(rng, m=40, n=50)
            assert_same_as_dense(kp2d, kp3d, Pose.identity(), K_DEFAULT, 60.0)

    def test_pixel_exactly_at_the_threshold_counts(self):
        # (0, 0, 5) projects to (cu, cv) = (320, 240) exactly; pixel 0 is
        # 3 px along u, so its squared distance is exactly 9.0. Points
        # behind the camera leave a one-point front set.
        kp2d = KeypointSet2D(np.array([[323.0, 240.0], [np.nextafter(323.0, 324.0), 240.0]]))
        for behind in (0, 1, 3):
            kp3d = KeypointSet3D(np.array([[0.0, 0.0, -5.0]] * behind + [[0.0, 0.0, 5.0]]))
            gt = assert_same_as_dense(kp2d, kp3d, Pose.identity(), K_DEFAULT, 3.0)
            assert gt.pairs_ok([0, 1], [behind, behind]).tolist() == [True, False]
            assert gt.q_with_partner.tolist() == [0]

    def test_every_point_behind_the_camera(self, monkeypatch):
        s = generate_scene(10, noise=NoiseSpec(seed=4))
        flipped = Pose(np.diag([1.0, -1.0, -1.0]) @ s.T_gt.R, s.T_gt.t - [0, 0, 50])
        monkeypatch.setattr(keypoint, "cKDTree", None)  # building a tree would raise
        gt = assert_same_as_dense(s.pixels, s.cloud, flipped, s.K)
        assert len(gt.q_with_partner) == 0 and gt.q_with_partner.dtype == np.int64
        assert not gt.pairs_ok(0, 0)

    def test_selection_report_at_n4000(self):
        # a scene-io-n4000 benchmark scene
        s = generate_scene(
            4000,
            noise=NoiseSpec(
                seed=0, pixel_noise_sigma=0.5, feature_noise_sigma=0.3,
                outlier_rate=0.2, dropout_rate=0.1,
            ),
        )
        rep = evaluate_selection(s.pixels, s.cloud, s.T_gt, s.K)
        cloud_idx, sources, scores, precision, recall = evaluate_selection_dense(
            s.pixels, s.cloud, s.T_gt, s.K, SelectConfig().s_th
        )
        assert np.array_equal(rep.selected.cloud_indices, cloud_idx)
        assert np.array_equal(rep.selected.source_2d, sources)
        assert rep.selected.scores.tobytes() == scores.tobytes()
        assert (rep.precision, rep.recall) == (precision, recall)


class TestKeypointReport:
    def test_validation(self):
        rng = np.random.default_rng(79)
        kp2d, kp3d = random_instance(rng)
        sel = select_3d_keypoints(kp2d, kp3d, SelectConfig(s_th=1.0))
        with pytest.raises(ValueError):
            KeypointReport(selected=sel, precision=1.5, recall=0.0)
        with pytest.raises(ValueError):
            KeypointReport(selected=sel, precision=1.0, recall=-0.5)
