import tracemalloc

import numpy as np
import pytest

from mincdpnp import (
    CorrespondenceSet,
    DimensionMismatch,
    EmptySet,
    KeypointSet2D,
    KeypointSet3D,
    MatchConfig,
    MissingFeatures,
    NoiseSpec,
    NotOneToOne,
    Pose,
    ScenePair,
    evaluate_selection,
    feature_distance_matrix,
    generate_scene,
    guided_reprojection_total,
    key_loss,
    match_scene,
    nearest_features,
)
from mincdpnp import features
from mincdpnp.features import _load_matrix_csv
from mincdpnp.synth import DEFAULT_INTRINSICS

from oracles import (
    feature_distance_scalar,
    match_pairs_bruteforce,
    nearest_features_dense,
    nearest_match_bruteforce,
    save_matrix_csv_scalar,
)


def make_sets(rng, m=5, n=7, dim=16):
    kp2d = KeypointSet2D(rng.uniform(0, 640, size=(m, 2)), rng.normal(size=(m, dim)))
    kp3d = KeypointSet3D(rng.normal(size=(n, 3)), rng.normal(size=(n, dim)))
    return kp2d, kp3d


def pair_distance(a, b):
    """The one entry of the distance matrix of two feature vectors."""
    return float(feature_distance_matrix(a, b)[0, 0])


class TestFeatureDistance:
    """feature_distance_matrix on single vectors."""

    def test_identical_unit_vectors(self):
        a = np.zeros(128)
        a[0] = 1.0
        assert pair_distance(a, a) == 0.0

    def test_orthonormal_pair(self):
        a = np.zeros(8)
        b = np.zeros(8)
        a[0] = 1.0
        b[1] = 1.0
        assert pair_distance(a, b) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair_distance(np.zeros(4), np.zeros(5))
        with pytest.raises(DimensionMismatch):
            nearest_features(np.zeros(4), np.zeros(5))

    def test_zero_vector_maps_to_zero(self):
        z = np.zeros(6)
        b = np.full(6, 2.0)
        # normalized zero stays zero, so the distance is just ||b/||b||||
        assert pair_distance(z, b) == pytest.approx(1.0, abs=1e-15)
        assert pair_distance(z, z) == 0.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            a = rng.normal(size=16)
            b = rng.normal(size=16)
            want = feature_distance_scalar(a, b)
            assert pair_distance(a, b) == pytest.approx(want, abs=1e-12)

    def test_normalized_is_scale_invariant(self):
        rng = np.random.default_rng(67)
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        base = pair_distance(a, b)
        for lam in (1e-3, 7.0, 1e4):
            assert pair_distance(lam * a, b) == pytest.approx(base, abs=1e-12)
            assert pair_distance(a, lam * b) == pytest.approx(base, abs=1e-12)


def scene_of(kp2d, kp3d):
    """The two sets as the ScenePair that match_scene takes."""
    return ScenePair(
        kp3d, kp2d, Pose.identity(), DEFAULT_INTRINSICS,
        np.full(len(kp2d), np.nan), CorrespondenceSet([], []), {},
    )


class TestMatchByThreshold:
    """match_scene's cut: each pixel's nearest 3D feature, kept when its
    distance is at most delta."""

    def test_zero_ish_delta_distinct_features_empty(self):
        rng = np.random.default_rng(71)
        kp2d, kp3d = make_sets(rng)
        matches = match_scene(scene_of(kp2d, kp3d), MatchConfig(delta=1e-12))
        assert len(matches) == 0

    def test_huge_delta_gives_all_pairs(self):
        rng = np.random.default_rng(73)
        kp2d, kp3d = make_sets(rng, m=4, n=6)
        matches = match_scene(scene_of(kp2d, kp3d), MatchConfig(delta=10.0))
        best, _ = nearest_features_dense(kp2d.features, kp3d.features)
        assert len(matches) == 4
        assert matches.pairs() == {(i, int(best[i])) for i in range(4)}

    def test_median_delta_matches_bruteforce(self):
        rng = np.random.default_rng(79)
        kp2d, kp3d = make_sets(rng, m=8, n=7)
        D = feature_distance_matrix(kp2d.features, kp3d.features)
        # midpoint between the two middle row minima, so no kept distance
        # sits on the threshold and fp rounding cannot flip membership
        flat = np.sort(D.min(axis=1))
        delta = float(0.5 * (flat[len(flat) // 2 - 1] + flat[len(flat) // 2]))
        got = match_scene(scene_of(kp2d, kp3d), MatchConfig(delta=delta))
        nearest = {(i, j) for i, (j, _) in enumerate(
            nearest_match_bruteforce(kp2d.features, kp3d.features)
        )}
        want = [
            (i, j, d) for i, j, d in match_pairs_bruteforce(kp2d.features, kp3d.features, delta)
            if (i, j) in nearest
        ]
        assert len(want) == 4
        assert got.pairs() == {(i, j) for i, j, _ in want}
        got_scores = {(i, j): s for i, j, s in got}
        for i, j, s in want:
            assert got_scores[(i, j)] == pytest.approx(s, abs=1e-12)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(83)
        kp2d, kp3d = make_sets(rng, m=8, n=9)
        scene = scene_of(kp2d, kp3d)
        previous = set()
        for delta in (0.2, 0.5, 0.9, 1.4, 2.1):
            current = match_scene(scene, MatchConfig(delta=delta)).pairs()
            assert previous <= current
            previous = current

    def test_missing_features_raises(self):
        kp2d = KeypointSet2D(np.array([[1.0, 2.0]]))
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 1.0]]), np.ones((1, 4)))
        with pytest.raises(MissingFeatures):
            match_scene(scene_of(kp2d, kp3d))


class TestNearest3DMatch:
    """nearest_features on single queries, and nearest_in's empty cloud."""

    def test_singleton(self):
        idx, score = nearest_features(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
        assert idx.tolist() == [0]
        assert score[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_exact_hit(self):
        rng = np.random.default_rng(89)
        feats = rng.normal(size=(6, 8))
        idx, score = nearest_features(feats[3:4], feats)
        assert idx.tolist() == [3]
        assert score[0] == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(97)
        f3d = rng.normal(size=(64, 16))
        queries = rng.normal(size=(20, 16))
        idx, score = nearest_features(queries, f3d)
        for q, i, s in zip(queries, idx, score):
            dists = [feature_distance_scalar(q, f) for f in f3d]
            assert i == int(np.argmin(dists))
            assert s == pytest.approx(min(dists), abs=1e-12)

    def test_tie_breaks_low_index(self):
        f = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        idx, _ = nearest_features(np.array([[1.0, 0.0]]), f)
        assert idx.tolist() == [1]

    def test_score_equals_row_minimum(self):
        rng = np.random.default_rng(101)
        kp2d, kp3d = make_sets(rng, m=6, n=11)
        D = feature_distance_matrix(kp2d.features, kp3d.features)
        _, score = nearest_features(kp2d.features, kp3d.features)
        assert score.tobytes() == D.min(axis=1).tobytes()

    def test_empty_set_raises(self):
        kp2d = KeypointSet2D(np.array([[1.0, 2.0]]), np.ones((1, 4)))
        kp3d = KeypointSet3D(np.zeros((0, 3)), np.zeros((0, 4)))
        with pytest.raises(EmptySet):
            kp2d.nearest_in(kp3d)
        with pytest.raises(EmptySet):
            match_scene(scene_of(kp2d, kp3d))


def assert_same_as_dense(feats2d, feats3d):
    best, score = nearest_features(feats2d, feats3d)
    want_best, want_score = nearest_features_dense(feats2d, feats3d)
    assert best.dtype == want_best.dtype
    assert np.array_equal(best, want_best)
    assert score.tobytes() == want_score.tobytes()
    return best


class TestNearestFeatures:
    """nearest_features gives the dense argmin's indices and score bits."""

    def test_pnp_pool_scenes(self):
        # the pnp-n1000 benchmark scenes: N=1000, half the pixels outliers
        cfg = MatchConfig(delta=2.0)
        for seed in range(3):
            s = generate_scene(
                1000, noise=NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.5)
            )
            assert_same_as_dense(s.pixels.features, s.cloud.features)
            got = match_scene(s, cfg)
            best, score = nearest_features_dense(s.pixels.features, s.cloud.features)
            keep = np.flatnonzero(score <= cfg.delta)
            assert np.array_equal(got.idx2d, keep)
            assert np.array_equal(got.idx3d, best[keep])
            assert got.scores.tobytes() == score[keep].tobytes()

    def test_small_scenes(self):
        for seed in range(5):
            s = generate_scene(
                100, noise=NoiseSpec(seed=seed, feature_noise_sigma=0.3, outlier_rate=0.2)
            )
            assert_same_as_dense(s.pixels.features, s.cloud.features)
            # rows of very different norms: the slack scales with them
            scale = np.exp(np.random.default_rng(seed).uniform(-8, 8, size=(len(s.cloud), 1)))
            assert_same_as_dense(s.pixels.features, s.cloud.features * scale)

    def test_tripled_cloud_ties_go_to_lowest_index(self):
        s = generate_scene(300, noise=NoiseSpec(seed=7, feature_noise_sigma=0.3))
        f3d = s.cloud.features
        best = assert_same_as_dense(s.pixels.features, np.vstack([f3d, f3d, f3d]))
        assert best.max() < len(f3d)

    def test_zero_feature_rows(self):
        rng = np.random.default_rng(5)
        f2d = rng.normal(size=(40, 16))
        f3d = rng.normal(size=(30, 16))
        f2d[::7] = 0.0
        f3d[[3, 11, 12, 29]] = 0.0
        assert_same_as_dense(f2d, f3d)
        assert_same_as_dense(f2d, np.zeros((5, 16)))
        assert_same_as_dense(np.ones((3, 0)), np.ones((4, 0)))

    @pytest.mark.parametrize("n_rows", [1, 511, 512, 513, 1025])
    def test_query_counts_across_block_edges(self, n_rows):
        rng = np.random.default_rng(n_rows)
        f3d = rng.normal(size=(200, 32))
        f2d = f3d[rng.integers(0, 200, size=n_rows)] + 0.4 * rng.normal(size=(n_rows, 32))
        best = assert_same_as_dense(f2d, f3d)
        assert best.shape == (n_rows,)

    def test_no_query_rows(self):
        best, score = nearest_features(np.zeros((0, 8)), np.ones((4, 8)))
        assert best.shape == score.shape == (0,)

    def test_empty_cloud_raises_like_dense_argmin(self):
        with pytest.raises(Exception) as dense:
            nearest_features_dense(np.ones((3, 4)), np.zeros((0, 4)))
        with pytest.raises(Exception) as got:
            nearest_features(np.ones((3, 4)), np.zeros((0, 4)))
        assert type(got.value) is type(dense.value) is ValueError

    def test_nudged_copies_of_cloud_rows(self):
        # copies 1-3 ulps from a row, before and after it: the screen
        # cannot rank them, so every query near one reaches the rescore
        rng = np.random.default_rng(11)
        f3d = rng.normal(size=(60, 32))
        copies = f3d[:20].copy()
        for k, row in enumerate(copies):
            for _ in range(1 + k % 3):
                row[k] = np.nextafter(row[k], np.inf if k % 2 else -np.inf)
        cloud = np.vstack([copies[:10], f3d, copies[10:]])
        queries = np.vstack([f3d[:20], copies, f3d[:20] + 1e-12 * rng.normal(size=(20, 32))])
        assert_same_as_dense(queries, cloud)

    @pytest.mark.parametrize("distinct", [1, 3, 7])
    def test_exact_ties_from_repeated_rows(self, distinct):
        rng = np.random.default_rng(distinct)
        rows = rng.normal(size=(distinct, 24))
        cloud = rows[rng.integers(0, distinct, size=90)]
        queries = np.vstack([rows, rows + 0.3 * rng.normal(size=rows.shape)])
        best = assert_same_as_dense(queries, cloud)
        first = [np.flatnonzero((cloud == r).all(axis=1))[0] for r in rows]
        assert best[:distinct].tolist() == first

    def test_nan_rows_from_raw_arrays(self):
        rng = np.random.default_rng(13)
        f2d = rng.normal(size=(6, 16))
        f3d = rng.normal(size=(50, 16))
        f2d[1] = np.nan  # stays a NaN row: its distances are all NaN
        f2d[2, 3] = np.inf  # normalizes to a NaN row
        with np.errstate(invalid="ignore"):
            best = assert_same_as_dense(f2d, f3d)
            assert best[1] == best[2] == 0  # the dense argmin's first NaN
            assert np.isnan(nearest_features(f2d, f3d)[1][1])
            f3d[7, 2] = np.inf  # a NaN column: every row's first NaN
            assert_same_as_dense(f2d, f3d)

    def test_gaps_at_the_float32_slack(self):
        # each query has two unit cloud rows whose screen values differ by
        # a set fraction of the half slack, from far below float32's
        # resolution (the float32 screen ranks the pair wrongly or ties
        # it) to just inside and just outside the slack, in both column
        # orders, among random distractors
        rng = np.random.default_rng(19)
        dim = 128
        half_slack = 0.5 * features.NEAREST_SLACK * (dim + 2) * 2.0
        gaps = half_slack * np.array(
            [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 10.0]
        )
        queries, cloud = [], [rng.normal(size=(200, dim))]
        for gap in np.repeat(gaps, 8):
            q, w1, w2 = np.linalg.qr(rng.normal(size=(dim, 3)))[0].T
            c1 = 0.9
            c2 = c1 - gap
            pair = [c1 * q + np.sqrt(1 - c1 * c1) * w1, c2 * q + np.sqrt(1 - c2 * c2) * w2]
            queries.append(q)
            cloud.append(pair[:: rng.choice([1, -1])])
        f2d, f3d = np.array(queries), np.vstack(cloud)
        a, b = features._prepared_features(f2d, f3d)
        bb = np.einsum("ij,ij->i", b, b)
        exact = a @ b.T - 0.5 * bb
        single = a.astype(np.float32) @ b.T.astype(np.float32) - (0.5 * bb).astype(np.float32)
        assert (single.argmax(axis=1) != exact.argmax(axis=1)).any()
        assert_same_as_dense(f2d, f3d)

    @pytest.mark.parametrize("rel", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9])
    def test_near_tie_sweep(self, rel):
        # every cloud row has a twin rel away, and the queries sit near
        # both, so the two candidates are near-tied at D = 128
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(150, 128))
        twins = rows * (1 + rel * rng.normal(size=rows.shape))
        cloud = np.vstack([rows, twins])[rng.permutation(300)]
        queries = rows[rng.integers(0, 150, size=400)]
        queries = queries + rel * rng.normal(size=queries.shape) * np.abs(queries)
        assert_same_as_dense(queries, cloud)

    def test_one_duplicated_row_in_a_large_cloud(self):
        # M = 4000, one 3D row repeated at the end; queries near it tie
        rng = np.random.default_rng(29)
        f3d = rng.normal(size=(4000, 128))
        f3d[3999] = f3d[17]
        near = f3d[[17] * 40] + 0.2 * rng.normal(size=(40, 128))
        f2d = np.vstack([f3d[[17, 3999]], near, rng.normal(size=(500, 128))])
        best = assert_same_as_dense(f2d, f3d)
        assert best[0] == best[1] == 17

    @pytest.mark.parametrize("kind", ["all_zero", "three_rows"])
    def test_tied_cloud_rescores_one_column_per_copy(self, kind):
        # every query ties across hundreds of columns; the rescore keeps
        # the lowest index of each set of equal rows. 8000 queries, since
        # one block's screen (512 x 2000) alone is over a quarter of a
        # dense matrix with fewer than 2048 rows
        rng = np.random.default_rng(17)
        f2d = rng.normal(size=(8000, 128))
        if kind == "all_zero":
            f3d = np.zeros((2000, 128))
        else:
            f3d = rng.normal(size=(3, 128))[rng.integers(0, 3, size=2000)]
        dense_bytes = len(f2d) * len(f3d) * 8
        tracemalloc.start()
        try:
            nearest_features(f2d, f3d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4
        assert_same_as_dense(f2d, f3d)

    def test_no_dense_matrix_allocated(self):
        # the screen holds NEAREST_BLOCK_ROWS rows of the N x M matrix
        s = generate_scene(3000, noise=NoiseSpec(seed=0, outlier_rate=0.2), feature_dim=16)
        dense_bytes = len(s.pixels) * len(s.cloud) * 8
        tracemalloc.start()
        try:
            match_scene(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes / 4


class TestNearestIn:
    """A 2D set keeps its last nearest-feature search, one per cloud set."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []
        search = features.nearest_features

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(features, "nearest_features", counted)
        return calls

    @staticmethod
    def scene():
        return generate_scene(
            300, noise=NoiseSpec(seed=5, feature_noise_sigma=0.3, outlier_rate=0.2)
        )

    def test_one_search_serves_matching_and_selection(self, searches):
        s = self.scene()
        got = match_scene(s)
        evaluate_selection(s.pixels, s.cloud, s.T_gt, s.K)
        key_loss(s.pixels, s.cloud, s.T_gt, s.K)
        guided_reprojection_total(s.pixels, s.cloud, s.T_gt, s.K)
        assert len(searches) == 1
        best, score = nearest_features_dense(s.pixels.features, s.cloud.features)
        keep = np.flatnonzero(score <= MatchConfig().delta)
        assert np.array_equal(got.idx2d, keep)
        assert np.array_equal(got.idx3d, best[keep])
        assert got.scores.tobytes() == score[keep].tobytes()

    def test_an_equal_but_new_cloud_set_searches_again(self, searches):
        s = self.scene()
        first = s.pixels.nearest_in(s.cloud)
        twin = KeypointSet3D(s.cloud.points, s.cloud.features)
        second = s.pixels.nearest_in(twin)
        s.pixels.nearest_in(twin)
        assert len(searches) == 2
        s.pixels.nearest_in(s.cloud)  # only the last cloud set is kept
        assert len(searches) == 3
        for got, want in zip(second, first):
            assert got.tobytes() == want.tobytes()

    def test_results_are_read_only(self):
        s = self.scene()
        best, score = s.pixels.nearest_in(s.cloud)
        with pytest.raises(ValueError):
            best[0] = 1
        with pytest.raises(ValueError):
            score[0] = 0.0

    def test_missing_features_raise(self):
        s = self.scene()
        with pytest.raises(MissingFeatures):
            KeypointSet2D(s.pixels.pixels).nearest_in(s.cloud)
        with pytest.raises(MissingFeatures):
            s.pixels.nearest_in(KeypointSet3D(s.cloud.points))


class TestMatrixCsv:
    @pytest.mark.parametrize(
        "matrix",
        [
            [[np.nan], [1.5], [-0.0]],
            [[5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]],
            [[0.1, 0.2, 0.30000000000000004]],
            [[1.0], [2.0], [3.0]],
            [[np.inf, -np.inf], [0.0, -0.0], [1e-300, 123456789.123456789]],
        ],
    )
    def test_round_trip_is_bit_exact(self, tmp_path, matrix):
        m = np.array(matrix, dtype=np.float64)
        path = tmp_path / "m.csv"
        save_matrix_csv_scalar(path, m)
        back = _load_matrix_csv(path)
        assert back.shape == m.shape
        assert back.dtype == np.float64
        assert back.tobytes() == m.tobytes()

    def test_none_writes_an_empty_file_read_back_as_none(self, tmp_path):
        path = tmp_path / "none.csv"
        save_matrix_csv_scalar(path, None)
        assert path.read_bytes() == b""
        assert _load_matrix_csv(path) is None


class TestContainers:
    def test_duplicate_pixels_rejected(self):
        with pytest.raises(ValueError):
            KeypointSet2D(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_feature_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KeypointSet2D(np.array([[1.0, 2.0]]), np.ones((2, 4)))

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            MatchConfig(delta=0.0)
        with pytest.raises(ValueError):
            MatchConfig(delta=-1.0)

    def test_correspondence_one_to_one(self):
        good = CorrespondenceSet([0, 1], [2, 3])
        assert good.is_one_to_one()
        good.require_one_to_one()
        bad = CorrespondenceSet([0, 0], [2, 3])
        assert not bad.is_one_to_one()
        with pytest.raises(NotOneToOne):
            bad.require_one_to_one()

    def test_correspondence_index_bounds(self):
        with pytest.raises(ValueError):
            CorrespondenceSet([0, 5], [0, 1], n2d=3)
        with pytest.raises(ValueError):
            CorrespondenceSet([-1], [0])

    def test_correspondence_csv_round_trip(self, tmp_path):
        cs = CorrespondenceSet([0, 1, 2], [5, 4, 3], [0.1, 0.2, 0.30000000000000004])
        path = tmp_path / "pairs.csv"
        cs.save_csv(path)
        back = CorrespondenceSet.load_csv(path)
        np.testing.assert_array_equal(back.idx2d, cs.idx2d)
        np.testing.assert_array_equal(back.idx3d, cs.idx3d)
        np.testing.assert_array_equal(back.scores, cs.scores)

    def test_correspondence_csv_needs_three_columns(self, tmp_path):
        path = tmp_path / "gt_pairs.csv"
        path.write_text("0,1\n2,3\n")
        with pytest.raises(ValueError, match="expected 3 columns"):
            CorrespondenceSet.load_csv(path)

    def test_empty_correspondence_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        CorrespondenceSet([], [], []).save_csv(path)
        assert len(CorrespondenceSet.load_csv(path)) == 0
