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
    feature_distance_matrix,
    generate_scene,
    match_by_threshold,
    match_scene,
    nearest_3d_match,
    nearest_features,
)
from mincdpnp.features import _load_matrix_csv, _save_matrix_csv

from oracles import (
    feature_distance_scalar,
    match_pairs_bruteforce,
    nearest_features_dense,
    save_matrix_csv_scalar,
)


def make_sets(rng, m=5, n=7, dim=16):
    kp2d = KeypointSet2D(rng.uniform(0, 640, size=(m, 2)), rng.normal(size=(m, dim)))
    kp3d = KeypointSet3D(rng.normal(size=(n, 3)), rng.normal(size=(n, dim)))
    return kp2d, kp3d


def pair_distance(a, b, cfg=MatchConfig()):
    """The one entry of the distance matrix of two feature vectors."""
    return float(feature_distance_matrix(a, b, cfg)[0, 0])


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
            for normalize in (True, False):
                cfg = MatchConfig(delta=1.0, normalize=normalize)
                want = feature_distance_scalar(a, b, normalize)
                assert pair_distance(a, b, cfg) == pytest.approx(want, abs=1e-12)

    def test_normalized_is_scale_invariant(self):
        rng = np.random.default_rng(67)
        a = rng.normal(size=32)
        b = rng.normal(size=32)
        base = pair_distance(a, b)
        for lam in (1e-3, 7.0, 1e4):
            assert pair_distance(lam * a, b) == pytest.approx(base, abs=1e-12)
            assert pair_distance(a, lam * b) == pytest.approx(base, abs=1e-12)

    def test_unnormalized_plain_l2(self):
        a = np.array([3.0, 0.0])
        b = np.array([0.0, 4.0])
        cfg = MatchConfig(delta=1.0, normalize=False)
        assert pair_distance(a, b, cfg) == pytest.approx(5.0, abs=1e-15)


class TestMatchByThreshold:
    def test_zero_ish_delta_distinct_features_empty(self):
        rng = np.random.default_rng(71)
        kp2d, kp3d = make_sets(rng)
        matches = match_by_threshold(kp2d, kp3d, MatchConfig(delta=1e-12))
        assert len(matches) == 0

    def test_huge_delta_gives_all_pairs(self):
        rng = np.random.default_rng(73)
        kp2d, kp3d = make_sets(rng, m=4, n=6)
        matches = match_by_threshold(kp2d, kp3d, MatchConfig(delta=10.0))
        assert len(matches) == 24
        assert matches.pairs() == {(i, j) for i in range(4) for j in range(6)}

    def test_median_delta_matches_bruteforce(self):
        rng = np.random.default_rng(79)
        kp2d, kp3d = make_sets(rng, m=5, n=7)
        D = feature_distance_matrix(kp2d.features, kp3d.features)
        # midpoint between the two middle distances, so no pair sits on
        # the threshold and fp rounding cannot flip membership
        flat = np.sort(D.ravel())
        delta = float(0.5 * (flat[len(flat) // 2] + flat[len(flat) // 2 + 1]))
        got = match_by_threshold(kp2d, kp3d, MatchConfig(delta=delta))
        want = match_pairs_bruteforce(kp2d.features, kp3d.features, delta)
        assert got.pairs() == {(i, j) for i, j, _ in want}
        got_scores = {(i, j): s for i, j, s in got}
        for i, j, s in want:
            assert got_scores[(i, j)] == pytest.approx(s, abs=1e-12)

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(83)
        kp2d, kp3d = make_sets(rng, m=8, n=9)
        previous = set()
        for delta in (0.2, 0.5, 0.9, 1.4, 2.1):
            current = match_by_threshold(kp2d, kp3d, MatchConfig(delta=delta)).pairs()
            assert previous <= current
            previous = current

    def test_missing_features_raises(self):
        kp2d = KeypointSet2D(np.array([[1.0, 2.0]]))
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 1.0]]), np.ones((1, 4)))
        with pytest.raises(MissingFeatures):
            match_by_threshold(kp2d, kp3d)


class TestNearest3DMatch:
    def test_singleton(self):
        kp3d = KeypointSet3D(np.zeros((1, 3)), np.array([[1.0, 0.0]]))
        idx, score = nearest_3d_match(np.array([0.0, 1.0]), kp3d)
        assert idx == 0
        assert score == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_exact_hit(self):
        rng = np.random.default_rng(89)
        feats = rng.normal(size=(6, 8))
        kp3d = KeypointSet3D(rng.normal(size=(6, 3)), feats)
        idx, score = nearest_3d_match(feats[3], kp3d)
        assert idx == 3
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(97)
        kp3d = KeypointSet3D(rng.normal(size=(64, 3)), rng.normal(size=(64, 16)))
        for _ in range(20):
            q = rng.normal(size=16)
            idx, score = nearest_3d_match(q, kp3d)
            dists = [feature_distance_scalar(q, f) for f in kp3d.features]
            assert idx == int(np.argmin(dists))
            assert score == pytest.approx(min(dists), abs=1e-12)

    def test_tie_breaks_low_index(self):
        f = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        kp3d = KeypointSet3D(np.zeros((3, 3)) + np.arange(3)[:, None], f)
        idx, _ = nearest_3d_match(np.array([1.0, 0.0]), kp3d)
        assert idx == 1

    def test_score_equals_row_minimum(self):
        rng = np.random.default_rng(101)
        kp2d, kp3d = make_sets(rng, m=6, n=11)
        D = feature_distance_matrix(kp2d.features, kp3d.features)
        for i in range(len(kp2d)):
            _, score = nearest_3d_match(kp2d.features[i], kp3d)
            assert score == pytest.approx(D[i].min(), abs=1e-12)

    def test_empty_set_raises(self):
        kp3d = KeypointSet3D(np.zeros((0, 3)), np.zeros((0, 4)))
        with pytest.raises(EmptySet):
            nearest_3d_match(np.zeros(4), kp3d)


def assert_same_as_dense(feats2d, feats3d, cfg):
    best, score = nearest_features(feats2d, feats3d, cfg)
    want_best, want_score = nearest_features_dense(feats2d, feats3d, cfg)
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
            assert_same_as_dense(s.pixels.features, s.cloud.features, cfg)
            got = match_scene(s, cfg)
            best, score = nearest_features_dense(s.pixels.features, s.cloud.features, cfg)
            keep = np.flatnonzero(score <= cfg.delta)
            assert np.array_equal(got.idx2d, keep)
            assert np.array_equal(got.idx3d, best[keep])
            assert got.scores.tobytes() == score[keep].tobytes()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_small_scenes(self, normalize):
        for seed in range(5):
            s = generate_scene(
                100, noise=NoiseSpec(seed=seed, feature_noise_sigma=0.3, outlier_rate=0.2)
            )
            cfg = MatchConfig(normalize=normalize)
            assert_same_as_dense(s.pixels.features, s.cloud.features, cfg)
            # rows of very different norms: the slack scales with them
            scale = np.exp(np.random.default_rng(seed).uniform(-8, 8, size=(len(s.cloud), 1)))
            assert_same_as_dense(s.pixels.features, s.cloud.features * scale, cfg)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_tripled_cloud_ties_go_to_lowest_index(self, normalize):
        s = generate_scene(300, noise=NoiseSpec(seed=7, feature_noise_sigma=0.3))
        f3d = s.cloud.features
        best = assert_same_as_dense(
            s.pixels.features, np.vstack([f3d, f3d, f3d]), MatchConfig(normalize=normalize)
        )
        assert best.max() < len(f3d)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_zero_feature_rows(self, normalize):
        rng = np.random.default_rng(5)
        f2d = rng.normal(size=(40, 16))
        f3d = rng.normal(size=(30, 16))
        f2d[::7] = 0.0
        f3d[[3, 11, 12, 29]] = 0.0
        assert_same_as_dense(f2d, f3d, MatchConfig(normalize=normalize))
        assert_same_as_dense(f2d, np.zeros((5, 16)), MatchConfig(normalize=normalize))
        assert_same_as_dense(np.ones((3, 0)), np.ones((4, 0)), MatchConfig(normalize=normalize))

    @pytest.mark.parametrize("n_rows", [1, 511, 512, 513, 1025])
    def test_query_counts_across_block_edges(self, n_rows):
        rng = np.random.default_rng(n_rows)
        f3d = rng.normal(size=(200, 32))
        f2d = f3d[rng.integers(0, 200, size=n_rows)] + 0.4 * rng.normal(size=(n_rows, 32))
        best = assert_same_as_dense(f2d, f3d, MatchConfig())
        assert best.shape == (n_rows,)

    def test_no_query_rows(self):
        best, score = nearest_features(np.zeros((0, 8)), np.ones((4, 8)))
        assert best.shape == score.shape == (0,)

    def test_empty_cloud_raises_like_dense_argmin(self):
        with pytest.raises(Exception) as dense:
            nearest_features_dense(np.ones((3, 4)), np.zeros((0, 4)), MatchConfig())
        with pytest.raises(Exception) as got:
            nearest_features(np.ones((3, 4)), np.zeros((0, 4)))
        assert type(got.value) is type(dense.value) is ValueError

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


class TestMatrixCsv:
    def test_bytes_equal_the_scalar_repr_writer(self, tmp_path):
        m = np.random.default_rng(3).normal(size=(20, 7)) * 10.0 ** np.arange(-3, 4)
        _save_matrix_csv(tmp_path / "a.csv", m)
        save_matrix_csv_scalar(tmp_path / "b.csv", m)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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
        _save_matrix_csv(path, m)
        save_matrix_csv_scalar(tmp_path / "ref.csv", m)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = _load_matrix_csv(path)
        assert back.shape == m.shape
        assert back.dtype == np.float64
        assert back.tobytes() == m.tobytes()

    def test_none_writes_an_empty_file_read_back_as_none(self, tmp_path):
        path = tmp_path / "none.csv"
        _save_matrix_csv(path, None)
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

    def test_empty_correspondence_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        CorrespondenceSet([], [], []).save_csv(path)
        assert len(CorrespondenceSet.load_csv(path)) == 0
