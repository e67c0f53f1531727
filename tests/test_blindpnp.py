import tracemalloc

import numpy as np
import pytest

from mincdpnp import (
    CorrespondenceSet,
    EmptySet,
    InlierConfig,
    KeypointSet2D,
    KeypointSet3D,
    NoiseSpec,
    NotOneToOne,
    Pose,
    check_inequality8,
    generate_scene,
    kappa,
    kappa_star,
    project_points,
)
from mincdpnp import chamfer
from mincdpnp.geometry import CameraIntrinsics
from mincdpnp.synth import DEFAULT_INTRINSICS, perturb_pose, random_pose

from oracles import kappa_bruteforce, kappa_star_bruteforce, kappa_star_dense

K = DEFAULT_INTRINSICS
CFG = InlierConfig(tau=5.0)


def grid_instance(n=8, z=2.0):
    """n points on a planar grid with their exact projections as pixels."""
    side = int(np.ceil(np.sqrt(n)))
    xs, ys = np.meshgrid(np.linspace(-0.5, 0.5, side), np.linspace(-0.4, 0.4, side))
    pts = np.column_stack([xs.ravel()[:n], ys.ravel()[:n], np.full(n, z)])
    pix, _ = project_points(pts, Pose.identity(), K)
    return KeypointSet2D(pix), KeypointSet3D(pts)


def random_instance(rng, m=6, n=6):
    scene = generate_scene(
        max(m, n),
        noise=NoiseSpec(seed=int(rng.integers(0, 2**31)), pixel_noise_sigma=2.0),
    )
    kp2d = KeypointSet2D(scene.pixels.pixels[:m])
    kp3d = KeypointSet3D(scene.cloud.points[:n])
    return kp2d, kp3d, scene.T_gt


class TestKappa:
    def test_empty_correspondences(self):
        kp2d, kp3d = grid_instance()
        assert kappa(Pose.identity(), CorrespondenceSet([], []), kp2d, kp3d, K, CFG) == 0

    def test_perfect_pairs_all_count(self):
        kp2d, kp3d = grid_instance(n=9)
        C = CorrespondenceSet(range(9), range(9))
        assert kappa(Pose.identity(), C, kp2d, kp3d, K, CFG) == 9

    def test_three_of_eight_perturbed_beyond_threshold(self):
        kp2d, kp3d = grid_instance(n=8)
        pix = kp2d.pixels.copy()
        pix[[2, 5, 7]] += np.array([3.0, 4.0])  # 25 px^2 > tau = 5
        C = CorrespondenceSet(range(8), range(8))
        assert kappa(Pose.identity(), C, KeypointSet2D(pix), kp3d, K, CFG) == 5

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            kp2d, kp3d, T_gt = random_instance(rng, m=7, n=7)
            T = random_pose(rng) if rng.random() < 0.5 else T_gt
            C = CorrespondenceSet(rng.permutation(7), rng.permutation(7))
            dense = np.zeros((7, 7), dtype=bool)
            dense[C.idx2d, C.idx3d] = True
            want = kappa_bruteforce(
                kp2d.pixels, kp3d.points, dense, T.R, T.t, K.fu, K.fv, K.cu, K.cv, CFG.tau
            )
            assert kappa(T, C, kp2d, kp3d, K, CFG) == want

    def test_behind_camera_pair_is_not_an_inlier(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, -2.0], [0.0, 0.0, 2.0]]))
        pix, _ = project_points(kp3d.points[1:], Pose.identity(), K)
        kp2d = KeypointSet2D(np.vstack([pix, pix + 100.0]))
        C = CorrespondenceSet([0, 1], [0, 1])
        # pair 0 targets the behind-camera point, pair 1 is 100 px off
        assert kappa(Pose.identity(), C, kp2d, kp3d, K, CFG) == 0

    def test_invariant_under_pair_permutation(self):
        rng = np.random.default_rng(113)
        kp2d, kp3d, T = random_instance(rng, m=8, n=8)
        idx = rng.permutation(8)
        a = kappa(T, CorrespondenceSet(range(8), idx), kp2d, kp3d, K, CFG)
        order = rng.permutation(8)
        b = kappa(
            T,
            CorrespondenceSet(np.arange(8)[order], idx[order]),
            kp2d,
            kp3d,
            K,
            CFG,
        )
        assert a == b

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(127)
        kp2d, kp3d, T = random_instance(rng, m=10, n=10)
        C = CorrespondenceSet(range(10), rng.permutation(10))
        counts = [
            kappa(T, C, kp2d, kp3d, K, InlierConfig(tau=t))
            for t in (0.5, 2.0, 5.0, 20.0, 1e3, 1e6)
        ]
        assert counts == sorted(counts)

    def test_index_validation(self):
        kp2d, kp3d = grid_instance(n=4)
        with pytest.raises(ValueError):
            kappa(Pose.identity(), CorrespondenceSet([9], [0]), kp2d, kp3d, K, CFG)
        with pytest.raises(ValueError):
            kappa(Pose.identity(), CorrespondenceSet([0], [9]), kp2d, kp3d, K, CFG)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            InlierConfig(tau=0.0)


class TestKappaStar:
    def test_perfect_bijective_instance_reaches_2n(self):
        kp2d, kp3d = grid_instance(n=12)
        assert kappa_star(Pose.identity(), kp2d, kp3d, K, CFG) == 24

    def test_far_separated_sets_give_zero(self):
        kp2d, kp3d = grid_instance(n=6)
        shifted = KeypointSet2D(kp2d.pixels + 500.0)
        assert kappa_star(Pose.identity(), shifted, kp3d, K, CFG) == 0

    def test_matches_bruteforce_on_mixed_instances(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            kp2d, kp3d, T_gt = random_instance(rng, m=6, n=6)
            T = T_gt if rng.random() < 0.5 else random_pose(rng)
            want = kappa_star_bruteforce(
                kp2d.pixels, kp3d.points, T.R, T.t, K.fu, K.fv, K.cu, K.cv, CFG.tau
            )
            assert kappa_star(T, kp2d, kp3d, K, CFG) == want

    def test_bounded_by_m_plus_n(self):
        rng = np.random.default_rng(137)
        for _ in range(20):
            kp2d, kp3d, _ = random_instance(rng, m=5, n=9)
            T = random_pose(rng)
            assert kappa_star(T, kp2d, kp3d, K, CFG) <= 5 + 9

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(139)
        kp2d, kp3d, T = random_instance(rng, m=8, n=8)
        counts = [
            kappa_star(T, kp2d, kp3d, K, InlierConfig(tau=t))
            for t in (0.5, 2.0, 5.0, 20.0, 1e3, 1e6)
        ]
        assert counts == sorted(counts)

    def test_all_points_behind_camera_counts_zero(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, -1.0], [0.1, 0.0, -2.0]]))
        kp2d = KeypointSet2D(np.array([[320.0, 240.0]]))
        assert kappa_star(Pose.identity(), kp2d, kp3d, K, CFG) == 0

    def test_empty_sets_raise(self):
        kp2d, kp3d = grid_instance(n=4)
        with pytest.raises(EmptySet):
            kappa_star(Pose.identity(), KeypointSet2D(np.zeros((0, 2))), kp3d, K, CFG)
        with pytest.raises(EmptySet):
            kappa_star(Pose.identity(), kp2d, KeypointSet3D(np.zeros((0, 3))), K, CFG)


class TestKappaStarTree:
    """The count (one dense matrix up to chamfer.DENSE_CELLS pairs, k-d
    trees above) against the dense N x M minima."""

    def test_matches_the_dense_oracle(self):
        for n in (1, 100, 1000):
            for seed in range(3):
                scene = generate_scene(
                    n, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0, outlier_rate=0.2)
                )
                doubled = KeypointSet3D(np.concatenate([scene.cloud.points] * 2))
                for cloud in (scene.cloud, doubled):
                    for T in (scene.T_gt, perturb_pose(scene.T_gt, 2.0, 0.05, seed)):
                        for tau in (0.5, 5.0, 50.0):
                            cfg = InlierConfig(tau=tau)
                            want = kappa_star_dense(T, scene.pixels, cloud, K, cfg)
                            assert kappa_star(T, scene.pixels, cloud, K, cfg) == want

    def test_pair_at_exactly_tau_counts(self):
        # projection (322, 241): squared distance 2^2 + 1^2 == 5.0 exactly
        exact = CameraIntrinsics(fu=512.0, fv=512.0, cu=320.0, cv=240.0)
        kp2d = KeypointSet2D([[320.0, 240.0]])
        kp3d = KeypointSet3D([[2.0 / 512.0, 1.0 / 512.0, 1.0]])
        for tau, want in ((5.0, 2), (np.nextafter(5.0, 0.0), 0)):
            cfg = InlierConfig(tau=tau)
            assert kappa_star(Pose.identity(), kp2d, kp3d, exact, cfg) == want
            assert kappa_star_dense(Pose.identity(), kp2d, kp3d, exact, cfg) == want

    def test_all_behind_matches_the_dense_oracle(self):
        scene = generate_scene(50, noise=NoiseSpec(seed=5))
        flipped = Pose(np.diag([1.0, -1.0, -1.0]), np.zeros(3))
        assert kappa_star_dense(flipped, scene.pixels, scene.cloud, K, CFG) == 0
        assert kappa_star(flipped, scene.pixels, scene.cloud, K, CFG) == 0

    def test_dense_and_tree_branches_count_alike(self, monkeypatch):
        # integer-lattice pixels with projections at exact distances, some
        # exactly at tau = 16.0 and 64.0: ties and boundary pairs on both sides
        exact = CameraIntrinsics(fu=512.0, fv=512.0, cu=320.0, cv=240.0)
        g = np.arange(-3, 4) * 8.0
        lattice = KeypointSet2D(np.stack(np.meshgrid(g + 320.0, g + 240.0), -1).reshape(-1, 2))
        uv = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [8.0, 4.0], [-20.0, 12.0]])
        on_lattice = KeypointSet3D(np.column_stack([uv / 512.0, np.ones(5)]))
        one_visible = KeypointSet3D([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]])
        T0 = Pose.identity()
        cases = [(T0, lattice, on_lattice, exact), (T0, lattice, one_visible, exact)]
        for n in (1, 100):
            for seed in range(3):
                scene = generate_scene(
                    n, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0, outlier_rate=0.2)
                )
                T = perturb_pose(scene.T_gt, 2.0, 0.05, seed)
                cases.append((T, scene.pixels, scene.cloud, K))
        for T, kp2d, kp3d, K_ in cases:
            for tau in (0.5, 5.0, 16.0, 64.0):
                cfg = InlierConfig(tau=tau)
                counts = []
                for cells in (0, 2**62):
                    monkeypatch.setattr(chamfer, "DENSE_CELLS", cells)
                    counts.append(kappa_star(T, kp2d, kp3d, K_, cfg))
                assert counts[0] == counts[1] == kappa_star_dense(T, kp2d, kp3d, K_, cfg)

    def test_peak_memory_at_n4000_far_below_the_dense_matrix(self):
        scene = generate_scene(4000, noise=NoiseSpec(seed=9, outlier_rate=0.1))
        assert len(scene.pixels) * len(scene.cloud) > chamfer.DENSE_CELLS  # the tree branch
        # tracemalloc sees numpy's buffers, not cKDTree's C++ node
        # vectors; those hold a few nodes per 16 points
        dense_bytes = len(scene.pixels) * len(scene.cloud) * 8
        tracemalloc.start()
        try:
            got = kappa_star(scene.T_gt, scene.pixels, scene.cloud, K, CFG)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == kappa_star_dense(scene.T_gt, scene.pixels, scene.cloud, K, CFG)
        assert peak < dense_bytes / 20


class TestInequality8:
    def test_perfect_instance(self):
        kp2d, kp3d = grid_instance(n=10)
        C = CorrespondenceSet(range(10), range(10))
        k, ks, holds = check_inequality8(Pose.identity(), C, kp2d, kp3d, K, CFG)
        assert (k, ks, holds) == (10, 20, True)

    def test_empty_matching(self):
        kp2d, kp3d = grid_instance(n=5)
        k, ks, holds = check_inequality8(
            Pose.identity(), CorrespondenceSet([], []), kp2d, kp3d, K, CFG
        )
        assert k == 0 and holds
        assert ks == kappa_star(Pose.identity(), kp2d, kp3d, K, CFG)

    def test_rejects_many_to_one(self):
        kp2d, kp3d = grid_instance(n=4)
        C = CorrespondenceSet([0, 0], [1, 2])
        with pytest.raises(NotOneToOne):
            check_inequality8(Pose.identity(), C, kp2d, kp3d, K, CFG)

    def test_bound_holds_on_random_instances(self):
        rng = np.random.default_rng(149)
        for _ in range(200):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            kp2d = KeypointSet2D(rng.uniform(0, 640, size=(m, 2)))
            kp3d = KeypointSet3D(rng.normal(size=(n, 3)) + np.array([0, 0, 2.5]))
            T = random_pose(rng)
            size = int(rng.integers(0, min(m, n) + 1))
            C = CorrespondenceSet(
                rng.choice(m, size=size, replace=False),
                rng.choice(n, size=size, replace=False),
            )
            tau = float(rng.uniform(0.5, 50.0))
            _, _, holds = check_inequality8(T, C, kp2d, kp3d, K, InlierConfig(tau=tau))
            assert holds
