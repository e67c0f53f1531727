import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from mincdpnp import (
    AllPointsBehindCamera,
    Divergence,
    EmptySet,
    InlierConfig,
    KeypointSet2D,
    KeypointSet3D,
    NoiseSpec,
    Pose,
    SolverConfig,
    chamfer_cost,
    chamfer_grad_twist,
    generate_scene,
    kappa_star,
    perturb_pose,
    pose_difference,
    project_points,
    save_trace_csv,
    se3_exp,
    solve_pose_chamfer,
)
from mincdpnp import chamfer
from mincdpnp.chamfer import _solve_chamfer
from mincdpnp.features import nearest_points
from mincdpnp.geometry import Z_MIN, CameraIntrinsics
from mincdpnp.synth import DEFAULT_INTRINSICS as K

from oracles import (
    chamfer_cost_bruteforce,
    chamfer_cost_dense,
    kappa_star_dense,
    pair_jacobian_product,
    poses_close,
    solve_chamfer_dense,
)


def cost_at(xi_vec, T0, kp2d, kp3d):
    T = se3_exp(xi_vec).compose(T0)
    return chamfer_cost(T, kp2d, kp3d, K).value


def assignments_at(xi_vec, T0, kp2d, kp3d):
    T = se3_exp(xi_vec).compose(T0)
    f, b = chamfer_cost(T, kp2d, kp3d, K).assignment
    return f.tobytes(), b.tobytes()


class TestChamferCost:
    def test_exact_bijective_instance_is_exactly_zero(self):
        scene = generate_scene(100, noise=NoiseSpec(seed=30))
        report = chamfer_cost(scene.T_gt, scene.pixels, scene.cloud, K)
        assert report.value == 0.0
        assert np.all(report.forward_terms == 0.0)

    def test_single_pair_counts_both_directions(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 2.0]]))
        proj, _ = project_points(kp3d.points, Pose.identity(), K)
        kp2d = KeypointSet2D(proj + np.array([3.0, 4.0]))  # distance 5 px
        report = chamfer_cost(Pose.identity(), kp2d, kp3d, K)
        assert report.value == pytest.approx(50.0, abs=1e-9)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(151)
        for seed in range(15):
            scene = generate_scene(12, noise=NoiseSpec(seed=seed, pixel_noise_sigma=3.0))
            kp2d = KeypointSet2D(scene.pixels.pixels[:10])
            T = scene.T_gt if rng.random() < 0.5 else perturb_pose(scene.T_gt, 3.0, 0.1, seed)
            got = chamfer_cost(T, kp2d, scene.cloud, K).value
            want = chamfer_cost_bruteforce(
                kp2d.pixels, scene.cloud.points, T.R, T.t, K.fu, K.fv, K.cu, K.cv
            )
            assert got == pytest.approx(want, abs=1e-9)

    def test_breakdown_sums_to_value(self):
        scene = generate_scene(40, noise=NoiseSpec(seed=31, pixel_noise_sigma=2.0))
        report = chamfer_cost(scene.T_gt, scene.pixels, scene.cloud, K)
        total = report.forward_terms.sum() + np.nansum(report.backward_terms)
        assert report.value == pytest.approx(total, rel=1e-15)
        assert report.value >= 0.0

    def test_invariant_under_permutations(self):
        scene = generate_scene(25, noise=NoiseSpec(seed=32, pixel_noise_sigma=1.0))
        rng = np.random.default_rng(0)
        base = chamfer_cost(scene.T_gt, scene.pixels, scene.cloud, K).value
        kp2d = KeypointSet2D(scene.pixels.pixels[rng.permutation(25)])
        kp3d = KeypointSet3D(scene.cloud.points[rng.permutation(25)])
        assert chamfer_cost(scene.T_gt, kp2d, kp3d, K).value == pytest.approx(
            base, rel=1e-12
        )

    def test_forward_terms_shrink_when_cloud_grows(self):
        scene = generate_scene(30, noise=NoiseSpec(seed=33, pixel_noise_sigma=2.0))
        small = KeypointSet3D(scene.cloud.points[:20])
        grown = KeypointSet3D(scene.cloud.points)
        f_small = chamfer_cost(scene.T_gt, scene.pixels, small, K).forward_terms
        f_grown = chamfer_cost(scene.T_gt, scene.pixels, grown, K).forward_terms
        assert np.all(f_grown <= f_small + 1e-12)

    def test_behind_camera_excluded_by_default(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -3.0]]))
        proj, _ = project_points(kp3d.points[:1], Pose.identity(), K)
        kp2d = KeypointSet2D(proj)
        report = chamfer_cost(Pose.identity(), kp2d, kp3d, K)
        assert report.value == 0.0
        assert np.isnan(report.backward_terms[1])
        assert report.assignment[1][1] == -1

    def test_cloud_partly_behind_is_its_in_front_part(self):
        # the masked path against the all-in-front path on the points in
        # front alone: the same value, term and assignment bits, with NaN
        # backward terms and -1 assignments behind the camera
        scene, T = partly_behind_instance()
        _, in_front = project_points(scene.cloud.points, T, K)
        assert 0 < np.count_nonzero(in_front) < len(in_front)
        visible = np.flatnonzero(in_front)
        report = chamfer_cost(T, scene.pixels, scene.cloud, K)
        part = chamfer_cost(T, scene.pixels, KeypointSet3D(scene.cloud.points[visible]), K)
        assert report.value.hex() == part.value.hex()
        assert report.forward_terms.tobytes() == part.forward_terms.tobytes()
        assert report.backward_terms[visible].tobytes() == part.backward_terms.tobytes()
        assert np.isnan(report.backward_terms[~in_front]).all()
        fwd, bwd = report.assignment
        assert fwd.tobytes() == visible[part.assignment[0]].tobytes()
        assert bwd[visible].tobytes() == part.assignment[1].tobytes()
        assert (bwd[~in_front] == -1).all()
        assert_reports_identical(report, chamfer_cost_dense(T, scene.pixels, scene.cloud, K))
        want = chamfer_cost_bruteforce(
            scene.pixels.pixels, scene.cloud.points, T.R, T.t, K.fu, K.fv, K.cu, K.cv
        )
        assert report.value == pytest.approx(want, rel=1e-12)

    def test_all_behind_raises(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, -2.0]]))
        kp2d = KeypointSet2D(np.array([[320.0, 240.0]]))
        with pytest.raises(AllPointsBehindCamera):
            chamfer_cost(Pose.identity(), kp2d, kp3d, K)

    def test_empty_sets_raise(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 2.0]]))
        with pytest.raises(EmptySet):
            chamfer_cost(Pose.identity(), KeypointSet2D(np.zeros((0, 2))), kp3d, K)


def assert_reports_identical(got, want):
    assert got.value.hex() == want.value.hex()
    assert got.forward_terms.tobytes() == want.forward_terms.tobytes()
    assert got.backward_terms.tobytes() == want.backward_terms.tobytes()
    for a, b in zip(got.assignment, want.assignment):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def partly_behind_instance():
    """A scene and a pose that puts about half of its cloud behind the camera."""
    scene = generate_scene(100, noise=NoiseSpec(seed=41, pixel_noise_sigma=0.5, outlier_rate=0.2))
    depth = scene.T_gt.apply(scene.cloud.points)[:, 2]
    return scene, Pose(np.eye(3), [0.0, 0.0, -float(np.median(depth))]).compose(scene.T_gt)


def doubled(scene):
    """The scene's cloud with every point twice, the copies at the end."""
    return KeypointSet3D(np.concatenate([scene.cloud.points, scene.cloud.points]))


# exact binary fractions: x/z * 512 + 320 lands on integers
K_EXACT = CameraIntrinsics(fu=512.0, fv=512.0, cu=320.0, cv=240.0)


class TestTreeSearch:
    """The two-sided search (one dense matrix up to DENSE_CELLS pairs, k-d
    trees above) against the dense N x M argmin."""

    @pytest.mark.parametrize("n", [1, 2, 100, 1000])
    def test_reports_match_the_dense_oracle(self, n):
        for seed in range(3):
            for noise in (
                NoiseSpec(seed=seed),
                NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.2),
            ):
                scene = generate_scene(n, noise=noise)
                for cloud in (scene.cloud, doubled(scene)):
                    for T in (scene.T_gt, perturb_pose(scene.T_gt, 5.0, 0.1, seed)):
                        assert_reports_identical(
                            chamfer_cost(T, scene.pixels, cloud, K),
                            chamfer_cost_dense(T, scene.pixels, cloud, K),
                        )

    def test_nearest_points_on_lattices_and_one_point_trees(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n, m = rng.integers(1, 200, size=2) if trial > 1 else (50, 1)
            a = np.round(rng.uniform(0, 640, size=(n, 2)) / 16) * 16
            b = np.round(rng.uniform(0, 640, size=(m, 2)) / 16) * 16
            if trial % 2:
                b = np.concatenate([b, b[::-1]])
            D = cdist(a, b, "sqeuclidean")
            idx, sq = nearest_points(cKDTree(b), a)
            np.testing.assert_array_equal(idx, D.argmin(axis=1))
            assert sq.tobytes() == D.min(axis=1).tobytes()

    def test_equidistant_projections_go_to_the_lowest_index(self):
        left, right = [-0.125, 0.0, 1.0], [0.125, 0.0, 1.0]  # u = 256 and 384
        kp2d = KeypointSet2D([[320.0, 240.0], [448.0, 240.0]])
        for pts in ([left, right], [right, left]):
            report = chamfer_cost(Pose.identity(), kp2d, KeypointSet3D(pts), K_EXACT)
            assert report.assignment[0][0] == 0
            assert report.forward_terms[0] == 64.0**2
            assert_reports_identical(
                report, chamfer_cost_dense(Pose.identity(), kp2d, KeypointSet3D(pts), K_EXACT)
            )
        # one projection equidistant from two pixels: the lower pixel index
        kp2d = KeypointSet2D([[384.0, 240.0], [256.0, 240.0]])
        report = chamfer_cost(Pose.identity(), kp2d, KeypointSet3D([[0.0, 0.0, 1.0]]), K_EXACT)
        assert report.assignment[1][0] == 0

    def test_coincident_projections_go_to_the_lowest_index(self):
        # the same ray at three depths: three projections on one pixel
        pts = [[0.25, 0.125, 2.0], [0.125, 0.0625, 1.0], [0.5, 0.25, 4.0], [0.0, 0.0, 1.0]]
        kp2d = KeypointSet2D([[384.0, 272.0], [330.0, 250.0]])
        report = chamfer_cost(Pose.identity(), kp2d, KeypointSet3D(pts), K_EXACT)
        assert report.assignment[0][0] == 0
        assert report.forward_terms[0] == 0.0
        np.testing.assert_array_equal(report.assignment[1], [0, 0, 0, 1])
        assert_reports_identical(
            report, chamfer_cost_dense(Pose.identity(), kp2d, KeypointSet3D(pts), K_EXACT)
        )

    def test_errors_match_the_dense_oracle(self):
        kp2d = KeypointSet2D([[320.0, 240.0]])
        behind = KeypointSet3D([[0.0, 0.0, -1.0]])
        for cost in (chamfer_cost, chamfer_cost_dense):
            with pytest.raises(AllPointsBehindCamera):
                cost(Pose.identity(), kp2d, behind, K)
            with pytest.raises(EmptySet):
                cost(Pose.identity(), KeypointSet2D(np.zeros((0, 2))), behind, K)
            with pytest.raises(EmptySet):
                cost(Pose.identity(), kp2d, KeypointSet3D(np.zeros((0, 3))), K)

    def test_solves_match_the_dense_solver(self):
        cfg = SolverConfig()
        cases = [(100, s) for s in range(4)] + [(1000, 0)]
        for n, seed in cases:
            for noise in (
                NoiseSpec(seed=seed),
                NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.2),
            ):
                scene = generate_scene(n, noise=noise)
                T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed)
                clouds = (scene.cloud, doubled(scene)) if n == 100 else (scene.cloud,)
                for cloud in clouds:
                    T, trace, reason = _solve_chamfer(T0, scene.pixels, cloud, K, cfg)
                    T_d, trace_d, reason_d = solve_chamfer_dense(T0, scene.pixels, cloud, K, cfg)
                    assert reason == reason_d and trace == trace_d
                    assert T.R.tobytes() == T_d.R.tobytes()
                    assert T.t.tobytes() == T_d.t.tobytes()

    def test_one_cost_call_per_trial_pose(self, monkeypatch):
        # the linearization reuses the assignment of the accepted trial,
        # so chamfer_cost runs once at the start and once per trial pose
        calls = []
        real = chamfer.chamfer_cost
        monkeypatch.setattr(
            chamfer, "chamfer_cost", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        cfg = SolverConfig()
        for seed in range(3):
            scene = generate_scene(
                100, noise=NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.2)
            )
            T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed)
            calls.clear()
            _, trace, _ = _solve_chamfer(T0, scene.pixels, scene.cloud, K, cfg)
            trials = sum(
                chamfer.MAX_BACKTRACKS if row.step_size == 0.0
                else round(
                    np.log(row.step_size / chamfer.STEP_INIT) / np.log(chamfer.BACKTRACK_FACTOR)
                ) + 1
                for row in trace[1:]
            )
            assert len(trace) > 3
            assert len(calls) == 1 + trials


def on_both_branches(monkeypatch, fn):
    """fn() with every search on the k-d trees, then on one dense matrix."""
    out = []
    for cells in (0, 2**62):
        monkeypatch.setattr(chamfer, "DENSE_CELLS", cells)
        out.append(fn())
    return out


def assert_searches_identical(got, want):
    for a, b in zip((got[0], *got[1], *got[2]), (want[0], *want[1], *want[2])):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def lattice_instance():
    """Pixels on a 16-px lattice; projections on lattice points, edge
    midpoints (two-way ties) and cell centres (four-way ties), some of
    them coincident at other depths: every distance is an exact float."""
    g = np.arange(-4, 5) * 16.0
    pixels = np.stack(np.meshgrid(g + 320.0, g + 240.0), axis=-1).reshape(-1, 2)
    offsets = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0], [24.0, 40.0]])
    shifts = np.tile([[-32.0, 16.0], [48.0, -16.0], [0.0, 0.0]], (5, 1))
    uv = np.repeat(offsets, 3, axis=0) + shifts
    z = np.resize([1.0, 2.0, 0.5, 4.0], len(uv) + 3)
    uv = np.concatenate([uv, uv[:3]])  # the same rays at other depths
    pts = np.column_stack([uv / 512.0 * z[:, None], z])
    return KeypointSet2D(pixels), KeypointSet3D(pts)


class TestSearchBranches:
    """The dense-matrix search against the k-d tree search, bit for bit."""

    def instances(self):
        for n in (1, 2, 30, 100):
            for seed in range(2):
                scene = generate_scene(
                    n, noise=NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.2)
                )
                for cloud in (scene.cloud, doubled(scene)):
                    for T in (scene.T_gt, perturb_pose(scene.T_gt, 5.0, 0.1, seed)):
                        yield T, scene.pixels, cloud, K
        kp2d, kp3d = lattice_instance()
        yield Pose.identity(), kp2d, kp3d, K_EXACT
        # one visible point among points behind the camera, and one pixel
        one = KeypointSet3D([[0.0, 0.0, -1.0], [0.0625, 0.0, 1.0], [0.0, 0.5, -2.0]])
        yield Pose.identity(), kp2d, one, K_EXACT
        yield Pose.identity(), KeypointSet2D([[300.0, 200.0]]), kp3d, K_EXACT

    def test_searches_and_costs_are_the_same_bits(self, monkeypatch):
        for T, kp2d, kp3d, K_ in self.instances():
            tree, dense = on_both_branches(
                monkeypatch, lambda: chamfer._projected_search(T, kp2d, kp3d, K_)
            )
            assert_searches_identical(dense, tree)
            tree, dense = on_both_branches(monkeypatch, lambda: chamfer_cost(T, kp2d, kp3d, K_))
            assert_reports_identical(dense, tree)
            assert_reports_identical(dense, chamfer_cost_dense(T, kp2d, kp3d, K_))
            tree, dense = on_both_branches(
                monkeypatch, lambda: chamfer_grad_twist(T, kp2d, kp3d, K_)
            )
            assert dense.tobytes() == tree.tobytes()

    def test_lattice_ties_go_to_the_lowest_index(self, monkeypatch):
        kp2d, kp3d = lattice_instance()
        monkeypatch.setattr(chamfer, "DENSE_CELLS", 2**62)
        report = chamfer_cost(Pose.identity(), kp2d, kp3d, K_EXACT)
        proj, _ = project_points(kp3d.points, Pose.identity(), K_EXACT)
        D = cdist(kp2d.pixels, proj, "sqeuclidean")
        assert np.count_nonzero(D == D.min(axis=0)) > len(proj)  # ties exist
        np.testing.assert_array_equal(report.assignment[0], D.argmin(axis=1))
        np.testing.assert_array_equal(report.assignment[1], D.argmin(axis=0))

    def test_branch_switches_above_dense_cells(self, monkeypatch):
        # the real constant: n x m == DENSE_CELLS is dense, one cell more is not
        side = 2**8
        assert side * side == chamfer.DENSE_CELLS
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-0.5, 0.5, (side + 1, 2)), np.full(side + 1, 2.0)])
        pix = rng.uniform(0.0, 640.0, (side, 2))
        for m, tree_built in ((side, False), (side + 1, True)):
            kp2d, kp3d = KeypointSet2D(pix), KeypointSet3D(pts[:m])
            got = chamfer._projected_search(Pose.identity(), kp2d, kp3d, K)
            assert (kp2d._tree is not None) == tree_built
            for want in on_both_branches(
                monkeypatch, lambda: chamfer._projected_search(Pose.identity(), kp2d, kp3d, K)
            ):
                assert_searches_identical(got, want)
            monkeypatch.undo()

    def test_solves_are_the_same_both_ways(self, monkeypatch):
        cfg = SolverConfig()
        for seed in range(3):
            scene = generate_scene(
                100, noise=NoiseSpec(seed=seed, pixel_noise_sigma=0.5, outlier_rate=0.2)
            )
            T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed)
            for cloud in (scene.cloud, doubled(scene)):
                (T, trace, reason), (T_d, trace_d, reason_d) = on_both_branches(
                    monkeypatch, lambda: _solve_chamfer(T0, scene.pixels, cloud, K, cfg)
                )
                assert reason == reason_d and trace == trace_d
                assert T.R.tobytes() == T_d.R.tobytes()
                assert T.t.tobytes() == T_d.t.tobytes()

    def test_small_solve_never_builds_the_pixel_tree(self):
        scene = generate_scene(100, noise=NoiseSpec(seed=0, pixel_noise_sigma=0.5))
        assert len(scene.pixels) * len(scene.cloud) <= chamfer.DENSE_CELLS
        solve_pose_chamfer(perturb_pose(scene.T_gt, 5.0, 0.1, 0), scene.pixels, scene.cloud, K)
        assert scene.pixels._tree is None


# depths behind the camera, exactly at Z_MIN (not in front), one ulp above
# it, and in front; powers of two keep lattice projections exact
DEPTHS = [-1.0, 0.0, Z_MIN, float(np.nextafter(Z_MIN, 1.0)), 0.5, 1.0, 2.0, 4.0]
LATTICE = st.integers(-6, 6)


@st.composite
def search_instances(draw):
    """(T, pixels, cloud, K, tau): pixels on an 8-px lattice, projections on
    it and on its half steps (two- and four-way ties, coincident rays at
    other depths), optionally jittered off it by near-tie amounts."""
    cells = draw(st.lists(st.tuples(LATTICE, LATTICE), min_size=1, max_size=25, unique=True))
    pixels = np.array(cells, dtype=float) * 8.0 + [320.0, 240.0]
    rays = draw(st.lists(st.tuples(LATTICE, LATTICE, st.sampled_from([0.0, 0.5]),
                                   st.sampled_from(DEPTHS)), min_size=1, max_size=25))
    uv = np.array([(a + h, b + h) for a, b, h, _ in rays]) * 8.0
    z = np.array([r[3] for r in rays])
    points = np.column_stack([uv / 512.0 * z[:, None], z])
    jitter = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.25]))
    if jitter:
        signs = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                       min_size=len(points), max_size=len(points))))
        points[:, 0] *= 1.0 + jitter * signs
    T = Pose.identity() if draw(st.booleans()) else perturb_pose(
        Pose.identity(), 1.0, 0.01, draw(st.integers(0, 2**16)))
    tau = draw(st.sampled_from([1.0, 16.0, 64.0, 100.0]))
    return T, KeypointSet2D(pixels), KeypointSet3D(points), K_EXACT, tau


class TestSearchProperties:
    """The projected search on both branches against the dense oracles."""

    @given(search_instances())
    @settings(max_examples=400, deadline=None)
    def test_both_branches_match_the_dense_oracles(self, instance):
        T, kp2d, kp3d, K_, tau = instance
        cfg = InlierConfig(tau=tau)
        try:
            want = chamfer_cost_dense(T, kp2d, kp3d, K_)
        except AllPointsBehindCamera:
            want = None
        with pytest.MonkeyPatch.context() as mp:
            for cells in (0, 2**62):
                mp.setattr(chamfer, "DENSE_CELLS", cells)
                if want is None:
                    with pytest.raises(AllPointsBehindCamera):
                        chamfer_cost(T, kp2d, kp3d, K_)
                else:
                    assert_reports_identical(chamfer_cost(T, kp2d, kp3d, K_), want)
                assert kappa_star(T, kp2d, kp3d, K_, cfg) == kappa_star_dense(
                    T, kp2d, kp3d, K_, cfg
                )


class TestGradient:
    def test_zero_at_perfect_alignment(self):
        scene = generate_scene(50, noise=NoiseSpec(seed=34))
        g = chamfer_grad_twist(scene.T_gt, scene.pixels, scene.cloud, K)
        np.testing.assert_array_equal(g, np.zeros(6))

    def test_matches_finite_differences_off_switch_boundaries(self):
        h = 1e-6
        rng = np.random.default_rng(157)
        checked = 0
        for seed in range(25):
            scene = generate_scene(
                60, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0)
            )
            xi = np.concatenate(
                [rng.normal(scale=0.02, size=3), rng.normal(scale=0.03, size=3)]
            )
            # the gradient at xi = 0 around a pose off the truth
            T0 = se3_exp(xi).compose(scene.T_gt)
            base = assignments_at(np.zeros(6), T0, scene.pixels, scene.cloud)
            stable = all(
                assignments_at(s * h * e, T0, scene.pixels, scene.cloud) == base
                for e in np.eye(6)
                for s in (+1, -1)
            )
            if not stable:
                continue
            g = chamfer_grad_twist(T0, scene.pixels, scene.cloud, K)
            g_num = np.array(
                [
                    (
                        cost_at(h * e, T0, scene.pixels, scene.cloud)
                        - cost_at(-h * e, T0, scene.pixels, scene.cloud)
                    )
                    / (2 * h)
                    for e in np.eye(6)
                ]
            )
            rel = np.linalg.norm(g - g_num) / np.linalg.norm(g_num)
            assert rel <= 1e-5
            checked += 1
        assert checked >= 20

    def test_the_solver_steps_along_the_public_gradient(self, monkeypatch):
        # the first gradient _minimize steps along is chamfer_grad_twist at
        # the start, bit for bit, so grad-check audits the stepped gradient
        gradient, stepped = chamfer._gradient, []

        def recorded(*args):
            out = gradient(*args)
            stepped.append(out[0])
            return out

        for seed, n in ((0, 60), (1, 60), (2, 300)):  # N=300: the k-d tree search
            scene = generate_scene(n, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0))
            T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed)
            stepped.clear()
            with monkeypatch.context() as mp:
                mp.setattr(chamfer, "_gradient", recorded)
                _solve_chamfer(T0, scene.pixels, scene.cloud, K, SolverConfig(max_iters=3))
            want = chamfer_grad_twist(T0, scene.pixels, scene.cloud, K)
            assert stepped[0].tobytes() == want.tobytes()

    def test_pair_jacobian_is_the_chain_rule_product(self):
        # random camera-frame points, with x = 0, y = 0 (also -0.0) or
        # both on some, at depths from just above Z_MIN to far; equal
        # values, a zero equal to a zero of either sign
        rng = np.random.default_rng(163)
        cam = rng.normal(scale=2.0, size=(400, 3))
        cam[:100, 0] = 0.0
        cam[100:200, 1] = 0.0
        cam[200:250, :2] = 0.0
        cam[250:300, :2] = -0.0
        cam[:, 2] = rng.uniform(0.01, 20.0, size=400)
        cam[::40, 2] = np.nextafter(Z_MIN, 1.0)
        for K_ in (K, CameraIntrinsics(500.0, 620.0, 311.5, 250.25)):
            J = chamfer._pair_jacobian(cam, K_)
            assert J.shape == (400, 2, 6)
            np.testing.assert_array_equal(J, pair_jacobian_product(cam, K_))

    def test_solve_residuals_are_the_scalar_pinholes(self):
        # the Chamfer linearization at a pose with part of the cloud behind
        # the camera pairs points in front only; every pair's residual is
        # the scalar pinhole's, and _pair_residuals drops pairs behind
        scene, T = partly_behind_instance()
        report = chamfer_cost(T, scene.pixels, scene.cloud, K)
        x0 = T.apply(scene.cloud.points)
        pixels, points = chamfer._term_pairs(report.assignment, scene.pixels, x0)
        n_visible = np.count_nonzero(report.assignment[1] >= 0)
        assert len(points) == len(scene.pixels) + n_visible < len(scene.pixels) + len(x0)
        for behind in (np.zeros(len(points), dtype=bool), np.arange(len(points)) % 3 == 0):
            cam = points.copy()
            cam[behind, 2] *= -1.0
            residuals, kept = chamfer._pair_residuals(pixels, cam, K)
            front = cam[:, 2] > Z_MIN
            assert kept.tobytes() == cam[front].tobytes()
            assert front.tolist() == (~behind).tolist()
            for r, q, (x, y, z) in zip(residuals, pixels[front], kept):
                assert r[0] == q[0] - (K.fu * x / z + K.cu)
                assert r[1] == q[1] - (K.fv * y / z + K.cv)
        with pytest.raises(AllPointsBehindCamera):
            chamfer._pair_residuals(np.zeros((0, 2)), np.zeros((0, 3)), K)

    def test_single_point_translation_block_by_hand(self):
        p = np.array([0.3, -0.2, 2.5])
        kp3d = KeypointSet3D(p[None, :])
        q = np.array([400.0, 200.0])
        kp2d = KeypointSet2D(q[None, :])
        v = np.array([0.05, -0.02, 0.03])
        # at xi = 0 around the pose that translates by v
        g = chamfer_grad_twist(Pose(np.eye(3), v), kp2d, kp3d, K)

        # cost = 2 ||q - pi(p + v)||^2; expand the chain rule by hand
        x, y, z = p + v
        u_pix = K.fu * x / z + K.cu
        v_pix = K.fv * y / z + K.cv
        ru, rv = q[0] - u_pix, q[1] - v_pix
        J_pi = np.array(
            [
                [K.fu / z, 0.0, -K.fu * x / z**2],
                [0.0, K.fv / z, -K.fv * y / z**2],
            ]
        )
        want = -4.0 * (np.array([ru, rv]) @ J_pi)
        np.testing.assert_allclose(g[3:], want, rtol=1e-12)


class TestSolver:
    def test_start_at_truth_returns_unchanged(self):
        scene = generate_scene(80, noise=NoiseSpec(seed=36))
        T_hat, trace = solve_pose_chamfer(
            scene.T_gt, scene.pixels, scene.cloud, K
        )
        assert poses_close(T_hat, scene.T_gt, atol=0.0)
        assert len(trace) == 1
        assert trace[0].cost == 0.0

    def test_recovers_from_standard_perturbation(self):
        scene = generate_scene(200, noise=NoiseSpec(seed=37))
        T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed=1037)
        T_hat, trace = solve_pose_chamfer(
            T0, scene.pixels, scene.cloud, K, SolverConfig(max_iters=200)
        )
        rot, trans = pose_difference(T_hat, scene.T_gt)
        assert rot <= 0.1
        assert trans <= 1e-3
        assert len(trace) <= 201

    def test_outlier_instance_improves_and_stays_close(self):
        # 10% outlier pixels; tolerance from a pilot run of seeds 0-9,
        # worst rotation error observed 0.213 deg
        scene = generate_scene(200, noise=NoiseSpec(seed=3, outlier_rate=0.1))
        T0 = perturb_pose(scene.T_gt, 3.0, 0.05, seed=2003)
        c0 = chamfer_cost(T0, scene.pixels, scene.cloud, K).value
        T_hat, trace = solve_pose_chamfer(
            T0, scene.pixels, scene.cloud, K, SolverConfig(max_iters=200)
        )
        rot, _ = pose_difference(T_hat, scene.T_gt)
        assert trace[-1].cost < c0
        assert rot <= 1.0

    def test_trace_monotone_nonincreasing(self):
        scene = generate_scene(
            120, noise=NoiseSpec(seed=38, pixel_noise_sigma=1.0, outlier_rate=0.1)
        )
        T0 = perturb_pose(scene.T_gt, 4.0, 0.08, seed=2038)
        _, trace = solve_pose_chamfer(
            T0, scene.pixels, scene.cloud, K, SolverConfig(max_iters=100)
        )
        costs = [row.cost for row in trace]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        # only the last accepted step may leave the cost where it was
        for prev, row in zip(trace, trace[1:-1]):
            if row.step_size > 0:
                assert row.cost < prev.cost

    def test_noisy_solve_stops_well_below_max_iters(self):
        cfg = SolverConfig()
        for seed in range(5):
            scene = generate_scene(
                200, noise=NoiseSpec(seed=seed, pixel_noise_sigma=0.5)
            )
            T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed=3000 + seed)
            _, trace, reason = _solve_chamfer(T0, scene.pixels, scene.cloud, K, cfg)
            assert reason == "converged"
            assert trace[-1].iteration <= cfg.max_iters // 4

    def test_clean_solve_stops_at_cost_tol_on_the_truth(self):
        for seed in range(5):
            scene = generate_scene(200, noise=NoiseSpec(seed=seed))
            T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed=1000 + seed)
            T_hat, _, reason = _solve_chamfer(
                T0, scene.pixels, scene.cloud, K, SolverConfig()
            )
            assert reason == "cost_tol"
            np.testing.assert_allclose(T_hat.R, scene.T_gt.R, rtol=0, atol=1e-9)
            np.testing.assert_allclose(T_hat.t, scene.T_gt.t, rtol=0, atol=1e-9)

    def test_divergence_when_no_step_possible(self, monkeypatch):
        monkeypatch.setattr(chamfer, "MAX_BACKTRACKS", 0)
        scene = generate_scene(60, noise=NoiseSpec(seed=40))
        T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed=2040)
        with pytest.raises(Divergence):
            solve_pose_chamfer(
                T0,
                scene.pixels,
                scene.cloud,
                K,
                SolverConfig(max_iters=50),
            )

    def test_failed_line_search_is_not_repeated(self, monkeypatch):
        # with two trials per search this solve meets a line search that
        # accepts no step; the loop is deterministic, so a retry from the
        # same pose would evaluate the same trial poses again
        monkeypatch.setattr(chamfer, "MAX_BACKTRACKS", 2)
        seen = []
        cost = chamfer.chamfer_cost

        def counted(T, *args):
            seen.append(T.R.tobytes() + T.t.tobytes())
            return cost(T, *args)

        monkeypatch.setattr(chamfer, "chamfer_cost", counted)
        scene = generate_scene(
            100, noise=NoiseSpec(seed=0, pixel_noise_sigma=0.5, outlier_rate=0.2)
        )
        T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed=0)
        with pytest.raises(Divergence, match="line search stalled with gradient norm"):
            _solve_chamfer(T0, scene.pixels, scene.cloud, K, SolverConfig())
        assert len(seen) == len(set(seen))

    def test_trace_records_ground_truth_errors(self, tmp_path):
        scene = generate_scene(80, noise=NoiseSpec(seed=41))
        T0 = perturb_pose(scene.T_gt, 3.0, 0.05, seed=2041)
        _, trace = solve_pose_chamfer(
            T0, scene.pixels, scene.cloud, K, T_gt=scene.T_gt
        )
        assert trace[0].rot_err_deg == pytest.approx(3.0, abs=1e-9)
        assert trace[0].trans_err_m == pytest.approx(0.05, abs=1e-12)
        assert trace[-1].rot_err_deg < trace[0].rot_err_deg

        path = tmp_path / "trace.csv"
        save_trace_csv(path, trace)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,cost,step_size,rot_err_deg,trans_err_m"
        assert len(lines) == len(trace) + 1

    def test_solver_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", None])
    def test_solver_config_refuses_a_non_integer_cap(self, value):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_solver_config_takes_python_and_numpy_integers(self, value):
        assert SolverConfig(max_iters=value).max_iters == 3
