import numpy as np
import pytest

from mincdpnp import (
    AllPointsBehindCamera,
    Divergence,
    EmptySet,
    KeypointSet2D,
    KeypointSet3D,
    LossWeights,
    NoiseSpec,
    NonFiniteInput,
    Pose,
    SolverConfig,
    Twist,
    chamfer_cost,
    chamfer_grad_twist,
    generate_scene,
    mincd_objective,
    perturb_pose,
    pose_difference,
    project_points,
    save_trace_csv,
    se3_exp,
    solve_pose_chamfer,
)
from mincdpnp.chamfer import _frozen_terms, _solve_chamfer
from mincdpnp.synth import DEFAULT_INTRINSICS as K

from oracles import chamfer_cost_bruteforce


def cost_at(xi_vec, T0, kp2d, kp3d):
    T = se3_exp(Twist.from_vector(xi_vec)).compose(T0)
    return chamfer_cost(T, kp2d, kp3d, K).value


def assignments_at(xi_vec, T0, kp2d, kp3d):
    report, _, _ = _frozen_terms(np.asarray(xi_vec, dtype=float), T0, kp2d, kp3d, K)
    f, b = report.assignment
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

    def test_behind_camera_penalty_mode(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -3.0]]))
        proj, _ = project_points(kp3d.points[:1], Pose.identity(), K)
        kp2d = KeypointSet2D(proj)
        report = chamfer_cost(Pose.identity(), kp2d, kp3d, K, behind_penalty=100.0)
        assert report.value == pytest.approx(100.0, abs=1e-12)
        assert report.backward_terms[1] == 100.0

    def test_all_behind_raises(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, -2.0]]))
        kp2d = KeypointSet2D(np.array([[320.0, 240.0]]))
        with pytest.raises(AllPointsBehindCamera):
            chamfer_cost(Pose.identity(), kp2d, kp3d, K)

    def test_empty_sets_raise(self):
        kp3d = KeypointSet3D(np.array([[0.0, 0.0, 2.0]]))
        with pytest.raises(EmptySet):
            chamfer_cost(Pose.identity(), KeypointSet2D(np.zeros((0, 2))), kp3d, K)


class TestGradient:
    def test_zero_at_perfect_alignment(self):
        scene = generate_scene(50, noise=NoiseSpec(seed=34))
        g = chamfer_grad_twist(Twist.zero(), scene.T_gt, scene.pixels, scene.cloud, K)
        np.testing.assert_array_equal(g, np.zeros(6))

    def test_matches_finite_differences_off_switch_boundaries(self):
        h = 1e-6
        rng = np.random.default_rng(157)
        checked = 0
        for seed in range(25):
            scene = generate_scene(
                60, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0)
            )
            T0 = scene.T_gt
            xi = np.concatenate(
                [rng.normal(scale=0.02, size=3), rng.normal(scale=0.03, size=3)]
            )
            base = assignments_at(xi, T0, scene.pixels, scene.cloud)
            stable = all(
                assignments_at(xi + s * h * e, T0, scene.pixels, scene.cloud) == base
                for e in np.eye(6)
                for s in (+1, -1)
            )
            if not stable:
                continue
            g = chamfer_grad_twist(
                Twist.from_vector(xi), T0, scene.pixels, scene.cloud, K
            )
            g_num = np.array(
                [
                    (
                        cost_at(xi + h * e, T0, scene.pixels, scene.cloud)
                        - cost_at(xi - h * e, T0, scene.pixels, scene.cloud)
                    )
                    / (2 * h)
                    for e in np.eye(6)
                ]
            )
            rel = np.linalg.norm(g - g_num) / np.linalg.norm(g_num)
            assert rel <= 1e-5
            checked += 1
        assert checked >= 20

    def test_single_point_translation_block_by_hand(self):
        p = np.array([0.3, -0.2, 2.5])
        kp3d = KeypointSet3D(p[None, :])
        q = np.array([400.0, 200.0])
        kp2d = KeypointSet2D(q[None, :])
        v = np.array([0.05, -0.02, 0.03])
        xi = Twist(omega=np.zeros(3), v=v)
        g = chamfer_grad_twist(xi, Pose.identity(), kp2d, kp3d, K)

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

    def test_accepts_plain_vector(self):
        scene = generate_scene(20, noise=NoiseSpec(seed=35))
        a = chamfer_grad_twist(Twist.zero(), scene.T_gt, scene.pixels, scene.cloud, K)
        b = chamfer_grad_twist(np.zeros(6), scene.T_gt, scene.pixels, scene.cloud, K)
        np.testing.assert_array_equal(a, b)


class TestSolver:
    def test_start_at_truth_returns_unchanged(self):
        scene = generate_scene(80, noise=NoiseSpec(seed=36))
        T_hat, trace = solve_pose_chamfer(
            scene.T_gt, scene.pixels, scene.cloud, K
        )
        assert T_hat.almost_equal(scene.T_gt, atol=0.0)
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

    def test_gradient_descent_mode_decreases_cost(self):
        scene = generate_scene(100, noise=NoiseSpec(seed=39))
        T0 = perturb_pose(scene.T_gt, 2.0, 0.05, seed=2039)
        c0 = chamfer_cost(T0, scene.pixels, scene.cloud, K).value
        T_hat, trace = solve_pose_chamfer(
            T0,
            scene.pixels,
            scene.cloud,
            K,
            SolverConfig(max_iters=150, method="gd", step_init=1e-6),
        )
        assert trace[-1].cost < 0.5 * c0

    def test_divergence_when_no_step_possible(self):
        scene = generate_scene(60, noise=NoiseSpec(seed=40))
        T0 = perturb_pose(scene.T_gt, 5.0, 0.1, seed=2040)
        with pytest.raises(Divergence):
            solve_pose_chamfer(
                T0,
                scene.pixels,
                scene.cloud,
                K,
                SolverConfig(max_iters=50, max_backtracks=0),
            )

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
        with pytest.raises(ValueError):
            SolverConfig(cost_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(method="newton")
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)


class TestObjective:
    def test_corr_only(self):
        assert mincd_objective(1.0, 0.0, 0.0) == 1.0

    def test_reference_weights_example(self):
        got = mincd_objective(0.0, -5.0, 100.0, LossWeights(lambda1=0.2, lambda2=1e-4))
        assert got == pytest.approx(-0.99, abs=1e-12)

    def test_random_affine_combination(self):
        rng = np.random.default_rng(163)
        for _ in range(30):
            c, k, ch = rng.normal(size=3)
            l1, l2 = rng.uniform(0, 1, size=2)
            got = mincd_objective(c, k, ch, LossWeights(lambda1=l1, lambda2=l2))
            assert got == pytest.approx(c + l1 * k + l2 * ch, rel=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            mincd_objective(np.nan, 0.0, 0.0)
        with pytest.raises(NonFiniteInput):
            mincd_objective(0.0, np.inf, 0.0)

    def test_default_weights(self):
        w = LossWeights()
        assert w.lambda1 == 0.2
        assert w.lambda2 == 1e-4

    def test_warmup_schedule(self):
        for epoch in range(20):
            w = LossWeights.for_epoch(epoch)
            assert w.lambda1 == 0.0 and w.lambda2 == 0.0
        after = LossWeights.for_epoch(20)
        assert after.lambda1 == 0.2 and after.lambda2 == 1e-4

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda1=-0.1)
