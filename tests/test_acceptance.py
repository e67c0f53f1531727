"""Acceptance gate: ten criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every criterion states its own tolerance and runtime budget; the
asserts enforce both.
"""

import time

import numpy as np

from mincdpnp import (
    CameraIntrinsics,
    CorrespondenceSet,
    InlierConfig,
    KeypointSet2D,
    KeypointSet3D,
    MatchConfig,
    MetricConfig,
    NoiseSpec,
    Pose,
    RansacConfig,
    ScenePair,
    SelectConfig,
    SolverConfig,
    chamfer_cost,
    chamfer_grad_twist,
    check_inequality8,
    evaluate_selection,
    generate_scene,
    inlier_ratio,
    kappa,
    kappa_star,
    match_scene,
    nearest_features,
    perturb_pose,
    pnp_ransac,
    pose_difference,
    registration_success,
    reprojection_cost,
    reprojection_grad_twist,
    se3_exp,
    solve_pose_chamfer,
    tau_criterion,
)
from mincdpnp.cli import main as cli_main
from mincdpnp.synth import random_pose

from oracles import (
    chamfer_cost_bruteforce,
    kappa_bruteforce,
    kappa_star_bruteforce,
    match_pairs_bruteforce,
    nearest_match_bruteforce,
)

K585 = CameraIntrinsics(585.0, 585.0, 320.0, 240.0)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold_bound_constant():
    """Closed-form inlier-threshold bound at the reference camera."""
    bound = tau_criterion(0.05, K585, 10.0)
    ok = bound == 8.555625 and 5.0 <= bound
    report(1, ok, f"bound {bound!r}, default tau 5 within it")


def test_criterion_02_inlier_bound_holds_everywhere():
    """kappa never exceeds kappa_star over random one-to-one matchings."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for i in range(1000):
        n = int(rng.integers(4, 65))
        scene = generate_scene(
            n,
            noise=NoiseSpec(
                seed=10_000 + i,
                pixel_noise_sigma=float(rng.uniform(0.0, 3.0)),
                outlier_rate=float(rng.uniform(0.0, 0.4)),
            ),
            feature_dim=8,
        )
        perm = rng.permutation(n)
        C = CorrespondenceSet(np.arange(n), perm)
        T = (
            scene.T_gt
            if i % 2 == 0
            else random_pose(np.random.default_rng(20_000 + i))
        )
        cfg = InlierConfig(tau=float(rng.uniform(0.5, 50.0)))
        _, _, holds = check_inequality8(T, C, scene.pixels, scene.cloud, scene.K, cfg)
        violations += 0 if holds else 1
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt <= 10.0
    report(2, ok, f"1000 instances, {violations} violations, {dt:.1f}s (<=10s)")


def test_criterion_03_perfect_instances_saturate():
    """Noiseless bijective scenes: relaxed count 2N, zero Chamfer cost."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    bad = []
    for seed in range(100):
        n = int(rng.integers(10, 101))
        s = generate_scene(n, noise=NoiseSpec(seed=seed))
        ks = kappa_star(s.T_gt, s.pixels, s.cloud, s.K)
        cd = chamfer_cost(s.T_gt, s.pixels, s.cloud, s.K).value
        if ks != 2 * n or cd != 0.0:
            bad.append((seed, ks, 2 * n, cd))
    dt = time.perf_counter() - t0
    ok = not bad and dt <= 5.0
    report(3, ok, f"100 seeds exact (2N and 0.0 bitwise), {dt:.1f}s (<=5s)")


def _fd_gradient(cost_at, h):
    g = np.zeros(6)
    for k in range(6):
        xi = np.zeros(6)
        xi[k] = h
        g[k] = (cost_at(xi) - cost_at(-xi)) / (2.0 * h)
    return g


def _assignments_stable(T0, image_set, cloud_set, K, h):
    base = chamfer_cost(T0, image_set, cloud_set, K).assignment
    ref = base[0].tobytes() + base[1].tobytes()
    for i in range(6):
        for sign in (-1.0, 1.0):
            xi = np.zeros(6)
            xi[i] = sign * h
            T = se3_exp(xi).compose(T0)
            a = chamfer_cost(T, image_set, cloud_set, K).assignment
            if a[0].tobytes() + a[1].tobytes() != ref:
                return False
    return True


def test_criterion_04_gradients_match_finite_differences():
    """Both analytic twist gradients agree with central differences."""
    t0 = time.perf_counter()
    h = 1e-6
    worst_cd = worst_pnp = 0.0
    found_cd = found_pnp = 0
    seed = 0
    while (found_cd < 100 or found_pnp < 100) and seed < 400:
        seed += 1
        s = generate_scene(20, noise=NoiseSpec(seed=seed, pixel_noise_sigma=1.0))
        T0 = perturb_pose(s.T_gt, 3.0, 0.05, seed)

        if found_pnp < 100:
            def pnp_cost(xi):
                T = se3_exp(xi).compose(T0)
                return reprojection_cost(T, s.gt_pairs, s.pixels, s.cloud, s.K)

            got = reprojection_grad_twist(T0, s.gt_pairs, s.pixels, s.cloud, s.K)
            want = _fd_gradient(pnp_cost, h)
            worst_pnp = max(
                worst_pnp, np.linalg.norm(got - want) / np.linalg.norm(want)
            )
            found_pnp += 1

        if found_cd < 100 and _assignments_stable(T0, s.pixels, s.cloud, s.K, h):
            def cd_cost(xi):
                T = se3_exp(xi).compose(T0)
                return chamfer_cost(T, s.pixels, s.cloud, s.K).value

            got = chamfer_grad_twist(T0, s.pixels, s.cloud, s.K)
            want = _fd_gradient(cd_cost, h)
            worst_cd = max(
                worst_cd, np.linalg.norm(got - want) / np.linalg.norm(want)
            )
            found_cd += 1
    dt = time.perf_counter() - t0
    ok = (
        found_cd == 100
        and found_pnp == 100
        and worst_cd <= 1e-5
        and worst_pnp <= 1e-5
        and dt <= 30.0
    )
    report(
        4,
        ok,
        f"100+100 instances, worst rel err chamfer {worst_cd:.2e} / "
        f"fixed-pair {worst_pnp:.2e} (<=1e-5), {dt:.1f}s (<=30s)",
    )


def test_criterion_05_chamfer_pose_recovery():
    """Local solver pulls a 5 deg / 0.1 m start back to the truth."""
    t0 = time.perf_counter()
    hits = 0
    worst = (0.0, 0.0)
    for seed in range(100):
        s = generate_scene(200, noise=NoiseSpec(seed=seed))
        T_init = perturb_pose(s.T_gt, 5.0, 0.1, seed)
        T, trace = solve_pose_chamfer(
            T_init, s.pixels, s.cloud, s.K, SolverConfig(max_iters=200)
        )
        rot, trans = pose_difference(T, s.T_gt)
        if rot <= 0.1 and trans <= 1e-3 and trace[-1].iteration <= 200:
            hits += 1
        else:
            worst = max(worst, (rot, trans))
    dt = time.perf_counter() - t0
    ok = hits >= 95 and dt <= 60.0
    report(
        5,
        ok,
        f"{hits}/100 seeds within 0.1 deg / 1e-3 m in <=200 iters "
        f"(worst miss {worst[0]:.2f} deg), {dt:.1f}s (<=60s)",
    )


def test_criterion_06_ransac_with_half_outliers():
    """Consensus PnP stays accurate when half the pairs are wrong."""
    t0 = time.perf_counter()
    hits = 0
    for seed in range(100):
        s = generate_scene(200, noise=NoiseSpec(seed=seed, outlier_rate=0.5))
        C = s.pairs_with_outliers()
        T, _ = pnp_ransac(
            C, s.pixels, s.cloud, s.K, RansacConfig(seed=seed, iterations=1000)
        )
        rot, trans = pose_difference(T, s.T_gt)
        if rot <= 0.5 and trans <= 5e-3:
            hits += 1
    dt = time.perf_counter() - t0
    ok = hits >= 95 and dt <= 60.0
    report(6, ok, f"{hits}/100 seeds within 0.5 deg / 5e-3 m, {dt:.1f}s (<=60s)")


def test_criterion_07_selection_nested_and_recall_monotone():
    """Selections grow with the confidence threshold and recall follows."""
    t0 = time.perf_counter()
    sweep = np.exp([-0.5, -0.4, -0.3, -0.2])
    nested_ok = True
    monotone_ok = True
    mean_recall = np.zeros(len(sweep))
    n_scenes = 10
    for seed in range(n_scenes):
        s = generate_scene(60, noise=NoiseSpec(seed=seed, feature_noise_sigma=0.55))
        prev_sel: set = set()
        prev_recall = -1.0
        for col, s_th in enumerate(sweep):
            rep = evaluate_selection(
                s.pixels, s.cloud, s.T_gt, s.K, SelectConfig(s_th=float(s_th))
            )
            cur = set(int(j) for j in rep.selected.cloud_indices)
            nested_ok &= prev_sel <= cur
            monotone_ok &= rep.recall >= prev_recall
            mean_recall[col] += rep.recall / n_scenes
            prev_sel, prev_recall = cur, rep.recall
    trend_ok = mean_recall[-1] > mean_recall[0]
    dt = time.perf_counter() - t0
    ok = nested_ok and monotone_ok and trend_ok and dt <= 10.0
    report(
        7,
        ok,
        f"nested={nested_ok}, recall monotone={monotone_ok}, mean recall "
        f"{mean_recall[0]:.3f}->{mean_recall[-1]:.3f} over the sweep, "
        f"{dt:.1f}s (<=10s)",
    )


def test_criterion_08_metric_sanity():
    """IR saturates on truth, RR accepts truth and grows with threshold."""
    t0 = time.perf_counter()
    ir_ok = all(
        inlier_ratio(s.gt_pairs, s) == 1.0
        for s in (
            generate_scene(40, noise=NoiseSpec(seed=seed)) for seed in range(20)
        )
    )

    s0 = generate_scene(40, noise=NoiseSpec(seed=99))
    gt_ok = all(
        registration_success(s0.T_gt, s0, MetricConfig(rr_threshold_m=thr))[1]
        for thr in (1e-9, 1e-3, 0.05, 0.1, 1.0)
    )

    rng = np.random.default_rng(8)
    batch = []
    for seed in range(50):
        s = generate_scene(30, noise=NoiseSpec(seed=seed))
        T_est = perturb_pose(
            s.T_gt, float(rng.uniform(0, 1.0)), float(rng.uniform(0, 0.15)), seed
        )
        batch.append((T_est, s))
    thresholds = (0.01, 0.02, 0.05, 0.1, 0.2)
    rr = [
        np.mean(
            [
                registration_success(T, s, MetricConfig(rr_threshold_m=thr))[1]
                for T, s in batch
            ]
        )
        for thr in thresholds
    ]
    monotone_ok = all(a <= b for a, b in zip(rr, rr[1:]))
    dt = time.perf_counter() - t0
    ok = ir_ok and gt_ok and monotone_ok and dt <= 10.0
    report(
        8,
        ok,
        f"IR=1.0 on 20 scenes, truth registers at all thresholds, "
        f"RR {rr[0]:.2f}->{rr[-1]:.2f} monotone over 50 scenes, {dt:.1f}s (<=10s)",
    )


def test_criterion_09_oracle_equivalence():
    """Vectorized cost, count, and matcher paths match scalar loops."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    counts_ok = True
    for i in range(50):
        m = int(rng.integers(3, 33))
        n = int(rng.integers(3, 33))
        dim = 8
        pixels = rng.uniform(0, 640, size=(m, 2))
        f2d = rng.normal(size=(m, dim))
        points = rng.normal(size=(n, 3)) * [1.0, 1.0, 0.5] + [0, 0, 4.0]
        f3d = rng.normal(size=(n, dim))
        kp2d = KeypointSet2D(pixels, f2d)
        kp3d = KeypointSet3D(points, f3d)
        T = perturb_pose(Pose.identity(), 5.0, 0.1, 900 + i)
        tau = float(rng.uniform(1.0, 30.0))
        cfg = InlierConfig(tau=tau)

        k = min(m, n)
        C = CorrespondenceSet(
            rng.choice(m, size=k, replace=False), rng.choice(n, size=k, replace=False)
        )
        Cmat = np.zeros((m, n), dtype=bool)
        Cmat[C.idx2d, C.idx3d] = True
        ka = kappa(T, C, kp2d, kp3d, K585, InlierConfig(tau=tau))
        ka_want = kappa_bruteforce(
            pixels, points, Cmat, T.R, T.t, 585.0, 585.0, 320.0, 240.0, tau
        )
        counts_ok &= ka == ka_want

        ks = kappa_star(T, kp2d, kp3d, K585, cfg)
        ks_want = kappa_star_bruteforce(
            pixels, points, T.R, T.t, 585.0, 585.0, 320.0, 240.0, tau
        )
        counts_ok &= ks == ks_want

        cd = chamfer_cost(T, kp2d, kp3d, K585).value
        cd_want = chamfer_cost_bruteforce(
            pixels, points, T.R, T.t, 585.0, 585.0, 320.0, 240.0
        )
        worst = max(worst, abs(cd - cd_want) / max(1.0, abs(cd_want)))

        # the pipeline's matcher: every row's nearest 3D feature, then
        # match_scene's score <= delta cut at a few deltas
        best, score = nearest_features(f2d, f3d)
        want = nearest_match_bruteforce(f2d, f3d)
        counts_ok &= best.tolist() == [j2 for j2, _ in want]
        worst = max(worst, max(abs(s2 - w2) for s2, (_, w2) in zip(score, want)))
        nearest = {(i2, j2) for i2, (j2, _) in enumerate(want)}
        scene = ScenePair(
            kp3d, kp2d, T, K585, np.full(m, np.nan), CorrespondenceSet([], []), {}
        )
        pairs = match_pairs_bruteforce(f2d, f3d, 1.3)
        for delta in (0.5, 1.0, 1.3):
            got_pairs = match_scene(scene, MatchConfig(delta=delta)).pairs()
            want_pairs = {(i2, j2) for i2, j2, d in pairs if d <= delta} & nearest
            counts_ok &= got_pairs == want_pairs
    dt = time.perf_counter() - t0
    ok = counts_ok and worst <= 1e-9 and dt <= 10.0
    report(
        9,
        ok,
        f"50 instances: counts exact, worst value gap {worst:.1e} (<=1e-9), "
        f"{dt:.1f}s (<=10s)",
    )


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Identical seeds and flags reproduce every artifact byte for byte."""
    outputs = {}
    for run in ("a", "b"):
        root = tmp_path / run
        root.mkdir()
        scenes = root / "scenes"
        assert (
            cli_main(
                ["synth", "--out", str(scenes), "--n-scenes", "2",
                 "--n-points", "60", "--seed", "3"]
            )
            == 0
        )
        assert (
            cli_main(
                ["match", "--scene", str(scenes / "scene_0000"),
                 "--out", str(root / "pairs.csv")]
            )
            == 0
        )
        assert (
            cli_main(
                ["solve-chamfer", "--scene", str(scenes / "scene_0000"),
                 "--out", str(root / "pose_cd.json"),
                 "--trace", str(root / "trace.csv")]
            )
            == 0
        )
        assert (
            cli_main(
                ["solve-pnp", "--scene", str(scenes / "scene_0000"),
                 "--out", str(root / "pose_pnp.json")]
            )
            == 0
        )
        assert (
            cli_main(
                ["eval", "--gen", "3", "--n-points", "50",
                 "--outlier-rate", "0.2", "--seed", "7",
                 "--out", str(root / "records.jsonl"),
                 "--summary", str(root / "summary.json")]
            )
            == 0
        )
        assert cli_main(["grad-check", "--n-instances", "3"]) == 0
        assert cli_main(["bound-check", "--n-instances", "10"]) == 0
        # The streams echo the output paths, which differ per run by
        # construction; byte-compare everything else about them.
        stdout = capsys.readouterr().out.replace(str(root), "<root>")

        blob = {"stdout": stdout}
        for rel in (
            "scenes/scene_0000/pixels.npy",
            "scenes/scene_0000/features_2d.npy",
            "scenes/scene_0000/pose_gt.json",
            "scenes/scene_0001/cloud.ply",
            "pairs.csv",
            "pose_cd.json",
            "trace.csv",
            "pose_pnp.json",
            "records.jsonl",
            "summary.json",
        ):
            blob[rel] = (root / rel).read_bytes()
        outputs[run] = blob

    mismatched = [k for k in outputs["a"] if outputs["a"][k] != outputs["b"][k]]
    ok = not mismatched
    report(
        10,
        ok,
        f"{len(outputs['a']) - 1} artifacts plus stdout identical across reruns"
        + ("" if ok else f"; mismatched: {mismatched}"),
    )
