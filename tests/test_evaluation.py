import dataclasses
import json

import numpy as np
import pytest

from mincdpnp import (
    CorrespondenceSet,
    Divergence,
    EmptySet,
    EvalRecord,
    KeypointSet3D,
    MatchConfig,
    MissingDepth,
    NoiseSpec,
    Pose,
    generate_scene,
    inlier_ratio,
    match_scene,
    perturb_pose,
    registration_success,
    run_pipeline,
    summary_from_records,
    summary_markdown,
    write_records_jsonl,
)

from mincdpnp import evaluation

from oracles import inlier_ratio_bruteforce, nearest_match_bruteforce


def batch(seeds, n=40, **noise):
    return [
        (f"scene_{i:04d}", generate_scene(n, noise=NoiseSpec(seed=i, **noise)))
        for i in seeds
    ]


def count_matches(monkeypatch):
    """Patch the pipeline's match_scene to log each scene it matches."""
    matched = []

    def logged(scene, *args):
        matched.append(scene)
        return match_scene(scene, *args)

    monkeypatch.setattr(evaluation, "match_scene", logged)
    return matched


def count_inlier_ratios(monkeypatch):
    """Patch the pipeline's inlier_ratio to log each scene it grades."""
    graded = []

    def logged(C, scene):
        graded.append(scene)
        return inlier_ratio(C, scene)

    monkeypatch.setattr(evaluation, "inlier_ratio", logged)
    return graded


class TestInlierRatio:
    def test_ground_truth_pairs_noiseless_exactly_one(self):
        for seed in range(5):
            s = generate_scene(30, noise=NoiseSpec(seed=seed))
            assert inlier_ratio(s.gt_pairs, s) == 1.0

    def test_half_wrong_pairs(self):
        s = generate_scene(40, noise=NoiseSpec(seed=3))
        j = np.array(s.gt_pairs.idx3d)
        j[:20] = (j[:20] + 7) % len(s.cloud)
        half = CorrespondenceSet(s.gt_pairs.idx2d, j)
        assert inlier_ratio(half, s) == 0.5

    def test_matches_backprojection_oracle(self):
        for seed in range(5):
            s = generate_scene(
                50, noise=NoiseSpec(seed=seed, pixel_noise_sigma=2.0, outlier_rate=0.2)
            )
            C = s.pairs_with_outliers()
            got = inlier_ratio(C, s)
            want = inlier_ratio_bruteforce(
                s.pixels.pixels,
                s.depth,
                s.cloud.points,
                C.idx2d,
                C.idx3d,
                s.T_gt.R,
                s.T_gt.t,
                s.K.fu,
                s.K.fv,
                s.K.cu,
                s.K.cv,
                0.05,
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_missing_depth(self):
        s = generate_scene(10, noise=NoiseSpec(seed=1))
        depth = np.array(s.depth)
        depth[2] = np.nan
        broken = dataclasses.replace(s, depth=depth)
        with pytest.raises(MissingDepth):
            inlier_ratio(broken.gt_pairs, broken)

    def test_empty_pairs(self):
        s = generate_scene(10, noise=NoiseSpec(seed=2))
        with pytest.raises(EmptySet):
            inlier_ratio(CorrespondenceSet([], []), s)

    def test_threshold_monotone(self, monkeypatch):
        s = generate_scene(60, noise=NoiseSpec(seed=9, outlier_rate=0.3))
        C = s.pairs_with_outliers()
        monkeypatch.setattr(evaluation, "IR_THRESHOLD_M", 0.5)
        loose = inlier_ratio(C, s)
        monkeypatch.setattr(evaluation, "IR_THRESHOLD_M", 0.01)
        tight = inlier_ratio(C, s)
        assert tight <= loose


class TestRegistrationSuccess:
    def test_ground_truth_is_success(self):
        s = generate_scene(25, noise=NoiseSpec(seed=4))
        rmse, ok = registration_success(s.T_gt, s)
        assert rmse == 0.0
        assert ok

    def test_pure_translation_is_exact(self):
        s = generate_scene(25, noise=NoiseSpec(seed=5))
        # probes off the 0.05 boundary: the RMSE matches d only to
        # rounding, so equality at the threshold could flip either way
        for d, want in ((0.01, True), (0.049, True), (0.2, False)):
            T = Pose(s.T_gt.R, s.T_gt.t + np.array([d, 0.0, 0.0]))
            rmse, ok = registration_success(T, s)
            assert rmse == pytest.approx(d, abs=1e-12)
            assert ok == want

    def test_success_sets_nested_across_thresholds(self, monkeypatch):
        scenes = batch(range(8), n=30)
        at_5cm, at_10cm = set(), set()
        for i, (sid, s) in enumerate(scenes):
            T = perturb_pose(s.T_gt, rot_deg=0.5, trans_m=0.04, seed=i)
            monkeypatch.setattr(evaluation, "RR_THRESHOLD_M", 0.05)
            if registration_success(T, s)[1]:
                at_5cm.add(sid)
            monkeypatch.setattr(evaluation, "RR_THRESHOLD_M", 0.1)
            if registration_success(T, s)[1]:
                at_10cm.add(sid)
        assert at_5cm <= at_10cm

    def test_empty_cloud(self):
        s = generate_scene(10, noise=NoiseSpec(seed=7))
        empty = dataclasses.replace(s, cloud=KeypointSet3D(np.zeros((0, 3))))
        with pytest.raises(EmptySet):
            registration_success(s.T_gt, empty)


class TestMatchScene:
    def test_noiseless_recovers_ground_truth(self):
        s = generate_scene(30, noise=NoiseSpec(seed=8))
        C = match_scene(s)
        assert C.pairs() == s.gt_pairs.pairs()

    def test_matches_bruteforce_nearest(self):
        s = generate_scene(25, noise=NoiseSpec(seed=9, feature_noise_sigma=0.4))
        C = match_scene(s)
        want = {}
        for q, (j, score) in enumerate(
            nearest_match_bruteforce(s.pixels.features, s.cloud.features)
        ):
            if score <= 0.5:
                want[q] = j
        assert {int(i): int(j) for i, j in zip(C.idx2d, C.idx3d)} == want


class TestRunPipeline:
    def test_noiseless_pnp_batch_all_succeed(self):
        recs, errs = run_pipeline(batch(range(5)), solver="pnp")
        assert errs == []
        assert len(recs) == 5
        for r in recs:
            assert r.ir == 1.0
            assert r.rr_success
            assert r.solver == "pnp"

    def test_chamfer_batch_registers_every_scene(self):
        # fixed batch: 100-point noiseless scenes, seeds 0-9, default
        # 5 degree / 0.1 m starts, all verified to converge
        recs, errs = run_pipeline(batch(range(10), n=100), solver="chamfer")
        assert errs == []
        assert [r.rr_success for r in recs] == [True] * 10

    def test_both_emits_two_records_per_scene(self):
        recs, _ = run_pipeline(batch(range(3)), solver="both")
        assert [(r.scene_id, r.solver) for r in recs] == [
            ("scene_0000", "chamfer"),
            ("scene_0000", "pnp"),
            ("scene_0001", "chamfer"),
            ("scene_0001", "pnp"),
            ("scene_0002", "chamfer"),
            ("scene_0002", "pnp"),
        ]

    def test_record_order_canonical_whatever_input_order(self):
        scenes = batch(range(4))
        recs_fwd, _ = run_pipeline(scenes)
        recs_rev, _ = run_pipeline(list(reversed(scenes)))
        assert [r.scene_id for r in recs_fwd] == [r.scene_id for r in recs_rev]
        assert [r.to_json_dict() for r in recs_fwd] == [
            r.to_json_dict() for r in recs_rev
        ]

    def test_deterministic_reruns(self):
        scenes = batch(range(4), outlier_rate=0.2)
        a, _ = run_pipeline(scenes, solver="both")
        b, _ = run_pipeline(scenes, solver="both")
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_scene_error_does_not_abort_batch(self):
        scenes = batch(range(3))
        crippled = dataclasses.replace(
            scenes[1][1], cloud=KeypointSet3D(scenes[1][1].cloud.points, None)
        )
        scenes[1] = (scenes[1][0], crippled)
        recs, errs = run_pipeline(scenes)
        assert len(recs) == 2
        assert len(errs) == 1
        assert errs[0][0] == "scene_0001"
        assert "MissingFeatures" in errs[0][1]

    def test_both_matches_each_scene_once(self, monkeypatch):
        matched = count_matches(monkeypatch)
        scenes = batch(range(2))
        recs, errs = run_pipeline(scenes, solver="both")
        assert errs == [] and len(recs) == 4
        assert matched == [scene for _, scene in scenes]

    def test_both_grades_each_match_once(self, monkeypatch):
        graded = count_inlier_ratios(monkeypatch)
        scenes = batch(range(4), outlier_rate=0.2)
        recs, errs = run_pipeline(scenes, solver="both")
        assert errs == [] and len(recs) == 8
        assert graded == [scene for _, scene in scenes]
        assert [r.ir for r in recs[0::2]] == [r.ir for r in recs[1::2]]

    def test_failed_grade_gives_one_error_row_per_solved_solver(self, monkeypatch):
        graded = count_inlier_ratios(monkeypatch)
        scene = batch([0])[0][1]
        no_depth = dataclasses.replace(scene, depth=np.full(len(scene.depth), np.nan))
        recs, errs = run_pipeline([("scene_0000", no_depth)], solver="both")
        msg = "MissingDepth: a matched pixel has no depth"
        assert recs == []
        assert errs == [("scene_0000", f"pnp: {msg}"), ("scene_0000", f"chamfer: {msg}")]
        assert graded == [no_depth]
        # an empty match: pnp fails to solve, so only chamfer reaches the grade
        unmatched = batch([0], feature_noise_sigma=0.5)
        recs, errs = run_pipeline(unmatched, solver="both", match_cfg=MatchConfig(delta=1e-9))
        assert recs == []
        assert errs == [
            ("scene_0000", "pnp: TooFewPoints: need at least 6 correspondences, got 0"),
            ("scene_0000", "chamfer: EmptySet: inlier_ratio needs at least one correspondence"),
        ]
        assert graded == [no_depth, unmatched[0][1]]

    def test_failed_match_gives_one_error_row_per_solver(self, monkeypatch):
        matched = count_matches(monkeypatch)
        scenes = batch(range(2))
        crippled = dataclasses.replace(
            scenes[1][1], cloud=KeypointSet3D(scenes[1][1].cloud.points, None)
        )
        scenes[1] = (scenes[1][0], crippled)
        recs, errs = run_pipeline(scenes, solver="both")
        assert [(r.scene_id, r.solver) for r in recs] == [
            ("scene_0000", "chamfer"),
            ("scene_0000", "pnp"),
        ]
        msg = "MissingFeatures: 3D keypoint set carries no features"
        assert errs == [("scene_0001", f"pnp: {msg}"), ("scene_0001", f"chamfer: {msg}")]
        assert len(matched) == 2

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not a scene failure")

        monkeypatch.setattr(evaluation, "_solve_one", broken)
        with pytest.raises(TypeError):
            run_pipeline(batch(range(2)))

    def test_solver_divergence_becomes_error_row(self, monkeypatch, tmp_path):
        def diverge(*args, **kwargs):
            raise Divergence("line search stalled")

        monkeypatch.setattr(evaluation, "_solve_one", diverge)
        recs, errs = run_pipeline(batch(range(2)))
        assert recs == []
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, recs, errs)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["scene_id"] for r in rows] == ["scene_0000", "scene_0001"]
        assert all(r["error"] == "pnp: Divergence: line search stalled" for r in rows)

    def test_empty_batch(self):
        recs, errs = run_pipeline([])
        assert recs == []
        assert errs == []
        summary = summary_from_records(recs, errs)
        assert summary["n_records"] == 0
        assert summary["mean_ir"] is None

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            run_pipeline([], solver="icp")


class TestRecordsAndSummary:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            EvalRecord("s", "pnp", 1.2, 0.0, 0.0, 0.0, True)

    def test_jsonl_round_trip_and_schema(self, tmp_path):
        recs, errs = run_pipeline(batch(range(3)), solver="pnp")
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, recs, errs)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line, rec in zip(lines, recs):
            row = json.loads(line)
            assert row["schema"] == 1
            assert row == rec.to_json_dict()
            assert "timings" not in row

    def test_jsonl_error_rows_and_timings_flag(self, tmp_path):
        recs, _ = run_pipeline(batch(range(1)), solver="pnp")
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, recs, [("scene_bad", "pnp: boom")], True)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert "timings" in json.loads(lines[0])
        assert json.loads(lines[1]) == {
            "schema": 1,
            "scene_id": "scene_bad",
            "error": "pnp: boom",
        }

    def test_byte_identical_rewrites(self, tmp_path):
        recs, errs = run_pipeline(batch(range(2)), solver="both")
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records_jsonl(p1, recs, errs)
        write_records_jsonl(p2, recs, errs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_means_recomputable_from_lines(self, tmp_path):
        recs, errs = run_pipeline(batch(range(4), outlier_rate=0.1), solver="pnp")
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, recs, errs)
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        rows = [r for r in rows if "error" not in r]
        summary = summary_from_records(recs, errs)
        assert summary["mean_ir"] == pytest.approx(
            np.mean([r["ir"] for r in rows]), abs=1e-15
        )
        assert summary["rr"] == pytest.approx(
            np.mean([1.0 if r["rr_success"] else 0.0 for r in rows]), abs=1e-15
        )

    def test_markdown_table_shape(self):
        summary = summary_from_records([], [])
        md = summary_markdown(summary)
        lines = md.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].count("|") == lines[2].count("|") == 6
        assert "| 0 | 0 | - | - | - |" == lines[2]
