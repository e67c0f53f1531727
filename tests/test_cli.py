import argparse
import ast
import inspect
import json
import shutil
import subprocess

import numpy as np
import pytest

from mincdpnp import (
    DEFAULT_S_TH,
    DEFAULT_TAU,
    InlierConfig,
    LossWeights,
    MatchConfig,
    NoiseSpec,
    Pose,
    RansacConfig,
    ScenePair,
    SelectConfig,
    SolverConfig,
    generate_scene,
    run_pipeline,
)
from mincdpnp import cli
from mincdpnp.cli import build_parser, main
from mincdpnp.synth import save_ply


@pytest.fixture()
def scene_dir(tmp_path):
    d = tmp_path / "scene_0000"
    generate_scene(100, noise=NoiseSpec(seed=0)).save_dir(d)
    return d


def run(args):
    return main([str(a) for a in args])


class TestSynth:
    def test_writes_scene_dirs(self, tmp_path, capsys):
        out = tmp_path / "scenes"
        assert run(["synth", "--out", out, "--n-scenes", 3, "--n-points", 40]) == 0
        assert "wrote 3 scenes" in capsys.readouterr().out
        dirs = sorted(p.name for p in out.iterdir())
        assert dirs == ["scene_0000", "scene_0001", "scene_0002"]
        files = {p.name for p in (out / "scene_0001").iterdir()}
        assert {
            "cloud.ply",
            "features_3d.npy",
            "pixels.npy",
            "features_2d.npy",
            "pose_gt.json",
            "intrinsics.json",
            "depth.npy",
            "gt_pairs.csv",
            "meta.json",
        } <= files

    def test_noise_flags_that_fill_the_point_budget_exactly(self, tmp_path):
        # 5 dropped + 5 outliers of 10 points: the budget, not over it
        flags = ["--n-points", 10, "--outlier-rate", 0.5, "--dropout-rate", 0.5]
        assert run(["synth", "--out", tmp_path / "s", "--n-scenes", 1, *flags]) == 0
        meta = json.loads((tmp_path / "s" / "scene_0000" / "meta.json").read_text())
        assert (meta["n_dropped"], meta["n_outliers"]) == (5, 5)

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--out", out, "--n-scenes", 1, "--seed", 9]) == 0
        names = sorted(p.name for p in (a / "scene_0000").iterdir())
        assert names == sorted(p.name for p in (b / "scene_0000").iterdir())
        assert len(names) == 9
        for name in names:
            assert (a / "scene_0000" / name).read_bytes() == (
                b / "scene_0000" / name
            ).read_bytes()

    def test_requires_out(self, capsys):
        assert run(["synth"]) == 2
        assert "requires --out" in capsys.readouterr().err


class TestSingleSceneVerbs:
    def test_match(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        assert run(["match", "--scene", scene_dir, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "100 pairs" in text
        assert "confident keypoints" in text
        assert "objective at truth" in text
        assert len(out.read_text().splitlines()) == 100

    def test_solve_chamfer(self, scene_dir, tmp_path, capsys):
        pose_path = tmp_path / "pose.json"
        trace_path = tmp_path / "trace.csv"
        code = run(
            ["solve-chamfer", "--scene", scene_dir, "--out", pose_path,
             "--trace", trace_path]
        )
        assert code == 0
        assert "error vs truth" in capsys.readouterr().out
        T = Pose.load(pose_path)
        assert T.R.shape == (3, 3)
        header = trace_path.read_text().splitlines()[0]
        assert header == "iteration,cost,step_size,rot_err_deg,trans_err_m"

    def test_solve_pnp(self, scene_dir, tmp_path, capsys):
        pose_path = tmp_path / "pose.json"
        assert run(["solve-pnp", "--scene", scene_dir, "--out", pose_path]) == 0
        assert "100/100 inliers" in capsys.readouterr().out
        assert pose_path.exists()

    def test_missing_scene_dir(self, tmp_path, capsys):
        assert run(["match", "--scene", tmp_path / "nope"]) == 1
        assert "error" in capsys.readouterr().err


class TestEval:
    def test_scene_dir_batch(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        for i in range(3):
            generate_scene(60, noise=NoiseSpec(seed=i)).save_dir(
                scenes / f"scene_{i:04d}"
            )
        records = tmp_path / "records.jsonl"
        summary = tmp_path / "summary.json"
        code = run(
            ["eval", "--scenes", scenes, "--out", records, "--summary", summary]
        )
        assert code == 0
        rows = [json.loads(l) for l in records.read_text().splitlines()]
        assert [r["scene_id"] for r in rows] == [
            "scene_0000",
            "scene_0001",
            "scene_0002",
        ]
        assert all(r["schema"] == 1 and "timings" not in r for r in rows)
        summ = json.loads(summary.read_text())
        assert summ["n_records"] == 3
        assert summ["rr"] == 1.0
        assert "| records | errors |" in capsys.readouterr().out

    def test_generated_batch_byte_identical(self, tmp_path):
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            code = run(
                ["eval", "--gen", 3, "--n-points", 50, "--outlier-rate", 0.2,
                 "--out", out, "--seed", 4]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_empty_scene_dir(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        empty = tmp_path / "scenes"
        empty.mkdir()
        assert run(["eval", "--scenes", empty, "--out", records]) == 0
        assert records.read_text() == ""
        assert "| 0 | 0 | - | - | - |" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_scene_root_that_is_not_a_directory_fails(self, tmp_path, capsys, kind):
        records = tmp_path / "records.jsonl"
        root = tmp_path / "scenes"
        if kind == "file":
            root.write_text("")
        assert run(["eval", "--scenes", root, "--out", records]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(root) in err[0]
        assert not records.exists()

    def test_scene_failures_keep_batch_alive(self, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        for i in range(3):
            generate_scene(50, noise=NoiseSpec(seed=i)).save_dir(
                scenes / f"scene_{i:04d}"
            )
        (scenes / "scene_0000" / "pixels.npy").unlink()
        (scenes / "scene_0001" / "pose_gt.json").write_text("{}")
        records = tmp_path / "records.jsonl"
        assert run(["eval", "--scenes", scenes, "--out", records]) == 1
        rows = [json.loads(l) for l in records.read_text().splitlines()]
        good = [r for r in rows if "error" not in r]
        bad = [r for r in rows if "error" in r]
        assert [r["scene_id"] for r in good] == ["scene_0002"]
        assert [r["scene_id"] for r in bad] == ["scene_0000", "scene_0001"]
        assert "FileNotFoundError" in bad[0]["error"]
        assert "KeyError" in bad[1]["error"]

    def test_truncated_cloud_fails_its_scene_alone(self, tmp_path):
        scenes = tmp_path / "scenes"
        for i in range(2):
            generate_scene(50, noise=NoiseSpec(seed=i)).save_dir(
                scenes / f"scene_{i:04d}"
            )
        ply = scenes / "scene_0000" / "cloud.ply"
        ply.write_text("".join(ply.read_text().splitlines(keepends=True)[:-5]))
        records = tmp_path / "records.jsonl"
        assert run(["eval", "--scenes", scenes, "--out", records]) == 1
        rows = [json.loads(l) for l in records.read_text().splitlines()]
        assert [r["scene_id"] for r in rows if "error" not in r] == ["scene_0001"]
        bad = [r for r in rows if "error" in r]
        assert [r["scene_id"] for r in bad] == ["scene_0000"]
        assert bad[0]["error"].startswith("load: ValueError: ")
        assert "declares 50 vertices but holds 45" in bad[0]["error"]

    @pytest.mark.parametrize(
        "damage, error, detail",
        [
            ("ply_without_count", "load: ValueError: ", "malformed PLY header"),
            ("ply_negative_count", "load: ValueError: ", "malformed PLY header"),
            ("object_features_2d", "load: ValueError: ", "Object arrays cannot be loaded"),
            ("half_features_3d", "load: ValueError: ", "Failed to read all data"),
            ("empty_features_2d", "pnp: MissingFeatures: ", "carries no features"),
            ("empty_cloud", "pnp: EmptySet: ", "3D keypoint set is empty"),
        ],
    )
    def test_bad_scene_file_fails_its_scene_alone(self, tmp_path, damage, error, detail):
        scenes = tmp_path / "scenes"
        for i in range(2):
            generate_scene(50, noise=NoiseSpec(seed=i)).save_dir(
                scenes / f"scene_{i:04d}"
            )
        d = scenes / "scene_0000"
        if damage.startswith("ply_"):
            header = "element vertex" if damage == "ply_without_count" else "element vertex -5"
            ply = d / "cloud.ply"
            ply.write_text(ply.read_text().replace("element vertex 50", header))
        elif damage == "object_features_2d":
            np.save(d / "features_2d.npy", np.array([[1.0, None]] * 50), allow_pickle=True)
        elif damage == "half_features_3d":
            data = (d / "features_3d.npy").read_bytes()
            (d / "features_3d.npy").write_bytes(data[: len(data) // 2])
        elif damage == "empty_cloud":
            save_ply(d / "cloud.ply", np.zeros((0, 3)))
            np.save(d / "features_3d.npy", np.zeros((0, 128)))
        else:
            (d / "features_2d.npy").write_bytes(b"")
        records = tmp_path / "records.jsonl"
        assert run(["eval", "--scenes", scenes, "--out", records]) == 1
        rows = [json.loads(l) for l in records.read_text().splitlines()]
        assert [r["scene_id"] for r in rows if "error" not in r] == ["scene_0001"]
        bad = [r for r in rows if "error" in r]
        assert [r["scene_id"] for r in bad] == ["scene_0000"]
        assert bad[0]["error"].startswith(error)
        assert detail in bad[0]["error"]

    def test_noisy_outlier_batch_has_no_divergence(self, tmp_path):
        # the second scene of this batch used to end its Chamfer solve in
        # Divergence after hundreds of zero-decrease steps
        records = tmp_path / "records.jsonl"
        code = run(
            ["eval", "--gen", 2, "--solver", "both", "--n-points", 100,
             "--pixel-noise", 0.5, "--outlier-rate", 0.2, "--seed", 4000002,
             "--out", records]
        )
        assert code == 0
        rows = [json.loads(l) for l in records.read_text().splitlines()]
        assert len(rows) == 4
        assert not any("error" in r for r in rows)

    def test_unmatchable_scenes_error_per_scene(self, tmp_path):
        records = tmp_path / "records.jsonl"
        code = run(
            ["eval", "--gen", 2, "--n-points", 40, "--feature-noise", 0.5,
             "--delta", 1e-9, "--out", records]
        )
        assert code == 1
        rows = [json.loads(l) for l in records.read_text().splitlines()]
        assert len(rows) == 2
        assert all("TooFewPoints" in r["error"] for r in rows)

    def test_include_timings_flag(self, tmp_path):
        records = tmp_path / "records.jsonl"
        assert run(
            ["eval", "--gen", 1, "--n-points", 40, "--out", records,
             "--include-timings"]
        ) == 0
        row = json.loads(records.read_text().splitlines()[0])
        assert set(row["timings"]) == {"match_s", "solve_s", "metrics_s"}

    def test_stdout_stream_when_no_out(self, capsys):
        assert run(["eval", "--gen", 2, "--n-points", 40]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(lines) == 2
        assert json.loads(lines[0])["scene_id"] == "scene_0000"


class TestDiagnostics:
    def test_grad_check(self, capsys):
        assert run(["grad-check", "--n-instances", 5]) == 0
        assert "worst relative error" in capsys.readouterr().out

    def test_bound_check(self, capsys):
        assert run(["bound-check", "--n-instances", 20]) == 0
        assert "0 bound violations" in capsys.readouterr().out


def verb_parsers():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices


def accepted_dests(parser):
    return {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def args_read(fn_name):
    """The args attributes a cli function reads, itself or through the
    module's functions it hands args to."""
    funcs = {
        n.name: n
        for n in ast.parse(inspect.getsource(cli)).body
        if isinstance(n, ast.FunctionDef)
    }
    read, todo, seen = set(), [fn_name], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in funcs.keys() - seen
                and any(getattr(a, "id", None) == "args" for a in node.args)
            ):
                todo.append(node.func.id)
    return read


class TestSurface:
    def test_each_verb_accepts_exactly_what_its_command_reads(self):
        verbs = verb_parsers()
        assert len(verbs) == 7
        for name, parser in verbs.items():
            fn = parser.get_default("fn")
            assert accepted_dests(parser) == args_read(fn.__name__), name
        assert sum(len(accepted_dests(p)) for p in verbs.values()) == 53

    def test_parser_defaults_are_the_librarys(self):
        verbs = verb_parsers()
        start = inspect.signature(run_pipeline).parameters

        def defaults(dest, *names):
            return {verbs[n].get_default(dest) for n in names}

        assert DEFAULT_TAU == InlierConfig.tau == SelectConfig.tau == RansacConfig.threshold
        assert defaults("tau", "match", "solve-pnp", "eval", "bound-check") == {DEFAULT_TAU}
        assert start["ransac_threshold"].default == DEFAULT_TAU
        assert defaults("iterations", "solve-pnp", "eval") == {RansacConfig.iterations}
        assert start["ransac_iterations"].default == RansacConfig.iterations
        assert defaults("max_iters", "solve-chamfer") == {SolverConfig.max_iters}
        assert defaults("method", "solve-chamfer") == {SolverConfig.method}
        assert defaults("delta", "match", "solve-pnp", "eval") == {MatchConfig.delta}
        w = verbs["match"]
        assert LossWeights(w.get_default("lambda1"), w.get_default("lambda2")) == LossWeights()
        assert defaults("s_th", "match") == {DEFAULT_S_TH}
        assert defaults("init_rot", "solve-chamfer", "eval") == {start["init_rot_deg"].default}
        assert defaults("init_trans", "solve-chamfer", "eval") == {start["init_trans_m"].default}

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bound-check", "--n-instances", "0"], "--n-instances"),
            (["grad-check", "--n-instances", "0"], "--n-instances"),
            (["synth", "--out", "{tmp}/out", "--n-scenes", "-2"], "--n-scenes"),
            (["synth", "--out", "{tmp}/out", "--n-points", "0"], "--n-points"),
            (["eval", "--gen", "2", "--n-points", "0"], "--n-points"),
            (["eval", "--gen", "-1"], "--gen"),
            (["solve-pnp", "--scene", "{tmp}/scene", "--iterations", "0"], "--iterations"),
            (["eval", "--gen", "2", "--iterations", "0"], "--iterations"),
            (["solve-chamfer", "--scene", "{tmp}/scene", "--max-iters", "0"], "--max-iters"),
            (["bound-check", "--tau", "0"], "--tau"),
            (["eval", "--gen", "2", "--outlier-rate", "1.5"], "--outlier-rate"),
            (["match", "--scene", "{tmp}/scene", "--delta", "0"], "--delta"),
            (["synth", "--out", "{tmp}/out", "--seed", "-1"], "--seed"),
            (["synth", "--out", "{tmp}/out", "--tau", "1"], "--tau"),
            (["grad-check", "--out", "x"], "--out"),
            (["solve-chamfer", "--scene", "{tmp}/scene", "--lambda1", "9"], "--lambda1"),
            (["eval", "--gen", "1", "--outlier-rate", "0.6", "--dropout-rate", "0.6"],
             "--dropout-rate"),
            (["synth", "--out", "{tmp}/out", "--n-points", "10", "--outlier-rate", "0.5",
              "--dropout-rate", "0.6"], "--outlier-rate"),
            (["eval", "--gen", "1", "--solver", "chamfer", "--init-rot", "200"], "--init-rot"),
            (["solve-chamfer", "--scene", "{tmp}/scene", "--init-rot", "-1"], "--init-rot"),
            (["eval", "--gen", "1", "--init-rot", "nan"], "--init-rot"),
            (["grad-check", "--h", "0"], "--h"),
            (["grad-check", "--h", "inf"], "--h"),
            (["grad-check", "--tol", "-1e-5"], "--tol"),
            (["grad-check", "--tol", "nan"], "--tol"),
        ],
    )
    def test_bad_or_unread_flag_exits_2_before_any_scene(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a scene was touched before parsing finished")

        monkeypatch.setattr(cli, "generate_scene", forbidden)
        monkeypatch.setattr(ScenePair, "load_dir", forbidden)
        with pytest.raises(SystemExit) as exc:
            main([a.format(tmp=tmp_path) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mincdpnp")
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == 1 and flag in errors[0]
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    def test_console_script_help(self):
        exe = shutil.which("mincdpnp")
        assert exe is not None
        proc = subprocess.run(
            [exe, "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        for verb in (
            "synth",
            "match",
            "solve-chamfer",
            "solve-pnp",
            "eval",
            "grad-check",
            "bound-check",
        ):
            assert verb in proc.stdout
