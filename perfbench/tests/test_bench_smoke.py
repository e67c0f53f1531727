"""Tiny-size runs of the benchmark command, checked against BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def table_rows(stdout):
    """{metric: (unit, n)} from the printed table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 4 and parts[3].startswith("n="):
            rows[parts[0]] = (parts[2], int(parts[3][2:]))
    return rows


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload):
    done = run_bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and 0 <= last["failed"] <= last["attempted"]
    listed = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in last["metrics"].values())

    rows = table_rows(done.stdout)
    named = set(listed) | {"failed_frac"} | set(WORKLOADS[workload].quality)
    assert named <= set(rows)
    assert all(n >= 1 for _, n in rows.values())
    report = json.loads(done.stdout.splitlines()[-2].removeprefix("report "))
    env = report["env"]
    for key in ("commit", "nproc", "python", "numpy", "scipy", "blas_threads", "scenes", "scene_seeds"):
        assert key in env
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    done = run_bench(workload, trace=1)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is True
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == listed
    report = json.loads(done.stdout.splitlines()[-2].removeprefix("report "))
    assert report["skipped_spans"] == [] and report["hook_errors"] == []
    assert "trace.overhead_s" in report["metrics"]


def test_every_seed_attempts_the_same_scenes():
    runs = [run_bench("scene-io-n4000", trace=0, seed=seed) for seed in (0, 1)]
    assert all(done.returncode == 0 for done in runs), runs[0].stderr
    last = [json.loads(done.stdout.splitlines()[-1]) for done in runs]
    assert (last[0]["attempted"], last[0]["failed"]) == (last[1]["attempted"], last[1]["failed"])
    env = json.loads(runs[0].stdout.splitlines()[-2].removeprefix("report "))["env"]
    assert env["scenes"] == last[0]["attempted"] == env["pool_units"]
    assert min(env["repeats_per_scene"]) >= 1


def test_the_seed_sets_the_order_of_the_pool():
    a, b = (WORKLOADS["pnp-n1000"](None, seed, True, None).order(20) for seed in (0, 1))
    assert sorted(a) == sorted(b) == list(range(20))
    assert a != b


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("pnp-n1000", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_keeps_its_contract():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert set(w["name"] for w in SPEC["workloads"]) <= set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
