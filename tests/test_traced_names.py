"""Every name the benchmark traces still exists in the package, and its
result hooks still read what the package returns.

perfbench/tracing.py wraps the functions its TARGETS table names, and
its smoke test requires that none is skipped and no hook fails. This
loads that module without importing perfbench as a package, so a change
that would break that slow run fails here in under a second.
"""

import collections
import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import mincdpnp
from mincdpnp import NoiseSpec, RansacConfig, SolverConfig, generate_scene, perturb_pose

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


tracing = _tracing()
PACKAGE, TARGETS = tracing.PACKAGE, tracing.TARGETS


def test_targets_found():
    assert len(TARGETS) >= 20


@pytest.mark.parametrize("module, path", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_name_resolves(module, path):
    layer = importlib.import_module(f"{PACKAGE}.{module}")
    assert callable(functools.reduce(getattr, path.split("."), layer))


def test_result_hooks_read_the_solvers_results():
    # the hooks take solve_pose_chamfer's cfg argument and (pose, trace)
    # result, and pnp_ransac's (pose, mask) result
    hooked = [t for t in TARGETS if t[3] is not None]
    assert {t[0] for t in hooked} == {"chamfer.solve_pose_chamfer", "pnp.pnp_ransac"}
    s = generate_scene(40, noise=NoiseSpec(seed=0, outlier_rate=0.2))
    C = s.pairs_with_outliers()
    T_init = perturb_pose(s.T_gt, 5.0, 0.1, seed=0)
    tracer = tracing.Tracer().install(hooked)
    try:
        mincdpnp.pnp_ransac(C, s.pixels, s.cloud, s.K, RansacConfig(seed=0))
        mincdpnp.solve_pose_chamfer(T_init, s.pixels, s.cloud, s.K, SolverConfig(max_iters=3))
    finally:
        tracer.uninstall()
    assert tracer.skipped == [] and tracer.hook_errors == set()
    assert sorted(span[0] for span in tracer.spans) == sorted(t[0] for t in hooked)
    assert tracer.counters["pnp.ransac_pairs"] == len(C)
    assert tracer.counters["chamfer.iterations"] == 3
    assert tracer.counters["chamfer.solves_at_max_iters"] == 1


def test_traced_call_counts_per_name():
    # perfbench/tests/test_bench_tracing.py's traced_solves run under the
    # full TARGETS tracer. Each per-layer `.calls` metric the benchmark
    # reports is a count like these, so a speed-up that drops or adds a
    # traced call fails here. The package is called through its names at
    # call time, as the tracer rebinds them.
    tracer = tracing.Tracer().install()
    try:
        scene = mincdpnp.generate_scene(
            120, noise=NoiseSpec(seed=3, pixel_noise_sigma=0.5, outlier_rate=0.2)
        )
        C = mincdpnp.match_scene(scene, mincdpnp.MatchConfig(delta=2.0))
        mincdpnp.pnp_ransac(C, scene.pixels, scene.cloud, scene.K, RansacConfig(seed=3))
        T0 = mincdpnp.perturb_pose(scene.T_gt, 5.0, 0.1, 3)
        mincdpnp.solve_pose_chamfer(
            T0, scene.pixels, scene.cloud, scene.K, SolverConfig(max_iters=20)
        )
    finally:
        tracer.uninstall()
    assert tracer.skipped == []
    assert collections.Counter(span[0] for span in tracer.spans) == {
        "synth.generate_scene": 1,
        "evaluation.match_scene": 1,
        "pnp.pnp_ransac": 1,
        "pnp.svd": 2,
        "geometry.project_points": 37,
        "geometry.projection_jacobian": 30,
        "geometry.se3_exp": 33,
        "synth.perturb_pose": 1,
        "chamfer.solve_pose_chamfer": 1,
        "chamfer.chamfer_cost": 21,
    }
    assert len(tracer.spans) == 128
