"""The tracer: span nesting, self times, and names the package lacks."""

import mincdpnp as mc
import mincdpnp.chamfer
import mincdpnp.pnp
import pytest

from tracing import Tracer, layer_totals, self_times


@pytest.fixture
def traced_solves():
    tracer = Tracer().install()
    try:
        scene = mc.generate_scene(
            120, noise=mc.NoiseSpec(seed=3, pixel_noise_sigma=0.5, outlier_rate=0.2)
        )
        C = mc.match_scene(scene, mc.MatchConfig(delta=2.0))
        mc.pnp_ransac(C, scene.pixels, scene.cloud, scene.K, mc.RansacConfig(seed=3))
        T0 = mc.perturb_pose(scene.T_gt, 5.0, 0.1, 3)
        mc.solve_pose_chamfer(
            T0, scene.pixels, scene.cloud, scene.K, mc.SolverConfig(max_iters=20)
        )
    finally:
        tracer.uninstall()
    return tracer


def test_self_times_are_nonnegative_and_within_the_parent(traced_solves):
    spans = traced_solves.spans
    own = self_times(spans)
    assert len(spans) > 100
    for (name, start, end, parent), self_s in zip(spans, own):
        assert self_s >= -1e-9, name
        assert self_s <= end - start + 1e-12
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
            assert self_s <= p_end - p_start


def test_layers_called_from_other_layers_are_attributed(traced_solves):
    spans = traced_solves.spans
    totals = layer_totals(spans)
    assert totals["chamfer.solve_pose_chamfer"]["calls"] == 1
    assert totals["chamfer.chamfer_cost"]["calls"] > 20
    assert totals["pnp.svd"]["calls"] >= 1
    parents = {spans[p][0] for name, _, _, p in spans if name == "geometry.project_points"}
    assert {"chamfer.chamfer_cost", "pnp.pnp_ransac"} <= parents
    assert traced_solves.counters["chamfer.iterations"] == 20
    assert traced_solves.counters["chamfer.solves_at_max_iters"] == 1


def test_uninstall_restores_the_package():
    original = (mc.chamfer.chamfer_cost, mc.pnp.np, mc.ScenePair.__dict__["load_dir"])
    tracer = Tracer().install()
    assert mc.chamfer.chamfer_cost is not original[0]
    tracer.uninstall()
    assert (mc.chamfer.chamfer_cost, mc.pnp.np, mc.ScenePair.__dict__["load_dir"]) == original


def test_missing_names_are_skipped():
    targets = (
        ("chamfer.gone", "chamfer", "gone", None),
        ("nomodule.gone", "nomodule", "gone", None),
        ("pnp.gone_svd", "pnp", "np.linalg.gone", None),
        ("synth.gone_method", "synth", "ScenePair.gone", None),
        ("chamfer.chamfer_cost", "chamfer", "chamfer_cost", None),
    )
    tracer = Tracer().install(targets)
    try:
        assert tracer.skipped == [
            "chamfer.gone", "nomodule.gone", "pnp.gone_svd", "synth.gone_method"
        ]
        scene = mc.generate_scene(30, noise=mc.NoiseSpec(seed=1))
        mc.chamfer_cost(scene.T_gt, scene.pixels, scene.cloud, scene.K)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans] == ["chamfer.chamfer_cost"]
