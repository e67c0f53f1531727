"""Scene-level metrics and the batch evaluation pipeline.

Two metrics summarize a scene: the inlier ratio grades a matching by
back-projecting each matched pixel to 3D with its ground-truth depth
and pose, and registration success grades an estimated pose by the
whole-cloud RMSE between the estimated and true transforms. The
pipeline runs match, solve, and metrics over a batch and emits one
JSON-lines record per scene and solver.
"""

from __future__ import annotations

import json
import time

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chamfer import SolverConfig, solve_pose_chamfer
from .errors import EmptySet, MinCDError, MissingDepth
from .features import CorrespondenceSet, MatchConfig, nearest_features
from .geometry import Pose, pose_difference
from .pnp import RansacConfig, pnp_ransac
from .synth import ScenePair, perturb_pose

RECORD_SCHEMA = 1


@dataclass(frozen=True)
class MetricConfig:
    ir_threshold_m: float = 0.05
    rr_threshold_m: float = 0.05

    def __post_init__(self) -> None:
        if self.ir_threshold_m <= 0 or self.rr_threshold_m <= 0:
            raise ValueError("metric thresholds must be positive")


@dataclass(frozen=True)
class EvalRecord:
    """Per-scene evaluation row; timings stay out of serialized output
    unless explicitly asked for, so reruns diff clean."""

    scene_id: str
    solver: str
    ir: float
    rot_err_deg: float
    trans_err_m: float
    rmse_m: float
    rr_success: bool
    timings: dict | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.ir <= 1.0):
            raise ValueError("inlier ratio must lie in [0, 1]")

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "schema": RECORD_SCHEMA,
            "scene_id": self.scene_id,
            "solver": self.solver,
            "ir": self.ir,
            "rot_err_deg": self.rot_err_deg,
            "trans_err_m": self.trans_err_m,
            "rmse_m": self.rmse_m,
            "rr_success": self.rr_success,
        }
        if include_timings and self.timings is not None:
            out["timings"] = self.timings
        return out


def inlier_ratio(
    C: CorrespondenceSet, scene: ScenePair, cfg: MetricConfig = MetricConfig()
) -> float:
    """Fraction of pairs whose pixel back-projects near its 3D point.

    Each matched pixel is lifted to camera space with its ground-truth
    depth, mapped to world space through the inverse ground-truth pose,
    and counted when it lands within ir_threshold_m of the paired cloud
    point.
    """
    if len(C) == 0:
        raise EmptySet("inlier_ratio needs at least one correspondence")
    depth = scene.depth[C.idx2d]
    if np.isnan(depth).any():
        raise MissingDepth("a matched pixel has no depth")
    K = scene.K
    pix = scene.pixels.pixels[C.idx2d]
    cam = np.column_stack(
        [
            depth * (pix[:, 0] - K.cu) / K.fu,
            depth * (pix[:, 1] - K.cv) / K.fv,
            depth,
        ]
    )
    world = scene.T_gt.inverse().apply(cam)
    d = np.linalg.norm(world - scene.cloud.points[C.idx3d], axis=1)
    return float(np.count_nonzero(d <= cfg.ir_threshold_m) / len(C))


def registration_success(
    T_est: Pose, scene: ScenePair, cfg: MetricConfig = MetricConfig()
) -> tuple[float, bool]:
    """Whole-cloud registration error and the threshold verdict.

    The error is the RMSE of per-point displacement between the
    estimated and true transforms; success means it clears
    rr_threshold_m.
    """
    if len(scene.cloud) == 0:
        raise EmptySet("registration needs a nonempty cloud")
    d = np.linalg.norm(
        T_est.apply(scene.cloud.points) - scene.T_gt.apply(scene.cloud.points), axis=1
    )
    err = float(np.sqrt(np.mean(d**2)))
    return err, bool(err <= cfg.rr_threshold_m)


def match_scene(
    scene: ScenePair, match_cfg: MatchConfig = MatchConfig()
) -> CorrespondenceSet:
    """Nearest 3D partner per pixel, kept when within the match delta."""
    best, score = nearest_features(
        scene.pixels.require_features(), scene.cloud.require_features(), match_cfg
    )
    keep = np.flatnonzero(score <= match_cfg.delta)
    return CorrespondenceSet(
        keep,
        best[keep],
        score[keep],
        n2d=len(scene.pixels),
        n3d=len(scene.cloud),
    )


def _solve_one(scene, C, solver, seed, solver_cfg, ransac_iterations,
               ransac_threshold, init_rot_deg, init_trans_m, timings):
    t0 = time.perf_counter()
    if solver == "pnp":
        rcfg = RansacConfig(
            seed=seed, iterations=ransac_iterations, threshold=ransac_threshold
        )
        T_est, _ = pnp_ransac(C, scene.pixels, scene.cloud, scene.K, rcfg)
    else:
        # local solver: start from a reproducible perturbation of the truth
        T_init = perturb_pose(scene.T_gt, init_rot_deg, init_trans_m, seed)
        T_est, _ = solve_pose_chamfer(
            T_init, scene.pixels, scene.cloud, scene.K, solver_cfg
        )
    timings["solve_s"] = time.perf_counter() - t0
    return T_est


def run_pipeline(
    scenes: list[tuple[str, ScenePair]],
    *,
    solver: str = "pnp",
    metric: MetricConfig = MetricConfig(),
    match_cfg: MatchConfig = MatchConfig(),
    solver_cfg: SolverConfig = SolverConfig(),
    ransac_iterations: int = 1000,
    ransac_threshold: float = 5.0,
    init_rot_deg: float = 5.0,
    init_trans_m: float = 0.1,
    seed: int = 0,
) -> tuple[list[EvalRecord], list[tuple[str, str]]]:
    """match -> solve -> metrics over a batch of (scene_id, scene).

    solver is "pnp", "chamfer", or "both"; each scene is matched once
    and the match serves every solver. Scene failures (the package's
    MinCDError family) are collected as (scene_id, message naming the
    exception class) instead of aborting the batch, one per solver when
    the match fails; any other exception is a bug and propagates.
    Records come back sorted by (scene_id, solver), whatever order
    scenes arrive or complete in, so output is canonical.
    """
    if solver not in ("pnp", "chamfer", "both"):
        raise ValueError("solver must be 'pnp', 'chamfer', or 'both'")
    solvers = ("pnp", "chamfer") if solver == "both" else (solver,)
    records: list[EvalRecord] = []
    errors: list[tuple[str, str]] = []
    for idx, (scene_id, scene) in enumerate(sorted(scenes, key=lambda kv: kv[0])):
        t0 = time.perf_counter()
        try:
            C = match_scene(scene, match_cfg)
        except MinCDError as exc:
            errors += [(scene_id, f"{name}: {type(exc).__name__}: {exc}") for name in solvers]
            continue
        match_s = time.perf_counter() - t0
        for name in solvers:
            timings: dict = {"match_s": match_s}
            try:
                T_est = _solve_one(
                    scene, C, name, seed + idx, solver_cfg,
                    ransac_iterations, ransac_threshold,
                    init_rot_deg, init_trans_m, timings,
                )
                t0 = time.perf_counter()
                ir = inlier_ratio(C, scene, metric)
                rmse, success = registration_success(T_est, scene, metric)
                rot, trans = pose_difference(T_est, scene.T_gt)
                timings["metrics_s"] = time.perf_counter() - t0
            except MinCDError as exc:  # per-scene isolation; bugs propagate
                errors.append((scene_id, f"{name}: {type(exc).__name__}: {exc}"))
                continue
            records.append(
                EvalRecord(
                    scene_id=scene_id,
                    solver=name,
                    ir=ir,
                    rot_err_deg=rot,
                    trans_err_m=trans,
                    rmse_m=rmse,
                    rr_success=success,
                    timings=timings,
                )
            )
    records.sort(key=lambda r: (r.scene_id, r.solver))
    return records, errors


def dumps_jsonl_row(obj: dict) -> str:
    """One canonical JSON-lines row: compact, key-sorted, newline-free."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_records_jsonl(
    path: str | Path,
    records: list[EvalRecord],
    errors: list[tuple[str, str]] = (),
    include_timings: bool = False,
) -> None:
    """Records then error rows, one JSON object per line."""
    lines = [dumps_jsonl_row(r.to_json_dict(include_timings)) for r in records]
    lines += [
        dumps_jsonl_row({"schema": RECORD_SCHEMA, "scene_id": sid, "error": msg})
        for sid, msg in errors
    ]
    Path(path).write_text("".join(line + "\n" for line in lines))


def summary_from_records(
    records: list[EvalRecord], errors: list[tuple[str, str]] = ()
) -> dict:
    """Batch summary; means are plain arithmetic means of the records."""
    n = len(records)
    out = {
        "schema": RECORD_SCHEMA,
        "n_records": n,
        "n_errors": len(errors),
        "mean_ir": None,
        "mean_rmse_m": None,
        "rr": None,
    }
    if n:
        out["mean_ir"] = float(np.mean([r.ir for r in records]))
        out["mean_rmse_m"] = float(np.mean([r.rmse_m for r in records]))
        out["rr"] = float(np.mean([1.0 if r.rr_success else 0.0 for r in records]))
    return out


def summary_markdown(summary: dict) -> str:
    """The summary dict as a small Markdown table."""

    def cell(key):
        v = summary[key]
        return "-" if v is None else (repr(v) if isinstance(v, float) else str(v))

    header = "| records | errors | mean IR | mean RMSE (m) | RR |"
    rule = "|---|---|---|---|---|"
    row = (
        f"| {cell('n_records')} | {cell('n_errors')} | {cell('mean_ir')} "
        f"| {cell('mean_rmse_m')} | {cell('rr')} |"
    )
    return "\n".join([header, rule, row]) + "\n"
