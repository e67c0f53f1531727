"""Command-line surface for the package.

Verbs: synth writes scene directories, match and the two solve verbs
work on one scene, eval runs the batch pipeline over a directory or a
freshly generated batch, and grad-check and bound-check are
self-contained diagnostics. A verb accepts only the flags its command
reads, with the library's defaults; the library's own checks reject a
bad value while parsing, before any scene is touched. Output is
deterministic for a fixed flag set.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .blindpnp import InlierConfig, check_inequality8
from .chamfer import (
    LossWeights,
    SolverConfig,
    chamfer_cost,
    chamfer_grad_twist,
    mincd_objective,
    save_trace_csv,
    solve_pose_chamfer,
)
from .errors import MinCDError
from .evaluation import (
    DEFAULT_INIT_ROT_DEG,
    DEFAULT_INIT_TRANS_M,
    run_pipeline,
    summary_from_records,
    summary_markdown,
    write_records_jsonl,
    dumps_jsonl_row,
    match_scene,
)
from .features import MatchConfig
from .geometry import dumps_json, pose_difference, se3_exp
from .keypoint import (
    SelectConfig,
    guided_reprojection_total,
    key_loss,
    select_3d_keypoints,
)
from .pnp import RansacConfig, pnp_ransac, reprojection_cost, reprojection_grad_twist
from .synth import NoiseSpec, ScenePair, check_rot_deg, generate_scene, perturb_pose, point_budget


def _checked(convert, check):
    """An argparse type: convert the text, then let check, the library
    call that takes the value, refuse it with its own message."""

    def parse(text):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _library(cls, field: str, convert=float, **fixed) -> dict:
    """A flag whose default is cls's and whose value cls checks."""
    check = _checked(convert, lambda v: cls(**fixed, **{field: v}))
    return dict(type=check, default=getattr(cls, field))


def _at_least_one(n: int) -> None:
    if n < 1:
        raise ValueError("must be at least 1")


def _finite_positive(x: float) -> None:
    if not (0 < x < np.inf):
        raise ValueError("must be finite and positive")


_COUNT = _checked(int, _at_least_one)
_POSITIVE = _checked(float, _finite_positive)

# Flags that several verbs read; each verb names the ones its command reads.
_SHARED = {
    "--scene": dict(type=Path, required=True),
    "--out": dict(type=Path, default=None),
    "--seed": dict(type=_checked(int, lambda v: RansacConfig(seed=v)), default=0),
    "--tau": dict(_library(InlierConfig, "tau"), help="inlier threshold in squared pixels"),
    "--delta": dict(_library(MatchConfig, "delta"), help="feature match threshold"),
    "--iterations": _library(RansacConfig, "iterations", int, seed=0),
    "--init-rot": dict(type=_checked(float, check_rot_deg), default=DEFAULT_INIT_ROT_DEG),
    "--init-trans": dict(type=float, default=DEFAULT_INIT_TRANS_M),
    "--n-points": dict(type=_COUNT, default=100),
    "--pixel-noise": _library(NoiseSpec, "pixel_noise_sigma", seed=0),
    "--feature-noise": _library(NoiseSpec, "feature_noise_sigma", seed=0),
    "--outlier-rate": _library(NoiseSpec, "outlier_rate", seed=0),
    "--dropout-rate": _library(NoiseSpec, "dropout_rate", seed=0),
}
_NOISE = ("--n-points", "--pixel-noise", "--feature-noise", "--outlier-rate", "--dropout-rate")


def _gen_scenes(args, count: int):
    """(scene_id, scene) for count scenes seeded from args.seed up: synth's
    directory names and eval --gen's scene ids."""
    levels = (args.pixel_noise, args.feature_noise, args.outlier_rate, args.dropout_rate)
    for i in range(count):
        noise = NoiseSpec(args.seed + i, *levels)
        yield f"scene_{i:04d}", generate_scene(args.n_points, noise=noise)


def cmd_synth(args) -> int:
    if args.out is None:
        print("synth requires --out DIRECTORY", file=sys.stderr)
        return 2
    for name, scene in _gen_scenes(args, args.n_scenes):
        scene.save_dir(args.out / name)
    print(f"wrote {args.n_scenes} scenes to {args.out}")
    return 0


def cmd_match(args) -> int:
    scene = ScenePair.load_dir(args.scene)
    C = match_scene(scene, MatchConfig(delta=args.delta))
    if args.out is not None:
        C.save_csv(args.out)
    mean = float(np.mean(C.scores)) if len(C) else float("nan")
    print(f"{len(C)} pairs at delta={args.delta} (mean score {mean:.6f})")

    select_cfg = SelectConfig(s_th=args.s_th, tau=args.tau)
    selected = select_3d_keypoints(scene.pixels, scene.cloud, select_cfg)
    print(f"{len(selected)} confident keypoints at s_th={args.s_th:.6f}")

    corr = guided_reprojection_total(scene.pixels, scene.cloud, scene.T_gt, scene.K)
    key, _ = key_loss(scene.pixels, scene.cloud, scene.T_gt, scene.K, select_cfg)
    cd = chamfer_cost(scene.T_gt, scene.pixels, scene.cloud, scene.K).value
    total = mincd_objective(
        corr, key, cd, LossWeights(lambda1=args.lambda1, lambda2=args.lambda2)
    )
    print(
        f"objective at truth: {total:.6f} "
        f"(corr {corr:.6f}, key {key}, chamfer {cd:.6f})"
    )
    return 0


def cmd_solve_chamfer(args) -> int:
    scene = ScenePair.load_dir(args.scene)
    T_init = perturb_pose(scene.T_gt, args.init_rot, args.init_trans, args.seed)
    cfg = SolverConfig(max_iters=args.max_iters, method=args.method)
    T, trace = solve_pose_chamfer(
        T_init, scene.pixels, scene.cloud, scene.K, cfg, T_gt=scene.T_gt
    )
    if args.trace is not None:
        save_trace_csv(args.trace, trace)
    head = f"cost {trace[-1].cost:.6e} after {trace[-1].iteration} iterations"
    return _report_pose(T, scene, args.out, head)


def cmd_solve_pnp(args) -> int:
    scene = ScenePair.load_dir(args.scene)
    C = match_scene(scene, MatchConfig(delta=args.delta))
    cfg = RansacConfig(seed=args.seed, iterations=args.iterations, threshold=args.tau)
    T, mask = pnp_ransac(C, scene.pixels, scene.cloud, scene.K, cfg)
    return _report_pose(T, scene, args.out, f"{int(mask.sum())}/{len(C)} inliers")


def _report_pose(T, scene, out, head: str) -> int:
    """Save a solved pose to out, if given, and print head and its error."""
    if out is not None:
        T.save(out)
    rot, trans = pose_difference(T, scene.T_gt)
    print(f"{head}; error vs truth: {rot:.6f} deg, {trans:.6e} m")
    return 0


def _scan_scene_dirs(root: Path):
    """Scenes plus per-directory load failures; a bad scene file never
    aborts the scan, but a root that is missing or not a directory does."""
    out, failures = [], []
    for d in sorted(root.iterdir()):
        if d.is_dir() and (d / "meta.json").exists():
            # a missing, malformed or incomplete file fails its scene
            # alone; any other exception is a bug and propagates
            try:
                out.append((d.name, ScenePair.load_dir(d)))
            except (MinCDError, OSError, ValueError, KeyError) as exc:
                failures.append((d.name, f"load: {type(exc).__name__}: {exc}"))
    return out, failures


def cmd_eval(args) -> int:
    load_errors: list[tuple[str, str]] = []
    if args.scenes is not None:
        scenes, load_errors = _scan_scene_dirs(args.scenes)
    else:
        scenes = list(_gen_scenes(args, args.gen))
    records, errors = run_pipeline(
        scenes,
        solver=args.solver,
        match_cfg=MatchConfig(delta=args.delta),
        ransac_iterations=args.iterations,
        ransac_threshold=args.tau,
        init_rot_deg=args.init_rot,
        init_trans_m=args.init_trans,
        seed=args.seed,
    )
    errors = sorted(load_errors + errors)
    if args.out is not None:
        write_records_jsonl(args.out, records, errors, args.include_timings)
    else:
        for r in records:
            print(dumps_jsonl_row(r.to_json_dict(args.include_timings)))
    summary = summary_from_records(records, errors)
    if args.summary is not None:
        args.summary.write_text(dumps_json(summary))
    print(summary_markdown(summary), end="")
    for sid, msg in errors:
        print(f"error: {sid}: {msg}", file=sys.stderr)
    return 1 if errors else 0


def _assignment_bytes(report) -> bytes:
    return report.assignment[0].tobytes() + report.assignment[1].tobytes()


def cmd_grad_check(args) -> int:
    worst = 0.0
    skipped = 0
    for i in range(args.n_instances):
        scene = generate_scene(
            20, noise=NoiseSpec(seed=args.seed + i, pixel_noise_sigma=1.0)
        )
        T0 = perturb_pose(scene.T_gt, 3.0, 0.05, args.seed + i)
        sets = (scene.pixels, scene.cloud, scene.K)

        def stencil(cost_at):
            """cost_at(exp(xi) o T0) for xi = +h and -h along each twist axis."""
            pairs = []
            for k in range(6):
                xi = np.zeros(6)
                xi[k] = args.h
                pairs.append([cost_at(se3_exp(s).compose(T0)) for s in (xi, -xi)])
            return pairs

        def rel_error(got, pairs):
            want = np.array([(plus - minus) / (2.0 * args.h) for plus, minus in pairs])
            return np.linalg.norm(got - want) / np.linalg.norm(want)

        # fixed-pair gradient is smooth everywhere, check it always
        C = scene.gt_pairs
        got = reprojection_grad_twist(T0, C, *sets)
        worst = max(worst, rel_error(got, stencil(lambda T: reprojection_cost(T, C, *sets))))

        # the chamfer cost is only differentiable while no nearest-neighbor
        # assignment flips inside the stencil
        reports = stencil(lambda T: chamfer_cost(T, *sets))
        base = _assignment_bytes(chamfer_cost(T0, *sets))
        if any(_assignment_bytes(r) != base for pair in reports for r in pair):
            skipped += 1
            continue
        got = chamfer_grad_twist(T0, *sets)
        worst = max(worst, rel_error(got, [[r.value for r in pair] for pair in reports]))

    ok = worst <= args.tol
    print(
        f"{2 * args.n_instances - skipped} gradients checked ({skipped} "
        f"switch-crossing chamfer instances skipped); worst relative error "
        f"{worst:.3e} {'<=' if ok else '>'} {args.tol:g}"
    )
    return 0 if ok else 1


def cmd_bound_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    cfg = InlierConfig(tau=args.tau)
    violations = 0
    for i in range(args.n_instances):
        scene = generate_scene(
            int(rng.integers(8, 33)),
            noise=NoiseSpec(
                seed=args.seed + i,
                pixel_noise_sigma=float(rng.uniform(0.0, 2.0)),
                outlier_rate=float(rng.uniform(0.0, 0.4)),
            ),
        )
        rot, trans = float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 0.5))
        for T in (scene.T_gt, perturb_pose(scene.T_gt, rot, trans, args.seed + i)):
            _, _, ok = check_inequality8(
                T, scene.gt_pairs, scene.pixels, scene.cloud, scene.K, cfg
            )
            if not ok:
                violations += 1
    print(
        f"{args.n_instances} instances x 2 poses checked; "
        f"{violations} bound violations"
    )
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mincdpnp",
        description="synthetic pose estimation and correspondence evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, fn, help_text, *shared):
        p = sub.add_parser(name, help=help_text)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        p.set_defaults(fn=fn, verb_parser=p)
        return p

    p = verb("synth", cmd_synth, "generate scene directories", "--out", "--seed", *_NOISE)
    p.add_argument("--n-scenes", type=_COUNT, default=4)

    p = verb("match", cmd_match, "match one scene's features",
             "--scene", "--out", "--delta", "--tau")
    p.add_argument("--s-th", **_library(SelectConfig, "s_th"),
                   help="keypoint confidence threshold")
    p.add_argument("--lambda1", **_library(LossWeights, "lambda1"))
    p.add_argument("--lambda2", **_library(LossWeights, "lambda2"))

    p = verb("solve-chamfer", cmd_solve_chamfer, "solve one scene without matches",
             "--scene", "--out", "--seed", "--init-rot", "--init-trans")
    p.add_argument("--max-iters", **_library(SolverConfig, "max_iters", int))
    p.add_argument("--method", choices=("gn", "gd"), default=SolverConfig.method)
    p.add_argument("--trace", type=Path, default=None)

    verb("solve-pnp", cmd_solve_pnp, "match then solve one scene robustly",
         "--scene", "--out", "--seed", "--delta", "--tau", "--iterations")

    p = verb("eval", cmd_eval, "batch pipeline with JSON-lines records",
             "--out", "--seed", "--delta", "--tau", "--iterations", "--init-rot",
             "--init-trans", *_NOISE)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenes", type=Path, help="directory of scene dirs")
    group.add_argument("--gen", type=_COUNT, help="generate this many scenes")
    p.add_argument("--solver", choices=("pnp", "chamfer", "both"), default="pnp")
    p.add_argument("--include-timings", action="store_true")
    p.add_argument("--summary", type=Path, default=None)

    p = verb("grad-check", cmd_grad_check, "finite-difference gradient audit", "--seed")
    p.add_argument("--n-instances", type=_COUNT, default=30)
    p.add_argument("--h", type=_POSITIVE, default=1e-6)
    p.add_argument("--tol", type=_POSITIVE, default=1e-5)

    p = verb("bound-check", cmd_bound_check, "inlier bound sweep", "--seed", "--tau")
    p.add_argument("--n-instances", type=_COUNT, default=200)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if "outlier_rate" in vars(args):  # the noise flags, checked together
        try:
            point_budget(args.n_points, args.outlier_rate, args.dropout_rate)
        except ValueError as exc:
            args.verb_parser.error(f"--n-points, --outlier-rate, --dropout-rate: {exc}")
    try:
        return args.fn(args)
    except MinCDError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
