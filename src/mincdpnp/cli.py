"""Command-line surface for the package.

Verbs: synth writes scene directories, match and the two solve verbs
work on one scene, eval runs the batch pipeline over a directory or a
freshly generated batch, and grad-check and bound-check are
self-contained diagnostics. Every verb takes the shared flags (seed,
thresholds, weights, output path) and prints and writes
deterministically for a fixed flag set.
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
    DEFAULT_S_TH,
    SelectConfig,
    guided_reprojection_total,
    key_loss,
    select_3d_keypoints,
)
from .pnp import RansacConfig, pnp_ransac, reprojection_cost, reprojection_grad_twist
from .synth import NoiseSpec, ScenePair, generate_scene, perturb_pose


def _global_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tau", type=float, default=5.0,
                   help="inlier threshold in squared pixels")
    p.add_argument("--s-th", type=float, default=DEFAULT_S_TH, dest="s_th",
                   help="keypoint confidence threshold")
    p.add_argument("--delta", type=float, default=0.5,
                   help="feature match threshold")
    p.add_argument("--lambda1", type=float, default=0.2)
    p.add_argument("--lambda2", type=float, default=1e-4)
    p.add_argument("--out", type=Path, default=None)


def _noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--pixel-noise", type=float, default=0.0)
    p.add_argument("--feature-noise", type=float, default=0.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--dropout-rate", type=float, default=0.0)


def _gen_scene(args, seed: int) -> ScenePair:
    return generate_scene(
        args.n_points,
        noise=NoiseSpec(
            seed=seed,
            pixel_noise_sigma=args.pixel_noise,
            feature_noise_sigma=args.feature_noise,
            outlier_rate=args.outlier_rate,
            dropout_rate=args.dropout_rate,
        ),
    )


def _load_scene(args) -> ScenePair:
    return ScenePair.load_dir(args.scene)


def cmd_synth(args) -> int:
    if args.out is None:
        print("synth requires --out DIRECTORY", file=sys.stderr)
        return 2
    for i in range(args.n_scenes):
        scene = _gen_scene(args, args.seed + i)
        scene.save_dir(args.out / f"scene_{i:04d}")
    print(f"wrote {args.n_scenes} scenes to {args.out}")
    return 0


def cmd_match(args) -> int:
    scene = _load_scene(args)
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
    scene = _load_scene(args)
    T_init = perturb_pose(scene.T_gt, args.init_rot, args.init_trans, args.seed)
    cfg = SolverConfig(max_iters=args.max_iters, method=args.method)
    T, trace = solve_pose_chamfer(
        T_init, scene.pixels, scene.cloud, scene.K, cfg, T_gt=scene.T_gt
    )
    if args.out is not None:
        T.save(args.out)
    if args.trace is not None:
        save_trace_csv(args.trace, trace)
    rot, trans = pose_difference(T, scene.T_gt)
    print(
        f"cost {trace[-1].cost:.6e} after {trace[-1].iteration} iterations; "
        f"error vs truth: {rot:.6f} deg, {trans:.6e} m"
    )
    return 0


def cmd_solve_pnp(args) -> int:
    scene = _load_scene(args)
    C = match_scene(scene, MatchConfig(delta=args.delta))
    cfg = RansacConfig(seed=args.seed, iterations=args.iterations, threshold=args.tau)
    T, mask = pnp_ransac(C, scene.pixels, scene.cloud, scene.K, cfg)
    if args.out is not None:
        T.save(args.out)
    rot, trans = pose_difference(T, scene.T_gt)
    print(
        f"{int(mask.sum())}/{len(C)} inliers; "
        f"error vs truth: {rot:.6f} deg, {trans:.6e} m"
    )
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
        scenes = [
            (f"scene_{i:04d}", _gen_scene(args, args.seed + i))
            for i in range(args.gen)
        ]
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


def _stable_assignments(T0, image_set, cloud_set, K, h: float) -> bool:
    """True when no nearest-neighbor assignment flips inside the FD stencil."""
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


def cmd_grad_check(args) -> int:
    h = args.h
    worst = 0.0
    skipped = 0
    checked = 0
    for i in range(args.n_instances):
        scene = generate_scene(
            20, noise=NoiseSpec(seed=args.seed + i, pixel_noise_sigma=1.0)
        )
        T0 = perturb_pose(scene.T_gt, 3.0, 0.05, args.seed + i)

        def fd(cost_at):
            g = np.zeros(6)
            for k in range(6):
                xi = np.zeros(6)
                xi[k] = h
                g[k] = (cost_at(xi) - cost_at(-xi)) / (2.0 * h)
            return g

        # fixed-pair gradient is smooth everywhere, check it always
        C = scene.gt_pairs

        def pnp_cost(xi):
            T = se3_exp(xi).compose(T0)
            return reprojection_cost(T, C, scene.pixels, scene.cloud, scene.K)

        got = reprojection_grad_twist(
            np.zeros(6), T0, C, scene.pixels, scene.cloud, scene.K
        )
        want = fd(pnp_cost)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
        checked += 1

        # the chamfer cost is only differentiable while assignments hold
        if not _stable_assignments(T0, scene.pixels, scene.cloud, scene.K, h):
            skipped += 1
            continue

        def cd_cost(xi):
            T = se3_exp(xi).compose(T0)
            return chamfer_cost(T, scene.pixels, scene.cloud, scene.K).value

        got = chamfer_grad_twist(
            np.zeros(6), T0, scene.pixels, scene.cloud, scene.K
        )
        want = fd(cd_cost)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
        checked += 1

    ok = worst <= args.tol
    print(
        f"{checked} gradients checked ({skipped} switch-crossing chamfer "
        f"instances skipped); worst relative error {worst:.3e} "
        f"{'<=' if ok else '>'} {args.tol:g}"
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
        poses = [
            scene.T_gt,
            perturb_pose(
                scene.T_gt,
                float(rng.uniform(0.0, 30.0)),
                float(rng.uniform(0.0, 0.5)),
                args.seed + i,
            ),
        ]
        for T in poses:
            _, _, ok = check_inequality8(
                T, scene.gt_pairs, scene.pixels, scene.cloud, scene.K, cfg
            )
            if not ok:
                violations += 1
    print(
        f"{args.n_instances} instances x {len(poses)} poses checked; "
        f"{violations} bound violations"
    )
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mincdpnp",
        description="synthetic pose estimation and correspondence evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        _global_flags(p)
        p.set_defaults(fn=fn)
        return p

    p = verb("synth", cmd_synth, "generate scene directories")
    _noise_flags(p)
    p.add_argument("--n-scenes", type=int, default=4)

    p = verb("match", cmd_match, "match one scene's features")
    p.add_argument("--scene", type=Path, required=True)

    p = verb("solve-chamfer", cmd_solve_chamfer, "solve one scene without matches")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--init-rot", type=float, default=5.0)
    p.add_argument("--init-trans", type=float, default=0.1)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--method", choices=("gn", "gd"), default="gn")
    p.add_argument("--trace", type=Path, default=None)

    p = verb("solve-pnp", cmd_solve_pnp, "match then solve one scene robustly")
    p.add_argument("--scene", type=Path, required=True)
    p.add_argument("--iterations", type=int, default=1000)

    p = verb("eval", cmd_eval, "batch pipeline with JSON-lines records")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenes", type=Path, help="directory of scene dirs")
    group.add_argument("--gen", type=int, help="generate this many scenes")
    _noise_flags(p)
    p.add_argument("--solver", choices=("pnp", "chamfer", "both"), default="pnp")
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--init-rot", type=float, default=5.0)
    p.add_argument("--init-trans", type=float, default=0.1)
    p.add_argument("--include-timings", action="store_true")
    p.add_argument("--summary", type=Path, default=None)

    p = verb("grad-check", cmd_grad_check, "finite-difference gradient audit")
    p.add_argument("--n-instances", type=int, default=30)
    p.add_argument("--h", type=float, default=1e-6)
    p.add_argument("--tol", type=float, default=1e-5)

    p = verb("bound-check", cmd_bound_check, "inlier bound sweep")
    p.add_argument("--n-instances", type=int, default=200)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
