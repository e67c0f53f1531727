"""Pose-estimation benchmark for the mincdpnp package.

Run from the repository root:

    python3 perfbench/run.py --workload pnp-n1000 --seed 0 --seconds 40 --trace 0

Each run is one process with a closed loop, one scene at a time, for
--seconds of wall clock. The loop runs a fixed pool of scenes, in an
order made from --seed, then repeats them while time is left, and times
a fixed reference kernel between units to give host-adjusted figures
(see hostspeed.py). With --trace 0 it reports the end-to-end metrics. With
--trace 1 it runs the loop untraced for half the time, then traced once
over the same scenes, and reports per-layer metrics plus the tracing
overhead. Every scene's output is checked, on every repeat; a scene
that raises or fails a check counts as failed.

The lines of standard output give every metric with its unit and
sample count, then a `report` line with the environment and the full
per-layer table. The last line is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds the ones
BENCHMARK.json lists: its end_to_end metrics with --trace 0, its
per_layer metrics with --trace 1.
"""

import os

# One BLAS thread for this process and every child it starts, set before
# numpy loads: each run is a single-threaded closed loop on a small machine.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import TARGETS, Tracer, layer_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2  # fresh processes that repeat set-up, besides the run itself


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every scene, for the benchmark's own smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time set-up in this fresh process, print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_package():
    """Import mincdpnp from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mincdpnp" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'mincdpnp'}")
    sys.path.insert(0, str(src))
    mc = importlib.import_module("mincdpnp")
    importlib.import_module("mincdpnp.cli")
    if Path(mc.__file__).resolve().parent != (src / "mincdpnp").resolve():
        raise SystemExit(f"perfbench: mincdpnp was imported from {mc.__file__}, not {src}")
    return mc


def run_pass(wl, seconds, order, first=None, min_units=None, max_units=None, speed=None):
    """Closed loop, round-robin over the units in `order`, until `seconds` pass.

    The first `min_units` units (by default one full pass) always run,
    so every run attempts every unit of the pool; later passes repeat
    them while the unit's last run still fits in the time that is left.
    `first`, if given, is the input of order[0], made in set-up. After
    each unit, `speed` (a HostSpeed), if given, times the reference
    kernel. Returns one list per scene of its outcomes, one per repeat,
    with scenes in the order they first ran, and the number of units run.
    """
    from workloads import SceneOutcome

    pool = len(order)
    reps = [[] for _ in range(pool * wl.unit_size)]
    took = {}  # unit -> seconds its last run took, probe included
    start = time.perf_counter()
    k = 0
    min_units = pool if min_units is None else min_units
    while k < min_units or time.perf_counter() - start + took.get(order[k % pool], 0.0) < seconds:
        if max_units is not None and k >= max_units:
            break
        i = order[k % pool]
        # made again on every repeat, so that only one scene is held at a time
        inp = first if k == 0 and first is not None else wl.prepare(i)
        t = time.perf_counter()
        try:
            out = wl.run(inp)
            scenes = wl.outcomes(inp, out, time.perf_counter() - t)
        except Exception as exc:  # noqa: BLE001 - a failing scene is counted, not fatal
            if not any(o.errors for r in reps for o in r):
                traceback.print_exc()
            share = (time.perf_counter() - t) / wl.unit_size
            scenes = [
                SceneOutcome(None, share, errors=[f"{type(exc).__name__}: {exc}"])
                for _ in range(wl.unit_size)
            ]
        for s, outcome in enumerate(scenes):
            reps[i * wl.unit_size + s].append(outcome)
        if speed is not None:
            speed.probe(time.perf_counter() - t)
        took[i] = time.perf_counter() - t
        k += 1
    ran = (reps[i * wl.unit_size + s] for i in order for s in range(wl.unit_size))
    return [r for r in ran if r], k


def probe_setup(args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def end_to_end(wl, scenes, setup_samples, speed):
    """{metric: (value, unit, sample count)} for every end-to-end metric that applies.

    Latency counts every repeat of every scene. Throughput counts each
    scene once, at the mean time of its repeats, so that which scenes a
    seed's order repeats does not change the mix. The `_adj` forms, and
    setup_s, are scaled by the host-speed factor of the same run;
    setup_s_raw is the set-up time as measured.
    """
    runs = [o for r in scenes for o in r]
    latency = [o.latency_s for o in runs if o.latency_s is not None]
    done = [r[0] for r in scenes if all(o.latency_s is not None for o in r)]
    failed = sum(1 for r in scenes if any(o.failed for o in r))
    factor = speed.factor()
    setup = statistics.median(setup_samples)
    m = {
        "setup_s": (setup * factor, "s", len(setup_samples)),
        "setup_s_raw": (setup, "s", len(setup_samples)),
    }
    if latency:
        rate = len(done) / sum(statistics.fmean(o.unit_wall_s for o in r) for r in scenes)
        p50 = statistics.median(latency)
        m["scenes_per_s"] = (rate, "1/s", len(latency))
        m["scenes_per_s_adj"] = (rate / factor, "1/s", len(latency))
        m["scene_s_p50"] = (p50, "s", len(latency))
        m["scene_s_p50_adj"] = (p50 * factor, "s", len(latency))
        if len(latency) >= 100:  # so that at least ten samples lie beyond it
            m["scene_s_p90"] = (statistics.quantiles(latency, n=10)[-1], "s", len(latency))
    m["ref_kernel_s"] = (statistics.median(speed.samples), "s", len(speed.samples))
    m["failed_frac"] = (failed / len(scenes), "ratio", len(scenes))
    for name in wl.quality:
        values = [o.quality[name] for o in done if name in o.quality]
        if values:
            m[name] = (statistics.fmean(values), "ratio", len(values))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m["peak_rss_mb"] = (peak_kb / 1024.0, "MB", 1)
    return m


def per_layer(tracer, traced, overhead):
    """{metric: (value, unit, sample count)} from the traced pass, per traced scene."""
    n = len(traced)  # traced scenes, each run once
    totals = layer_totals(tracer.spans)
    m = {}
    for name, *_ in TARGETS:
        row = totals.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (row["calls"] / n, "calls/scene", n)
        m[f"{name}.self_s"] = (row["self_s"] / n, "s/scene", n)
    c = tracer.counters
    cost_calls = totals.get("chamfer.chamfer_cost", {}).get("calls", 0)
    m["chamfer.iterations"] = (c["chamfer.iterations"] / n, "1/scene", n)
    m["chamfer.accepted_steps"] = (c["chamfer.accepted_steps"] / n, "1/scene", n)
    # base: chamfer_cost calls, each one a trial or a linearisation point
    m["chamfer.accept_ratio"] = (
        c["chamfer.accepted_steps"] / cost_calls if cost_calls else 0.0, "ratio", cost_calls)
    m["chamfer.solves_at_max_iters"] = (c["chamfer.solves_at_max_iters"] / n, "1/scene", n)
    # base: |C|, the correspondences RANSAC was given
    pairs = c["pnp.ransac_pairs"]
    m["pnp.ransac_inlier_frac"] = (
        c["pnp.ransac_inliers"] / pairs if pairs else 0.0, "ratio", int(pairs))
    sizes = [r[0].counters.get("synth.scene_bytes", 0) for r in traced]
    m["synth.scene_bytes"] = (statistics.fmean(sizes), "bytes/scene", n)
    m["trace.overhead_s"] = (overhead[0], "s/scene", overhead[2])
    m["trace.overhead_frac"] = (overhead[1], "ratio", overhead[2])
    return m


def tracing_overhead(plain, traced):
    """Traced minus untraced median scene latency over the scenes both passes ran.

    Each scene's untraced latency is the median of its repeats.
    """
    pairs = []
    for a, b in zip(plain, traced):
        untraced = [o.latency_s for o in a if o.latency_s is not None]
        if untraced and b.latency_s is not None:
            pairs.append((statistics.median(untraced), b.latency_s))
    if not pairs:
        return 0.0, 0.0, 0
    base = statistics.median(a for a, _ in pairs)
    delta = statistics.median(b for _, b in pairs) - base
    return delta, delta / base if base else 0.0, len(pairs)


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, wl, scenes, order, units):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    first = wl.scene_seed(0)
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "pool_units": len(order),
        "unit_order": order,
        "units_run": units,
        "scenes": len(scenes),
        "repeats_per_scene": [len(r) for r in scenes],
        "scene_seeds": f"{first}..{first + len(order) * wl.unit_size - 1} (NoiseSpec seeds)",
    }


def print_table(title, metrics):
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<40} {value:>14.6g}  {unit:<12} n={n}")


def contract_metrics(metrics, listed):
    out = {}
    for entry in listed:
        value, unit, _ = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise SystemExit(f"perfbench: {entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    t0 = time.perf_counter()
    mc = load_package()
    from hostspeed import HostSpeed  # these load numpy and scipy, so they count as set-up
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](mc, args.seed, args.tiny, workdir)
        order = wl.order(wl.pool_units(args.seconds / 2 if args.trace else args.seconds))
        first = wl.prepare(order[0])
        setup = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0

        if args.trace:
            scenes, units = run_pass(wl, args.seconds / 2, order, first)
            tracer = Tracer().install()
            try:
                traced, _ = run_pass(wl, args.seconds / 2, order, min_units=1, max_units=len(order))
            finally:
                tracer.uninstall()
            wl.finish()
            metrics = per_layer(
                tracer, traced, tracing_overhead(scenes, [r[0] for r in traced]))
            for r, again in zip(scenes, traced):
                r.extend(again)
            listed = spec["per_layer"]
        else:
            speed = HostSpeed()
            scenes, units = run_pass(wl, args.seconds, order, first, speed=speed)
            wl.finish()
            samples = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            metrics = end_to_end(wl, scenes, samples, speed)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    outcomes = [o for r in scenes for o in r]
    failed = sum(1 for r in scenes if any(o.failed for o in r))
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(args.workload)
    report = {
        "env": environment(args, wl, scenes, order, units),
        "why": why,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "errors": sorted({e for o in outcomes for e in o.errors})[:20],
        "failures": sorted({f for o in outcomes for f in o.failures})[:20],
    }
    if args.trace:
        report["skipped_spans"] = tracer.skipped
        report["hook_errors"] = sorted(tracer.hook_errors)
    print_table(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
                f"({len(scenes)} scenes, {failed} failed, {units} units run)", metrics)
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not any(o.failures for o in outcomes),
        "attempted": len(scenes),
        "failed": failed,
        "metrics": contract_metrics(metrics, listed),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
