"""The benchmark's workloads: input generation, the timed pipeline, checks.

Each workload is a closed loop over units of work, one at a time. A unit
is one scene, except for eval-n100 where it is one `mincdpnp eval` call
over a small batch. `prepare(i)` builds unit i's input (untimed, except
for the run's first unit, which is part of set-up), `run` is the timed
call into the package, and `outcomes` checks the result and returns one
`SceneOutcome` per scene.

A run's units form a pool, units 0..pool-1, whose size depends only on
the run's --seconds. Scene i is always generated from NoiseSpec seed i,
so every run with the same --seconds works on the same scenes; the
run's seed sets the order in which the loop takes them (`order`) and so
which of them it repeats while time is left. Runs then differ in the
host's speed, not in how costly the scenes they drew happen to be.
Workloads reach the package only through its public API, looked up at
call time so that the traced run's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PASSES = 1.5  # passes over the pool that a run is sized for


@dataclass
class SceneOutcome:
    """What one scene took, how good its result was, and what went wrong.

    `errors` are exceptions the package raised instead of giving a
    result; `failures` are checks that a result it gave did not pass.
    Either makes the scene count as failed; only failures make the run
    incorrect. latency_s is None when the scene has no complete result.
    """

    latency_s: float | None
    unit_wall_s: float  # this scene's share of its unit's wall clock
    quality: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.failures)


class Workload:
    name = ""
    quality = ()  # quality metrics this workload reports
    unit_size = 1  # scenes per unit
    unit_s = 1.0  # typical seconds per unit at full size, 2 vCPUs, 1 BLAS thread

    def __init__(self, mc, seed: int, tiny: bool, workdir: Path):
        self.mc = mc
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def scene_seed(self, i: int) -> int:
        return i

    def order(self, pool: int) -> list[int]:
        """The run's order over units 0..pool-1, fixed by its seed."""
        return [int(i) for i in np.random.default_rng(self.seed).permutation(pool)]

    def pool_units(self, seconds: float) -> int:
        """Units in a run's pool: sized so that `seconds` allow about
        PASSES passes. It depends only on `seconds`, so every run of
        the same length attempts the same scenes."""
        return max(1, round(seconds / (PASSES * self.unit_s)))

    def prepare(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def outcomes(self, inp, out, wall: float) -> list[SceneOutcome]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; they add failures to outcomes."""

    def bound_failures(self, scene, poses: dict) -> list[str]:
        """kappa <= kappa* on the ground-truth matching at every pose given."""
        failures = []
        for label, T in poses.items():
            k, ks, ok = self.mc.check_inequality8(
                T, scene.gt_pairs, scene.pixels, scene.cloud, scene.K
            )
            if not ok:
                failures.append(f"kappa {k} > kappa* {ks} at {label}")
        return failures


class ChamferN1000(Workload):
    """Chamfer solve from a perturbed truth; features, pnp and keypoint idle."""

    name = "chamfer-n1000"
    quality = ("rr", "kappa_star_frac")
    unit_s = 10.0

    def prepare(self, i):
        s = self.scene_seed(i)
        noise = self.mc.NoiseSpec(seed=s, pixel_noise_sigma=0.5, outlier_rate=0.2)
        return s, self.mc.generate_scene(50 if self.tiny else 1000, noise=noise)

    def run(self, inp):
        s, scene = inp
        mc = self.mc
        T0 = mc.perturb_pose(scene.T_gt, 5.0, 0.1, s)
        T, trace = mc.solve_pose_chamfer(T0, scene.pixels, scene.cloud, scene.K)
        _, success = mc.registration_success(T, scene)
        ks = mc.kappa_star(T, scene.pixels, scene.cloud, scene.K)
        return T, trace, success, ks

    def outcomes(self, inp, out, wall):
        _, scene = inp
        T, trace, success, ks = out
        failures = self.bound_failures(scene, {"T_est": T, "T_gt": scene.T_gt})
        costs = [row.cost for row in trace]
        if any(b > a for a, b in zip(costs, costs[1:])):
            failures.append("Chamfer trace cost increased")
        quality = {
            "rr": float(success),
            "kappa_star_frac": ks / (len(scene.pixels) + len(scene.cloud)),
        }
        return [SceneOutcome(wall, wall, quality, failures)]


class PnpN1000(Workload):
    """Matching then RANSAC-PnP on 50% wrong matches; chamfer and keypoint idle.

    delta=2.0 is the largest distance between unit features, so every
    pixel keeps its nearest feature and outlier pixels become real
    wrong matches.
    """

    name = "pnp-n1000"
    quality = ("rr", "kappa_star_frac", "ir")
    unit_s = 1.0

    def prepare(self, i):
        s = self.scene_seed(i)
        noise = self.mc.NoiseSpec(seed=s, pixel_noise_sigma=0.5, outlier_rate=0.5)
        return s, self.mc.generate_scene(200 if self.tiny else 1000, noise=noise)

    def run(self, inp):
        s, scene = inp
        mc = self.mc
        C = mc.match_scene(scene, mc.MatchConfig(delta=2.0))
        T, _ = mc.pnp_ransac(C, scene.pixels, scene.cloud, scene.K, mc.RansacConfig(seed=s))
        ir = mc.inlier_ratio(C, scene)
        _, success = mc.registration_success(T, scene)
        ks = mc.kappa_star(T, scene.pixels, scene.cloud, scene.K)
        return T, ir, success, ks

    def outcomes(self, inp, out, wall):
        _, scene = inp
        T, ir, success, ks = out
        failures = self.bound_failures(scene, {"T_est": T, "T_gt": scene.T_gt})
        quality = {
            "rr": float(success),
            "kappa_star_frac": ks / (len(scene.pixels) + len(scene.cloud)),
            "ir": ir,
        }
        return [SceneOutcome(wall, wall, quality, failures)]


class EvalN100(Workload):
    """The ROADMAP baseline `mincdpnp eval` command, run in-process in batches.

    Both solvers at N=100, where per-call overhead dominates; keypoint idle.

    A scene's latency is the sum of its two records' timings (pnp and
    chamfer). Records with timings removed must read the same whenever
    a batch runs again; `finish` reruns batch 0 if the run did not.
    """

    name = "eval-n100"
    quality = ("rr", "ir")
    unit_size = 2
    unit_s = 2.0

    def __init__(self, mc, seed, tiny, workdir):
        super().__init__(mc, seed, tiny, workdir)
        self.first_seen: dict = {}  # batch seed -> ({scene_id: record text}, outcomes)
        self.compared: set = set()  # batch seeds that ran more than once

    def prepare(self, i):
        return self.scene_seed(i * self.unit_size)

    def argv(self, batch_seed, out):
        return [
            "eval", "--gen", str(self.unit_size), "--solver", "both",
            "--n-points", "20" if self.tiny else "100",
            "--pixel-noise", "0.5", "--outlier-rate", "0.2",
            "--include-timings", "--seed", str(batch_seed), "--out", str(out),
        ]

    def run(self, batch_seed):
        out = self.workdir / "records.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):  # the summary table
            code = self.mc.cli.main(self.argv(batch_seed, out))
        return code, out.read_text()

    def outcomes(self, batch_seed, out, wall):
        code, text = out
        rows = [json.loads(line) for line in text.splitlines()]
        by_scene: dict = {}
        for row in rows:
            by_scene.setdefault(row["scene_id"], []).append(row)
        results, stripped = {}, {}
        for k in range(self.unit_size):
            sid = f"scene_{k:04d}"
            records = [r for r in by_scene.get(sid, []) if "error" not in r]
            errors = [f"{sid}: {r['error']}" for r in by_scene.get(sid, []) if "error" in r]
            failures = []
            if code != 0 and not any("error" in r for r in rows):
                failures.append(f"eval exited with {code} and wrote no error row")
            if len(records) + len(errors) != 2:
                failures.append(f"{sid}: {len(records)} records, expected 2")
            latency = None
            if len(records) == 2:
                latency = sum(sum(r.get("timings", {}).values()) for r in records)
            quality = {}
            if records:
                quality = {
                    "rr": sum(r["rr_success"] for r in records) / len(records),
                    "ir": sum(r["ir"] for r in records) / len(records),
                }
            stripped[sid] = "\n".join(
                json.dumps({k2: v for k2, v in r.items() if k2 != "timings"}, sort_keys=True)
                for r in by_scene.get(sid, [])
            )
            results[sid] = SceneOutcome(
                latency, wall / self.unit_size, quality, failures, errors=errors
            )
        self._compare(batch_seed, stripped, results)
        return list(results.values())

    def _compare(self, batch_seed, stripped, results):
        if batch_seed not in self.first_seen:
            self.first_seen[batch_seed] = (stripped, results)
            return
        self.compared.add(batch_seed)
        first, _ = self.first_seen[batch_seed]
        for sid, text in stripped.items():
            if text != first.get(sid):
                results[sid].failures.append(f"{sid}: records differ from the batch's first run")

    def finish(self):
        first_batch = self.prepare(0)
        if first_batch in self.compared or first_batch not in self.first_seen:
            return
        _, originals = self.first_seen[first_batch]
        rerun = self.outcomes(first_batch, self.run(first_batch), 0.0)
        for original, again in zip(originals.values(), rerun):
            original.failures.extend(f for f in again.failures if f not in original.failures)


class SceneIoN4000(Workload):
    """Scene I/O, matching and keypoint selection at N=4000; no solver runs."""

    name = "scene-io-n4000"
    quality = ("ir", "kp_precision", "kp_recall")
    unit_s = 5.5

    def prepare(self, i):
        s = self.scene_seed(i)
        noise = self.mc.NoiseSpec(
            seed=s, pixel_noise_sigma=0.5, feature_noise_sigma=0.3,
            outlier_rate=0.2, dropout_rate=0.1,
        )
        return s, self.mc.generate_scene(60 if self.tiny else 4000, noise=noise)

    def run(self, inp):
        _, scene = inp
        mc = self.mc
        directory = self.workdir / "scene"
        scene.save_dir(directory)
        loaded = mc.ScenePair.load_dir(directory)
        C = mc.match_scene(loaded)
        report = mc.evaluate_selection(loaded.pixels, loaded.cloud, loaded.T_gt, loaded.K)
        bound = mc.check_inequality8(
            loaded.T_gt, loaded.gt_pairs, loaded.pixels, loaded.cloud, loaded.K
        )
        ir = mc.inlier_ratio(C, loaded)
        return loaded, report, bound, ir

    def outcomes(self, inp, out, wall):
        _, scene = inp
        loaded, report, (k, ks, ok), ir = out
        directory = self.workdir / "scene"
        scene_bytes = sum(p.stat().st_size for p in directory.iterdir())
        shutil.rmtree(directory)
        failures = [f"round trip changed {what}" for what in _round_trip_diff(scene, loaded)]
        if not ok:
            failures.append(f"kappa {k} > kappa* {ks} at T_gt")
        quality = {"ir": ir, "kp_precision": report.precision, "kp_recall": report.recall}
        return [SceneOutcome(wall, wall, quality, failures, {"synth.scene_bytes": scene_bytes})]


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _round_trip_diff(a, b) -> list[str]:
    """Names of the scene fields that a save/load round trip changed."""
    fields = {
        "cloud.points": (a.cloud.points, b.cloud.points),
        "cloud.features": (a.cloud.features, b.cloud.features),
        "pixels.pixels": (a.pixels.pixels, b.pixels.pixels),
        "pixels.features": (a.pixels.features, b.pixels.features),
        "depth": (a.depth, b.depth),
        "T_gt.R": (a.T_gt.R, b.T_gt.R),
        "T_gt.t": (a.T_gt.t, b.T_gt.t),
        "gt_pairs.idx2d": (a.gt_pairs.idx2d, b.gt_pairs.idx2d),
        "gt_pairs.idx3d": (a.gt_pairs.idx3d, b.gt_pairs.idx3d),
        "gt_pairs.scores": (a.gt_pairs.scores, b.gt_pairs.scores),
        "K": (
            [a.K.fu, a.K.fv, a.K.cu, a.K.cv],
            [b.K.fu, b.K.fv, b.K.cu, b.K.cv],
        ),
    }
    changed = [name for name, (x, y) in fields.items() if not _same_bits(x, y)]
    if a.meta != b.meta:
        changed.append("meta")
    return changed


WORKLOADS = {w.name: w for w in (ChamferN1000, PnpN1000, EvalN100, SceneIoN4000)}
