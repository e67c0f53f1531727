"""Per-layer spans for the traced benchmark run.

The package has no tracing of its own, so the benchmark wraps public
functions from outside: every namespace of the package that binds a
traced function is rebound to one wrapper, so a call made from any
layer, or from inside the same module, records a span. Each span keeps
its name, start, end and the index of the span that was open when it
began. A layer's self time is its span duration minus the time its
child spans cover.

A name that the package no longer defines is skipped and listed in
`Tracer.skipped`, so a later change that removes a function does not
break the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import defaultdict

PACKAGE = "mincdpnp"


def _chamfer_solve_counts(counters, call, result):
    _, trace = result
    last = trace[-1].iteration
    counters["chamfer.iterations"] += last
    counters["chamfer.accepted_steps"] += sum(1 for row in trace[1:] if row.step_size > 0)
    cfg = call.arguments.get("cfg")
    if cfg is not None and last >= cfg.max_iters:
        counters["chamfer.solves_at_max_iters"] += 1


def _ransac_counts(counters, call, result):
    _, mask = result
    counters["pnp.ransac_inliers"] += int(mask.sum())
    counters["pnp.ransac_pairs"] += len(mask)


# (span name, module, attribute path in that module, result hook).
# A dotted path names a method of one of the layer's classes, or a
# function of a foreign module as this layer alone sees it (pnp.svd
# times np.linalg.svd for the pnp module's calls only).
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("evaluation.run_pipeline", "evaluation", "run_pipeline", None),
    ("evaluation.match_scene", "evaluation", "match_scene", None),
    ("evaluation.inlier_ratio", "evaluation", "inlier_ratio", None),
    ("evaluation.registration_success", "evaluation", "registration_success", None),
    ("evaluation.write_records_jsonl", "evaluation", "write_records_jsonl", None),
    ("chamfer.solve_pose_chamfer", "chamfer", "solve_pose_chamfer", _chamfer_solve_counts),
    ("chamfer.chamfer_cost", "chamfer", "chamfer_cost", None),
    ("pnp.pnp_ransac", "pnp", "pnp_ransac", _ransac_counts),
    ("pnp.svd", "pnp", "np.linalg.svd", None),
    ("features.feature_distance_matrix", "features", "feature_distance_matrix", None),
    ("keypoint.evaluate_selection", "keypoint", "evaluate_selection", None),
    ("keypoint.select_3d_keypoints", "keypoint", "select_3d_keypoints", None),
    ("keypoint.reprojection_correctness", "keypoint", "reprojection_correctness", None),
    ("keypoint.keypoint_precision_recall", "keypoint", "keypoint_precision_recall", None),
    ("blindpnp.check_inequality8", "blindpnp", "check_inequality8", None),
    ("blindpnp.kappa_star", "blindpnp", "kappa_star", None),
    ("blindpnp.kappa", "blindpnp", "kappa", None),
    ("synth.generate_scene", "synth", "generate_scene", None),
    ("synth.perturb_pose", "synth", "perturb_pose", None),
    ("synth.save_dir", "synth", "ScenePair.save_dir", None),
    ("synth.load_dir", "synth", "ScenePair.load_dir", None),
    ("geometry.project_points", "geometry", "project_points", None),
    ("geometry.se3_exp", "geometry", "se3_exp", None),
    ("geometry.exp_action_jacobian", "geometry", "exp_action_jacobian", None),
    ("geometry.projection_jacobian", "geometry", "projection_jacobian", None),
)


class _Proxy:
    """Stands in for a foreign module inside one layer's namespace,
    overriding some attributes and passing every other lookup through."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans of wrapped calls and counters taken from their results."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counters: defaultdict = defaultdict(float)
        self.skipped: list[str] = []
        self.hook_errors: set[str] = set()
        self._open: list[int] = []
        self._undo: list = []

    def wrap(self, name, fn, hook=None):
        spans, open_ = self.spans, self._open
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can name it
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                self._count(name, hook, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, name, hook, signature, args, kwargs, result):
        try:
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            hook(self.counters, call, result)
        except (TypeError, ValueError, AttributeError, IndexError, KeyError):
            # the function's signature or result changed shape: its
            # spans still count, its derived counters are reported missing
            self.hook_errors.add(name)

    def install(self, targets=TARGETS):
        """Wrap every target the package defines; skip the ones it does not."""
        for name, module_name, path, hook in targets:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            head, *rest = path.split(".")
            owner = getattr(module, head, None) if module is not None else None
            if owner is None:
                self.skipped.append(name)
            elif not rest:
                self._rebind_everywhere(owner, self.wrap(name, owner, hook))
            elif isinstance(owner, type) and len(rest) == 1:
                self._wrap_method(name, owner, rest[0], hook)
            elif isinstance(owner, types.ModuleType):
                self._wrap_foreign(name, module, head, owner, rest, hook)
            else:
                self.skipped.append(name)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_method(self, name, cls, attr, hook):
        raw = cls.__dict__.get(attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, hook)))
        elif isinstance(raw, types.FunctionType):
            self._set(cls, attr, self.wrap(name, raw, hook))
        else:
            self.skipped.append(name)

    def _wrap_foreign(self, name, module, head, foreign, rest, hook):
        chain = [foreign]
        for part in rest:
            chain.append(getattr(chain[-1], part, None))
            if chain[-1] is None:
                self.skipped.append(name)
                return
        replacement = self.wrap(name, chain[-1], hook)
        for owner, part in reversed(list(zip(chain[:-1], rest))):
            replacement = _Proxy(owner, **{part: replacement})
        self._set(module, head, replacement)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_totals(spans) -> dict:
    """{span name: {"calls", "self_s"}} summed over all spans."""
    out: dict = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return out
