"""In-memory span tracer for the powertrack benchmark.

The tracer wraps the public functions of each powertrack module at every
binding site: the defining module, and every module (or class) that holds
the same function object, since ``experiments``, ``costopt`` and ``control``
import with ``from .x import y`` and patching the defining module alone
would miss their calls.  Each call records a span (name, start, end, parent)
in memory plus a few counts read off its arguments and result; the originals
are put back when the ``with`` block ends.

Self time is a span's duration minus the time its child spans cover.  The
tracer's own bookkeeping after a call (reading counts off the result) is
kept out of both the span and its parent: a child's covered interval runs
to ``cover_end``, which is taken after that bookkeeping.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and how its spans count."""

    module: str            # defining module, e.g. "powertrack.demand"
    name: str              # function name, or "Class.method"
    bucket: str            # self-time bucket, e.g. "costopt.seq"
    count: Callable | None = None  # (args, kwargs, result) -> dict of counts

    @property
    def layer(self) -> str:
        return self.bucket.split(".")[0]


@dataclass
class Span:
    name: str
    bucket: str
    layer: str
    start: float
    end: float
    cover_end: float
    parent: int
    error: bool
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rng_key(rng):
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    entropy = getattr(seed_seq, "entropy", None)
    return entropy if isinstance(entropy, tuple) else ("rng", id(rng))


def _path_counts(paths, keys):
    return {"paths": len(paths),
            "steps": sum(p.times.size - 1 for p in paths),
            "jump_events": sum(p.jump_times.size for p in paths),
            "keys": keys}


def _sample_path(args, kwargs, result):
    return _path_counts([result], (_rng_key(_arg(args, kwargs, 2, "rng")),))


def _sample_paths(args, kwargs, result):
    seed = int(_arg(args, kwargs, 3, "seed"))
    # the keys (seed, 0..n-1) are expanded only when metrics are derived
    return _path_counts(result, ("range", seed, len(result)))


def _sample_ensemble(args, kwargs, result):
    key = _rng_key(_arg(args, kwargs, 2, "rng"))
    return _path_counts(result, tuple((key, j) for j in range(len(result))))


def _points(*arrays):
    return {"points": int(np.broadcast(*[np.asarray(a) for a in arrays]).size)}


def _weighted_mean_integral(args, kwargs, result):
    mean = _arg(args, kwargs, 0, "mean")
    kappa = float(_arg(args, kwargs, 1, "kappa"))
    t0 = np.asarray(_arg(args, kwargs, 2, "t0"), dtype=float)
    t = np.asarray(_arg(args, kwargs, 3, "t"), dtype=float)
    out = _points(t0, t)
    out["wmi_key"] = (id(mean), kappa, t0.shape, t0.tobytes(), t.shape, t.tobytes())
    return out


def _field(result):
    z = result.z
    return {"cells": int(z.size), "field_bytes": int(z.nbytes)}


TARGETS: tuple[Target, ...] = (
    Target("powertrack.demand", "sample_path", "demand", _sample_path),
    Target("powertrack.demand", "sample_paths", "demand", _sample_paths),
    Target("powertrack.demand", "sample_ensemble", "demand", _sample_ensemble),
    Target("powertrack.moments", "first_moment", "moments",
           lambda a, k, r: _points(_arg(a, k, 1, "t"))),
    Target("powertrack.moments", "second_moment", "moments",
           lambda a, k, r: _points(_arg(a, k, 1, "t"))),
    Target("powertrack.moments", "conditional_mean", "moments",
           lambda a, k, r: _points(_arg(a, k, 1, "t0"), _arg(a, k, 3, "t"))),
    Target("powertrack.moments", "conditional_variance", "moments",
           lambda a, k, r: _points(_arg(a, k, 1, "delta"))),
    Target("powertrack.moments", "weighted_mean_integral", "moments",
           _weighted_mean_integral),
    Target("powertrack.moments", "jump_sum_moments", "moments",
           lambda a, k, r: _points(_arg(a, k, 2, "delta"))),
    Target("powertrack.control", "cm1_control", "control"),
    Target("powertrack.control", "cm2_control", "control"),
    Target("powertrack.control", "cm3_control", "control"),
    Target("powertrack.costopt", "mc_cost_estimate", "costopt.mc"),
    Target("powertrack.costopt", "Cm1Policy.control_for", "costopt.mc"),
    Target("powertrack.costopt", "Cm2Policy.control_for", "costopt.mc"),
    Target("powertrack.costopt", "Cm3Policy.control_for", "costopt.mc"),
    Target("powertrack.costopt", "sequential_update_solve", "costopt.seq",
           lambda a, k, r: _field(r[1])),
    Target("powertrack.costopt", "cumrmse_analytic", "costopt.analytic"),
    Target("powertrack.costopt", "minimize_control", "costopt.analytic"),
    Target("powertrack.costopt", "minimize_control_direct", "costopt.analytic"),
    Target("powertrack.costopt", "deterministic_cost", "costopt.analytic"),
    Target("powertrack.transport", "upwind_solve", "transport",
           lambda a, k, r: _field(r)),
    Target("powertrack.experiments", "run_scenario", "experiments"),
    Target("powertrack.experiments", "write_bands", "experiments"),
    Target("powertrack.experiments", "confidence_bands", "experiments"),
    Target("powertrack.experiments", "convergence_study", "experiments"),
    Target("powertrack.experiments", "write_convergence", "experiments"),
    Target("powertrack.cli", "main", "cli"),
)

BUCKETS = ("demand", "moments", "control", "costopt.mc", "costopt.seq",
           "costopt.analytic", "transport", "experiments", "cli")
LAYERS = ("demand", "moments", "control", "costopt", "transport",
          "experiments", "cli")


class Tracer:
    """Context manager that traces ``targets`` while it is active.

    ``package`` names the package whose modules are scanned for binding
    sites; a function bound under several names is wrapped at each one.
    """

    def __init__(self, targets=TARGETS, package: str = "powertrack"):
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def __enter__(self) -> "Tracer":
        modules = self._modules()
        try:
            for target in self.targets:
                owner = sys.modules[target.module]
                if "." in target.name:
                    cls_name, meth = target.name.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], target))
                    continue
                original = getattr(owner, target.name)
                wrapper = self._wrap(original, target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        name = f"{target.module.rsplit('.', 1)[-1]}.{target.name}"
        bucket, layer, count = target.bucket, target.layer, target.count
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = Span(name, bucket, layer, 0.0, 0.0, 0.0, parent, False)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.end = span.cover_end = clock()
                span.error = True
                raise
            finally:
                stack.pop()
            span.end = clock()
            if count is not None:
                span.counts = count(args, kwargs, result)
            span.cover_end = clock()
            return result

        return functools.update_wrapper(traced, fn)

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start": s.start - origin,
                                     "end": s.end - origin}) + "\n")


# ---------------------------------------------------------------------------
# Metrics derived from spans
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.cover_end - s.start
    return [(s.end - s.start) - covered[i] for i, s in enumerate(spans)]


def _is_entry(spans: list[Span], s: Span) -> bool:
    """True for a call into a layer from outside it (or from the benchmark)."""
    return s.parent < 0 or spans[s.parent].layer != s.layer


def _path_keys(keys):
    if keys and keys[0] == "range":
        _, seed, n = keys
        return ((seed, i) for i in range(n))
    return keys


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation (see BENCHMARK.json)."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    by_bucket = {b: 0.0 for b in BUCKETS}
    for s, t in zip(spans, selfs):
        by_bucket[s.bucket] += t
    errors = {layer: 0 for layer in LAYERS}
    entry = [s for s in spans if _is_entry(spans, s)]
    for s in entry:
        errors[s.layer] += int(s.error)

    demand = [s for s in entry if s.layer == "demand" and s.counts]
    keys = set()
    for s in demand:
        keys.update(_path_keys(s.counts["keys"]))
    paths = sum(s.counts["paths"] for s in demand)
    out["demand.self_s"] = by_bucket["demand"]
    out["demand.paths"] = paths
    out["demand.steps"] = sum(s.counts["steps"] for s in demand)
    out["demand.jump_events"] = sum(s.counts["jump_events"] for s in demand)
    out["demand.distinct_path_ratio"] = len(keys) / paths if paths else 1.0

    moments = [s for s in entry if s.layer == "moments"]
    wmi = [s.counts["wmi_key"] for s in spans
           if s.name == "moments.weighted_mean_integral" and s.counts]
    out["moments.self_s"] = by_bucket["moments"]
    out["moments.calls"] = len(moments)
    out["moments.points"] = sum(s.counts.get("points", 0) for s in moments)
    out["moments.wmi_repeat_ratio"] = ((len(wmi) - len(set(wmi))) / len(wmi)
                                       if wmi else 0.0)

    out["control.self_s"] = by_bucket["control"]
    out["control.calls"] = sum(1 for s in entry if s.layer == "control")

    out["costopt.mc_self_s"] = by_bucket["costopt.mc"]
    out["costopt.policy_calls"] = sum(1 for s in spans
                                      if s.name.endswith(".control_for"))
    out["costopt.seq_self_s"] = by_bucket["costopt.seq"]
    out["costopt.seq_cells"] = sum(s.counts.get("cells", 0) for s in spans
                                   if s.bucket == "costopt.seq")
    out["costopt.analytic_self_s"] = by_bucket["costopt.analytic"]

    upwind = [s for s in spans if s.bucket == "transport"]
    out["transport.self_s"] = by_bucket["transport"]
    out["transport.cells"] = sum(s.counts.get("cells", 0) for s in upwind)
    out["transport.field_mb"] = (sum(s.counts.get("field_bytes", 0) for s in upwind)
                                 / 2 ** 20)

    out["experiments.self_s"] = by_bucket["experiments"]
    out["cli.self_s"] = by_bucket["cli"]
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out
