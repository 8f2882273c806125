"""Spans around the package's public functions, recorded from outside.

`Tracer.install` wraps each traced function in every package module that
binds it: the modules import each other with `from .x import y`, so
wrapping only the defining module would miss most calls.  `Dist`
constructions are counted by wrapping `Dist.__post_init__`.

Each call becomes one span (name, parent span, start, end) held in memory;
a span's self time is its duration minus the durations of the traced spans
it directly caused.  Hooks read counts off the arguments and return values
(array shapes, lattice sizes, the returned steps), which are public data.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

from reference import gaussian_count

# (module, function, metric prefix).  Several bundle builders share one name.
TRACED = [
    ("gf2", "span", "gf2.span"),
    ("gf2", "subspace_sum", "gf2.subspace_sum"),
    ("gf2", "all_subspaces", "gf2.all_subspaces"),
    ("dist", "wht", "dist.wht"),
    ("dist", "xor_convolve", "dist.xor_convolve"),
    ("dist", "pushforward_quotient", "dist.pushforward_quotient"),
    ("dist", "sum_fibers", "dist.sum_fibers"),
    ("entropy", "shannon_entropy", "entropy.shannon_entropy"),
    ("entropy", "conditional_doubling_mass", "entropy.conditional_doubling_mass"),
    ("entropy", "fibring_decompose", "entropy.fibring_decompose"),
    ("oracle", "exhaustive_best_subspace", "oracle.exhaustive_best_subspace"),
    ("oracle", "pfr_subspace", "oracle.pfr_subspace"),
    ("endgame", "endgame", "endgame.endgame"),
    ("endgame", "z_system_joints", "endgame.z_system_joints"),
    ("endgame", "endgame_move_quantities", "endgame.endgame_move_quantities"),
    ("pipeline", "inductive_step", "pipeline.inductive_step"),
    ("pipeline", "local_to_global", "pipeline.local_to_global"),
    ("certify", "verify_bundle", "certify.verify_bundle"),
    ("certify", "solve_bundle", "certify.bundle"),
    ("certify", "set_bundle", "certify.bundle"),
    ("certify", "pfr_bundle", "certify.bundle"),
    ("families", "doubling_stats", "families.doubling_stats"),
]

# Every per-layer metric the traced run prints, with its unit.
PER_LAYER = {}
for _prefix in sorted({p for _, _, p in TRACED} | {"dist.Dist"}):
    PER_LAYER[f"{_prefix}.calls"] = "count"
    PER_LAYER[f"{_prefix}.self_s"] = "s"
PER_LAYER.update(
    {
        "oracle.exhaustive_best_subspace.subspaces": "count",
        "dist.wht.flops": "count",
        "dist.wht.bytes": "B",
        "endgame.fiber_pairs": "count",
        "pipeline.steps_endgame": "count",
        "pipeline.steps_case1": "count",
        "pipeline.steps_case2": "count",
        "pipeline.steps_fallback": "count",
        "pipeline.steps_sumset_fix": "count",
        "pipeline.l2g_attempts": "count",
        "pipeline.l2g_mc_fallbacks": "count",
        "pipeline.fiber_cap_applied": "count",
        "pipeline.trivial_certs": "count",
        "trace.overhead_s": "s",
    }
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.enabled = False
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._fallback_errors: tuple = ()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        ed = self.package
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == ed.__name__]
        errors = sys.modules[f"{ed.__name__}.errors"]
        self._fallback_errors = (
            errors.HypothesisViolationError,
            errors.SearchFailureError,
            errors.PipelineError,
        )
        hooks = {
            "dist.wht": self._on_wht,
            "oracle.exhaustive_best_subspace": self._on_exhaustive,
            "endgame.endgame": self._on_endgame,
            "pipeline.inductive_step": self._on_inductive_step,
            "pipeline.local_to_global": self._on_local_to_global,
        }
        for module_name, attr, prefix in TRACED:
            original = getattr(sys.modules[f"{ed.__name__}.{module_name}"], attr)
            wrapper = self._wrap(original, prefix, hooks.get(prefix))
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        dist_cls = sys.modules[f"{ed.__name__}.dist"].Dist
        dist_cls.__post_init__ = self._wrap(dist_cls.__post_init__, "dist.Dist", None)

    def _wrap(self, fn, prefix: str, hook):
        span_name = self._intern(prefix)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name)
            tracer.name.append(span_name)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(time.perf_counter_ns())
            tracer.end.append(0)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except tracer._fallback_errors:
                if prefix == "pipeline.inductive_step":
                    # solve_B turns each failed inductive step into a FALLBACK step.
                    tracer.counts["pipeline.steps_fallback"] += 1
                raise
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                tracer.stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def _intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    # -- counters read off arguments and results ---------------------------

    def _on_wht(self, args, kwargs, result) -> None:
        shape = np.shape(result)
        size = shape[-1]
        rows = math.prod(shape[:-1])
        stages = size.bit_length() - 1
        # One add or subtract per entry per butterfly stage; each stage reads
        # and writes the whole float64 table (computed from shapes, no cache model).
        self.counts["dist.wht.flops"] += rows * size * stages
        self.counts["dist.wht.bytes"] += 2 * 8 * rows * size * stages

    def _on_exhaustive(self, args, kwargs, result) -> None:
        p = args[0] if args else kwargs["p"]
        self.counts["oracle.exhaustive_best_subspace.subspaces"] += gaussian_count(p.n)

    def _on_endgame(self, args, kwargs, result) -> None:
        self.counts["endgame.fiber_pairs"] += len(result.table)

    def _on_inductive_step(self, args, kwargs, result) -> None:
        for step in result.steps:
            kind = step.kind.lower()
            key = "sumset_fix" if kind.startswith("sumset_fix") else kind
            self.counts[f"pipeline.steps_{key}"] += 1
            if step.note.get("fiber_cap", {}).get("applied"):
                self.counts["pipeline.fiber_cap_applied"] += 1

    def _on_local_to_global(self, args, kwargs, result) -> None:
        self.counts["pipeline.l2g_attempts"] += result.attempts
        if not result.exact_expectations:
            self.counts["pipeline.l2g_mc_fallbacks"] += 1

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls, self time and counters per traced name, over the enabled spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=self_ns, minlength=len(self.names)) / 1e9
        out = {key: 0 for key in PER_LAYER}
        for i, prefix in enumerate(self.names):
            out[f"{prefix}.calls"] = int(calls[i])
            out[f"{prefix}.self_s"] = float(self_s[i])
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
