"""Per-layer tracing for the benchmark: spans recorded around layer entry points.

:class:`LayerTracer` wraps the public entry points of each layer of the
program from outside (class methods, and module-level functions in every
module that imported them by name), records one span per call with its
parent, and folds the spans into per-layer totals:

* ``self`` seconds — span duration minus the part its child spans cover;
* ``calls`` — how many spans the layer opened;
* ``root`` seconds — the duration of spans with no traced parent, which is
  how much of the run's wall time the trace attributes to a named layer.

Hooks attached to a layer see each call's arguments and result, so a layer
can count its own work (fault x pattern pairs, PODEM outcomes) where it
happens.  Every wrapper is removed again by :meth:`LayerTracer.uninstall`;
the wrapped code runs unchanged, so results are identical with and without
the tracer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``hook(counts, args, kwargs, result)`` — adds layer work counts.
Hook = Callable[[dict, tuple, dict, Any], None]

#: Restore marker: the wrapped method was inherited, so unwrapping deletes it.
_INHERITED = object()


@dataclass
class _Frame:
    child_seconds: float = 0.0


@dataclass
class LayerTotals:
    calls: int = 0
    self_seconds: float = 0.0


@dataclass
class LayerTracer:
    """Installs span wrappers; aggregates self time per layer."""

    totals: dict[str, LayerTotals] = field(
        default_factory=lambda: defaultdict(LayerTotals)
    )
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    root_seconds: float = 0.0
    _stack: list[_Frame] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    # ----------------------------------------------------------------- wrapping
    def _wrap(self, layer: str, original: Callable, hook: Hook | None) -> Callable:
        stack = self._stack
        totals = self.totals
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = clock() - started
                stack.pop()
                entry = totals[layer]
                entry.calls += 1
                entry.self_seconds += duration - frame.child_seconds
                if stack:
                    stack[-1].child_seconds += duration
                else:
                    self.root_seconds += duration
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        traced.__name__ = getattr(original, "__name__", layer)
        return traced

    def wrap_method(
        self, cls: type, name: str, layer: str, hook: Hook | None = None
    ) -> None:
        """Trace ``cls.name`` (looked up through the MRO, set on ``cls``)."""
        had_own = name in cls.__dict__
        original = getattr(cls, name)
        setattr(cls, name, self._wrap(layer, original, hook))
        # Restoring an inherited method means deleting the override again.
        self._restore.append((cls, name, original if had_own else _INHERITED))

    def wrap_function(
        self, module: str, name: str, layer: str, hook: Hook | None = None
    ) -> None:
        """Trace a module-level function in every module bound to it by name."""
        original = getattr(sys.modules[module], name)
        traced = self._wrap(layer, original, hook)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for attribute, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, attribute, traced)
                    self._restore.append((loaded, attribute, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # ---------------------------------------------------------------- results
    def self_seconds(self, layer: str) -> float:
        return self.totals[layer].self_seconds if layer in self.totals else 0.0

    def calls(self, layer: str) -> int:
        return self.totals[layer].calls if layer in self.totals else 0


# ---------------------------------------------------------------------------
# The layer catalogue: which entry points are traced, and what they count
# ---------------------------------------------------------------------------
def _podem_outcome(counts, args, kwargs, result) -> None:
    counts["podem_found"] += result.found


def _atpg_result(counts, args, kwargs, result) -> None:
    counts["merge_attempted"] += result.compaction.attempted_merges
    counts["merge_successful"] += result.compaction.successful_merges


def _batch_pairs(counts, args, kwargs, result) -> None:
    final, faults = args[1], args[2]
    counts["fault_pattern_pairs"] += len(faults) * final.num_patterns


def _compiled_kernels(counts, args, kwargs, result) -> None:
    stats = getattr(result, "hier_stats", None)
    if stats is not None:
        counts["unique_kernels"] = max(
            counts["unique_kernels"], stats()["unique_core_kernels"]
        )


def _collapsed(counts, args, kwargs, result) -> None:
    counts["collapsed"] += len(result.representatives)


def _bp_result(counts, args, kwargs, result) -> None:
    counts["diagnosed"] += 1
    counts["candidates"] += result.candidate_count
    counts["bp_iterations"] += result.bp_iterations
    counts["converged"] += result.converged


def install_layers(tracer: LayerTracer) -> None:
    """Wrap every traced entry point (imports are local: the runner puts the
    program's sources on the path first)."""
    from repro.api.design import DesignPipeline
    from repro.api.session import TestSession
    from repro.atpg.compaction import DynamicCompactor
    from repro.atpg.generator import AtpgGenerator
    from repro.atpg.podem import PodemEngine
    from repro.engine.cache import ResultCache
    from repro.engine.scheduler import FaultSimScheduler
    from repro.fault_sim.stuck_at import StuckAtFaultSimulator
    from repro.fault_sim.transition import TransitionFaultSimulator
    from repro.runtime import Executor

    wrap = tracer.wrap_method
    wrap(DesignPipeline, "prepare", "api.prepare")
    wrap(TestSession, "run", "api.session")
    wrap(TestSession, "run_scenario", "api.session")
    wrap(Executor, "execute", "runtime.execute")
    wrap(AtpgGenerator, "run", "atpg.driver", _atpg_result)
    wrap(PodemEngine, "run", "atpg.podem", _podem_outcome)
    wrap(DynamicCompactor, "add", "atpg.compaction")
    wrap(DynamicCompactor, "flush", "atpg.compaction")
    wrap(TransitionFaultSimulator, "simulate", "fault_sim.simulate")
    wrap(TransitionFaultSimulator, "simulate_stuck_at", "fault_sim.simulate")
    wrap(StuckAtFaultSimulator, "simulate", "fault_sim.simulate")
    wrap(FaultSimScheduler, "detect_batch", "engine.detect_batch", _batch_pairs)
    wrap(ResultCache, "get", "engine.cache_get")
    wrap(ResultCache, "put", "engine.cache_put")
    function = tracer.wrap_function
    function("repro.engine.compile", "compile_circuit", "engine.compile", _compiled_kernels)
    function("repro.faults.collapse", "collapse_faults", "faults.collapse", _collapsed)
    function("repro.diagnose.diagnose", "simulate_candidate_syndromes", "diagnose.syndrome")
    function("repro.volume.graph", "run_bp_diagnosis", "volume.diagnose", _bp_result)
    function("repro.volume.bp", "max_product_bp", "volume.bp")
    function("repro.volume.run", "volume_plan", "volume.plan")


#: Per-layer metric -> unit, in report order.
LAYER_UNITS = {
    "atpg.podem_s": "s",
    "atpg.podem_calls": "count",
    "atpg.decisions": "count",
    "atpg.backtracks": "count",
    "atpg.podem_found_ratio": "ratio",
    "atpg.driver_self_s": "s",
    "atpg.compaction_s": "s",
    "atpg.merge_ratio": "ratio",
    "fault_sim.simulate_s": "s",
    "fault_sim.calls": "count",
    "fault_sim.fault_pattern_pairs": "count",
    "engine.detect_batch_s": "s",
    "engine.gate_evaluations": "count",
    "api.prepare_s": "s",
    "api.session_self_s": "s",
    "engine.compile_s": "s",
    "hier.unique_kernels": "count",
    "faults.collapse_s": "s",
    "faults.collapsed": "count",
    "diagnose.syndrome_s": "s",
    "diagnose.candidates_scored": "count",
    "volume.diagnose_self_s": "s",
    "volume.plan_s": "s",
    "volume.bp_s": "s",
    "volume.bp_iterations": "count",
    "volume.converged_ratio": "ratio",
    "volume.log_p50_s": "s",
    "volume.log_p90_s": "s",
    "volume.resume_logs_per_s": "1/s",
    "engine.cache_put_s": "s",
    "engine.cache_get_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "runtime.execute_self_s": "s",
    "runtime.overhead_s": "s",
    "obs.trace_overhead_pct": "%",
    "unattributed_pct": "%",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: LayerTracer,
    counters: dict[str, float],
    runtime_overhead_s: float,
    traced_wall: float,
    untraced_wall: float,
) -> dict[str, float]:
    """Fold spans, hook counts and the program's obs counters into metrics."""
    seconds, calls, counts = tracer.self_seconds, tracer.calls, tracer.counts
    hits, misses = counters.get("cache.hits", 0), counters.get("cache.misses", 0)
    values = {
        "atpg.podem_s": seconds("atpg.podem"),
        "atpg.podem_calls": calls("atpg.podem"),
        "atpg.decisions": counters.get("atpg.decisions", 0),
        "atpg.backtracks": counters.get("atpg.backtracks", 0),
        "atpg.podem_found_ratio": _ratio(counts["podem_found"], calls("atpg.podem")),
        "atpg.driver_self_s": seconds("atpg.driver"),
        "atpg.compaction_s": seconds("atpg.compaction"),
        "atpg.merge_ratio": _ratio(counts["merge_successful"], counts["merge_attempted"]),
        "fault_sim.simulate_s": seconds("fault_sim.simulate"),
        "fault_sim.calls": calls("fault_sim.simulate"),
        "fault_sim.fault_pattern_pairs": counts["fault_pattern_pairs"],
        "engine.detect_batch_s": seconds("engine.detect_batch"),
        "engine.gate_evaluations": counters.get("engine.gate_evaluations", 0),
        "api.prepare_s": seconds("api.prepare"),
        "api.session_self_s": seconds("api.session"),
        "engine.compile_s": seconds("engine.compile"),
        "hier.unique_kernels": counts["unique_kernels"],
        "faults.collapse_s": seconds("faults.collapse"),
        "faults.collapsed": counts["collapsed"],
        "diagnose.syndrome_s": seconds("diagnose.syndrome"),
        "diagnose.candidates_scored": counts["candidates"],
        "volume.diagnose_self_s": seconds("volume.diagnose"),
        "volume.plan_s": seconds("volume.plan"),
        "volume.bp_s": seconds("volume.bp"),
        "volume.bp_iterations": counts["bp_iterations"],
        "volume.converged_ratio": _ratio(counts["converged"], counts["diagnosed"]),
        "engine.cache_put_s": seconds("engine.cache_put"),
        "engine.cache_get_s": seconds("engine.cache_get"),
        "engine.cache_hit_ratio": _ratio(hits, hits + misses),
        "runtime.execute_self_s": seconds("runtime.execute"),
        "runtime.overhead_s": runtime_overhead_s,
        "obs.trace_overhead_pct": 100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "unattributed_pct": 100.0 * (traced_wall - tracer.root_seconds) / traced_wall,
    }
    # The volume pipeline timings come from the workload's untraced pass.
    return {name: float(values.get(name, 0.0)) for name in LAYER_UNITS}
