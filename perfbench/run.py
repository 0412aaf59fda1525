"""Benchmark runner: one workload, one seed, every metric on the last line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-cpf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: it repeats rounds of a few
set-ups (``setup_s`` is their median) and one fixed-work unit of the
workload until ``--seconds`` have passed (at least one round), and reports
medians, in seconds of a reference host (``hostspeed.py``).  ``--trace 1`` runs set-up plus one unit untraced, then again with
the per-layer span wrappers of ``layers.py`` installed, and reports the
per-layer metrics, the tracing overhead between the two passes and the share
of traced wall time no layer span covers.

Every run checks its outputs: simulated statistics must repeat exactly on
every unit (and between the untraced and traced passes), and each workload's
independent oracle runs outside the timed phase.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run record with host-noise diagnostics.  ``--smoke`` shrinks every
workload for the smoke test.  The exit code is 1 when a check failed, and 2
(with no result printed) when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed, work_clock
from layers import LAYER_UNITS, LayerTracer, install_layers, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: End-to-end metric -> unit.  Every workload reports all of them; what an
#: item is, and what quality means, is the workload's own (see README.md).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality_pct": "%",
    "pattern_count": "count",
}

#: Program counters (from ``repro.obs``) that are simulated statistics.
STAT_COUNTERS = ("atpg.decisions", "atpg.backtracks", "engine.gate_evaluations")


# ---------------------------------------------------------------------------
# Host-noise diagnostics (recorded with the run, never reported as metrics)
# ---------------------------------------------------------------------------
def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies from the aggregate ``/proc/stat`` line."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    except (OSError, IndexError):
        return 0, 0
    ticks = [int(value) for value in fields]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_record(steal_start: tuple[int, int]) -> dict[str, object]:
    steal, total = _cpu_ticks()
    steal_ticks = steal - steal_start[0]
    total_ticks = total - steal_start[1]
    return {
        "steal_ticks": steal_ticks,
        "steal_pct": round(100.0 * steal_ticks / total_ticks, 3) if total_ticks else 0.0,
        "loadavg": list(os.getloadavg()),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
    }


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict[str, float]
    stats: dict
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add_units(self, *units) -> None:
        for unit in units:
            self.attempted += unit.attempted
            self.failed += unit.failed
            self.problems += unit.problems

    def add_oracle(self, workload, unit) -> None:
        checks, problems = workload.oracle(unit)
        self.attempted += checks
        self.failed += len(problems)
        self.problems += problems


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def counting():
    """Activate a counters-only telemetry (no spans) for the block."""
    from repro.obs import NULL_TRACER, MetricsRegistry, Telemetry

    registry = MetricsRegistry()
    with Telemetry(NULL_TRACER, registry).activate():
        yield registry


def timed(call) -> float:
    gc.collect()
    started = work_clock()
    call()
    return work_clock() - started


def timed_setup(call) -> tuple[float, float]:
    """(raw, reference-host) seconds of one set-up, scaled by the host speed
    just before and just after it: a 3 ms set-up varied 2.6-4.5 ms between
    processes on the shared VM, and 2.5-2.7 ms scaled this way."""
    gc.collect()
    before = HostSpeed.now()
    started = work_clock()
    call()
    seconds = work_clock() - started
    return seconds, seconds * (before + HostSpeed.now()) / 2


def run_unit(workload):
    """One unit with the program's counters folded into its statistics."""
    gc.collect()
    started = work_clock()
    with counting() as registry:
        unit = workload.unit()
    wall = work_clock() - started
    counters = registry.snapshot()["counters"]
    unit.stats["counters"] = {name: counters.get(name, 0) for name in STAT_COUNTERS}
    return unit, wall, counters


def measure(workload, seconds: float) -> Outcome:
    """End-to-end run: rounds of set-ups and one unit, for ``seconds``.

    Set-ups are spread over the run rather than bunched at its start, so
    their median does not hang on the host's speed at one moment.  The host
    speed is sampled all through the run (and around each set-up), and every
    time is reported in seconds of the reference host (see ``hostspeed.py``).
    """
    setups, units = [], []
    with HostSpeed() as host:
        deadline = time.perf_counter() + seconds
        while not units or time.perf_counter() < deadline:
            setups += [timed_setup(workload.setup) for _ in range(workload.setup_repeats)]
            if not units:
                workload.make_inputs()
                deadline = time.perf_counter() + seconds
            units.append(run_unit(workload)[0])
    speed = host.speed()
    metrics = workload.metrics(units)
    raw = {"setup_s": statistics.median(seconds for seconds, _ in setups),
           "throughput_per_s": metrics["throughput_per_s"]}
    metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
    metrics["throughput_per_s"] = raw["throughput_per_s"] / speed
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome = Outcome(metrics, units[0].stats)
    outcome.record = {"host_speed": speed, "host_samples": len(host.samples),
                      "unnormalised": raw}
    outcome.add_units(*units)
    outcome.check(
        all(unit.stats == units[0].stats for unit in units),
        "simulated statistics changed between units",
    )
    outcome.add_oracle(workload, units[-1])
    print(f"{workload.name}: {len(units)} unit(s) of "
          f"{', '.join(f'{u.seconds:.3f}' for u in units)} s; "
          f"{len(setups)} set-ups, median {raw['setup_s']:.4f} s; "
          f"host speed {speed:.3f} over {len(host.samples)} samples")
    return outcome


def trace(workload) -> Outcome:
    """Per-layer run: set-up + one unit untraced, then the same traced."""
    untraced_setup = timed(workload.setup)
    workload.make_inputs()
    reference, untraced_unit, _ = run_unit(workload)

    tracer = LayerTracer()
    install_layers(tracer)
    try:
        with counting() as setup_registry:
            traced_setup = timed(workload.setup)
        traced, traced_unit, unit_counters = run_unit(workload)
    finally:
        tracer.uninstall()
    counters = dict(setup_registry.snapshot()["counters"])
    for name, value in unit_counters.items():
        counters[name] = counters.get(name, 0) + value
    traced_wall = traced_setup + traced_unit
    metrics = layer_metrics(
        tracer,
        counters,
        traced.values.get("runtime_overhead_s", 0.0),
        traced_wall=traced_wall,
        untraced_wall=untraced_setup + untraced_unit,
    )
    # Pipeline timings of the untraced pass that only some workloads have.
    for name, value in workload.metrics([reference]).items():
        if name in LAYER_UNITS:
            metrics[name] = value
    outcome = Outcome(metrics, reference.stats)
    outcome.add_units(reference, traced)
    outcome.check(
        traced.stats == reference.stats,
        "simulated statistics differ between traced and untraced runs",
    )
    outcome.add_oracle(workload, traced)
    ranked = sorted(
        ((totals.self_seconds, layer) for layer, totals in tracer.totals.items()),
        reverse=True,
    )
    print(f"{workload.name}: traced wall {traced_wall:.3f} s, untraced "
          f"{untraced_setup + untraced_unit:.3f} s; self time by layer: "
          + ", ".join(f"{layer}={value:.3f}" for value, layer in ranked))
    return outcome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(expected one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 2

    steal_start = _cpu_ticks()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        if args.trace:
            outcome, units = trace(workload), LAYER_UNITS
        else:
            outcome, units = measure(workload, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stats_digest": digest(outcome.stats),
        "host": host_record(steal_start),
        **outcome.record,
    }
    print("run-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
