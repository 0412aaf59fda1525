"""The benchmark's three fixed-work workloads, driven through the public API.

Each workload has the same shape:

* ``setup()`` — spec to ready-to-run (timed by the runner: ``setup_repeats``
  times before every unit, so the median samples the whole run);
* ``make_inputs()`` — the seeded inputs, built once after the first set-up;
  later set-ups of the same spec reuse them;
* ``unit()`` — one fixed amount of work, timed inside; returns a
  :class:`Unit` whose ``stats`` are the simulated statistics that must
  repeat exactly on every unit, run and traced run of the same seed;
* ``oracle(unit)`` — independent output checks, outside the timed phase;
* ``metrics(units)`` — the workload's end-to-end metrics.

Everything runs in one process on the ``compiled`` engine backend and the
``serial`` executor: no pools, no threads.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import TestSession, prepare_from_spec
from repro.api.scenarios import table1_scenario
from repro.atpg.config import AtpgOptions
from repro.atpg.random_fill import derive_rng, random_pattern_batch
from repro.diagnose import DefectSpec, capture_fail_log
from repro.engine import compile_circuit
from repro.engine.cache import ResultCache
from repro.fault_sim.transition import TransitionFaultSimulator
from repro.faults import collapse_faults
from repro.faults.fault_list import FaultStatus
from repro.faults.models import all_transition_faults
from repro.hier import compile as hier_compile
from repro.hier.designs import register_hier_designs
from repro.runtime import Executor
from repro.volume import FailLogStore, VolumeSpec, run_bp_diagnosis, volume_plan
from repro.volume.run import BpDiagnosisCell, volume_report_builder

from hostspeed import work_clock

ENGINE_BACKEND = "compiled"


def digest(payload: object) -> str:
    """Short stable digest of a JSON-able value."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Unit:
    """One fixed-work unit: its timed seconds, statistics and outcomes."""

    seconds: float
    stats: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class PlanWatch:
    """Executor event sink: per-job wall times and failures of one plan."""

    def __init__(self) -> None:
        self.finished: dict[str, float] = {}
        self.skipped: dict[str, float] = {}
        self.failed: list[str] = []
        self.values: dict[str, object] = {}

    def __call__(self, event) -> None:
        if event.kind == "job_finished":
            self.finished[event.job] = event.wall_seconds
            self.values[event.job] = event.value
        elif event.kind == "job_skipped":
            self.skipped[event.job] = event.wall_seconds
        elif event.kind == "job_failed":
            self.failed.append(f"{event.job}: {event.reason}")

    def job_seconds(self) -> float:
        return sum(self.finished.values()) + sum(self.skipped.values())


def _rate(units: list[Unit], item: str) -> float:
    """Items per second over all units of a run.

    The aggregate rate, not a median of per-unit rates: on a shared 2-vCPU
    VM the CPU speed drifts in spells of seconds to tens of seconds, and over
    a fixed window the plain mean was the steadiest estimator measured there
    (min, median and lower quartile of sub-measurements all spread wider).
    """
    return sum(u.values[item] for u in units) / sum(u.seconds for u in units)


# ---------------------------------------------------------------------------
# table1-cpf: Table-1 rows (c) and (d), full transition ATPG on `tiny`
# ---------------------------------------------------------------------------
class Table1Cpf:
    """Full transition ATPG for the paper's two on-chip clock schemes.

    The ATPG keeps its default random seed: the work PODEM does depends on
    it (unit times moved by up to 25 % across seeds), and Table 1 is one
    deterministic flow.  ``--seed`` draws the oracle's fault sample.
    """

    name = "table1-cpf"
    setup_repeats = 40
    rows = ("c", "d")
    oracle_sample = 64

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        if smoke:
            self.options = AtpgOptions(
                random_pattern_batches=2, patterns_per_batch=16, backtrack_limit=4
            )
        else:
            self.options = AtpgOptions()
        self.specs = [table1_scenario(row) for row in self.rows]

    def setup(self) -> None:
        self.prepared = prepare_from_spec("tiny")
        for spec in self.specs:
            spec.build_setup(self.prepared, self.options)
        compile_circuit(self.prepared.model)

    def make_inputs(self) -> None:
        """The inputs are the design spec and the ATPG options: nothing to build."""

    def unit(self) -> Unit:
        unit = Unit(seconds=0.0)
        self.runs = {}
        overhead = 0.0
        for spec in self.specs:
            unit.attempted += 1
            session = TestSession.from_prepared(self.prepared, self.options)
            session.add_scenario(spec)
            watch = PlanWatch()
            started = work_clock()
            try:
                session.run(executor=Executor(backend="serial"), on_event=watch)
            except Exception as error:  # a failing row is counted, not fatal
                unit.failed += 1
                unit.problems.append(f"row {spec.name} raised {error!r}")
                continue
            finally:
                wall = work_clock() - started
                unit.seconds += wall
            overhead += wall - watch.job_seconds()
            run = session.artifacts[spec.name]
            self.runs[spec.name] = run
            result = run.result
            stats = result.stats.as_dict()
            stats.pop("runtime_seconds")
            unit.stats[spec.name] = {
                "summary": result.summary(),
                "coverage": vars(result.coverage),
                "atpg": stats,
                "compaction": vars(result.compaction),
                "patterns": digest([p.to_dict() for p in run.patterns]),
            }
        covs = [r.result.coverage for r in self.runs.values()]
        unit.values = {
            "faults": sum(c.total_faults for c in covs),
            "detected": sum(c.detected for c in covs),
            "testable": sum(c.total_faults - c.untestable for c in covs),
            "patterns": sum(len(r.patterns) for r in self.runs.values()),
            "runtime_overhead_s": overhead,
        }
        return unit

    def oracle(self, unit: Unit) -> tuple[int, list[str]]:
        """Serial re-simulation confirms every credited detection, and the
        serial and compiled backends agree on a seeded fault sample."""
        attempted, problems = 0, []
        rng = random.Random(self.seed)
        model = self.prepared.model
        for name, run in self.runs.items():
            patterns = list(run.patterns)
            fault_list = run.result.fault_list
            serial = TransitionFaultSimulator(
                model, self.prepared.domain_map, run.setup, backend="serial"
            )
            compiled = TransitionFaultSimulator(
                model, self.prepared.domain_map, run.setup, backend=ENGINE_BACKEND
            )
            credited = fault_list.with_status(FaultStatus.DETECTED)
            hits = serial.simulate(patterns, credited, drop_detected=False).detections
            attempted += 1
            unconfirmed = [
                f for f in credited
                if fault_list.record(f).detected_by not in hits[f]
            ]
            if unconfirmed:
                problems.append(
                    f"{name}: {len(unconfirmed)} credited detections not "
                    f"confirmed by serial re-simulation"
                )
            everything = list(fault_list.faults)
            sample = rng.sample(everything, min(self.oracle_sample, len(everything)))
            attempted += 1
            if (
                serial.simulate(patterns, sample, drop_detected=False).detections
                != compiled.simulate(patterns, sample, drop_detected=False).detections
            ):
                problems.append(f"{name}: serial and compiled masks differ")
        return attempted, problems

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        values = units[0].values
        return {
            "throughput_per_s": _rate(units, "faults"),
            "quality_pct": 100.0 * values["detected"] / values["testable"],
            "pattern_count": float(values["patterns"]),
        }


# ---------------------------------------------------------------------------
# hier-transition-grade: grade random LOC patterns on hier-soc-10k
# ---------------------------------------------------------------------------
class HierTransitionGrade:
    """Transition fault grading of seeded patterns at SoC scale (no PODEM)."""

    name = "hier-transition-grade"
    setup_repeats = 1
    oracle_faults = 12
    oracle_patterns = 16

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        register_hier_designs()
        self.seed = seed
        self.design = "hier-soc-1k" if smoke else "hier-soc-10k"
        self.num_patterns = 32 if smoke else 256
        self.options = AtpgOptions(sim_backend=ENGINE_BACKEND)
        self.spec = table1_scenario("d")

    def setup(self) -> None:
        # A cold set-up each time: drop the process-wide per-core kernel memo.
        getattr(hier_compile, "_TEMPLATE_CACHE", {}).clear()
        self.prepared = prepare_from_spec(self.design)
        model = self.prepared.model
        self.setup_obj = self.spec.build_setup(self.prepared, self.options)
        self.faults = collapse_faults(model, all_transition_faults(model)).representatives
        self.simulator = TransitionFaultSimulator(
            model, self.prepared.domain_map, self.setup_obj
        )

    def make_inputs(self) -> None:
        setup = self.setup_obj
        model = self.prepared.model
        constraints = setup.effective_pin_constraints()
        self.patterns = random_pattern_batch(
            list(setup.procedures),
            [e.name for e in model.state_elements if e.flop.is_scan],
            [
                model.nodes[i].net for i in model.pi_nodes
                if model.nodes[i].net not in constraints
            ],
            self.num_patterns,
            derive_rng(self.seed, "perfbench-patterns"),
            hold_pis=setup.hold_pis,
            observe_pos=setup.observe_pos,
        )

    def unit(self) -> Unit:
        started = work_clock()
        result = self.simulator.simulate(self.patterns, self.faults, drop_detected=True)
        seconds = work_clock() - started
        self.detections = result.detections
        first_hits = [min(hits) if hits else -1 for hits in result.detections.values()]
        detected = sum(1 for hit in first_hits if hit >= 0)
        return Unit(
            seconds=seconds,
            stats={"detected": detected, "first_hits": digest(first_hits)},
            values={"faults": len(self.faults), "detected": detected},
            attempted=1,
        )

    def oracle(self, unit: Unit) -> tuple[int, list[str]]:
        """Serial and compiled masks agree on a seeded fault sample, and the
        sample's graded verdicts match a non-dropping re-simulation."""
        rng = random.Random(self.seed)
        sample = rng.sample(self.faults, min(self.oracle_faults, len(self.faults)))
        patterns = self.patterns[: self.oracle_patterns]
        model, domains = self.prepared.model, self.prepared.domain_map
        serial = TransitionFaultSimulator(model, domains, self.setup_obj, backend="serial")
        compiled = TransitionFaultSimulator(
            model, domains, self.setup_obj, backend=ENGINE_BACKEND
        )
        problems = []
        reference = serial.simulate(patterns, sample, drop_detected=False).detections
        if reference != compiled.simulate(patterns, sample, drop_detected=False).detections:
            problems.append("serial and compiled masks differ on the fault sample")
        full = compiled.simulate(self.patterns, sample, drop_detected=False).detections
        for fault in sample:
            graded = self.detections[fault]
            if bool(graded) != bool(full[fault]) or not set(graded) <= set(full[fault]):
                problems.append(f"graded verdict of {fault!r} disagrees with re-simulation")
        return 2, problems

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        values = units[0].values
        return {
            "throughput_per_s": _rate(units, "faults"),
            "quality_pct": 100.0 * values["detected"] / values["faults"],
            "pattern_count": float(len(self.patterns)),
        }


# ---------------------------------------------------------------------------
# volume-diagnosis: BP diagnosis of a two-defect fail-log store, cold + warm
# ---------------------------------------------------------------------------
class VolumeDiagnosis:
    """Loopy-BP volume diagnosis, a cold pass then warm cache resumes."""

    name = "volume-diagnosis"
    setup_repeats = 2
    warm_seconds = 1.5
    oracle_logs = 3

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.num_logs = 12 if smoke else 160
        self.warm_target = 0.0 if smoke else self.warm_seconds
        self.workdir = workdir
        self.options = AtpgOptions()
        self.spec = table1_scenario("a")
        self.passes = 0

    def setup(self) -> None:
        self.session = TestSession.for_design("tiny", options=self.options)
        self.session.run_scenario(self.spec)
        self.run = self.session.artifacts[self.spec.name]
        self.prepared = self.session.prepared

    def make_inputs(self) -> None:
        """A seeded device population: pairs of distinct detected defects,
        every pair captured against the row-(a) test program."""
        prepared, run = self.prepared, self.run
        model = prepared.model
        defects, nets = [], set()
        for fault in run.result.fault_list.with_status(FaultStatus.DETECTED):
            defect = DefectSpec.from_fault(model, fault)
            if defect.net not in nets:
                nets.add(defect.net)
                defects.append(defect)
        rng = random.Random(self.seed)
        path = self.workdir / "faillogs.jsonl"
        path.unlink(missing_ok=True)
        self.store = FailLogStore(path)
        used: set[tuple[str, str]] = set()
        while len(used) < self.num_logs:
            order = rng.sample(defects, len(defects))
            for first, second in zip(order[::2], order[1::2]):
                key = tuple(sorted((first.describe(), second.describe())))
                if key in used:
                    continue
                log = capture_fail_log(
                    model, prepared.domain_map, prepared.scan, run.setup,
                    run.patterns, [first, second], design_name="tiny",
                )
                if not log.num_fails:
                    continue
                used.add(key)
                self.store.add(f"die-{len(used):04d}", log, scenario=self.spec.name)
                if len(used) == self.num_logs:
                    break

    def _pass(self, cache: ResultCache):
        """One plan over the whole store: compile it, execute it, report."""
        watch = PlanWatch()
        started = work_clock()
        plan = volume_plan(
            self.store, {"tiny": self.prepared}, {self.spec.name: self.spec},
            VolumeSpec(scenario=self.spec.name, backend=ENGINE_BACKEND),
            options=self.options,
        )
        seeds = {job.id: self.run for job in plan.jobs if job.kind == "scenario"}
        report, handle, finalize = volume_report_builder(plan, on_event=watch)
        executor = Executor(backend="serial", cache=cache)
        result = executor.execute(plan, cache=cache, seeds=seeds, on_event=handle)
        if result.fallbacks:
            report.campaign["backend_fallbacks"] = list(result.fallbacks)
        report = finalize()
        return report, watch, work_clock() - started

    def unit(self) -> Unit:
        self.passes += 1
        cache_dir = self.workdir / f"cache-{self.passes}"
        cache = ResultCache(cache_dir)
        cold, watch, cold_seconds = self._pass(cache)
        unit = Unit(seconds=cold_seconds, attempted=len(cold))
        bp_walls = [s for job, s in watch.finished.items() if job.startswith("bp:")]
        selected = {
            job: sorted(
                f"{c.kind}:{c.net}:{c.pin}:{c.value}:{c.polarity}"
                for c in value.selected_candidates()
            )
            for job, value in watch.values.items() if job.startswith("bp:")
        }
        unit.failed += len(watch.failed) + (len(cold) if cold.degraded else 0)
        warm_logs, warm_seconds = 0, 0.0
        overhead = cold_seconds - watch.job_seconds()
        while True:
            warm, warm_watch, seconds = self._pass(cache)
            unit.attempted += len(warm)
            warm_logs += len(warm)
            warm_seconds += seconds
            overhead += seconds - warm_watch.job_seconds()
            if not warm.same_results(cold) or warm.cache_hits() != len(warm):
                unit.failed += len(warm)
                unit.problems.append("warm resume differs from the cold pass")
            if warm_seconds >= self.warm_target:
                break
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.cold = cold
        unit.stats = {
            "cells": digest([cell.deterministic_dict() for cell in cold]),
            "selected": digest(selected),
            "recovered": cold.recovered_count(),
        }
        unit.values = {
            "logs": len(cold),
            "bp_walls": bp_walls,
            "warm_logs": warm_logs,
            "warm_seconds": warm_seconds,
            "recovered": cold.recovered_count(),
            "runtime_overhead_s": overhead,
        }
        return unit

    def oracle(self, unit: Unit) -> tuple[int, list[str]]:
        """The serial backend re-diagnoses a seeded sample of logs and must
        land on the same cells as the compiled cold pass."""
        rng = random.Random(self.seed)
        spec = VolumeSpec(scenario=self.spec.name, backend="serial")
        records = rng.sample(self.store.records(), min(self.oracle_logs, self.num_logs))
        problems = []
        for record in records:
            result = run_bp_diagnosis(
                self.prepared, self.run.setup, list(self.run.patterns),
                spec.diagnosis_spec(self.spec.name), spec.bp,
                fail_log=record.log, options=self.options,
            )
            cell = BpDiagnosisCell.from_result(record.name, result)
            expected = self.cold.cell(record.name)
            if cell.deterministic_dict() != expected.deterministic_dict():
                problems.append(f"serial re-diagnosis of {record.name} differs")
        return len(records), problems

    def metrics(self, units: list[Unit]) -> dict[str, float]:
        walls = [s for u in units for s in u.values["bp_walls"]]
        deciles = statistics.quantiles(walls, n=10)
        values = units[0].values
        return {
            "throughput_per_s": _rate(units, "logs"),
            "quality_pct": 100.0 * values["recovered"] / values["logs"],
            "pattern_count": float(len(self.run.patterns)),
            "volume.log_p50_s": statistics.median(walls),
            "volume.log_p90_s": float(deciles[8]),
            "volume.resume_logs_per_s": (
                sum(u.values["warm_logs"] for u in units)
                / sum(u.values["warm_seconds"] for u in units)
            ),
        }


WORKLOADS = {
    cls.name: cls for cls in (Table1Cpf, HierTransitionGrade, VolumeDiagnosis)
}
