"""Smoke test of the benchmark at reduced size.

For every workload declared in ``BENCHMARK.json``: two untraced runs and one
traced run of the same seed must each pass their output checks, print
exactly the declared metrics with the declared units, and agree on the
digest of their simulated statistics.  A copy of the benchmark without the
program's sources must exit non-zero without printing a result.

Run from the repository root::

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600, check=False
    )


def _parse(process: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert process.returncode == 0, process.stderr[-3000:]
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert lines[-2].startswith("run-record "), lines[-2]
    record = json.loads(lines[-2][len("run-record "):])
    return result, record


def check_workload(workload: str) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    digests = []
    for trace in (0, 0, 1):
        result, record = _parse(_run(ROOT, workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (workload, trace, result)
        assert result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared[trace], (workload, trace, units)
        if trace == 0:
            for name, metric in result["metrics"].items():
                assert metric["value"] > 0, (workload, name, metric)
        digests.append(record["stats_digest"])
    assert len(set(digests)) == 1, (workload, digests)


def check_missing_sources() -> None:
    with tempfile.TemporaryDirectory() as bare:
        bare_root = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare_root)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare_root / path,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        process = _run(bare_root, SPEC["workloads"][0]["name"], 0)
        assert process.returncode != 0
        assert not process.stdout.strip()


def test_smoke() -> None:
    check_missing_sources()
    for workload in SPEC["workloads"]:
        check_workload(workload["name"])


if __name__ == "__main__":
    test_smoke()
    print("perfbench smoke: ok")
    sys.exit(0)
