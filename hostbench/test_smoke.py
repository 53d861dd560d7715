"""Smoke test of the host-cost benchmark at minimal size.

Run from the repository root::

    python -m pytest hostbench/test_smoke.py

Each workload runs once untraced and once traced with ``--smoke``; the
test checks the output contract against ``BENCHMARK.json`` and the
bypass predictions the per-layer metrics make.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_are_valid_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_declared_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        assert metrics[metric["name"]]["unit"] == metric["unit"], metric["name"]
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)
        return
    # Bypass predictions: no per-event obs tracing and no disk cache on
    # the grid; a warm fleet replay is all cache hits and simulates nothing.
    if workload == "paper_grid":
        assert metrics["obs.tracing.self_share"]["value"] == 0
        assert metrics["serialization.decode_ms"]["value"] == 0
        assert metrics["fleet.fold_us"]["value"] == 0
    if workload == "overload_observed":
        assert metrics["obs.tracing.self_share"]["value"] > 0
        assert metrics["host.port.calls_per_req"]["value"] > 0
    if workload == "fleet_replay":
        assert metrics["cache.hit_ratio"]["value"] == 1.0
        assert metrics["engine.events_per_req"]["value"] == 0
        assert metrics["serialization.decode_ms"]["value"] > 0


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
