"""Ablation — MLP window sweep: latency-bound vs bandwidth-bound MNs.

The benefit of low-diameter topologies hinges on how many requests the
cores keep in flight: with little MLP the system is latency-bound and
every hop counts; with enormous MLP every topology saturates the single
host link and converges.  This sweep documents that regime change (and
thereby the calibration of the paper suite's per-workload MLP values).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import render_table, speedups
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.runner import SimJob, get_runner
from repro.workloads import WorkloadSpec, get_workload

WINDOWS = (8, 16, 32, 64)
LABELS = ("100%-T", "100%-MC")
BASELINE = "100%-C"


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    workload = (suite(workloads) or [get_workload("KMEANS")])[0]

    jobs = {
        (label, window): SimJob(
            parse_label(label, base), workload.with_(mlp=window), requests
        )
        for window in WINDOWS
        for label in LABELS + (BASELINE,)
    }
    results = get_runner().run_keyed(jobs)
    grid_data: Dict[int, Dict[str, float]] = speedups(
        results, WINDOWS, LABELS, BASELINE
    )
    rows = [
        [f"mlp={window}"] + [f"{row[label]:+.1f}%" for label in LABELS]
        for window, row in grid_data.items()
    ]
    text = render_table(
        ["window", "tree vs chain", "metacube vs chain"],
        rows,
        title=(
            f"Ablation: MLP window sweep on {workload.name} "
            "(topology benefit vs in-flight parallelism)"
        ),
    )
    return ExperimentOutput(
        experiment_id="ablation_window",
        title="MLP window sweep",
        text=text,
        data={"grid": grid_data},
        notes=(
            "Small windows are latency-bound (hop count dominates); very "
            "large windows converge toward the shared host-link bandwidth."
        ),
    )
