"""Ablation — MLP window sweep: latency-bound vs bandwidth-bound MNs.

The benefit of low-diameter topologies hinges on how many requests the
cores keep in flight: with little MLP the system is latency-bound and
every hop counts; with enormous MLP every topology saturates the single
host link and converges.  This sweep documents that regime change (and
thereby the calibration of the paper suite's per-workload MLP values).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import SpeedupGrid, render_table
from repro.config import SystemConfig
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.workloads import WorkloadSpec, get_workload

WINDOWS = (8, 16, 32, 64)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    workload = (suite(workloads) or [get_workload("KMEANS")])[0]

    grid_data: Dict[int, Dict[str, float]] = {}
    rows = []
    for window in WINDOWS:
        spec = workload.with_(mlp=window)
        grid = SpeedupGrid([spec], requests=requests, base_config=base)
        speedups = grid.speedups(["100%-T", "100%-MC"], "100%-C")[spec.name]
        grid_data[window] = speedups
        rows.append(
            [
                f"mlp={window}",
                f"{speedups['100%-T']:+.1f}%",
                f"{speedups['100%-MC']:+.1f}%",
            ]
        )
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
