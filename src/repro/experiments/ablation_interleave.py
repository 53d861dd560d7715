"""Ablation — address-interleaving granularity (Section 5 discussion).

The paper chose 256 B empirically: 64 B hurts row-buffer locality in
the cubes; 1 KiB concentrates bursts on one cube and raises network
latency.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.analysis import render_table
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    grid_jobs,
    suite,
)
from repro.runner import get_runner
from repro.workloads import WorkloadSpec

GRANULARITIES = (64, 256, 1024)
#: The paper's granularity (one of GRANULARITIES), which every
#: granularity is measured against.
REFERENCE_GRAIN = 256


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    specs = suite(workloads)
    tree = parse_label("100%-T", base_system(base_config))
    configs = {
        grain: tree.with_(host=replace(tree.host, interleave_bytes=grain))
        for grain in GRANULARITIES
    }
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    rows = []
    data: Dict[str, Dict[int, Dict[str, float]]] = {}
    for workload in specs:
        data[workload.name] = {}
        base_result = results[REFERENCE_GRAIN, workload.name]
        for grain in GRANULARITIES:
            result = results[grain, workload.name]
            data[workload.name][grain] = {
                "speedup_vs_256": result.speedup_over(base_result) * 100.0,
                "row_hit_rate": result.row_hit_rate * 100.0,
                "latency_ns": result.mean_latency_ns,
            }
        rows.append(
            [workload.name]
            + [
                f"{data[workload.name][g]['speedup_vs_256']:+.1f}% "
                f"(hit {data[workload.name][g]['row_hit_rate']:.0f}%)"
                for g in GRANULARITIES
            ]
        )
    text = render_table(
        ["workload"] + [f"{g} B" for g in GRANULARITIES],
        rows,
        title="Ablation: interleave granularity on 100%-T (speedup vs 256 B)",
    )
    return ExperimentOutput(
        experiment_id="ablation_interleave",
        title="Interleave granularity sweep",
        text=text,
        data={"grid": data},
        notes="Expected: 256 B is the sweet spot the paper found empirically.",
    )
