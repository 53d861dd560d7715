"""Ablation — router input-buffer depth.

Input buffers absorb bursts and carry the credit loop; too few slots
stall links on credits, while very deep buffers stop mattering once the
MLP window bounds the packets in flight.
"""

from __future__ import annotations

from dataclasses import replace
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

DEPTHS = (1, 2, 4, 8, 16)
TOPOLOGIES = ("100%-C", "100%-T")
#: The default depth (one of DEPTHS) every depth is measured against.
REFERENCE_DEPTH = 8


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    workload = (suite(workloads) or [get_workload("KMEANS")])[0]
    jobs = {}
    for topo in TOPOLOGIES:
        config = parse_label(topo, base)
        for depth in DEPTHS:
            jobs[depth, topo] = SimJob(
                config.with_(link=replace(config.link, input_buffer_packets=depth)),
                workload,
                requests,
            )
    results = get_runner().run_keyed(jobs)
    data: Dict[str, Dict[int, float]] = speedups(
        results, TOPOLOGIES, DEPTHS, REFERENCE_DEPTH
    )
    rows = [
        [topo] + [f"{data[topo][depth]:+.1f}%" for depth in DEPTHS]
        for topo in TOPOLOGIES
    ]
    text = render_table(
        ["configuration"] + [f"{d} slots" for d in DEPTHS],
        rows,
        title=(
            f"Ablation: input-buffer depth on {workload.name} "
            "(speedup vs the default 8 slots)"
        ),
    )
    return ExperimentOutput(
        experiment_id="ablation_buffers",
        title="Router input-buffer depth sweep",
        text=text,
        data={"grid": data},
        notes="Single-slot buffers throttle links on credits; depth beyond "
        "the window's needs is wasted SRAM.",
    )
