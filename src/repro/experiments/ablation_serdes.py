"""Ablation — SerDes latency sensitivity (Section 5 discussion).

The paper reports that 2 ns per hop barely differs from 0 ns, while
10 ns has a large impact on network latency.
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
from repro.units import ns
from repro.workloads import WorkloadSpec

SERDES_NS = (0.0, 2.0, 10.0)
TOPOLOGIES = ("100%-C", "100%-T")


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    configs = {}
    for topo in TOPOLOGIES:
        config = parse_label(topo, base)
        for serdes in SERDES_NS:
            configs[topo, serdes] = config.with_(
                link=replace(config.link, serdes_latency_ps=ns(serdes))
            )
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    rows = []
    data: Dict[str, Dict[float, float]] = {}
    for topo in TOPOLOGIES:
        data[topo] = {}
        baseline = None
        row = [topo]
        for serdes in SERDES_NS:
            totals = [results[(topo, serdes), w.name].runtime_ps for w in specs]
            mean_runtime = sum(totals) / len(totals)
            if baseline is None:
                baseline = mean_runtime
            slowdown = (mean_runtime / baseline - 1.0) * 100.0
            data[topo][serdes] = slowdown
            row.append(f"{slowdown:+.1f}%")
        rows.append(row)
    text = render_table(
        ["configuration"] + [f"{s:.0f} ns" for s in SERDES_NS],
        rows,
        title="Ablation: runtime vs per-hop SerDes latency (rel. to 0 ns)",
    )
    return ExperimentOutput(
        experiment_id="ablation_serdes",
        title="SerDes latency sensitivity",
        text=text,
        data={"slowdown": data},
        notes=(
            "Expected (paper): 2 ns is close to 0 ns; 10 ns hurts, and hurts "
            "the chain (most hops) the most."
        ),
    )
