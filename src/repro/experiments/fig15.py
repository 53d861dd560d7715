"""Fig 15 — dynamic-energy breakdown, normalized to the 100% chain.

Energy is accounted from the simulator's actual traffic: 5 pJ/bit per
external hop, 12 pJ/bit for DRAM accesses and NVM reads, 120 pJ/bit for
NVM writes (Table 2).  Values are averaged over all workloads and
reported relative to the 100%-C MN's total.

Paper shape: network energy scales with hop count, so it dominates the
all-DRAM chain; the all-NVM chain cuts network energy ~3x but its write
energy pushes its *total* above the 100%-C baseline; the tree spends
the least network energy, and the skip-list pays extra network energy
for its longer write paths.
"""

from __future__ import annotations

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

LABELS = [
    "100%-C",
    "100%-R",
    "100%-T",
    "100%-SL",
    "100%-MC",
    "50%-C (NVM-L)",
    "50%-T (NVM-L)",
    "50%-SL (NVM-L)",
    "50%-MC (NVM-L)",
    "0%-C",
    "0%-T",
]


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    configs = {label: parse_label(label, base) for label in LABELS}
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    totals: Dict[str, Dict[str, float]] = {
        label: {"network": 0.0, "read": 0.0, "write": 0.0} for label in LABELS
    }
    for workload in specs:
        for label in LABELS:
            energy = results[label, workload.name].energy
            totals[label]["network"] += energy.network_pj + energy.interposer_pj
            totals[label]["read"] += energy.memory_read_pj
            totals[label]["write"] += energy.memory_write_pj
    count = len(specs)
    for label in LABELS:
        for key in totals[label]:
            totals[label][key] /= count
    baseline_total = sum(totals["100%-C"].values()) or 1.0
    rows = []
    data: Dict[str, Dict[str, float]] = {}
    for label in LABELS:
        network = totals[label]["network"] / baseline_total * 100.0
        read = totals[label]["read"] / baseline_total * 100.0
        write = totals[label]["write"] / baseline_total * 100.0
        data[label] = {
            "network": network,
            "read": read,
            "write": write,
            "total": network + read + write,
        }
        rows.append(
            [
                label,
                f"{network:.1f}%",
                f"{read:.1f}%",
                f"{write:.1f}%",
                f"{network + read + write:.1f}%",
            ]
        )
    text = render_table(
        ["configuration", "network", "read", "write", "total"],
        rows,
        title="Fig 15: dynamic energy relative to the 100%-C MN (workload average)",
    )
    return ExperimentOutput(
        experiment_id="fig15",
        title="Network vs memory access energy breakdown",
        text=text,
        data={"relative_energy": data},
        notes=(
            "Expected shape (paper): network energy shrinks with network "
            "size; NVM write energy pushes 0%-C above 100%-C total; tree "
            "cheapest on network energy, skip-list slightly above it."
        ),
    )
