"""Fig 4 — speedup of DRAM-only Ring and Tree MNs over the Chain.

Paper shape: the tree always wins (roughly 20-35%), the ring sits in
between (roughly 5-15%), and the chain is always the slowest.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis import column_means, render_speedups, speedups
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

LABELS = ["100%-R", "100%-T"]
BASELINE = "100%-C"


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    configs = {label: parse_label(label, base) for label in LABELS + [BASELINE]}
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    grid = speedups(results, [w.name for w in specs], LABELS, BASELINE)
    averages = column_means(grid, LABELS)
    text = render_speedups(
        grid,
        averages,
        title="Fig 4: speedup of DRAM memory networks over a chain topology",
    )
    return ExperimentOutput(
        experiment_id="fig04",
        title="Speedup comparison of DRAM MNs normalized to chain",
        text=text,
        data={"speedups": grid, "averages": averages},
        notes=(
            "Expected shape (paper): Tree > Ring > Chain for every workload; "
            "NW (lowest network load) benefits the least."
        ),
    )
