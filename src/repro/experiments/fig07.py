"""Fig 7 — tree topology with different DRAM:NVM capacity ratios.

Paper shape: mixing in NVM is workload-dependent but roughly
competitive with all-DRAM (the 50% NVM-L tree is best on average in
the paper); the all-NVM tree varies strongly with workload and hurts
the lowest-contention workload (NW).
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

LABELS = ["100%-T", "50%-T (NVM-L)", "50%-T (NVM-F)", "0%-T"]
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
        title="Fig 7: tree topology with DRAM:NVM ratios, vs 100% chain",
    )
    return ExperimentOutput(
        experiment_id="fig07",
        title="Tree-based topology with different ratios of DRAM to NVM",
        text=text,
        data={"speedups": grid, "averages": averages},
        notes=(
            "Expected shape (paper): some NVM is beneficial (50% mixes "
            "competitive with 100% DRAM thanks to the smaller network); "
            "0%-T varies highly with the workload."
        ),
    )
