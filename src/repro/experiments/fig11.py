"""Fig 11 — Tree vs Skip-List vs MetaCube (round-robin arbitration).

Paper shape: MetaCubes outperform every other topology in every run
(lowest hop count); the skip-list performs close to the tree, with its
largest benefit in NVM-L mixes (writes pushed down the chain stop
blocking reads at cube input ports); for MetaCubes, all-DRAM beats the
NVM mixes because the hop count is low enough that array latency
starts to dominate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis import column_means, render_speedups, speedups
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    NORMALIZATION_BASELINE,
    PROPOSED_CONFIGS,
    ExperimentOutput,
    base_system,
    grid_jobs,
    suite,
)
from repro.runner import get_runner
from repro.workloads import WorkloadSpec


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    configs = {
        label: parse_label(label, base)
        for label in PROPOSED_CONFIGS + [NORMALIZATION_BASELINE]
    }
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    grid = speedups(
        results, [w.name for w in specs], PROPOSED_CONFIGS, NORMALIZATION_BASELINE
    )
    averages = column_means(grid, PROPOSED_CONFIGS)
    text = render_speedups(
        grid,
        averages,
        title=(
            "Fig 11: Tree vs SkipList vs MetaCube (round-robin arbitration), "
            "vs 100% chain"
        ),
    )
    return ExperimentOutput(
        experiment_id="fig11",
        title="Skip-list and MetaCube topologies vs the tree",
        text=text,
        data={"speedups": grid, "averages": averages},
        notes=(
            "Expected shape (paper): MetaCube best overall; skip-list close "
            "to tree (ahead for write-heavy workloads); 100%-MC beats the "
            "MC NVM mixes."
        ),
    )
