"""Ablation — finer DRAM:NVM capacity ratio sweep on the tree.

The paper evaluates {0%, 50%, 100%}; this sweep adds 25% and 75% to
locate the crossover where network-size savings stop covering the NVM
array penalty.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import column_means, render_speedups, speedups
from repro.config import NVM_LAST, TOPOLOGY_TREE, SystemConfig
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    grid_jobs,
    suite,
)
from repro.runner import get_runner
from repro.workloads import WorkloadSpec

FRACTIONS = (1.0, 0.75, 0.50, 0.25, 0.0)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    # keep only ratios that decompose into whole cubes for this system
    fractions = []
    for fraction in FRACTIONS:
        try:
            base.with_(dram_fraction=fraction).cube_counts()
        except Exception:
            continue
        fractions.append(fraction)
    configs = {
        fraction: base.with_(
            topology=TOPOLOGY_TREE, dram_fraction=fraction, nvm_placement=NVM_LAST
        )
        for fraction in fractions
    }
    configs["baseline"] = base.with_(topology="chain", dram_fraction=1.0)
    specs = suite(workloads)
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    data: Dict[str, Dict[float, float]] = speedups(
        results, [w.name for w in specs], fractions, "baseline"
    )
    averages = column_means(data, fractions)
    text = render_speedups(
        data,
        averages,
        title="Ablation: DRAM fraction sweep on the tree (NVM-L), vs 100%-C",
        headers=[f"{int(f * 100)}% DRAM" for f in fractions],
    )
    return ExperimentOutput(
        experiment_id="ablation_ratio",
        title="DRAM:NVM ratio sweep",
        text=text,
        data={"grid": data, "averages": averages},
    )
