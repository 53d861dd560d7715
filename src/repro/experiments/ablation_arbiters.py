"""Ablation — the full arbitration design space of Section 4.1.

Compares all five arbiters: the round-robin baseline, the proposed
distance-based scheme and its enhanced variant, plus the two schemes
the paper discusses but rejects as impractical (true age-based, and
globally-weighted round robin), which serve as oracles.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import render_table
from repro.config import (
    ARBITER_ROUND_ROBIN,
    VALID_ARBITERS,
    SystemConfig,
    parse_label,
)
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    grid_jobs,
    suite,
)
from repro.runner import get_runner
from repro.workloads import WorkloadSpec

TOPOLOGY_LABELS = ["100%-C", "100%-T", "50%-C (NVM-L)", "50%-T (NVM-F)"]


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    configs = {
        (topo_label, arbiter): parse_label(topo_label, base).with_(arbiter=arbiter)
        for topo_label in TOPOLOGY_LABELS
        for arbiter in VALID_ARBITERS
    }
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    data: Dict[str, Dict[str, float]] = {}
    rows = []
    for topo_label in TOPOLOGY_LABELS:
        data[topo_label] = {}
        row = [topo_label]
        for arbiter in VALID_ARBITERS:
            deltas = [
                results[(topo_label, arbiter), w.name].speedup_over(
                    results[(topo_label, ARBITER_ROUND_ROBIN), w.name]
                )
                * 100.0
                for w in specs
            ]
            mean = sum(deltas) / len(deltas)
            data[topo_label][arbiter] = mean
            row.append(f"{mean:+.2f}%")
        rows.append(row)
    text = render_table(
        ["configuration"] + list(VALID_ARBITERS),
        rows,
        title="Ablation: arbitration schemes vs round-robin (workload average)",
    )
    return ExperimentOutput(
        experiment_id="ablation_arbiters",
        title="Arbitration design space (Section 4.1 alternatives)",
        text=text,
        data={"delta": data},
        notes=(
            "age and global_weighted are the impractical oracles the paper "
            "rejects; distance should approach them."
        ),
    )
