"""Fig 14 — system-capacity sensitivity: 1 TB vs 2 TB.

The cube count stays fixed while each cube's capacity halves (half the
stacked layers, hence half the banks); the workload footprint shrinks
with it (Section 6.2 assumes footprints just under capacity).

Paper shape: all-DRAM configurations gain slightly (smaller footprint,
unchanged network); NVM mixes *lose* — fewer banks means less
memory-level parallelism and more queuing behind slow NVM writes; the
all-NVM chain drops the most.
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

# The Fig 14 x-axis: five topologies for 100% and both 50% placements,
# chain only for 0%.
TOPOS = ["C", "R", "T", "SL", "MC"]
LABELS = (
    [f"100%-{t}" for t in TOPOS]
    + [f"50%-{t} (NVM-L)" for t in TOPOS]
    + [f"50%-{t} (NVM-F)" for t in TOPOS]
    + ["0%-C"]
)


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    configs = {}
    for label in LABELS:
        configs[label, "2TB"] = parse_label(label, base)
        configs[label, "1TB"] = configs[label, "2TB"].with_(capacity_scale=0.5)
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    averages: Dict[str, float] = {}
    for label in LABELS:
        deltas = [
            results[(label, "1TB"), w.name].speedup_over(
                results[(label, "2TB"), w.name]
            )
            * 100.0
            for w in specs
        ]
        averages[label] = sum(deltas) / len(deltas)
    rows = [[label, f"{averages[label]:+.2f}%"] for label in LABELS]
    text = render_table(
        ["configuration", "speedup 1TB vs 2TB"],
        rows,
        title="Fig 14: average speedup when moving from 2 TB to 1 TB",
    )
    return ExperimentOutput(
        experiment_id="fig14",
        title="Average system speedup when moving from 2TB to 1TB",
        text=text,
        data={"averages": averages},
        notes=(
            "Expected shape (paper): 100% DRAM slightly positive; 50% mixes "
            "negative (less bank-level parallelism); 0%-C the largest drop."
        ),
    )
