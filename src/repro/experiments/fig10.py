"""Fig 10 — distance-based arbitration on the baseline topologies.

For each of the 12 baseline configurations (chain/ring/tree x NVM
ratios/placements), this measures the speedup obtained by replacing the
locally-fair round-robin arbiter with the naive distance-based arbiter
of Section 4.1.

Paper shape: mixed results — gains for most configurations (strongest
where the parking-lot problem is worst), but NVM-F placements can
degrade because pure distance mispredicts the age of responses from
slow NVM cubes sitting close to the host.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import column_means, render_speedups
from repro.config import ARBITER_DISTANCE, SystemConfig, parse_label
from repro.experiments.base import (
    BASELINE_CONFIGS,
    DEFAULT_REQUESTS,
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
    reference = base.arbiter  # round-robin unless the base overrides it
    configs = {
        (label, arbiter): parse_label(label, base).with_(arbiter=arbiter)
        for label in BASELINE_CONFIGS
        for arbiter in (reference, ARBITER_DISTANCE)
    }
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    data: Dict[str, Dict[str, float]] = {
        w.name: {
            label: results[(label, ARBITER_DISTANCE), w.name].speedup_over(
                results[(label, reference), w.name]
            )
            * 100.0
            for label in BASELINE_CONFIGS
        }
        for w in specs
    }
    averages = column_means(data, BASELINE_CONFIGS)
    text = render_speedups(
        data,
        averages,
        title="Fig 10: speedup of distance-based arbitration over round-robin",
    )
    return ExperimentOutput(
        experiment_id="fig10",
        title="Distance-based arbitration vs locally-fair round-robin",
        text=text,
        data={"delta": data, "averages": averages},
        notes=(
            "Expected shape (paper): modest gains for most configurations; "
            "NVM-F placements benefit least (distance mispredicts age when "
            "slow cubes sit near the host)."
        ),
    )
