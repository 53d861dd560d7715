"""Reproduction of the Section 3.2 router-queue-fairness analysis.

Runs the chain MN under round-robin and under distance-based
arbitration and reports the per-cube input-queue waiting times: under
RR the transit queues (return traffic from deeper cubes) wait
disproportionately at the near-host cubes; distance-based arbitration
shrinks that transit wait.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.parking_lot import (
    mean_transit_wait_ns,
    render_parking_lot_report,
)
from repro.config import ARBITER_DISTANCE, ARBITER_ROUND_ROBIN, SystemConfig
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.system import MemoryNetworkSystem
from repro.workloads import WorkloadSpec, get_workload


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    workload = (suite(workloads) or [get_workload("KMEANS")])[0]
    sections = []
    transit_waits: Dict[str, float] = {}
    for arbiter in (ARBITER_ROUND_ROBIN, ARBITER_DISTANCE):
        config = base.with_(topology="chain", arbiter=arbiter)
        system = MemoryNetworkSystem(config, workload, requests=requests)
        system.run()
        transit_waits[arbiter] = mean_transit_wait_ns(system)
        sections.append(
            f"--- arbiter: {arbiter} ---\n" + render_parking_lot_report(system)
        )
    summary = (
        f"mean transit-queue wait: round_robin="
        f"{transit_waits[ARBITER_ROUND_ROBIN]:.2f} ns, "
        f"distance={transit_waits[ARBITER_DISTANCE]:.2f} ns"
    )
    return ExperimentOutput(
        experiment_id="analysis_parking_lot",
        title="Router input-queue fairness (the parking-lot problem)",
        text="\n\n".join(sections) + "\n\n" + summary,
        data={"transit_wait_ns": transit_waits},
        notes=(
            "Expected: under round-robin, transit queues wait longer than "
            "local vault queues at near-host cubes; distance arbitration "
            "reduces the transit wait."
        ),
    )
