"""The Section 3.2 "parking lot" analysis.

The paper observed that "the queuing latencies for the router
input-ports were highly unbalanced, with the cubes closer to the
processor showing more problems": a locally-fair round-robin gives each
input queue equal service, but the transit queue from deeper cubes
carries far more flows than any local vault queue, so its packets wait
disproportionately.  This module extracts exactly that evidence from a
finished simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import render_table
from repro.memory.cube import LOCAL_INPUTS
from repro.units import to_ns


@dataclass(frozen=True)
class RouterQueueWaits:
    """Mean input-queue waits at one cube's router, split by role."""

    node_id: int
    distance: int
    local_wait_ns: float  # the 4 vault-response injection queues
    transit_wait_ns: float  # queues fed by other packages
    local_popped: int
    transit_popped: int

    @property
    def imbalance(self) -> float:
        """Transit/local wait ratio (>1 means transit packets starve)."""
        if self.local_wait_ns <= 0:
            return float("inf") if self.transit_wait_ns > 0 else 1.0
        return self.transit_wait_ns / self.local_wait_ns


def cube_queue_waits(system) -> List[RouterQueueWaits]:
    """Per-cube local-vs-transit queue waits (needs a finished run)."""
    reports = []
    for node_id, cube in sorted(system.cubes.items()):
        router = cube.router
        local = router.inputs[:LOCAL_INPUTS]
        transit = router.inputs[LOCAL_INPUTS:]

        def fold(queues):
            wait = sum(q.total_wait_ps for q in queues)
            popped = sum(q.popped for q in queues)
            return (to_ns(wait) / popped if popped else 0.0), popped

        local_wait, local_popped = fold(local)
        transit_wait, transit_popped = fold(transit)
        reports.append(
            RouterQueueWaits(
                node_id=node_id,
                distance=system.route_table.distance(node_id),
                local_wait_ns=local_wait,
                transit_wait_ns=transit_wait,
                local_popped=local_popped,
                transit_popped=transit_popped,
            )
        )
    return reports


def mean_transit_wait_ns(system) -> float:
    """Traffic-weighted mean transit-queue wait across the MN."""
    total_wait = 0.0
    total_popped = 0
    for report in cube_queue_waits(system):
        total_wait += report.transit_wait_ns * report.transit_popped
        total_popped += report.transit_popped
    return total_wait / total_popped if total_popped else 0.0


def render_parking_lot_report(system) -> str:
    rows = []
    for report in cube_queue_waits(system):
        rows.append(
            [
                f"cube{report.node_id}",
                report.distance,
                f"{report.local_wait_ns:.2f}",
                f"{report.transit_wait_ns:.2f}",
                "-" if report.transit_popped == 0 else f"{report.imbalance:.2f}x",
            ]
        )
    return render_table(
        ["cube", "hops", "local wait (ns)", "transit wait (ns)", "imbalance"],
        rows,
        title="Parking-lot analysis: router input-queue waits (Section 3.2)",
    )
