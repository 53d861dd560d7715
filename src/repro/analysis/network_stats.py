"""Per-link and per-cube statistics extracted from a finished system.

These power the link-utilization analysis behind the paper's skip-list
motivation ("the majority of a tree's links tend to be under-utilized",
Section 4.2) and are generally useful for debugging new topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.tables import render_table
from repro.obs.tracing import serializing_ps
from repro.topology.base import LinkKind


@dataclass(frozen=True)
class LinkStats:
    name: str
    kind: str
    packets: int
    bits: int
    busy_ps: int  # serialization time, CRC replays excluded
    utilization: float  # busy_ps / runtime


@dataclass(frozen=True)
class CubeStats:
    node_id: int
    tech: str
    reads: int
    writes: int
    row_hits: int
    refreshes: int

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


def link_stats(system, runtime_ps: int = 0) -> List[LinkStats]:
    """Snapshot per-link counters from a (finished) system."""
    runtime = runtime_ps or max(system.collector.last_complete_ps, 1)
    stats = []
    for link, kind in system._links:
        busy_ps = serializing_ps(link)
        stats.append(
            LinkStats(
                name=link.name,
                kind="interposer" if kind == LinkKind.INTERPOSER else "external",
                packets=link.packets_carried,
                bits=link.bits_carried,
                busy_ps=busy_ps,
                utilization=busy_ps / runtime,
            )
        )
    return stats


def cube_stats(system) -> List[CubeStats]:
    stats = []
    for node_id, cube in sorted(system.cubes.items()):
        stats.append(
            CubeStats(
                node_id=node_id,
                tech=cube.tech.name,
                reads=cube.total_reads(),
                writes=cube.total_writes(),
                row_hits=cube.total_row_hits(),
                refreshes=sum(c.refreshes for c in cube.controllers),
            )
        )
    return stats


def render_link_report(system) -> str:
    rows = [
        [s.name, s.kind, s.packets, f"{s.utilization * 100:.1f}%"]
        for s in sorted(link_stats(system), key=lambda s: -s.utilization)
    ]
    return render_table(
        ["link", "kind", "packets", "utilization"], rows, title="Link usage"
    )


def render_cube_report(system) -> str:
    rows = [
        [
            f"cube{s.node_id}",
            s.tech,
            s.reads,
            s.writes,
            f"{s.row_hit_rate * 100:.1f}%",
        ]
        for s in cube_stats(system)
    ]
    return render_table(
        ["cube", "tech", "reads", "writes", "row hits"], rows, title="Cube usage"
    )
