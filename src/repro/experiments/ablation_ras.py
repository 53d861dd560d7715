"""RAS ablation — throughput/latency/availability under injected faults.

Two sweeps over the four main topologies (chain, ring, skip-list,
MetaCube), both driven by :class:`repro.ras.FaultPlan`:

* **Bit-error rate**: transient CRC errors trigger link-level retry;
  runtime degrades smoothly with BER (each replay costs one extra
  serialization plus the retrain penalty) and availability stays 1.0.
* **Permanent failure time**: one mid-route link dies at a fraction of
  the healthy runtime.  Topologies with path diversity (ring, skip-list
  read paths, MetaCube meshes) reroute and keep availability at or near
  1.0 at the cost of longer routes; the chain — and skip-list *writes*,
  which are pinned to the central chain — lose every cube beyond the
  cut and serve the rest (counted host-level errors, no crash).

The failure edge is the middle edge of the host's READ route to its
farthest cube, so every topology loses a comparably central link.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis import render_table
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.net.routing import RouteClass, RouteTable
from repro.runner import SimJob, get_runner
from repro.topology import build_topology
from repro.topology.base import HOST_ID
from repro.workloads import WorkloadSpec

TOPOLOGIES = ("100%-C", "100%-R", "100%-SL", "100%-MC")
BERS = (0.0, 1e-8, 1e-7, 1e-6, 1e-5)
FAILURE_FRACTIONS = (0.25, 0.5, 0.75)


def _failure_edge(config: SystemConfig) -> Tuple[int, int]:
    """The middle edge of the host -> farthest-cube READ route."""
    topology = build_topology(config)
    table = RouteTable(
        topology.adjacency_by_class(), HOST_ID, topology.cube_ids()
    )
    farthest = max(
        topology.cube_ids(), key=lambda c: table.distance(c, RouteClass.READ)
    )
    route = list(table.route_to_cube(farthest, RouteClass.READ))
    mid = max(len(route) // 2, 1)
    return route[mid - 1], route[mid]


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    # The fault response is a property of the network, not the request
    # mix; one representative workload keeps the sweep tractable.
    workload = suite(workloads)[0]
    runner = get_runner()
    configs = {label: parse_label(label, base) for label in TOPOLOGIES}

    # -- transient-error sweep --------------------------------------------
    # Stage one: its BER=0 column is the healthy run, whose runtime
    # schedules the permanent failures of stage two.
    ber_jobs = {}
    for topo in TOPOLOGIES:
        ber_jobs[topo, BERS[0]] = SimJob(configs[topo], workload, requests)
        for ber in BERS[1:]:
            ber_jobs[topo, ber] = SimJob(
                configs[topo].with_ras(bit_error_rate=ber), workload, requests
            )
    ber_results = runner.run_keyed(ber_jobs)
    healthy = {topo: ber_results[topo, BERS[0]] for topo in TOPOLOGIES}

    ber_rows = []
    ber_data: Dict[str, Dict[float, float]] = {}
    for topo in TOPOLOGIES:
        row = [topo]
        ber_data[topo] = {}
        baseline_ps = healthy[topo].runtime_ps
        for ber in BERS:
            result = ber_results[(topo, ber)]
            slowdown = (result.runtime_ps / baseline_ps - 1.0) * 100.0
            replays = result.extra.get("ras.replays", 0.0)
            ber_data[topo][ber] = slowdown
            row.append(f"{slowdown:+5.1f}% ({replays:.0f}r)")
        ber_rows.append(row)
    ber_table = render_table(
        ["configuration"] + [f"{ber:g}" for ber in BERS],
        ber_rows,
        title=(
            f"RAS: runtime vs link bit-error rate "
            f"({workload.name}, slowdown vs BER=0, replays)"
        ),
    )

    # -- permanent-failure sweep ------------------------------------------
    fail_jobs = {}
    edges: Dict[str, Tuple[int, int]] = {}
    for topo in TOPOLOGIES:
        a, b = edges[topo] = _failure_edge(configs[topo])
        runtime_ps = healthy[topo].runtime_ps
        for fraction in FAILURE_FRACTIONS:
            when = max(int(runtime_ps * fraction), 1)
            fail_jobs[topo, fraction] = SimJob(
                configs[topo].with_ras(link_failures=((a, b, when),)),
                workload,
                requests,
            )
    fail_results = runner.run_keyed(fail_jobs)

    fail_rows = []
    availability: Dict[str, Dict[float, float]] = {}
    for topo in TOPOLOGIES:
        a, b = edges[topo]
        row = [f"{topo} ({a}-{b})"]
        availability[topo] = {}
        for fraction in FAILURE_FRACTIONS:
            result = fail_results[(topo, fraction)]
            availability[topo][fraction] = result.availability
            row.append(
                f"{result.availability * 100.0:5.1f}% "
                f"/{result.mean_latency_ns:6.0f}ns"
            )
        fail_rows.append(row)
    fail_table = render_table(
        ["configuration (edge)"]
        + [f"t={fraction:g}R" for fraction in FAILURE_FRACTIONS],
        fail_rows,
        title=(
            f"RAS: availability / mean latency vs link-failure time "
            f"({workload.name}, failure at fraction of healthy runtime R)"
        ),
    )

    return ExperimentOutput(
        experiment_id="ablation_ras",
        title="Fault injection: retry overhead and availability",
        text=ber_table + "\n\n" + fail_table,
        data={
            "grid": availability,
            "ber_slowdown": ber_data,
            "failure_edges": {t: list(edges[t]) for t in TOPOLOGIES},
        },
        notes=(
            "Expected: BER slowdown grows with route length (chain worst); "
            "ring/MetaCube reroute around the cut (availability 100%, longer "
            "routes), the chain serves only cubes before the cut, and the "
            "skip-list keeps reads available while writes past the cut fail "
            "(they are pinned to the central chain)."
        ),
    )
