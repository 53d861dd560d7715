"""Built-in model self-checks.

``run_self_check(config)`` exercises a configuration end-to-end —
useful after changing timing parameters, adding a topology, or porting
the package.  It checks the routes, times one isolated read against the
analytic latency, and makes one audited run (``repro.check``) whose
invariant violations become a failed ``audit`` result.  Each check
returns a :class:`CheckResult`; ``python -m repro selfcheck`` runs them
from the shell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import SystemConfig
from repro.errors import InvariantViolation
from repro.system import MemoryNetworkSystem
from repro.units import serialization_ps
from repro.workloads import Request, WorkloadSpec

_CHECK_SPEC = WorkloadSpec(
    name="SELFCHECK",
    read_fraction=0.7,
    mean_gap_ns=3.0,
    locality_lines=4.0,
    mlp=16,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        marker = "PASS" if self.passed else "FAIL"
        return f"[{marker}] {self.name}: {self.detail}"


def _single_read_latency_check(config: SystemConfig) -> CheckResult:
    """An isolated read to the nearest cube matches the analytic value."""
    system = MemoryNetworkSystem(
        config, _CHECK_SPEC, requests=1, workload_iter=iter([Request(0, False, 0)])
    )
    seen: List = []
    original = system._transaction_done

    def capture(engine, txn):
        seen.append(txn)
        original(engine, txn)

    system.port.on_transaction_done = capture
    system.run()
    txn = seen[0]
    link = config.link
    hops = system.route_table.distance(txn.dest_cube)
    control = serialization_ps(config.packet.control_bits, link.lanes, link.lane_gbps)
    data = serialization_ps(config.packet.data_bits, link.lanes, link.lane_gbps)
    per_hop = link.serdes_latency_ps + link.propagation_ps
    tech = config.dram if txn.dest_tech == "DRAM" else config.nvm
    expected = (
        2 * config.host.port_latency_ps
        + hops * (control + data + 2 * per_hop)
        + tech.trcd_ps
        + tech.tcl_ps
    )
    slack = abs(txn.total_ps - expected)
    # allow the wrong-quadrant penalty and interposer-link differences
    budget = config.cube.wrong_quadrant_penalty_ps + 2 * per_hop * hops
    passed = slack <= budget
    return CheckResult(
        "single_read_latency",
        passed,
        f"measured {txn.total_ps} ps vs analytic {expected} ps "
        f"(slack {slack}, budget {budget})",
    )


def _audited_run_checks(config: SystemConfig) -> List[CheckResult]:
    """One audited run: the auditor's invariants, then the cube-level
    checks no invariant covers (every request reaches memory once, and
    per-cube traffic matches the capacity-weighted interleave)."""
    requests = 1200
    system = MemoryNetworkSystem(config, _CHECK_SPEC, requests=requests, audit=True)
    try:
        system.run()
    except InvariantViolation as violation:
        audit = CheckResult("audit", False, str(violation))
    else:
        audit = CheckResult("audit", True, f"no invariant violations in {requests} requests")
    worst = 0.0
    accesses = 0
    for index, cube_id in enumerate(system.cube_node_ids):
        cube = system.cubes[cube_id]
        cube_accesses = cube.total_reads() + cube.total_writes()
        accesses += cube_accesses
        expected = system.address_map.cube_share(index)
        worst = max(worst, abs(cube_accesses / requests - expected))
    return [
        audit,
        CheckResult(
            "cube_accesses",
            accesses == requests,
            f"{accesses} cube accesses for {requests} requests",
        ),
        CheckResult(
            "traffic_share",
            worst < 0.05,
            f"max |observed-expected| cube share = {worst:.3f} (< 0.05)",
        ),
    ]


def _route_sanity_check(config: SystemConfig) -> CheckResult:
    """Routes are loop-free, start at the host, end at their cube."""
    system = MemoryNetworkSystem(config, _CHECK_SPEC, requests=1)
    table = system.route_table
    problems = []
    for cube in system.topology.cube_ids():
        for cls in table.classes():
            route = table.route_to_cube(cube, cls)
            if route[0] != 0 or route[-1] != cube or len(set(route)) != len(route):
                problems.append((cube, cls.name))
    return CheckResult(
        "route_sanity",
        not problems,
        "all routes loop-free" if not problems else f"bad routes: {problems}",
    )


def run_self_check(config: Optional[SystemConfig] = None) -> List[CheckResult]:
    """Run all checks against a configuration (default: paper baseline)."""
    config = config or SystemConfig()
    config.validate()
    return [
        _route_sanity_check(config),
        _single_read_latency_check(config),
        *_audited_run_checks(config),
    ]


def all_passed(results: List[CheckResult]) -> bool:
    return all(result.passed for result in results)
