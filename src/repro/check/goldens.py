"""The golden regression corpus: what to run and how to digest it.

Two corpora make every hot-path or protocol change bit-accountable:

* the **matrix** — direct simulations spanning the four paper
  topologies x audit-relevant modes (plain / obs attribution / RAS
  noise / both), every arbiter, and two permanent-failure scenarios
  that exercise the quiesce path.  Each case records the lossless
  :func:`repro.serialization.result_digest` plus headline metrics so a
  digest change comes with a readable "what moved" diff.
* the **experiments** — every registered experiment run at smoke scale
  (``EXPERIMENT_REQUESTS`` requests, two workloads), digested over the
  canonical tree of its output data.

Checked-in snapshots live in ``tests/goldens/``; regenerate them with
``python tools/regen_goldens.py`` (see ``docs/testing.md`` for the
policy).  All corpus runs are executed with invariant audits on, so a
golden pass certifies conservation as well as bit-stability.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.config import P2P_NEIGHBOR, P2P_SHUFFLE, VALID_ARBITERS, SystemConfig
from repro.runner.job import digest_tree
from repro.serialization import result_digest
from repro.units import GIB_BYTES
from repro.workloads import WorkloadSpec

#: Request count for one matrix simulation (seconds, not minutes, for
#: the whole grid).
MATRIX_REQUESTS = 150

#: Smoke scale for the experiment corpus.
EXPERIMENT_REQUESTS = 50
EXPERIMENT_WORKLOADS = ("BACKPROP", "KMEANS")

#: The four paper topologies (Figs 10-12); tree rides along as the
#: intermediate step between ring and skip-list.
MATRIX_TOPOLOGIES = ("chain", "ring", "skiplist", "metacube")


def _matrix_config(**overrides) -> SystemConfig:
    """The corpus base config: the tests' small 8-cube-per-port system."""
    defaults = dict(total_capacity_bytes=1024 * GIB_BYTES)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def _matrix_workload() -> WorkloadSpec:
    return WorkloadSpec(
        name="TEST",
        read_fraction=0.6,
        mean_gap_ns=2.0,
        locality_lines=4.0,
        mlp=16,
        burst_size=4.0,
    )


def _hot_write_workload() -> WorkloadSpec:
    """Write-heavy traffic on a hot set of lines, one line per run."""
    return replace(
        _matrix_workload(), read_fraction=0.3, locality_lines=1.0, skew=0.99
    )


def _p2p_workload() -> WorkloadSpec:
    return replace(_matrix_workload(), p2p_fraction=0.15)


def _overload_workload() -> WorkloadSpec:
    """Bursty open-loop arrivals at twice the matrix workload's rate."""
    return replace(
        _matrix_workload(),
        arrival="onoff",
        mean_gap_ns=1.0,
        on_fraction=0.5,
        on_burst=16.0,
    )


#: A case is ``(name, config, workload)``; ``None`` means the shared
#: matrix workload.
MatrixCase = Tuple[str, SystemConfig, Optional[WorkloadSpec]]


def matrix_cases() -> List[MatrixCase]:
    """Named configs of the simulation matrix, in a stable order."""
    cases: List[MatrixCase] = []
    for topology in MATRIX_TOPOLOGIES:
        base = _matrix_config(topology=topology)
        cases.append((f"{topology}/base", base, None))
        cases.append((f"{topology}/obs", base.with_obs(attribution=True), None))
        cases.append((
            f"{topology}/ras", base.with_ras(bit_error_rate=1e-6), None
        ))
        cases.append((
            f"{topology}/obs+ras",
            base.with_obs(attribution=True).with_ras(bit_error_rate=1e-6),
            None,
        ))
    for arbiter in VALID_ARBITERS:
        cases.append((
            f"skiplist/arb-{arbiter}",
            _matrix_config(topology="skiplist", arbiter=arbiter),
            None,
        ))
    cases.append(("tree/base", _matrix_config(topology="tree"), None))
    # Permanent failures drive the quiesce/reroute path (and its audit
    # point); one link cut on the chain, one whole cube on the skip-list.
    cases.append((
        "chain/ras-linkfail",
        _matrix_config(topology="chain").with_ras(
            link_failures=((2, 3, 200_000),)
        ),
        None,
    ))
    cases.append((
        "skiplist/ras-cubefail",
        _matrix_config(topology="skiplist")
        .with_obs(attribution=True)
        .with_ras(cube_failures=((3, 250_000),)),
        None,
    ))
    # Peer-to-peer copies over a mixed-tier chain: the promote pattern
    # needs both technologies present to pick an opposite-tier target,
    # and the four modes pin down p2p's interaction with attribution
    # segments and CRC replays.
    p2p_base = _matrix_config(
        topology="chain", dram_fraction=0.5, p2p_pattern="promote"
    )
    p2p = _p2p_workload()
    cases.append(("p2p/base", p2p_base, p2p))
    cases.append(("p2p/obs", p2p_base.with_obs(attribution=True), p2p))
    cases.append(("p2p/ras", p2p_base.with_ras(bit_error_rate=1e-6), p2p))
    cases.append((
        "p2p/obs+ras",
        p2p_base.with_obs(attribution=True).with_ras(bit_error_rate=1e-6),
        p2p,
    ))
    # Overload: open-loop Poisson arrivals past capacity with deadlines,
    # bounded retry and admission watermarks — pins down the timeout /
    # retry / shed machinery, its attribution tiling (obs) and its
    # interaction with RAS replays and degraded availability.
    overload_base = _matrix_config(topology="skiplist").with_overload(
        deadline_ps=150_000,
        max_retries=2,
        retry_backoff_ps=50_000,
        shed_high=96,
        shed_low=48,
    )
    overload = _overload_workload()
    cases.append(("overload/base", overload_base, overload))
    cases.append((
        "overload/obs", overload_base.with_obs(attribution=True), overload
    ))
    cases.append((
        "overload/ras", overload_base.with_ras(bit_error_rate=1e-6), overload
    ))
    # Read-priority injection: writes pile up on a few hot lines, so one
    # write ack makes a stalled write and a younger stalled read to its
    # line eligible in the same pick, and the rule decides which goes
    # first.  The rest of the matrix never reaches such a pick.
    read_priority = _matrix_config(topology="skiplist")
    cases.append((
        "skiplist/read-priority",
        read_priority.with_(
            host=replace(read_priority.host, read_priority_injection=True)
        ),
        _hot_write_workload(),
    ))
    # Paths the cases above never reach, each pinned against its base:
    # FR-FCFS lets a ready request bypass a blocked controller head; the
    # shuffle and neighbor patterns copy to the farthest rotation and to
    # the next cube; and an 8-entry hysteresis window fills at this
    # scale, so the port toggles write-burst mode (fig12's 64-entry
    # window never fills at the experiment corpus's scale).
    skiplist = _matrix_config(topology="skiplist")
    cases.append((
        "skiplist/frfcfs",
        skiplist.with_(cube=replace(skiplist.cube, scheduling="frfcfs")),
        None,
    ))
    for pattern in (P2P_SHUFFLE, P2P_NEIGHBOR):
        cases.append((
            f"p2p/{pattern}", p2p_base.with_(p2p_pattern=pattern), p2p
        ))
    cases.append((
        "skiplist/hysteresis",
        skiplist.with_(write_skip_hysteresis=True, hysteresis_window=8),
        None,
    ))
    return cases


#: Per-shard request count for the fleet corpus (kept below the matrix
#: scale: each fleet case runs several shards).
FLEET_REQUESTS = 60
FLEET_SHARDS = 6


def fleet_cases() -> List[Tuple[str, "FleetConfig"]]:
    """Named fleet configurations of the golden corpus, in stable order.

    Three cases pin the fleet layer end to end: a heterogeneous
    multi-topology fleet with the transparent default tenant (``base``),
    the same shards under a skewed/rate-scaled two-tenant registry
    (``skew``), and the same shards with staggered per-shard permanent
    faults (``ras``).  Each golden records the streaming
    :meth:`repro.fleet.FleetResult.digest`, which certifies fold-order
    and worker-count invariance on every corpus run.
    """
    from repro.fleet import FleetConfig, Tenant

    mix = ("chain", "skiplist", "metacube")
    shards = tuple(
        _matrix_config(topology=mix[i % len(mix)])
        for i in range(FLEET_SHARDS)
    )
    workload = _matrix_workload()
    cases: List[Tuple[str, FleetConfig]] = []
    cases.append((
        "fleet/base",
        FleetConfig(
            shards=shards, workload=workload,
            requests_per_shard=FLEET_REQUESTS,
        ),
    ))
    cases.append((
        "fleet/skew",
        FleetConfig(
            shards=shards,
            workload=workload,
            tenants=(
                Tenant("bulk", weight=2.0, skew=0.6),
                Tenant("hot", weight=1.0, rate_scale=2.0),
            ),
            requests_per_shard=FLEET_REQUESTS,
        ),
    ))
    cases.append((
        "fleet/ras",
        FleetConfig(
            shards=tuple(
                shard.with_ras(cube_failures=((1, 200_000 + 50_000 * i),))
                if i % 2 == 0 else shard
                for i, shard in enumerate(shards)
            ),
            workload=workload,
            requests_per_shard=FLEET_REQUESTS,
        ),
    ))
    return cases


def run_fleet_case(fleet, audit: bool = True) -> Dict[str, object]:
    """Run one fleet case on a fresh serial runner; reduce to a golden.

    The digest is :meth:`repro.fleet.FleetResult.digest` — identical
    for any fold order, worker count, and cache temperature, so this
    entry also re-certifies the fleet determinism contract on every
    verification run.
    """
    from repro.check import audits
    from repro.fleet import run_fleet
    from repro.runner import ParallelRunner

    with audits(audit):
        result = run_fleet(fleet, runner=ParallelRunner(jobs=1))
    total = result.total
    p99 = total.percentile_ns(0.99)
    return {
        "digest": result.digest(),
        "shards": result.shards_folded,
        "requests": total.requests,
        "availability": round(total.availability, 6),
        "p99_latency_ns": None if p99 is None else round(p99, 6),
    }


def run_matrix_case(
    config: SystemConfig,
    requests: int = MATRIX_REQUESTS,
    audit: bool = True,
    workload: Optional[WorkloadSpec] = None,
) -> Dict[str, object]:
    """Simulate one matrix case and reduce it to a golden entry.

    The digest is the lossless result digest; the headline metrics ride
    along purely so a mismatch report can say what moved.
    """
    from repro.system import MemoryNetworkSystem

    system = MemoryNetworkSystem(
        config,
        workload if workload is not None else _matrix_workload(),
        requests=requests,
        audit=audit,
    )
    result = system.run()
    return {
        "digest": result_digest(result),
        "events": result.events_processed,
        "runtime_ps": result.runtime_ps,
        "mean_latency_ns": round(result.mean_latency_ns, 6),
        "failed": result.requests_failed,
    }


def compute_matrix(audit: bool = True) -> Dict[str, Dict[str, object]]:
    """Run the whole matrix; returns ``{case name: golden entry}``.

    Fleet cases ride in the same corpus (keys ``fleet/*``) so one
    snapshot pins single-MN and fleet-level behaviour together.
    """
    out = {
        name: run_matrix_case(config, audit=audit, workload=workload)
        for name, config, workload in matrix_cases()
    }
    for name, fleet in fleet_cases():
        out[name] = run_fleet_case(fleet, audit=audit)
    return out


def compute_experiments(
    requests: int = EXPERIMENT_REQUESTS,
    workload_names: Tuple[str, ...] = EXPERIMENT_WORKLOADS,
    only: Optional[List[str]] = None,
) -> Dict[str, Dict[str, object]]:
    """Run every registered experiment at smoke scale and digest it.

    The digest covers the canonical tree of ``ExperimentOutput.data``
    (the numbers every figure/table renders from), not the rendered
    text, so cosmetic formatting changes do not churn the corpus.
    Audits apply to the underlying simulations whenever they are
    ambiently enabled (``REPRO_AUDIT=1`` reaches worker processes too).
    """
    from repro.experiments.registry import EXPERIMENTS
    from repro.workloads import get_workload

    workloads = [get_workload(name) for name in workload_names]
    out: Dict[str, Dict[str, object]] = {}
    for experiment_id, run in EXPERIMENTS.items():
        if only is not None and experiment_id not in only:
            continue
        output = run(requests=requests, workloads=workloads)
        out[experiment_id] = {
            "digest": digest_tree({
                "experiment": experiment_id,
                "requests": requests,
                "workloads": list(workload_names),
                "data": output.data,
            }),
            "series_rows": len(output.series()),
        }
    return out


def diff_goldens(
    old: Dict[str, Dict[str, object]],
    new: Dict[str, Dict[str, object]],
) -> List[str]:
    """Human-readable difference report between two golden corpora."""
    lines: List[str] = []
    for name in sorted(set(old) | set(new)):
        if name not in new:
            lines.append(f"- {name}: removed")
            continue
        if name not in old:
            lines.append(f"+ {name}: added ({new[name].get('digest', '?')[:12]})")
            continue
        before, after = old[name], new[name]
        if before == after:
            continue
        changed = [
            f"{key} {before.get(key)} -> {after.get(key)}"
            for key in sorted(set(before) | set(after))
            if before.get(key) != after.get(key) and key != "digest"
        ]
        detail = "; ".join(changed) if changed else (
            f"digest {str(before.get('digest'))[:12]} -> "
            f"{str(after.get('digest'))[:12]}"
        )
        lines.append(f"! {name}: {detail}")
    return lines
