"""Result serialization: SimResult -> plain dict / JSON and back-of-book
reporting helpers.

Simulation campaigns (sweeps, nightly regressions) need results that
outlive the process; this module flattens :class:`SimResult` into
JSON-serializable dictionaries and writes experiment bundles.

Two representations exist:

* :func:`result_to_dict` — a *report* view (means, rates, totals) for
  human consumption and cross-run comparison.  Lossy.
* :func:`result_to_state` / :func:`result_from_state` — a *lossless*
  round-trip of every aggregate a :class:`SimResult` carries, used by
  the runner's disk cache and by determinism checks
  (:func:`result_digest`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Union

from repro.results import EnergyReport, LatencyBreakdown, SimResult, TransactionCollector
from repro.sim.stats import Histogram, RunningStat

#: Bump whenever the state schema (or anything that feeds it) changes in
#: a way that invalidates previously persisted results.
#: v2: latency-component histograms on every breakdown, per-segment
#: attribution histograms on the collector (the repro.obs layer).
#: v3: RAS availability accounting (requests_failed / requests_served)
#: and fault-injection counters in ``extra`` (the repro.ras layer).
#: v4: peer-to-peer copy accounting (p2p count, p2p_breakdown,
#: xfer_hops) on the collector.
RESULT_STATE_VERSION = 4


def result_to_dict(result: SimResult) -> Dict[str, object]:
    """Flatten a result into a JSON-serializable dictionary."""
    breakdown = result.collector.all
    return {
        "config": result.config_label,
        "workload": result.workload,
        "runtime_ps": result.runtime_ps,
        "transactions": result.transactions,
        "reads": result.collector.reads,
        "writes": result.collector.writes,
        "p2p": result.collector.p2p,
        "latency": {
            "to_memory_ns": breakdown.to_memory_ns,
            "in_memory_ns": breakdown.in_memory_ns,
            "from_memory_ns": breakdown.from_memory_ns,
            "total_ns": breakdown.total_ns,
            "tails_ns": breakdown.tails_ns(),
        },
        "hops": {
            "request_mean": result.collector.request_hops.mean,
            "response_mean": result.collector.response_hops.mean,
            "xfer_mean": result.collector.xfer_hops.mean,
        },
        "row_hit_rate": result.row_hit_rate,
        "nvm_access_fraction": (
            result.collector.nvm_accesses / result.transactions
            if result.transactions
            else 0.0
        ),
        "energy_pj": {
            "network": result.energy.network_pj,
            "interposer": result.energy.interposer_pj,
            "memory_read": result.energy.memory_read_pj,
            "memory_write": result.energy.memory_write_pj,
            "total": result.energy.total_pj,
        },
        "topology": {
            "mean_distance": result.mean_distance,
            "max_distance": result.max_distance,
        },
        "stalled_reads": result.stalled_reads,
        "events_processed": result.events_processed,
        "requests_failed": result.requests_failed,
        "availability": result.availability,
    }


# ---------------------------------------------------------------------------
# Lossless state round-trip (runner disk cache, determinism checks)
# ---------------------------------------------------------------------------
def _stat_to_state(stat: RunningStat) -> Dict[str, object]:
    return {
        "count": stat.count,
        "mean": stat._mean,
        "m2": stat._m2,
        "min": stat.min,
        "max": stat.max,
        "total": stat.total,
    }


def _stat_from_state(state: Dict[str, object]) -> RunningStat:
    # Values are passed through verbatim: JSON preserves the int/float
    # distinction, and coercing here would make a round-tripped result
    # hash differently from the freshly computed one.
    stat = RunningStat()
    stat.count = state["count"]
    stat._mean = state["mean"]
    stat._m2 = state["m2"]
    stat.min = state["min"]
    stat.max = state["max"]
    stat.total = state["total"]
    return stat


def _hist_to_state(hist: Histogram) -> Dict[str, object]:
    # Buckets are stored sparsely as [index, count] pairs: latency
    # histograms have 1024 buckets of which a handful are populated.
    return {
        "bucket_width": hist.bucket_width,
        "num_buckets": len(hist.buckets),
        "buckets": [[i, n] for i, n in enumerate(hist.buckets) if n],
        "underflow": hist.underflow,
        "overflow": hist.overflow,
        "stat": _stat_to_state(hist.stat),
    }


def _hist_from_state(state: Dict[str, object]) -> Histogram:
    hist = Histogram(state["bucket_width"], state["num_buckets"])
    for index, n in state["buckets"]:
        hist.buckets[index] = n
    hist.underflow = state["underflow"]
    hist.overflow = state["overflow"]
    hist.stat = _stat_from_state(state["stat"])
    return hist


def _breakdown_to_state(breakdown: LatencyBreakdown) -> Dict[str, object]:
    # The bare component stats duplicate each histogram's ``stat``; they
    # stay in the layout so state bytes, digests and cache entries are
    # unchanged, and the decoder reads only the histograms.
    return {
        "to_memory": _stat_to_state(breakdown.to_memory),
        "in_memory": _stat_to_state(breakdown.in_memory),
        "from_memory": _stat_to_state(breakdown.from_memory),
        "to_memory_hist": _hist_to_state(breakdown.to_memory_hist),
        "in_memory_hist": _hist_to_state(breakdown.in_memory_hist),
        "from_memory_hist": _hist_to_state(breakdown.from_memory_hist),
        "total_hist": _hist_to_state(breakdown.total_hist),
    }


def _breakdown_from_state(state: Dict[str, object]) -> LatencyBreakdown:
    return LatencyBreakdown(
        to_memory_hist=_hist_from_state(state["to_memory_hist"]),
        in_memory_hist=_hist_from_state(state["in_memory_hist"]),
        from_memory_hist=_hist_from_state(state["from_memory_hist"]),
        total_hist=_hist_from_state(state["total_hist"]),
    )


def _collector_to_state(collector: TransactionCollector) -> Dict[str, object]:
    return {
        "reads": collector.reads,
        "writes": collector.writes,
        "p2p": collector.p2p,
        "all": _breakdown_to_state(collector.all),
        "read_breakdown": _breakdown_to_state(collector.read_breakdown),
        "write_breakdown": _breakdown_to_state(collector.write_breakdown),
        "p2p_breakdown": _breakdown_to_state(collector.p2p_breakdown),
        "request_hops": _stat_to_state(collector.request_hops),
        "response_hops": _stat_to_state(collector.response_hops),
        "xfer_hops": _stat_to_state(collector.xfer_hops),
        "row_hits": collector.row_hits,
        "nvm_accesses": collector.nvm_accesses,
        "last_complete_ps": collector.last_complete_ps,
        "segments": {
            label: _hist_to_state(hist)
            for label, hist in sorted(collector.segments.items())
        },
    }


def _collector_from_state(state: Dict[str, object]) -> TransactionCollector:
    collector = TransactionCollector()
    collector.reads = state["reads"]
    collector.writes = state["writes"]
    collector.p2p = state["p2p"]
    collector.all = _breakdown_from_state(state["all"])
    collector.read_breakdown = _breakdown_from_state(state["read_breakdown"])
    collector.write_breakdown = _breakdown_from_state(state["write_breakdown"])
    collector.p2p_breakdown = _breakdown_from_state(state["p2p_breakdown"])
    collector.request_hops = _stat_from_state(state["request_hops"])
    collector.response_hops = _stat_from_state(state["response_hops"])
    collector.xfer_hops = _stat_from_state(state["xfer_hops"])
    collector.row_hits = state["row_hits"]
    collector.nvm_accesses = state["nvm_accesses"]
    collector.last_complete_ps = state["last_complete_ps"]
    collector.segments = {
        label: _hist_from_state(hist_state)
        for label, hist_state in state.get("segments", {}).items()
    }
    return collector


def result_to_state(result: SimResult) -> Dict[str, object]:
    """Lossless, JSON-serializable dump of a :class:`SimResult`."""
    return {
        "version": RESULT_STATE_VERSION,
        "config_label": result.config_label,
        "workload": result.workload,
        "runtime_ps": result.runtime_ps,
        "collector": _collector_to_state(result.collector),
        "energy": {
            "network_pj": result.energy.network_pj,
            "interposer_pj": result.energy.interposer_pj,
            "memory_read_pj": result.energy.memory_read_pj,
            "memory_write_pj": result.energy.memory_write_pj,
        },
        "mean_distance": result.mean_distance,
        "max_distance": result.max_distance,
        "stalled_reads": result.stalled_reads,
        "burst_mode_toggles": result.burst_mode_toggles,
        "events_processed": result.events_processed,
        "requests_failed": result.requests_failed,
        "requests_served": result.requests_served,
        "extra": dict(result.extra),
    }


def result_from_state(state: Dict[str, object]) -> SimResult:
    """Rebuild a :class:`SimResult` from :func:`result_to_state` output."""
    version = state.get("version")
    if version != RESULT_STATE_VERSION:
        raise ValueError(
            f"result state version {version!r} != {RESULT_STATE_VERSION}"
        )
    energy = state["energy"]
    return SimResult(
        config_label=state["config_label"],
        workload=state["workload"],
        runtime_ps=state["runtime_ps"],
        collector=_collector_from_state(state["collector"]),
        energy=EnergyReport(
            network_pj=energy["network_pj"],
            interposer_pj=energy["interposer_pj"],
            memory_read_pj=energy["memory_read_pj"],
            memory_write_pj=energy["memory_write_pj"],
        ),
        mean_distance=state["mean_distance"],
        max_distance=state["max_distance"],
        stalled_reads=state["stalled_reads"],
        burst_mode_toggles=state["burst_mode_toggles"],
        events_processed=state["events_processed"],
        requests_failed=state.get("requests_failed", 0),
        requests_served=state.get("requests_served", 0),
        extra=dict(state["extra"]),
    )


def result_digest(result: SimResult) -> str:
    """Stable content hash of a result's full state.

    Two runs that produced bit-identical aggregates hash identically, so
    this is the equality check used by the serial/parallel/cached
    determinism tests.
    """
    payload = json.dumps(
        result_to_state(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_results(
    results: List[SimResult], path: Union[str, Path], indent: int = 2
) -> None:
    """Write a list of results as a JSON array."""
    payload = [result_to_dict(result) for result in results]
    Path(path).write_text(json.dumps(payload, indent=indent) + "\n")


def load_results(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load previously saved result dictionaries (data, not SimResults)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list):
        raise ValueError(f"{path}: expected a JSON array of results")
    return payload


def compare_summary(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> Dict[str, float]:
    """Headline deltas between two saved results (same workload)."""
    if baseline["workload"] != candidate["workload"]:
        raise ValueError("results compare different workloads")
    speedup = baseline["runtime_ps"] / candidate["runtime_ps"] - 1.0
    base_energy = baseline["energy_pj"]["total"] or 1.0
    return {
        "speedup_percent": speedup * 100.0,
        "latency_delta_ns": (
            candidate["latency"]["total_ns"] - baseline["latency"]["total_ns"]
        ),
        "energy_ratio": candidate["energy_pj"]["total"] / base_energy,
    }
