"""Fig 5 — breakdown of memory request latency (to / in / from memory).

Paper shape: network latency dominates the memory-array latency under
load; to-memory exceeds from-memory (responses are prioritized on the
shared links, so requests queue); NW — the lightest workload — shows
the largest in-memory share.

This experiment forces per-hop latency attribution on
(``config.obs.attribution``), so the three-way split is *derived* from
the N-way segment taxonomy (``repro.obs.attribution``) rather than read
off the transaction timestamps — the two agree exactly, which the
``tests/test_obs.py`` consistency tests pin down.  The per-segment
tables additionally expose tail percentiles (p50/p95/p99) per hop
class, which the timestamp split cannot provide.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis import render_table
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    ExperimentOutput,
    base_system,
    grid_jobs,
    suite,
)
from repro.obs.attribution import segment_table_rows, three_way_ns
from repro.results import SimResult
from repro.runner import get_runner
from repro.sim.stats import Histogram
from repro.workloads import WorkloadSpec

LABELS = ["100%-C", "100%-R", "100%-T"]


def _merge_segments(results: Sequence[SimResult]) -> Dict[str, Histogram]:
    """Cross-workload merge of per-segment histograms for one config."""
    merged: Dict[str, Histogram] = {}
    for result in results:
        for label, hist in result.collector.segments.items():
            into = merged.get(label)
            if into is None:
                into = merged[label] = Histogram(
                    hist.bucket_width, hist.num_buckets
                )
            into.merge(hist)
    return merged


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config).with_obs(attribution=True)
    specs = suite(workloads)
    configs = {label: parse_label(label, base) for label in LABELS}
    results = get_runner().run_keyed(grid_jobs(configs, specs, requests))
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, Dict[str, float]]] = {}
    per_label: Dict[str, List[SimResult]] = {label: [] for label in LABELS}
    for workload in specs:
        row_results = [results[label, workload.name] for label in LABELS]
        chain_total = row_results[0].collector.all.total_ns or 1.0
        data[workload.name] = {}
        for result in row_results:
            per_label[result.config_label].append(result)
            split = three_way_ns(result.collector.segments, result.transactions)
            total_ns = sum(split.values())
            data[workload.name][result.config_label] = dict(
                split,
                relative_to_chain=total_ns / chain_total,
                p95_ns=result.p95_latency_ns,
                p99_ns=result.p99_latency_ns,
            )
            rows.append(
                [
                    f"{workload.name}/{result.config_label}",
                    f"{split['to_memory']:.1f}",
                    f"{split['in_memory']:.1f}",
                    f"{split['from_memory']:.1f}",
                    f"{result.p95_latency_ns:.0f}",
                    f"{result.p99_latency_ns:.0f}",
                    f"{total_ns / chain_total:.2f}",
                ]
            )
    text = render_table(
        [
            "workload/config",
            "to-mem (ns)",
            "in-mem (ns)",
            "from-mem (ns)",
            "p95",
            "p99",
            "rel. chain",
        ],
        rows,
        title="Fig 5: latency breakdown of DRAM MNs, normalized to chain total",
    )
    sections = [text]
    for label in LABELS:
        results = per_label[label]
        segments = _merge_segments(results)
        transactions = sum(result.transactions for result in results)
        sections.append(
            render_table(
                ["segment", "ns/txn", "mean", "p50", "p95", "p99"],
                segment_table_rows(segments, transactions),
                title=f"{label}: per-hop attribution, all workloads "
                "(* = percentile clamped to observed max)",
            )
        )
    return ExperimentOutput(
        experiment_id="fig05",
        title="Breakdown of memory request latency in DRAM MNs",
        text="\n\n".join(sections),
        data={"breakdown": data},
        notes=(
            "Expected shape (paper): network latency (to+from) exceeds the "
            "in-memory latency under load; to-memory > from-memory; NW has "
            "the highest in-memory share.  The three-way split here is "
            "derived from per-hop segment attribution (repro.obs), not the "
            "transaction timestamps."
        ),
    )
