"""Benchmark the simulation core: events/second through the hot path.

Runs one fig10-style configuration (chain topology, 1 TiB, KMEANS) and
measures engine throughput with observability off (the
zero-overhead-when-off baseline), per-hop latency ``attribution``,
1-in-8 ``sampled`` attribution (``attribution_sample=8``), and full
event ``trace`` recording.

Cells are measured in interleaved rounds (round-robin over every cell
per repeat) so machine-load drift biases no single cell, and each cell
reports the best round (events/second is a throughput: the
minimum-noise run is the honest one on a shared machine).  Overheads
are the median over rounds of each cell against the obs-off cell of
the same round: a shared machine's speed drifts by tens of percent
between rounds, and a ratio of two best rounds taken from different
moments inherits that drift, while cells of one round run back to
back.

Results land in ``BENCH_engine.json`` together with the number of
packets built and a timestamped ``trend`` list that accumulates
one entry per benchmark run so regressions are visible across commits.
Rates keep their ``heap_`` key prefix so new entries line up with the
earlier ones in the trend.  The CI smoke step asserts a tolerant floor
on the obs-off cell and ceilings on the sampled-attribution and traced
overheads.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--requests N]
        [--repeats N] [--output PATH] [--history N]
        [--min-events-per-s FLOOR] [--max-sampled-overhead FRACTION]
        [--max-trace-overhead FRACTION]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.config import SystemConfig
from repro.serialization import result_digest
from repro.system import MemoryNetworkSystem
from repro.units import TIB_BYTES
from repro.workloads import get_workload

DEFAULT_REQUESTS = 1200
WORKLOAD = "KMEANS"
BASE = SystemConfig(total_capacity_bytes=TIB_BYTES)


def run_cell(requests: int, config: SystemConfig):
    """One timed run; returns (rate, result, system)."""
    system = MemoryNetworkSystem(config, get_workload(WORKLOAD), requests=requests)
    started = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - started
    rate = result.events_processed / elapsed if elapsed else 0.0
    return rate, result, system


def load_trend(path: Path) -> list:
    """Prior trend entries from an existing BENCH_engine.json, if any."""
    try:
        previous = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    trend = previous.get("trend")
    if isinstance(trend, list):
        return trend
    # Pre-trend payloads: fold the old headline numbers into one entry.
    if isinstance(previous.get("events_per_s"), dict):
        return [{
            "timestamp": None,
            "requests": previous.get("requests"),
            "events_per_s": previous["events_per_s"],
        }]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
    )
    parser.add_argument(
        "--history",
        type=int,
        default=50,
        help="trend entries retained in the output file (keeps the "
        "checked-in payload from growing without bound)",
    )
    parser.add_argument(
        "--min-events-per-s",
        type=float,
        default=None,
        help="fail (exit 1) if the obs-off rate falls below this floor — "
        "the CI perf gate",
    )
    parser.add_argument(
        "--max-sampled-overhead",
        type=float,
        default=None,
        help="fail (exit 1) if the 1-in-8 sampled attribution overhead "
        "exceeds this fraction (CI uses 0.10)",
    )
    parser.add_argument(
        "--max-trace-overhead",
        type=float,
        default=None,
        help="fail (exit 1) if the traced cell's overhead (attribution "
        "plus full tracing) exceeds this fraction",
    )
    args = parser.parse_args(argv)
    if args.history < 1:
        parser.error("--history must be at least 1")

    configs = [
        ("off", BASE),
        ("attribution", BASE.with_obs(attribution=True)),
        ("sampled", BASE.with_obs(attribution=True, attribution_sample=8)),
        ("traced", BASE.with_obs(attribution=True, trace=True)),
    ]

    print(
        f"bench_engine: {WORKLOAD} x requests={args.requests}, "
        f"best of {args.repeats} interleaved rounds",
        flush=True,
    )
    round_rates = {label: [] for label, _ in configs}
    digest = events = packets = None
    for _round in range(args.repeats):
        for obs_label, config in configs:
            rate, result, system = run_cell(args.requests, config)
            round_rates[obs_label].append(rate)
            if obs_label == "off":
                digest = result_digest(result)
                events = result.events_processed
                packets = system.packet_pool.acquired
    rates = {
        f"heap_{label}": round(max(per_round))
        for label, per_round in round_rates.items()
    }
    for obs_label, _config in configs:
        print(f"  {obs_label:11s}: {rates[f'heap_{obs_label}'] / 1e3:7.0f}k events/s")
    print(f"  result digest    : {digest[:16]} ({events} events)")
    print(f"  packets built    : {packets}")

    def overhead(obs_label: str):
        paired = [
            1 - rate / base
            for rate, base in zip(round_rates[obs_label], round_rates["off"])
            if base
        ]
        if not paired:
            return None
        return round(statistics.median(paired), 3)

    output = Path(args.output)
    payload = {
        "workload": WORKLOAD,
        "requests": args.requests,
        "repeats": args.repeats,
        "cpus": os.cpu_count(),
        "events_processed": events,
        "result_digest": digest,
        "events_per_s": rates,
        "attribution_overhead": overhead("attribution"),
        "sampled_attribution_overhead": overhead("sampled"),
        "trace_overhead": overhead("traced"),
        "packet_pool": {"acquired": packets},
        "trend": (load_trend(output) + [{
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "requests": args.requests,
            "events_per_s": rates,
        }])[-args.history:],
    }
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    if args.min_events_per_s is not None:
        rate = rates["heap_off"]
        if rate < args.min_events_per_s:
            print(
                f"FAIL: obs-off {rate} events/s below the floor of "
                f"{args.min_events_per_s:g}",
                file=sys.stderr,
            )
            return 1
        print(
            f"  perf gate        : obs-off {rate} >= "
            f"{args.min_events_per_s:g} events/s OK"
        )
    for obs_label, ceiling, what in (
        ("sampled", args.max_sampled_overhead, "sampled attribution"),
        ("traced", args.max_trace_overhead, "traced"),
    ):
        if ceiling is None:
            continue
        value = overhead(obs_label)
        if value is None or value > ceiling:
            print(
                f"FAIL: {what} overhead {value} above the {ceiling:g} ceiling",
                file=sys.stderr,
            )
            return 1
        print(f"  obs gate         : {what} overhead {value:.3f} <= {ceiling:g} OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
