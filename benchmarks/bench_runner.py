"""Benchmark the runner subsystem: parallel execution + result cache.

Times one multi-point experiment (fig10: 24 config points per workload)
four ways —

* ``serial``        fresh memory cache, ``jobs=1`` (the pre-runner baseline),
* ``parallel``      fresh memory cache, ``jobs=N`` process pool,
* ``cold_cache``    fresh disk cache directory, every point simulated,
* ``warm_cache``    second run against the same directory (zero simulations),

plus a cross-figure pass (fig04 after fig10 against the warm cache, whose
baseline/tree/ring points are already cached) and engine micro-numbers
(events/second with observability off, with latency attribution on, and
with full event tracing on).  Results land in ``BENCH_runner.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_runner.py [--requests N]
        [--jobs N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from repro.config import SystemConfig
from repro.experiments import get_experiment
from repro.runner import ParallelRunner, ResultCache, using_runner
from repro.system import MemoryNetworkSystem
from repro.units import TIB_BYTES
from repro.workloads import get_workload

DEFAULT_REQUESTS = 300
EXPERIMENT = "fig10"
CROSS_EXPERIMENT = "fig04"
WORKLOADS = ("KMEANS", "BACKPROP")
BASE = SystemConfig(total_capacity_bytes=TIB_BYTES)


def timed_run(experiment_id: str, runner: ParallelRunner, requests: int):
    run = get_experiment(experiment_id)
    workloads = [get_workload(name) for name in WORKLOADS]
    before = runner.simulations_run
    started = time.perf_counter()
    with using_runner(runner):
        run(requests=requests, workloads=workloads, base_config=BASE)
    elapsed = time.perf_counter() - started
    return elapsed, runner.simulations_run - before


def engine_events_per_second(requests: int, config: SystemConfig = BASE) -> float:
    system = MemoryNetworkSystem(config, get_workload("KMEANS"), requests=requests)
    started = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - started
    return result.events_processed / elapsed if elapsed else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument(
        "--jobs",
        type=int,
        default=max(2, min(4, os.cpu_count() or 1)),
        help="worker processes for the parallel measurement",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_runner.json"),
    )
    args = parser.parse_args(argv)

    print(
        f"bench_runner: {EXPERIMENT} x {len(WORKLOADS)} workloads, "
        f"requests={args.requests}, cpus={os.cpu_count()}",
        flush=True,
    )

    serial_s, serial_sims = timed_run(
        EXPERIMENT, ParallelRunner(jobs=1), args.requests
    )
    print(f"  serial   (jobs=1): {serial_s:7.1f}s  {serial_sims} simulations")

    parallel_s, parallel_sims = timed_run(
        EXPERIMENT, ParallelRunner(jobs=args.jobs), args.requests
    )
    print(
        f"  parallel (jobs={args.jobs}): {parallel_s:7.1f}s  "
        f"{parallel_sims} simulations"
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        cold_s, cold_sims = timed_run(
            EXPERIMENT,
            ParallelRunner(jobs=1, cache=ResultCache(cache_dir)),
            args.requests,
        )
        print(f"  cold disk cache  : {cold_s:7.1f}s  {cold_sims} simulations")
        warm_s, warm_sims = timed_run(
            EXPERIMENT,
            ParallelRunner(jobs=1, cache=ResultCache(cache_dir)),
            args.requests,
        )
        print(f"  warm disk cache  : {warm_s:7.1f}s  {warm_sims} simulations")
        cross_s, cross_sims = timed_run(
            CROSS_EXPERIMENT,
            ParallelRunner(jobs=1, cache=ResultCache(cache_dir)),
            args.requests,
        )
        print(
            f"  {CROSS_EXPERIMENT} after {EXPERIMENT}: {cross_s:7.1f}s  "
            f"{cross_sims} simulations (cross-figure reuse)"
        )

    events_per_s = engine_events_per_second(args.requests * 4)
    print(f"  engine           : {events_per_s / 1e3:.0f}k events/s")
    # The observability layer must cost nothing when off; these two
    # numbers quantify what turning it on costs (docs/observability.md).
    attributed_per_s = engine_events_per_second(
        args.requests * 4, BASE.with_obs(attribution=True)
    )
    traced_per_s = engine_events_per_second(
        args.requests * 4, BASE.with_obs(attribution=True, trace=True)
    )
    print(f"  engine (attrib)  : {attributed_per_s / 1e3:.0f}k events/s")
    print(f"  engine (traced)  : {traced_per_s / 1e3:.0f}k events/s")

    payload = {
        "experiment": EXPERIMENT,
        "workloads": list(WORKLOADS),
        "requests": args.requests,
        "cpus": os.cpu_count(),
        "jobs": args.jobs,
        "serial_s": round(serial_s, 3),
        "serial_simulations": serial_sims,
        "parallel_s": round(parallel_s, 3),
        "parallel_simulations": parallel_sims,
        "parallel_speedup": round(serial_s / parallel_s, 3) if parallel_s else None,
        "cold_cache_s": round(cold_s, 3),
        "cold_cache_simulations": cold_sims,
        "warm_cache_s": round(warm_s, 3),
        "warm_cache_simulations": warm_sims,
        "warm_cache_speedup": round(cold_s / warm_s, 1) if warm_s else None,
        "cross_experiment": CROSS_EXPERIMENT,
        "cross_experiment_s": round(cross_s, 3),
        "cross_experiment_simulations": cross_sims,
        "engine_events_per_s": round(events_per_s),
        "engine_events_per_s_attribution": round(attributed_per_s),
        "engine_events_per_s_traced": round(traced_per_s),
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
