"""Command-line entry point: ``python -m repro.experiments <id>``."""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from typing import List, Optional

from repro.config import SystemConfig
from repro.experiments.registry import experiment_ids, get_experiment
from repro.runner import configure_runner
from repro.workloads import get_workload


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig04), or 'all', or 'list'",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=2000,
        help="memory requests simulated per run (default 2000)",
    )
    parser.add_argument(
        "--workloads",
        default="",
        help="comma-separated subset of workloads (default: all eight)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="simulation worker processes (default 1)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="largest fleet size for fleet experiments (ignored by "
        "experiments that take no 'shards' parameter)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="disk result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the disk result cache (in-memory memoization stays on)",
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help="enable per-hop latency attribution on every run (distinct "
        "cache entries from unobserved runs)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="record event traces into DIR (implies --obs; traces are "
        "written only by runs that actually simulate, not cache hits)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="run every simulation with invariant audits on (repro.check; "
        "exported as REPRO_AUDIT=1 so worker processes audit too — "
        "results and cache entries are unchanged)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        nargs="?",
        const="",
        default=None,
        help="run under cProfile; prints the hottest functions and, with "
        "a PATH, dumps the raw pstats file there (forces --jobs 1 — "
        "worker processes would escape the profiler)",
    )
    args = parser.parse_args(argv)

    if args.audit:
        os.environ["REPRO_AUDIT"] = "1"

    if args.experiment == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0

    workloads = None
    if args.workloads:
        workloads = [get_workload(name) for name in args.workloads.split(",")]

    base_config = None
    if args.obs or args.trace:
        base_config = SystemConfig().with_obs(
            attribution=True,
            trace=args.trace is not None,
            trace_dir=args.trace,
        )

    jobs = args.jobs
    if args.profile is not None and jobs != 1:
        print("--profile forces --jobs 1 (cProfile cannot see worker "
              "processes)", file=sys.stderr)
        jobs = 1
    runner = configure_runner(
        jobs=jobs,
        cache_dir=args.cache_dir,
        persistent=not args.no_cache,
    )

    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()

    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    for experiment_id in ids:
        run = get_experiment(experiment_id)
        started = time.time()
        simulated_before = runner.simulations_run
        kwargs = {
            "requests": args.requests,
            "workloads": workloads,
            "base_config": base_config,
        }
        # Experiment-specific knobs only reach experiments that declare
        # the matching parameter (e.g. --shards -> fleet_scale).
        if args.shards is not None:
            if "shards" in inspect.signature(run).parameters:
                kwargs["shards"] = args.shards
        if profiler is not None:
            profiler.enable()
        output = run(**kwargs)
        if profiler is not None:
            profiler.disable()
        elapsed = time.time() - started
        simulated = runner.simulations_run - simulated_before
        print(output.text)
        if output.notes:
            print()
            print(f"Note: {output.notes}")
        print(
            f"[{experiment_id} completed in {elapsed:.1f}s — "
            f"{simulated} simulations run, jobs={runner.jobs}, "
            f"{runner.cache.describe()}]"
        )
        print()

    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stdout)
        if args.profile:
            stats.dump_stats(args.profile)
            print(f"raw profile written to {args.profile}")
        stats.sort_stats("tottime").print_stats(25)
    return 0


if __name__ == "__main__":
    sys.exit(main())
