"""Host-cost benchmark of the simulator: one workload, one seed.

Usage (from the repository root)::

    python3 hostbench/run.py --workload paper_grid --seed 20170624 \\
        --seconds 25 --trace 0

``--trace 0`` runs set-up 3 to 15 times, then repeats the workload's
units for ``--seconds`` seconds, and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs set-up once and three full
passes (one with timing probes only, two under cProfile) and reports the
per-layer metrics.  ``--smoke`` shrinks every workload to a few seconds
and skips the pinned-digest check.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any job failed or any digest disagreed.  See
``hostbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
TMP_ROOT = ROOT / ".hostbench_tmp"

#: Workloads and metrics, with their units: the one declaration of them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Set-up repetitions of a measured run: at least ``SETUP_REPEATS``, and
#: more while under ``SETUP_BUDGET_S`` seconds in all, up to
#: ``SETUP_MAX_REPEATS``; ``setup_s`` is their median.  A set-up of a
#: fraction of a second moves a lot between runs, so cheap set-ups are
#: repeated more.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_BUDGET_S = 5.0

#: Repetitions of each unit per measured run at the least (run-to-run
#: digest agreement needs two).
MIN_REPEATS = 2


def force_environment(tmp: Path) -> Dict[str, object]:
    """Clear ``REPRO_*`` and point every default temp/cache location at
    the run's private directory.  Returns what was forced."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    forced = {"TMPDIR": str(tmp), "XDG_CACHE_HOME": str(tmp / "xdg-cache")}
    os.environ.update(forced)
    tempfile.tempdir = None  # re-read TMPDIR on next use
    return {"cleared": cleared, "set": forced}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def cpu_seconds() -> float:
    """Host CPU of this process and its reaped children, at clock resolution."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def source_digest() -> str:
    """Digest of the simulator sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def child_pids() -> List[int]:
    """Processes whose parent is this one, reaped or not."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The field after the parenthesised command name is the state,
        # then the parent pid.
        if int(stat.rpartition(")")[2].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Stop and reap every process the run started, so none outlives it:
    pool workers terminated but not yet joined, the ``multiprocessing``
    resource tracker if anything started it, and any other child."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()  # private: no public stop
    if not Path("/proc").is_dir():
        return
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def git_commit() -> object:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


class Checker:
    """Counts failed jobs and digest disagreements across a run.

    Each unit's digest must agree between repetitions; the aggregate of
    the first repetition of every unit is compared with the pin.
    """

    def __init__(self, pin: str) -> None:
        self.pin = pin
        self.attempted = 0
        self.failed = 0
        self.first: Dict[int, str] = {}
        self.parts: Dict[int, List[str]] = {}
        self.digest = ""
        self.notes: List[str] = []

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)

    def check_unit(self, workload, index: int, outcome, results: list) -> None:
        from suite import aggregate_digest, fleet_digest
        from repro.serialization import result_digest

        self.attempted += outcome.jobs
        if outcome.failures:
            self.fail(outcome.failures, f"{outcome.failures} job(s) failed")
        if outcome.fleets is not None:
            parts = [fleet_digest(outcome.fleets)]
            if outcome.simulations:
                self.fail(outcome.simulations,
                          f"warm replay simulated {outcome.simulations} job(s)")
            if parts[0] != workload.cold_digest:
                self.fail(1, "warm replay digest differs from the cold pass")
        else:
            parts = [result_digest(result) for result in results]
        digest = aggregate_digest(parts)
        if index not in self.first:
            self.first[index] = digest
            self.parts[index] = parts
        elif digest != self.first[index]:
            self.fail(1, f"unit {index}: digest {digest[:12]} != first run "
                         f"{self.first[index][:12]}")

    def finish(self, units: int) -> None:
        from suite import aggregate_digest

        if len(self.parts) < units:
            self.fail(1, f"only {len(self.parts)} of {units} units ran")
            return
        self.digest = aggregate_digest([d for part in self.parts.values() for d in part])
        if self.pin and self.digest != self.pin:
            self.fail(1, f"digest {self.digest[:12]} != pinned {self.pin[:12]}")


def oracle_check(workload, checker: Checker) -> None:
    """One job of the workload under the heap oracle and the ambient engine."""
    from repro.runner import execute_job
    from repro.serialization import result_digest
    from repro.sim.engine import Engine
    from repro.system import MemoryNetworkSystem

    job = workload.oracle_job()
    oracle = MemoryNetworkSystem(job.config, job.workload, requests=job.requests,
                                 engine=Engine("heap")).run()
    if result_digest(oracle) != result_digest(execute_job(job)):
        checker.fail(1, f"ambient engine disagrees with the heap oracle on {job.label()}")


def set_up(workload, checker: Checker):
    start = perf_counter()
    oracle_check(workload, checker)
    state = workload.setup()
    return state, perf_counter() - start


class UnitRun:
    """One timed unit: its outcome, the results it simulated, its cost."""

    def __init__(self, workload, state, index: int, probe) -> None:
        first = len(probe.results)
        cpu = cpu_seconds()
        start = perf_counter()
        self.outcome = workload.run_unit(state, workload.units[index])
        self.wall = perf_counter() - start
        self.cpu = cpu_seconds() - cpu
        self.index = index
        self.results = probe.results[first:]

    @property
    def events(self) -> int:
        if self.outcome.fleets is not None:
            return sum(result.total.events for result in self.outcome.fleets)
        return sum(result.events_processed for result in self.results)


def job_samples(outcome, probe) -> List[float]:
    """Host seconds per resolved job: a simulation, or a disk-cache hit."""
    key = "cache.hit" if outcome.fleets is not None else "execute"
    return probe.samples[key]


def measure(workload, checker: Checker, seconds: float, reference) -> Dict[str, float]:
    """Set up, then run the units in turn until ``seconds`` have passed
    (at least ``MIN_REPEATS`` times each).

    A pass's wall time is the sum over units of each unit's median; a
    job's time is its median over repetitions.  Every time is then
    normalised by the reference loop timed before each set-up and unit
    (:mod:`reference`), so that other tenants' load on the host moves
    the figures less; the raw figures are printed too.
    """
    from probes import Probe
    from reference import NOMINAL_S

    refs, setups = [], []
    while len(setups) < SETUP_REPEATS or (
        len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_BUDGET_S
    ):
        refs.append(reference.time())
        state, elapsed = set_up(workload, checker)
        setups.append(elapsed)
    count = len(workload.units)
    walls: List[List[float]] = [[] for _ in range(count)]
    cpus: List[List[float]] = [[] for _ in range(count)]
    job_times: List[List[List[float]]] = [[] for _ in range(count)]
    events, jobs = [0] * count, [0] * count
    start = perf_counter()
    runs = 0
    while runs < MIN_REPEATS * count or perf_counter() - start < seconds:
        index = runs % count
        gc.collect()
        refs.append(reference.time())
        with Probe() as probe:
            unit = UnitRun(workload, state, index, probe)
        checker.check_unit(workload, index, unit.outcome, unit.results)
        walls[index].append(unit.wall)
        cpus[index].append(unit.cpu)
        job_times[index].append(job_samples(unit.outcome, probe))
        events[index], jobs[index] = unit.events, unit.outcome.jobs
        runs += 1
    checker.finish(count)
    scale = NOMINAL_S / statistics.median(refs)
    # Jobs run in the same order on every repetition of a unit.
    job_s = [statistics.median(times) * scale
             for reps in job_times for times in zip(*reps)]
    raw_wall = sum(statistics.median(times) for times in walls)
    wall = raw_wall * scale
    tail = max(0.0, 1.0 - 10.0 / len(job_s))
    print(f"host speed: reference loop median {statistics.median(refs) * 1e3:.2f} ms "
          f"over {len(refs)} runs; times below are scaled by {scale:.4f}")
    print(f"raw setup_s {statistics.median(setups):.6g} raw wall_s {raw_wall:.6g}")
    for index, times in enumerate(walls):
        print(f"unit {index}: {len(times)} runs, raw median {statistics.median(times):.4f} s")
    print(f"jobs: {len(job_s)}; job time p50 {percentile(job_s, 0.50) * 1e3:.3f} ms, "
          f"p90 {percentile(job_s, 0.90) * 1e3:.3f} ms, "
          f"p{100 * tail:.1f} (highest with >=10 beyond) "
          f"{percentile(job_s, tail) * 1e3:.3f} ms")
    return {
        "setup_s": statistics.median(setups) * scale,
        "wall_s": wall,
        "cpu_s": sum(statistics.median(times) for times in cpus) * scale,
        "events_per_s": sum(events) / wall,
        "jobs_per_s": sum(jobs) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def exact_counts(jobs: int, probe, calls: Dict[str, int]) -> Dict[str, float]:
    """The traced pass's counts that must repeat bit-for-bit; per
    simulated request, or per resolved job when nothing simulated."""
    from probes import LAYERS

    per = probe.requests or jobs
    counts = {f"{layer}.calls_per_req": calls[layer] / per for layer in LAYERS}
    counts["engine.events_per_req"] = (
        probe.events / probe.requests if probe.requests else 0.0
    )
    counts["pool.recycle_ratio"] = (
        probe.packets_recycled / probe.packets_acquired
        if probe.packets_acquired else 0.0
    )
    counts["job.digest_calls_per_job"] = probe.calls.get("job.digest", 0) / jobs
    gets = probe.calls.get("cache.get", 0)
    counts["cache.hit_ratio"] = probe.cache_hits / gets if gets else 0.0
    return counts


def trace(workload, checker: Checker, reference) -> Dict[str, float]:
    import cProfile
    import pstats

    from probes import LAYERS, Probe, layer_rollup
    from reference import NOMINAL_S

    refs = [reference.time()]
    setup_probe = Probe(full=True)
    with setup_probe:
        state, _elapsed = set_up(workload, checker)

    def full_pass(probe, profiler=None):
        gc.collect()
        refs.append(reference.time())
        with probe:
            start = perf_counter()
            if profiler is not None:
                profiler.enable()
            units = [UnitRun(workload, state, index, probe)
                     for index in range(len(workload.units))]
            if profiler is not None:
                gc.collect()
                profiler.disable()
            wall = perf_counter() - start
        for unit in units:
            checker.check_unit(workload, unit.index, unit.outcome, unit.results)
        return sum(unit.outcome.jobs for unit in units), wall

    probed = Probe(full=True)
    _jobs, untraced_wall = full_pass(probed)
    traced_walls, runs, self_s, total = [], [], dict.fromkeys(LAYERS, 0.0), 0.0
    for _ in range(2):
        probe, profiler = Probe(full=True), cProfile.Profile()
        jobs, wall = full_pass(probe, profiler)
        traced_walls.append(wall)
        layer_self, layer_calls, pass_total = layer_rollup(pstats.Stats(profiler))
        for layer in LAYERS:
            self_s[layer] += layer_self[layer]
        total += pass_total
        runs.append(exact_counts(jobs, probe, layer_calls))
    checker.finish(len(workload.units))
    if runs[0] != runs[1]:
        differing = sorted(k for k in runs[0] if runs[0][k] != runs[1][k])
        checker.fail(1, f"exact counts differ between traced runs: {differing}")

    metrics = {f"{layer}.self_share": self_s[layer] / total for layer in LAYERS}
    metrics.update(runs[0])
    writes = Probe(full=True)
    for probe in (setup_probe, probed):
        for key in ("cache.put", "encode"):
            writes.calls[key] += probe.calls.get(key, 0)
            writes.seconds[key] += probe.seconds.get(key, 0.0)
    scale = NOMINAL_S / statistics.median(refs)
    print(f"host speed: reference loop median {statistics.median(refs) * 1e3:.2f} ms; "
          f"probe times below are scaled by {scale:.4f}")
    metrics.update({
        "system.build_ms": probed.mean("system.build", 1e3 * scale),
        "runner.dispatch_share": probed.dispatch_share(),
        "job.digest_us": probed.mean("job.digest", 1e6 * scale),
        "cache.get_ms": probed.mean("cache.get", 1e3 * scale),
        "serialization.decode_ms": probed.mean("decode", 1e3 * scale),
        "cache.put_ms": writes.mean("cache.put", 1e3 * scale),
        "serialization.encode_ms": writes.mean("encode", 1e3 * scale),
        "fleet.fold_us": probed.mean("fleet.fold", 1e6 * scale),
        "trace.overhead": statistics.mean(traced_walls) / untraced_wall - 1.0,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned seed of record)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time per run (units repeat until it elapses)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal sizes, no pinned-digest check")
    args = parser.parse_args(argv)

    # Only the checkout's own sources count, never an installed copy.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    forced = force_environment(tmp)

    from reference import Reference

    # A plain SIGTERM would skip the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        with Reference() as reference:
            return run(args, forced, reference)
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def run(args, forced, reference) -> int:
    from suite import DEFAULT_SEED, PINS, WORKLOADS
    from repro.sim.engine import Engine

    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload](seed, smoke=args.smoke)
    pinned = seed == DEFAULT_SEED and not args.smoke
    checker = Checker(PINS[args.workload] if pinned else "")
    provenance = {
        "workload": args.workload,
        "seed": seed,
        "checked_against": "pin" if pinned else "run-to-run agreement",
        "size": workload.size,
        "scheduler": Engine().scheduler,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_digest": source_digest(),
        "environment": forced,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    try:
        if args.trace:
            metrics = trace(workload, checker, reference)
        else:
            metrics = measure(workload, checker, args.seconds, reference)
    finally:
        workload.close()
    declared = {m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != declared:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ declared)}")

    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {UNITS[name]}")
    print(f"  {'failed_ratio':<34} {checker.failed / max(checker.attempted, 1):>16.6g} 1")
    print(f"digest {checker.digest or '-'}")
    for note in checker.notes:
        print(f"FAILED: {note}")
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
