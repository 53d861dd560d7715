"""The benchmark's three workloads, each built from a seed.

Every workload runs through public entry points only:
``repro.experiments.fig10`` (a :class:`~repro.analysis.SpeedupGrid`),
:class:`~repro.runner.ParallelRunner`, and :func:`repro.fleet.run_fleet`.
A workload has a set-up step (timed as ``setup_s``) and a measured
*pass* made of ``units``, each run by ``run_unit``; :mod:`run` repeats
the units in turn for the requested number of seconds.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.config import SystemConfig, parse_label
from repro.experiments import fig10, fleet_scale
from repro.experiments.base import BASELINE_CONFIGS, suite
from repro.errors import RunnerError
from repro.fleet import FleetConfig, FleetResult, Tenant, run_fleet
from repro.runner import JobFailure, ParallelRunner, ResultCache, SimJob, using_runner
from repro.sim.random import derive_seed
from repro.units import ns
from repro.workloads import PAPER_SUITE

#: Seed of record: results under it are checked against :data:`PINS`.
DEFAULT_SEED = 20170624

#: Held-out seed, never used while tuning; confirm a later speed claim
#: on it as well as on the default.
HELD_OUT_SEED = 1123581321

#: Aggregate result digest of each workload at full size under
#: :data:`DEFAULT_SEED`.  A mismatch counts as a failed run.
PINS = {
    "paper_grid": "2e02b6e38f2ac05892f63720c43d1793879b66cd0f61652e64a11f9de61c6e93",
    "overload_observed": "0fa99dfc8e7f317482c995ddd1054341da185ff3f45283b640ea0eee3470326b",
    "fleet_replay": "55e24f95d82111341e2a00fcb70c7982316255328ed143e8a538280b2ac9121d",
}

#: Simulations the set-up oracle check runs are capped at this length.
ORACLE_REQUESTS = 1000


def aggregate_digest(digests: Sequence[str], ordered: bool = False) -> str:
    """One digest over many; sorted first unless order is meaningful."""
    items = list(digests) if ordered else sorted(digests)
    return hashlib.sha256("\n".join(items).encode("ascii")).hexdigest()


@dataclass
class Pass:
    """What one unit of a measured pass resolved."""

    jobs: int
    failures: int
    simulations: int
    fleets: Optional[List[FleetResult]] = None


class Workload:
    """Defaults for a workload without set-up state to build or free."""

    def setup(self) -> None:
        return None

    def close(self) -> None:
        return None


class PaperGrid(Workload):
    """The full Fig 10 grid: 12 baselines x {round-robin, distance} x
    the 8 closed-loop paper workloads, serial, memory-only cache."""

    name = "paper_grid"

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.base = SystemConfig(seed=seed)
        self.workloads = suite()[:1] if smoke else suite()
        self.requests = 30 if smoke else 200
        # One unit per grid row: all 24 configurations of one workload.
        self.units = self.workloads
        self.size = {"requests": self.requests, "workloads": len(self.workloads),
                     "configs": 2 * len(BASELINE_CONFIGS)}

    def oracle_job(self) -> SimJob:
        config = parse_label(BASELINE_CONFIGS[0], self.base)
        return SimJob(config, self.workloads[0], min(self.requests, ORACLE_REQUESTS))

    def run_unit(self, _state, workload) -> Pass:
        jobs = 2 * len(BASELINE_CONFIGS)
        runner = ParallelRunner(jobs=1)
        try:
            with using_runner(runner):
                fig10.run(self.requests, [workload], self.base)
        except RunnerError:
            return Pass(jobs, 1, runner.simulations_run)
        return Pass(jobs, 0, runner.simulations_run)


class OverloadObserved(Workload):
    """Open-loop Poisson runs of BACKPROP past the saturation knee, with
    deadlines, one retry, shedding, 5% p2p copies, full attribution and
    ring tracing (no dump)."""

    name = "overload_observed"
    LABEL = "50%-SL (NVM-L)"
    LOAD_FACTORS = (1.0, 1.5, 2.0)
    #: Runs per load factor, each under its own derived seed (one per
    #: rate and run, so no two runs share an arrival stream).  Past the
    #: knee a run's work depends on its arrival draws: between seeds, the
    #: quartile spread of a run's events is 7-9% at 6,000 requests and
    #: 17-21% at 3,000.  Several runs average that out while keeping
    #: each unit short enough to time against the reference loop.
    RUNS_PER_FACTOR = 3

    def __init__(self, seed: int, smoke: bool = False) -> None:
        workload = PAPER_SUITE["BACKPROP"]
        factors = self.LOAD_FACTORS[-1:] if smoke else self.LOAD_FACTORS
        runs = 1 if smoke else self.RUNS_PER_FACTOR
        requests = 300 if smoke else 6000
        self.units = [
            SimJob(
                parse_label(self.LABEL, SystemConfig(
                    seed=derive_seed(seed, "overload", f"{factor}/{run}")))
                .with_overload(deadline_ps=ns(1000), max_retries=1,
                               shed_high=512, shed_low=256)
                .with_obs(attribution=True, trace=True),
                replace(workload, arrival="poisson", p2p_fraction=0.05,
                        mean_gap_ns=workload.mean_gap_ns / factor),
                requests,
            )
            for factor in factors
            for run in range(runs)
        ]
        self.size = {"requests": requests, "load_factors": list(factors),
                     "runs_per_factor": runs}

    def oracle_job(self) -> SimJob:
        job = self.units[-1]
        return replace(job, requests=min(job.requests, ORACLE_REQUESTS))

    def run_unit(self, _state, job: SimJob) -> Pass:
        runner = ParallelRunner(jobs=1)
        rows = runner.run([job], on_error="collect")
        failures = sum(isinstance(row, JobFailure) for row in rows)
        return Pass(1, failures, runner.simulations_run)


class FleetReplay(Workload):
    """The ``fleet_scale`` sweep at 64 shards: set-up simulates it cold
    into a fresh disk cache with 2 workers; a pass replays it warm in a
    fresh runner (empty memory layer), simulating nothing."""

    name = "fleet_replay"
    SETUP_WORKERS = 2

    def __init__(self, seed: int, smoke: bool = False) -> None:
        base = SystemConfig(seed=seed)
        workload = suite()[0]
        shards = 4 if smoke else 64
        requests = 20 if smoke else 100
        counts = sorted({c for c in fleet_scale.SHARD_COUNTS if c < shards} | {shards})

        def fleet(configs, tenant: Tenant) -> FleetConfig:
            return FleetConfig(shards=configs, workload=workload, tenants=(tenant,),
                               requests_per_shard=requests, seed=seed)

        # Mirrors fleet_scale.run, which ignores base_config.seed for
        # the fleets themselves; here FleetConfig.seed carries it.
        # The sweep's staggered-cube-failure leg is left out: under some
        # seeds a tree shard that loses cube 1 raises RoutingError
        # ("no route to cube 13", seed 108), and a benchmark run must
        # not fail.  Replay cost does not depend on fault plans.
        self.fleets = [
            fleet(fleet_scale.fleet_shards(count, base),
                  Tenant(leg, skew=skew, rate_scale=rate))
            for leg, rate, skew in fleet_scale.LEGS
            for count in counts
        ]
        # The whole sweep is one unit: a warm replay takes ~0.25 s.
        self.units = [self.fleets]
        self.cache_dir: Optional[str] = None
        self.cold_digest: Optional[str] = None
        self.size = {"shards": shards, "requests_per_shard": requests,
                     "fleets": len(self.fleets),
                     "resolutions": sum(f.num_shards for f in self.fleets)}

    def setup(self) -> str:
        """Cold pass into a fresh disk cache; returns the cache dir."""
        self.close()
        self.cache_dir = tempfile.mkdtemp(prefix="fleet-cache-")
        runner = ParallelRunner(jobs=self.SETUP_WORKERS,
                                cache=ResultCache(self.cache_dir))
        results = [run_fleet(fleet, runner=runner) for fleet in self.fleets]
        self.cold_digest = fleet_digest(results)
        return self.cache_dir

    def oracle_job(self) -> SimJob:
        return self.fleets[0].compile()[0]

    def run_unit(self, cache_dir: str, fleets: List[FleetConfig]) -> Pass:
        runner = ParallelRunner(jobs=1, cache=ResultCache(cache_dir))
        results = [run_fleet(fleet, runner=runner, on_error="collect")
                   for fleet in fleets]
        failures = sum(len(result.failures) for result in results)
        return Pass(sum(f.num_shards for f in fleets), failures,
                    runner.simulations_run, results)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None


def fleet_digest(results: Sequence[FleetResult]) -> str:
    return aggregate_digest([result.digest() for result in results], ordered=True)


WORKLOADS = {cls.name: cls for cls in (PaperGrid, OverloadObserved, FleetReplay)}
