"""Sharding-equivalence suite for the fleet layer (``repro.fleet``).

The fleet determinism contract, pinned end to end:

* a fleet of identical shards is, shard for shard, digest-identical to
  N independent single-MN runs under the derived per-shard seeds;
* streaming fold == batch fold, in any order;
* ``jobs=1`` and ``jobs=4`` produce bit-identical ``FleetResult``s;
* warm-cache replays cost zero simulations and reproduce the digest;
* per-shard seeds are pairwise disjoint;
* folding keeps peak resident per-shard detail bounded (independent of
  shard count) when a persistent cache holds the warm copies;
* empty tenants/shards cannot poison fleet percentiles, and mismatched
  histogram shapes fail loudly with :class:`HistogramShapeError`.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import fast_workload, small_config
from repro.check import audits, check_fleet_conservation
from repro.config import HostConfig
from repro.errors import ConfigError, InvariantViolation
from repro.fleet import (
    FleetConfig,
    FleetResult,
    Tenant,
    TenantAggregate,
    run_fleet,
    uniform_fleet,
)
from repro.runner import ParallelRunner, ResultCache, SimJob
from repro.serialization import result_digest
from repro.sim.random import derive_seed
from repro.sim.stats import Histogram, HistogramShapeError, TailAccumulator

REQUESTS = 30


def small_fleet(num_shards=4, tenants=None, **config_overrides) -> FleetConfig:
    kwargs = {} if tenants is None else {"tenants": tenants}
    return uniform_fleet(
        num_shards,
        small_config(**config_overrides),
        fast_workload(),
        requests_per_shard=REQUESTS,
        **kwargs,
    )


def hetero_fleet(num_shards=8, **kwargs) -> FleetConfig:
    """Shards cycling through three topologies (and a mixed tech)."""
    mix = (
        small_config(topology="chain"),
        small_config(topology="skiplist"),
        small_config(topology="metacube", dram_fraction=0.5),
    )
    shards = tuple(mix[i % len(mix)] for i in range(num_shards))
    return FleetConfig(
        shards=shards,
        workload=fast_workload(),
        requests_per_shard=REQUESTS,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Sharding equivalence
# ---------------------------------------------------------------------------
class TestShardingEquivalence:
    def test_identical_shard_fleet_equals_independent_runs(self):
        """Fleet(N identical shards) == N independent single-MN runs."""
        fleet = small_fleet(3)
        runner = ParallelRunner(jobs=1)
        streamed = run_fleet(fleet, runner=runner)

        independent = FleetResult(fleet)
        solo = ParallelRunner(jobs=1)
        for shard in range(fleet.num_shards):
            job = SimJob(
                config=replace(
                    small_config(), seed=derive_seed(fleet.seed, "fleet", str(shard))
                ),
                workload=fast_workload(),
                requests=REQUESTS,
            )
            independent.fold(shard, "default", solo.run_one(job))
        assert independent.digest() == streamed.digest()

    def test_default_tenant_is_digest_transparent(self):
        """A single default tenant compiles to exactly the base workload."""
        fleet = small_fleet(2)
        jobs = fleet.compile()
        for job in jobs:
            assert job.workload is fleet.workload
        plain = SimJob(
            config=replace(small_config(), seed=fleet.shard_seed(0)),
            workload=fast_workload(),
            requests=REQUESTS,
        )
        assert jobs[0].digest() == plain.digest()

    def test_streaming_fold_equals_batch_fold(self):
        """Folding in completion order == folding a batch in any order."""
        fleet = hetero_fleet(6)
        streamed = run_fleet(fleet, runner=ParallelRunner(jobs=1))

        runner = ParallelRunner(jobs=1)
        results = runner.run(fleet.compile())
        tenants = [tenant.name for tenant in fleet.shard_tenants()]
        batched = FleetResult(fleet)
        for shard in reversed(range(fleet.num_shards)):
            batched.fold(shard, tenants[shard], results[shard])
        assert batched.digest() == streamed.digest()
        assert batched.to_dict() == streamed.to_dict()

    def test_jobs1_vs_jobs4_bit_identical(self):
        fleet = hetero_fleet(8)
        serial = run_fleet(fleet, runner=ParallelRunner(jobs=1))
        parallel = run_fleet(fleet, runner=ParallelRunner(jobs=4))
        assert serial.digest() == parallel.digest()
        assert serial.to_dict() == parallel.to_dict()

    def test_shard_seeds_disjoint(self):
        fleet = small_fleet(2)
        seeds = {
            derive_seed(fleet.seed, "fleet", str(shard)) for shard in range(64)
        }
        assert len(seeds) == 64
        assert fleet.seed not in seeds
        assert fleet.shard_seed(0) == derive_seed(fleet.seed, "fleet", "0")
        # ... and per-shard results actually differ (streams are disjoint).
        result = run_fleet(small_fleet(2), runner=ParallelRunner(jobs=1))
        assert result.simulations_run == 2  # no digest collision / dedup


class TestCacheReplay:
    def test_warm_replay_costs_zero_simulations(self, tmp_path):
        fleet = hetero_fleet(6)
        cold_runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        cold = run_fleet(fleet, runner=cold_runner)
        assert cold.simulations_run == fleet.num_shards

        warm_runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        warm = run_fleet(fleet, runner=warm_runner)
        assert warm.simulations_run == 0
        assert warm.digest() == cold.digest()

    def test_memory_only_cache_still_replays_warm(self):
        fleet = small_fleet(3)
        runner = ParallelRunner(jobs=1)
        cold = run_fleet(fleet, runner=runner)
        warm = run_fleet(fleet, runner=runner)
        assert cold.simulations_run == 3
        assert warm.simulations_run == 0
        assert warm.digest() == cold.digest()

    def test_fold_keeps_memory_layer_bounded(self, tmp_path):
        """Peak resident shard detail is O(1), not O(shard count)."""
        fleet = hetero_fleet(12)
        runner = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        peak = 0

        def fold(index, job, result):
            nonlocal peak
            peak = max(peak, len(runner.cache._memory))

        runner.run_fold(fleet.compile(), fold)
        assert peak <= 2  # the in-flight entry, never the whole fleet
        assert len(runner.cache._memory) == 0


# ---------------------------------------------------------------------------
# Scale: the acceptance fleet
# ---------------------------------------------------------------------------
class TestAllPortsMachine:
    def test_uniform_fleet_runs_every_host_port(self):
        """The paper's machine — one MN per host port, disjoint address
        slices (Section 2.3) — is a uniform fleet over the ports."""
        config = small_config(host=HostConfig(num_ports=2))
        fleet = uniform_fleet(
            config.host.num_ports, config, fast_workload(),
            requests_per_shard=200, seed=config.seed,
        )
        runner = ParallelRunner(jobs=1, cache=ResultCache())
        total = run_fleet(fleet, runner=runner).total
        assert total.shards == 2
        assert total.requests == 400
        mean_runtime_ps = total.runtime_ps_total / total.shards
        assert total.runtime_ps_max / mean_runtime_ps < 1.5  # ports balanced
        tails = total.tails_ns()
        assert tails["p50"] <= tails["p99"]
        # replays come from the cache
        assert run_fleet(fleet, runner=runner).simulations_run == 0


class TestFleetAtScale:
    def test_64_shard_heterogeneous_fleet(self, tmp_path):
        fleet = hetero_fleet(
            64,
            tenants=(
                Tenant("bulk", weight=3.0, skew=0.5),
                Tenant("latency", weight=1.0, rate_scale=2.0),
            ),
        )
        runner = ParallelRunner(jobs=4, cache=ResultCache(tmp_path))
        with audits():
            result = run_fleet(fleet, runner=runner)
        assert result.shards_folded == 64
        assert result.simulations_run == 64
        assert result.tenants["bulk"].shards == 48
        assert result.tenants["latency"].shards == 16
        for aggregate in result.tenants.values():
            assert aggregate.percentile_ns(0.99) is not None
            assert aggregate.requests == aggregate.shards * REQUESTS
        report = result.report()
        assert set(report) == {"bulk", "latency", "fleet"}
        assert report["fleet"]["requests"] == 64 * REQUESTS

        # Warm replay of the whole 64-shard fleet: zero simulations,
        # identical digest, even from a fresh process-like runner.
        replay = run_fleet(
            fleet, runner=ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        )
        assert replay.simulations_run == 0
        assert replay.digest() == result.digest()


# ---------------------------------------------------------------------------
# Tenant registry
# ---------------------------------------------------------------------------
class TestTenants:
    def test_largest_remainder_apportionment(self):
        fleet = small_fleet(
            4, tenants=(Tenant("a", weight=3.0), Tenant("b", weight=1.0))
        )
        names = [tenant.name for tenant in fleet.shard_tenants()]
        assert names == ["a", "a", "a", "b"]

    def test_apportionment_ties_break_by_registry_order(self):
        fleet = small_fleet(
            4, tenants=(Tenant("a"), Tenant("b"), Tenant("c"))
        )
        names = [tenant.name for tenant in fleet.shard_tenants()]
        assert names == ["a", "a", "b", "c"]

    def test_apportionment_is_contiguous_and_proportional(self):
        tenants = (
            Tenant("x", weight=5.0),
            Tenant("y", weight=2.0),
            Tenant("z", weight=3.0),
        )
        fleet = small_fleet(10, tenants=tenants)
        names = [tenant.name for tenant in fleet.shard_tenants()]
        assert names == ["x"] * 5 + ["y"] * 2 + ["z"] * 3

    def test_tenant_knobs_reach_the_shard_workload(self):
        fleet = small_fleet(
            2, tenants=(Tenant("skewed", skew=0.7, rate_scale=2.0),)
        )
        workload = fleet.compile()[0].workload
        assert workload.skew == 0.7
        assert workload.mean_gap_ns == fast_workload().mean_gap_ns / 2.0

    def test_skew_changes_results_but_stays_deterministic(self):
        runner = ParallelRunner(jobs=1)
        plain = run_fleet(small_fleet(2), runner=runner)
        skewed_fleet = small_fleet(2, tenants=(Tenant("t", skew=0.8),))
        skewed = run_fleet(skewed_fleet, runner=runner)
        again = run_fleet(skewed_fleet, runner=ParallelRunner(jobs=1))
        assert skewed.digest() != plain.digest()
        assert skewed.digest() == again.digest()

    def test_validation_rejects_bad_fleets(self):
        with pytest.raises(ConfigError, match="at least one shard"):
            run_fleet(
                FleetConfig(shards=(), workload=fast_workload())
            )
        with pytest.raises(ConfigError, match="duplicate tenant"):
            small_fleet(2, tenants=(Tenant("a"), Tenant("a"))).validate()
        with pytest.raises(ConfigError, match="skew"):
            Tenant("bad", skew=1.0).validate()
        with pytest.raises(ConfigError, match="weight"):
            Tenant("bad", weight=0.0).validate()
        with pytest.raises(ConfigError, match="shard 1"):
            FleetConfig(
                shards=(small_config(), small_config(topology="nope")),
                workload=fast_workload(),
            ).validate()


# ---------------------------------------------------------------------------
# Aggregation edge cases
# ---------------------------------------------------------------------------
class TestAggregationEdges:
    def test_histogram_shape_mismatch_raises_named_error(self):
        left = Histogram(bucket_width=100.0, num_buckets=8)
        right = Histogram(bucket_width=200.0, num_buckets=8)
        with pytest.raises(HistogramShapeError, match="different shapes"):
            left.merge(right)
        # Back-compat: pre-existing callers catch plain ValueError.
        assert issubclass(HistogramShapeError, ValueError)

    def test_accumulator_shape_mismatch_raises_named_error(self):
        acc = TailAccumulator()
        shaped = Histogram(bucket_width=100.0, num_buckets=8)
        shaped.add(50.0)
        acc.fold(shaped)
        other = Histogram(bucket_width=200.0, num_buckets=8)
        other.add(50.0)
        with pytest.raises(HistogramShapeError, match="different shapes"):
            acc.fold(other)

    def test_empty_histogram_fold_is_shape_neutral(self):
        """An empty shard's histogram folds as a no-op, whatever its shape."""
        acc = TailAccumulator()
        shaped = Histogram(bucket_width=100.0, num_buckets=8)
        shaped.add(250.0)
        acc.fold(shaped)
        before = acc.state()
        acc.fold(Histogram(bucket_width=999.0, num_buckets=3))  # empty
        assert acc.state() == before

    def test_empty_tenant_percentiles_absent_not_zero(self):
        """p99 of zero requests is None — it must never read as 0."""
        aggregate = TenantAggregate()
        assert aggregate.percentile_ns(0.99) is None
        assert aggregate.tails_ns() == {"p50": None, "p95": None, "p99": None}
        assert aggregate.availability == 1.0
        assert aggregate.goodput_rps == 0.0

    def test_zero_shard_tenant_does_not_poison_fleet(self):
        """A tenant apportioned zero shards reports absent percentiles."""
        fleet = small_fleet(
            2,
            tenants=(Tenant("big", weight=100.0), Tenant("tiny", weight=0.01)),
        )
        names = [tenant.name for tenant in fleet.shard_tenants()]
        assert names == ["big", "big"]
        result = run_fleet(fleet, runner=ParallelRunner(jobs=1))
        assert result.tenants["tiny"].percentile_ns(0.99) is None
        assert result.total.percentile_ns(0.99) is not None
        assert (
            result.total.percentile_ns(0.99)
            == result.tenants["big"].percentile_ns(0.99)
        )

    def test_fold_rejects_unknown_tenant(self):
        fleet = small_fleet(1)
        result = run_fleet(fleet, runner=ParallelRunner(jobs=1))
        with pytest.raises(ConfigError, match="unknown tenant"):
            FleetResult(fleet).fold(0, "nope", object())


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------
class TestConservation:
    def test_audited_fleet_passes_conservation(self):
        with audits():
            result = run_fleet(hetero_fleet(6), runner=ParallelRunner(jobs=1))
        check_fleet_conservation(result)  # idempotent re-check

    def test_corrupted_fold_is_detected(self):
        result = run_fleet(small_fleet(2), runner=ParallelRunner(jobs=1))
        result.total.counters.add("reads", 1)
        with pytest.raises(InvariantViolation) as exc:
            check_fleet_conservation(result)
        assert "fleet-counter-conservation" in exc.value.invariants()
        assert exc.value.context["point"] == "fleet-fold"

    def test_lost_shard_is_detected(self):
        result = run_fleet(small_fleet(2), runner=ParallelRunner(jobs=1))
        result.shards_folded += 1
        with pytest.raises(InvariantViolation) as exc:
            check_fleet_conservation(result)
        assert "fleet-shard-conservation" in exc.value.invariants()


# ---------------------------------------------------------------------------
# Per-shard digests stay coherent with the single-MN world
# ---------------------------------------------------------------------------
class TestShardResultIdentity:
    def test_shard_result_digest_matches_direct_simulation(self):
        """The fleet's shard jobs are ordinary, independently cacheable
        single-MN jobs: running one directly reproduces its digest."""
        fleet = small_fleet(2)
        runner = ParallelRunner(jobs=1)
        shard_results = runner.run(fleet.compile())
        direct = ParallelRunner(jobs=1).run_one(fleet.compile()[1])
        assert result_digest(direct) == result_digest(shard_results[1])
