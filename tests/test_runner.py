"""Tests for the runner subsystem: job digests, caching, parallelism.

The load-bearing property is determinism: the same job must produce a
bit-identical ``SimResult`` whether it runs serially in-process, comes
out of the in-memory cache, round-trips through the disk cache, or runs
in a worker process.  Equality is asserted on
:func:`repro.serialization.result_digest`.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.config import ObsConfig, OverloadConfig, SystemConfig, parse_label
from repro.experiments.base import ExperimentOutput
from repro.fleet import FleetConfig, Tenant, uniform_fleet
from repro.net.routing import cached_bfs_paths, clear_route_cache
from repro.ras import FaultPlan
from repro.runner import (
    ParallelRunner,
    ResultCache,
    SimJob,
    canonical_tree,
    digest_tree,
    execute_job,
    using_runner,
)
from repro.serialization import (
    result_digest,
    result_from_state,
    result_to_state,
)
from repro.sweep import Sweep
from repro.system import simulate
from repro.units import ns
from repro.workloads import WorkloadSpec

from conftest import fast_workload, small_config


def job(**overrides) -> SimJob:
    requests = overrides.pop("requests", 60)
    return SimJob(
        config=small_config(**overrides),
        workload=fast_workload(),
        requests=requests,
    )


class TestSimJobDigest:
    def test_equal_jobs_equal_digests(self):
        assert job().digest() == job().digest()

    def test_construction_order_irrelevant(self):
        forward = small_config().with_(topology="tree").with_(arbiter="distance")
        backward = small_config().with_(arbiter="distance").with_(topology="tree")
        a = SimJob(forward, fast_workload(), 60)
        b = SimJob(backward, fast_workload(), 60)
        assert a.digest() == b.digest()

    def test_top_level_field_changes_digest(self):
        assert job().digest() != job(topology="tree").digest()

    def test_nested_field_changes_digest(self):
        base = small_config()
        tweaked = base.with_(
            link=dataclasses.replace(base.link, serdes_latency_ps=0)
        )
        assert (
            SimJob(base, fast_workload(), 60).digest()
            != SimJob(tweaked, fast_workload(), 60).digest()
        )

    def test_every_config_field_invalidates(self):
        # a job digest must cover the whole config tree: flipping any
        # scalar top-level field must produce a new cache key
        base = job().digest()
        for field in dataclasses.fields(SystemConfig):
            value = getattr(small_config(), field.name)
            if isinstance(value, bool):
                changed = not value
            elif isinstance(value, int):
                changed = value + 1
            elif isinstance(value, float):
                changed = value / 2 + 0.01
            elif isinstance(value, str):
                changed = value + "_x"
            else:
                continue  # sub-configs covered by the nested test
            assert job(**{field.name: changed}).digest() != base, field.name

    def test_requests_and_workload_change_digest(self):
        assert job().digest() != job(requests=61).digest()
        other = SimJob(
            small_config(), fast_workload(read_fraction=0.5), 60
        )
        assert job().digest() != other.digest()

    def test_canonical_tree_is_json_stable(self):
        tree = canonical_tree(small_config())
        assert json.dumps(tree, sort_keys=True) == json.dumps(
            canonical_tree(small_config()), sort_keys=True
        )


def _pin_workload(**overrides) -> WorkloadSpec:
    defaults = dict(
        name="PIN", read_fraction=0.6, mean_gap_ns=2.0, locality_lines=4.0
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestDigestPins:
    """Literal cache keys: a canonicalisation change must not move them.

    Every cached result is stored under its job digest, so a digest that
    drifts orphans the whole disk cache without failing any result pin.
    The configs are spelled out here (not taken from fixtures) so only a
    change to canonicalisation or to a schema default can move a pin.
    """

    def test_default_job(self):
        assert SimJob(SystemConfig(), _pin_workload()).digest() == (
            "ee4c000246a7aa2dc69b86bffde5434f51bb9f565711f01a73dc5e8c3793a056"
        )

    def test_overload_ras_obs_job(self):
        # Non-default digest-transparent fields (overload, obs sampling
        # and labels) enter the tree next to a full RAS fault plan.
        config = SystemConfig(
            topology="tree",
            dram_fraction=0.5,
            overload=OverloadConfig(
                deadline_ps=ns(1000), max_retries=1, shed_high=512, shed_low=256
            ),
            ras=FaultPlan(
                bit_error_rate=1e-6,
                link_failures=((0, 1, ns(500)),),
                cube_failures=((3, ns(900)),),
            ),
            obs=ObsConfig(
                attribution=True,
                attribution_sample=4,
                attribution_labels=("mem.xfer", "resp"),
                trace=True,
                trace_sample=4,
            ),
        )
        assert SimJob(config, _pin_workload(), requests=500).digest() == (
            "2356384bdc8cb2c30904340345c2a56c52534c84d0d5b25a712280de6e194384"
        )

    def test_p2p_poisson_job(self):
        pinned = SimJob(
            SystemConfig(p2p_pattern="promote", dram_fraction=0.5),
            _pin_workload(p2p_fraction=0.05, arrival="poisson"),
            requests=300,
        )
        assert pinned.digest() == (
            "a778a92ddce59b6f5e343179d4a4a7d425d7658b261995ccf3a8584a1a1b26f9"
        )

    def test_skewed_two_tenant_fleet(self):
        fleet = FleetConfig(
            shards=tuple(
                parse_label(label)
                for label in ("100%-C", "100%-T", "50%-T (NVM-L)")
            ),
            workload=_pin_workload(),
            tenants=(
                Tenant("hot", weight=3.0, skew=0.6, rate_scale=2.0),
                Tenant("cold"),
            ),
            requests_per_shard=100,
            seed=7,
        )
        assert fleet.digest() == (
            "138886c97a5f0df6ee56e4cd10b015bb43b0b6e5fbbaa88fcb9017572a3cc5ec"
        )
        # The shard jobs carry the tenants' skew and rate scaling, so
        # their keys cover WorkloadSpec's transparent fields off default.
        shard_digests = [job.digest() for job in fleet.compile()]
        assert digest_tree(shard_digests) == (
            "320cac1760181c2ae36cafcfa29919cac212c0b7b1fe494605a03c6bebb912eb"
        )

    def test_uniform_fleet(self):
        fleet = uniform_fleet(
            4, SystemConfig(), _pin_workload(), requests_per_shard=100
        )
        assert fleet.digest() == (
            "5407702b93600b1d6b86305896b09e0a2c66d3ea136caab36f8a9ec883dea558"
        )


class TestResultStateRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return execute_job(job())

    def test_round_trip_preserves_digest(self, result):
        restored = result_from_state(
            json.loads(json.dumps(result_to_state(result)))
        )
        assert result_digest(restored) == result_digest(result)

    def test_round_trip_preserves_metrics(self, result):
        restored = result_from_state(result_to_state(result))
        assert restored.runtime_ps == result.runtime_ps
        assert restored.mean_latency_ns == result.mean_latency_ns
        assert restored.row_hit_rate == result.row_hit_rate
        assert restored.energy.total_pj == result.energy.total_pj
        assert restored.collector.count == result.collector.count

    def test_state_from_duplicate_stat_layout_decodes(self):
        # A 24-request p2p run encoded when every latency component also
        # kept its own RunningStat beside its histogram.  The layout, and
        # so every digest and cache entry, is unchanged: the restored
        # result re-encodes to the same state and the same digest.
        path = Path(__file__).parent / "data" / "result_state_v4.json"
        state = json.loads(path.read_text())
        restored = result_from_state(state)
        assert result_to_state(restored) == state
        assert result_digest(restored) == (
            "9353356375553952b6852d4cc455d72a000a505809ed0df34f1be3d011ab4fdc"
        )
        collector = restored.collector
        assert collector.p2p > 0 and collector.writes > 0
        for breakdown in (
            collector.all,
            collector.read_breakdown,
            collector.write_breakdown,
            collector.p2p_breakdown,
        ):
            assert breakdown.to_memory is breakdown.to_memory_hist.stat

    def test_version_mismatch_rejected(self, result):
        state = result_to_state(result)
        state["version"] = -1
        with pytest.raises(ValueError):
            result_from_state(state)


class TestResultCache:
    def test_memory_hit(self):
        cache = ResultCache()
        result = execute_job(job())
        cache.put("abc", result)
        assert cache.get("abc") is result
        assert cache.memory_hits == 1

    def test_disk_round_trip_identical_digest(self, tmp_path):
        result = execute_job(job())
        writer = ResultCache(tmp_path)
        writer.put("d" * 64, result)
        reader = ResultCache(tmp_path)  # fresh memory layer
        loaded = reader.get("d" * 64)
        assert loaded is not None
        assert reader.disk_hits == 1
        assert result_digest(loaded) == result_digest(result)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("e" * 64, execute_job(job()))
        path = cache._path("e" * 64)
        path.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.get("e" * 64) is None
        assert not path.exists()  # corrupt file removed

    def test_miss_counted(self):
        cache = ResultCache()
        assert cache.get("nope") is None
        assert cache.misses == 1


class TestParallelRunner:
    def test_dedupes_identical_jobs(self):
        runner = ParallelRunner(jobs=1)
        results = runner.run([job(), job(), job()])
        assert runner.simulations_run == 1
        assert results[0] is results[1] is results[2]

    def test_results_in_input_order(self):
        chain, tree = job(), job(topology="tree")
        runner = ParallelRunner(jobs=1)
        results = runner.run([tree, chain, tree])
        assert results[0].config_label == "100%-T"
        assert results[1].config_label == "100%-C"
        assert results[2] is results[0]

    def test_cache_hit_skips_simulation(self):
        runner = ParallelRunner(jobs=1)
        runner.run([job()])
        runner.run([job()])
        assert runner.simulations_run == 1

    def test_pool_matches_serial_bitwise(self):
        # the acceptance property: worker processes reproduce the serial
        # result exactly (per-job seeds derive from the config)
        jobs = [job(), job(topology="tree"), job(arbiter="distance")]
        serial = ParallelRunner(jobs=1).run(jobs)
        parallel = ParallelRunner(jobs=2).run(jobs)
        for s, p in zip(serial, parallel):
            assert result_digest(s) == result_digest(p)

    def test_disk_cache_matches_live_run_bitwise(self, tmp_path):
        first = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        live = first.run_one(job())
        second = ParallelRunner(jobs=1, cache=ResultCache(tmp_path))
        cached = second.run_one(job())
        assert second.simulations_run == 0
        assert result_digest(cached) == result_digest(live)

    def test_simulate_uses_ambient_runner(self):
        with using_runner(ParallelRunner(jobs=1)) as runner:
            a = simulate(small_config(), fast_workload(), requests=60)
            b = simulate(small_config(), fast_workload(), requests=60)
            assert a is b
            assert runner.simulations_run == 1


class TestSweepThroughRunner:
    def test_parallel_serial_rows_identical(self):
        def rows(jobs):
            with using_runner(ParallelRunner(jobs=jobs)):
                return (
                    Sweep(fast_workload(), requests=60, base_config=small_config())
                    .over("topology", ["chain", "tree"])
                    .run()
                )

        assert rows(1) == rows(2)

    def test_error_rows_have_no_nan_rendering(self):
        sweep = Sweep(
            fast_workload(), requests=50, base_config=small_config()
        ).over("dram_fraction", [1.0, 0.37])
        rows = sweep.run(skip_invalid=False)
        assert len(rows) == 2
        assert "error" in rows[1]
        text = sweep.render(rows)
        assert "nan" not in text
        assert "error" in text

    def test_identical_points_simulated_once(self):
        with using_runner(ParallelRunner(jobs=1)) as runner:
            (
                Sweep(fast_workload(), requests=50, base_config=small_config())
                .over("topology", ["chain", "chain"])
                .run()
            )
            assert runner.simulations_run == 1


class TestExperimentDeterminism:
    def test_experiment_series_identical_serial_cached_parallel(self):
        from repro.experiments import get_experiment

        run = get_experiment("fig04")
        kwargs = dict(
            requests=60,
            workloads=[fast_workload()],
            base_config=small_config(),
        )
        with using_runner(ParallelRunner(jobs=1)):
            serial = run(**kwargs)
            cached = run(**kwargs)  # second pass: pure cache hits
        with using_runner(ParallelRunner(jobs=2)):
            parallel = run(**kwargs)
        assert serial.data == cached.data == parallel.data
        assert serial.text == cached.text == parallel.text


class TestCsvColumnOrder:
    def test_numeric_labels_sorted_numerically(self, tmp_path):
        output = ExperimentOutput(
            experiment_id="t",
            title="t",
            text="t",
            data={"grid": {"row": {2: 1.0, 10: 2.0, 16: 3.0}}},
        )
        path = tmp_path / "out.csv"
        output.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[1:] == ["2", "10", "16"]

    def test_string_labels_sorted_lexically(self, tmp_path):
        output = ExperimentOutput(
            experiment_id="t",
            title="t",
            text="t",
            data={"grid": {"row": {"b": 1.0, "a": 2.0}}},
        )
        path = tmp_path / "out.csv"
        output.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[1:] == ["a", "b"]


class TestRouteCache:
    def test_same_adjacency_shares_tree(self):
        clear_route_cache()
        adjacency = {0: [1], 1: [0, 2], 2: [1]}
        first = cached_bfs_paths(adjacency, 0)
        second = cached_bfs_paths(dict(adjacency), 0)
        assert first is second
        assert first[2] == (0, 1, 2)

    def test_different_source_distinct(self):
        clear_route_cache()
        adjacency = {0: [1], 1: [0, 2], 2: [1]}
        assert cached_bfs_paths(adjacency, 0) is not cached_bfs_paths(
            adjacency, 2
        )

    def test_repeated_system_builds_hit_cache(self):
        from repro.net import routing
        from repro.system import MemoryNetworkSystem

        clear_route_cache()
        MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        size = len(routing._BFS_CACHE)
        assert size > 0
        MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        assert len(routing._BFS_CACHE) == size  # no recompute, no growth


class TestCli:
    def test_jobs_and_cache_flags(self, tmp_path, capsys):
        from repro.experiments.__main__ import main
        from repro.runner import reset_runner

        argv = [
            "fig04",
            "--requests",
            "40",
            "--workloads",
            "KMEANS",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        try:
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert "simulations run" in first
            # back-to-back second invocation: everything from disk
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert "0 simulations run" in second
        finally:
            reset_runner()

    def test_invalid_experiment_still_errors(self):
        from repro.errors import ConfigError as CE
        from repro.experiments.__main__ import main
        from repro.runner import reset_runner

        try:
            with pytest.raises(CE):
                main(["fig99"])
        finally:
            reset_runner()
