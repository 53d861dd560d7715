"""RAS tests: fault-plan validation, retry determinism, graceful
degradation under scheduled failures, and runner hardening."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.errors import ConfigError, RunnerError
from repro.ras import FaultPlan
from repro.runner import JobFailure, ParallelRunner, SimJob
from repro.runner.cache import ResultCache
from repro.runner.pool import execute_job as _real_execute_job
from repro.serialization import result_digest
from repro.sweep import Sweep
from repro.system import MemoryNetworkSystem
from repro.units import GIB_BYTES

from conftest import (
    RUNNER_ENTRY_POINTS,
    fast_workload,
    run_sim,
    run_system,
    small_config,
)


# ---------------------------------------------------------------------------
# Fault-plan and config validation
# ---------------------------------------------------------------------------
class TestFaultPlanValidation:
    def test_default_plan_is_off(self):
        plan = FaultPlan()
        assert not plan.enabled
        assert not plan.has_permanent_failures
        plan.validate()

    @pytest.mark.parametrize("ber", [-0.1, 1.0, 2.0])
    def test_bad_bit_error_rate(self, ber):
        with pytest.raises(ConfigError, match="bit_error_rate"):
            FaultPlan(bit_error_rate=ber).validate()

    def test_negative_retry_penalty(self):
        with pytest.raises(ConfigError, match="retry_penalty"):
            FaultPlan(retry_penalty_ps=-1).validate()

    def test_zero_max_replays(self):
        with pytest.raises(ConfigError, match="max_replays"):
            FaultPlan(max_replays=0).validate()

    def test_link_rate_self_loop(self):
        with pytest.raises(ConfigError, match="self-loop"):
            FaultPlan(link_error_rates=((2, 2, 1e-6),)).validate()

    def test_link_rate_duplicate_undirected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultPlan(
                link_error_rates=((1, 2, 1e-6), (2, 1, 1e-7))
            ).validate()

    def test_link_failure_bad_time(self):
        with pytest.raises(ConfigError, match="time"):
            FaultPlan(link_failures=((1, 2, -5),)).validate()
        with pytest.raises(ConfigError, match="time"):
            FaultPlan(link_failures=((1, 2, 1.5),)).validate()

    def test_duplicate_link_failure(self):
        with pytest.raises(ConfigError, match="duplicate"):
            FaultPlan(link_failures=((1, 2, 10), (2, 1, 20))).validate()

    def test_cube_failure_bad_id(self):
        with pytest.raises(ConfigError, match="cube"):
            FaultPlan(cube_failures=((0, 10),)).validate()

    def test_config_rejects_out_of_range_failure(self):
        with pytest.raises(ConfigError, match="out of range"):
            small_config().with_ras(link_failures=((1, 99, 100),)).validate()
        with pytest.raises(ConfigError, match="cubes"):
            small_config().with_ras(cube_failures=((99, 100),)).validate()

    def test_failed_links_self_loop(self):
        with pytest.raises(ConfigError, match="self-loop"):
            small_config(failed_links=((3, 3),)).validate()

    def test_failed_links_duplicate(self):
        with pytest.raises(ConfigError, match="duplicate"):
            small_config(
                topology="ring", failed_links=((2, 3), (3, 2))
            ).validate()

    def test_failed_links_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            small_config(failed_links=((1, 42),)).validate()

    def test_failed_links_non_int(self):
        with pytest.raises(ConfigError, match="node"):
            small_config(failed_links=(("1", 2),)).validate()


# ---------------------------------------------------------------------------
# Transient errors: retry determinism and accounting
# ---------------------------------------------------------------------------
class TestTransientErrors:
    def test_replays_reconcile_with_crc_errors(self):
        config = small_config(topology="ring").with_ras(bit_error_rate=1e-5)
        result = run_sim(config, fast_workload(), 200)
        assert result.extra["ras.crc_errors"] > 0
        assert result.extra["ras.replays"] == result.extra["ras.crc_errors"]
        assert result.availability == 1.0

    def test_retry_costs_runtime(self):
        workload = fast_workload()
        healthy = run_sim(small_config(topology="ring"), workload, 200)
        noisy = run_sim(
            small_config(topology="ring").with_ras(bit_error_rate=1e-5),
            workload,
            200,
        )
        assert noisy.runtime_ps > healthy.runtime_ps

    def test_same_seed_same_digest(self):
        config = small_config(topology="ring").with_ras(bit_error_rate=1e-6)
        workload = fast_workload()
        first = run_sim(config, workload, 150)
        second = run_sim(config, workload, 150)
        assert result_digest(first) == result_digest(second)
        healthy = run_sim(small_config(topology="ring"), workload, 150)
        assert result_digest(first) != result_digest(healthy)

    def test_serial_and_parallel_bit_identical(self):
        workload = fast_workload()
        jobs = [
            SimJob(
                config=small_config(
                    topology="ring", seed=seed
                ).with_ras(bit_error_rate=1e-6),
                workload=workload,
                requests=120,
            )
            for seed in (1, 2)
        ]
        serial = ParallelRunner(jobs=1, cache=ResultCache()).run(jobs)
        parallel = ParallelRunner(jobs=2, cache=ResultCache()).run(jobs)
        for left, right in zip(serial, parallel):
            assert result_digest(left) == result_digest(right)

    def test_ras_off_is_bit_identical(self):
        # An explicit all-zero plan must not perturb the simulation.
        workload = fast_workload()
        plain = run_sim(small_config(), workload, 150)
        zeroed = run_sim(small_config().with_ras(bit_error_rate=0.0), workload, 150)
        assert result_digest(plain) == result_digest(zeroed)
        assert plain.requests_failed == 0
        assert plain.availability == 1.0


# ---------------------------------------------------------------------------
# Scheduled permanent failures: reroute or degrade, never crash
# ---------------------------------------------------------------------------
class TestPermanentFailures:
    REQUESTS = 250

    def _mid_run_failure(self, config, edge, workload):
        healthy = run_sim(config, workload, self.REQUESTS)
        when = max(healthy.runtime_ps // 2, 1)
        return healthy, config.with_ras(link_failures=((edge[0], edge[1], when),))

    def test_ring_reroutes_at_full_availability(self):
        workload = fast_workload()
        config = small_config(topology="ring")
        healthy_distance = MemoryNetworkSystem(
            config, workload, requests=1
        ).route_table.mean_distance()
        _, broken_config = self._mid_run_failure(config, (1, 2), workload)
        system, result = run_system(
            broken_config, workload, requests=self.REQUESTS
        )
        assert result.requests_failed == 0
        assert result.availability == 1.0
        assert result.collector.count == self.REQUESTS
        assert result.extra["ras.link_failures"] == 1
        # The live reroute left the system on longer (but live) routes.
        assert system.route_table.mean_distance() > healthy_distance

    def test_chain_degrades_to_counted_errors(self):
        workload = fast_workload()
        config = small_config(topology="chain")
        _, broken_config = self._mid_run_failure(config, (2, 3), workload)
        result = run_sim(broken_config, workload, self.REQUESTS)
        assert result.requests_failed > 0
        assert 0.0 < result.availability < 1.0
        assert (
            result.requests_served + result.requests_failed == self.REQUESTS
        )

    def test_skiplist_chain_cut_fails_write_class(self):
        workload = fast_workload()
        config = small_config(
            topology="skiplist", total_capacity_bytes=2048 * GIB_BYTES
        )
        _, broken_config = self._mid_run_failure(config, (2, 3), workload)
        result = run_sim(broken_config, workload, self.REQUESTS)
        # Reads reroute over skip links; writes past the cut are pinned
        # to the central chain and fail.
        assert result.requests_failed > 0
        assert 0.0 < result.availability < 1.0

    def test_cube_failure_kills_incident_links(self):
        workload = fast_workload()
        config = small_config(topology="ring")
        healthy = run_sim(config, workload, self.REQUESTS)
        when = max(healthy.runtime_ps // 2, 1)
        result = run_sim(
            config.with_ras(cube_failures=((3, when),)),
            workload,
            self.REQUESTS,
        )
        assert result.extra["ras.link_failures"] == 2  # both ring edges of cube 3
        assert result.requests_failed > 0  # the dead cube's own requests
        assert 0.0 < result.availability < 1.0

    def test_failure_results_are_deterministic(self):
        workload = fast_workload()
        config = small_config(topology="chain").with_ras(
            link_failures=((2, 3, 500_000),)
        )
        first = run_sim(config, workload, self.REQUESTS)
        second = run_sim(config, workload, self.REQUESTS)
        assert result_digest(first) == result_digest(second)

    def test_tree_cube_failure_fails_at_port_transactions(self):
        """A cube failure that strands at-port transactions on a tree.

        Shard 0 of the seed-108 staggered-fault fleet: a 100%-T shard
        losing cube 1 (and the subtree behind it) at 200 ns.  The
        quiesce walk drops a victim from the host inject queue, and
        the drain callback pumps the at-port queue; a transaction to a
        now-unreachable cube there must become a counted failure, not a
        ``RoutingError`` from the injection.
        """
        from repro.config import SystemConfig
        from repro.experiments import fleet_scale
        from repro.experiments.base import suite
        from repro.fleet import FleetConfig

        shards = fleet_scale.staggered_faults(
            fleet_scale.fleet_shards(64, SystemConfig(seed=108))
        )
        fleet = FleetConfig(
            shards=shards,
            workload=suite()[0],
            requests_per_shard=100,
            seed=108,
        )
        job = fleet.compile()[0]
        assert job.config.seed == 9018521274845409782
        assert job.config.ras.cube_failures == ((1, 200_000),)
        system, result = run_system(
            job.config, job.workload, requests=job.requests, audit=True
        )
        assert result.requests_failed > 0
        assert result.availability < 1.0
        assert (
            result.requests_served + result.requests_failed == job.requests
        )
        assert system.auditor.collect("final") == []

    def test_availability_survives_state_roundtrip(self):
        from repro.serialization import result_from_state, result_to_state

        workload = fast_workload()
        config = small_config(topology="chain").with_ras(
            link_failures=((2, 3, 500_000),)
        )
        result = run_sim(config, workload, self.REQUESTS)
        restored = result_from_state(result_to_state(result))
        assert restored.requests_failed == result.requests_failed
        assert restored.availability == pytest.approx(result.availability)


# ---------------------------------------------------------------------------
# Runner hardening
# ---------------------------------------------------------------------------
def _good_job(seed=1, requests=60):
    return SimJob(
        config=small_config(topology="ring", seed=seed),
        workload=fast_workload(),
        requests=requests,
    )


def _bad_job(requests=60):
    # Valid config (endpoints in range) whose topology build raises in
    # the worker: a chain cannot tolerate a removed edge.
    return SimJob(
        config=small_config(topology="chain", failed_links=((2, 3),)),
        workload=fast_workload(),
        requests=requests,
    )


def _crashing_execute(job):  # pragma: no cover - runs in a worker
    os._exit(17)


#: Seed marking the job that hangs its worker (see ``_hanging_execute``).
_HANG_SEED = 777


def _hanging_execute(job):  # pragma: no cover - runs in a worker
    if job.config.seed == _HANG_SEED:
        time.sleep(60)
    return _real_execute_job(job)


class TestRunnerHardening:
    def test_collect_returns_structured_failures(self, resolve):
        runner = ParallelRunner(jobs=1, cache=ResultCache())
        out = resolve(runner, [_good_job(), _bad_job()], on_error="collect")
        assert result_digest(out[0])  # a real SimResult
        failure = out[1]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "exception"
        assert "TopologyError" in failure.error
        assert failure.digest == _bad_job().digest()
        assert failure.checkpointed == 1

    def test_raise_mode_carries_digest_and_label(self, resolve):
        runner = ParallelRunner(jobs=1, cache=ResultCache())
        bad = _bad_job()
        with pytest.raises(RunnerError) as excinfo:
            resolve(runner, [_good_job(), bad])
        assert bad.digest()[:12] in str(excinfo.value)
        assert bad.label() in str(excinfo.value)
        # The batch still executed: the good job was checkpointed.
        assert runner.cache.get(_good_job().digest()) is not None
        assert runner.simulations_run == 1
        assert "1 job(s) from the batch are checkpointed" in str(excinfo.value)

    def test_invalid_on_error_rejected(self):
        for resolve in RUNNER_ENTRY_POINTS.values():
            with pytest.raises(ValueError):
                resolve(ParallelRunner(jobs=1), [], on_error="ignore")

    def test_checkpoint_resume_reruns_only_failures(self, resolve):
        cache = ResultCache()
        batch = [_good_job(seed=1), _bad_job(), _good_job(seed=2)]
        first = ParallelRunner(jobs=1, cache=cache)
        resolve(first, batch, on_error="collect")
        assert first.simulations_run == 2
        resumed = ParallelRunner(jobs=1, cache=cache)
        out = resolve(resumed, batch, on_error="collect")
        # The successes came back from the cache (no new simulations);
        # only the failure — never cached — was attempted again.
        assert resumed.simulations_run == 0
        assert isinstance(out[1], JobFailure)
        assert out[1].checkpointed == 2
        assert result_digest(out[0]) and result_digest(out[2])

    def test_entry_points_agree(self):
        """``run`` and ``run_fold`` resolve a batch identically: same
        results, simulation counts, failure rows and checkpoints."""
        batch = [_good_job(seed=1), _bad_job(), _good_job(seed=2),
                 _good_job(seed=1), _bad_job()]
        outcomes = {}
        for name, resolve in RUNNER_ENTRY_POINTS.items():
            runner = ParallelRunner(jobs=1, cache=ResultCache())
            out = resolve(runner, batch, on_error="collect")
            outcomes[name] = (
                runner.simulations_run,
                [
                    (row.digest, row.kind, row.attempts, row.checkpointed)
                    if isinstance(row, JobFailure)
                    else result_digest(row)
                    for row in out
                ],
            )
        assert outcomes["run"] == outcomes["run_fold"]
        simulations, rows = outcomes["run"]
        assert simulations == 2
        assert rows[1] == rows[4] == (_bad_job().digest(), "exception", 1, 2)
        assert rows[0] == rows[3] != rows[2]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="hang injection needs fork inheritance",
    )
    def test_watchdog_kill_then_resume_matches_uninterrupted(self, monkeypatch):
        """A sweep killed mid-flight resumes from its checkpoints.

        The watchdog tears down a sweep whose third job hangs; the two
        completed jobs are already checkpointed.  Rerunning the same
        batch against the same cache executes *only* the killed job, and
        the final results are bit-identical to an uninterrupted run.
        """
        import repro.runner.pool as pool_module

        batch = [
            _good_job(seed=1),
            _good_job(seed=2),
            _good_job(seed=_HANG_SEED),
        ]
        cache = ResultCache()
        killed = ParallelRunner(jobs=2, cache=cache, job_timeout_s=1.5)
        with monkeypatch.context() as patched:
            patched.setattr(pool_module, "execute_job", _hanging_execute)
            out = killed.run(batch, on_error="collect")
        assert killed.simulations_run == 2
        failure = out[2]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        # The failure reports how much of the batch a rerun will skip.
        assert failure.checkpointed == 2
        assert "2 job(s) from the batch are checkpointed" in str(failure.to_error())

        resumed = ParallelRunner(jobs=1, cache=cache)
        resumed_out = resumed.run(batch)
        assert resumed.simulations_run == 1  # only the killed job re-ran

        uninterrupted = ParallelRunner(jobs=1, cache=ResultCache()).run(batch)
        assert [result_digest(r) for r in resumed_out] == [
            result_digest(r) for r in uninterrupted
        ]

    def test_watchdog_times_out_hung_jobs(self, monkeypatch):
        import repro.runner.pool as pool_module

        pool_kwargs = []
        real_pool = pool_module.ProcessPoolExecutor

        def recording_pool(*args, **kwargs):
            pool_kwargs.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", recording_pool)
        runner = ParallelRunner(
            jobs=2, cache=ResultCache(), job_timeout_s=0.001
        )
        out = runner.run(
            [_good_job(seed=1, requests=2000), _good_job(seed=2, requests=2000)],
            on_error="collect",
        )
        kinds = {f.kind for f in out if isinstance(f, JobFailure)}
        assert kinds == {"timeout"}
        # The pool respawned after the watchdog teardown pre-imports the
        # simulator like the first one did.
        assert len(pool_kwargs) >= 2
        for kwargs in pool_kwargs:
            assert kwargs == {
                "max_workers": 2, "initializer": pool_module._worker_init
            }

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-crash injection needs fork inheritance",
    )
    def test_broken_pool_retries_then_fails_structured(self, monkeypatch):
        import repro.runner.pool as pool_module

        monkeypatch.setattr(pool_module, "execute_job", _crashing_execute)
        runner = ParallelRunner(jobs=2, cache=ResultCache())
        out = runner.run(
            [_good_job(seed=1), _good_job(seed=2)], on_error="collect"
        )
        for failure in out:
            assert isinstance(failure, JobFailure)
            assert failure.kind == "pool"
            assert failure.attempts == 2  # one retry after the respawn

    def test_sweep_records_sim_failure_as_error_row(self):
        rows = (
            Sweep(
                fast_workload(),
                requests=50,
                base_config=small_config(failed_links=((2, 3),)),
            )
            .over("topology", ["chain", "ring"])
            .run()
        )
        by_topology = {row["topology"]: row for row in rows}
        assert by_topology["chain"]["error"].startswith("exception:")
        assert by_topology["ring"]["runtime_us"] > 0
