"""Tests for analysis helpers: tables and speedup grids over a keyed batch."""

import pytest

from repro.analysis import column_means, render_speedups, render_table, speedups
from repro.runner import JobFailure, ParallelRunner, SimJob

from conftest import fast_workload, small_config


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["h"], [["x"]], title="T")
        assert text.splitlines()[0] == "T"

    def test_floats_formatted(self):
        text = render_table(["h", "v"], [["a", 1.2345]])
        assert "1.2" in text

    def test_numbers_right_aligned(self):
        text = render_table(["h", "val"], [["a", 5], ["b", 500]])
        rows = text.splitlines()[2:]
        assert rows[0].endswith("  5")
        assert rows[1].endswith("500")


def _job(topology="chain", requests=200, **overrides):
    return SimJob(small_config(topology=topology, **overrides), fast_workload(), requests)


class TestKeyedBatch:
    def test_shared_job_shares_result(self):
        runner = ParallelRunner(jobs=1)
        results = runner.run_keyed({"a": _job(), "b": _job(), "c": _job("tree")})
        assert list(results) == ["a", "b", "c"]
        assert results["a"] is results["b"]
        assert results["a"] is not results["c"]
        assert runner.simulations_run == 2

    def test_simulations_run_counts_distinct_digests(self):
        runner = ParallelRunner(jobs=1)
        jobs = {
            (topology, seed, copy): _job(topology, requests=60, seed=seed)
            for topology in ("chain", "ring")
            for seed in (1, 2)
            for copy in range(3)
        }
        runner.run_keyed(jobs)
        distinct = {job.digest() for job in jobs.values()}
        assert runner.simulations_run == len(distinct) == 4
        runner.run_keyed(jobs)  # a warm batch simulates nothing
        assert runner.simulations_run == 4

    def test_collect_puts_failure_under_its_key(self):
        # A chain cannot tolerate a removed edge: its build raises.
        broken = _job(requests=60, failed_links=((2, 3),))
        results = ParallelRunner(jobs=1).run_keyed(
            {"good": _job(requests=60), "broken": broken}, on_error="collect"
        )
        assert not isinstance(results["good"], JobFailure)
        failure = results["broken"]
        assert isinstance(failure, JobFailure)
        assert failure.digest == broken.digest()
        assert "TopologyError" in failure.error


class TestSpeedupGrid:
    @pytest.fixture(scope="class")
    def results(self):
        jobs = {
            (label, "TEST"): _job(topology)
            for label, topology in (("100%-C", "chain"), ("100%-T", "tree"))
        }
        return ParallelRunner(jobs=1).run_keyed(jobs)

    def test_baseline_speedup_is_zero(self, results):
        grid = speedups(results, ["TEST"], ["100%-C"], "100%-C")
        assert grid == {"TEST": {"100%-C": 0.0}}

    def test_tree_has_nonnegative_speedup(self, results):
        grid = speedups(results, ["TEST"], ["100%-T"], "100%-C")
        assert grid["TEST"]["100%-T"] > -5.0

    def test_averages(self):
        grid = {"A": {"x": 10.0}, "B": {"x": 20.0}}
        assert column_means(grid, ["x"]) == {"x": 15.0}

    def test_render_contains_average_row(self, results):
        grid = speedups(results, ["TEST"], ["100%-T"], "100%-C")
        text = render_speedups(grid, column_means(grid, ["100%-T"]), title="T")
        assert text.splitlines()[-1].startswith("average")
        assert "100%-T" in text.splitlines()[1]
