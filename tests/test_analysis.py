"""Tests for analysis helpers: tables, speedup grids, breakdowns."""

import pytest

from repro.analysis import SpeedupGrid, breakdown_rows, format_percent, render_table

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

    def test_format_percent(self):
        assert format_percent(12.34) == "12.3%"
        assert format_percent(-4.0, digits=0) == "-4%"


class TestSpeedupGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        return SpeedupGrid(
            [fast_workload()], requests=200, base_config=small_config()
        )

    def test_results_cached(self, grid):
        first = grid.result("100%-C", grid.workloads[0])
        second = grid.result("100%-C", grid.workloads[0])
        assert first is second

    def test_baseline_speedup_is_zero(self, grid):
        speedups = grid.speedups(["100%-C"], "100%-C")
        assert speedups["TEST"]["100%-C"] == pytest.approx(0.0)

    def test_tree_has_nonnegative_speedup(self, grid):
        speedups = grid.speedups(["100%-T"], "100%-C")
        assert speedups["TEST"]["100%-T"] > -5.0

    def test_averages(self, grid):
        speedups = {"A": {"x": 10.0}, "B": {"x": 20.0}}
        assert grid.averages(speedups, ["x"]) == {"x": 15.0}

    def test_render_contains_average_row(self, grid):
        text = grid.render(["100%-T"], "100%-C")
        assert "average" in text

    def test_custom_config_fn(self):
        grid = SpeedupGrid(
            [fast_workload()],
            requests=100,
            config_fn=lambda label: small_config(topology="tree"),
        )
        result = grid.result("anything", grid.workloads[0])
        assert result.config_label == "100%-T"


class TestBreakdownRows:
    def test_rows_and_normalization(self):
        grid = SpeedupGrid(
            [fast_workload()], requests=150, base_config=small_config()
        )
        results = [
            grid.result("100%-C", grid.workloads[0]),
            grid.result("100%-T", grid.workloads[0]),
        ]
        rows = breakdown_rows(results, normalize_to="100%-C")
        assert rows[0]["config"] == "100%-C"
        assert rows[0]["relative_total"] == pytest.approx(1.0)
        assert rows[1]["rel_to"] > 0
        for row in rows:
            total = row["to_memory_ns"] + row["in_memory_ns"] + row["from_memory_ns"]
            assert total == pytest.approx(row["total_ns"], rel=1e-6)
