"""Speedup tables over a keyed batch of results, in percent.

An experiment resolves its jobs with
:meth:`repro.runner.ParallelRunner.run_keyed`; these functions read the
``{key: SimResult}`` mapping it returns, with keys shaped
``(column, row)`` (:func:`repro.experiments.base.grid_jobs` keys
``(config key, workload name)``).
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence

from repro.analysis.tables import render_table
from repro.results import SimResult

Grid = Mapping[Hashable, Mapping[Hashable, float]]


def speedups(
    results: Mapping[tuple, SimResult],
    rows: Sequence[Hashable],
    columns: Sequence[Hashable],
    baseline: Hashable,
) -> Dict[Hashable, Dict[Hashable, float]]:
    """``{row: {column: percent}}``: how much faster
    ``results[column, row]`` ran than ``results[baseline, row]``."""
    return {
        row: {
            column: results[column, row].speedup_over(results[baseline, row])
            * 100.0
            for column in columns
        }
        for row in rows
    }


def column_means(grid: Grid, columns: Sequence[Hashable]) -> Dict[Hashable, float]:
    """Each column's mean over the rows of ``grid``."""
    count = len(grid) or 1
    return {
        column: sum(row[column] for row in grid.values()) / count
        for column in columns
    }


def render_speedups(
    grid: Grid,
    means: Mapping[Hashable, float],
    title: str,
    headers: Optional[Sequence[str]] = None,
) -> str:
    """``grid`` as a workload x column table of signed percents, one
    column per key of ``means``, closed by an ``average`` row."""
    columns = list(means)
    rows = [
        [name] + [f"{row[column]:+.1f}%" for column in columns]
        for name, row in grid.items()
    ]
    rows.append(["average"] + [f"{means[column]:+.1f}%" for column in columns])
    return render_table(["workload"] + list(headers or columns), rows, title=title)
