"""Result analysis: tables and speedup grids."""

from repro.analysis.tables import render_table
from repro.analysis.speedup import column_means, render_speedups, speedups

__all__ = ["render_table", "column_means", "render_speedups", "speedups"]
