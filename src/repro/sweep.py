"""Generic design-space sweeps over :class:`SystemConfig` fields.

The experiment modules cover the paper's specific figures; this utility
lets users explore their own design spaces:

>>> from repro.sweep import Sweep
>>> sweep = (Sweep(get_workload("KMEANS"), requests=500)
...          .over("topology", ["chain", "tree"])
...          .over("dram_fraction", [1.0, 0.5]))
>>> rows = sweep.run()                          # doctest: +SKIP

Each axis names either a top-level ``SystemConfig`` field or a dotted
sub-config field (``host.num_ports``, ``link.serdes_latency_ps``,
``cube.scheduling``).  The cartesian product is simulated and returned
as result rows ready for tabulation or CSV export.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import render_table
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.results import SimResult
from repro.runner import JobFailure, SimJob, get_runner
from repro.workloads import WorkloadSpec


def set_config_field(config: SystemConfig, path: str, value: Any) -> SystemConfig:
    """Return a config copy with a (possibly dotted) field replaced."""
    if "." in path:
        head, _, rest = path.partition(".")
        if not hasattr(config, head):
            raise ConfigError(f"unknown config section {head!r}")
        sub = getattr(config, head)
        if not hasattr(sub, rest):
            raise ConfigError(f"unknown field {rest!r} in {head!r}")
        return config.with_(**{head: replace(sub, **{rest: value})})
    if not hasattr(config, path):
        raise ConfigError(f"unknown config field {path!r}")
    return config.with_(**{path: value})


class Sweep:
    """Cartesian-product sweep runner."""

    def __init__(
        self,
        workload: WorkloadSpec,
        requests: int = 1000,
        base_config: Optional[SystemConfig] = None,
    ) -> None:
        self.workload = workload
        self.requests = requests
        self.base_config = base_config or SystemConfig()
        self.axes: List[Tuple[str, List[Any]]] = []

    def over(self, field: str, values: Sequence[Any]) -> "Sweep":
        """Add an axis; returns self for chaining."""
        if not values:
            raise ConfigError(f"axis {field!r} needs at least one value")
        self.axes.append((field, list(values)))
        return self

    def points(self) -> List[Dict[str, Any]]:
        names = [name for name, _ in self.axes]
        combos = itertools.product(*(values for _, values in self.axes))
        return [dict(zip(names, combo)) for combo in combos]

    def config_for(self, point: Dict[str, Any]) -> SystemConfig:
        config = self.base_config
        for field, value in point.items():
            config = set_config_field(config, field, value)
        return config

    def run(self, skip_invalid: bool = True) -> List[Dict[str, Any]]:
        """Simulate every point; returns rows of axis values + metrics.

        Points whose configuration cannot be built (e.g. a DRAM fraction
        that does not decompose into whole cubes) are skipped when
        ``skip_invalid`` is set, recorded with ``error`` otherwise.

        Valid points are validated up front and dispatched as one batch
        through the ambient runner, so identical points are simulated
        once and its worker count decides whether the batch spreads over
        worker processes (``using_runner(ParallelRunner(jobs=N))``).
        """
        rows: List[Dict[str, Any]] = []
        jobs: Dict[int, SimJob] = {}  # row index -> its job
        for point in self.points():
            try:
                config = self.config_for(point)
                config.validate()
            except ConfigError as error:
                if skip_invalid:
                    continue
                rows.append(dict(point, error=str(error)))
                continue
            jobs[len(rows)] = SimJob(config, self.workload, self.requests)
            rows.append(dict(point))
        # collect mode: a crashed or timed-out point becomes an error row
        # instead of losing the rest of the sweep.
        for index, result in get_runner().run_keyed(jobs, on_error="collect").items():
            row = rows[index]
            if isinstance(result, JobFailure):
                row["error"] = f"{result.kind}: {result.error}"
            else:
                row.update(_metrics(result))
        return rows

    def render(self, rows: Optional[List[Dict[str, Any]]] = None) -> str:
        rows = self.run() if rows is None else rows
        if not rows:
            return "(no valid sweep points)"
        axis_names = [name for name, _ in self.axes]
        headers = axis_names + ["runtime_us", "latency_ns", "energy_uj"]
        table_rows = []
        for row in rows:
            cells = [str(row.get(name)) for name in axis_names]
            if "error" in row:
                # Invalid points (run(skip_invalid=False)) have no
                # metrics; show the reason instead of formatted NaNs.
                message = str(row["error"])
                if len(message) > 40:
                    message = message[:37] + "..."
                cells += [f"error: {message}", "-", "-"]
            else:
                cells += [
                    f"{row['runtime_us']:.2f}",
                    f"{row['latency_ns']:.1f}",
                    f"{row['energy_uj']:.2f}",
                ]
            table_rows.append(cells)
        return render_table(headers, table_rows, title=f"Sweep ({self.workload.name})")


def _metrics(result: SimResult) -> Dict[str, float]:
    return {
        "label": result.config_label,
        "runtime_us": result.runtime_ns / 1000.0,
        "latency_ns": result.mean_latency_ns,
        "row_hit_rate": result.row_hit_rate,
        "energy_uj": result.energy.total_pj / 1e6,
        "mean_hops": result.collector.request_hops.mean,
    }
