"""Shared fixtures: small, fast system configurations and run helpers."""

from __future__ import annotations

from typing import Optional, Tuple

import pytest

from repro.config import SystemConfig
from repro.results import SimResult
from repro.runner import ParallelRunner
from repro.sim.engine import Engine
from repro.system import MemoryNetworkSystem
from repro.units import GIB_BYTES
from repro.workloads import WorkloadSpec


def small_config(**overrides) -> SystemConfig:
    """A fast 8-cube-per-port all-DRAM system (1 TiB total, 8 ports).

    With the default 16 GiB DRAM / 64 GiB NVM cubes this supports the
    mixes used in tests: 100% -> 8 DRAM, 50% -> 4 DRAM + 1 NVM,
    0% -> 2 NVM cubes per port.
    """
    defaults = dict(total_capacity_bytes=1024 * GIB_BYTES)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def fast_workload(**overrides) -> WorkloadSpec:
    defaults = dict(
        name="TEST",
        read_fraction=0.6,
        mean_gap_ns=2.0,
        locality_lines=4.0,
        mlp=16,
        burst_size=4.0,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


def create_all_banks(*controllers) -> None:
    """Build every bank of ``controllers`` up front.

    Controllers create banks on first touch; this reproduces a controller
    that builds them all at construction, the reference lazy banks must
    match bit for bit.
    """
    for controller in controllers:
        for index in range(len(controller.banks)):
            controller.bank(index)


def run_system(
    config: Optional[SystemConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    requests: int = 200,
    engine: Optional[Engine] = None,
    audit: Optional[bool] = None,
) -> Tuple[MemoryNetworkSystem, SimResult]:
    """Build and run one system directly (no ambient-runner memoization).

    Returns ``(system, result)`` so tests can inspect internals after
    the run.  ``audit=None`` follows the ambient repro.check flag, so
    the whole suite can be re-run audited via ``REPRO_AUDIT=1``.
    """
    system = MemoryNetworkSystem(
        config if config is not None else small_config(),
        workload if workload is not None else fast_workload(),
        requests=requests,
        engine=engine,
        audit=audit,
    )
    return system, system.run()


def run_sim(
    config: Optional[SystemConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    requests: int = 200,
    **kwargs,
) -> SimResult:
    """:func:`run_system` for tests that only need the result."""
    return run_system(config, workload, requests, **kwargs)[1]


def run_via_fold(runner, batch, on_error: str = "raise") -> list:
    """``runner.run_fold`` with a fold that collects into a list, shaped
    like ``runner.run``'s output: each input position holds its result
    or its :class:`~repro.runner.JobFailure` row."""
    collected = []
    rows = runner.run_fold(
        batch,
        lambda index, job, result: collected.append((index, result)),
        on_error=on_error,
    )
    for index, result in collected:
        assert rows[index] is None, f"position {index} delivered twice"
        rows[index] = result
    assert all(row is not None for row in rows), "a position was never folded"
    return rows


#: The runner's two entry points, for contract tests that must hold for
#: both (``resolve(runner, batch, on_error=...)``).
RUNNER_ENTRY_POINTS = {"run": ParallelRunner.run, "run_fold": run_via_fold}


@pytest.fixture(params=sorted(RUNNER_ENTRY_POINTS))
def resolve(request):
    return RUNNER_ENTRY_POINTS[request.param]


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def workload() -> WorkloadSpec:
    return fast_workload()
