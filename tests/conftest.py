"""Shared fixtures: small, fast system configurations and run helpers."""

from __future__ import annotations

import importlib.util
from typing import Optional, Tuple

import pytest

from repro.config import HostConfig, SystemConfig
from repro.results import SimResult
from repro.serialization import result_digest
from repro.sim import native
from repro.sim.engine import Engine
from repro.system import MemoryNetworkSystem
from repro.units import GIB_BYTES
from repro.workloads import WorkloadSpec

if importlib.util.find_spec("pytest_timeout") is None:
    # pytest-timeout is a CI-only dependency; register its `timeout`
    # ini option as an inert fallback so the pyproject setting does not
    # warn (or enforce anything) on machines without the plugin.
    def pytest_addoption(parser):
        parser.addini(
            "timeout",
            "per-test timeout in seconds (enforced only with pytest-timeout)",
            default=None,
        )


#: Scheduler backends usable here: the heap oracle always, plus the
#: compiled engine when it is built (cross-engine tests run every leg
#: in this tuple, so the native leg skips cleanly without the build).
BUILT_SCHEDULERS = ("heap", "native") if native.available() else ("heap",)


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


def sim_digest(
    config: Optional[SystemConfig] = None,
    workload: Optional[WorkloadSpec] = None,
    requests: int = 150,
    scheduler: str = "heap",
    **kwargs,
) -> Tuple[str, int]:
    """Lossless result digest + event count of one direct run."""
    _, result = run_system(
        config, workload, requests, engine=Engine(scheduler), **kwargs
    )
    return result_digest(result), result.events_processed


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def workload() -> WorkloadSpec:
    return fast_workload()
