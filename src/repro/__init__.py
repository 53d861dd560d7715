"""repro — a reproduction of "There and Back Again: Optimizing the
Interconnect in Networks of Memory Cubes" (ISCA 2017).

Quickstart
----------
>>> from repro import SystemConfig, simulate, get_workload
>>> config = SystemConfig(topology="tree")
>>> result = simulate(config, get_workload("KMEANS"), requests=500)
>>> result.runtime_ns > 0
True

The public surface:

* :class:`SystemConfig` / :func:`parse_label` — configure an MN using
  the paper's own notation (``"50%-T (NVM-L)"``);
* :func:`simulate` / :class:`MemoryNetworkSystem` — run one workload;
* :mod:`repro.workloads` — the eight-workload paper suite and custom
  trace support;
* :mod:`repro.experiments` — regenerate every table and figure.
"""

from repro.config import (
    ARBITER_AGE,
    ARBITER_DISTANCE,
    ARBITER_DISTANCE_ENHANCED,
    ARBITER_GLOBAL_WEIGHTED,
    ARBITER_ROUND_ROBIN,
    NVM_FIRST,
    NVM_LAST,
    TOPOLOGY_CHAIN,
    TOPOLOGY_METACUBE,
    TOPOLOGY_RING,
    TOPOLOGY_SKIPLIST,
    TOPOLOGY_TREE,
    LinkConfig,
    MemTechConfig,
    PacketConfig,
    SystemConfig,
    dram_tech,
    nvm_tech,
    parse_label,
)
from repro.fleet import (
    FleetConfig,
    FleetResult,
    Tenant,
    run_fleet,
    uniform_fleet,
)
from repro.results import EnergyReport, LatencyBreakdown, SimResult, speedup_percent
from repro.system import MemoryNetworkSystem, simulate
from repro.workloads import (
    PAPER_SUITE,
    Request,
    SyntheticWorkload,
    Trace,
    TraceWorkload,
    WorkloadSpec,
    get_workload,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "LinkConfig",
    "PacketConfig",
    "MemTechConfig",
    "dram_tech",
    "nvm_tech",
    "parse_label",
    "MemoryNetworkSystem",
    "simulate",
    "FleetConfig",
    "FleetResult",
    "Tenant",
    "run_fleet",
    "uniform_fleet",
    "SimResult",
    "EnergyReport",
    "LatencyBreakdown",
    "speedup_percent",
    "WorkloadSpec",
    "Request",
    "SyntheticWorkload",
    "Trace",
    "TraceWorkload",
    "PAPER_SUITE",
    "get_workload",
    "workload_names",
    "TOPOLOGY_CHAIN",
    "TOPOLOGY_RING",
    "TOPOLOGY_TREE",
    "TOPOLOGY_SKIPLIST",
    "TOPOLOGY_METACUBE",
    "NVM_FIRST",
    "NVM_LAST",
    "ARBITER_ROUND_ROBIN",
    "ARBITER_DISTANCE",
    "ARBITER_DISTANCE_ENHANCED",
    "ARBITER_AGE",
    "ARBITER_GLOBAL_WEIGHTED",
    "__version__",
]
