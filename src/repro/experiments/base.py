"""Shared plumbing for experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.runner import SimJob
from repro.workloads import PAPER_SUITE, WorkloadSpec

DEFAULT_REQUESTS = 2000

# The 12 baseline configurations of Fig 10 (chain/ring/tree x mixes).
BASELINE_CONFIGS = [
    "100%-C",
    "100%-R",
    "100%-T",
    "50%-C (NVM-L)",
    "50%-R (NVM-L)",
    "50%-T (NVM-L)",
    "50%-C (NVM-F)",
    "50%-R (NVM-F)",
    "50%-T (NVM-F)",
    "0%-C",
    "0%-R",
    "0%-T",
]

# The 12 proposed-topology configurations of Figs 11/12.
PROPOSED_CONFIGS = [
    "100%-T",
    "100%-SL",
    "100%-MC",
    "50%-T (NVM-L)",
    "50%-SL (NVM-L)",
    "50%-MC (NVM-L)",
    "50%-T (NVM-F)",
    "50%-SL (NVM-F)",
    "50%-MC (NVM-F)",
    "0%-T",
    "0%-SL",
    "0%-MC",
]

NORMALIZATION_BASELINE = "100%-C"


@dataclass
class ExperimentOutput:
    """The product of one experiment run."""

    experiment_id: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def __str__(self) -> str:  # pragma: no cover - convenience
        parts = [self.text]
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)

    def series(self) -> Dict[str, Dict[str, float]]:
        """The primary two-level {row: {column: value}} series, if any."""
        for key in ("speedups", "delta", "relative_energy", "grid", "breakdown"):
            value = self.data.get(key)
            if isinstance(value, dict) and value:
                first = next(iter(value.values()))
                if isinstance(first, dict):
                    return value  # type: ignore[return-value]
        return {}


def suite(workloads: Optional[Sequence[WorkloadSpec]] = None) -> List[WorkloadSpec]:
    """The workload list an experiment should run (defaults to all eight)."""
    if workloads is None:
        return list(PAPER_SUITE.values())
    return list(workloads)


def base_system(config: Optional[SystemConfig] = None) -> SystemConfig:
    return config if config is not None else SystemConfig()


def grid_jobs(
    configs: Mapping[Hashable, SystemConfig],
    workloads: Sequence[WorkloadSpec],
    requests: int,
) -> Dict[Tuple[Hashable, str], SimJob]:
    """Every config on every workload, keyed ``(config key, workload name)``."""
    return {
        (key, workload.name): SimJob(config, workload, requests)
        for workload in workloads
        for key, config in configs.items()
    }
