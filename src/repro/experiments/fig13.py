"""Fig 13 — sensitivity to the number of host ports (8 -> 4).

Halving the port count (fixed 2 TB) doubles the cubes per port and
concentrates the same system-level workload onto half the injectors:
each remaining port carries twice the request rate *and* twice the
request count, so total system work is held constant.

Paper shape: performance degrades across the board; linearly-growing
topologies (chain, ring) degrade fastest; MetaCubes are nearly flat;
all-NVM configurations degrade least (they are memory-latency-bound).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.analysis import column_means, render_speedups
from repro.config import SystemConfig, parse_label
from repro.experiments.base import (
    DEFAULT_REQUESTS,
    PROPOSED_CONFIGS,
    ExperimentOutput,
    base_system,
    suite,
)
from repro.runner import SimJob, get_runner
from repro.workloads import WorkloadSpec

LABELS = ["100%-C", "100%-R"] + PROPOSED_CONFIGS


def run(
    requests: int = DEFAULT_REQUESTS,
    workloads: Optional[Sequence[WorkloadSpec]] = None,
    base_config: Optional[SystemConfig] = None,
) -> ExperimentOutput:
    base = base_system(base_config)
    specs = suite(workloads)
    # Half the ports -> each must retire twice the requests for the
    # same total system work (the per-port rate scales inside the
    # workload generator).
    jobs = {}
    for workload in specs:
        for label in LABELS:
            config = parse_label(label, base)
            halved = config.with_(host=replace(config.host, num_ports=4))
            jobs[label, 8, workload.name] = SimJob(config, workload, requests)
            jobs[label, 4, workload.name] = SimJob(halved, workload, 2 * requests)
    results = get_runner().run_keyed(jobs)
    # The 8-port system serves `requests` per port in its runtime;
    # serving 2x requests at the same per-port throughput would take 2x
    # that, hence the factor.
    data: Dict[str, Dict[str, float]] = {
        w.name: {
            label: (
                results[label, 8, w.name].runtime_ps * 2
                / results[label, 4, w.name].runtime_ps
                - 1.0
            )
            * 100.0
            for label in LABELS
        }
        for w in specs
    }
    averages = column_means(data, LABELS)
    text = render_speedups(
        data,
        averages,
        title=(
            "Fig 13: speedup of a 4-port system over the 8-port baseline "
            "(2 TB, equal total work)"
        ),
    )
    return ExperimentOutput(
        experiment_id="fig13",
        title="Port-count sensitivity (4 vs 8 host ports)",
        text=text,
        data={"delta": data, "averages": averages},
        notes=(
            "Expected shape (paper): negative across the board; chain/ring "
            "worst (hop counts double), MetaCube nearly flat, all-NVM least "
            "affected."
        ),
    )
