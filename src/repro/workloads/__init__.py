"""Workload generation: synthetic proxies, traces, and the paper suite."""

from repro.workloads.base import Request, WorkloadSpec
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import Trace, TraceWorkload
from repro.workloads.suite import PAPER_SUITE, get_workload, workload_names

__all__ = [
    "Request",
    "WorkloadSpec",
    "SyntheticWorkload",
    "Trace",
    "TraceWorkload",
    "PAPER_SUITE",
    "get_workload",
    "workload_names",
]
