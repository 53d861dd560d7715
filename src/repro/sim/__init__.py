"""Discrete-event simulation kernel.

The kernel is deliberately small: an integer-picosecond clock, a heap
of ``(time, sequence, callback)`` entries (see :mod:`repro.sim.engine`),
and deterministic tie-breaking by insertion order.  All higher-level
components (links, routers, memory controllers, hosts) are implemented
as callbacks over this kernel.
"""

from repro.sim.engine import Engine
from repro.sim.random import RandomStream, derive_seed
from repro.sim.stats import Histogram, RunningStat

__all__ = [
    "Engine",
    "RandomStream",
    "derive_seed",
    "Histogram",
    "RunningStat",
]
