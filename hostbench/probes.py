"""Timing probes around public ``repro`` functions, and the cProfile
layer rollup of the traced run.

A :class:`Probe` swaps a timing wrapper in for each named public
function while it is active and restores the original on exit, so no
file under ``src/`` changes.  The light probe (measured runs) times only
job boundaries: ``execute_job`` and ``ResultCache.get``.  The full probe
(traced runs) adds system build/run, job digests, cache puts, state
(de)serialization, the fleet fold and the runner entry points.

:func:`layer_rollup` buckets cProfile frames by the ``repro`` module
that owns them, as ``tools/profile_run.py`` does, but keyed by the layer
names in :data:`LAYERS`.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import repro
import repro.runner.cache as cache_module
import repro.runner.pool as pool_module
from repro.fleet import FleetResult
from repro.runner import ParallelRunner, ResultCache, SimJob
from repro.system import MemoryNetworkSystem

#: Per-layer metrics are reported for each of these ``repro`` modules
#: (a package name covers every module under it).
LAYERS = (
    "sim.engine",
    "net.router",
    "arbitration",
    "net.link",
    "net.buffers",
    "net.packet",
    "net.pool",
    "memory.controller",
    "memory.bank",
    "memory.cube",
    "host.port",
    "host.directory",
    "workloads.synthetic",
    "obs.attribution",
    "obs.tracing",
    "sim.stats",
    "results",
    "system",
    "runner.pool",
    "runner.job",
    "runner.cache",
    "serialization",
    "fleet",
)

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename: str) -> Optional[str]:
    """The layer owning a profiled frame's file, or None outside them."""
    if not filename.startswith(_PACKAGE_DIR):
        return None
    module = filename[len(_PACKAGE_DIR):]
    if module.endswith(".py"):
        module = module[:-3]
    dotted = module.replace(os.sep, ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    for layer in LAYERS:
        if dotted == layer or dotted.startswith(layer + "."):
            return layer
    return None


def layer_rollup(
    stats: pstats.Stats,
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Self seconds and call counts per layer, plus total self seconds."""
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    total = 0.0
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, _callers) in (
        stats.stats.items()
    ):
        total += tottime
        layer = layer_of(filename)
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
    return self_s, calls, total


class Probe:
    """Context manager timing calls through wrapped public functions.

    ``calls[key]`` and ``seconds[key]`` accumulate per wrapped function;
    ``samples[key]`` keeps the per-call durations of job-level keys.
    ``results`` collects what ``execute_job`` returned, in call order.
    """

    def __init__(self, full: bool = False) -> None:
        self.full = full
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.results: list = []
        self.cache_hits = 0
        self.requests = 0
        self.events = 0
        self.packets_acquired = 0
        self.packets_recycled = 0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _patch(
        self,
        owner: object,
        name: str,
        key: str,
        hook: Optional[Callable] = None,
    ) -> None:
        original = getattr(owner, name)
        calls, seconds = self.calls, self.seconds

        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = original(*args, **kwargs)
            elapsed = perf_counter() - start
            calls[key] += 1
            seconds[key] += elapsed
            if hook is not None:
                hook(elapsed, args, out)
            return out

        # Read from __dict__ so a restored class attribute is the exact
        # object that was there (not a bound or inherited lookup).
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _on_execute(self, elapsed: float, _args, result) -> None:
        self.samples["execute"].append(elapsed)
        self.results.append(result)

    def _on_get(self, elapsed: float, _args, result) -> None:
        if result is not None:
            self.cache_hits += 1
            self.samples["cache.hit"].append(elapsed)

    def _on_run(self, _elapsed: float, args, result) -> None:
        system = args[0]
        self.requests += system.requests
        self.events += result.events_processed
        self.packets_acquired += system.packet_pool.acquired
        self.packets_recycled += system.packet_pool.recycled

    def __enter__(self) -> "Probe":
        self._patch(pool_module, "execute_job", "execute", self._on_execute)
        self._patch(ResultCache, "get", "cache.get", self._on_get)
        if self.full:
            self._patch(MemoryNetworkSystem, "__init__", "system.build")
            self._patch(MemoryNetworkSystem, "run", "system.run", self._on_run)
            self._patch(SimJob, "digest", "job.digest")
            self._patch(ResultCache, "put", "cache.put")
            self._patch(cache_module, "result_from_state", "decode")
            self._patch(cache_module, "result_to_state", "encode")
            self._patch(FleetResult, "fold", "fleet.fold")
            self._patch(ParallelRunner, "run", "runner")
            self._patch(ParallelRunner, "run_fold", "runner")
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def mean(self, key: str, scale: float = 1.0) -> float:
        """Mean seconds per call of ``key`` times ``scale`` (0 if uncalled)."""
        count = self.calls.get(key, 0)
        return self.seconds[key] / count * scale if count else 0.0

    def dispatch_share(self) -> float:
        """Share of runner wall time spent outside jobs, cache and fold."""
        runner = self.seconds.get("runner", 0.0)
        if runner <= 0.0:
            return 0.0
        inner = sum(
            self.seconds.get(key, 0.0)
            for key in ("execute", "cache.get", "cache.put", "fleet.fold")
        )
        return max(runner - inner, 0.0) / runner
