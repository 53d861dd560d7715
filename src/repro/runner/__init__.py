"""Run orchestration: parallel experiment execution + result memoization.

The paper's evaluation is a pile of design-space sweeps whose points are
independent simulations, many of them shared between figures (every
speedup grid normalizes to the ``100%-C`` round-robin baseline).  This
package turns that structure into wall-clock wins:

* :class:`SimJob` — one simulation as a frozen value with a stable
  content digest,
* :class:`ResultCache` — digest-addressed memoization, in memory and
  optionally on disk,
* :class:`ParallelRunner` — deduplicating batch executor over a process
  pool (``jobs=1`` falls back to a serial in-process loop).

See ``docs/performance.md`` for usage and cache layout.
"""

from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.job import SimJob, canonical_json, canonical_tree, digest_tree
from repro.runner.pool import (
    JobFailure,
    ParallelRunner,
    configure_runner,
    execute_job,
    get_runner,
    reset_runner,
    using_runner,
)

__all__ = [
    "CACHE_DIR_ENV",
    "JobFailure",
    "ParallelRunner",
    "ResultCache",
    "SimJob",
    "canonical_json",
    "canonical_tree",
    "configure_runner",
    "default_cache_dir",
    "digest_tree",
    "execute_job",
    "get_runner",
    "reset_runner",
    "using_runner",
]
