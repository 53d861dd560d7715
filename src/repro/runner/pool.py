"""Batch execution of simulation jobs with optional process parallelism.

:class:`ParallelRunner` takes a batch of :class:`SimJob`\\ s and

1. deduplicates identical jobs (same content digest),
2. satisfies what it can from its :class:`ResultCache`,
3. executes the remainder — serially when ``jobs <= 1`` (deterministic,
   spawn-safe, no pool overhead) or over a
   :class:`concurrent.futures.ProcessPoolExecutor` otherwise,

and returns results in input order.  Per-job seeds derive from the
config's root seed (see :func:`repro.sim.derive_seed`), so serial and
parallel execution produce bit-identical results; the determinism tests
assert this via :func:`repro.serialization.result_digest`.

Robustness (the RAS PR's runner hardening):

* every completed job is written to the cache *immediately*, so a sweep
  killed half-way resumes from the cached partials — only uncached jobs
  re-run;
* a crashed worker (``BrokenProcessPool``) respawns the pool and retries
  the in-flight jobs once (with backoff) instead of aborting the batch;
* ``job_timeout_s`` arms a watchdog: a job that exceeds it has its pool
  torn down (hung workers are terminated), innocent in-flight jobs are
  requeued, and the overdue job becomes a structured failure;
* ``run(batch, on_error="collect")`` converts failures into
  :class:`JobFailure` rows aligned with the input order rather than
  losing the rest of the batch; the default ``on_error="raise"`` still
  raises, as a :class:`repro.errors.RunnerError` carrying the failing
  job's digest and config summary.

``run_fold`` is the streaming sibling of ``run`` for fleet-scale
batches (:mod:`repro.fleet`): results are handed to a commutative fold
callback the moment they complete — cache hits included — and then
evicted from the cache's memory layer (when a disk layer holds them),
so a thousand-shard batch never materializes a thousand results in one
process.  Both are thin wrappers over one resolution loop
(:meth:`ParallelRunner._resolve`) that differ only in what they do
with each delivered result.

``run_keyed`` is ``run`` over a ``{key: job}`` mapping: the one way an
experiment or a :class:`repro.sweep.Sweep` batches its simulations.

A module-level *ambient* runner lets high-level entry points
(:func:`repro.system.simulate`, sweeps, the experiments) share one
cache and one worker-count policy without threading a runner argument
everywhere.  The experiments CLI configures it from ``--jobs`` /
``--cache-dir`` / ``--no-cache``.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, TypeVar, Union

from repro.errors import RunnerError
from repro.results import SimResult
from repro.runner.cache import ResultCache
from repro.runner.job import SimJob

K = TypeVar("K")

#: Extra attempts granted to jobs whose worker pool broke under them.
POOL_RETRIES = 1

#: Backoff before respawning a broken pool (seconds, scaled by attempt).
POOL_RESPAWN_BACKOFF_S = 0.25

#: Chunk-size ceiling: a worker round-trip returns at most this many
#: results at once, so a streaming fold
#: (:meth:`ParallelRunner.run_fold`) holds at most one chunk of results
#: per worker and peak resident memory stays independent of batch size.
FOLD_CHUNK_CAP = 16

#: Placeholder recorded for a result that was delivered (and, in a
#: streaming fold, released) instead of retained.
_FOLDED = object()

def execute_job(job: SimJob) -> SimResult:
    """Run one job to completion (top-level so it pickles to workers)."""
    from repro.system import MemoryNetworkSystem

    system = MemoryNetworkSystem(job.config, job.workload, requests=job.requests)
    try:
        return system.run()
    finally:
        system.close()


def _worker_init() -> None:
    """Pool initializer: pay the heavy imports once per worker process
    instead of on the first job each worker receives."""
    import repro.system  # noqa: F401


def _new_pool(workers: int) -> ProcessPoolExecutor:
    """A worker pool whose processes pre-import the simulator."""
    return ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)


def execute_chunk(jobs: Sequence[SimJob]) -> List[tuple]:
    """Run a slice of a batch in one worker round-trip.

    One submit/result cycle per *chunk* instead of per job amortizes the
    future bookkeeping and pickling that dominated small parallel sweeps.
    Failures are captured per job — ``('ok', result)`` or
    ``('error', "Type: message")`` — so one bad job cannot take down its
    chunk-mates.
    """
    out: List[tuple] = []
    for job in jobs:
        try:
            out.append(("ok", execute_job(job)))
        except Exception as exc:  # noqa: BLE001 - reported per job
            out.append(("error", f"{type(exc).__name__}: {exc}"))
    return out


@dataclass
class JobFailure:
    """Structured record of a job that could not produce a result.

    ``kind`` is ``"exception"`` (the simulation raised), ``"timeout"``
    (exceeded ``job_timeout_s``), or ``"pool"`` (its worker pool broke
    repeatedly).  Returned in place of a :class:`SimResult` by
    ``run(..., on_error="collect")``.
    """

    digest: str
    label: str
    error: str
    kind: str = "exception"
    attempts: int = 1
    #: Jobs of the same batch that completed and were checkpointed to
    #: the cache — what a rerun of the identical batch will *not* repeat.
    checkpointed: int = 0

    def to_error(self) -> RunnerError:
        return RunnerError(
            f"job {self.label} (digest {self.digest[:12]}) failed "
            f"[{self.kind}, {self.attempts} attempt(s)]: {self.error}; "
            f"{self.checkpointed} job(s) from the batch are checkpointed "
            "(a rerun resumes from the cache)"
        )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a pool, reclaiming hung workers.

    ``shutdown(wait=False)`` alone would leave a stuck worker joined at
    interpreter exit; terminating the processes is the only way to take
    back a job that will never finish.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    try:  # private, but there is no public kill switch
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
    except Exception:  # pragma: no cover - best-effort cleanup
        pass


class ParallelRunner:
    """Cache-aware, deduplicating batch executor for simulation jobs."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        job_timeout_s: Optional[float] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        # A fresh memory-only cache when none is shared in; callers that
        # want cross-runner reuse pass the ambient runner's cache.
        self.cache = ResultCache() if cache is None else cache
        # Watchdog ceiling per job; only enforceable with worker
        # processes (the serial path cannot preempt itself).
        self.job_timeout_s = job_timeout_s
        self.simulations_run = 0

    # ------------------------------------------------------------------
    def run_one(self, job: SimJob) -> SimResult:
        return self.run([job])[0]

    def run(
        self,
        batch: Sequence[SimJob],
        on_error: str = "raise",
    ) -> List[Union[SimResult, JobFailure]]:
        """Execute a batch; returns results aligned with the input order.

        Completed jobs hit the cache the moment they finish — an
        interrupted batch leaves its partial results behind as a
        checkpoint.  With ``on_error="collect"`` failed jobs yield
        :class:`JobFailure` rows; with the default ``"raise"`` the whole
        batch still executes (checkpointing the successes), then the
        first failure in input order is raised as a
        :class:`~repro.errors.RunnerError`.
        """
        out: List[Union[SimResult, JobFailure, None]] = [None] * len(batch)

        def deliver(digest: str, indices: List[int], result: SimResult) -> None:
            for index in indices:
                out[index] = result

        failures = self._resolve(batch, on_error, deliver)
        for index, failure in enumerate(failures):
            if failure is not None:
                out[index] = failure
        return out  # type: ignore[return-value]

    def run_keyed(
        self,
        jobs: Mapping[K, SimJob],
        on_error: str = "raise",
    ) -> Dict[K, Union[SimResult, JobFailure]]:
        """Execute ``{key: job}`` as one batch; returns ``{key: result}``.

        How experiments run their simulations: keys are whatever names
        a point natively (``("100%-T", 256)``, ``(leg, factor)``), keys
        that share a job share its result object, and ``on_error``
        works as in :meth:`run`.
        """
        return dict(zip(jobs, self.run(list(jobs.values()), on_error)))

    def run_fold(
        self,
        batch: Sequence[SimJob],
        fold,
        on_error: str = "raise",
    ) -> List[Optional[JobFailure]]:
        """Execute a batch, streaming each result into ``fold`` instead
        of returning it.

        ``fold(index, job, result)`` is invoked once per *input
        position* (duplicate digests fold the shared result once per
        occurrence) in completion order, which is not deterministic
        under parallel execution — folds must therefore be commutative
        (see :class:`repro.sim.stats.TailAccumulator`).  After a digest's
        positions are folded, its entry is evicted from the cache's
        memory layer (kept on disk when a disk layer is configured), so
        peak resident memory is bounded by the in-flight worker chunks,
        not by the batch size.  With a memory-only cache the entries are
        retained — evicting them would silently forfeit warm replay.

        Caching, dedup, checkpointing, the watchdog, and the
        ``on_error`` contract all match :meth:`run`; the return value is
        aligned with the input, ``None`` for folded jobs and
        :class:`JobFailure` rows under ``on_error="collect"``.
        """

        def deliver(digest: str, indices: List[int], result: SimResult) -> None:
            for index in indices:
                fold(index, batch[index], result)
            if self.cache.persistent:
                self.cache.drop_memory(digest)

        return self._resolve(batch, on_error, deliver)

    def _resolve(
        self,
        batch: Sequence[SimJob],
        on_error: str,
        deliver,
    ) -> List[Optional[JobFailure]]:
        """The one dedup / cache / checkpoint loop behind both entry points.

        Each distinct digest is resolved once — from the cache, else by
        simulation — and handed to ``deliver(digest, indices, result)``
        with every input position that carries it.  Returns the failure
        of each input position (``None`` where a result was delivered),
        each stamped with the batch's checkpoint count so the error (or
        collected row) says how much a rerun will skip; under
        ``on_error="raise"`` the first failure in input order is raised
        instead.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(f"on_error must be 'raise' or 'collect', not {on_error!r}")
        digests = [job.digest() for job in batch]
        positions: Dict[str, List[int]] = {}
        for index, digest in enumerate(digests):
            positions.setdefault(digest, []).append(index)

        def sink(digest: str, result: SimResult) -> None:
            deliver(digest, positions[digest], result)

        # digest -> None (pending), _FOLDED (delivered) or JobFailure
        results: Dict[str, object] = {}
        pending: List[SimJob] = []
        for digest, indices in positions.items():
            cached = self.cache.get(digest)
            if cached is not None:
                results[digest] = _FOLDED
                deliver(digest, indices, cached)
            else:
                results[digest] = None  # reserve the slot
                pending.append(batch[indices[0]])
        if pending:
            self._execute(pending, results, sink)
            self.simulations_run += sum(
                1 for job in pending if results[job.digest()] is _FOLDED
            )
        checkpointed = sum(1 for value in results.values() if value is _FOLDED)
        for value in results.values():
            if isinstance(value, JobFailure):
                value.checkpointed = checkpointed
        out: List[Optional[JobFailure]] = []
        for digest in digests:
            value = results[digest]
            if isinstance(value, JobFailure):
                if on_error == "raise":
                    raise value.to_error()
                out.append(value)
            else:
                out.append(None)
        return out

    # ------------------------------------------------------------------
    def _complete(
        self,
        results: Dict[str, object],
        job: SimJob,
        result: SimResult,
        sink,
    ) -> None:
        """Record a success, checkpoint it to the cache immediately and
        hand it to ``sink``; only a placeholder is retained."""
        digest = job.digest()
        self.cache.put(digest, result)
        results[digest] = _FOLDED
        sink(digest, result)

    @staticmethod
    def _fail(
        results: Dict[str, object],
        job: SimJob,
        error: str,
        kind: str,
        attempts: int,
    ) -> None:
        results[job.digest()] = JobFailure(
            digest=job.digest(),
            label=job.label(),
            error=error,
            kind=kind,
            attempts=attempts,
        )

    def _execute(
        self,
        pending: List[SimJob],
        results: Dict[str, object],
        sink,
    ) -> None:
        workers = min(self.jobs, len(pending))
        if workers <= 1:
            for job in pending:
                try:
                    result = execute_job(job)
                except Exception as exc:  # noqa: BLE001 - reported per job
                    self._fail(results, job, f"{type(exc).__name__}: {exc}",
                               "exception", 1)
                else:
                    self._complete(results, job, result, sink)
            return
        self._execute_parallel(pending, results, workers, sink)

    def _chunk_size(self, pending_count: int, workers: int) -> int:
        """Jobs per worker round-trip.

        Four chunks per worker balances pickling amortization against
        tail imbalance (a worker stuck with the one slow chunk).  The
        watchdog needs per-job starts, so an armed ``job_timeout_s``
        forces single-job chunks.  The chunk is capped at
        :data:`FOLD_CHUNK_CAP` so the per-chunk result list — the only
        place a streaming fold holds multiple results at once — stays
        bounded regardless of batch size.
        """
        if self.job_timeout_s is not None:
            return 1
        return min(max(1, -(-pending_count // (workers * 4))), FOLD_CHUNK_CAP)

    def _requeue_broken(
        self,
        chunk: List[SimJob],
        queue: deque,
        attempts: Dict[str, int],
        results: Dict[str, object],
    ) -> None:
        """Retry policy for a chunk whose pool broke underneath it.

        Any member may have been the killer, so each is retried alone —
        a poison job then fails only itself on the second break.
        """
        for job in chunk:
            digest = job.digest()
            if attempts[digest] <= POOL_RETRIES:
                queue.append([job])
            else:
                self._fail(
                    results, job,
                    "worker pool broke (worker died mid-job)",
                    "pool", attempts[digest],
                )

    def _execute_parallel(
        self,
        pending: List[SimJob],
        results: Dict[str, object],
        workers: int,
        sink,
    ) -> None:
        attempts: Dict[str, int] = {job.digest(): 0 for job in pending}
        size = self._chunk_size(len(pending), workers)
        queue: deque = deque(
            pending[i:i + size] for i in range(0, len(pending), size)
        )
        pool = _new_pool(workers)
        running: Dict[object, tuple] = {}  # future -> (chunk, start_monotonic)
        try:
            while queue or running:
                while queue and len(running) < workers:
                    chunk = queue.popleft()
                    for job in chunk:
                        attempts[job.digest()] += 1
                    future = pool.submit(execute_chunk, chunk)
                    running[future] = (chunk, time.monotonic())
                timeout = None
                if self.job_timeout_s is not None:
                    deadline = min(
                        start + self.job_timeout_s for _, start in running.values()
                    )
                    timeout = max(deadline - time.monotonic(), 0.0)
                done, _ = wait(
                    set(running), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    pool = self._reap_overdue(pool, workers, running, queue,
                                              attempts, results)
                    continue
                broken = False
                for future in done:
                    chunk, _start = running.pop(future)
                    try:
                        statuses = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._requeue_broken(chunk, queue, attempts, results)
                    except Exception as exc:  # noqa: BLE001 - chunk transport
                        # execute_chunk catches per-job errors, so this is
                        # the round-trip itself (e.g. unpicklable result).
                        for job in chunk:
                            self._fail(results, job,
                                       f"{type(exc).__name__}: {exc}",
                                       "exception", attempts[job.digest()])
                    else:
                        for job, (status, payload) in zip(chunk, statuses):
                            if status == "ok":
                                self._complete(results, job, payload, sink)
                            else:
                                self._fail(results, job, payload,
                                           "exception", attempts[job.digest()])
                if broken:
                    # Every in-flight future is doomed with the pool;
                    # drain them under the same retry policy, then respawn.
                    for future, (chunk, _start) in list(running.items()):
                        self._requeue_broken(chunk, queue, attempts, results)
                    running.clear()
                    _kill_pool(pool)
                    time.sleep(POOL_RESPAWN_BACKOFF_S)
                    pool = _new_pool(workers)
        finally:
            _kill_pool(pool)

    def _reap_overdue(
        self,
        pool: ProcessPoolExecutor,
        workers: int,
        running: Dict[object, tuple],
        queue: deque,
        attempts: Dict[str, int],
        results: Dict[str, object],
    ) -> ProcessPoolExecutor:
        """The watchdog fired: fail overdue jobs, requeue the innocent.

        A hung worker cannot be preempted, so the whole pool is torn
        down (terminating its processes) and respawned.  Jobs that were
        merely sharing the pool do not lose an attempt.  An armed
        watchdog forces single-job chunks (:meth:`_chunk_size`), so each
        in-flight chunk is exactly one job here.
        """
        now = time.monotonic()
        for future, (chunk, start) in list(running.items()):
            if future.done():
                continue  # completed while we were deciding; next wait() reaps it
            if now - start >= self.job_timeout_s:
                # Deterministic simulations do not hang transiently:
                # retrying would hang again, so time-outs fail outright.
                for job in chunk:
                    self._fail(
                        results, job,
                        f"exceeded job timeout of {self.job_timeout_s:g}s",
                        "timeout", attempts[job.digest()],
                    )
                del running[future]
            else:
                for job in chunk:
                    attempts[job.digest()] -= 1  # innocent victim of teardown
                queue.append(chunk)
                del running[future]
        _kill_pool(pool)
        return _new_pool(workers)


# ---------------------------------------------------------------------------
# Ambient runner
# ---------------------------------------------------------------------------
_ambient: Optional[ParallelRunner] = None


def get_runner() -> ParallelRunner:
    """The process-wide runner, created lazily (serial, memory cache)."""
    global _ambient
    if _ambient is None:
        _ambient = ParallelRunner()
    return _ambient


def configure_runner(
    jobs: int = 1,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    persistent: bool = False,
    job_timeout_s: Optional[float] = None,
) -> ParallelRunner:
    """Replace the ambient runner (used by CLIs and benchmarks).

    ``persistent=True`` turns on the disk layer at ``cache_dir`` (or the
    default location, see :func:`repro.runner.cache.default_cache_dir`).
    The in-memory layer is always active.
    """
    from repro.runner.cache import default_cache_dir

    global _ambient
    directory = None
    if persistent:
        directory = cache_dir if cache_dir is not None else default_cache_dir()
    _ambient = ParallelRunner(
        jobs=jobs, cache=ResultCache(directory), job_timeout_s=job_timeout_s
    )
    return _ambient


def reset_runner() -> None:
    """Drop the ambient runner (next :func:`get_runner` recreates it)."""
    global _ambient
    _ambient = None


@contextlib.contextmanager
def using_runner(runner: ParallelRunner) -> Iterator[ParallelRunner]:
    """Temporarily swap the ambient runner (tests, nested harnesses)."""
    global _ambient
    previous = _ambient
    _ambient = runner
    try:
        yield runner
    finally:
        _ambient = previous
