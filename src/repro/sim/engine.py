"""Event scheduler with an integer picosecond clock.

Two schedulers live behind one API:

* ``heap`` (the default) — a single binary heap (``heapq``) over every
  pending event.  It is the determinism oracle the native backend is
  checked against.
* ``native`` — the compiled C scheduler (:mod:`repro.sim.native`),
  optional and built in-tree; ``Engine("native")`` hands back its
  ``NativeEngine`` type.

Events are ``(time, sequence, callback, args)`` tuples ordered by time
and, for equal times, by scheduling order — bit-identical results
regardless of scheduler.  The scheduler choice is therefore *not* part
of any job digest (see :mod:`repro.runner.job`); it may be picked
ambiently via the ``REPRO_ENGINE`` environment variable, which also
reaches runner worker processes.
"""

from __future__ import annotations

import os
import sys
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Valid scheduler names, in documentation order.
SCHEDULERS = ("heap", "native")

#: Environment variable selecting the ambient default scheduler (used
#: when an Engine is built without an explicit choice — including the
#: engines built inside runner worker processes).
ENGINE_ENV = "REPRO_ENGINE"

_NO_ARGS: tuple = ()

#: Event limit of a run without ``max_events``: never reached.
_NO_LIMIT = sys.maxsize


def backend_status() -> str:
    """One line naming the valid backends and whether the compiled one
    is built here — appended to every unknown-backend error."""
    from repro.sim import native

    built = "extension built" if native.available() else "extension not built"
    return f"valid backends: 'heap', 'native' ({built})"


def default_scheduler() -> str:
    """The ambient scheduler: ``$REPRO_ENGINE``, else ``heap``."""
    env = os.environ.get(ENGINE_ENV)
    if not env:
        return "heap"
    if env not in SCHEDULERS:
        raise SimulationError(
            f"unknown {ENGINE_ENV}={env!r}; " + backend_status()
        )
    return env


_ambient_native_warned = False


def _ambient_native_fallback() -> None:
    """Warn once when ``REPRO_ENGINE=native`` is set but the compiled
    extension is not built; the run proceeds on ``heap``.  An env var
    set fleet-wide must not break machines without a compiler — only an
    *explicit* ``Engine("native")`` raises."""
    global _ambient_native_warned
    if _ambient_native_warned:
        return
    _ambient_native_warned = True
    import warnings

    from repro.sim.native import BUILD_HINT

    warnings.warn(
        f"{ENGINE_ENV}=native but the compiled engine is not built; "
        "falling back to the 'heap' scheduler — " + BUILD_HINT,
        RuntimeWarning,
        stacklevel=3,
    )


def _limit_error(max_events: int, now: int) -> SimulationError:
    return SimulationError(
        f"event limit {max_events} exceeded at t={now}; likely livelock"
    )


class Engine:
    """A deterministic discrete-event scheduler.

    Example
    -------
    >>> engine = Engine()
    >>> fired = []
    >>> engine.schedule(5, lambda eng: fired.append(eng.now))
    >>> engine.run()
    >>> fired
    [5]
    """

    __slots__ = (
        "_heap",
        "now",
        "_seq",
        "_pending",
        "_events_processed",
        "_running",
        "_tracer",
        "_stop",
        "scheduler",
    )

    def __new__(cls, scheduler: Optional[str] = None):
        # ``Engine("native")`` builds the compiled C scheduler.  The
        # native type is not an Engine subclass, so returning it skips
        # ``__init__`` entirely — exactly the duck-typed hand-off the
        # runner and system expect.
        choice = scheduler if scheduler is not None else default_scheduler()
        if choice == "native":
            from repro.sim import native

            if scheduler is not None or native.available():
                return native.load().NativeEngine()
            # Ambient selection falls back to heap (with one warning).
            _ambient_native_fallback()
        return object.__new__(cls)

    def __init__(self, scheduler: Optional[str] = None) -> None:
        # __new__ already resolved an ambient choice (``None``) to heap
        # or handed back a native engine; any other name is unknown.
        if scheduler not in (None, "heap"):
            raise SimulationError(
                f"unknown scheduler backend {scheduler!r}; " + backend_status()
            )
        self.scheduler = "heap"
        self._heap: list = []
        self.now: int = 0
        self._seq: int = 0
        self._pending: int = 0
        self._events_processed: int = 0
        self._running = False
        self._tracer = None
        # request_stop() latch: consumed (cleared) by the run loop when
        # it honors the request, NOT cleared at run() entry — a stop
        # requested before run() begins (the zero-request edge) stops
        # the run after its first event.
        self._stop = False

    def request_stop(self) -> None:
        """Stop the active :meth:`run` once the event now dispatching
        completes.

        Callers flip it from *inside* an event callback (the system
        does, when the last transaction completes); the loop honors it
        after that event, so the stopping event is deterministic and no
        per-event predicate call is paid.
        """
        self._stop = True

    def set_tracer(self, tracer) -> None:
        """Record every event dispatch into ``tracer`` (repro.obs).

        Tracing swaps :meth:`run` onto a separate dispatch loop; with no
        tracer attached the hot loops are untouched (one ``None`` check
        per *run call*, not per event — the zero-overhead guard).
        """
        self._tracer = tracer

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue."""
        return self._pending

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(engine, *args)`` after ``delay`` ps."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} scheduled at t={self.now}")
        heappush(self._heap, (self.now + delay, self._seq, callback, args))
        self._seq += 1
        self._pending += 1

    def schedule_at(self, time: int, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(engine, *args)`` at absolute ``time`` ps."""
        if time < self.now:
            raise SimulationError(
                f"event scheduled in the past: t={time} < now={self.now}"
            )
        heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1
        self._pending += 1

    def schedule_bound(
        self, delay: int, callback: Callable, args: tuple = _NO_ARGS
    ) -> None:
        """Fast-path schedule for pre-validated callers.

        Skips the negative-delay branch and takes ``args`` as an already
        built tuple, letting hot components pool and reuse argument
        tuples instead of having them re-packed per call.  Callers must
        guarantee ``delay >= 0``.
        """
        heappush(self._heap, (self.now + delay, self._seq, callback, args))
        self._seq += 1
        self._pending += 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """Run until the queue drains, ``until`` is reached, or a limit hits.

        Parameters
        ----------
        until:
            Absolute time bound (inclusive).  Events scheduled later stay
            queued and ``now`` advances to ``until``.
        max_events:
            Safety valve against runaway simulations: raises once this
            many events ran and work that would run is still queued (a
            budget that is reached exactly, or that ends in a stop
            request, is not exceeded).

        Returns the number of events processed during this call.  An
        event counts as processed once it leaves the queue, so when a
        callback (or the tracer) raises, the exception propagates and
        the ``pending`` counter still matches the queue.
        """
        if self._tracer is not None:
            return self._run_traced(until, max_events)
        if until is not None:
            return self._run_bounded(until, max_events)
        # Fast path: run the queue dry, checking only the stop latch and
        # the event limit.  This loop dominates every simulation's
        # wall-clock time, so the heap and heappop are bound to locals
        # (callbacks push into the same list, never swap it).
        limit = _NO_LIMIT if max_events is None else max_events
        processed = 0
        pop = heappop
        heap = self._heap
        self._running = True
        try:
            while heap:
                time, _seq, callback, args = pop(heap)
                self.now = time
                processed += 1
                callback(self, *args)
                if self._stop:
                    self._stop = False
                    break
                if processed >= limit and heap:
                    raise _limit_error(max_events, time)
            return processed
        finally:
            self._pending -= processed
            self._events_processed += processed
            self._running = False

    def _run_bounded(self, until: int, max_events: Optional[int]) -> int:
        processed = 0
        pop = heappop
        limit = _NO_LIMIT if max_events is None else max_events
        heap = self._heap
        self._running = True
        try:
            while True:
                if not heap:
                    if until > self.now:
                        self.now = until
                    return processed
                if heap[0][0] > until:
                    self.now = until
                    return processed
                time, _seq, callback, args = pop(heap)
                self.now = time
                processed += 1
                callback(self, *args)
                if self._stop:
                    self._stop = False
                    return processed
                if processed >= limit and heap and heap[0][0] <= until:
                    raise _limit_error(max_events, time)
        finally:
            self._pending -= processed
            self._events_processed += processed
            self._running = False

    def _run_traced(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The :meth:`run` loop with per-event trace emission.

        Kept out of line so the untraced loops stay check-free; trace
        runs are diagnostic and not performance-sensitive.
        """
        tracer = self._tracer
        processed = 0
        pop = heappop
        heap = self._heap
        bounded = until is not None
        limit = _NO_LIMIT if max_events is None else max_events
        self._running = True
        try:
            while True:
                if not heap:
                    if bounded and until > self.now:
                        self.now = until
                    return processed
                if bounded and heap[0][0] > until:
                    self.now = until
                    return processed
                time, _seq, callback, args = pop(heap)
                self.now = time
                processed += 1
                tracer.engine_event(
                    time, getattr(callback, "__qualname__", repr(callback))
                )
                callback(self, *args)
                if self._stop:
                    self._stop = False
                    return processed
                if (
                    processed >= limit
                    and heap
                    and not (bounded and heap[0][0] > until)
                ):
                    raise _limit_error(max_events, time)
        finally:
            self._pending -= processed
            self._events_processed += processed
            self._running = False

    # ------------------------------------------------------------------
    # integrity introspection (repro.check)
    # ------------------------------------------------------------------
    def integrity_errors(self) -> list:
        """Audit the scheduler's internal bookkeeping (repro.check).

        Walks the heap and returns a list of problem strings (empty
        when consistent).  Checked invariants:

        * the ``pending`` counter equals the number of queued events
          (a mismatch means an event was lost or smuggled in),
        * no queued event is scheduled before ``now`` (one that is
          would fire in the past and rewind the clock).

        Cold path only: nothing here runs unless an auditor asks.
        """
        problems = []
        heap = self._heap
        queued = len(heap)
        if self._running:
            # Mid-dispatch the pending counter still includes events this
            # run() call already processed (it is settled once when
            # the loop exits), so only the lower bound can be checked.
            if queued > self._pending:
                problems.append(
                    f"pending counter {self._pending} below {queued} "
                    "queued events mid-dispatch"
                )
        elif queued != self._pending:
            problems.append(
                f"pending counter {self._pending} != {queued} queued events"
            )
        earliest = min((event[0] for event in heap), default=self.now)
        if earliest < self.now:
            problems.append(
                f"queued event at t={earliest} is before now={self.now}"
            )
        return problems

    def drain(self) -> None:
        """Discard all pending events (used to tear a system down)."""
        self._heap.clear()
        self._pending = 0
