"""Event scheduler with an integer picosecond clock.

One binary heap (``heapq``) holds every pending event.  Events are
``(time, sequence, callback, args)`` tuples ordered by time and, for
equal times, by scheduling order, so a run is deterministic.
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.errors import SimulationError

_NO_ARGS: tuple = ()

#: Event limit of a run without ``max_events``: never reached.
_NO_LIMIT = sys.maxsize


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
    )

    #: The scheduler's name, kept for callers that record it.
    scheduler = "heap"

    def __init__(self, scheduler: str = "heap") -> None:
        if scheduler != "heap":
            raise SimulationError(
                f"unknown scheduler {scheduler!r}; the only scheduler is 'heap'"
            )
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

        Tracing swaps :meth:`run` onto the checked dispatch loop; with no
        tracer attached the fast loop is untouched (one ``None`` check
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
            queued and ``now`` advances to ``until`` (a bound already in
            the past leaves the clock where it is).
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
        if until is not None or self._tracer is not None:
            return self._run_checked(until, max_events)
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

    def _run_checked(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The :meth:`run` loop with a time bound and/or a tracer.

        Kept out of line so the fast loop stays check-free; bounded and
        traced runs are for tests and diagnostics, not throughput.
        """
        tracer = self._tracer
        bound = inf if until is None else until
        processed = 0
        pop = heappop
        heap = self._heap
        limit = _NO_LIMIT if max_events is None else max_events
        self._running = True
        try:
            while True:
                if not heap or heap[0][0] > bound:
                    if until is not None and until > self.now:
                        self.now = until
                    return processed
                time, _seq, callback, args = pop(heap)
                self.now = time
                processed += 1
                if tracer is not None:
                    tracer.engine_event(
                        time, getattr(callback, "__qualname__", repr(callback))
                    )
                callback(self, *args)
                if self._stop:
                    self._stop = False
                    return processed
                if processed >= limit and heap and heap[0][0] <= bound:
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
        """Discard all pending events (used to tear a system down).

        Safe from inside a callback: the counter drops by what was
        queued, so the run loop's settle still leaves it exact.
        """
        self._pending -= len(self._heap)
        self._heap.clear()
