"""Tests for the discrete-event scheduler."""

import bisect
import gc
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.system import MemoryNetworkSystem

from conftest import fast_workload, small_config


def test_initial_state():
    engine = Engine()
    assert engine.now == 0
    assert engine.pending == 0
    assert engine.events_processed == 0


def test_single_event_fires_at_time():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda eng: fired.append(eng.now))
    engine.run()
    assert fired == [5]
    assert engine.now == 5


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, lambda eng: order.append("c"))
    engine.schedule(10, lambda eng: order.append("a"))
    engine.schedule(20, lambda eng: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    engine = Engine()
    order = []
    for tag in "abcde":
        engine.schedule(7, lambda eng, t=tag: order.append(t))
    engine.run()
    assert order == list("abcde")


def test_zero_delay_allowed():
    engine = Engine()
    fired = []
    engine.schedule(0, lambda eng: fired.append(eng.now))
    engine.run()
    assert fired == [0]


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda eng: None)


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda eng: eng.schedule_at(5, lambda e: None))
    with pytest.raises(SimulationError):
        engine.run()


def test_events_scheduled_during_run_are_processed():
    engine = Engine()
    fired = []

    def first(eng):
        fired.append(("first", eng.now))
        eng.schedule(3, second)

    def second(eng):
        fired.append(("second", eng.now))

    engine.schedule(2, first)
    engine.run()
    assert fired == [("first", 2), ("second", 5)]


def test_run_until_leaves_future_events_queued():
    engine = Engine()
    fired = []
    engine.schedule(5, lambda eng: fired.append(5))
    engine.schedule(50, lambda eng: fired.append(50))
    engine.run(until=10)
    assert fired == [5]
    assert engine.pending == 1
    assert engine.now == 10
    engine.run()
    assert fired == [5, 50]


def test_run_until_advances_clock_when_queue_empty():
    engine = Engine()
    engine.run(until=123)
    assert engine.now == 123


def test_max_events_raises_on_livelock():
    engine = Engine()

    def rescheduling(eng):
        eng.schedule(1, rescheduling)

    engine.schedule(0, rescheduling)
    with pytest.raises(SimulationError, match="event limit"):
        engine.run(max_events=100)


def _stop_after(count, fired):
    """A callback that logs its time and requests a stop on the
    ``count``-th call."""

    def fire(eng):
        fired.append(eng.now)
        if len(fired) == count:
            eng.request_stop()

    return fire


def test_request_stop_halts_run():
    engine = Engine()
    fired = []
    for t in range(10):
        engine.schedule(t, _stop_after(3, fired))
    engine.run()
    assert len(fired) == 3
    assert engine.pending == 7


def test_drain_clears_queue():
    engine = Engine()
    engine.schedule(5, lambda eng: None)
    engine.schedule(6, lambda eng: None)
    engine.drain()
    assert engine.pending == 0
    engine.run()
    assert engine.now == 0


def test_drain_inside_callback_keeps_pending_exact():
    engine = Engine()
    engine.schedule(1, lambda eng: eng.drain())
    engine.schedule(2, lambda eng: None)
    assert engine.run() == 1
    assert engine.pending == 0
    assert engine.integrity_errors() == []


def test_callback_args_passed_through():
    engine = Engine()
    seen = []
    engine.schedule(1, lambda eng, a, b: seen.append((a, b)), "x", 42)
    engine.run()
    assert seen == [("x", 42)]


def test_events_processed_accumulates_across_runs():
    engine = Engine()
    engine.schedule(1, lambda eng: None)
    engine.run()
    engine.schedule(1, lambda eng: None)
    engine.run()
    assert engine.events_processed == 2


def test_run_returns_processed_count():
    engine = Engine()
    for t in range(4):
        engine.schedule(t, lambda eng: None)
    assert engine.run() == 4


def test_request_stop_combined_with_until():
    # A stop request must win even when a time bound is also active.
    engine = Engine()
    fired = []
    for t in range(10):
        engine.schedule(t, _stop_after(2, fired))
    engine.run(until=100)
    assert fired == [0, 1]
    assert engine.pending == 8
    # the clock stays at the stopping event, not the until bound
    assert engine.now == 1


def test_max_events_counts_events_before_raise():
    # The events that ran before the limit tripped must still be
    # reflected in events_processed (no double count, no loss).
    engine = Engine()

    def rescheduling(eng):
        eng.schedule(1, rescheduling)

    engine.schedule(0, rescheduling)
    with pytest.raises(SimulationError, match="event limit"):
        engine.run(max_events=7)
    assert engine.events_processed == 7


def test_max_events_accumulates_across_successful_runs():
    engine = Engine()
    for t in range(3):
        engine.schedule(t, lambda eng: None)
    engine.run(max_events=100)
    assert engine.events_processed == 3
    for t in range(2):
        engine.schedule(engine.now + 1 + t, lambda eng: None)
    engine.run(max_events=100)
    assert engine.events_processed == 5


class _EventLog:
    """Minimal tracer: records the time of every dispatched event."""

    def __init__(self):
        self.times = []

    def engine_event(self, time, label):
        self.times.append(time)


def _budgeted_run(engine, loop, max_events):
    """Run under ``max_events`` through one of the dispatch loops."""
    if loop == "fast":
        return engine.run(max_events=max_events)
    if loop == "until":
        return engine.run(until=10**12, max_events=max_events)
    engine.set_tracer(_EventLog())
    return engine.run(max_events=max_events)


BUDGET_LOOPS = ("fast", "until", "traced")


class TestEventBudget:
    """``max_events`` raises only when the budget is *exceeded*: the
    N-th event must leave queued work that would run, with no stop
    requested.  Same contract on every loop."""

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    def test_budget_reached_by_draining_does_not_raise(self, loop):
        engine = Engine()
        for t in range(3):
            engine.schedule(t, lambda eng: None)
        assert _budgeted_run(engine, loop, 3) == 3
        assert engine.events_processed == 3
        assert engine.pending == 0

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    def test_stop_on_last_budgeted_event_stops(self, loop):
        engine = Engine()
        for t in range(5):
            engine.schedule(
                t, (lambda eng: eng.request_stop()) if t == 2 else (lambda eng: None)
            )
        assert _budgeted_run(engine, loop, 3) == 3
        assert engine.events_processed == 3
        assert engine.pending == 2
        assert engine.now == 2

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    def test_budget_exceeded_raises_after_n_events(self, loop):
        engine = Engine()

        def rescheduling(eng):
            eng.schedule(1, rescheduling)

        engine.schedule(0, rescheduling)
        with pytest.raises(SimulationError, match="event limit 5 exceeded"):
            _budgeted_run(engine, loop, 5)
        assert engine.events_processed == 5
        assert engine.pending == 1

    def test_budget_reached_with_work_past_until_does_not_raise(self):
        engine = Engine()
        for t in (1, 2, 50):
            engine.schedule(t, lambda eng: None)
        assert engine.run(until=10, max_events=2) == 2
        assert engine.now == 10
        assert engine.pending == 1


class _Boom(Exception):
    pass


def _boom(eng, *args):
    raise _Boom("callback failed")


class _RaisingTracer:
    def engine_event(self, time, label):
        raise _Boom("tracer failed")


class TestRaisingCallback:
    """An exception raised while dispatching an event propagates as is,
    and the event it was raised for has left the queue: the ``pending``
    counter still equals the queued count, so the auditor sees a clean
    scheduler.  Same contract on every loop."""

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    def test_callback_raise_keeps_pending_exact(self, loop):
        engine = Engine()
        engine.schedule(1, _boom, "payload", 7)
        engine.schedule(2, lambda eng: None)
        with pytest.raises(_Boom, match="callback failed"):
            _budgeted_run(engine, loop, None)
        assert engine.pending == 1
        assert engine.events_processed == 1
        assert engine.integrity_errors() == []
        # the queue is intact: the next run dispatches what is left
        assert engine.run() == 1
        assert engine.integrity_errors() == []

    @pytest.mark.parametrize("until", [None, 10])
    def test_tracer_raise_keeps_pending_exact(self, until):
        engine = Engine()
        fired = []
        engine.schedule(1, lambda eng: fired.append(1))
        engine.schedule(2, lambda eng: fired.append(2))
        engine.set_tracer(_RaisingTracer())
        with pytest.raises(_Boom, match="tracer failed"):
            engine.run(until=until)
        assert fired == []
        assert engine.pending == 1
        assert engine.integrity_errors() == []


def test_run_until_in_past_does_not_rewind_clock():
    engine = Engine()
    engine.schedule(20, lambda eng: None)
    engine.run()
    assert engine.now == 20
    engine.run(until=5)
    assert engine.now == 20


def test_run_until_in_past_with_queued_work_does_not_rewind_clock():
    engine = Engine()
    engine.schedule(20, lambda eng: None)
    engine.schedule(30, lambda eng: None)
    engine.run(until=25)
    engine.run(until=5)
    assert engine.now == 25
    assert engine.pending == 1


def test_run_until_empty_queue_repeated():
    engine = Engine()
    engine.run(until=10)
    engine.run(until=30)
    assert engine.now == 30
    assert engine.events_processed == 0


def test_default_engine_is_heap():
    system = MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
    assert system.engine.scheduler == "heap"


def test_unknown_scheduler_rejected():
    with pytest.raises(SimulationError, match="only scheduler is 'heap'"):
        Engine("wheel")


# ---------------------------------------------------------------------------
# Memory held flat across runs
# ---------------------------------------------------------------------------
def _traced_growth(work, rounds: int) -> int:
    """Bytes still allocated after ``rounds`` more calls of ``work``,
    measured by tracemalloc once two warm-up calls have filled every
    lazily built cache.  ``sys.getallocatedblocks()`` is not used: it
    moves by a few blocks between runs (interpreter caches) with no
    traced allocation behind it."""
    work()
    work()
    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(rounds):
            work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def _noop(eng, *args):
    pass


#: Allowed growth over the measured rounds.  The engine measures 0
#: here; keeping one argument tuple per event alive adds hundreds of KB.
_LEAK_SLACK_BYTES = 16 * 1024


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_repeated_runs_hold_memory_flat(traced):
    config = small_config()
    if traced:
        config = config.with_obs(trace=True, trace_engine_events=True)

    def work():
        MemoryNetworkSystem(config, fast_workload(), requests=60).run()

    assert _traced_growth(work, rounds=4) < _LEAK_SLACK_BYTES


def test_raising_callbacks_hold_memory_flat():
    # Argument tuples of the raising event and of the events left queued
    # behind it must be released once the engine is dropped.
    def work():
        for i in range(300):
            engine = Engine()
            engine.schedule(1, _boom, object(), [i])
            engine.schedule(2, _noop, object(), (i,))
            try:
                engine.run()
            except _Boom:
                pass

    assert _traced_growth(work, rounds=4) < _LEAK_SLACK_BYTES


# ---------------------------------------------------------------------------
# Stateful check against a reference model
# ---------------------------------------------------------------------------
#: Delays cluster around multiples of this period (~one link
#: serialization plus SerDes hop), so generated schedules are dense
#: with exact-time ties and near-ties.
PERIOD_PS = 4096

_delays = st.one_of(
    st.integers(min_value=0, max_value=3 * PERIOD_PS),
    st.builds(
        lambda k, off: max(0, k * PERIOD_PS + off),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-2, max_value=2),
    ),
)

#: What an event does once it fires: nothing, or one control call.
_kinds = st.sampled_from(["plain", "plain", "plain", "stop", "drain", "raise"])

#: How a callback schedules a follow-up event.
_hows = st.sampled_from(["schedule", "schedule_at", "schedule_bound"])

#: Follow-ups an event schedules from inside its callback (re-entrant
#: chains): ``(how, delay, kind)`` each.
_children = st.lists(st.tuples(_hows, _delays, _kinds), max_size=4)


class _ModelEngine:
    """Reference scheduler: the event queue is a list kept sorted by
    ``(time, seq)``, and each event's behaviour is ``actions[tag]``.
    It states :class:`Engine`'s contract with none of its machinery."""

    def __init__(self, actions):
        self.actions = actions
        self.queue = []
        self.log = []
        self.now = self.seq = self.processed = 0
        self.stop = False

    def push(self, time, tag):
        bisect.insort(self.queue, (time, self.seq, tag))
        self.seq += 1

    def drain(self):
        self.queue.clear()

    def _would_run(self, until):
        return bool(self.queue) and (until is None or self.queue[0][0] <= until)

    def run(self, until=None, max_events=None):
        count = 0
        while self._would_run(until):
            time, _seq, tag = self.queue.pop(0)
            self.now = time
            count += 1
            self.processed += 1
            self.log.append((time, tag))
            kind, children = self.actions[tag]
            for child, _how, delay in children:
                self.push(time + delay, child)
            if kind == "raise":
                raise _Boom(tag)
            if kind == "drain":
                self.drain()
            if kind == "stop" or self.stop:
                self.stop = False
                return count
            if max_events is not None and count >= max_events and self._would_run(until):
                raise SimulationError("event limit exceeded")
        if until is not None and until > self.now:
            self.now = until
        return count


class EngineMachine(RuleBasedStateMachine):
    """Drives :class:`Engine` and :class:`_ModelEngine` with the same
    calls; after every step both must agree on the clock, the queue,
    the processed count and the order events fired in."""

    def __init__(self):
        super().__init__()
        self.actions = {}
        self.engine = Engine()
        self.model = _ModelEngine(self.actions)
        self.log = []
        self.tracer = _EventLog()
        self.tracing = False
        self.traced = []
        self.last_now = 0
        self.next_tag = 0

    def _fire(self, eng, tag):
        self.log.append((eng.now, tag))
        if self.tracing:
            self.traced.append(eng.now)
        kind, children = self.actions[tag]
        for child, how, delay in children:
            if how == "schedule":
                eng.schedule(delay, self._fire, child)
            elif how == "schedule_at":
                eng.schedule_at(eng.now + delay, self._fire, child)
            else:
                eng.schedule_bound(delay, self._fire, (child,))
        if kind == "raise":
            raise _Boom(tag)
        if kind == "drain":
            eng.drain()
        elif kind == "stop":
            eng.request_stop()

    def _new_event(self, kind, children):
        tag = self.next_tag
        self.next_tag += 1
        linked = []
        for index, (how, delay, child_kind) in enumerate(children):
            self.actions[(tag, index)] = (child_kind, ())
            linked.append(((tag, index), how, delay))
        self.actions[tag] = (kind, tuple(linked))
        return tag

    @rule(how=_hows, delay=_delays, kind=_kinds, children=_children)
    def schedule(self, how, delay, kind, children):
        tag = self._new_event(kind, children)
        if how == "schedule":
            self.engine.schedule(delay, self._fire, tag)
        elif how == "schedule_at":
            self.engine.schedule_at(self.engine.now + delay, self._fire, tag)
        else:
            self.engine.schedule_bound(delay, self._fire, (tag,))
        self.model.push(self.model.now + delay, tag)

    @rule(delays=st.lists(_delays, min_size=2, max_size=12))
    def schedule_dense(self, delays):
        for delay in delays:
            tag = self._new_event("plain", ())
            self.engine.schedule(delay, self._fire, tag)
            self.model.push(self.model.now + delay, tag)

    @rule()
    def schedule_in_past_rejected(self):
        with pytest.raises(SimulationError):
            self.engine.schedule(-1, self._fire, None)
        with pytest.raises(SimulationError):
            self.engine.schedule_at(self.engine.now - 1, self._fire, None)

    def _run_both(self, **bounds):
        outcomes = []
        for target in (self.engine, self.model):
            try:
                outcomes.append(target.run(**bounds))
            except (_Boom, SimulationError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    @rule()
    def run(self):
        self._run_both()

    @rule(offset=st.integers(min_value=-2 * PERIOD_PS, max_value=6 * PERIOD_PS))
    def run_until(self, offset):
        # a negative offset asks for a bound already in the past
        self._run_both(until=self.model.now + offset)

    @rule(
        max_events=st.integers(min_value=1, max_value=6),
        offset=st.none() | st.integers(min_value=0, max_value=6 * PERIOD_PS),
    )
    def run_budget(self, max_events, offset):
        until = None if offset is None else self.model.now + offset
        self._run_both(until=until, max_events=max_events)

    @rule()
    def request_stop(self):
        self.engine.request_stop()
        self.model.stop = True

    @rule()
    def drain(self):
        self.engine.drain()
        self.model.drain()

    @rule(on=st.booleans())
    def set_tracer(self, on):
        self.tracing = on
        self.engine.set_tracer(self.tracer if on else None)

    @invariant()
    def agrees_with_model(self):
        engine, model = self.engine, self.model
        assert engine.now >= self.last_now, "clock went backwards"
        self.last_now = engine.now
        assert engine.integrity_errors() == []
        assert self.log == model.log
        assert engine.now == model.now
        assert engine.pending == len(model.queue)
        assert engine.events_processed == model.processed
        assert self.tracer.times == self.traced


#: Sized to about 2 s.  At this size the machine shrinks a clock rewound
#: by ``run(until=)`` below ``now``, and a ``drain()`` from a callback
#: that leaves ``pending`` negative, to three steps each.
TestEngineMatchesModel = EngineMachine.TestCase
TestEngineMatchesModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
