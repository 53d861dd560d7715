"""Tests for the discrete-event scheduler."""

import importlib.util
import os
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.experiments.__main__ import main as experiments_main
from repro.sim.engine import Engine
from repro.system import MemoryNetworkSystem

from conftest import BUILT_SCHEDULERS, fast_workload, small_config


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
    """Minimal tracer: records the label of every dispatched event."""

    def __init__(self):
        self.labels = []

    def engine_event(self, time, label):
        self.labels.append(label)


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
    requested.  Same contract on every loop and backend."""

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    @pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
    def test_budget_reached_by_draining_does_not_raise(self, scheduler, loop):
        engine = Engine(scheduler)
        for t in range(3):
            engine.schedule(t, lambda eng: None)
        assert _budgeted_run(engine, loop, 3) == 3
        assert engine.events_processed == 3
        assert engine.pending == 0

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    @pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
    def test_stop_on_last_budgeted_event_stops(self, scheduler, loop):
        engine = Engine(scheduler)
        for t in range(5):
            engine.schedule(
                t, (lambda eng: eng.request_stop()) if t == 2 else (lambda eng: None)
            )
        assert _budgeted_run(engine, loop, 3) == 3
        assert engine.events_processed == 3
        assert engine.pending == 2
        assert engine.now == 2

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    @pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
    def test_budget_exceeded_raises_after_n_events(self, scheduler, loop):
        engine = Engine(scheduler)

        def rescheduling(eng):
            eng.schedule(1, rescheduling)

        engine.schedule(0, rescheduling)
        with pytest.raises(SimulationError, match="event limit 5 exceeded"):
            _budgeted_run(engine, loop, 5)
        assert engine.events_processed == 5
        assert engine.pending == 1

    @pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
    def test_budget_reached_with_work_past_until_does_not_raise(self, scheduler):
        engine = Engine(scheduler)
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
    scheduler.  Same contract on every loop and backend."""

    @pytest.mark.parametrize("loop", BUDGET_LOOPS)
    @pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
    def test_callback_raise_keeps_pending_exact(self, scheduler, loop):
        engine = Engine(scheduler)
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
    @pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
    def test_tracer_raise_keeps_pending_exact(self, scheduler, until):
        engine = Engine(scheduler)
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


def test_run_until_empty_queue_repeated():
    engine = Engine()
    engine.run(until=10)
    engine.run(until=30)
    assert engine.now == 30
    assert engine.events_processed == 0


def test_default_engine_is_heap(monkeypatch):
    # The *documented* default, independent of any ambient override.
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    system = MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
    assert system.engine.scheduler == "heap"


def _profile_run_module():
    path = Path(__file__).resolve().parents[1] / "tools" / "profile_run.py"
    spec = importlib.util.spec_from_file_location("profile_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestEngineCliChoices:
    """Both ``--engine`` flags take their choices from ``SCHEDULERS``."""

    def test_experiments_cli_accepts_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "heap")
        assert experiments_main(["list", "--engine", "native"]) == 0
        assert os.environ["REPRO_ENGINE"] == "native"

    def test_experiments_cli_rejects_wheel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            experiments_main(["list", "--engine", "wheel"])
        assert exc.value.code == 2
        assert "invalid choice: 'wheel'" in capsys.readouterr().err

    def test_profile_run_accepts_native(self, monkeypatch):
        module = _profile_run_module()
        seen = []
        monkeypatch.setattr(
            module, "profile_simulation", lambda *args: seen.append(args[-1])
        )
        assert module.main(["--engine", "native"]) == 0
        assert seen == ["native"]

    def test_profile_run_rejects_wheel(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _profile_run_module().main(["--engine", "wheel"])
        assert exc.value.code == 2
        assert "invalid choice: 'wheel'" in capsys.readouterr().err
