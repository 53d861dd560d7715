"""Compiled scheduler backend (``Engine("native")``) and dispatch errors.

The native engine is an optional in-tree C extension; conftest builds
it when a compiler exists, and every test that needs it skips with the
compiler's error when the build fails.  Dispatch-error tests run
everywhere: an unknown backend name must fail loudly with an error that
names the valid backends (``heap`` and ``native``) and whether the
compiled one is usable on this machine.

The equivalence tests pin the compiled scheduler as invisible —
bit-identical digests against the heap oracle across topologies with
observability and RAS on, plus a golden-corpus spot replay under the
ambient override.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_mod
from repro.errors import SimulationError
from repro.sim import native
from repro.sim.engine import Engine, backend_status, default_scheduler

from repro.system import MemoryNetworkSystem

from conftest import (
    BUILT_SCHEDULERS,
    NATIVE_SKIP_REASON,
    fast_workload,
    sim_digest,
    small_config,
)

# conftest builds the extension when a compiler exists; a skip carries
# the compiler's error.
needs_native = pytest.mark.skipif(
    bool(NATIVE_SKIP_REASON), reason=NATIVE_SKIP_REASON or "native built"
)

GOLDENS = Path(__file__).parent / "goldens"


# ---------------------------------------------------------------------------
# Backend dispatch: unknown names and unavailable optional backends
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_unknown_backend_raises_with_status(self):
        with pytest.raises(SimulationError) as err:
            Engine("quantum")
        message = str(err.value)
        assert "quantum" in message
        assert "valid backends" in message
        assert "'heap'" in message and "'native'" in message

    @pytest.mark.parametrize("name", ["wheel", "batch"])
    def test_removed_backends_raise_with_status(self, name):
        with pytest.raises(SimulationError) as err:
            Engine(name)
        status = str(err.value).split("; ", 1)[1]
        assert status == backend_status()
        assert "wheel" not in status and "batch" not in status

    @pytest.mark.parametrize("name", ["wheel", "batch"])
    def test_removed_env_engines_raise(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_ENGINE", name)
        with pytest.raises(SimulationError, match="valid backends: 'heap', 'native'"):
            Engine()

    def test_unknown_env_engine_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(SimulationError) as err:
            default_scheduler()
        assert "REPRO_ENGINE" in str(err.value)
        assert "valid backends" in str(err.value)

    def test_backend_status_reports_availability(self):
        status = backend_status()
        assert (
            "extension built" if native.available() else "extension not built"
        ) in status
        assert status.startswith("valid backends: 'heap', 'native'")

    def test_explicit_native_without_extension_raises(self, monkeypatch):
        monkeypatch.setattr(native, "_module", None)
        monkeypatch.setattr(native, "_import_error", "not built (test)")
        with pytest.raises(SimulationError) as err:
            Engine("native")
        assert "native_build" in str(err.value)

    def test_ambient_native_without_extension_falls_back(self, monkeypatch):
        monkeypatch.setattr(native, "_module", None)
        monkeypatch.setattr(native, "_import_error", "not built (test)")
        monkeypatch.setattr(engine_mod, "_ambient_native_warned", False)
        monkeypatch.setenv("REPRO_ENGINE", "native")
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = Engine()
        assert engine.scheduler == "heap"
        # The warning fires once per process, not once per engine.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Engine().scheduler == "heap"


# ---------------------------------------------------------------------------
# Equivalence against the heap oracle
# ---------------------------------------------------------------------------
TOPOLOGIES = ("chain", "ring", "skiplist", "metacube")


@needs_native
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("obs", [False, True], ids=["obs-off", "obs-on"])
@pytest.mark.parametrize("ras", [False, True], ids=["ras-off", "ras-on"])
def test_native_matches_heap(topology, obs, ras):
    config = small_config(topology=topology)
    if obs:
        config = config.with_obs(attribution=True)
    if ras:
        config = config.with_ras(bit_error_rate=1e-6)
    compiled, compiled_events = sim_digest(config, requests=150, scheduler="native")
    heap, heap_events = sim_digest(config, requests=150, scheduler="heap")
    assert compiled == heap
    assert compiled_events == heap_events


@needs_native
def test_native_matches_heap_across_far_horizon():
    config = small_config()
    workload = fast_workload(mean_gap_ns=40.0, burst_size=1.0)
    compiled, _ = sim_digest(config, workload, 120, scheduler="native")
    heap, _ = sim_digest(config, workload, 120, scheduler="heap")
    assert compiled == heap


@needs_native
def test_native_matches_heap_overload():
    """Deadlines + retries exercise request_stop and timer cancels."""
    config = small_config().with_overload(
        deadline_ps=150_000, max_retries=2, retry_backoff_ps=50_000
    )
    workload = fast_workload(arrival="onoff", mean_gap_ns=1.0)
    compiled, _ = sim_digest(config, workload, 150, scheduler="native")
    heap, _ = sim_digest(config, workload, 150, scheduler="heap")
    assert compiled == heap


#: Structurally diverse golden matrix cases for the native spot replay:
#: a plain run, the obs+ras interaction, and the overload machinery.
NATIVE_GOLDEN_SPOTS = ("skiplist/obs+ras", "ring/base", "overload/obs")


@needs_native
@pytest.mark.parametrize("name", NATIVE_GOLDEN_SPOTS)
def test_native_reproduces_goldens(name, monkeypatch):
    from repro.check.goldens import diff_goldens, matrix_cases, run_matrix_case

    monkeypatch.setenv("REPRO_ENGINE", "native")
    recorded = json.loads((GOLDENS / "matrix.json").read_text())
    cases = {n: (c, w) for n, c, w in matrix_cases()}
    config, workload = cases[name]
    entry = run_matrix_case(config, audit=True, workload=workload)
    report = diff_goldens({name: recorded[name]}, {name: entry})
    assert not report, "\n".join(report)


# ---------------------------------------------------------------------------
# Property test: adversarial schedules pop identically to the heap
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


def _fire_log(scheduler, initial, chained):
    engine = Engine(scheduler)
    log = []
    followups = {}
    for child, (parent, delay) in enumerate(chained):
        followups.setdefault(parent, []).append((child, delay))

    def fire(eng, tag):
        log.append((eng.now, tag))
        if isinstance(tag, int):
            for child, delay in followups.get(tag, ()):
                eng.schedule(delay, fire, ("chained", child))

    for tag, delay in enumerate(initial):
        engine.schedule(delay, fire, tag)
    engine.run()
    assert engine.integrity_errors() == []
    assert engine.pending == 0
    return log


@needs_native
@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(_delays, min_size=1, max_size=24),
    chained=st.lists(
        st.tuples(st.integers(min_value=0, max_value=23), _delays),
        max_size=24,
    ),
)
def test_native_pops_identically_to_heap(initial, chained):
    assert _fire_log("native", initial, chained) == _fire_log(
        "heap", initial, chained
    )


# ---------------------------------------------------------------------------
# Reference leaks in the compiled scheduler
# ---------------------------------------------------------------------------
def _traced_growth(work, rounds: int) -> int:
    """Bytes still allocated after ``rounds`` more calls of ``work``,
    measured by tracemalloc once two warm-up calls have filled every
    lazily built cache.  ``sys.getallocatedblocks()`` is not used: it
    moves by a few blocks between runs on either backend (interpreter
    caches) with no traced allocation behind it."""
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


class _Boom(Exception):
    pass


def _boom(eng, *args):
    raise _Boom


def _noop(eng, *args):
    pass


#: Allowed growth over the measured rounds.  Both backends measure 0
#: here; leaking one argument tuple per event adds hundreds of KB.
_LEAK_SLACK_BYTES = 16 * 1024


@pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_repeated_runs_hold_memory_flat(scheduler, traced):
    config = small_config()
    if traced:
        config = config.with_obs(trace=True, trace_engine_events=True)

    def work():
        MemoryNetworkSystem(
            config, fast_workload(), requests=60, engine=Engine(scheduler)
        ).run()

    assert _traced_growth(work, rounds=4) < _LEAK_SLACK_BYTES


@pytest.mark.parametrize("scheduler", BUILT_SCHEDULERS)
def test_raising_callbacks_hold_memory_flat(scheduler):
    # Argument tuples of the raising event and of the events left queued
    # behind it must be released on the error path and by the engine's
    # teardown.
    def work():
        for i in range(300):
            engine = Engine(scheduler)
            engine.schedule(1, _boom, object(), [i])
            engine.schedule(2, _noop, object(), (i,))
            try:
                engine.run()
            except _Boom:
                pass

    assert _traced_growth(work, rounds=4) < _LEAK_SLACK_BYTES
