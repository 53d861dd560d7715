"""Differential test: the trace recorder against a reference recorder.

:class:`ReferenceRecorder` is the straightforward recorder the current
one replaced: every hook funnels through one ``_emit`` into a
preallocated slot array with a write cursor, stores the
:class:`~repro.net.packet.PacketKind` member itself, and keeps the
whole-run link and queue aggregates in its own dicts, updated on every
event.  The recorder under test builds its tuples only for sampled-in
events, keeps them in a bounded deque, stores packet kinds as ints and
reads the aggregates from the links and queues it watches.

Each case runs one system with both recorders fed every hook call, then
requires the same decoded events, the same counts and the same summary.
The cases cover CRC replays and a permanent link failure (the summary's
link busy time excludes replay time), host timeouts, retries and sheds,
engine-event tracing, ``trace_sample`` 1 and 4, and a ring small enough
to wrap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.config import P2P_PROMOTE
from repro.system import MemoryNetworkSystem
from repro.units import ns

from conftest import fast_workload, small_config

LINK, QUEUE, GRANT, MEM, ENGINE, RETRY, FAULT = range(7)
HOST_TIMEOUT, HOST_RETRY, HOST_SHED = 7, 8, 9
KIND_LABELS = (
    "link", "queue", "grant", "mem", "engine", "retry", "fault",
    "host_timeout", "host_retry", "host_shed",
)


class ReferenceRecorder:
    """Slot-array ring plus self-kept aggregates (the reference)."""

    def __init__(self, capacity: int, sample: int, sample_phase: int) -> None:
        self.capacity = capacity
        self.sample = sample
        self.sample_phase = sample_phase % sample
        self.sampled_out = 0
        self.stored = 0
        self._ring: List[Optional[tuple]] = [None] * capacity
        self._pos = 0
        self.emitted = 0
        self.link_busy_ps: Dict[str, int] = {}
        self.link_bits: Dict[str, int] = {}
        self.link_packets: Dict[str, int] = {}
        self.queue_peak: Dict[str, int] = {}
        self.link_replays: Dict[str, int] = {}
        self.failures: List[Tuple[int, int, int]] = []
        self.host_timeouts = 0
        self.host_retries = 0
        self.host_sheds = 0
        self.last_ts = 0

    def _emit(self, event: tuple) -> None:
        index = self.emitted
        self.emitted = index + 1
        ts = event[0]
        if ts > self.last_ts:
            self.last_ts = ts
        if self.sample > 1 and index % self.sample != self.sample_phase:
            self.sampled_out += 1
            return
        self.stored += 1
        pos = self._pos
        self._ring[pos] = event
        pos += 1
        self._pos = 0 if pos == self.capacity else pos

    def link_send(self, name, now_ps, ser_ps, arrival_ps, packet) -> None:
        busy = self.link_busy_ps
        busy[name] = busy.get(name, 0) + ser_ps
        bits = self.link_bits
        bits[name] = bits.get(name, 0) + packet.size_bits
        pkts = self.link_packets
        pkts[name] = pkts.get(name, 0) + 1
        self._emit(
            (now_ps, LINK, name, ser_ps, arrival_ps, packet.pid,
             packet.kind, packet.size_bits)
        )

    def queue_depth(self, name, now_ps, depth) -> None:
        peak = self.queue_peak
        if depth > peak.get(name, 0):
            peak[name] = depth
        self._emit((now_ps or 0, QUEUE, name, depth))

    def router_grant(self, name, now_ps, output_key, packet, contenders) -> None:
        self._emit(
            (now_ps, GRANT, name, output_key, packet.pid, packet.kind,
             contenders)
        )

    def mem_access(self, name, now_ps, ready_ps, row_hit, is_write) -> None:
        self._emit((now_ps, MEM, name, ready_ps, row_hit, is_write))

    def engine_event(self, now_ps, callback_name) -> None:
        self._emit((now_ps, ENGINE, callback_name))

    def link_retry(self, name, now_ps, replays, retry_ps) -> None:
        tally = self.link_replays
        tally[name] = tally.get(name, 0) + replays
        self._emit((now_ps, RETRY, name, replays, retry_ps))

    def ras_failure(self, now_ps, a, b) -> None:
        self.failures.append((now_ps, a, b))
        self._emit((now_ps, FAULT, a, b))

    def host_timeout(self, now_ps, tid, attempt) -> None:
        self.host_timeouts += 1
        self._emit((now_ps, HOST_TIMEOUT, tid, attempt))

    def host_retry(self, now_ps, tid, attempt) -> None:
        self.host_retries += 1
        self._emit((now_ps, HOST_RETRY, tid, attempt))

    def host_shed(self, now_ps, tid) -> None:
        self.host_sheds += 1
        self._emit((now_ps, HOST_SHED, tid))

    @property
    def retained(self) -> int:
        return min(self.stored, self.capacity)

    @property
    def dropped(self) -> int:
        return self.emitted - self.retained

    @property
    def evicted(self) -> int:
        return self.stored - self.retained

    def events(self) -> List[tuple]:
        if self.stored <= self.capacity:
            raw = self._ring[: self.stored]
        else:
            raw = self._ring[self._pos:] + self._ring[: self._pos]
        decoded = []
        for event in raw:
            code = event[1]
            if code == LINK:
                decoded.append(
                    (event[0], "link", event[2], event[3], event[4], event[5],
                     event[6].name, event[7])
                )
            elif code == GRANT:
                decoded.append(
                    (event[0], "grant", event[2], event[3], event[4],
                     event[5].name, event[6])
                )
            else:
                decoded.append((event[0], KIND_LABELS[code]) + event[2:])
        return decoded

    def link_utilization(self, runtime_ps=None) -> Dict[str, float]:
        span = runtime_ps if runtime_ps else self.last_ts
        if not span:
            return {name: 0.0 for name in self.link_busy_ps}
        return {
            name: busy / span for name, busy in sorted(self.link_busy_ps.items())
        }

    def summary(self, runtime_ps=None) -> Dict[str, object]:
        return {
            "events_emitted": self.emitted,
            "events_retained": self.retained,
            "events_dropped": self.dropped,
            "events_sampled_out": self.sampled_out,
            "trace_sample": self.sample,
            "ring_capacity": self.capacity,
            "link_utilization": self.link_utilization(runtime_ps),
            "link_bits": dict(sorted(self.link_bits.items())),
            "link_packets": dict(sorted(self.link_packets.items())),
            "queue_peak_depth": dict(sorted(self.queue_peak.items())),
            "link_replays": dict(sorted(self.link_replays.items())),
            "link_failures": [list(entry) for entry in self.failures],
            "host_timeouts": self.host_timeouts,
            "host_retries": self.host_retries,
            "host_sheds": self.host_sheds,
        }


class Tee:
    """Forwards every hook call to each recorder, in order."""

    def __init__(self, *recorders) -> None:
        self._recorders = recorders

    def __getattr__(self, hook: str):
        targets = [getattr(recorder, hook) for recorder in self._recorders]

        def call(*args) -> None:
            for target in targets:
                target(*args)

        return call


def _run_both(config, workload, requests: int):
    """Run one traced system with the reference recorder teed in."""
    system = MemoryNetworkSystem(config, workload, requests=requests)
    recorder = system.tracer
    reference = ReferenceRecorder(
        recorder.capacity, recorder.sample, recorder.sample_phase
    )
    tee = Tee(recorder, reference)
    system.port.tracer = tee
    for link, _kind in system._links:
        link.tracer = tee
    for router in system._routers.values():
        router.tracer = tee
        for queue in router.inputs:
            queue.tracer = tee
    for cube in system.cubes.values():
        for controller in cube.controllers:
            controller.tracer = tee
    if config.obs.trace_engine_events:
        system.engine.set_tracer(tee)
    system.tracer = tee  # RAS failures are reported through the system
    result = system.run()
    system.tracer = recorder
    return recorder, reference, result


def _crc_and_cut():
    """A ring with CRC errors on every external link and one edge cut."""
    config = small_config(
        topology="ring", dram_fraction=0.5, p2p_pattern=P2P_PROMOTE
    ).with_ras(bit_error_rate=1e-4, link_failures=((2, 3, 400_000),))
    return config, fast_workload(p2p_fraction=0.2), 250


def _overload():
    """Deadlines, retries and shedding on a closed-loop p2p chain."""
    config = small_config(
        topology="chain", dram_fraction=0.5, p2p_pattern=P2P_PROMOTE
    ).with_overload(
        deadline_ps=ns(200), max_retries=2, retry_backoff_ps=ns(50),
        shed_high=64, shed_low=32,
    )
    return config, fast_workload(p2p_fraction=0.2, mlp=8), 150


def _engine_events():
    return small_config().with_obs(trace_engine_events=True), fast_workload(), 100


SCENARIOS = {"crc": _crc_and_cut, "overload": _overload, "engine": _engine_events}
#: Event kinds each scenario must produce, so a case cannot pass vacuously.
EXPECTED_KINDS = {
    "crc": {"link", "queue", "grant", "mem", "retry", "fault"},
    "overload": {"link", "queue", "grant", "mem", "host_timeout",
                 "host_retry", "host_shed"},
    "engine": {"link", "queue", "grant", "mem", "engine"},
}


class TestRecorderMatchesReference:
    @pytest.mark.parametrize("ring", [1 << 16, 97], ids=["ring-whole", "ring-wraps"])
    @pytest.mark.parametrize("sample", [1, 4])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_same_events_counts_and_summary(self, scenario, sample, ring):
        config, workload, requests = SCENARIOS[scenario]()
        config = config.with_obs(trace=True, trace_sample=sample, trace_ring=ring)
        recorder, reference, result = _run_both(config, workload, requests)

        assert recorder.emitted == reference.emitted > 0
        assert recorder.stored == reference.stored
        assert recorder.sampled_out == reference.sampled_out
        assert recorder.retained == reference.retained
        assert recorder.evicted == reference.evicted
        assert recorder.dropped == reference.dropped
        assert recorder.last_ts == reference.last_ts
        if ring < reference.stored:
            assert reference.evicted > 0
        else:
            assert reference.evicted == 0

        events = recorder.events()
        assert events == reference.events()
        if ring > reference.stored:
            # The whole run is in the ring: every kind the scenario drives
            # was recorded.
            assert EXPECTED_KINDS[scenario] <= {event[1] for event in events}
        for runtime in (result.runtime_ps, None):
            assert recorder.summary(runtime) == reference.summary(runtime)

        summary = reference.summary()
        assert summary["link_packets"] and summary["queue_peak_depth"]
        if scenario == "crc":
            assert summary["link_replays"] and summary["link_failures"]
        if scenario == "overload":
            assert summary["host_timeouts"] and summary["host_retries"]
            assert summary["host_sheds"]
