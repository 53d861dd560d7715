"""Ring-buffered event tracing for one simulation run.

A :class:`TraceRecorder` is attached by :class:`repro.system.
MemoryNetworkSystem` when ``config.obs.trace`` is set.  Components call
its hooks (:meth:`TraceRecorder.link_send`, :meth:`~TraceRecorder.
queue_depth`, ...) from their hot paths; each hook is one Python frame
that bumps the emission counter, tests the sample stride, and only for a
kept event builds one tuple and appends it to a ``collections.deque``
bounded at ``trace_ring`` (old events fall off the far end, so the run
never grows unbounded).  How many events were stored, retained or
evicted follows from the emission count, the stride and the deque's
length; nothing else is counted per event.

Ring tuples hold only plain values: event kinds are small ints
(:data:`LINK` ...) and packet kinds are stored as their int value, never
as the :class:`~repro.net.packet.PacketKind` member or a string.  A
tuple of atomic values drops out of the garbage collector's tracking at
the first collection it survives, so a full ring adds nothing to later
passes.  :meth:`TraceRecorder.
events` and the dump writers decode the codes to the public string
taxonomy (``"link"``, ``"queue"``, ...) at export time.

The whole-run link and queue aggregates the summary reports (per-link
packets, bits, busy time and CRC replays, per-queue peak depth) are not
counted by the hooks: the components already keep them
(``Link.packets_carried``, ``bits_carried``, ``busy_ps`` less
``replay_ps``, ``replays``; ``InputQueue.peak_occupancy``), and
:meth:`TraceRecorder.summary` reads them from the links and queues the
recorder was told to :meth:`~TraceRecorder.watch`.  They cover the
entire run even when the ring wrapped or the stride sampled events out.

Two dump formats:

* :meth:`TraceRecorder.write_jsonl` — one JSON object per line, ordered
  by timestamp, with a trailing ``{"kind": "summary", ...}`` record
  carrying per-link utilization and queue-depth statistics.
* :meth:`TraceRecorder.write_chrome` — the Chrome ``trace_event`` JSON
  array format (load in ``chrome://tracing`` or Perfetto): link
  traversals and array accesses become duration ("X") events on one
  pseudo-thread per component, queue depths become counter ("C") tracks.

Timestamps are simulation picoseconds; Chrome expects microseconds, so
the exporter divides by 1e6.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.net.packet import PacketKind


def serializing_ps(link) -> int:
    """Time ``link`` spent serializing packets, CRC replay time excluded.

    The one busy-time rule of both link reports: the tracer summary and
    :func:`repro.analysis.network_stats.link_stats` divide it by the run
    time to get a link's utilization.  A replayed traversal holds the
    channel but carries nothing new.
    """
    return link.busy_ps - link.replay_ps


# Event-kind codes (index 1 of every ring tuple) and their public
# string taxonomy, decoded only at export.
LINK = 0
QUEUE = 1
GRANT = 2
MEM = 3
ENGINE = 4
RETRY = 5
FAULT = 6
HOST_TIMEOUT = 7
HOST_RETRY = 8
HOST_SHED = 9
KIND_LABELS = (
    "link", "queue", "grant", "mem", "engine", "retry", "fault",
    "host_timeout", "host_retry", "host_shed",
)

#: Packet-kind names by int value (the ring stores the value).
PACKET_KIND_NAMES = tuple(kind.name for kind in sorted(PacketKind))

#: Record field names of each event kind: the ring tuple's fields after
#: ``(ts, code)``, in order.  A ``"packet"`` field stores the packet
#: kind's int value and exports as its name.
_FIELDS = {
    LINK: ("link", "ser_ps", "arrival_ps", "pid", "packet", "bits"),
    QUEUE: ("queue", "depth"),
    GRANT: ("router", "output", "pid", "packet", "contenders"),
    MEM: ("controller", "ready_ps", "row_hit", "is_write"),
    ENGINE: ("callback",),
    RETRY: ("link", "replays", "retry_ps"),
    FAULT: ("a", "b"),
    HOST_TIMEOUT: ("tid", "attempt"),
    HOST_RETRY: ("tid", "attempt"),
    HOST_SHED: ("tid",),
}
# Ring-tuple index of the packet kind, for the kinds that carry one.
_PACKET_AT = {
    code: 2 + names.index("packet")
    for code, names in _FIELDS.items() if "packet" in names
}


def _fields(event: tuple) -> tuple:
    """A ring tuple's fields after ``(ts, code)``, packet kind by name."""
    at = _PACKET_AT.get(event[1])
    if at is None:
        return event[2:]
    return event[2:at] + (PACKET_KIND_NAMES[event[at]],) + event[at + 1:]


def _decode(event: tuple) -> tuple:
    """Ring tuple -> the public string-taxonomy tuple."""
    return (event[0], KIND_LABELS[event[1]]) + _fields(event)


class TraceRecorder:
    """Bounded event recorder over the watched links' and queues' totals."""

    __slots__ = (
        "capacity",
        "sample",
        "sample_phase",
        "emitted",
        "last_ts",
        "_ring",
        "_append",
        "_links",
        "_queues",
        "failures",
        "host_timeouts",
        "host_retries",
        "host_sheds",
    )

    def __init__(
        self, capacity: int = 1 << 16, sample: int = 1, sample_phase: int = 0
    ) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be at least 1")
        if sample < 1:
            raise ValueError("trace sample rate must be at least 1")
        self.capacity = capacity
        # Deterministic 1-in-N ring sampling: the event with global
        # emission index i is stored when i % sample == sample_phase
        # (the system derives the phase from the config seed); the rest
        # only bump the emission count.
        self.sample = sample
        self.sample_phase = sample_phase % sample
        self.emitted = 0  # total events seen (sampled or not)
        # Timestamp of the latest event.  Hooks fire in engine order, so
        # the latest event is also the one with the largest timestamp.
        self.last_ts = 0
        self._ring: deque = deque(maxlen=capacity)
        self._append: Callable[[tuple], None] = self._ring.append
        # Components whose own counters the summary reads (see watch).
        self._links: Tuple = ()
        self._queues: Tuple = ()
        # RAS: the permanent failures the run suffered, never evicted.
        self.failures: List[Tuple[int, int, int]] = []  # (ts, a, b)
        # Overload aggregates (host-edge deadlines/shedding), never
        # evicted even when the ring wraps.
        self.host_timeouts = 0
        self.host_retries = 0
        self.host_sheds = 0

    def watch(self, links: Iterable, queues: Iterable) -> None:
        """Read whole-run link and queue totals from these components.

        ``links`` are :class:`~repro.net.link.Link` objects and
        ``queues`` :class:`~repro.net.buffers.InputQueue` objects, wired
        to this recorder before the run starts.
        """
        self._links = tuple(links)
        self._queues = tuple(queues)

    def close(self) -> None:
        """Drop the retained events once the run's dumps are written.

        The counts and the watched components' totals stay readable;
        :meth:`events` is empty afterwards.
        """
        self._ring.clear()

    # -- emission hooks (called from component hot paths when tracing) ----
    # Each hook is the event's only Python frame: count it, test the
    # stride, and build the tuple only for an event the ring keeps.
    def link_send(
        self, name: str, now_ps: int, ser_ps: int, arrival_ps: int, packet
    ) -> None:
        """A packet started serializing onto a link."""
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((
                now_ps, LINK, name, ser_ps, arrival_ps, packet.pid,
                packet.kind._value_, packet.size_bits,
            ))

    def queue_depth(self, name: str, now_ps: int, depth: int) -> None:
        """An input queue's occupancy changed (push or pop)."""
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, QUEUE, name, depth))

    def router_grant(
        self, name: str, now_ps: int, output_key: int, packet, contenders: int
    ) -> None:
        """A router arbiter granted an output to an input head."""
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((
                now_ps, GRANT, name, output_key, packet.pid,
                packet.kind._value_, contenders,
            ))

    def mem_access(
        self, name: str, now_ps: int, ready_ps: int, row_hit: bool,
        is_write: bool,
    ) -> None:
        """A controller issued a bank access."""
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, MEM, name, ready_ps, row_hit, is_write))

    def engine_event(self, now_ps: int, callback_name: str) -> None:
        """One engine event dispatch (only with trace_engine_events)."""
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, ENGINE, callback_name))

    def link_retry(
        self, name: str, now_ps: int, replays: int, retry_ps: int
    ) -> None:
        """CRC-failed traversals replayed from a link's retry buffer."""
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, RETRY, name, replays, retry_ps))

    def ras_failure(self, now_ps: int, a: int, b: int) -> None:
        """A scheduled permanent failure killed edge (a, b)."""
        self.failures.append((now_ps, a, b))
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, FAULT, a, b))

    def host_timeout(self, now_ps: int, tid: int, attempt: int) -> None:
        """A request's end-to-end deadline fired at the host edge."""
        self.host_timeouts += 1
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, HOST_TIMEOUT, tid, attempt))

    def host_retry(self, now_ps: int, tid: int, attempt: int) -> None:
        """A timed-out request was re-queued after its backoff."""
        self.host_retries += 1
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, HOST_RETRY, tid, attempt))

    def host_shed(self, now_ps: int, tid: int) -> None:
        """Admission control refused a request at the host edge."""
        self.host_sheds += 1
        index = self.emitted
        self.emitted = index + 1
        self.last_ts = now_ps
        if index % self.sample == self.sample_phase:
            self._append((now_ps, HOST_SHED, tid))

    # -- views ------------------------------------------------------------
    @property
    def stored(self) -> int:
        """Events the stride kept (some may since have been evicted):
        the emission indices below ``emitted`` congruent to the phase."""
        return (self.emitted - self.sample_phase + self.sample - 1) // self.sample

    @property
    def sampled_out(self) -> int:
        """Events the stride skipped."""
        return self.emitted - self.stored

    @property
    def retained(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events seen but no longer in the ring (evicted or sampled out)."""
        return self.emitted - self.retained

    @property
    def evicted(self) -> int:
        """Stored events the ring wrapped over."""
        return self.stored - self.retained

    def events(self) -> List[tuple]:
        """Retained events decoded to the public string taxonomy."""
        return [_decode(event) for event in self._ring]

    # -- whole-run totals, read from the watched components ----------------
    # Link and queue names are unique within a system, so each total is
    # a name-ordered dict of one component's own counter.
    @property
    def link_busy_ps(self) -> Dict[str, int]:
        """Serialization time per link that carried a packet, CRC replay
        time excluded."""
        return dict(sorted(
            (link.name, serializing_ps(link))
            for link in self._links if link.packets_carried
        ))

    @property
    def link_bits(self) -> Dict[str, int]:
        return dict(sorted(
            (link.name, link.bits_carried)
            for link in self._links if link.packets_carried
        ))

    @property
    def link_packets(self) -> Dict[str, int]:
        return dict(sorted(
            (link.name, link.packets_carried)
            for link in self._links if link.packets_carried
        ))

    @property
    def link_replays(self) -> Dict[str, int]:
        """CRC replays per link that replayed at least once."""
        return dict(sorted(
            (link.name, link.replays) for link in self._links if link.replays
        ))

    @property
    def queue_peak(self) -> Dict[str, int]:
        """Peak occupancy per queue that ever held a packet."""
        return dict(sorted(
            (queue.name, queue.peak_occupancy)
            for queue in self._queues if queue.peak_occupancy
        ))

    def link_utilization(self, runtime_ps: Optional[int] = None) -> Dict[str, float]:
        """Fraction of the run each link spent serializing packets."""
        busy_ps = self.link_busy_ps
        span = runtime_ps if runtime_ps else self.last_ts
        if not span:
            return {name: 0.0 for name in busy_ps}
        return {name: busy / span for name, busy in busy_ps.items()}

    def summary(self, runtime_ps: Optional[int] = None) -> Dict[str, object]:
        return {
            "events_emitted": self.emitted,
            "events_retained": self.retained,
            "events_dropped": self.dropped,
            "events_sampled_out": self.sampled_out,
            "trace_sample": self.sample,
            "ring_capacity": self.capacity,
            "link_utilization": self.link_utilization(runtime_ps),
            "link_bits": self.link_bits,
            "link_packets": self.link_packets,
            "queue_peak_depth": self.queue_peak,
            "link_replays": self.link_replays,
            "link_failures": [list(entry) for entry in self.failures],
            "host_timeouts": self.host_timeouts,
            "host_retries": self.host_retries,
            "host_sheds": self.host_sheds,
        }

    # -- dumps -------------------------------------------------------------
    def _event_to_record(self, event: tuple) -> Dict[str, object]:
        code = event[1]
        record: Dict[str, object] = {"ts": event[0], "kind": KIND_LABELS[code]}
        record.update(zip(_FIELDS[code], _fields(event)))
        return record

    def write_jsonl(
        self, path: Union[str, Path], runtime_ps: Optional[int] = None
    ) -> None:
        """One JSON object per event, plus a trailing summary record."""
        lines = [
            json.dumps(self._event_to_record(event), separators=(",", ":"))
            for event in self._ring
        ]
        summary = {"kind": "summary"}
        summary.update(self.summary(runtime_ps))
        lines.append(json.dumps(summary, separators=(",", ":")))
        Path(path).write_text("\n".join(lines) + "\n")

    def write_chrome(
        self,
        path: Union[str, Path],
        runtime_ps: Optional[int] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> None:
        """Chrome trace_event format (chrome://tracing / Perfetto)."""
        events: List[Dict[str, object]] = []
        tids: Dict[str, int] = {}

        def tid(name: str) -> int:
            number = tids.get(name)
            if number is None:
                number = len(tids) + 1
                tids[name] = number
                events.append(
                    {
                        "ph": "M", "name": "thread_name", "pid": 0,
                        "tid": number, "args": {"name": name},
                    }
                )
            return number

        for event in self._ring:
            ts_us = event[0] / 1e6
            kind = event[1]
            if kind == LINK:
                events.append(
                    {
                        "ph": "X", "cat": "link",
                        "name": f"{PACKET_KIND_NAMES[event[6]]} #{event[5]}",
                        "pid": 0, "tid": tid(f"link {event[2]}"),
                        "ts": ts_us, "dur": event[3] / 1e6,
                        "args": {"bits": event[7], "arrival_ps": event[4]},
                    }
                )
            elif kind == QUEUE:
                events.append(
                    {
                        "ph": "C", "name": f"queue {event[2]}", "pid": 0,
                        "ts": ts_us, "args": {"depth": event[3]},
                    }
                )
            elif kind == GRANT:
                events.append(
                    {
                        "ph": "i", "s": "t", "cat": "grant",
                        "name": (
                            f"grant {PACKET_KIND_NAMES[event[5]]} #{event[4]}"
                            f" -> {event[3]}"
                        ),
                        "pid": 0, "tid": tid(f"router {event[2]}"),
                        "ts": ts_us,
                        "args": {"contenders": event[6]},
                    }
                )
            elif kind == MEM:
                events.append(
                    {
                        "ph": "X", "cat": "mem",
                        "name": (
                            f"{'write' if event[5] else 'read'}"
                            f"{' hit' if event[4] else ' miss'}"
                        ),
                        "pid": 0, "tid": tid(f"ctrl {event[2]}"),
                        "ts": ts_us, "dur": (event[3] - event[0]) / 1e6,
                    }
                )
            elif kind == ENGINE:
                events.append(
                    {
                        "ph": "i", "s": "g", "cat": "engine",
                        "name": event[2], "pid": 0, "tid": tid("engine"),
                        "ts": ts_us,
                    }
                )
            elif kind == RETRY:
                events.append(
                    {
                        "ph": "X", "cat": "retry",
                        "name": f"retry x{event[3]}",
                        "pid": 0, "tid": tid(f"link {event[2]}"),
                        "ts": ts_us, "dur": event[4] / 1e6,
                        "args": {"replays": event[3]},
                    }
                )
            elif kind == FAULT:
                events.append(
                    {
                        "ph": "i", "s": "g", "cat": "fault",
                        "name": f"link {event[2]}<->{event[3]} failed",
                        "pid": 0, "tid": tid("ras"),
                        "ts": ts_us,
                    }
                )
            elif kind in (HOST_TIMEOUT, HOST_RETRY, HOST_SHED):
                label = {
                    HOST_TIMEOUT: "timeout",
                    HOST_RETRY: "retry",
                    HOST_SHED: "shed",
                }[kind]
                name = f"{label} txn #{event[2]}"
                if kind != HOST_SHED:
                    name += f" attempt {event[3]}"
                events.append(
                    {
                        "ph": "i", "s": "t", "cat": "overload",
                        "name": name,
                        "pid": 0, "tid": tid("host overload"),
                        "ts": ts_us,
                    }
                )
        payload: Dict[str, object] = {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": dict(metadata or {}, **self.summary(runtime_ps)),
        }
        Path(path).write_text(json.dumps(payload, separators=(",", ":")))
