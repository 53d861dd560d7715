"""Ring-buffered event tracing for one simulation run.

A :class:`TraceRecorder` is attached by :class:`repro.system.
MemoryNetworkSystem` when ``config.obs.trace`` is set.  Components emit
compact event tuples into a bounded ring (old events are evicted, the
run never grows unbounded) while a handful of whole-run aggregates —
per-link busy time and bits, per-queue peak depth — are accumulated
outside the ring so the dump's utilization summary covers the entire
run even when the ring wrapped.

The ring is a preallocated slot array, and the tuples filed into it are
integer-coded: event kinds are small ints (:data:`LINK` …) and packet
kinds are stored as the raw :class:`~repro.net.packet.PacketKind`
member, never as strings.  The emission hot path therefore does no
string formatting or enum ``.name`` lookups; :meth:`TraceRecorder.
events` and the dump writers decode codes back to the public string
taxonomy (``"link"``, ``"queue"``, …) at export time, so external
consumers see the same records as before.

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
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

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


def _decode(event: tuple) -> tuple:
    """Ring tuple -> the public string-taxonomy tuple."""
    code = event[1]
    if code == LINK:
        # stored: (ts, LINK, name, ser, arrival, pid, kind, bits)
        return (
            event[0], "link", event[2], event[3], event[4], event[5],
            event[6].name, event[7],
        )
    if code == GRANT:
        # stored: (ts, GRANT, name, output_key, pid, kind, contenders)
        return (
            event[0], "grant", event[2], event[3], event[4],
            event[5].name, event[6],
        )
    return (event[0], KIND_LABELS[code]) + event[2:]


class TraceRecorder:
    """Bounded event recorder plus whole-run link/queue aggregates."""

    def __init__(
        self, capacity: int = 1 << 16, sample: int = 1, sample_phase: int = 0
    ) -> None:
        if capacity < 1:
            raise ValueError("trace ring capacity must be at least 1")
        if sample < 1:
            raise ValueError("trace sample rate must be at least 1")
        self.capacity = capacity
        # Deterministic 1-in-N ring sampling: every Nth emission (by
        # global emission index, phase-shifted by ``sample_phase``,
        # which the system derives from the config seed) is stored;
        # the rest only bump the exact counters.  The whole-run
        # aggregates below are updated by the emission hooks *before*
        # the sampling decision, so they always cover every event.
        self.sample = sample
        self.sample_phase = sample_phase % sample
        self.sampled_out = 0
        self.stored = 0
        # Preallocated ring: a fixed slot array plus a write cursor.
        # Emission is one store + cursor bump, no allocator churn.
        self._ring: List[Optional[tuple]] = [None] * capacity
        self._pos = 0
        self.emitted = 0  # total events seen (sampled or not)
        # Whole-run aggregates (never evicted).
        self.link_busy_ps: Dict[str, int] = {}
        self.link_bits: Dict[str, int] = {}
        self.link_packets: Dict[str, int] = {}
        self.queue_peak: Dict[str, int] = {}
        # RAS aggregates (repro.ras): per-link CRC replay counts and the
        # permanent failures the run suffered, never evicted.
        self.link_replays: Dict[str, int] = {}
        self.failures: List[Tuple[int, int, int]] = []  # (ts, a, b)
        # Overload aggregates (host-edge deadlines/shedding), never
        # evicted even when the ring wraps.
        self.host_timeouts = 0
        self.host_retries = 0
        self.host_sheds = 0
        self.last_ts = 0

    # -- emission hooks (called from component hot paths when tracing) ----
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

    def link_send(
        self, name: str, now_ps: int, ser_ps: int, arrival_ps: int, packet
    ) -> None:
        """A packet started serializing onto a link."""
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

    def queue_depth(self, name: str, now_ps: Optional[int], depth: int) -> None:
        """An input queue's occupancy changed (push or pop)."""
        peak = self.queue_peak
        if depth > peak.get(name, 0):
            peak[name] = depth
        self._emit((now_ps or 0, QUEUE, name, depth))

    def router_grant(
        self, name: str, now_ps: int, output_key: int, packet, contenders: int
    ) -> None:
        """A router arbiter granted an output to an input head."""
        self._emit(
            (now_ps, GRANT, name, output_key, packet.pid, packet.kind,
             contenders)
        )

    def mem_access(
        self, name: str, now_ps: int, ready_ps: int, row_hit: bool,
        is_write: bool,
    ) -> None:
        """A controller issued a bank access."""
        self._emit((now_ps, MEM, name, ready_ps, row_hit, is_write))

    def engine_event(self, now_ps: int, callback_name: str) -> None:
        """One engine event dispatch (only with trace_engine_events)."""
        self._emit((now_ps, ENGINE, callback_name))

    def link_retry(
        self, name: str, now_ps: int, replays: int, retry_ps: int
    ) -> None:
        """CRC-failed traversals replayed from a link's retry buffer."""
        tally = self.link_replays
        tally[name] = tally.get(name, 0) + replays
        self._emit((now_ps, RETRY, name, replays, retry_ps))

    def ras_failure(self, now_ps: int, a: int, b: int) -> None:
        """A scheduled permanent failure killed edge (a, b)."""
        self.failures.append((now_ps, a, b))
        self._emit((now_ps, FAULT, a, b))

    def host_timeout(self, now_ps: int, tid: int, attempt: int) -> None:
        """A request's end-to-end deadline fired at the host edge."""
        self.host_timeouts += 1
        self._emit((now_ps, HOST_TIMEOUT, tid, attempt))

    def host_retry(self, now_ps: int, tid: int, attempt: int) -> None:
        """A timed-out request was re-queued after its backoff."""
        self.host_retries += 1
        self._emit((now_ps, HOST_RETRY, tid, attempt))

    def host_shed(self, now_ps: int, tid: int) -> None:
        """Admission control refused a request at the host edge."""
        self.host_sheds += 1
        self._emit((now_ps, HOST_SHED, tid))

    # -- views ------------------------------------------------------------
    @property
    def retained(self) -> int:
        return min(self.stored, self.capacity)

    @property
    def dropped(self) -> int:
        """Events seen but no longer in the ring (evicted or sampled out)."""
        return self.emitted - self.retained

    @property
    def evicted(self) -> int:
        """Stored events the ring wrapped over."""
        return self.stored - self.retained

    def _raw_events(self) -> List[tuple]:
        """Retained ring tuples, oldest first, still integer-coded."""
        if self.stored <= self.capacity:
            return self._ring[: self.stored]
        pos = self._pos
        return self._ring[pos:] + self._ring[:pos]

    def events(self) -> List[tuple]:
        """Retained events decoded to the public string taxonomy."""
        return [_decode(event) for event in self._raw_events()]

    def link_utilization(self, runtime_ps: Optional[int] = None) -> Dict[str, float]:
        """Fraction of the run each link spent serializing packets."""
        span = runtime_ps if runtime_ps else self.last_ts
        if not span:
            return {name: 0.0 for name in self.link_busy_ps}
        return {
            name: busy / span for name, busy in sorted(self.link_busy_ps.items())
        }

    def summary(self, runtime_ps: Optional[int] = None) -> Dict[str, object]:
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

    # -- dumps -------------------------------------------------------------
    def _event_to_record(self, event: tuple) -> Dict[str, object]:
        ts, kind = event[0], event[1]
        record: Dict[str, object] = {"ts": ts, "kind": KIND_LABELS[kind]}
        if kind == LINK:
            record.update(
                link=event[2], ser_ps=event[3], arrival_ps=event[4],
                pid=event[5], packet=event[6].name, bits=event[7],
            )
        elif kind == QUEUE:
            record.update(queue=event[2], depth=event[3])
        elif kind == GRANT:
            record.update(
                router=event[2], output=event[3], pid=event[4],
                packet=event[5].name, contenders=event[6],
            )
        elif kind == MEM:
            record.update(
                controller=event[2], ready_ps=event[3], row_hit=event[4],
                is_write=event[5],
            )
        elif kind == ENGINE:
            record.update(callback=event[2])
        elif kind == RETRY:
            record.update(link=event[2], replays=event[3], retry_ps=event[4])
        elif kind == FAULT:
            record.update(a=event[2], b=event[3])
        elif kind in (HOST_TIMEOUT, HOST_RETRY):
            record.update(tid=event[2], attempt=event[3])
        elif kind == HOST_SHED:
            record.update(tid=event[2])
        return record

    def write_jsonl(
        self, path: Union[str, Path], runtime_ps: Optional[int] = None
    ) -> None:
        """One JSON object per event, plus a trailing summary record."""
        lines = [
            json.dumps(self._event_to_record(event), separators=(",", ":"))
            for event in self._raw_events()
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

        for event in self._raw_events():
            ts_us = event[0] / 1e6
            kind = event[1]
            if kind == LINK:
                events.append(
                    {
                        "ph": "X", "cat": "link",
                        "name": f"{event[6].name} #{event[5]}",
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
                        "name": f"grant {event[5].name} #{event[4]} -> {event[3]}",
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
