"""Finite input queues with credit-based backpressure."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.net.packet import Packet
from repro.obs.attribution import segment_code


class InputQueue:
    """A finite FIFO of packets at a router input port.

    ``upstream_link`` (set by the feeding :class:`~repro.net.link.Link`)
    identifies where to return a credit when a packet leaves the queue;
    local sources (memory controllers, host injectors) leave it None and
    may instead register ``on_drain`` to learn when space frees up.
    Every queue holds at most ``capacity`` packets; the host's receive
    side is not a queue but a :class:`~repro.net.router.LocalOutput`.
    """

    __slots__ = (
        "name",
        "capacity",
        "_items",
        "_entry_times",
        "head_key",
        "upstream_link",
        "on_drain",
        "peak_occupancy",
        "total_wait_ps",
        "pushed",
        "popped",
        "removed_count",
        "tracer",
        "_seg_req",
        "_seg_resp",
        "_seg_xfer",
    )

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        # Interned attribution labels (repro.obs): computed once here so
        # the pop path appends integer codes, not concatenated strings.
        self._seg_req = segment_code("req.queue." + name)
        self._seg_resp = segment_code("resp.queue." + name)
        # P2P data legs live in the mem phase: the copy is "in memory"
        # from the source-cube read until the destination-cube write.
        self._seg_xfer = segment_code("mem.xfer.queue." + name)
        self._items: Deque[Packet] = deque()
        self._entry_times: Deque[int] = deque()
        # Cached output key (-1 = local, else next node id) of the head
        # packet, None when empty.  The router's arbitration scan reads
        # this instead of re-deriving route[hop] per queue per round; it
        # is maintained at every head transition (push-to-empty, pop,
        # remove) and refreshed by the RAS quiesce after it rewrites
        # queued routes in place.
        self.head_key: Optional[int] = None
        self.upstream_link = None
        self.on_drain = None
        self.peak_occupancy = 0
        # waiting-time accounting (the Section 3.2 parking-lot analysis)
        self.total_wait_ps = 0
        # conservation counters (repro.check): every entry and exit
        self.pushed = 0
        self.popped = 0
        self.removed_count = 0
        # observability (repro.obs): set by the system when tracing is on
        self.tracer = None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    def has_space(self) -> bool:
        return len(self._items) < self.capacity

    def head(self) -> Packet:
        if not self._items:
            raise SimulationError(f"peek on empty queue {self.name}")
        return self._items[0]

    def push(self, packet: Packet, now_ps: int) -> None:
        items = self._items
        if len(items) >= self.capacity:
            raise SimulationError(
                f"queue {self.name} overflow (capacity {self.capacity}); "
                "credit accounting is broken"
            )
        items.append(packet)
        self._entry_times.append(now_ps)
        self.pushed += 1
        depth = len(items)
        if depth == 1:
            route = packet.route
            hop = packet.hop_index + 1
            self.head_key = route[hop] if hop < len(route) else -1
        if depth > self.peak_occupancy:
            self.peak_occupancy = depth
        if self.tracer is not None:
            self.tracer.queue_depth(self.name, now_ps, depth)

    def pop(self, now_ps: int) -> Packet:
        if not self._items:
            raise SimulationError(f"pop on empty queue {self.name}")
        entered = self._entry_times.popleft()
        items = self._items
        packet = items.popleft()
        if items:
            head = items[0]
            route = head.route
            hop = head.hop_index + 1
            self.head_key = route[hop] if hop < len(route) else -1
        else:
            self.head_key = None
        self.popped += 1
        self.total_wait_ps += now_ps - entered
        txn = packet.transaction
        if txn is not None and txn.segments is not None and now_ps > entered:
            if packet.is_xfer:
                code = self._seg_xfer
            elif packet.is_req:
                code = self._seg_req
            else:
                code = self._seg_resp
            txn.segments.append((code, entered, now_ps))
        if self.tracer is not None:
            self.tracer.queue_depth(self.name, now_ps, len(items))
        return packet

    def refresh_head_key(self) -> None:
        """Recompute :attr:`head_key` after an in-place route rewrite
        (RAS quiesce re-paths queued packets without popping them)."""
        items = self._items
        if items:
            head = items[0]
            route = head.route
            hop = head.hop_index + 1
            self.head_key = route[hop] if hop < len(route) else -1
        else:
            self.head_key = None

    def packets(self) -> "tuple":
        """Snapshot of queued packets, head first (RAS quiesce walk)."""
        return tuple(self._items)

    def remove(self, victims) -> int:
        """Drop every queued packet in ``victims`` (RAS quiesce).

        Entry times stay aligned with the surviving packets.  Credit
        return / ``on_drain`` notification is the caller's job — the
        system batches those until every queue has been walked, so a
        freed slot cannot re-enter a queue mid-walk.  Returns the number
        of packets removed.
        """
        if not victims:
            return 0
        kept = deque()
        kept_times = deque()
        removed = 0
        for packet, entered in zip(self._items, self._entry_times):
            if packet in victims:
                removed += 1
            else:
                kept.append(packet)
                kept_times.append(entered)
        self._items = kept
        self._entry_times = kept_times
        self.removed_count += removed
        self.refresh_head_key()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"InputQueue({self.name}, {len(self._items)}/{self.capacity})"
