"""Package-to-package links with SerDes timing and credits.

The paper's MNs use a *single* 16-bit link between two packages
(Section 5): requests and responses share its serialization bandwidth,
and responses are prioritized over requests "to prevent deadlocks from
older responses being blocked by newer requests" (Section 3.2) — the
root cause of the to-memory/from-memory latency asymmetry in Fig 5.

We model this with a :class:`SharedChannel` (the physical half-duplex
medium) carrying two :class:`Link` halves (one per direction).  Each
half owns the credit pool of its downstream input queue.  When the
channel goes idle it re-arbitrates between directions, granting a
direction with a response-class head packet first.  Setting
``full_duplex=True`` on the link config gives each direction its own
channel instead.

Cost per traversal:

* serialization time: ``size_bits / (lanes * lane_gbps)``,
* a fixed SerDes latency (2 ns by default, Section 5) for
  descrambling/deserializing at the receiving package,
* optional propagation delay.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import LinkConfig
from repro.errors import SimulationError
from repro.net.buffers import InputQueue
from repro.net.packet import Packet
from repro.obs.attribution import segment_code
from repro.sim.engine import Engine
from repro.units import serialization_ps


class SharedChannel:
    """The physical medium: one serializer shared by its Link halves.

    Wake-ups are strictly demand-driven: a sender blocked on the busy
    channel registers itself via :meth:`wake_when_idle`, and the single
    idle event is armed only while someone is actually waiting.  An
    uncontended channel therefore schedules *no* idle/poll events at
    all — packets stream through with one delivery event each.
    """

    __slots__ = ("name", "_busy_until", "halves", "_waiting", "_idle_armed")

    def __init__(self, name: str) -> None:
        self.name = name
        self._busy_until = 0
        self.halves: List["Link"] = []
        self._waiting: List["Link"] = []
        self._idle_armed = False

    def wake_when_idle(self, engine: Engine, half: "Link") -> None:
        """A sender with a blocked head packet asks to be re-granted.

        Idempotent per half.  Arms the channel-idle event when the
        channel is busy; a credit-blocked sender on a free channel is
        woken by the credit return instead (:meth:`Link.return_credit`).
        """
        if half._waiting:
            return
        half._waiting = True
        self._waiting.append(half)
        if not self._idle_armed and engine.now < self._busy_until:
            self._idle_armed = True
            engine.schedule_at(self._busy_until, self._became_idle)

    def _became_idle(self, engine: Engine) -> None:
        self._idle_armed = False
        if engine.now < self._busy_until:
            # Someone re-occupied the channel at this exact instant and
            # ran *before* this event, so its send saw the stale
            # armed flag and skipped scheduling.  Re-arm here or the
            # waiters sleep forever (the lost-wakeup race: a waiter
            # blocked on the busy channel is only ever woken by this
            # event or a credit return).
            if self._waiting:
                self._idle_armed = True
                engine.schedule_at(self._busy_until, self._became_idle)
            return
        self.grant(engine)

    def grant(self, engine: Engine) -> None:
        """Re-arbitrate the idle channel between its waiting directions.

        A direction whose sender has a response-class packet at an
        eligible queue head wins (the paper's deadlock-avoidance
        priority, Section 3.2); ties keep registration order, which
        alternates naturally because a re-blocked sender re-registers at
        the back.  Waiters not reached before the channel is taken are
        re-registered so the next idle transition wakes them.
        """
        waiting = self._waiting
        if not waiting:
            return
        if len(waiting) > 1:
            waiting.sort(key=lambda half: not half.sender_has_response_head())
        self._waiting = []
        for half in waiting:
            half._waiting = False
        for position, half in enumerate(waiting):
            if engine.now < self._busy_until:
                # a packet took the channel; re-register the rest
                for missed in waiting[position:]:
                    self.wake_when_idle(engine, missed)
                return
            if half.on_idle is not None:
                half.on_idle(engine)


class Link:
    """One direction of a package-to-package connection."""

    __slots__ = (
        "name",
        "config",
        "channel",
        "dst_queue",
        "_credits",
        "_waiting",
        "_ser_cache",
        "_arrival_extra_ps",
        "_seg_wire_req",
        "_seg_wire_resp",
        "_seg_wire_xfer",
        "_seg_retry_req",
        "_seg_retry_resp",
        "_seg_retry_xfer",
        "on_idle",
        "on_delivery",
        "sender_has_response_head",
        "packets_carried",
        "bits_carried",
        "busy_ps",
        "replay_ps",
        "tracer",
        "faults",
        "replays",
        "dead",
        "route_guard",
        "guard_drops",
    )

    def __init__(
        self,
        name: str,
        config: LinkConfig,
        dst_queue: InputQueue,
        channel: Optional[SharedChannel] = None,
    ) -> None:
        self.name = name
        self.config = config
        self.channel = channel if channel is not None else SharedChannel(name)
        self.channel.halves.append(self)
        self.dst_queue = dst_queue
        self._credits = dst_queue.capacity
        self._waiting = False  # registered in the channel's waiting set
        self._ser_cache: dict = {}  # size_bits -> serialization ps
        # fixed post-serialization latency, hoisted out of send()
        self._arrival_extra_ps = config.serdes_latency_ps + config.propagation_ps
        # Interned attribution labels (repro.obs): send() appends
        # integer codes instead of concatenating strings per packet.
        self._seg_wire_req = segment_code("req.wire." + name)
        self._seg_wire_resp = segment_code("resp.wire." + name)
        self._seg_retry_req = segment_code("req.retry." + name)
        self._seg_retry_resp = segment_code("resp.retry." + name)
        # P2P data legs are attributed to the mem phase (the copy is
        # "in memory" between the source read and the destination write).
        self._seg_wire_xfer = segment_code("mem.xfer.wire." + name)
        self._seg_retry_xfer = segment_code("mem.xfer.retry." + name)
        # Callbacks wired by the owning routers:
        # ``on_idle(engine)``     -> upstream router retries this output.
        # ``on_delivery(engine, queue)`` -> downstream router reacts to
        #                            the packet that just arrived.
        # ``sender_has_response_head()`` -> used by the shared channel to
        #                            prioritize the response direction.
        self.on_idle: Optional[Callable[[Engine], None]] = None
        self.on_delivery: Optional[Callable[[Engine, InputQueue], None]] = None
        self.sender_has_response_head: Callable[[], bool] = lambda: False
        # stats
        self.packets_carried = 0
        self.bits_carried = 0
        self.busy_ps = 0
        # the part of busy_ps spent replaying CRC-failed traversals (RAS)
        self.replay_ps = 0
        # observability (repro.obs): set by the system when tracing is on
        self.tracer = None
        # RAS (repro.ras): all four stay at their defaults unless a fault
        # plan is enabled — the zero-overhead-when-off guard.
        # ``faults`` -> per-link transient-error state (LinkFaultState),
        # ``dead``   -> permanently failed, accepts no new packets,
        # ``route_guard(engine, packet, link)`` -> delivery-time check
        #               that reroutes/drops packets whose remaining route
        #               crosses a dead edge; returns False to swallow.
        self.faults = None
        self.replays = 0
        self.dead = False
        self.route_guard = None
        # packets swallowed in-flight by the route guard (repro.check:
        # closes the wire-occupancy conservation equation under RAS)
        self.guard_drops = 0
        dst_queue.upstream_link = self

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Permanently kill this direction (RAS).  In-flight packets
        still deliver — the retry buffer drains — but nothing new is
        accepted: a dead link never takes another send."""
        self.dead = True

    @property
    def credits(self) -> int:
        return self._credits

    # ------------------------------------------------------------------
    def send(self, engine: Engine, packet: Packet) -> None:
        """Launch a packet; it arrives downstream after ser + SerDes.

        With a fault plan bound (``faults`` non-None) the traversal may
        suffer CRC failures: each one replays the packet from the retry
        buffer, costing one extra serialization plus the retrain
        penalty.  The channel stays occupied for the whole retry burst
        and the packet arrives correspondingly later.
        """
        if self.dead:
            raise SimulationError(f"link {self.name} is dead")
        if self._credits <= 0:
            raise SimulationError(f"link {self.name} has no credit")
        # Only a handful of packet sizes ever cross one link; memoize
        # the serialization time per link (dict hit on an int key).
        size_bits = packet.size_bits
        ser = self._ser_cache.get(size_bits)
        if ser is None:
            ser = self._ser_cache[size_bits] = serialization_ps(
                size_bits, self.config.lanes, self.config.lane_gbps
            )
        occupy_ps = ser
        retry_ps = 0
        faults = self.faults
        if faults is not None:
            replays = faults.draw_replays(size_bits)
            if replays:
                self.replays += replays
                retry_ps = replays * (ser + faults.retry_penalty_ps)
                self.replay_ps += retry_ps
                occupy_ps += retry_ps
        # Channel occupation (the busy guard must stay: send() is
        # only reachable on a free channel, but RAS quiesce re-kicks can
        # race a same-instant re-occupation).
        now = engine.now
        channel = self.channel
        if now < channel._busy_until:
            raise SimulationError(f"channel {channel.name} busy")
        channel._busy_until = now + occupy_ps
        if channel._waiting and not channel._idle_armed:
            channel._idle_armed = True
            engine.schedule_bound(occupy_ps, channel._became_idle)
        self._credits -= 1
        self.packets_carried += 1
        self.bits_carried += size_bits
        self.busy_ps += occupy_ps
        arrival_delay = occupy_ps + self._arrival_extra_ps
        txn = packet.transaction
        if txn is not None and txn.segments is not None:
            if packet.is_xfer:
                seg_retry, seg_wire = self._seg_retry_xfer, self._seg_wire_xfer
            elif packet.is_req:
                seg_retry, seg_wire = self._seg_retry_req, self._seg_wire_req
            else:
                seg_retry, seg_wire = self._seg_retry_resp, self._seg_wire_resp
            if retry_ps:
                # failed attempts first, then the good serialization
                txn.segments.append((seg_retry, now, now + retry_ps))
            txn.segments.append((seg_wire, now + retry_ps, now + arrival_delay))
        if self.tracer is not None:
            self.tracer.link_send(self.name, now, ser, arrival_delay, packet)
            if retry_ps:
                self.tracer.link_retry(self.name, now, replays, retry_ps)
        engine.schedule_bound(arrival_delay, self._deliver, (packet,))

    def _deliver(self, engine: Engine, packet: Packet) -> None:
        # The packet has crossed one more hop of its route.
        packet.hop_index += 1
        packet.hops_traversed += 1
        guard = self.route_guard
        if guard is not None and not guard(engine, packet, self):
            self.guard_drops += 1
            return  # RAS: no route survives the failure; the guard dropped it
        self.dst_queue.push(packet, engine.now)
        if self.on_delivery is not None:
            self.on_delivery(engine, self.dst_queue)

    def return_credit(self, engine: Engine) -> None:
        """Called by the downstream router when a packet leaves its queue."""
        self._credits += 1
        # Retrying immediately models an ideal credit wire; the 2 ns
        # SerDes latency already dominates real credit-return time.
        # With nobody registered as waiting there is nothing to wake.
        channel = self.channel
        if channel._waiting and engine.now >= channel._busy_until:
            channel.grant(engine)
