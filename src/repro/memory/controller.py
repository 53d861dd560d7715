"""Per-quadrant memory controller.

The controller owns the quadrant's banks, a finite request queue
(backpressure into the cube's switch), and a response path into the
cube router's local input port.  Scheduling is first-ready FCFS: the
oldest request whose bank is free issues; younger requests may bypass a
bank conflict (bank-level parallelism, which Fig 14's capacity study
depends on).

Banks are allocated on first touch.  ``banks`` keeps the configured
length, but a slot stays ``None`` until a queued request names that
bank; a paper system has 256 banks per stack and a short job reaches a
few hundred of its thousands.  Refresh keeps this exact: each refresh
group carries *shadow* busy windows, updated by every tick with the same
arithmetic as :meth:`Bank.refresh` (:func:`refreshed_windows`), and a
bank created later starts from its group's shadow, which is the state
an eagerly built bank nobody touched would be in.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import PacketConfig
from repro.memory.bank import Bank, refreshed_windows
from repro.memory.timing import AccessPlan, TimingModel
from repro.net.buffers import InputQueue
from repro.net.packet import Packet, PacketKind
from repro.net.pool import PacketPool
from repro.net.router import LOCAL, Router
from repro.obs.attribution import segment_code
from repro.sim.engine import Engine


class QuadrantController:
    """One of the four independent controllers inside a memory cube."""

    def __init__(
        self,
        name: str,
        timing: TimingModel,
        num_banks: int,
        queue_depth: int,
        inject_queue: InputQueue,
        router: Router,
        route_response: Callable[[Packet], None],
        packet_config: PacketConfig,
        refresh_offset_ps: int = 0,
        scheduling: str = "fcfs",
        pool: Optional[PacketPool] = None,
    ) -> None:
        self.name = name
        self.timing = timing
        # Created on first touch (see bank()); None until then.
        self.banks: List[Optional[Bank]] = [None] * num_banks
        # Refresh-group shadows: the busy windows of a bank in that
        # group that no access has touched (see _refresh_tick).
        groups = min(self.REFRESH_GROUPS, num_banks)
        self._shadow_array = [0] * groups
        self._shadow_buffer = [0] * groups
        self.queue_depth = queue_depth
        self.inject_queue = inject_queue
        self.router = router
        self.route_response = route_response
        self.packet_config = packet_config
        # Normally the system-wide shared pool; directly-constructed
        # controllers (unit tests) get a private one.
        self.pool = pool if pool is not None else PacketPool()
        self.refresh_offset_ps = refresh_offset_ps
        if scheduling not in ("fcfs", "frfcfs"):
            raise ValueError(f"unknown scheduling policy {scheduling!r}")
        self.scheduling = scheduling
        # Interned attribution labels (repro.obs): the issue/inject hot
        # paths append integer codes, not per-event f-strings.
        self._seg_queue = segment_code(f"mem.queue.{name}")
        self._seg_array = segment_code(f"mem.array.{name}")
        self._seg_stall = segment_code(f"resp.stall.{name}")
        # P2P data legs stall in the mem phase (source cube waiting to
        # forward the copied line toward the destination cube).
        self._seg_stall_xfer = segment_code(f"mem.xfer.stall.{name}")

        self._queue: List[Packet] = []
        self._reserved = 0
        self._pending_responses: List[Packet] = []
        self._next_wake_ps: Optional[int] = None
        self._refresh_due_ps: Optional[int] = None
        self._refresh_armed = False
        # counters
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.refreshes = 0
        # observability (repro.obs): set by the system when tracing is on
        self.tracer = None
        inject_queue.on_drain = self._inject_drained

    # -- admission ---------------------------------------------------------
    def can_accept(self) -> bool:
        return len(self._queue) + self._reserved < self.queue_depth

    def reserve(self) -> None:
        self._reserved += 1

    def start_refresh(self, engine: Engine) -> None:
        tech = self.timing.tech
        if tech.needs_refresh:
            self._refresh_due_ps = self.refresh_offset_ps
            self._refresh_armed = True
            engine.schedule(self.refresh_offset_ps, self._refresh)

    # -- request path --------------------------------------------------------
    def receive(self, engine: Engine, packet: Packet) -> None:
        if self._refresh_due_ps is not None and not self._refresh_armed:
            # Dormant: replay the refresh ticks skipped while the queue
            # was empty (no bank was touched and no bank was created in
            # between, so the lazy replay is exact), then go back to
            # eager ticking.
            now = engine.now
            while self._refresh_due_ps <= now:
                self._refresh_tick(self._refresh_due_ps)
            self._refresh_armed = True
            engine.schedule_at(self._refresh_due_ps, self._refresh)
        self._reserved -= 1
        if packet.transaction.segments is not None:
            packet.obs_mark = engine.now  # queue-wait clock starts here
        self._queue.append(packet)
        self._kick(engine)

    def _kick(self, engine: Engine) -> None:
        now = engine.now
        issued_any = False
        if self.scheduling == "fcfs":
            # strict in-order: the head must issue before anything else
            while self._queue:
                packet = self._queue[0]
                location = packet.location
                bank = self.banks[location.bank]
                if bank is None:
                    bank = self.bank(location.bank)
                if not bank.ready_for(now, location.row):
                    break
                del self._queue[0]
                self._issue(engine, packet, bank, location.row)
                issued_any = True
        else:
            issued = True
            while issued:
                issued = False
                for position, packet in enumerate(self._queue):
                    location = packet.location
                    bank = self.banks[location.bank]
                    if bank is None:
                        bank = self.bank(location.bank)
                    if bank.ready_for(now, location.row):
                        del self._queue[position]
                        self._issue(engine, packet, bank, location.row)
                        issued = True
                        issued_any = True
                        break
        self._arm_wakeup(engine)
        if issued_any:
            # Each issue freed an admission slot; wake any router head
            # that was blocked on local delivery (the event-driven
            # router no longer polls us on unrelated arrivals).
            self.router.output_ready(engine, LOCAL)

    def _issue(self, engine: Engine, packet: Packet, bank: Bank, row: int) -> None:
        txn = packet.transaction
        # A P2P_XFER leg writes the copied line at the destination cube;
        # every other leg follows the transaction's own kind (a P2P_REQ
        # is a read of the source address, txn.is_write is False).
        is_write = txn.is_write or packet.is_xfer
        plan = self.timing.plan(bank, engine.now, row, is_write)
        self.timing.apply(bank, plan, row)
        if txn.segments is not None:
            now = engine.now
            mark = packet.obs_mark
            if mark is not None and now > mark:
                txn.segments.append((self._seg_queue, mark, now))
            txn.segments.append((self._seg_array, now, plan.data_ready_ps))
        if self.tracer is not None:
            self.tracer.mem_access(
                self.name, engine.now, plan.data_ready_ps, plan.row_hit, is_write
            )
        engine.schedule_bound(
            plan.data_ready_ps - engine.now, self._complete, (packet, plan)
        )

    def _complete(self, engine: Engine, packet: Packet, plan: AccessPlan) -> None:
        txn = packet.transaction
        kind = packet.kind
        if kind >= PacketKind.P2P_REQ:
            # p2p relay leg.  The source-side read forwards the copied
            # line toward the destination cube; the destination-side
            # write acknowledges the host.  The transaction only leaves
            # "memory" when the destination write is durable.
            if packet.is_xfer:
                txn.mem_depart_ps = engine.now
                txn.row_hit = plan.row_hit
                txn.dest_tech = self.timing.tech.name
                self.writes += 1
                response = self.pool.p2p_ack_packet(
                    self.packet_config, packet, engine.now
                )
            else:  # P2P_REQ: the source-side read
                self.reads += 1
                response = self.pool.p2p_xfer_packet(
                    self.packet_config, packet, engine.now
                )
        else:
            txn.mem_depart_ps = engine.now
            txn.row_hit = plan.row_hit
            txn.dest_tech = self.timing.tech.name
            if txn.is_write:
                self.writes += 1
            else:
                self.reads += 1
            response = self.pool.response_packet(
                self.packet_config, packet, engine.now
            )
        if plan.row_hit:
            self.row_hits += 1
        if txn.segments is not None:
            response.obs_mark = engine.now  # inject-stall clock starts here
        # route_response returns False only when a RAS permanent failure
        # cut this cube off from its target — the packet is then lost
        # (the host errors the transaction on its side).
        if self.route_response(response) is not False:
            self._pending_responses.append(response)
            self._try_inject(engine)
        self._kick(engine)

    # -- response path ---------------------------------------------------------
    def _try_inject(self, engine: Engine) -> None:
        while self._pending_responses and self.inject_queue.has_space():
            response = self._pending_responses.pop(0)
            txn = response.transaction
            if txn.segments is not None:
                mark = response.obs_mark
                if mark is not None and engine.now > mark:
                    seg = (
                        self._seg_stall_xfer if response.is_xfer else self._seg_stall
                    )
                    txn.segments.append((seg, mark, engine.now))
            self.inject_queue.push(response, engine.now)
            self.router.packet_arrived(engine, self.inject_queue)

    def _inject_drained(self, engine: Engine) -> None:
        self._try_inject(engine)

    def sweep_responses(self, keep_or_fix: Callable[[Packet], bool]) -> int:
        """RAS quiesce: re-path or drop responses queued for injection.

        ``keep_or_fix`` may rewrite a response's route in place; a False
        return drops it.  Returns the number of responses dropped.
        """
        kept = []
        dropped = 0
        for response in self._pending_responses:
            if keep_or_fix(response):
                kept.append(response)
            else:
                dropped += 1
        self._pending_responses = kept
        return dropped

    # -- wakeups -------------------------------------------------------------
    def _arm_wakeup(self, engine: Engine) -> None:
        if not self._queue:
            return
        now = engine.now
        earliest = None
        scan = self._queue[:1] if self.scheduling == "fcfs" else self._queue
        for packet in scan:
            location = packet.location
            bank = self.banks[location.bank]
            if bank is None:
                bank = self.bank(location.bank)
            start = bank.earliest_start(now, location.row)
            if start > now and (earliest is None or start < earliest):
                earliest = start
        if earliest is None:
            return
        if self._next_wake_ps is not None and now < self._next_wake_ps <= earliest:
            return  # an adequate wakeup is already armed
        self._next_wake_ps = earliest
        engine.schedule_at(earliest, self._wake)

    def _wake(self, engine: Engine) -> None:
        if self._next_wake_ps is not None and engine.now >= self._next_wake_ps:
            self._next_wake_ps = None
        self._kick(engine)

    # -- banks -------------------------------------------------------------------
    def bank(self, index: int) -> Bank:
        """Bank ``index``, created on first touch.

        A new bank copies its refresh group's shadow windows, so it is
        field for field the bank that eager construction plus every
        refresh tick so far would have produced: no row is open, because
        refresh closes rows and nothing has opened one.
        """
        bank = self.banks[index]
        if bank is None:
            bank = Bank(num_row_buffers=self.timing.tech.row_buffers)
            group = index % len(self._shadow_array)
            bank.array_busy_until = self._shadow_array[group]
            bank.buffer_busy_until = self._shadow_buffer[group]
            self.banks[index] = bank
        return bank

    # -- refresh ---------------------------------------------------------------
    # Banks refresh in rotating groups (per-bank refresh as in HBM), so
    # at any instant only a fraction of the quadrant is unavailable and
    # bank-level parallelism hides most of the cost.  Ticks fire eagerly
    # only while requests are queued; a quiescent controller schedules
    # nothing and replays the missed ticks when the next request arrives
    # (exact, because idle banks are never touched, nor created, in
    # between).  Banks not yet created are refreshed through their
    # group's shadow windows instead.
    REFRESH_GROUPS = 8

    def _refresh_tick(self, tick_ps: int) -> None:
        """Apply the refresh tick due at ``tick_ps`` and advance the due
        time.  ``bank.refresh`` starts at ``max(tick_ps, busy_until)``,
        so replaying a tick after its due time gives the same bank state
        as applying it on time; the group's shadow takes the same tick,
        whatever the refresh duration is relative to the interval."""
        tech = self.timing.tech
        banks = self.banks
        groups = len(self._shadow_array)
        group = self.refreshes % groups
        duration = tech.refresh_duration_ps
        self._shadow_array[group], self._shadow_buffer[group] = refreshed_windows(
            self._shadow_array[group], self._shadow_buffer[group], tick_ps, duration
        )
        for index in range(group, len(banks), groups):
            bank = banks[index]
            if bank is not None:
                bank.refresh(tick_ps, duration)
        self.refreshes += 1
        self._refresh_due_ps = tick_ps + tech.refresh_interval_ps // groups

    def _refresh(self, engine: Engine) -> None:
        self._refresh_armed = False
        self._refresh_tick(engine.now)
        if self._queue:
            self._refresh_armed = True
            engine.schedule_at(self._refresh_due_ps, self._refresh)
        # else dormant: receive() replays missed ticks and re-arms

    # -- introspection ------------------------------------------------------------
    @property
    def pending_responses(self) -> int:
        return len(self._pending_responses)
