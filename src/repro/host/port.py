"""The host memory port: closed-loop injection with a coherence stall.

Each port issues the workload's request stream subject to:

* a maximum-outstanding window (memory-level parallelism of the core),
* injection-queue space on the host router (backpressure from the MN),
* the directory rule (reads stall behind outstanding writes to the
  same line — required for skip-list consistency, Section 4.2).

Two Section 4.2/5.3 refinements live here because they are decisions
made "when injecting to the network":

* read-priority injection — reads may bypass queued writes at the port,
* write-burst hysteresis — while writes dominate the recent stream,
  write requests are routed over the short (read-class) paths.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, Deque, Iterator, List, Optional, Sequence

from repro.config import SystemConfig
from repro.errors import ConfigError, WorkloadError
from repro.host.address_map import AddressMap, Location
from repro.host.directory import Directory
from repro.net.buffers import InputQueue
from repro.net.packet import (
    KIND_NAMES,
    KIND_P2P,
    KIND_READ,
    KIND_WRITE,
    Packet,
    Transaction,
)
from repro.net.pool import PacketPool
from repro.net.routing import RouteClass, RouteTable
from repro.net.router import Router
from repro.obs.attribution import segment_code
from repro.sim.engine import Engine
from repro.sim.random import derive_seed
from repro.workloads.base import Request
from repro.workloads.synthetic import SyntheticWorkload

# Interned attribution labels (repro.obs); the port's labels carry no
# location detail, so they are interned once at import.
_SEG_REQ_PORT = segment_code("req.port")
_SEG_REQ_INJECT = segment_code("req.inject")
_SEG_RESP_PORT = segment_code("resp.port")
# Overload dead-time labels: a cancelled attempt's span [claim, timeout]
# collapses to host.timeout.<kind>, and the backoff + re-queue wait
# [timeout, next claim] becomes host.retry.<kind>, so a retried request's
# segments still tile its end-to-end latency exactly (zero residual).
# Both are indexed by ``Transaction.kind``.
_SEG_TIMEOUT = tuple(segment_code(f"host.timeout.{k}") for k in KIND_NAMES)
_SEG_RETRY = tuple(segment_code(f"host.retry.{k}") for k in KIND_NAMES)


def _total(table: str) -> property:
    """A read-only sum over one of the port's per-kind tables."""
    get = attrgetter(table)
    return property(
        lambda self: sum(get(self)), doc=f"Sum of ``{table}`` over all kinds."
    )


def _checked_requests(requests: Iterator[Request]) -> Iterator[Request]:
    """Pass a hand-built request stream through, rejecting requests the
    port cannot serve: a p2p copy reads its source line, so it is never
    also a write."""
    for request in requests:
        if request.is_write and request.is_p2p:
            raise ConfigError(
                f"request for address {request.address:#x} sets both "
                "is_write and is_p2p; a p2p copy must have is_write=False"
            )
        yield request


class HostPort:
    """One memory port of the APU driving one MN."""

    def __init__(
        self,
        port_id: int,
        config: SystemConfig,
        workload: Iterator[Request],
        total_requests: int,
        address_map: AddressMap,
        cube_node_ids: Sequence[int],
        route_table: RouteTable,
        inject_queue: InputQueue,
        router: Router,
        on_transaction_done: Callable[[Engine, Transaction], None],
        window: Optional[int] = None,
        pool: Optional[PacketPool] = None,
        cube_techs: Optional[Sequence[str]] = None,
        open_loop: bool = False,
    ) -> None:
        self.port_id = port_id
        self.config = config
        # The synthetic generator never sets both is_write and is_p2p;
        # any other stream is checked request by request.
        self.workload = (
            workload
            if type(workload) is SyntheticWorkload
            else _checked_requests(workload)
        )
        self.total_requests = total_requests
        self.address_map = address_map
        self.cube_node_ids = list(cube_node_ids)
        self.route_table = route_table
        self.inject_queue = inject_queue
        self.router = router
        self.on_transaction_done = on_transaction_done
        # Normally the system-wide shared pool; directly-constructed
        # ports (unit tests) get a private one.
        self.pool = pool if pool is not None else PacketPool()
        self.window = (
            config.host.max_outstanding_per_port
            if window is None
            else min(window, config.host.max_outstanding_per_port)
        )

        self.directory = Directory()
        self.pending: List[Transaction] = []  # generated, not yet injected
        # The per-kind ledger, every table indexed by ``Transaction.kind``
        # (read, write, p2p).  These are the only stored counts; the
        # totals (``generated``, ``completed``, ...) are sums over them.
        # Each generated request ends in exactly one of completed /
        # failed (RAS) / timed_out (deadline, retries spent) / shed
        # (admission refused); see _retire.  At end of run
        # generated == completed + failed + timed_out + shed per kind.
        self.generated_by_kind = [0, 0, 0]
        self.completed_by_kind = [0, 0, 0]
        self.failed_by_kind = [0, 0, 0]
        self.timed_out_by_kind = [0, 0, 0]
        self.shed_by_kind = [0, 0, 0]
        # overload events per attempt: deadline expiries and re-issues
        self.timeouts_by_kind = [0, 0, 0]
        self.retries_by_kind = [0, 0, 0]
        # Window slots held.  Peer-to-peer copies run on the DMA engine's
        # queue, sized like the store buffer: copies leave the core's
        # critical path once issued, so they must not consume read MLP.
        self.outstanding_by_kind = [0, 0, 0]
        # the pending backlog split by kind, for room-gated selection scans
        self._pending_by_kind: List[List[Transaction]] = [[], [], []]
        # Destination-cube selection for p2p copies (config.p2p_pattern).
        # ``cube_techs`` aligns with ``cube_node_ids``; the "promote"
        # pattern moves lines to the opposite technology tier.
        self.cube_techs = list(cube_techs) if cube_techs is not None else None
        self._tech_cubes = {}
        if self.cube_techs is not None:
            for index, tech in enumerate(self.cube_techs):
                self._tech_cubes.setdefault(tech, []).append(index)
        # in-order read retirement (wavefront semantics)
        self._read_seq = 0
        self._retire_head = 0
        self._returned_read_seqs = set()
        self.issued = 0
        # Refreshed by _retire: the system's completion hook reads the
        # retired total (completed + failed + timed_out + shed) and this
        # flag right after every retirement, so they are plain
        # attributes, not properties recomputing the sums.
        self.retired = 0
        self.done = total_requests <= 0
        # RAS: responses that beat a permanent failure across the cut
        # after their transaction was already errored (conservatively
        # ignored; see docs/ras.md).
        self.late_responses = 0
        self._degraded = False
        # Only runs with scheduled permanent failures pay for tracking
        # in-network transactions (needed to error them on reroute).
        self._track_outstanding = config.ras.has_permanent_failures
        self._outstanding_txns = set()
        # observability: transactions born at this port carry segment
        # lists only when attribution is on (repro.obs).  With
        # attribution_sample = N, a deterministic 1-in-N stride of the
        # generation sequence carries them instead; the phase derives
        # from the config seed so reruns sample identical transactions,
        # and the schedule itself never changes (sampled-out runs are
        # bit-identical to attribution-off ones).
        self._attribution = config.obs.attribution
        self._attr_sample = config.obs.attribution_sample
        self._attr_phase = 0
        if self._attr_sample > 1:
            self._attr_phase = derive_seed(
                config.seed, "obs.attribution", str(port_id)
            ) % self._attr_sample
        self.attribution_sampled = 0  # exact count of sampled-in txns
        # write-burst hysteresis state (Section 5.3)
        self._recent_writes: Deque[bool] = deque(maxlen=config.hysteresis_window)
        self.write_burst_mode = False
        self.burst_mode_toggles = 0

        # Overload robustness (config.overload + open-loop arrivals).
        # ``open_loop`` bypasses the MLP window / store-buffer gating so
        # offered load can exceed capacity (the arrival process, not the
        # completion rate, paces injection).  All state below is inert
        # for closed-loop runs with a default OverloadConfig.
        self.open_loop = open_loop
        overload = config.overload
        self._deadline_ps = overload.deadline_ps
        self._max_retries = overload.max_retries
        self._retry_backoff_ps = overload.retry_backoff_ps
        self._shed_high = overload.shed_high
        self._shed_low = overload.shed_low
        self._shedding = False  # hysteresis state: admission closed
        self._overload = open_loop or overload.enabled
        self.tracer = None  # set by the system when tracing is on
        # responses of deadline-cancelled attempts, dropped on arrival
        self.stale_responses = 0
        # high-water mark of pending + outstanding (the shed bound)
        self.peak_backlog = 0

        self._at_port: Deque[Transaction] = deque()  # crossed the chip, not injected
        inject_queue.on_drain = lambda engine: self._pump(engine)

    # -- generation ---------------------------------------------------------
    def start(self, engine: Engine) -> None:
        engine.schedule(0, self._next_arrival)

    def _next_arrival(self, engine: Engine) -> None:
        generated = sum(self.generated_by_kind)
        if generated >= self.total_requests:
            return
        try:
            request = next(self.workload)
        except StopIteration:
            raise WorkloadError(
                f"workload exhausted after {generated} of "
                f"{self.total_requests} requests"
            ) from None
        txn = Transaction(
            address=request.address,
            is_write=request.is_write,
            port_id=self.port_id,
            issue_ps=engine.now,
            is_p2p=request.is_p2p,
        )
        if self._attribution and (
            self._attr_sample == 1
            or generated % self._attr_sample == self._attr_phase
        ):
            txn.segments = []
            self.attribution_sampled += 1
        txn.location = self.address_map.decode(request.address)
        txn.dest_cube = self.cube_node_ids[txn.location.cube_index]
        if txn.kind == KIND_P2P:
            self._assign_p2p_dest(txn)
        self.generated_by_kind[txn.kind] += 1
        self._observe_for_hysteresis(request.is_write)
        if self._overload and not self._admit():
            # Admission is closed (hysteresis above shed_high): the
            # request is counted as shed, never enqueued.  This is what
            # bounds the backlog and turns collapse into a plateau.
            if self.tracer is not None:
                self.tracer.host_shed(engine.now, txn.tid)
            self._retire(engine, txn, self.shed_by_kind)
        else:
            self._enqueue(engine, txn)
        if generated + 1 < self.total_requests:
            engine.schedule(max(request.gap_ps, 0), self._next_arrival)

    def _enqueue(self, engine: Engine, txn: Transaction) -> None:
        """Queue an admitted arrival or retry for injection."""
        self.pending.append(txn)
        self._pending_by_kind[txn.kind].append(txn)
        if self._deadline_ps:
            engine.schedule(self._deadline_ps, self._deadline_expired, txn)
        self.try_inject(engine)
        if self._overload:
            backlog = len(self.pending) + sum(self.outstanding_by_kind)
            if backlog > self.peak_backlog:
                self.peak_backlog = backlog

    def _remove_pending(self, txn: Transaction) -> None:
        self.pending.remove(txn)
        self._pending_by_kind[txn.kind].remove(txn)

    # -- p2p destination selection ------------------------------------------
    def _assign_p2p_dest(self, txn: Transaction) -> None:
        """Pick the copy's destination cube per ``config.p2p_pattern``.

        Deterministic functions of the source placement and address
        only — no RNG draws — so destination choice is digest-stable by
        construction across engines and run orders.
        """
        num_cubes = len(self.cube_node_ids)
        src = txn.location.cube_index
        pattern = self.config.p2p_pattern
        if pattern == "shuffle":
            # the farthest rotation: stresses bisection links
            dest = (src + (num_cubes + 1) // 2) % num_cubes
        elif pattern == "promote":
            dest = self._promote_dest(src, txn.address)
        else:  # "neighbor": next cube in address-map order
            dest = (src + 1) % num_cubes
        txn.p2p_dest_cube = self.cube_node_ids[dest]
        loc = txn.location
        # The line lands at the mirrored placement of the destination
        # cube (same quadrant/bank/row indices, different package).
        txn.p2p_dest_location = Location(
            cube_index=dest,
            quadrant=loc.quadrant,
            bank=loc.bank,
            row=loc.row,
            offset=loc.offset,
        )

    def _promote_dest(self, src: int, address: int) -> int:
        """Hot-page promotion: move lines to the opposite memory tier.

        NVM-resident lines promote to a DRAM cube (and DRAM lines
        demote to NVM, modeling the eviction that makes room), spread
        across the target tier by page number.  Falls back to the
        neighbor pattern when the MN has a single technology.
        """
        techs = self.cube_techs
        if techs is None:
            return (src + 1) % len(self.cube_node_ids)
        target_tier = "DRAM" if techs[src] != "DRAM" else "NVM"
        candidates = self._tech_cubes.get(target_tier)
        if not candidates:
            return (src + 1) % len(self.cube_node_ids)
        page = address >> 12  # 4 KiB pages
        return candidates[page % len(candidates)]

    # -- hysteresis ------------------------------------------------------------
    def _observe_for_hysteresis(self, is_write: bool) -> None:
        if not self.config.write_skip_hysteresis:
            return
        self._recent_writes.append(is_write)
        if len(self._recent_writes) < self._recent_writes.maxlen:
            return
        fraction = sum(self._recent_writes) / len(self._recent_writes)
        if not self.write_burst_mode and fraction >= self.config.hysteresis_hi:
            self.write_burst_mode = True
            self.burst_mode_toggles += 1
        elif self.write_burst_mode and fraction <= self.config.hysteresis_lo:
            self.write_burst_mode = False
            self.burst_mode_toggles += 1

    # -- injection ---------------------------------------------------------------
    def _select_next(
        self, read_room: bool, write_room: bool, p2p_room: bool = False
    ) -> Optional[Transaction]:
        """Pick the next pending transaction to inject.

        The backlog is also kept split by kind (``_pending_by_kind``,
        each pile in generation order) so that when only one kind has
        room — the common case is a full read window over a read-heavy
        backlog — the scan skips the other kinds' piles wholesale
        instead of filtering them element by element.  Selection is the
        same either way: first eligible read (when read-priority
        injection is on), else the first eligible transaction in
        generation order; p2p copies count as non-priority traffic,
        like writes.
        """
        can_issue = self.directory.can_issue
        piles = self._pending_by_kind
        if not piles[KIND_P2P]:
            # p2p-free backlog (the common case) with one window full
            if not read_room:
                for txn in piles[KIND_WRITE]:
                    if can_issue(txn.address, True):
                        return txn
                return None
            if not write_room:
                for txn in piles[KIND_READ]:
                    if can_issue(txn.address, False):
                        return txn
                return None
        # general scan: every kind gated by its own window.  A p2p copy
        # claims the directory as a *read* of its source address.
        room = (read_room, write_room, p2p_room)
        read_priority = self.config.host.read_priority_injection
        first_eligible = None
        for txn in self.pending:
            if not room[txn.kind] or not can_issue(txn.address, txn.is_write):
                continue
            if not read_priority or txn.kind == KIND_READ:
                return txn  # under read priority, reads bypass the rest
            if first_eligible is None:
                first_eligible = txn
        return first_eligible

    def try_inject(self, engine: Engine) -> None:
        host = self.config.host
        open_loop = self.open_loop
        outstanding = self.outstanding_by_kind
        while self.pending:
            if open_loop:
                # Open-loop arrivals model an external population, not a
                # finite-MLP core: the window never gates injection and
                # only network backpressure (and the directory) throttles.
                read_room = write_room = True
                p2p_room = bool(self._pending_by_kind[KIND_P2P])
            else:
                # Reads use the MLP window; writes use the store buffer.
                # Writes leave the core's critical path once issued
                # (Section 4.2), so they must not consume read MLP: this
                # lets the skip-list push writes onto longer paths
                # without stalling reads.
                read_room = outstanding[KIND_READ] < self.window
                write_room = outstanding[KIND_WRITE] < host.store_buffer_entries
                if self._pending_by_kind[KIND_P2P]:
                    p2p_room = outstanding[KIND_P2P] < host.store_buffer_entries
                    if not read_room and not write_room and not p2p_room:
                        return  # no window slot of any kind is free
                else:
                    p2p_room = False
                    if not read_room and not write_room:
                        return  # no window slot of either kind is free
            txn = self._select_next(read_room, write_room, p2p_room)
            if txn is None:
                return  # everything pending is blocked or out of room
            self._remove_pending(txn)
            if self._degraded and not self._reachable(txn):
                self._retire(engine, txn, self.failed_by_kind)
                continue
            # claim_ps is this attempt's grant; start_ps stays pinned at
            # the *first* grant so total_ps spans retries.
            txn.claim_ps = engine.now
            if txn.start_ps is None:
                txn.start_ps = engine.now
            seg = txn.segments
            if seg is not None:
                if txn.retry_mark is not None:
                    # backoff + re-queue wait of a retried request
                    seg.append((_SEG_RETRY[txn.kind], txn.retry_mark,
                                engine.now))
                    txn.retry_mark = None
                txn.seg_mark = len(seg)
            if txn.kind == KIND_READ:
                txn.read_seq = self._read_seq
                self._read_seq += 1
            # The request crosses the on-chip path from the coherence
            # point to the memory port before entering the MN.  The
            # window slot and directory entry are claimed now, so
            # ordering decisions happen at the coherence point.
            self.directory.issued(txn.address, txn.is_write)
            outstanding[txn.kind] += 1
            if self._track_outstanding:
                self._outstanding_txns.add(txn)
            engine.schedule(self.config.host.port_latency_ps, self._reach_port, txn)

    def _reach_port(self, engine: Engine, txn: Transaction) -> None:
        self._at_port.append(txn)
        self._pump(engine)

    def _pump(self, engine: Engine) -> None:
        while self._at_port and self.inject_queue.has_space():
            txn = self._at_port.popleft()
            if txn.failed:
                continue  # errored by a topology change while queued here
            self._inject(engine, txn)

    def _inject(self, engine: Engine, txn: Transaction) -> None:
        txn.inject_ps = engine.now
        seg = txn.segments
        if seg is not None:
            reached_port = txn.claim_ps + self.config.host.port_latency_ps
            seg.append((_SEG_REQ_PORT, txn.claim_ps, reached_port))
            if engine.now > reached_port:
                seg.append((_SEG_REQ_INJECT, reached_port, engine.now))
        packet = self.pool.request_packet(self.config.packet, txn, engine.now)
        packet.src = self.route_table.host_id
        packet.dest = txn.dest_cube
        route_class = self._route_class_for(txn)
        packet.route = list(self.route_table.route_to_cube(txn.dest_cube, route_class))
        packet.hop_index = 0
        self.issued += 1
        self.inject_queue.push(packet, engine.now)
        self.router.packet_arrived(engine, self.inject_queue)

    def _route_class_for(self, txn: Transaction) -> RouteClass:
        if not txn.is_write:
            return RouteClass.READ
        if self.write_burst_mode:
            # During write bursts the skip paths are re-opened to writes.
            return RouteClass.READ
        return RouteClass.WRITE

    @staticmethod
    def _reach_class_for(txn: Transaction) -> RouteClass:
        """The class whose reachability decides a transaction's fate.

        Writes must complete over the WRITE class regardless of burst
        mode: the acknowledgment always routes (and a mid-run reroute
        always re-paths write-class packets) over the strict write
        adjacency, so a cube only write-reachable via skip links counts
        as unreachable for writes — the skip-list WRITE-class error case.
        """
        return RouteClass.WRITE if txn.is_write else RouteClass.READ

    def _reachable(self, txn: Transaction) -> bool:
        """Can this transaction still complete over the current table?

        Regular transactions need the host<->cube round trip; a p2p copy
        additionally needs the cube->cube transfer leg and the ack path
        from the destination cube back to the host.
        """
        table = self.route_table
        if not table.is_reachable(txn.dest_cube, self._reach_class_for(txn)):
            return False
        if txn.is_p2p:
            return table.p2p_reachable(
                txn.dest_cube, txn.p2p_dest_cube, RouteClass.READ
            ) and table.is_reachable(txn.p2p_dest_cube, RouteClass.READ)
        return True

    # -- completion --------------------------------------------------------------
    def on_response(self, engine: Engine, packet: Packet) -> None:
        txn = packet.transaction
        if txn is None:
            raise WorkloadError("response packet without a transaction")
        if txn.failed:
            self._drop_response(txn)
            return
        txn.response_hops = packet.hops_traversed
        if self._deadline_ps:
            # The response is accepted *now*: a deadline timer firing
            # while it crosses the chip back to the core must not cancel
            # the attempt out from under it.
            txn.landing = True
        # the response still has to cross the chip back to the core
        engine.schedule(self.config.host.port_latency_ps, self._complete, txn)

    def _drop_response(self, txn: Transaction) -> None:
        """Count the response of an already-failed transaction."""
        if txn.timed_out:
            # Response of a deadline-cancelled attempt: the request was
            # already retried or abandoned, so the data is stale.
            self.stale_responses += 1
        else:
            # The response crossed the cut just before the failure hit;
            # the transaction was already errored (its slot/directory
            # state is long released), so the late data is dropped.
            self.late_responses += 1

    def _complete(self, engine: Engine, txn: Transaction) -> None:
        if txn.failed:
            self._drop_response(txn)
            return
        if txn.segments is not None:
            seg_start = engine.now - self.config.host.port_latency_ps
            txn.segments.append((_SEG_RESP_PORT, seg_start, engine.now))
        self._release_claims(txn)
        self._retire(engine, txn, self.completed_by_kind)
        self.try_inject(engine)

    def _retire(self, engine: Engine, txn: Transaction, table: List[int]) -> None:
        """The one terminal path of a logical request.

        ``table`` is the disposition the request ends in: one of
        ``completed_by_kind``, ``failed_by_kind`` (RAS),
        ``timed_out_by_kind`` (deadline, retries spent) or
        ``shed_by_kind`` (admission refused).  Every generated request
        passes here exactly once; anything but completion marks the
        transaction failed, so it is never a latency sample.
        """
        txn.complete_ps = engine.now  # the host learns the outcome now
        if table is not self.completed_by_kind:
            txn.failed = True
            if table is self.timed_out_by_kind:
                txn.timed_out = True
        table[txn.kind] += 1
        retired = (
            sum(self.completed_by_kind) + sum(self.failed_by_kind)
            + sum(self.timed_out_by_kind) + sum(self.shed_by_kind)
        )
        self.retired = retired
        self.done = retired >= self.total_requests
        self.on_transaction_done(engine, txn)

    def _release_claims(self, txn: Transaction) -> None:
        """Free the directory entry and window/store-buffer slot."""
        self.directory.completed(txn.address, txn.is_write)
        if txn.kind == KIND_READ and self.config.host.inorder_retire:
            # the slot frees only when all older reads are also back
            self._returned_read_seqs.add(txn.read_seq)
            while self._retire_head in self._returned_read_seqs:
                self._returned_read_seqs.discard(self._retire_head)
                self._retire_head += 1
                self.outstanding_by_kind[KIND_READ] -= 1
        else:
            self.outstanding_by_kind[txn.kind] -= 1
        if self._track_outstanding:
            self._outstanding_txns.discard(txn)

    # -- overload: admission control, deadlines, retry ---------------------------
    def _admit(self) -> bool:
        """Hysteresis admission check over pending + outstanding.

        Admission closes when the backlog reaches ``shed_high`` and
        reopens only once it has drained to ``shed_low``, so the gate
        does not flap around the watermark.  With shedding enabled the
        backlog is bounded by ``shed_high`` (checked by
        ``overload.backlog`` in repro.check).
        """
        if not self._shed_high:
            return True
        backlog = len(self.pending) + sum(self.outstanding_by_kind)
        if self._shedding:
            if backlog <= self._shed_low:
                self._shedding = False
                return True
            return False
        if backlog >= self._shed_high:
            self._shedding = True
            return False
        return True

    def _deadline_expired(self, engine: Engine, txn: Transaction) -> None:
        """The end-to-end deadline of one attempt fired.

        No-op when the attempt already resolved (completed, errored, or
        its response was accepted and is crossing the chip).  An
        unclaimed attempt — still waiting for admission at the host
        edge — abandons terminally: the client gave up while queued.  A
        claimed attempt is cancelled (claims released, in-flight packets
        become stale) and retried after exponential backoff, until the
        retry budget is spent.
        """
        if txn.complete_ps is not None or txn.failed or txn.landing:
            return
        self.timeouts_by_kind[txn.kind] += 1
        if self.tracer is not None:
            self.tracer.host_timeout(engine.now, txn.tid, txn.retries)
        if txn.claim_ps is None:
            self._remove_pending(txn)
            self._retire(engine, txn, self.timed_out_by_kind)
            return
        # Cancel the attempt in service.  The transaction object stays
        # marked failed+timed_out so every stale path — _pump skip,
        # response drop, RAS sweeps — ignores it; the *logical* request
        # lives on in the retry clone.  The attempt's partial segments
        # collapse to one host.timeout span so the history still tiles.
        seg = txn.segments
        if seg is not None:
            del seg[txn.seg_mark:]
            seg.append((_SEG_TIMEOUT[txn.kind], txn.claim_ps, engine.now))
        self._release_claims(txn)
        txn.failed = True
        txn.timed_out = True
        if txn.retries < self._max_retries:
            clone = self._clone_for_retry(engine, txn)
            backoff = self._retry_backoff_ps << txn.retries
            engine.schedule(backoff, self._reissue, clone)
        else:
            self._retire(engine, txn, self.timed_out_by_kind)
        self.try_inject(engine)

    def _clone_for_retry(self, engine: Engine, txn: Transaction) -> Transaction:
        """A fresh attempt object carrying the logical request's history.

        The timed-out original keeps its identity for any packets still
        in flight (they resolve as stale); the clone inherits the pinned
        ``start_ps`` and the segment history, so latency and attribution
        span every attempt.
        """
        clone = Transaction(
            address=txn.address,
            is_write=txn.is_write,
            port_id=txn.port_id,
            issue_ps=txn.issue_ps,
            is_p2p=txn.is_p2p,
        )
        clone.location = txn.location
        clone.dest_cube = txn.dest_cube
        clone.p2p_dest_cube = txn.p2p_dest_cube
        clone.p2p_dest_location = txn.p2p_dest_location
        clone.start_ps = txn.start_ps
        clone.retries = txn.retries + 1
        clone.retry_mark = engine.now
        clone.segments = txn.segments
        # Stale packets of the cancelled attempt must not write into the
        # live history.
        txn.segments = None
        return clone

    def _reissue(self, engine: Engine, clone: Transaction) -> None:
        """Re-queue a retry clone after its backoff elapsed.

        Retries pass the same admission gate as fresh arrivals — a
        refused retry abandons terminally, which is what keeps the
        backlog bound exact under shedding.
        """
        if clone.failed:
            return  # errored while backing off (topology change)
        if self._overload and not self._admit():
            self._retire(engine, clone, self.timed_out_by_kind)
            return
        self.retries_by_kind[clone.kind] += 1
        if self.tracer is not None:
            self.tracer.host_retry(engine.now, clone.tid, clone.retries)
        self._enqueue(engine, clone)

    # -- RAS degradation ---------------------------------------------------------
    def fail_issued(self, engine: Engine, txn: Transaction) -> None:
        """Error a claimed transaction (at the port or in the network).

        Idempotent: the topology-change sweep and the packet-drop path
        can both reach the same transaction.
        """
        if txn.failed or txn.complete_ps is not None:
            return
        self._release_claims(txn)
        self._retire(engine, txn, self.failed_by_kind)

    def adopt_route_table(self, engine: Engine, route_table: RouteTable) -> None:
        """A permanent failure rebuilt the routes: adopt the degraded
        table.  Called *before* the system's quiesce walk so that any
        injection it triggers already uses live routes — a stale route
        whose first hop is dead would deadlock the inject queue.

        At-port transactions whose cube the new table cannot reach are
        failed here, before a quiesce drain callback can pump them into
        an injection that has no route.
        """
        self.route_table = route_table
        self._degraded = True
        for txn in self._at_port:
            if not self._reachable(txn):
                self.fail_issued(engine, txn)

    def fail_unreachable(self, engine: Engine) -> None:
        """Error every transaction whose cube the degraded table cannot
        reach (counted host-level errors, not latency samples).

        Transactions to still-reachable cubes are untouched — their
        packets were rerouted by the system's quiesce walk.
        """
        still_pending = []
        for txn in self.pending:
            if self._reachable(txn):
                still_pending.append(txn)
            else:
                self._retire(engine, txn, self.failed_by_kind)
        self.pending = still_pending
        for kind, pile in enumerate(self._pending_by_kind):
            pile[:] = [t for t in still_pending if t.kind == kind]
        for txn in list(self._outstanding_txns):
            if not self._reachable(txn):
                self.fail_issued(engine, txn)
        # Failed at-port transactions are skipped by _pump; freed slots
        # may admit pending work immediately.
        self._pump(engine)
        self.try_inject(engine)

    generated = _total("generated_by_kind")
    completed = _total("completed_by_kind")
    failed = _total("failed_by_kind")
    timed_out = _total("timed_out_by_kind")
    shed = _total("shed_by_kind")
    timeouts = _total("timeouts_by_kind")
    retries = _total("retries_by_kind")
    outstanding = _total("outstanding_by_kind")
