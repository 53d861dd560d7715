"""The per-package switch: input queues, output ports, arbitration.

Every node (host, memory cube, MetaCube interface chip) owns one
Router.  Packets sit in finite input queues; each output port runs an
arbiter that picks among the input queues whose head packet needs that
output.  Responses are prioritized over requests on shared links — the
deadlock-avoidance rule whose queuing side-effects Section 3.2 analyses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.arbitration.base import OutputArbiter
from repro.errors import SimulationError
from repro.net.buffers import InputQueue
from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim.engine import Engine

LOCAL = -1  # output key for "terminate at this node"


class OutputPort:
    """Base of the two output kinds a router arbitrates for."""

    __slots__ = ()


class LinkOutput(OutputPort):
    """Forward packets over a point-to-point link."""

    __slots__ = ("link",)

    def __init__(self, link: Link) -> None:
        self.link = link


class LocalOutput(OutputPort):
    """Deliver packets into the node itself (cube memory / host sink).

    ``accept_fn(packet)`` checks buffer space; ``deliver_fn(engine,
    packet, input_index)`` performs the hand-off (and models any
    intra-package penalty, e.g. wrong-quadrant routing).  A blocked
    local output needs no wake-up registration: its owner (the memory
    controller) re-kicks the router when a slot frees.
    """

    __slots__ = ("accept_fn", "deliver_fn")

    def __init__(
        self,
        accept_fn: Callable[[Packet], bool],
        deliver_fn: Callable[[Engine, Packet, int], None],
    ) -> None:
        self.accept_fn = accept_fn
        self.deliver_fn = deliver_fn


class Router:
    """Input-queued switch with per-output arbitration.

    Strictly event-driven: arbitration for an output runs only when
    something that could change its outcome happens — a packet arrives
    at a queue head bound for it, its channel goes idle, a credit comes
    back, or the local controller frees a slot.  A head blocked on a
    link registers exactly one wake-up with the link's channel
    (``wake_when_idle``) instead of being re-scanned on every unrelated
    event.
    """

    __slots__ = (
        "node_id",
        "name",
        "inputs",
        "outputs",
        "_arbiters",
        "_ports",
        "_arbiter_factory",
        "grants",
        "tracer",
    )

    def __init__(
        self,
        node_id: int,
        name: str,
        arbiter_factory: Callable[[], OutputArbiter],
    ) -> None:
        self.node_id = node_id
        self.name = name
        self.inputs: List[InputQueue] = []
        self.outputs: Dict[int, OutputPort] = {}
        self._arbiters: Dict[int, OutputArbiter] = {}
        # hot-path view: key -> (port, arbiter, link-or-None), one dict
        # hit instead of two lookups plus a type test per arbitration
        self._ports: Dict[int, tuple] = {}
        self._arbiter_factory = arbiter_factory
        self.grants: Dict[int, int] = {}
        # observability (repro.obs): set by the system when tracing is on
        self.tracer = None

    # -- construction ----------------------------------------------------
    def add_input(self, queue: InputQueue) -> int:
        """Register an input queue; returns its stable input index."""
        self.inputs.append(queue)
        return len(self.inputs) - 1

    def add_output(self, key: int, port: OutputPort) -> None:
        if key in self.outputs:
            raise SimulationError(f"router {self.name}: duplicate output {key}")
        if type(port) is not LinkOutput and not isinstance(port, LocalOutput):
            # the arbitration loop calls a local port's accept_fn and
            # deliver_fn directly
            raise SimulationError(
                f"router {self.name}: output {key} must be a LinkOutput "
                f"or LocalOutput, not {type(port).__name__}"
            )
        self.outputs[key] = port
        arbiter = self._arbiter_factory()
        self._arbiters[key] = arbiter
        self._ports[key] = (
            port, arbiter, port.link if type(port) is LinkOutput else None
        )
        self.grants.setdefault(key, 0)

    def arbiter_for(self, key: int) -> OutputArbiter:
        return self._arbiters[key]

    # -- event entry points -------------------------------------------------
    def packet_arrived(self, engine: Engine, queue: InputQueue) -> None:
        """A packet was pushed into one of our input queues.

        Callers invoke this once per push.  Only a push that lands at
        the head can change any arbitration outcome, so only that case
        is tried: a push behind an existing head changes nothing — the
        head's output either dispatched it when it became head or holds
        a wake-up registration from when it blocked.
        """
        if len(queue._items) != 1:
            # empty: the RAS route guard swallowed the packet;
            # deeper: the pushed packet is parked behind the head
            return
        self._try_output(engine, queue.head_key)

    def output_ready(self, engine: Engine, key: int) -> None:
        """An output link went idle, got a credit back, or the local
        controller freed a slot."""
        self._try_output(engine, key)

    def has_response_head(self, key: int) -> bool:
        """True if any input head bound for ``key`` is a response.

        Used by shared channels to grant the response direction first
        (the paper's deadlock-avoidance priority, Section 3.2).
        """
        for queue in self.inputs:
            # an empty deque under a matching key is a stale cache (see
            # _try_output): skip it so the auditor can report it
            if queue.head_key == key and queue._items and queue._items[0].is_resp:
                return True
        return False

    def kick(self, engine: Engine) -> None:
        """Attempt arbitration for every output with demand.

        Full rescan; the RAS quiesce path uses this to resynchronize
        after route tables and link liveness change underneath us.
        """
        needed = set()
        for queue in self.inputs:
            # Resynchronize the cached head keys too: the RAS quiesce
            # rewrites queued routes in place before kicking us.
            queue.refresh_head_key()
            if queue.head_key is not None:
                needed.add(queue.head_key)
        for key in needed:
            self._try_output(engine, key)

    # -- core arbitration loop ---------------------------------------------
    def _try_output(self, engine: Engine, key: int) -> None:
        entry = self._ports.get(key)
        if entry is None:
            raise SimulationError(
                f"router {self.name}: head packet needs unknown output {key}"
            )
        # The dominant port type is a link; whether it can send (alive,
        # channel free, a credit left) is loop-invariant across one
        # arbitration round, so it is three attribute tests done once
        # per round.  Every other port is a LocalOutput (add_output
        # enforces it), whose accept/deliver functions are called
        # directly.
        port, arbiter, link = entry
        accept = None if link is not None else port.accept_fn
        inputs = self.inputs
        grants = self.grants
        retry: Optional[List[int]] = None
        while True:
            now = engine.now
            if link is not None:
                if link.dead or now < link.channel._busy_until or link._credits <= 0:
                    # Blocked: if any head wants this output, sleep
                    # until the one transition that can unblock it
                    # (channel idle / credit return) instead of polling.
                    # A dead link registers nothing: the RAS quiesce
                    # reroutes or drops its queued packets.
                    if not link.dead:
                        for queue in inputs:
                            if queue.head_key == key:
                                link.channel.wake_when_idle(engine, link)
                                break
                    break
            candidates: List[Tuple[int, Packet]] = []
            resp_count = 0
            for index, queue in enumerate(inputs):
                if queue.head_key != key:
                    continue
                items = queue._items
                if not items:
                    # Stale cache: only reachable when something mutated
                    # the deque behind pop()'s back — keep arbitration
                    # alive so the auditor can report it (queue.head_key
                    # / queue.accounting) instead of crashing here.
                    continue
                head = items[0]
                if accept is not None and not accept(head):
                    continue
                candidates.append((index, head))
                if head.is_resp:
                    resp_count += 1
            if not candidates:
                # Nothing eligible.  A blocked local output (controller
                # slot full) needs no registration: its owner re-kicks
                # the router when a slot frees.
                break
            n_cand = len(candidates)
            if resp_count and resp_count != n_cand:
                # responses before requests (deadlock avoidance, Sec. 3.2)
                candidates = [c for c in candidates if c[1].is_resp]
            pos = arbiter.pick(now, candidates)
            if not 0 <= pos < len(candidates):
                raise SimulationError(
                    f"arbiter {arbiter.name} returned invalid index {pos}"
                )
            index, packet = candidates[pos]
            queue = inputs[index]
            popped = queue.pop(now)
            if popped is not packet:
                raise SimulationError("arbiter must select queue heads")
            grants[key] += 1
            if self.tracer is not None:
                self.tracer.router_grant(self.name, now, key, packet, len(candidates))
            if link is not None:
                link.send(engine, packet)
            else:
                port.deliver_fn(engine, packet, index)
            upstream = queue.upstream_link
            if upstream is not None:
                upstream.return_credit(engine)
            elif queue.on_drain is not None:
                queue.on_drain(engine)
            # The pop exposed a new head; if it needs a different
            # output, no future event will try that output for it —
            # queue it for arbitration once this one settles.
            new_key = queue.head_key
            head_same = new_key == key
            if not head_same and new_key is not None:
                if retry is None:
                    retry = [new_key]
                elif new_key not in retry:
                    retry.append(new_key)
            if link is not None and (
                now < link.channel._busy_until or link._credits <= 0 or link.dead
            ):
                # The send serialized the channel (and may have spent
                # the last credit): this round is over.  Remaining
                # demand for this output is exactly the unpicked
                # candidates plus the popped queue's new head — no
                # rescan needed to rediscover it.  Re-entrant pushes
                # from return_credit/on_drain register their own
                # wake-ups via packet_arrived.
                if n_cand > 1 or head_same:
                    if not link.dead:
                        link.channel.wake_when_idle(engine, link)
                break
            # Local ports (and the zero-occupancy link edge) loop:
            # dispatch may have changed admission state, so rescan.
        if retry is not None:
            for other in retry:
                self._try_output(engine, other)
