"""The memory cube: a router plus four quadrant controllers.

Mirrors the paper's baseline cube (Section 2.2): a logic die with
SerDes links and a switch, four quadrants of banks above it, and a 1 ns
penalty for requests that arrive on a link belonging to a different
quadrant than their target (Section 5).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.config import CubeConfig, MemTechConfig, PacketConfig
from repro.memory.controller import QuadrantController
from repro.net.pool import PacketPool
from repro.memory.timing import TimingModel
from repro.net.buffers import InputQueue
from repro.net.packet import Packet
from repro.net.router import Router, LocalOutput, LOCAL
from repro.obs.attribution import segment_code
from repro.sim.engine import Engine

LOCAL_INPUTS = 4  # response-injection queues, one per quadrant


class MemoryCube:
    """One memory package in the MN."""

    def __init__(
        self,
        node_id: int,
        tech: MemTechConfig,
        cube_config: CubeConfig,
        packet_config: PacketConfig,
        router: Router,
        route_response: Callable[[Packet], None],
        bank_scale: float = 1.0,
        pool: Optional[PacketPool] = None,
    ) -> None:
        self.node_id = node_id
        self.tech = tech
        self.config = cube_config
        self.router = router
        timing = TimingModel(tech)
        banks_per_quadrant = cube_config.scaled_banks_per_quadrant(bank_scale)
        self.controllers: List[QuadrantController] = []
        for quadrant in range(cube_config.num_quadrants):
            inject = InputQueue(
                f"cube{node_id}.q{quadrant}.inject", cube_config.controller_queue_depth
            )
            index = router.add_input(inject)
            assert index == quadrant, "local queues must be inputs 0..3"
            offset = 0
            if tech.needs_refresh:
                # stagger refreshes across cubes and quadrants
                stride = tech.refresh_interval_ps // (cube_config.num_quadrants + 1)
                offset = (node_id * 3 + quadrant) * stride % tech.refresh_interval_ps
            controller = QuadrantController(
                name=f"cube{node_id}.q{quadrant}",
                timing=timing,
                num_banks=banks_per_quadrant,
                queue_depth=cube_config.controller_queue_depth,
                inject_queue=inject,
                router=router,
                route_response=route_response,
                packet_config=packet_config,
                refresh_offset_ps=offset,
                scheduling=cube_config.scheduling,
                pool=pool,
            )
            self.controllers.append(controller)
        router.add_output(LOCAL, LocalOutput(self._accept, self._deliver))
        # Interned attribution label (repro.obs)
        self._seg_xbar = segment_code(f"mem.xbar.cube{node_id}")

    # ------------------------------------------------------------------
    def start(self, engine: Engine) -> None:
        for controller in self.controllers:
            controller.start_refresh(engine)

    # Both read packet.location, which mirrors transaction.location
    # except on a P2P_XFER leg: that one targets this (destination)
    # cube's placement.
    def _accept(self, packet: Packet) -> bool:
        return self.controllers[packet.location.quadrant].can_accept()

    def _deliver(self, engine: Engine, packet: Packet, input_index: int) -> None:
        quadrant = packet.location.quadrant
        txn = packet.transaction
        if txn.mem_arrive_ps is None:
            txn.mem_arrive_ps = engine.now
            txn.request_hops = packet.hops_traversed
        elif packet.is_xfer:
            # second arrival of a p2p relay: the copied line reached the
            # destination cube
            txn.xfer_hops = packet.hops_traversed
        controller = self.controllers[quadrant]
        controller.reserve()
        arrival_port = max(input_index - LOCAL_INPUTS, 0) % self.config.num_quadrants
        penalty = 0
        if arrival_port != quadrant:
            penalty = self.config.wrong_quadrant_penalty_ps
        if penalty:
            if txn.segments is not None:
                txn.segments.append(
                    (self._seg_xbar, engine.now, engine.now + penalty)
                )
            engine.schedule(penalty, controller.receive, packet)
        else:
            controller.receive(engine, packet)

    # -- introspection ----------------------------------------------------
    def total_reads(self) -> int:
        return sum(c.reads for c in self.controllers)

    def total_writes(self) -> int:
        return sum(c.writes for c in self.controllers)

    def total_row_hits(self) -> int:
        return sum(c.row_hits for c in self.controllers)
