"""The host node: router wiring for the processor side of one MN."""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.net.buffers import InputQueue
from repro.net.packet import Packet, PacketKind
from repro.net.router import LOCAL, LocalOutput, Router
from repro.sim.engine import Engine


class HostNode:
    """Owns the host router's injection queue and response sink.

    Input 0 is the port's injection queue; link inputs are added by the
    system builder as edges are wired.  Responses terminate here and are
    handed to the port (the receive side is an infinite sink: the host
    always drains the network, which keeps the MN deadlock-free).
    """

    def __init__(self, router: Router, inject_queue_depth: int) -> None:
        self.router = router
        self.inject_queue = InputQueue("host.inject", inject_queue_depth)
        index = router.add_input(self.inject_queue)
        assert index == 0, "host injection queue must be input 0"
        self._on_response: Optional[Callable[[Engine, Packet], None]] = None
        router.add_output(LOCAL, LocalOutput(self._accept, self._deliver))

    def attach_port(self, on_response: Callable[[Engine, Packet], None]) -> None:
        self._on_response = on_response

    def _accept(self, packet: Packet) -> bool:
        return True  # infinite sink

    def _deliver(self, engine: Engine, packet: Packet, input_index: int) -> None:
        if self._on_response is None:
            raise RuntimeError("host received a response before attach_port()")
        if packet.kind is PacketKind.P2P_XFER:
            # Copied lines travel cube -> cube; they may transit the host
            # router as a switch but must never terminate at its port.
            raise SimulationError(
                f"p2p transfer packet #{packet.pid} leaked to the host port "
                f"(route {packet.route})"
            )
        self._on_response(engine, packet)
