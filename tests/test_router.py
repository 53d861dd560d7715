"""Tests for the router: arbitration loop, priorities, local delivery."""

import pytest

from repro.arbitration import ArbiterContext, RoundRobinArbiter
from repro.config import LinkConfig
from repro.errors import SimulationError
from repro.net.buffers import InputQueue
from repro.net.link import Link
from repro.net.packet import Packet, PacketKind
from repro.net.router import LOCAL, LinkOutput, LocalOutput, OutputPort, Router
from repro.sim.engine import Engine


def rr_factory():
    return RoundRobinArbiter(ArbiterContext())


def make_packet(kind, route, size_bits=128):
    packet = Packet(kind, 0x0, route[0], route[-1], size_bits, 0)
    packet.route = list(route)
    return packet


def make_router(name="r", node_id=0):
    return Router(node_id, name, rr_factory)


class TestLocalDelivery:
    def test_packet_at_destination_goes_local(self):
        engine = Engine()
        router = make_router()
        delivered = []
        router.add_output(
            LOCAL,
            LocalOutput(lambda p: True, lambda eng, p, i: delivered.append(p)),
        )
        queue = InputQueue("in", 4)
        router.add_input(queue)
        packet = make_packet(PacketKind.READ_REQ, [0])
        queue.push(packet, now_ps=0)
        router.packet_arrived(engine, queue)
        assert delivered == [packet]

    def test_local_backpressure_holds_packet(self):
        engine = Engine()
        router = make_router()
        space = [False]
        delivered = []
        router.add_output(
            LOCAL,
            LocalOutput(lambda p: space[0], lambda eng, p, i: delivered.append(p)),
        )
        queue = InputQueue("in", 4)
        router.add_input(queue)
        queue.push(make_packet(PacketKind.READ_REQ, [0]), now_ps=0)
        router.packet_arrived(engine, queue)
        assert delivered == []
        space[0] = True
        router.kick(engine)
        assert len(delivered) == 1


class TestForwarding:
    def wire(self, capacity=4):
        engine = Engine()
        router = make_router()
        downstream = InputQueue("down", capacity)
        link = Link("L", LinkConfig(input_buffer_packets=capacity), downstream)
        router.add_output(1, LinkOutput(link))
        link.on_idle = lambda eng: router.output_ready(eng, 1)
        queue = InputQueue("in", 8)
        router.add_input(queue)
        return engine, router, queue, link, downstream

    def test_forwards_packet_over_link(self):
        engine, router, queue, link, downstream = self.wire()
        queue.push(make_packet(PacketKind.READ_REQ, [0, 1]), now_ps=0)
        router.packet_arrived(engine, queue)
        engine.run()
        assert len(downstream) == 1

    def test_serializes_back_to_back_packets(self):
        engine, router, queue, link, downstream = self.wire()
        for _ in range(3):
            queue.push(make_packet(PacketKind.READ_REQ, [0, 1], size_bits=640), now_ps=0)
            router.packet_arrived(engine, queue)  # once per push, like Link
        engine.run()
        assert len(downstream) == 3
        # three serializations of 2667 ps each, plus final serdes 2 ns
        assert engine.now == 3 * 2667 + 2000

    def test_blocks_when_downstream_full_and_resumes_on_credit(self):
        engine, router, queue, link, downstream = self.wire(capacity=1)
        queue.push(make_packet(PacketKind.READ_REQ, [0, 1]), now_ps=0)
        router.packet_arrived(engine, queue)
        queue.push(make_packet(PacketKind.READ_REQ, [0, 1]), now_ps=0)
        router.packet_arrived(engine, queue)
        engine.run()
        assert len(downstream) == 1
        assert len(queue) == 1  # second packet blocked on credit
        downstream.pop(engine.now)
        link.return_credit(engine)
        engine.run()
        assert len(downstream) == 1  # second packet arrived

    def test_unknown_output_raises(self):
        engine, router, queue, link, _ = self.wire()
        queue.push(make_packet(PacketKind.READ_REQ, [0, 9]), now_ps=0)
        with pytest.raises(SimulationError):
            router.packet_arrived(engine, queue)


class TestResponsePriority:
    def test_response_wins_over_request(self):
        engine = Engine()
        router = make_router()
        downstream = InputQueue("down", 8)
        link = Link("L", LinkConfig(input_buffer_packets=8), downstream)
        router.add_output(1, LinkOutput(link))
        request_q = InputQueue("req", 4)
        response_q = InputQueue("resp", 4)
        router.add_input(request_q)
        router.add_input(response_q)
        request_q.push(make_packet(PacketKind.READ_REQ, [0, 1]), now_ps=0)
        response_q.push(make_packet(PacketKind.READ_RESP, [0, 1]), now_ps=0)
        router.kick(engine)
        engine.run()
        assert downstream.pop(engine.now).kind == PacketKind.READ_RESP


class TestResponsePeek:
    def test_has_response_head(self):
        router = make_router()
        queue = InputQueue("in", 4)
        router.add_input(queue)
        assert not router.has_response_head(1)
        queue.push(make_packet(PacketKind.READ_RESP, [0, 1]), now_ps=0)
        assert router.has_response_head(1)
        assert not router.has_response_head(2)

    def test_has_response_head_skips_stale_empty_queue(self):
        router = make_router()
        stale, live = InputQueue("stale", 4), InputQueue("live", 4)
        router.add_input(stale)
        router.add_input(live)
        stale.push(make_packet(PacketKind.READ_RESP, [0, 1]), now_ps=0)
        stale._items.clear()  # emptied behind pop()'s back: head_key stays 1
        assert stale.head_key == 1
        assert not router.has_response_head(1)
        live.push(make_packet(PacketKind.READ_RESP, [0, 1]), now_ps=0)
        assert router.has_response_head(1)


class TestConstruction:
    def test_duplicate_output_rejected(self):
        router = make_router()
        router.add_output(1, LocalOutput(lambda p: True, lambda e, p, i: None))
        with pytest.raises(SimulationError):
            router.add_output(1, LocalOutput(lambda p: True, lambda e, p, i: None))

    def test_other_port_types_rejected(self):
        # the arbitration loop calls a local port's accept_fn and
        # deliver_fn directly, so every non-link port is a LocalOutput
        class CustomPort(OutputPort):
            __slots__ = ()

        router = make_router()
        with pytest.raises(SimulationError, match="LinkOutput or LocalOutput"):
            router.add_output(1, CustomPort())
        assert 1 not in router.outputs

    def test_input_indices_stable(self):
        router = make_router()
        assert router.add_input(InputQueue("a", 1)) == 0
        assert router.add_input(InputQueue("b", 1)) == 1
