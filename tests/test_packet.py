"""Tests for packets and transactions."""

import pytest

from repro.config import LinkConfig, PacketConfig
from repro.net.buffers import InputQueue
from repro.net.link import Link
from repro.net.packet import (
    KIND_NAMES,
    KIND_P2P,
    KIND_READ,
    KIND_WRITE,
    Packet,
    PacketKind,
    Transaction,
)
from repro.net.pool import PacketPool
from repro.sim.engine import Engine


class TestPacketKind:
    def test_request_response_partition(self):
        requests = {PacketKind.READ_REQ, PacketKind.WRITE_REQ, PacketKind.P2P_REQ}
        for kind in PacketKind:
            packet = Packet(kind, 0, 0, 1, 8, 0)
            assert packet.is_req is (kind in requests)
            assert packet.is_resp is (kind not in requests)

    def test_data_packets(self):
        assert PacketKind.WRITE_REQ.carries_data
        assert PacketKind.READ_RESP.carries_data
        assert not PacketKind.READ_REQ.carries_data
        assert not PacketKind.WRITE_ACK.carries_data

    def test_write_class(self):
        assert PacketKind.WRITE_REQ.is_write_class
        assert PacketKind.WRITE_ACK.is_write_class
        assert not PacketKind.READ_REQ.is_write_class
        assert not PacketKind.READ_RESP.is_write_class

    def test_response_kinds(self):
        assert PacketKind.READ_REQ.response_kind() == PacketKind.READ_RESP
        assert PacketKind.WRITE_REQ.response_kind() == PacketKind.WRITE_ACK
        with pytest.raises(ValueError):
            PacketKind.READ_RESP.response_kind()


class TestPacketRoute:
    def make(self):
        packet = Packet(PacketKind.READ_REQ, 0x100, 0, 3, 128, 0)
        packet.route = [0, 1, 2, 3]
        return packet

    def test_route_walk(self):
        # Each link delivery moves the packet one hop along its route.
        packet = self.make()
        assert packet.current_node == 0
        assert packet.route[packet.hop_index + 1] == 1
        engine = Engine()
        queue = InputQueue("q", 1)
        link = Link("L", LinkConfig(input_buffer_packets=1), queue)
        for hop in (1, 2, 3):
            link.send(engine, packet)
            engine.run()
            assert queue.pop(engine.now) is packet
            link.return_credit(engine)
            assert packet.hop_index == packet.hops_traversed == hop
            assert packet.current_node == hop
        assert packet.hop_index == len(packet.route) - 1

    def test_unique_ids(self):
        a = Packet(PacketKind.READ_REQ, 0, 0, 1, 8, 0)
        b = Packet(PacketKind.READ_REQ, 0, 0, 1, 8, 0)
        assert a.pid != b.pid


def test_transaction_kind_indexes_the_port_tables():
    def kind(**flags):
        return Transaction(0x40, port_id=0, issue_ps=0, **flags).kind

    assert kind(is_write=False) == KIND_READ
    assert kind(is_write=True) == KIND_WRITE
    assert kind(is_write=False, is_p2p=True) == KIND_P2P
    assert KIND_NAMES[KIND_P2P] == "p2p"


class TestTransactionLatencies:
    def make_txn(self):
        txn = Transaction(address=0x40, is_write=False, port_id=0, issue_ps=100)
        txn.start_ps = 150
        txn.mem_arrive_ps = 300
        txn.mem_depart_ps = 360
        txn.complete_ps = 500
        return txn

    def test_breakdown_uses_window_grant_clock(self):
        txn = self.make_txn()
        assert txn.to_memory_ps == 150  # 300 - 150
        assert txn.in_memory_ps == 60
        assert txn.from_memory_ps == 140
        assert txn.total_ps == 350
        # The core-side stall before the grant is outside the breakdown.
        assert txn.complete_ps - txn.issue_ps - txn.total_ps == 50

    def test_breakdown_falls_back_to_issue_time(self):
        txn = Transaction(address=0, is_write=True, port_id=0, issue_ps=10)
        txn.mem_arrive_ps = 30
        txn.mem_depart_ps = 40
        txn.complete_ps = 50
        assert txn.to_memory_ps == 20
        assert txn.total_ps == txn.complete_ps - txn.issue_ps

    def test_components_sum_to_total(self):
        txn = self.make_txn()
        assert (
            txn.to_memory_ps + txn.in_memory_ps + txn.from_memory_ps == txn.total_ps
        )


class TestPacketFactories:
    def test_read_request_is_control_sized(self):
        config = PacketConfig()
        txn = Transaction(0x80, is_write=False, port_id=0, issue_ps=0)
        txn.dest_cube = 5
        packet = PacketPool().request_packet(config, txn, 0)
        assert packet.kind == PacketKind.READ_REQ
        assert packet.size_bits == config.control_bits

    def test_write_request_is_data_sized(self):
        config = PacketConfig()
        txn = Transaction(0x80, is_write=True, port_id=0, issue_ps=0)
        txn.dest_cube = 5
        packet = PacketPool().request_packet(config, txn, 0)
        assert packet.kind == PacketKind.WRITE_REQ
        assert packet.size_bits == config.data_bits

    def test_p2p_copy_request_is_control_sized(self):
        config = PacketConfig()
        txn = Transaction(0x80, is_write=False, port_id=0, issue_ps=0,
                          is_p2p=True)
        txn.dest_cube = 5
        packet = PacketPool().request_packet(config, txn, 0)
        assert packet.kind == PacketKind.P2P_REQ
        assert packet.size_bits == config.control_bits
        assert packet.dest == 5

    def test_response_swaps_endpoints(self):
        config = PacketConfig()
        txn = Transaction(0x80, is_write=False, port_id=0, issue_ps=0)
        txn.dest_cube = 5
        request = PacketPool().request_packet(config, txn, 0)
        request.src, request.dest = 0, 5
        response = PacketPool().response_packet(config, request, 10)
        assert response.kind == PacketKind.READ_RESP
        assert response.src == 5 and response.dest == 0
        assert response.size_bits == config.data_bits
        assert response.transaction is txn

    def test_write_ack_is_control_sized(self):
        config = PacketConfig()
        txn = Transaction(0x80, is_write=True, port_id=0, issue_ps=0)
        txn.dest_cube = 2
        request = PacketPool().request_packet(config, txn, 0)
        response = PacketPool().response_packet(config, request, 10)
        assert response.kind == PacketKind.WRITE_ACK
        assert response.size_bits == config.control_bits
