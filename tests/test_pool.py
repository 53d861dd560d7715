"""Unit tests for the packet builders (``repro.net.pool``)."""

from __future__ import annotations

from repro.config import PacketConfig
from repro.net.packet import Packet, PacketKind, Transaction
from repro.net.pool import PacketPool


def make_txn(is_write=False, address=0x400):
    txn = Transaction(address, is_write, port_id=0, issue_ps=0)
    txn.dest_cube = 3
    return txn


def test_each_build_is_a_new_counted_packet():
    pool = PacketPool()
    config = PacketConfig()
    first = pool.request_packet(config, make_txn(), 10)
    assert first.kind == PacketKind.READ_REQ
    second = pool.request_packet(config, make_txn(is_write=True), 5)
    assert second is not first
    assert second.kind == PacketKind.WRITE_REQ
    assert first.kind == PacketKind.READ_REQ  # untouched by the second build
    pool.response_packet(config, first, 20)
    assert pool.acquired == 3
    assert pool.recycled == 0


def test_pid_stream_interleaves_with_direct_construction():
    """Builders draw pids from the same global counter as plain
    construction, so packet ids follow creation order."""
    pool = PacketPool()
    config = PacketConfig()
    built = pool.request_packet(config, make_txn(), 0)
    direct = Packet(PacketKind.READ_REQ, 0, 0, 1, 128, 0)
    later = pool.request_packet(config, make_txn(), 0)
    assert built.pid < direct.pid < later.pid


def test_request_matches_module_constructor():
    config = PacketConfig()
    txn = make_txn(is_write=True)
    reference = Packet(
        PacketKind.WRITE_REQ, txn.address, -1, 3, config.data_bits, 42, txn
    )
    pooled = PacketPool().request_packet(config, txn, 42)
    for field in ("kind", "address", "src", "dest", "size_bits",
                  "create_ps", "transaction"):
        assert getattr(pooled, field) == getattr(reference, field)


def test_response_matches_module_constructor():
    config = PacketConfig()
    request = PacketPool().request_packet(config, make_txn(), 0)
    reference = Packet(
        PacketKind.READ_RESP, request.address, request.dest, request.src,
        config.data_bits, 99, request.transaction,
    )
    pooled = PacketPool().response_packet(config, request, 99)
    for field in ("kind", "address", "src", "dest", "size_bits",
                  "create_ps", "transaction"):
        assert getattr(pooled, field) == getattr(reference, field)
    assert pooled.kind == PacketKind.READ_RESP


def test_p2p_legs_address_the_mirrored_location():
    config = PacketConfig()
    pool = PacketPool()
    txn = Transaction(0x400, False, port_id=0, issue_ps=0, is_p2p=True)
    txn.dest_cube = 3
    txn.location = (3, 0, 1, 7)
    txn.p2p_dest_cube = 5
    txn.p2p_dest_location = (5, 0, 1, 7)
    request = pool.request_packet(config, txn, 0)
    assert request.location == txn.location
    xfer = pool.p2p_xfer_packet(config, request, 10)
    assert xfer.kind == PacketKind.P2P_XFER
    assert (xfer.src, xfer.dest) == (3, 5)
    assert xfer.location == txn.p2p_dest_location
    assert xfer.size_bits == config.data_bits
    ack = pool.p2p_ack_packet(config, xfer, 20)
    assert ack.kind == PacketKind.P2P_ACK
    assert (ack.src, ack.dest) == (5, -1)
    assert ack.location == txn.location
    assert ack.size_bits == config.control_bits
    assert pool.acquired == 3
