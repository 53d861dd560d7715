"""Unit tests for the recycling packet pool (``repro.net.pool``)."""

from __future__ import annotations

import pytest

from repro.config import PacketConfig
from repro.errors import SimulationError
from repro.net.packet import Packet, PacketKind, Transaction
from repro.net.pool import PacketPool


def make_txn(is_write=False, address=0x400):
    txn = Transaction(address, is_write, port_id=0, issue_ps=0)
    txn.dest_cube = 3
    return txn


def test_acquire_without_freelist_constructs():
    pool = PacketPool()
    packet = pool.request_packet(PacketConfig(), make_txn(), 10)
    assert packet.kind == PacketKind.READ_REQ
    assert not packet.freed
    assert pool.acquired == 1
    assert pool.recycled == 0
    assert pool.live == 1


def test_release_and_recycle_reuses_object():
    pool = PacketPool()
    first = pool.request_packet(PacketConfig(), make_txn(), 0)
    first_pid = first.pid
    pool.release(first)
    assert first.freed
    assert pool.freelist_size == 1
    second = pool.request_packet(PacketConfig(), make_txn(is_write=True), 5)
    assert second is first  # the carcass was recycled in place...
    assert not second.freed
    assert second.pid > first_pid  # ...with a fresh identity
    assert second.kind == PacketKind.WRITE_REQ
    assert pool.recycled == 1
    assert pool.freelist_size == 0


def test_pid_stream_interleaves_with_direct_construction():
    """Recycling must draw pids from the same global counter as plain
    construction — that is what keeps pooling digest-invisible."""
    pool = PacketPool()
    config = PacketConfig()
    pooled = pool.request_packet(config, make_txn(), 0)
    first_pid = pooled.pid  # recycling overwrites it in place below
    direct = Packet(PacketKind.READ_REQ, 0, 0, 1, 128, 0)
    pool.release(pooled)
    recycled = pool.request_packet(config, make_txn(), 0)
    assert first_pid < direct.pid < recycled.pid


def test_double_release_raises():
    pool = PacketPool()
    packet = pool.request_packet(PacketConfig(), make_txn(), 0)
    pool.release(packet)
    with pytest.raises(SimulationError, match="double release"):
        pool.release(packet)


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


def test_stats_decode_kind_taxonomy():
    pool = PacketPool()
    config = PacketConfig()
    read = pool.request_packet(config, make_txn(), 0)
    pool.release(read)
    pool.request_packet(config, make_txn(is_write=True), 1)
    stats = pool.stats()
    assert stats["acquired"] == 2
    assert stats["recycled"] == 1
    assert stats["released"] == 1
    assert stats["live"] == 1
    assert stats["by_kind"]["READ_REQ"] == {"acquired": 1, "released": 1}
    assert stats["by_kind"]["WRITE_REQ"] == {"acquired": 1, "released": 0}
