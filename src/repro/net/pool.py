"""The one place packets are built.

Every transaction needs a request packet and a response packet (a p2p
copy adds a transfer leg and an ack); :class:`PacketPool` builds each
of them from the transaction or the packet it answers, so the kind,
size and endpoints of every packet are decided here.  Each packet is a
new object with a fresh ``pid`` from the global counter.

Packets are not recycled: a freelist measured no faster end to end and
no smaller in memory (``docs/performance.md``), and each release point
had to be ordered so that a reused object could never alias a live
packet.
"""

from __future__ import annotations

from repro.config import PacketConfig
from repro.net.packet import Packet, PacketKind, Transaction

#: The request packet kind of each ``Transaction.kind`` (read, write, p2p).
_REQUEST_KINDS = (PacketKind.READ_REQ, PacketKind.WRITE_REQ, PacketKind.P2P_REQ)


class PacketPool:
    """Packet builders plus a count of the packets built."""

    __slots__ = ("acquired",)

    #: Always 0, since no packet is reused; ``hostbench/probes.py`` reads it.
    recycled = 0

    def __init__(self) -> None:
        self.acquired = 0

    def request_packet(
        self, config: PacketConfig, txn: Transaction, now_ps: int
    ) -> Packet:
        """The host's request for a transaction: a read request, a write,
        or a p2p copy's "read and forward" command to the source cube."""
        self.acquired += 1
        kind = _REQUEST_KINDS[txn.kind]
        return Packet(
            kind,
            txn.address,
            -1,  # host
            txn.dest_cube if txn.dest_cube is not None else -1,
            config.data_bits if kind.carries_data else config.control_bits,
            now_ps,
            txn,
        )

    def response_packet(
        self, config: PacketConfig, request: Packet, now_ps: int
    ) -> Packet:
        """The response (read data or write ack) for a delivered request."""
        self.acquired += 1
        kind = request.kind.response_kind()
        return Packet(
            kind,
            request.address,
            request.dest,
            request.src,
            config.data_bits if kind.carries_data else config.control_bits,
            now_ps,
            request.transaction,
        )

    # -- peer-to-peer relay legs -------------------------------------------
    def p2p_xfer_packet(
        self, config: PacketConfig, request: Packet, now_ps: int
    ) -> Packet:
        """The copied line, source cube -> destination cube.

        Unlike :meth:`response_packet` the destination is the
        transaction's p2p target cube, not the requester, and the
        packet addresses the *mirrored* location at that cube.
        """
        self.acquired += 1
        txn = request.transaction
        packet = Packet(
            PacketKind.P2P_XFER,
            txn.address,
            request.dest,  # the source cube the line was read from
            txn.p2p_dest_cube,
            config.data_bits,
            now_ps,
            txn,
        )
        packet.location = txn.p2p_dest_location
        return packet

    def p2p_ack_packet(
        self, config: PacketConfig, request: Packet, now_ps: int
    ) -> Packet:
        """Completion notice, destination cube -> host."""
        self.acquired += 1
        return Packet(
            PacketKind.P2P_ACK,
            request.address,
            request.dest,  # the destination cube the line landed in
            -1,  # host
            config.control_bits,
            now_ps,
            request.transaction,
        )
