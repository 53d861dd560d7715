"""Recycling packet allocator with array-backed accounting.

Every transaction allocates two :class:`~repro.net.packet.Packet`
objects (request and response) that live for a few microseconds of
simulated time and then become garbage — at hundreds of thousands of
events per second that is steady allocator churn on the hottest path.
:class:`PacketPool` recycles the carcasses through a flat freelist:
a released packet is re-initialised in place on the next acquire, so
the object (and its slot storage) is reused while its identity-relevant
state — including a *fresh* ``pid`` from the global counter — is
indistinguishable from a newly constructed packet.  Result digests are
therefore byte-identical with and without recycling.

Bookkeeping is structure-of-arrays style: per-kind acquire/release
counters live in preallocated ``array('q')`` typed arrays indexed by
the integer :class:`~repro.net.packet.PacketKind` value, and are only
decoded to the kind-name taxonomy when :meth:`PacketPool.stats` is
exported.

Safety: ``release`` marks the packet ``freed`` and rejects double
frees; the invariant auditor (:mod:`repro.check`) walks the visible
resident population (router queues, controller response buffers) and
verifies that no resident packet is freed and that the pool's live
count covers everything it can see (packets in flight on links are
live but invisible, so the check is a lower bound — tolerant of RAS
drops by construction, since drops release through the same gate).
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from repro.config import PacketConfig
from repro.errors import SimulationError
from repro.net.packet import Packet, PacketKind, Transaction

_NUM_KINDS = len(PacketKind)
#: The request packet kind of each ``Transaction.kind`` (read, write, p2p).
_REQUEST_KINDS = (PacketKind.READ_REQ, PacketKind.WRITE_REQ, PacketKind.P2P_REQ)


class PacketPool:
    """Flat freelist of recycled packets plus typed counter arrays."""

    __slots__ = (
        "_free",
        "acquired",
        "recycled",
        "released",
        "kind_acquired",
        "kind_released",
    )

    def __init__(self) -> None:
        self._free: List[Packet] = []
        self.acquired = 0
        self.recycled = 0
        self.released = 0
        # Structure-of-arrays counters, indexed by int(PacketKind).
        self.kind_acquired = array("q", [0] * _NUM_KINDS)
        self.kind_released = array("q", [0] * _NUM_KINDS)

    # -- acquisition -------------------------------------------------------
    def acquire(
        self,
        kind: PacketKind,
        address: int,
        src: int,
        dest: int,
        size_bits: int,
        create_ps: int,
        transaction: Optional[Transaction],
    ) -> Packet:
        """A packet with constructor semantics (fresh pid included)."""
        self.acquired += 1
        self.kind_acquired[kind] += 1
        free = self._free
        if free:
            self.recycled += 1
            packet = free.pop()
            # Re-run the constructor in place: every slot (including a
            # fresh pid drawn from the same global counter) is reset, so
            # a recycled packet is indistinguishable from a new one.
            packet.__init__(
                kind, address, src, dest, size_bits, create_ps, transaction
            )
            return packet
        return Packet(kind, address, src, dest, size_bits, create_ps, transaction)

    def request_packet(
        self, config: PacketConfig, txn: Transaction, now_ps: int
    ) -> Packet:
        """The host's request for a transaction: a read request, a write,
        or a p2p copy's "read and forward" command to the source cube."""
        kind = _REQUEST_KINDS[txn.kind]
        size = config.data_bits if kind.carries_data else config.control_bits
        return self.acquire(
            kind,
            txn.address,
            -1,  # host
            txn.dest_cube if txn.dest_cube is not None else -1,
            size,
            now_ps,
            txn,
        )

    def response_packet(
        self, config: PacketConfig, request: Packet, now_ps: int
    ) -> Packet:
        """The response (read data or write ack) for a delivered request."""
        kind = request.kind.response_kind()
        size = config.data_bits if kind.carries_data else config.control_bits
        return self.acquire(
            kind,
            request.address,
            request.dest,
            request.src,
            size,
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
        txn = request.transaction
        packet = self.acquire(
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
        return self.acquire(
            PacketKind.P2P_ACK,
            request.address,
            request.dest,  # the destination cube the line landed in
            -1,  # host
            config.control_bits,
            now_ps,
            request.transaction,
        )

    # -- release -----------------------------------------------------------
    def release(self, packet: Packet) -> None:
        """Return a packet whose last consumer is provably done with it."""
        if packet.freed:
            raise SimulationError(
                f"double release of packet #{packet.pid} into the pool"
            )
        packet.freed = True
        self.released += 1
        self.kind_released[packet.kind] += 1
        self._free.append(packet)

    # -- introspection -----------------------------------------------------
    @property
    def live(self) -> int:
        """Packets acquired and not yet released (resident + in flight)."""
        return self.acquired - self.released

    @property
    def freelist_size(self) -> int:
        return len(self._free)

    def stats(self) -> dict:
        """Counters decoded to the kind-name taxonomy (export only)."""
        return {
            "acquired": self.acquired,
            "recycled": self.recycled,
            "released": self.released,
            "live": self.live,
            "freelist": len(self._free),
            "by_kind": {
                kind.name: {
                    "acquired": self.kind_acquired[kind],
                    "released": self.kind_released[kind],
                }
                for kind in PacketKind
            },
        }
