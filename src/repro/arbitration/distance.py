"""Distance-based arbitration (Section 4.1) and its enhanced form (5.3).

The key observation: messages anchored to farther cubes have longer
end-to-end latencies and are therefore likely to be the oldest messages
contending at a router.  Distance is derived from the header flit
(source/destination) plus a small static table — no timestamp bits are
needed.

The *naive* scheme weights purely by hop distance.  Section 5.1 shows
this mispredicts age when NVM cubes sit close to the host (NVM-F): the
slow array makes nearby responses old, but distance says they are
young.  The *enhanced* scheme therefore augments the lookup table with
the technology of the message's origin (converting the extra array
latency into equivalent hops) and deprioritizes write-class traffic.
"""

from __future__ import annotations

from repro.arbitration.base import (
    ArbiterContext,
    OutputArbiter,
    WeightedDeficitMixin,
)


class DistanceArbiter(WeightedDeficitMixin, OutputArbiter):
    """Weighted round-robin with weight = topological distance."""

    name = "distance"

    def __init__(self, context: ArbiterContext) -> None:
        OutputArbiter.__init__(self, context)
        WeightedDeficitMixin.__init__(self)

    def weight_of(self, packet) -> float:
        return 1.0 + self.context.origin_distance(packet)

    def candidate_weight(self, index: int, packet) -> float:
        return self.weight_of(packet)


class EnhancedDistanceArbiter(DistanceArbiter):
    """Distance arbitration made topology- and technology-aware.

    Additions over :class:`DistanceArbiter` (Section 5.3):

    * the lookup table knows each node's memory technology, so messages
      anchored to NVM cubes gain ``nvm_bonus_hops`` equivalent hops of
      weight (their array latency makes them older than distance alone
      suggests);
    * write-class packets are scaled down by ``write_weight_factor`` so
      off-critical-path writes can be further delayed.
    """

    name = "distance_enhanced"

    def weight_of(self, packet) -> float:
        weight = 1.0 + self.context.origin_distance(packet)
        if self.context.origin_is_nvm(packet):
            weight += self.context.nvm_bonus_hops
        if packet.kind.is_write_class:
            weight *= self.context.write_weight_factor
        return weight
