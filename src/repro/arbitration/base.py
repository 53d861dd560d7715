"""Arbiter interface and shared context."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.net.packet import Packet

# One candidate per input queue: (stable input index, head packet).
Candidate = Tuple[int, Packet]


@dataclass
class ArbiterContext:
    """Static knowledge available to arbiters.

    The paper stores this as "a very small hardware lookup table"
    (Section 4.1, ~8 bytes): per-node distance to the host, plus — for
    the enhanced scheme — the memory technology at each node and an
    equivalent-hop bonus reflecting the slower NVM array.
    """

    distance_to_host: Mapping[int, int] = field(default_factory=dict)
    tech_of_node: Mapping[int, str] = field(default_factory=dict)
    nvm_bonus_hops: float = 0.0
    write_weight_factor: float = 0.25
    # router-specific static weights for the global oracle scheme:
    # input index -> number of cubes upstream of that input.
    subtree_weights: Dict[int, int] = field(default_factory=dict)

    def origin_node(self, packet: Packet) -> int:
        """The memory cube a packet's age is anchored to.

        For responses this is the cube that produced them; for requests
        the destination cube (both derivable from the header flit).
        """
        if packet.is_resp:
            return packet.src
        return packet.dest

    def origin_distance(self, packet: Packet) -> int:
        return self.distance_to_host.get(self.origin_node(packet), 0)

    def origin_is_nvm(self, packet: Packet) -> bool:
        return self.tech_of_node.get(self.origin_node(packet)) == "NVM"


class OutputArbiter(abc.ABC):
    """Per-output-port input selection policy.

    ``pick`` receives the non-empty candidate list (input queues whose
    head packet requires this output and which are currently eligible)
    and returns the *position within the candidate list* of the winner.
    """

    name = "abstract"

    def __init__(self, context: ArbiterContext) -> None:
        self.context = context

    @abc.abstractmethod
    def pick(self, now_ps: int, candidates: List[Candidate]) -> int:
        """Return the index (into ``candidates``) of the winning input."""


class WeightedDeficitMixin:
    """Deterministic weighted selection via per-input deficit counters.

    Each arbitration round every candidate's counter grows by its
    weight; the largest counter wins and is reset.  Service frequency is
    therefore proportional to weight, with round-robin tie-breaking.

    Mix in *before* :class:`OutputArbiter` so this :meth:`pick` wins;
    subclasses supply only :meth:`candidate_weight`.
    """

    def __init__(self) -> None:
        self._deficit: Dict[int, float] = {}
        self._rr_pointer = 0

    def candidate_weight(self, index: int, packet: Packet) -> float:
        """Weight of input ``index`` whose head is ``packet``."""
        raise NotImplementedError

    def pick(self, now_ps: int, candidates: List[Candidate]) -> int:
        if len(candidates) == 1:
            # Uncontended round: the loop below would grow the one
            # counter and then reset it as the winner, so jump straight
            # to that end state without computing a weight.
            index = candidates[0][0]
            self._deficit[index] = 0.0
            self._rr_pointer = index + 1
            return 0
        deficits = self._deficit
        pointer = self._rr_pointer
        best_pos = -1
        best_key: Tuple[float, int] = (float("-inf"), 0)
        for pos, (index, packet) in enumerate(candidates):
            weight = self.candidate_weight(index, packet)
            deficit = deficits.get(index, 0.0) + max(weight, 1e-9)
            deficits[index] = deficit
            # tie-break: round-robin order after the last winner
            key = (deficit, -((index - pointer) % 1024))
            if key > best_key:
                best_key = key
                best_pos = pos
        winner_index = candidates[best_pos][0]
        deficits[winner_index] = 0.0
        self._rr_pointer = winner_index + 1
        return best_pos
