"""Globally-weighted round-robin (idealized baseline from Section 4.1).

The paper's first alternative: weight each input port by the number of
downstream cubes whose traffic must eventually flow through it.  This
requires global knowledge, which the paper deems impractical; we model
it with static subtree weights computed at build time (exact for the
steady state of uniformly interleaved traffic) and use it in ablations.
"""

from __future__ import annotations

from repro.arbitration.base import (
    ArbiterContext,
    OutputArbiter,
    WeightedDeficitMixin,
)


class GlobalWeightedArbiter(WeightedDeficitMixin, OutputArbiter):
    name = "global_weighted"

    def __init__(self, context: ArbiterContext) -> None:
        OutputArbiter.__init__(self, context)
        WeightedDeficitMixin.__init__(self)

    def candidate_weight(self, index: int, packet) -> float:
        return float(self.context.subtree_weights.get(index, 1))
