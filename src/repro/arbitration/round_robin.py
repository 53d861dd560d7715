"""Locally-fair round-robin arbitration (the paper's baseline).

Each input queue is serviced in uniform rotation regardless of how many
downstream cubes feed it — the source of the "parking lot problem"
analysed in Section 3.2.
"""

from __future__ import annotations

from typing import List

from repro.arbitration.base import ArbiterContext, Candidate, OutputArbiter


class RoundRobinArbiter(OutputArbiter):
    name = "round_robin"

    def __init__(self, context: ArbiterContext) -> None:
        super().__init__(context)
        self._pointer = 0

    def pick(self, now_ps: int, candidates: List[Candidate]) -> int:
        # Choose the first candidate whose input index is >= the
        # rotating pointer (wrapping), then advance the pointer past it.
        if len(candidates) == 1:
            # Uncontended round: same outcome as the scan below.  The
            # pointer still advances — that is part of the arbitration
            # state, so the shortcut must leave it as the scan would.
            self._pointer = candidates[0][0] + 1
            return 0
        best_pos = 0
        best_rank = None
        for pos, (index, _packet) in enumerate(candidates):
            rank = (index - self._pointer) % 1024
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best_pos = pos
        self._pointer = candidates[best_pos][0] + 1
        return best_pos
