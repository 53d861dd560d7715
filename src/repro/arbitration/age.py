"""True age-based arbitration (idealized baseline from Section 4.1).

The paper rejects this scheme as impractical — flit headers lack spare
bits for a timestamp — but it is the gold standard distance-based
arbitration approximates, so we keep it for ablation studies.
"""

from __future__ import annotations

from typing import List

from repro.arbitration.base import Candidate, OutputArbiter


class AgeArbiter(OutputArbiter):
    name = "age"

    def pick(self, now_ps: int, candidates: List[Candidate]) -> int:
        best_pos = 0
        best_age = -1
        for pos, (_index, packet) in enumerate(candidates):
            txn = packet.transaction
            born = txn.issue_ps if txn is not None else packet.create_ps
            age = now_ps - born
            if age > best_age:
                best_age = age
                best_pos = pos
        return best_pos
