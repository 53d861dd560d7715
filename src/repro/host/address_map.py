"""Port-local physical address mapping.

Addresses are interleaved across the port's cubes at a 256 B
granularity (Section 5), weighted by cube capacity so a 64 GB NVM cube
receives 4x the blocks of a 16 GB DRAM cube — this realizes the paper's
"uniformly interleaved by address" assumption where a 50%-capacity-NVM
MN sends 50% of requests to NVM.

The per-cube block stream is then mapped column -> bank -> row, so a
sequential stream enjoys row-buffer hits within a bank before moving to
the next bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class Location:
    """Decoded placement of one address."""

    cube_index: int  # position in the address-map's cube order
    quadrant: int
    bank: int  # bank index *within the quadrant*
    row: int
    offset: int  # byte offset inside the interleave block


def smooth_weighted_order(weights: Sequence[int]) -> List[int]:
    """Smooth weighted round-robin pattern (one entry per weight unit).

    Interleaves heavy items among light ones instead of emitting long
    runs, the standard smooth-WRR used by load balancers.
    """
    if not weights or any(w <= 0 for w in weights):
        raise ConfigError("weights must be positive")
    current = [0] * len(weights)
    total = sum(weights)
    pattern: List[int] = []
    for _ in range(total):
        best = 0
        for index, weight in enumerate(weights):
            current[index] += weight
            if current[index] > current[best]:
                best = index
        current[best] -= total
        pattern.append(best)
    return pattern


class AddressMap:
    """Maps port-local addresses to (cube, quadrant, bank, row)."""

    def __init__(
        self,
        cube_capacities: Sequence[int],
        interleave_bytes: int,
        row_bytes: int,
        banks_per_stack: int,
        num_quadrants: int,
    ) -> None:
        if not cube_capacities:
            raise ConfigError("address map needs at least one cube")
        if interleave_bytes <= 0 or interleave_bytes & (interleave_bytes - 1):
            raise ConfigError("interleave must be a positive power of two")
        if row_bytes % interleave_bytes:
            raise ConfigError("row size must be a multiple of the interleave")
        self.interleave_bytes = interleave_bytes
        self.row_bytes = row_bytes
        self.banks_per_stack = banks_per_stack
        self.num_quadrants = num_quadrants
        self.total_bytes = sum(cube_capacities)

        divisor = 0
        for capacity in cube_capacities:
            divisor = gcd(divisor, capacity)
        self.weights = [capacity // divisor for capacity in cube_capacities]
        pattern = smooth_weighted_order(self.weights)
        self.pattern = pattern
        self.pattern_len = len(pattern)
        # occurrence index of each slot within its cube's share
        occurrence: List[int] = []
        seen = [0] * len(cube_capacities)
        for cube in pattern:
            occurrence.append(seen[cube])
            seen[cube] += 1
        self._occurrence = occurrence
        self.blocks_per_row = row_bytes // interleave_bytes

    # ------------------------------------------------------------------
    def decode(self, address: int) -> Location:
        if not 0 <= address < self.total_bytes:
            raise ConfigError(
                f"address 0x{address:x} outside port space "
                f"(0x{self.total_bytes:x} bytes)"
            )
        block, offset = divmod(address, self.interleave_bytes)
        cycle, slot = divmod(block, self.pattern_len)
        cube = self.pattern[slot]
        local_block = cycle * self.weights[cube] + self._occurrence[slot]
        column_block = local_block % self.blocks_per_row
        bank_global = (local_block // self.blocks_per_row) % self.banks_per_stack
        row = local_block // (self.blocks_per_row * self.banks_per_stack)
        quadrant = bank_global % self.num_quadrants
        bank = bank_global // self.num_quadrants
        del column_block  # column position does not affect timing
        return Location(
            cube_index=cube, quadrant=quadrant, bank=bank, row=row, offset=offset
        )

    def cube_share(self, cube_index: int) -> float:
        """Fraction of addresses (and therefore requests) hitting a cube."""
        return self.weights[cube_index] / self.pattern_len
