"""Physical units and conversion helpers.

The entire simulator uses **integer picoseconds** for time and **bits**
for data sizes.  Keeping the event queue integral makes event ordering
exact and runs deterministic across platforms.
"""

from __future__ import annotations

from functools import lru_cache

# --- time ----------------------------------------------------------------
PS = 1
NS = 1_000 * PS
US = 1_000 * NS


def ns(value: float) -> int:
    """Convert a (possibly fractional) nanosecond value to integer ps."""
    return int(round(value * NS))


def to_ns(ps_value: int) -> float:
    """Convert integer picoseconds back to float nanoseconds."""
    return ps_value / NS


# --- data sizes ------------------------------------------------------------
BIT = 1
BYTE = 8 * BIT
KB = 1024 * BYTE

KIB_BYTES = 1024
MIB_BYTES = 1024 * KIB_BYTES
GIB_BYTES = 1024 * MIB_BYTES
TIB_BYTES = 1024 * GIB_BYTES


# --- bandwidth -------------------------------------------------------------
def gbps_to_bits_per_ps(gbps: float) -> float:
    """Convert gigabits/second to bits/picosecond."""
    return gbps * 1e9 / 1e12


@lru_cache(maxsize=4096)
def serialization_ps(size_bits: int, lanes: int, lane_gbps: float) -> int:
    """Time to serialize ``size_bits`` over ``lanes`` at ``lane_gbps`` each.

    Returns an integer number of picoseconds, rounded up so a link is
    never modelled as faster than physically possible.  Memoized per
    ``(size_bits, lanes, lane_gbps)`` — a sweep uses only a handful of
    packet sizes but computes this on every link traversal.
    """
    bits_per_ps = gbps_to_bits_per_ps(lane_gbps) * lanes
    ticks = size_bits / bits_per_ps
    whole = int(ticks)
    if ticks > whole:
        whole += 1
    return whole
