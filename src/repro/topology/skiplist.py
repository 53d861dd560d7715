"""Skip-list topology (Section 4.2, Fig 8).

A central sequential chain (the "linked list") carries write-class
traffic; spare cube ports implement bypass ("skip") links that shorten
read paths to logarithmic length, similar to express cubes.

Construction is deterministic: the cube range is recursively bisected
and a skip link is added from each segment's entry point to its
midpoint, provided both endpoints still have a free port within the
4-port package budget.  For 16 cubes this yields exactly the Fig 8
structure where the farthest cube is 5 hops from the host.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import TopologyError
from repro.topology.base import (
    ALL_CLASSES,
    HOST_ID,
    READ_ONLY,
    NodeKind,
    Topology,
    chain_positions,
)


def _largest_pow2_at_most(value: int) -> int:
    if value < 1:
        raise ValueError("value must be >= 1")
    return 1 << (value.bit_length() - 1)


def plan_skip_links(
    count: int, max_ports: int = 4
) -> List[Tuple[int, int]]:
    """Plan skip links over cube *positions* ``0..count-1``.

    Returns (from_position, to_position) pairs.  Chain ports (and the
    host port on position 0) are reserved first; skip links are added by
    recursive bisection while the port budget allows.
    """
    if count < 1:
        raise TopologyError("need at least one cube")
    ports_used: Dict[int, int] = {}
    for position in range(count):
        used = 1  # uplink toward host along the chain
        if position < count - 1:
            used += 1  # downlink along the chain
        ports_used[position] = used

    skips: List[Tuple[int, int]] = []

    def bisect(lo: int, hi: int) -> None:
        size = hi - lo + 1
        if size < 3:
            return
        span = _largest_pow2_at_most(size // 2)
        mid = lo + span
        if span >= 2 and ports_used[lo] < max_ports and ports_used[mid] < max_ports:
            skips.append((lo, mid))
            ports_used[lo] += 1
            ports_used[mid] += 1
        bisect(lo, mid - 1)
        bisect(mid, hi)

    bisect(0, count - 1)
    return skips


def build_skiplist(techs: Sequence[str], max_ports: int = 4) -> Topology:
    """Build the skip-list MN for cubes with the given tech per position.

    Chain links carry all traffic classes; skip links are read-only
    (write requests ride the chain unless the host's write-burst
    hysteresis temporarily re-admits them, which is a routing decision,
    not a topology one).
    """
    topo = Topology(name="skiplist")
    topo.add_node(HOST_ID, NodeKind.HOST)
    ids = chain_positions(len(techs))
    for node_id, tech in zip(ids, techs):
        topo.add_node(node_id, NodeKind.CUBE, tech=tech)
    previous = HOST_ID
    for node_id in ids:
        topo.add_edge(previous, node_id, classes=ALL_CLASSES, is_chain=True)
        previous = node_id
    for lo, hi in plan_skip_links(len(techs), max_ports=max_ports):
        topo.add_edge(ids[lo], ids[hi], classes=READ_ONLY, is_chain=False)
    return topo
