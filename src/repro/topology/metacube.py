"""MetaCube topology (Section 4.3, Fig 9).

A MetaCube packages several memory cubes on a silicon interposer behind
a central interface chip.  The interface chip's router is not bound by
the 4-port cube budget, so the *package-level* network can use a
high-radix layout; member cubes hang off the interface chip over wide,
cheap interposer links.

Packaging rules used here (documented in DESIGN.md):

* cubes are grouped by technology into packages of up to ``arity``
  members; a group of one needs no interposer and ships as a plain cube;
* packages form a ternary tree (1 uplink + 3 downlinks per interface
  chip), the best package-level layout available within SerDes budgets;
* NVM packages are placed last (farther from the host) or first,
  matching the NVM-L / NVM-F placements of other topologies.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.config import NVM_FIRST, NVM_LAST
from repro.errors import TopologyError
from repro.topology.base import (
    HOST_ID,
    LinkKind,
    NodeKind,
    Topology,
)
from repro.topology.tree import tree_parent


def plan_packages(
    num_dram: int, num_nvm: int, placement: str, arity: int = 4
) -> List[Tuple[str, int]]:
    """Group cubes into packages: list of ``(tech, member_count)``.

    DRAM packages come first for NVM-L placement, last for NVM-F.
    """
    if num_dram < 0 or num_nvm < 0 or num_dram + num_nvm == 0:
        raise TopologyError("need a positive cube count")
    if arity < 1:
        raise TopologyError("metacube arity must be >= 1")

    def group(tech: str, count: int) -> List[Tuple[str, int]]:
        packages = []
        remaining = count
        while remaining > 0:
            members = min(arity, remaining)
            packages.append((tech, members))
            remaining -= members
        return packages

    dram_packages = group("DRAM", num_dram)
    nvm_packages = group("NVM", num_nvm)
    if placement == NVM_LAST:
        return dram_packages + nvm_packages
    if placement == NVM_FIRST:
        return nvm_packages + dram_packages
    raise TopologyError(f"unknown placement {placement!r}")


def build_metacube(
    num_dram: int,
    num_nvm: int,
    placement: str = NVM_LAST,
    arity: int = 4,
    package_arity: int = 3,
) -> Topology:
    """Build the MetaCube MN.

    Cube node ids are 1..n ordered by package (so address-map position
    follows package placement); interface-chip switches get ids after
    the cubes.
    """
    packages = plan_packages(num_dram, num_nvm, placement, arity)
    total_cubes = num_dram + num_nvm
    topo = Topology(name="metacube")
    topo.add_node(HOST_ID, NodeKind.HOST)

    next_cube_id = 1
    switch_id = total_cubes + 1
    attachment_points: List[int] = []
    package_members: List[List[int]] = []

    for package_index, (tech, members) in enumerate(packages):
        member_ids = []
        for _ in range(members):
            topo.add_node(
                next_cube_id, NodeKind.CUBE, tech=tech, package=package_index
            )
            member_ids.append(next_cube_id)
            next_cube_id += 1
        package_members.append(member_ids)
        if members == 1:
            attachment_points.append(member_ids[0])
        else:
            topo.add_node(switch_id, NodeKind.SWITCH, package=package_index)
            for cube_id in member_ids:
                topo.add_edge(
                    switch_id, cube_id, link_kind=LinkKind.INTERPOSER
                )
            attachment_points.append(switch_id)
            switch_id += 1

    # package-level ternary tree over attachment points
    for position, attach in enumerate(attachment_points):
        if position == 0:
            topo.add_edge(HOST_ID, attach, is_chain=True)
        else:
            parent = attachment_points[tree_parent(position, package_arity)]
            topo.add_edge(parent, attach, is_chain=True)
    return topo
