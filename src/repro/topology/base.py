"""Topology description shared by all MN shapes.

A topology is a graph of nodes (the host, memory cubes, and — for
MetaCubes — interface-chip switches) and undirected edge specs.  Each
edge carries the set of traffic classes allowed on it (the skip-list
restricts write-class traffic to the chain) and whether it is an
external SerDes link or an on-interposer link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.errors import TopologyError
from repro.net.routing import RouteClass

HOST_ID = 0

ALL_CLASSES: FrozenSet[RouteClass] = frozenset((RouteClass.READ, RouteClass.WRITE))
READ_ONLY: FrozenSet[RouteClass] = frozenset((RouteClass.READ,))


class NodeKind(enum.IntEnum):
    HOST = 0
    CUBE = 1
    SWITCH = 2  # MetaCube interface chip


class LinkKind(enum.IntEnum):
    EXTERNAL = 0  # package-to-package SerDes
    INTERPOSER = 1  # inside a MetaCube package


@dataclass(frozen=True)
class NodeSpec:
    node_id: int
    kind: NodeKind
    tech: Optional[str] = None  # "DRAM" | "NVM" for cubes, None otherwise
    package: Optional[int] = None  # MetaCube package index, if any


@dataclass(frozen=True)
class EdgeSpec:
    a: int
    b: int
    link_kind: LinkKind = LinkKind.EXTERNAL
    classes: FrozenSet[RouteClass] = ALL_CLASSES
    is_chain: bool = False  # part of the skip-list central chain


@dataclass
class Topology:
    """A fully-specified MN graph for one host port."""

    name: str
    nodes: Dict[int, NodeSpec] = field(default_factory=dict)
    edges: List[EdgeSpec] = field(default_factory=list)

    # -- construction helpers ------------------------------------------------
    def add_node(
        self,
        node_id: int,
        kind: NodeKind,
        tech: Optional[str] = None,
        package: Optional[int] = None,
    ) -> None:
        if node_id in self.nodes:
            raise TopologyError(f"duplicate node id {node_id}")
        self.nodes[node_id] = NodeSpec(node_id, kind, tech, package)

    def add_edge(
        self,
        a: int,
        b: int,
        link_kind: LinkKind = LinkKind.EXTERNAL,
        classes: FrozenSet[RouteClass] = ALL_CLASSES,
        is_chain: bool = False,
    ) -> None:
        if a == b:
            raise TopologyError("self-loop edges are not allowed")
        for node in (a, b):
            if node not in self.nodes:
                raise TopologyError(f"edge endpoint {node} is not a node")
        if any({e.a, e.b} == {a, b} for e in self.edges):
            raise TopologyError(f"duplicate edge {a}-{b}")
        self.edges.append(EdgeSpec(a, b, link_kind, classes, is_chain))

    # -- queries --------------------------------------------------------------
    def cube_ids(self) -> List[int]:
        return sorted(
            n.node_id for n in self.nodes.values() if n.kind == NodeKind.CUBE
        )

    def switch_ids(self) -> List[int]:
        return sorted(
            n.node_id for n in self.nodes.values() if n.kind == NodeKind.SWITCH
        )

    def tech_of(self, node_id: int) -> Optional[str]:
        return self.nodes[node_id].tech

    def adjacency(self, cls: RouteClass) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {n: [] for n in self.nodes}
        for edge in self.edges:
            if cls in edge.classes:
                adj[edge.a].append(edge.b)
                adj[edge.b].append(edge.a)
        return adj

    def adjacency_by_class(self) -> Dict[RouteClass, Dict[int, List[int]]]:
        return {cls: self.adjacency(cls) for cls in (RouteClass.READ, RouteClass.WRITE)}

    def remove_edge(self, a: int, b: int) -> None:
        """Remove the edge between ``a`` and ``b`` (RAS fault injection)."""
        before = len(self.edges)
        self.edges = [e for e in self.edges if {e.a, e.b} != {a, b}]
        if len(self.edges) == before:
            raise TopologyError(f"no edge {a}-{b} to remove")

    def degree(self, node_id: int) -> int:
        return sum(1 for e in self.edges if node_id in (e.a, e.b))

    def external_degree(self, node_id: int) -> int:
        """SerDes links only — what the 4-port package budget constrains."""
        return sum(
            1
            for e in self.edges
            if node_id in (e.a, e.b) and e.link_kind == LinkKind.EXTERNAL
        )

    # -- invariants -------------------------------------------------------------
    def validate(self, max_cube_ports: int = 4) -> None:
        """Check connectivity, class coverage, and the port budget."""
        if HOST_ID not in self.nodes:
            raise TopologyError("topology lacks a host node")
        if self.nodes[HOST_ID].kind != NodeKind.HOST:
            raise TopologyError("node 0 must be the host")
        cubes = self.cube_ids()
        if not cubes:
            raise TopologyError("topology has no memory cubes")
        for cls in (RouteClass.READ, RouteClass.WRITE):
            reachable = _reachable(self.adjacency(cls), HOST_ID)
            missing = [c for c in cubes if c not in reachable]
            if missing:
                raise TopologyError(
                    f"{self.name}: cubes {missing} unreachable for {cls.name}"
                )
        for node in self.nodes.values():
            if node.kind == NodeKind.CUBE:
                degree = self.external_degree(node.node_id)
                # interposer links are not SerDes ports, so a MetaCube
                # member's link to its interface chip is exempt.
                if degree > max_cube_ports:
                    raise TopologyError(
                        f"{self.name}: cube {node.node_id} uses {degree} "
                        f"external ports (budget {max_cube_ports})"
                    )


def _reachable(adjacency: Dict[int, List[int]], source: int) -> set:
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def chain_positions(count: int) -> List[int]:
    """Node ids 1..count for cubes laid out in placement order."""
    if count < 1:
        raise TopologyError("need at least one cube")
    return list(range(1, count + 1))
