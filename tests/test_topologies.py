"""Tests for chain/ring/tree topologies and the base graph."""

import pytest

from repro.errors import TopologyError
from repro.topology import build_chain, build_ring, build_tree
from repro.topology.base import HOST_ID, NodeKind, Topology
from repro.topology.placement import position_distances
from repro.topology.tree import tree_parent


def distances(topo):
    return position_distances(topo)


class TestBaseGraph:
    def test_duplicate_node_rejected(self):
        topo = Topology("t")
        topo.add_node(0, NodeKind.HOST)
        with pytest.raises(TopologyError):
            topo.add_node(0, NodeKind.CUBE)

    def test_self_loop_rejected(self):
        topo = Topology("t")
        topo.add_node(0, NodeKind.HOST)
        with pytest.raises(TopologyError):
            topo.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        topo = Topology("t")
        topo.add_node(0, NodeKind.HOST)
        topo.add_node(1, NodeKind.CUBE, tech="DRAM")
        topo.add_edge(0, 1)
        with pytest.raises(TopologyError):
            topo.add_edge(1, 0)

    def test_edge_needs_existing_nodes(self):
        topo = Topology("t")
        topo.add_node(0, NodeKind.HOST)
        with pytest.raises(TopologyError):
            topo.add_edge(0, 5)

    def test_validate_requires_connectivity(self):
        topo = Topology("t")
        topo.add_node(0, NodeKind.HOST)
        topo.add_node(1, NodeKind.CUBE, tech="DRAM")
        topo.add_node(2, NodeKind.CUBE, tech="DRAM")
        topo.add_edge(0, 1)
        with pytest.raises(TopologyError, match="unreachable"):
            topo.validate()

    def test_validate_enforces_port_budget(self):
        topo = Topology("t")
        topo.add_node(0, NodeKind.HOST)
        center = 1
        topo.add_node(center, NodeKind.CUBE, tech="DRAM")
        topo.add_edge(0, center)
        for leaf in range(2, 7):
            topo.add_node(leaf, NodeKind.CUBE, tech="DRAM")
            topo.add_edge(center, leaf)
        with pytest.raises(TopologyError, match="ports"):
            topo.validate(max_cube_ports=4)


class TestChain:
    def test_structure(self):
        topo = build_chain(["DRAM"] * 4)
        assert topo.cube_ids() == [1, 2, 3, 4]
        assert len(topo.edges) == 4
        topo.validate()

    def test_distances_linear(self):
        topo = build_chain(["DRAM"] * 6)
        assert distances(topo) == [1, 2, 3, 4, 5, 6]

    def test_single_cube(self):
        topo = build_chain(["DRAM"])
        topo.validate()
        assert distances(topo) == [1]

    def test_tech_assignment(self):
        topo = build_chain(["DRAM", "NVM", "DRAM"])
        assert topo.tech_of(2) == "NVM"

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            build_chain([])


class TestRing:
    def test_structure(self):
        topo = build_ring(["DRAM"] * 6)
        topo.validate()
        # chain edges + host link + closing edge
        assert len(topo.edges) == 7

    def test_distances_wrap(self):
        topo = build_ring(["DRAM"] * 6)
        assert distances(topo) == [1, 2, 3, 4, 3, 2]

    def test_host_has_single_link(self):
        topo = build_ring(["DRAM"] * 8)
        assert topo.degree(HOST_ID) == 1

    def test_small_rings(self):
        for n in (1, 2, 3):
            topo = build_ring(["DRAM"] * n)
            topo.validate()

    def test_mean_distance_roughly_half_of_chain(self):
        n = 16
        chain_mean = sum(distances(build_chain(["DRAM"] * n))) / n
        ring_mean = sum(distances(build_ring(["DRAM"] * n))) / n
        assert ring_mean < 0.65 * chain_mean


class TestTree:
    def test_parent_function(self):
        assert tree_parent(1) == 0
        assert tree_parent(3) == 0
        assert tree_parent(4) == 1
        assert tree_parent(12) == 3
        with pytest.raises(ValueError):
            tree_parent(0)

    def test_structure_16(self):
        topo = build_tree(["DRAM"] * 16)
        topo.validate()
        d = distances(topo)
        assert d[0] == 1
        assert max(d) == 4  # logarithmic depth
        assert d.count(2) == 3
        assert d.count(3) == 9

    def test_port_budget_respected(self):
        for n in (1, 2, 5, 10, 16, 32):
            topo = build_tree(["DRAM"] * n)
            topo.validate(max_cube_ports=4)

    def test_mean_distance_beats_ring(self):
        n = 16
        tree_mean = sum(distances(build_tree(["DRAM"] * n))) / n
        ring_mean = sum(distances(build_ring(["DRAM"] * n))) / n
        assert tree_mean < ring_mean

    def test_custom_arity(self):
        topo = build_tree(["DRAM"] * 7, arity=2)
        d = distances(topo)
        assert d == [1, 2, 2, 3, 3, 3, 3]

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            build_tree(["DRAM"] * 3, arity=0)
