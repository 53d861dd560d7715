"""Tests for the MetaCube topology (Section 4.3 / Fig 9)."""

import pytest

from repro.config import NVM_FIRST, NVM_LAST
from repro.errors import TopologyError
from repro.topology import build_metacube
from repro.topology.base import LinkKind, NodeKind
from repro.topology.metacube import plan_packages
from repro.topology.placement import position_distances


class TestPackagePlanning:
    def test_all_dram_16(self):
        assert plan_packages(16, 0, NVM_LAST) == [("DRAM", 4)] * 4

    def test_mixed_nvm_last(self):
        packages = plan_packages(8, 2, NVM_LAST)
        assert packages == [("DRAM", 4), ("DRAM", 4), ("NVM", 2)]

    def test_mixed_nvm_first(self):
        packages = plan_packages(8, 2, NVM_FIRST)
        assert packages[0] == ("NVM", 2)

    def test_remainder_package(self):
        packages = plan_packages(6, 0, NVM_LAST)
        assert packages == [("DRAM", 4), ("DRAM", 2)]

    def test_invalid(self):
        with pytest.raises(TopologyError):
            plan_packages(0, 0, NVM_LAST)
        with pytest.raises(TopologyError):
            plan_packages(4, 0, "middle")

    def test_package_order_techs(self):
        for placement, techs in (
            (NVM_LAST, ["DRAM"] * 8 + ["NVM"] * 2),
            (NVM_FIRST, ["NVM"] * 2 + ["DRAM"] * 8),
        ):
            topo = build_metacube(8, 2, placement)
            assert [topo.tech_of(c) for c in topo.cube_ids()] == techs


class TestMetacubeTopology:
    def test_all_dram_structure(self):
        topo = build_metacube(16, 0)
        topo.validate()
        assert len(topo.cube_ids()) == 16
        assert len(topo.switch_ids()) == 4
        interposer = [e for e in topo.edges if e.link_kind == LinkKind.INTERPOSER]
        assert len(interposer) == 16  # each cube hangs off its interface chip

    def test_cubes_have_single_interposer_link(self):
        topo = build_metacube(16, 0)
        for cube in topo.cube_ids():
            assert topo.degree(cube) == 1
            assert topo.external_degree(cube) == 0

    def test_worst_case_distance_small(self):
        topo = build_metacube(16, 0)
        worst = max(position_distances(topo))
        # package tree depth 2 + interposer hop
        assert worst <= 3

    def test_singleton_nvm_package_is_plain_cube(self):
        topo = build_metacube(4, 1)
        topo.validate()
        nvm_cubes = [c for c in topo.cube_ids() if topo.tech_of(c) == "NVM"]
        assert len(nvm_cubes) == 1
        # the lone NVM cube attaches via an external link, not an interposer
        assert topo.external_degree(nvm_cubes[0]) >= 1

    def test_nvm_last_orders_cube_ids(self):
        topo = build_metacube(8, 2, placement=NVM_LAST)
        techs = [topo.tech_of(c) for c in topo.cube_ids()]
        assert techs == ["DRAM"] * 8 + ["NVM"] * 2

    def test_nvm_first_orders_cube_ids(self):
        topo = build_metacube(8, 2, placement=NVM_FIRST)
        techs = [topo.tech_of(c) for c in topo.cube_ids()]
        assert techs == ["NVM"] * 2 + ["DRAM"] * 8

    def test_switch_nodes_have_packages(self):
        topo = build_metacube(16, 0)
        for switch in topo.switch_ids():
            assert topo.nodes[switch].kind == NodeKind.SWITCH
            assert topo.nodes[switch].package is not None

    def test_four_port_scale(self):
        # 32 cubes (4-port system) still validates and stays shallow
        topo = build_metacube(32, 0)
        topo.validate()
        assert max(position_distances(topo)) <= 4

    def test_mean_distance_beats_tree(self):
        from repro.topology import build_tree

        mc = build_metacube(16, 0)
        tree = build_tree(["DRAM"] * 16)
        mc_mean = sum(position_distances(mc)) / 16
        tree_mean = sum(position_distances(tree)) / 16
        assert mc_mean < tree_mean
