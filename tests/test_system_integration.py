"""End-to-end integration tests on small systems.

These exercise the fully-wired simulator and check the paper's
first-order behaviours at reduced scale.
"""

import pytest

from repro.config import HostConfig, parse_label
from repro.errors import SimulationError
from repro.memory.controller import QuadrantController
from repro.net.routing import RouteClass
from repro.serialization import result_digest
from repro.system import MemoryNetworkSystem, simulate
from repro.units import TIB_BYTES

from conftest import create_all_banks, fast_workload, small_config


def run(config=None, workload=None, requests=250):
    return simulate(
        config or small_config(), workload or fast_workload(), requests=requests
    )


class TestConservation:
    def test_every_request_gets_a_response(self):
        result = run(requests=400)
        assert result.transactions == 400

    def test_read_write_counts_match_stream(self):
        workload = fast_workload(read_fraction=1.0, rmw_fraction=0.0)
        result = run(workload=workload, requests=200)
        assert result.collector.reads == 200
        assert result.collector.writes == 0

    def test_memory_accesses_match_transactions(self):
        config = small_config()
        system = MemoryNetworkSystem(config, fast_workload(), requests=300)
        result = system.run()
        total_accesses = sum(
            cube.total_reads() + cube.total_writes()
            for cube in system.cubes.values()
        )
        assert total_accesses == result.transactions

    def test_single_use_enforced(self):
        system = MemoryNetworkSystem(small_config(), fast_workload(), requests=10)
        system.run()
        with pytest.raises(SimulationError):
            system.run()


class TestLatencySanity:
    def test_components_positive_and_ordered(self):
        result = run(requests=300)
        breakdown = result.collector.all
        assert breakdown.to_memory.mean > 0
        assert breakdown.in_memory.mean > 0
        assert breakdown.from_memory.mean > 0
        assert result.runtime_ps >= breakdown.to_memory.max

    def test_farther_cubes_cost_more_hops(self):
        config = small_config(topology="chain")
        system = MemoryNetworkSystem(config, fast_workload(), requests=200)
        system.run()
        distances = [
            system.route_table.distance(c) for c in system.topology.cube_ids()
        ]
        assert max(distances) == len(distances)

    def test_hop_counts_recorded(self):
        result = run(requests=200)
        assert result.collector.request_hops.mean >= 1.0
        assert result.collector.response_hops.mean >= 1.0


class TestTopologyOrdering:
    """The headline result at small scale: tree <= ring <= chain runtime."""

    def test_tree_beats_chain(self):
        workload = fast_workload(mean_gap_ns=1.0, mlp=24)
        chain = run(small_config(topology="chain"), workload, requests=800)
        tree = run(small_config(topology="tree"), workload, requests=800)
        assert tree.runtime_ps < chain.runtime_ps

    def test_metacube_beats_chain(self):
        workload = fast_workload(mean_gap_ns=1.0, mlp=24)
        chain = run(small_config(topology="chain"), workload, requests=800)
        metacube = run(small_config(topology="metacube"), workload, requests=800)
        assert metacube.runtime_ps < chain.runtime_ps

    def test_mean_distance_ordering(self):
        # at the paper's 16-cube-per-port scale
        def mean_distance(topology):
            system = MemoryNetworkSystem(
                small_config(
                    topology=topology, total_capacity_bytes=2 * TIB_BYTES
                ),
                fast_workload(),
                requests=1,
            )
            return system.route_table.mean_distance()

        chain = mean_distance("chain")
        ring = mean_distance("ring")
        tree = mean_distance("tree")
        metacube = mean_distance("metacube")
        assert metacube < tree < ring < chain


class TestNvmMixes:
    def test_nvm_share_of_accesses_matches_capacity(self):
        """Half the capacity in NVM -> half the requests hit NVM."""
        config = small_config(dram_fraction=0.5)
        result = run(config, requests=600)
        share = result.collector.nvm_accesses / result.transactions
        assert share == pytest.approx(0.5, abs=0.06)

    def test_all_nvm_network_is_smaller(self):
        dram_sys = MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        nvm_sys = MemoryNetworkSystem(
            small_config(dram_fraction=0.0), fast_workload(), requests=1
        )
        assert len(nvm_sys.cubes) < len(dram_sys.cubes)
        assert nvm_sys.route_table.max_distance() < dram_sys.route_table.max_distance()


class TestSkipListSystem:
    def test_writes_take_chain_reads_take_skips(self):
        config = small_config(topology="skiplist", total_capacity_bytes=2 * TIB_BYTES)
        system = MemoryNetworkSystem(config, fast_workload(), requests=400)
        result = system.run()
        reads = result.collector.read_breakdown
        # read requests to the farthest cube use skip links, so request
        # hop means must be below the chain mean
        far = system.topology.cube_ids()[-1]
        read_dist = system.route_table.distance(far, RouteClass.READ)
        write_dist = system.route_table.distance(far, RouteClass.WRITE)
        assert read_dist < write_dist

    def test_write_hops_exceed_read_hops_in_flight(self):
        config = small_config(topology="skiplist", total_capacity_bytes=2 * TIB_BYTES)
        workload = fast_workload(read_fraction=0.5, rmw_fraction=0.0)
        system = MemoryNetworkSystem(config, workload, requests=500)
        system.run()
        reads = system.collector.read_breakdown
        writes = system.collector.write_breakdown
        assert writes.to_memory.mean > reads.to_memory.mean


class TestEnergyAccounting:
    def test_energy_positive_and_scales_with_traffic(self):
        small = run(requests=100)
        large = run(requests=400)
        assert 0 < small.energy.total_pj < large.energy.total_pj

    def test_nvm_write_energy_dominates_all_nvm(self):
        config = small_config(dram_fraction=0.0)
        workload = fast_workload(read_fraction=0.3)
        result = run(config, workload, requests=400)
        assert result.energy.memory_write_pj > result.energy.memory_read_pj

    def test_chain_network_energy_exceeds_tree(self):
        workload = fast_workload()
        chain = run(small_config(topology="chain"), workload, requests=400)
        tree = run(small_config(topology="tree"), workload, requests=400)
        assert chain.energy.network_pj > tree.energy.network_pj


class TestArbitrationSystems:
    @pytest.mark.parametrize(
        "arbiter",
        ["round_robin", "distance", "distance_enhanced", "age", "global_weighted"],
    )
    def test_all_arbiters_run_to_completion(self, arbiter):
        result = run(small_config(arbiter=arbiter), requests=200)
        assert result.transactions == 200


class TestPortScaling:
    def test_fewer_ports_more_cubes(self):
        base = MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        four = MemoryNetworkSystem(
            small_config(host=HostConfig(num_ports=4)), fast_workload(), requests=1
        )
        assert len(four.cubes) == 2 * len(base.cubes)


class TestCapacityScaling:
    def test_scale_halves_banks_and_footprint(self):
        base = MemoryNetworkSystem(small_config(), fast_workload(), requests=1)
        scaled = MemoryNetworkSystem(
            small_config(capacity_scale=0.5), fast_workload(), requests=1
        )
        assert len(scaled.cubes) == len(base.cubes)
        assert scaled.address_map.total_bytes == base.address_map.total_bytes // 2
        base_banks = len(next(iter(base.cubes.values())).controllers[0].banks)
        scaled_banks = len(next(iter(scaled.cubes.values())).controllers[0].banks)
        assert scaled_banks == base_banks // 2

    @pytest.mark.parametrize("scale", [0.5, 0.1, 0.05, 0.01])
    def test_address_map_decodes_only_built_banks(self, scale):
        system = MemoryNetworkSystem(
            small_config(capacity_scale=scale), fast_workload(), requests=1
        )
        cube = next(iter(system.cubes.values()))
        banks_per_quadrant = len(cube.controllers[0].banks)
        assert system.address_map.banks_per_stack == (
            banks_per_quadrant * len(cube.controllers)
        )
        step = system.address_map.row_bytes
        locations = [
            system.address_map.decode(address)
            for address in range(0, system.address_map.total_bytes, step)[:4096]
        ]
        assert max(loc.bank for loc in locations) == banks_per_quadrant - 1
        assert {loc.quadrant for loc in locations} == set(range(len(cube.controllers)))


def controllers_of(system):
    return [c for cube in system.cubes.values() for c in cube.controllers]


class TestLazyBanks:
    """Banks are created on first touch, with results unchanged."""

    # Sparse traffic: each controller sees requests separated by idle
    # gaps of several refresh ticks, so it goes dormant and replays.
    WORKLOAD = dict(mean_gap_ns=300.0, mlp=4)

    def _system(self, capacity_scale):
        config = parse_label("100%-C", small_config(capacity_scale=capacity_scale))
        return MemoryNetworkSystem(
            config, fast_workload(**self.WORKLOAD), requests=300
        )

    @pytest.mark.parametrize("capacity_scale", [1.0, 0.1])
    def test_lazy_banks_match_banks_built_up_front(
        self, capacity_scale, monkeypatch
    ):
        dormant_arrivals = []
        receive = QuadrantController.receive

        def spy_receive(self, engine, packet):
            due = self._refresh_due_ps
            if due is not None and not self._refresh_armed and due <= engine.now:
                dormant_arrivals.append(engine.now)
            receive(self, engine, packet)

        monkeypatch.setattr(QuadrantController, "receive", spy_receive)
        lazy = self._system(capacity_scale)
        eager = self._system(capacity_scale)
        create_all_banks(*controllers_of(eager))
        if capacity_scale < 1.0:
            assert len(controllers_of(lazy)[0].banks) < QuadrantController.REFRESH_GROUPS
        assert result_digest(lazy.run()) == result_digest(eager.run())
        assert dormant_arrivals, "workload must reach the dormant-replay path"

    def test_created_banks_are_exactly_the_banks_served(self, monkeypatch):
        served = set()
        issue = QuadrantController._issue

        def spy_issue(self, engine, packet, bank, row):
            served.add((self.name, packet.location.bank))
            issue(self, engine, packet, bank, row)

        monkeypatch.setattr(QuadrantController, "_issue", spy_issue)
        system = self._system(1.0)
        system.run()
        created = {
            (controller.name, index)
            for controller in controllers_of(system)
            for index, bank in enumerate(controller.banks)
            if bank is not None
        }
        total = sum(len(c.banks) for c in controllers_of(system))
        assert created == served
        assert len(created) < total // 4
