"""First-principles latency validation.

These tests compute the expected end-to-end latency of isolated
requests from the configuration's raw parameters and assert the
simulator reproduces them exactly — catching any silent change to the
timing model.
"""

from repro.system import MemoryNetworkSystem
from repro.units import serialization_ps
from repro.workloads import Request

from conftest import fast_workload, small_config


def run_requests(config, requests):
    captured = []
    system = MemoryNetworkSystem(
        config,
        fast_workload(),
        requests=len(requests),
        workload_iter=iter(requests),
    )
    original = system._transaction_done

    def capture(engine, txn):
        captured.append(txn)
        original(engine, txn)

    system.port.on_transaction_done = capture
    system.run()
    return system, captured


def expected_single_read_ps(config, hops=1):
    """Closed-bank read to a quadrant-0 cube ``hops`` links away."""
    link = config.link
    control = serialization_ps(config.packet.control_bits, link.lanes, link.lane_gbps)
    data = serialization_ps(config.packet.data_bits, link.lanes, link.lane_gbps)
    per_hop_extra = link.serdes_latency_ps + link.propagation_ps
    request_path = hops * (control + per_hop_extra)
    response_path = hops * (data + per_hop_extra)
    array = config.dram.trcd_ps + config.dram.tcl_ps  # closed bank
    port = 2 * config.host.port_latency_ps
    return port + request_path + array + response_path


class TestSingleRequestLatency:
    def test_read_to_nearest_cube_exact(self):
        config = small_config()
        system, txns = run_requests(config, [Request(0, False, 0)])
        # address 0 -> cube position 0 (1 hop), quadrant 0 (no penalty)
        assert txns[0].location.quadrant == 0
        assert txns[0].total_ps == expected_single_read_ps(config, hops=1)

    def test_read_to_last_cube_in_chain_exact(self):
        config = small_config(topology="chain")
        system = MemoryNetworkSystem(config, fast_workload(), requests=1)
        cubes = len(system.cubes)
        # the last pattern slot belongs to the last cube; quadrant 0
        address = (cubes - 1) * config.host.interleave_bytes
        _, txns = run_requests(config, [Request(address, False, 0)])
        assert txns[0].location.cube_index == cubes - 1
        assert txns[0].total_ps == expected_single_read_ps(config, hops=cubes)

    def test_write_latency_uses_data_request_control_ack(self):
        config = small_config()
        link = config.link
        control = serialization_ps(
            config.packet.control_bits, link.lanes, link.lane_gbps
        )
        data = serialization_ps(config.packet.data_bits, link.lanes, link.lane_gbps)
        per_hop = link.serdes_latency_ps
        array = config.dram.trcd_ps + config.dram.tcl_ps
        expected = (
            2 * config.host.port_latency_ps
            + (data + per_hop)  # write request carries data
            + array
            + (control + per_hop)  # ack is a control packet
        )
        _, txns = run_requests(config, [Request(0, True, 0)])
        assert txns[0].total_ps == expected

    def test_row_hit_saves_trcd(self):
        config = small_config()
        # generate the second read only after the first fully completes,
        # so it finds the row open and the bank idle
        reqs = [Request(0, False, 300_000), Request(64, False, 0)]
        _, txns = run_requests(config, reqs)
        first, second = sorted(txns, key=lambda t: t.complete_ps)
        assert second.row_hit
        assert first.in_memory_ps - second.in_memory_ps == config.dram.trcd_ps

    def test_wrong_quadrant_penalty_applied(self):
        config = small_config()
        system = MemoryNetworkSystem(config, fast_workload(), requests=1)
        amap = system.address_map
        # find an address mapping to cube 0, quadrant 1
        address = None
        for block in range(4096):
            loc = amap.decode(block * 256)
            if loc.cube_index == 0 and loc.quadrant == 1:
                address = block * 256
                break
        assert address is not None
        _, txns = run_requests(config, [Request(address, False, 0)])
        baseline = expected_single_read_ps(config, hops=1)
        assert txns[0].total_ps == baseline + config.cube.wrong_quadrant_penalty_ps

    def test_nvm_read_costs_more_array_time(self):
        config = small_config(dram_fraction=0.5)
        system = MemoryNetworkSystem(config, fast_workload(), requests=1)
        amap = system.address_map
        nvm_index = amap.weights.index(max(amap.weights))
        dram_addr = nvm_addr = None
        for block in range(4096):
            loc = amap.decode(block * 256)
            if loc.quadrant == 0:
                if loc.cube_index == nvm_index and nvm_addr is None:
                    nvm_addr = block * 256
                elif loc.cube_index != nvm_index and dram_addr is None:
                    dram_addr = block * 256
            if dram_addr is not None and nvm_addr is not None:
                break
        _, txns = run_requests(
            config,
            [Request(dram_addr, False, 200_000), Request(nvm_addr, False, 0)],
        )
        dram_txn = next(t for t in txns if t.dest_tech == "DRAM")
        nvm_txn = next(t for t in txns if t.dest_tech == "NVM")
        assert nvm_txn.in_memory_ps - dram_txn.in_memory_ps == (
            (config.nvm.trcd_ps + config.nvm.tcl_ps)
            - (config.dram.trcd_ps + config.dram.tcl_ps)
        )


class TestBackToBackThroughput:
    def test_host_link_serializes_requests(self):
        """Two zero-gap reads to different far cubes leave one
        serialization apart (single shared host link)."""
        config = small_config(topology="chain")
        link = config.link
        control = serialization_ps(
            config.packet.control_bits, link.lanes, link.lane_gbps
        )
        reqs = [Request(0, False, 0), Request(256, False, 0)]
        _, txns = run_requests(config, reqs)
        injected = sorted(t.inject_ps for t in txns)
        arrive = sorted(t.mem_arrive_ps for t in txns)
        # cube 1 and cube 2 requests share the first link
        assert arrive[0] < arrive[1]
