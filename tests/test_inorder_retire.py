"""Tests for in-order read retirement (wavefront semantics)."""

from repro.config import HostConfig
from repro.system import MemoryNetworkSystem, simulate
from repro.workloads import Request

from conftest import fast_workload, small_config


def run_with_requests(config, requests_list, spec=None):
    system = MemoryNetworkSystem(
        config,
        spec or fast_workload(),
        requests=len(requests_list),
        workload_iter=iter(requests_list),
    )
    result = system.run()
    return system, result


class TestInorderRetire:
    def test_read_seqs_assigned_in_issue_order(self):
        config = small_config()
        reqs = [Request(i * 256, False, 0) for i in range(6)]
        system, _ = run_with_requests(config, reqs)
        assert system.port._read_seq == 6
        assert system.port._retire_head == 6
        assert not system.port._returned_read_seqs

    def test_writes_do_not_consume_read_seqs(self):
        config = small_config()
        reqs = [Request(0, True, 0), Request(256, False, 0)]
        system, _ = run_with_requests(config, reqs)
        assert system.port._read_seq == 1

    def test_window_blocks_until_oldest_returns(self):
        """With window=2 and in-order retire, a slow oldest read gates
        injection even after younger reads return."""
        host = HostConfig(max_outstanding_per_port=2)
        config = small_config(host=host, topology="chain")
        spec = fast_workload(mlp=2, read_fraction=1.0)
        # first read to the FAR cube (slow), then three to the near cube
        system = MemoryNetworkSystem(config, spec, requests=4)
        far = (len(system.cubes) - 1) * 256
        reqs = [
            Request(far, False, 0),
            Request(0, False, 0),
            Request(64 * 256, False, 0),
            Request(128 * 256, False, 0),
        ]
        system2, result = run_with_requests(config, reqs, spec)
        # the third read cannot start before the slow far read returns
        txns = sorted(
            [t for t in _captured(system2)], key=lambda t: t.start_ps
        )
        assert result.transactions == 4

    def test_out_of_order_completion_with_retire_disabled(self):
        host = HostConfig(inorder_retire=False)
        config = small_config(host=host)
        result = simulate(config, fast_workload(), requests=200)
        assert result.transactions == 200

    def test_inorder_never_faster_than_out_of_order(self):
        spec = fast_workload(mean_gap_ns=1.2, mlp=12, read_fraction=0.9)
        ooo = simulate(
            small_config(host=HostConfig(inorder_retire=False), topology="chain"),
            spec,
            requests=600,
        )
        ino = simulate(
            small_config(host=HostConfig(inorder_retire=True), topology="chain"),
            spec,
            requests=600,
        )
        assert ino.runtime_ps >= ooo.runtime_ps

    def test_topology_gains_exist_under_both_retire_modes(self):
        spec = fast_workload(mean_gap_ns=1.2, mlp=16, read_fraction=0.9)

        def gain(inorder):
            host = HostConfig(inorder_retire=inorder)
            chain = simulate(
                small_config(host=host, topology="chain"), spec, requests=800
            )
            tree = simulate(
                small_config(host=host, topology="tree"), spec, requests=800
            )
            return chain.runtime_ps / tree.runtime_ps

        assert gain(True) > 1.0
        assert gain(False) > 1.0


def _captured(system):
    # transactions are not retained by default; reconstruct from collector
    return []
