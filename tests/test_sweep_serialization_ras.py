"""Tests for sweeps, serialization, RAS fault injection, and warmup."""

import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError, TopologyError
from repro.serialization import load_results, result_to_dict, save_results
from repro.sweep import Sweep, set_config_field
from repro.system import MemoryNetworkSystem, simulate
from repro.topology import build_topology
from repro.units import GIB_BYTES

from conftest import fast_workload, small_config


class TestSetConfigField:
    def test_top_level_field(self):
        config = set_config_field(SystemConfig(), "topology", "tree")
        assert config.topology == "tree"

    def test_dotted_field(self):
        config = set_config_field(SystemConfig(), "host.num_ports", 4)
        assert config.host.num_ports == 4

    def test_dotted_link_field(self):
        config = set_config_field(SystemConfig(), "link.serdes_latency_ps", 0)
        assert config.link.serdes_latency_ps == 0

    def test_unknown_field(self):
        with pytest.raises(ConfigError):
            set_config_field(SystemConfig(), "warp_factor", 9)
        with pytest.raises(ConfigError):
            set_config_field(SystemConfig(), "host.warp_factor", 9)
        with pytest.raises(ConfigError):
            set_config_field(SystemConfig(), "warp.factor", 9)


class TestSweep:
    def test_points_cartesian_product(self):
        sweep = (
            Sweep(fast_workload(), requests=10, base_config=small_config())
            .over("topology", ["chain", "tree"])
            .over("arbiter", ["round_robin", "distance"])
        )
        points = sweep.points()
        assert len(points) == 4
        assert {"topology": "tree", "arbiter": "distance"} in points

    def test_run_produces_metrics(self):
        rows = (
            Sweep(fast_workload(), requests=100, base_config=small_config())
            .over("topology", ["chain", "tree"])
            .run()
        )
        assert len(rows) == 2
        for row in rows:
            assert row["runtime_us"] > 0
            assert row["latency_ns"] > 0
            assert "label" in row

    def test_invalid_points_skipped(self):
        rows = (
            Sweep(fast_workload(), requests=50, base_config=small_config())
            .over("dram_fraction", [1.0, 0.37])
            .run()
        )
        assert len(rows) == 1

    def test_invalid_points_recorded_when_asked(self):
        rows = (
            Sweep(fast_workload(), requests=50, base_config=small_config())
            .over("dram_fraction", [0.37])
            .run(skip_invalid=False)
        )
        assert "error" in rows[0]

    def test_render(self):
        sweep = Sweep(
            fast_workload(), requests=60, base_config=small_config()
        ).over("topology", ["chain"])
        text = sweep.render()
        assert "runtime_us" in text

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError):
            Sweep(fast_workload()).over("topology", [])


class TestSerialization:
    @pytest.fixture(scope="class")
    def result(self):
        return simulate(small_config(), fast_workload(), requests=120)

    def test_dict_fields(self, result):
        payload = result_to_dict(result)
        assert payload["transactions"] == 120
        assert payload["latency"]["total_ns"] > 0
        assert payload["energy_pj"]["total"] == pytest.approx(
            result.energy.total_pj
        )
        json.dumps(payload)  # must be JSON-serializable

    def test_save_load_roundtrip(self, result, tmp_path):
        path = tmp_path / "results.json"
        save_results([result, result], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0]["config"] == result.config_label

    def test_load_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_results(path)


class TestFaultInjection:
    def test_ring_survives_one_failed_link(self):
        config = small_config(topology="ring", failed_links=((2, 3),))
        result = simulate(config, fast_workload(), requests=150)
        assert result.transactions == 150

    def test_ring_reroutes_the_long_way(self):
        healthy = MemoryNetworkSystem(
            small_config(topology="ring"), fast_workload(), requests=1
        )
        broken = MemoryNetworkSystem(
            small_config(topology="ring", failed_links=((1, 2),)),
            fast_workload(),
            requests=1,
        )
        assert (
            broken.route_table.mean_distance()
            > healthy.route_table.mean_distance()
        )

    def test_chain_cannot_tolerate_failure(self):
        config = small_config(topology="chain", failed_links=((2, 3),))
        with pytest.raises(TopologyError, match="unreachable"):
            build_topology(config)

    def test_skiplist_chain_failure_breaks_write_class(self):
        config = small_config(
            topology="skiplist",
            total_capacity_bytes=2048 * GIB_BYTES,
            failed_links=((2, 3),),
        )
        with pytest.raises(TopologyError, match="WRITE"):
            build_topology(config)

    def test_removing_missing_edge_raises(self):
        topo = build_topology(small_config(topology="chain"))
        with pytest.raises(TopologyError):
            topo.remove_edge(1, 5)


class TestWarmup:
    def test_warmup_excludes_transactions_from_stats(self):
        config = small_config(warmup_fraction=0.5)
        result = simulate(config, fast_workload(), requests=200)
        assert result.collector.count == 100

    def test_warmup_keeps_runtime_envelope(self):
        cold = simulate(
            small_config(warmup_fraction=0.0), fast_workload(), requests=200
        )
        warm = simulate(
            small_config(warmup_fraction=0.5), fast_workload(), requests=200
        )
        assert warm.runtime_ps == cold.runtime_ps

    def test_invalid_warmup(self):
        with pytest.raises(ConfigError):
            small_config(warmup_fraction=1.0).validate()
