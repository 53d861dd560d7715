"""Tests for configuration dataclasses and label parsing."""

import pytest

from repro.config import (
    NVM_FIRST,
    NVM_LAST,
    CubeConfig,
    HostConfig,
    InterposerLinkConfig,
    LinkConfig,
    PacketConfig,
    SystemConfig,
    dram_tech,
    nvm_tech,
    parse_label,
)
from repro.errors import ConfigError
from repro.units import GIB_BYTES, TIB_BYTES


class TestTechPresets:
    def test_dram_table2_timings(self):
        dram = dram_tech()
        assert dram.trcd_ps == 12_000
        assert dram.tcl_ps == 6_000
        assert dram.trp_ps == 14_000
        assert dram.tras_ps == 33_000
        assert dram.capacity_bytes == 16 * GIB_BYTES
        assert dram.needs_refresh

    def test_nvm_table2_timings(self):
        nvm = nvm_tech()
        assert nvm.trcd_ps == 40_000
        assert nvm.tcl_ps == 10_000
        assert nvm.twr_ps == 320_000
        assert nvm.capacity_bytes == 64 * GIB_BYTES
        assert not nvm.needs_refresh
        assert nvm.is_nonvolatile

    def test_energy_values(self):
        assert dram_tech().read_energy_pj_per_bit == 12.0
        assert dram_tech().write_energy_pj_per_bit == 12.0
        assert nvm_tech().read_energy_pj_per_bit == 12.0
        assert nvm_tech().write_energy_pj_per_bit == 120.0

    def test_nvm_is_4x_denser(self):
        assert nvm_tech().capacity_bytes == 4 * dram_tech().capacity_bytes


class TestPacketConfig:
    def test_data_is_5x_control(self):
        packet = PacketConfig()
        assert packet.data_bits == 5 * packet.control_bits
        assert packet.control_bits == 16 * 8

    def test_invalid(self):
        with pytest.raises(ConfigError):
            PacketConfig(control_bytes=0).validate()


class TestCubeConfig:
    def test_defaults_match_table2(self):
        cube = CubeConfig()
        assert cube.banks_per_stack == 256
        assert cube.num_quadrants == 4
        assert cube.banks_per_quadrant == 64
        assert cube.external_ports == 4

    def test_banks_must_divide(self):
        with pytest.raises(ConfigError):
            CubeConfig(banks_per_stack=10, num_quadrants=4).validate()

    def test_scheduling_validated(self):
        with pytest.raises(ConfigError):
            CubeConfig(scheduling="lifo").validate()


class TestCubeCounts:
    def test_all_dram_2tb_8ports(self):
        config = SystemConfig()
        assert config.per_port_capacity_bytes == 256 * GIB_BYTES
        assert config.cube_counts() == (16, 0)
        assert config.cubes_per_port == 16

    def test_all_nvm(self):
        config = SystemConfig(dram_fraction=0.0)
        assert config.cube_counts() == (0, 4)

    def test_half_half(self):
        config = SystemConfig(dram_fraction=0.5)
        assert config.cube_counts() == (8, 2)

    def test_four_ports_doubles_cubes(self):
        config = SystemConfig(host=HostConfig(num_ports=4))
        assert config.cube_counts() == (32, 0)

    def test_non_decomposable_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(dram_fraction=0.37).cube_counts()

    def test_1tib_total(self):
        config = SystemConfig(total_capacity_bytes=TIB_BYTES)
        assert config.cube_counts() == (8, 0)


class TestLabels:
    @pytest.mark.parametrize(
        "label,topology,fraction,placement",
        [
            ("100%-C", "chain", 1.0, NVM_LAST),
            ("100%-R", "ring", 1.0, NVM_LAST),
            ("50%-T (NVM-L)", "tree", 0.5, NVM_LAST),
            ("50%-SL (NVM-F)", "skiplist", 0.5, NVM_FIRST),
            ("0%-MC", "metacube", 0.0, NVM_LAST),
        ],
    )
    def test_parse(self, label, topology, fraction, placement):
        config = parse_label(label)
        assert config.topology == topology
        assert config.dram_fraction == fraction
        assert config.nvm_placement == placement

    def test_parse_bad_label(self):
        with pytest.raises(ConfigError):
            parse_label("not-a-label")

    def test_label_roundtrip(self):
        for label in ("100%-C", "50%-T (NVM-L)", "50%-MC (NVM-F)", "0%-SL"):
            assert parse_label(label).label() == label

    def test_label_omits_placement_for_pure_mixes(self):
        assert SystemConfig(dram_fraction=1.0).label() == "100%-C"
        assert SystemConfig(dram_fraction=0.0).label() == "0%-C"

    def test_parse_preserves_base_parameters(self):
        base = SystemConfig(seed=7)
        assert parse_label("100%-T", base).seed == 7


class TestValidation:
    def test_default_config_valid(self):
        SystemConfig().validate()

    def test_unknown_topology(self):
        with pytest.raises(ConfigError):
            SystemConfig(topology="mesh").validate()

    def test_unknown_arbiter(self):
        with pytest.raises(ConfigError):
            SystemConfig(arbiter="magic").validate()

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            SystemConfig(dram_fraction=1.5).validate()

    def test_bad_placement(self):
        with pytest.raises(ConfigError):
            SystemConfig(nvm_placement="middle").validate()

    def test_interleave_power_of_two(self):
        with pytest.raises(ConfigError):
            HostConfig(interleave_bytes=300).validate()

    def test_capacity_scale_positive(self):
        with pytest.raises(ConfigError):
            SystemConfig(capacity_scale=0.0).validate()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(interposer_link=InterposerLinkConfig(lanes=0)), "interposer_link"),
            (dict(interposer_link=InterposerLinkConfig(input_buffer_packets=0)),
             "interposer_link"),
            (dict(host=HostConfig(inject_queue_depth=0)), "inject_queue_depth"),
            (dict(host=HostConfig(inject_queue_depth=-1)), "inject_queue_depth"),
            (dict(cube=CubeConfig(controller_queue_depth=0)),
             "controller_queue_depth"),
            (dict(host=HostConfig(store_buffer_entries=0)),
             "store_buffer_entries"),
        ],
        ids=[
            "interposer-lanes", "interposer-buffer", "inject-depth-0",
            "inject-depth-negative", "controller-depth", "store-buffer",
        ],
    )
    def test_unrunnable_queue_and_link_sizes_rejected(self, overrides, field):
        # Run anyway, each of these divides by zero or stalls the
        # simulation.
        with pytest.raises(ConfigError, match=field):
            SystemConfig(**overrides).validate()

    def test_with_returns_modified_copy(self):
        config = SystemConfig()
        other = config.with_(topology="tree")
        assert other.topology == "tree"
        assert config.topology == "chain"

    def test_link_defaults(self):
        link = LinkConfig()
        assert link.lanes == 16
        assert link.lane_gbps == 15.0
        assert link.serdes_latency_ps == 2_000
        assert not link.full_duplex
