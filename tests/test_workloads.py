"""Tests for workload specs, the synthetic generator, and the suite."""

import pytest

from repro.errors import WorkloadError
from repro.units import GIB_BYTES
from repro.workloads import (
    PAPER_SUITE,
    SyntheticWorkload,
    get_workload,
    workload_names,
)

from conftest import fast_workload


def generate(spec, count=2000, capacity=GIB_BYTES, seed=1, ports=None):
    workload = SyntheticWorkload(spec, capacity, seed, num_ports=ports)
    return [next(workload) for _ in range(count)]


class TestSpecValidation:
    def test_valid_spec(self):
        fast_workload().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("read_fraction", 1.5),
            ("mean_gap_ns", -1.0),
            ("locality_lines", 0.5),
            ("rmw_fraction", -0.1),
            ("footprint_fraction", 0.0),
            ("line_bytes", 48),
            ("mlp", 0),
            ("burst_size", 0.5),
        ],
    )
    def test_invalid_fields(self, field, value):
        with pytest.raises(WorkloadError):
            fast_workload(**{field: value}).validate()

    def test_gap_scaling_preserves_system_load(self):
        spec = fast_workload(mean_gap_ns=2.0)
        # 8 ports -> per-port gap 2 ns; 4 ports -> each port carries 2x
        assert spec.scaled_gap_ns(8) == pytest.approx(2.0)
        assert spec.scaled_gap_ns(4) == pytest.approx(1.0)
        assert spec.scaled_gap_ns(16) == pytest.approx(4.0)

    def test_with_copy(self):
        spec = fast_workload()
        other = spec.with_(mlp=99)
        assert other.mlp == 99 and spec.mlp == 16


class TestSyntheticGenerator:
    def test_deterministic_for_seed(self):
        spec = fast_workload()
        a = generate(spec, seed=5)
        b = generate(spec, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        spec = fast_workload()
        assert generate(spec, seed=1) != generate(spec, seed=2)

    def test_read_fraction_respected(self):
        spec = fast_workload(read_fraction=0.7, rmw_fraction=0.0)
        requests = generate(spec, 20_000)
        writes = sum(r.is_write for r in requests) / len(requests)
        assert writes == pytest.approx(0.3, abs=0.02)

    def test_addresses_inside_footprint(self):
        spec = fast_workload(footprint_fraction=0.5)
        capacity = GIB_BYTES
        for request in generate(spec, 5000, capacity=capacity):
            assert 0 <= request.address < capacity * 0.5

    def test_addresses_line_aligned(self):
        for request in generate(fast_workload(), 500):
            assert request.address % 64 == 0

    def test_locality_produces_sequential_runs(self):
        spec = fast_workload(locality_lines=16.0, rmw_fraction=0.0)
        requests = generate(spec, 5000)
        sequential = sum(
            1
            for a, b in zip(requests, requests[1:])
            if b.address - a.address == 64
        )
        assert sequential / len(requests) > 0.7

    def test_rmw_emits_write_after_read_same_line(self):
        spec = fast_workload(read_fraction=1.0, rmw_fraction=1.0)
        requests = generate(spec, 100)
        pairs = list(zip(requests, requests[1:]))
        rmw_pairs = [
            (a, b)
            for a, b in pairs
            if not a.is_write and b.is_write and a.address == b.address
        ]
        assert len(rmw_pairs) >= 40  # every other request pair is a RMW

    def test_mean_gap_preserved_with_bursts(self):
        spec = fast_workload(mean_gap_ns=2.0, burst_size=8.0)
        requests = generate(spec, 50_000)
        mean_gap = sum(r.gap_ps for r in requests) / len(requests)
        assert mean_gap == pytest.approx(2000, rel=0.15)

    def test_bursts_have_zero_intra_gaps(self):
        spec = fast_workload(burst_size=16.0)
        requests = generate(spec, 2000)
        zero_gaps = sum(1 for r in requests if r.gap_ps == 0)
        assert zero_gaps / len(requests) > 0.5

    def test_tiny_footprint_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(fast_workload(), 32, seed=1)


class TestPaperSuite:
    def test_eight_workloads(self):
        assert len(PAPER_SUITE) == 8
        assert set(workload_names()) == {
            "BACKPROP",
            "BIT",
            "BUFF",
            "DCT",
            "HOTSPOT",
            "KMEANS",
            "MATRIXMUL",
            "NW",
        }

    def test_lookup_case_insensitive(self):
        assert get_workload("kmeans").name == "KMEANS"

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            get_workload("DOOM")

    def test_backprop_is_write_heavy(self):
        """Section 3.2: BACKPROP has significantly more writes than reads."""
        assert get_workload("BACKPROP").read_fraction < 0.5

    def test_kmeans_is_most_read_intensive(self):
        kmeans = get_workload("KMEANS").read_fraction
        assert all(
            kmeans >= spec.read_fraction for spec in PAPER_SUITE.values()
        )

    def test_read_heavy_trio(self):
        """KMEANS/MATRIXMUL/NW have at least two reads per write."""
        for name in ("KMEANS", "MATRIXMUL", "NW"):
            assert get_workload(name).read_fraction >= 2 / 3 - 1e-9

    def test_nw_has_lowest_network_load(self):
        nw_gap = get_workload("NW").mean_gap_ns
        assert all(
            nw_gap >= spec.mean_gap_ns for spec in PAPER_SUITE.values()
        )

    def test_all_specs_validate(self):
        for spec in PAPER_SUITE.values():
            spec.validate()
