"""Tests for unit conversions."""

import pytest

from repro import units


def test_ns_conversion():
    assert units.ns(1) == 1_000
    assert units.ns(2.5) == 2_500
    assert units.ns(0) == 0


def test_us_conversion():
    assert units.US == 1_000_000


def test_to_ns_roundtrip():
    assert units.to_ns(units.ns(3.25)) == pytest.approx(3.25)


def test_time_constants_consistent():
    assert units.NS == 1000 * units.PS
    assert units.US == 1000 * units.NS


def test_capacity_helpers():
    assert units.GIB_BYTES == 2**30
    assert units.TIB_BYTES == 2**40


def test_gbps_to_bits_per_ps():
    # 1000 Gbps = 1 bit per ps
    assert units.gbps_to_bits_per_ps(1000) == pytest.approx(1.0)


def test_serialization_time_16_lanes_15gbps():
    # 16 lanes x 15 Gbps = 240 Gbps = 0.24 bits/ps; an 80 B packet
    # (640 bits) takes ceil(640 / 0.24) = 2667 ps.
    assert units.serialization_ps(640, 16, 15.0) == 2667


def test_serialization_rounds_up():
    # 1 bit over 0.24 bits/ps -> 4.1666 -> 5 ps
    assert units.serialization_ps(1, 16, 15.0) == 5


def test_serialization_exact_division_not_rounded():
    # 24 bits at 0.24 bits/ps = exactly 100 ps
    assert units.serialization_ps(24, 16, 15.0) == 100


def test_serialization_scales_linearly_with_size():
    small = units.serialization_ps(128, 16, 15.0)
    large = units.serialization_ps(640, 16, 15.0)
    assert 4.9 < large / small < 5.1


def test_data_sizes():
    assert units.BYTE == 8
    assert units.KB == 1024 * units.BYTE
