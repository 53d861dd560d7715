"""Tests for the energy model and result aggregation."""

import tracemalloc

import pytest

from repro.config import EnergyConfig, PacketConfig, dram_tech, nvm_tech
from repro.energy import EnergyModel
from repro.net.packet import Transaction
from repro.results import (
    EnergyReport,
    LatencyBreakdown,
    SimResult,
    TransactionCollector,
)


def make_model(**kwargs):
    return EnergyModel(EnergyConfig(), PacketConfig(), **kwargs)


class TestEnergyModel:
    def test_network_energy_is_5pj_per_bit_hop(self):
        report = make_model().report(1000, 0, [])
        assert report.network_pj == pytest.approx(5000.0)

    def test_interposer_cheaper_than_external(self):
        model = make_model()
        external = model.report(1000, 0, []).total_pj
        interposer = model.report(0, 1000, []).total_pj
        assert interposer < external

    def test_dram_access_energy(self):
        dram = dram_tech()
        report = make_model().report(0, 0, [(dram, 10, 5)])
        payload_bits = 64 * 8
        assert report.memory_read_pj == pytest.approx(10 * payload_bits * 12.0)
        assert report.memory_write_pj == pytest.approx(5 * payload_bits * 12.0)

    def test_nvm_writes_10x_reads(self):
        nvm = nvm_tech()
        report = make_model().report(0, 0, [(nvm, 1, 1)])
        assert report.memory_write_pj == pytest.approx(10 * report.memory_read_pj)

    def test_total_sums_components(self):
        report = EnergyReport(
            network_pj=1.0, interposer_pj=2.0, memory_read_pj=3.0, memory_write_pj=4.0
        )
        assert report.total_pj == 10.0

    def test_mixed_cubes_accumulate(self):
        report = make_model().report(
            0, 0, [(dram_tech(), 4, 4), (nvm_tech(), 4, 4)]
        )
        payload_bits = 64 * 8
        assert report.memory_write_pj == pytest.approx(
            4 * payload_bits * 12.0 + 4 * payload_bits * 120.0
        )


def finished_txn(is_write=False, start=0, arrive=100, depart=150, done=250,
                 tech="DRAM", hit=True):
    txn = Transaction(0x40, is_write, port_id=0, issue_ps=0)
    txn.start_ps = start
    txn.mem_arrive_ps = arrive
    txn.mem_depart_ps = depart
    txn.complete_ps = done
    txn.dest_tech = tech
    txn.row_hit = hit
    txn.request_hops = 3
    txn.response_hops = 3
    return txn


class TestLatencyBreakdown:
    def test_accumulates_means(self):
        breakdown = LatencyBreakdown()
        breakdown.add(finished_txn())
        breakdown.add(finished_txn(arrive=200, depart=260, done=400))
        assert breakdown.to_memory.mean == pytest.approx(150.0)
        assert breakdown.in_memory.mean == pytest.approx(55.0)

    def test_component_stats_are_histogram_views(self):
        breakdown = LatencyBreakdown()
        breakdown.add(finished_txn())
        for component in ("to_memory", "in_memory", "from_memory"):
            hist = getattr(breakdown, f"{component}_hist")
            assert getattr(breakdown, component) is hist.stat
            with pytest.raises(AttributeError):
                setattr(breakdown, component, hist.stat)


class TestCollector:
    def test_read_write_split(self):
        collector = TransactionCollector()
        collector.add(finished_txn(is_write=False))
        collector.add(finished_txn(is_write=True))
        collector.add(finished_txn(is_write=True))
        assert collector.reads == 1
        assert collector.writes == 2
        assert collector.count == 3

    def test_row_hits_and_nvm_counts(self):
        collector = TransactionCollector()
        collector.add(finished_txn(hit=True, tech="NVM"))
        collector.add(finished_txn(hit=False))
        assert collector.row_hits == 1
        assert collector.nvm_accesses == 1

    def test_last_complete_tracked(self):
        collector = TransactionCollector()
        collector.add(finished_txn(done=500))
        collector.add(finished_txn(done=300))
        assert collector.last_complete_ps == 500

    def test_empty_collector_allocates_no_bucket_arrays(self):
        # 16 latency histograms of 1,024 buckets: stored densely they
        # would take about 132 KB before the first sample.
        TransactionCollector()
        tracemalloc.start()
        try:
            collector = TransactionCollector()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert collector.count == 0
        assert size < 10 * 1024


def make_result(runtime_ps=1000, label="100%-C", workload="TEST"):
    collector = TransactionCollector()
    collector.add(finished_txn())
    return SimResult(
        config_label=label,
        workload=workload,
        runtime_ps=runtime_ps,
        collector=collector,
        energy=EnergyReport(),
        mean_distance=2.0,
        max_distance=4.0,
    )


class TestSimResult:
    def test_speedup_over(self):
        fast = make_result(runtime_ps=1000)
        slow = make_result(runtime_ps=1500)
        assert fast.speedup_over(slow) == pytest.approx(0.5)
        assert slow.speedup_over(fast) == pytest.approx(-1 / 3)

    def test_headline_metrics(self):
        result = make_result()
        assert result.runtime_ns == pytest.approx(1.0)
        assert result.transactions == 1
        assert result.read_fraction == 1.0
        assert result.row_hit_rate == 1.0

    def test_summary_contains_label(self):
        assert "100%-C" in make_result().summary()
