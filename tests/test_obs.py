"""Tests for the observability subsystem (repro.obs).

Covers per-hop latency attribution (segment coverage and its agreement
with the timestamp-based Fig 5 split), event tracing and its dump
formats, the serialization v2 round-trip of the new histograms, and the
zero-overhead-when-off invariants.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

import repro.net.packet as packet_module
from repro.config import ObsConfig, SystemConfig
from repro.errors import SimulationError
from repro.obs import (
    PHASE_TO_COMPONENT,
    UNATTRIBUTED,
    TraceRecorder,
    category_of,
    phase_of,
    rollup,
    sum_by_label,
    three_way_ns,
)
from repro.net.packet import Transaction
from repro.obs.attribution import segment_table_rows
from repro.serialization import (
    result_digest,
    result_from_state,
    result_to_dict,
    result_to_state,
)
from repro.sim.stats import Histogram

from conftest import fast_workload, run_system, small_config


# ---------------------------------------------------------------------------
# ObsConfig plumbing
# ---------------------------------------------------------------------------
class TestObsConfig:
    def test_off_by_default(self):
        config = SystemConfig()
        assert not config.obs.enabled
        assert not config.obs.attribution
        assert not config.obs.trace

    def test_with_obs_preserves_other_fields(self):
        config = small_config().with_obs(attribution=True)
        assert config.obs.attribution
        assert not config.obs.trace
        assert config.total_capacity_bytes == small_config().total_capacity_bytes

    def test_invalid_ring_rejected(self):
        with pytest.raises(Exception):
            SystemConfig(obs=ObsConfig(trace=True, trace_ring=0)).validate()

    def test_obs_changes_job_digest(self):
        from repro.runner import SimJob

        plain = SimJob(config=small_config(), workload=fast_workload(), requests=5)
        observed = SimJob(
            config=small_config().with_obs(attribution=True),
            workload=fast_workload(),
            requests=5,
        )
        assert plain.digest() != observed.digest()


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
class TestAttribution:
    def test_segments_absent_when_off(self):
        _, result = run_system(small_config(), requests=50)
        assert result.collector.segments == {}

    def test_three_way_split_matches_timestamps(self):
        _, result = run_system(
            small_config().with_obs(attribution=True), requests=300
        )
        breakdown = result.collector.all
        split = three_way_ns(result.collector.segments, result.transactions)
        assert split["to_memory"] == pytest.approx(breakdown.to_memory_ns, abs=1e-6)
        assert split["in_memory"] == pytest.approx(breakdown.in_memory_ns, abs=1e-6)
        assert split["from_memory"] == pytest.approx(
            breakdown.from_memory_ns, abs=1e-6
        )

    def test_unattributed_residual_is_zero(self):
        _, result = run_system(
            small_config().with_obs(attribution=True), requests=300
        )
        residual = result.collector.segments[UNATTRIBUTED]
        assert residual.stat.total == 0
        assert residual.stat.max == 0

    def test_port_crossings_always_present(self):
        config = small_config().with_obs(attribution=True)
        _, result = run_system(config, requests=100)
        segments = result.collector.segments
        assert segments["req.port"].count == result.transactions
        assert segments["resp.port"].count == result.transactions
        per_txn_ps = segments["req.port"].stat.total / result.transactions
        assert per_txn_ps == config.host.port_latency_ps

    def test_helpers(self):
        assert phase_of("req.queue.n3.from2") == "req"
        assert phase_of("unattributed") is None
        assert category_of("resp.wire.4->5") == "resp.wire"
        assert category_of("req.port") == "req.port"
        assert sum_by_label([("a", 0, 5), ("a", 7, 10), ("b", 1, 2)]) == {
            "a": 8,
            "b": 1,
        }
        assert set(PHASE_TO_COMPONENT.values()) == {
            "to_memory",
            "in_memory",
            "from_memory",
        }

    def test_rollup_merges_locations(self):
        a = Histogram(10, 4)
        b = Histogram(10, 4)
        a.add(5)
        b.add(15)
        merged = rollup({"req.queue.n1": a, "req.queue.n2": b})
        assert list(merged) == ["req.queue"]
        assert merged["req.queue"].count == 2
        # inputs untouched
        assert a.count == 1 and b.count == 1

    def test_segment_table_rows_render(self):
        _, result = run_system(
            small_config().with_obs(attribution=True), requests=100
        )
        rows = segment_table_rows(result.collector.segments, result.transactions)
        labels = [row[0] for row in rows]
        assert "req.port" in labels and "resp.port" in labels
        # phase ordering: all req.* rows precede mem.*, which precede resp.*
        phases = [phase_of(label) or "zzz" for label in labels]
        order = {"req": 0, "mem": 1, "resp": 2, "zzz": 3}
        ranks = [order[p] for p in phases]
        assert ranks == sorted(ranks)


# ---------------------------------------------------------------------------
# Latency histograms and tails
# ---------------------------------------------------------------------------
class TestTails:
    def test_breakdown_histograms_populated(self):
        _, result = run_system(small_config(), requests=200)
        breakdown = result.collector.all
        assert breakdown.total_hist.count == result.transactions
        tails = breakdown.tails_ns()
        assert tails["total"]["p50"] <= tails["total"]["p95"] <= tails["total"]["p99"]
        assert result.p99_latency_ns >= tails["total"]["p50"] > 0

    def test_report_dict_carries_tails(self):
        _, result = run_system(small_config(), requests=100)
        report = result_to_dict(result)
        assert "tails_ns" in report["latency"]
        assert report["latency"]["tails_ns"]["total"]["p95"] > 0


# ---------------------------------------------------------------------------
# Serialization round-trip (cache schema v2)
# ---------------------------------------------------------------------------
class TestSerializationV2:
    def test_round_trip_bit_identical_with_attribution(self):
        _, result = run_system(
            small_config().with_obs(attribution=True), requests=150
        )
        state = result_to_state(result)
        clone = result_from_state(json.loads(json.dumps(state)))
        assert result_digest(clone) == result_digest(result)
        assert clone.collector.segments.keys() == result.collector.segments.keys()
        assert clone.p99_latency_ns == result.p99_latency_ns

    def test_round_trip_without_segments(self):
        _, result = run_system(small_config(), requests=80)
        clone = result_from_state(result_to_state(result))
        assert result_digest(clone) == result_digest(result)
        assert clone.collector.segments == {}


# ---------------------------------------------------------------------------
# Event tracing
# ---------------------------------------------------------------------------
class TestTraceRecorder:
    def test_ring_eviction(self):
        recorder = TraceRecorder(capacity=4)
        for i in range(10):
            recorder.queue_depth("q", i, i)
        assert recorder.emitted == 10
        assert [event[3] for event in recorder.events()] == [6, 7, 8, 9]
        assert recorder.dropped == 6
        # On a real run, the whole-run aggregates survive eviction: a
        # ring that wrapped reports the same totals as one that did not.
        base = small_config().with_obs(trace=True)
        whole, result = run_system(base, requests=60)
        wrapped, _ = run_system(base.with_obs(trace=True, trace_ring=16), requests=60)
        assert wrapped.tracer.evicted > 0 and whole.tracer.evicted == 0
        totals = whole.tracer.summary(result.runtime_ps)
        summary = wrapped.tracer.summary(result.runtime_ps)
        for key in ("link_utilization", "link_bits", "link_packets",
                    "queue_peak_depth"):
            assert summary[key] == totals[key] and totals[key]
        assert totals["queue_peak_depth"] == {
            queue.name: queue.peak_occupancy
            for router in whole._routers.values()
            for queue in router.inputs
            if queue.peak_occupancy
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_link_aggregates(self):
        # With the whole run in the ring, each link's totals are the sums
        # over its link events.
        config = small_config().with_obs(trace=True)
        system, result = run_system(config, requests=60)
        tracer = system.tracer
        assert tracer.evicted == 0 and tracer.sampled_out == 0
        busy, bits, packets = {}, {}, {}
        for event in tracer.events():
            if event[1] == "link":
                _ts, _kind, name, ser_ps, _arrival, _pid, _packet, size = event
                busy[name] = busy.get(name, 0) + ser_ps
                bits[name] = bits.get(name, 0) + size
                packets[name] = packets.get(name, 0) + 1
        assert busy and tracer.link_busy_ps == busy
        assert tracer.link_bits == bits
        assert tracer.link_packets == packets
        util = tracer.link_utilization(runtime_ps=result.runtime_ps)
        assert util == {
            name: ps / result.runtime_ps for name, ps in sorted(busy.items())
        }

    def test_closed_system_frees_ring(self):
        config = small_config().with_obs(trace=True)
        system, result = run_system(config, requests=60)
        summary = system.tracer.summary(result.runtime_ps)
        assert system.tracer.retained > 0
        system.close()
        assert system.tracer.events() == []
        after = system.tracer.summary(result.runtime_ps)
        assert after["events_retained"] == 0
        assert after["events_emitted"] == summary["events_emitted"]
        assert after["link_bits"] == summary["link_bits"]

    def test_system_attaches_tracer_and_records(self):
        config = small_config().with_obs(attribution=True, trace=True)
        system, result = run_system(config, requests=60)
        assert system.tracer is not None
        assert system.tracer.emitted > 0
        kinds = {event[1] for event in system.tracer.events()}
        assert "link" in kinds and "queue" in kinds
        summary = system.tracer.summary(result.runtime_ps)
        assert summary["link_utilization"]
        assert all(0.0 <= u <= 1.0 for u in summary["link_utilization"].values())

    def test_no_tracer_when_off(self):
        system, _ = run_system(small_config(), requests=20)
        assert system.tracer is None
        with pytest.raises(SimulationError):
            system.dump_trace("/tmp/nowhere")

    def test_dump_files(self, tmp_path):
        config = small_config().with_obs(attribution=True, trace=True)
        system, _ = run_system(config, requests=60)
        paths = system.dump_trace(str(tmp_path))
        assert len(paths) == 2
        jsonl, chrome = paths
        lines = [
            json.loads(line)
            for line in open(jsonl).read().splitlines()
        ]
        assert lines[-1]["kind"] == "summary"
        assert all("ts" in record for record in lines[:-1])
        payload = json.loads(open(chrome).read())
        assert payload["traceEvents"]
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert "X" in phases and "C" in phases
        assert payload["otherData"]["workload"] == "TEST"

    def test_trace_dir_auto_dump(self, tmp_path):
        config = small_config().with_obs(
            attribution=True, trace=True, trace_dir=str(tmp_path)
        )
        run_system(config, requests=40)
        written = list(tmp_path.iterdir())
        assert len(written) == 2

    def test_engine_events_opt_in(self):
        base = small_config().with_obs(attribution=True, trace=True)
        system, _ = run_system(base, requests=30)
        assert "engine" not in {event[1] for event in system.tracer.events()}
        verbose = small_config().with_obs(
            attribution=True, trace=True, trace_engine_events=True
        )
        system, _ = run_system(verbose, requests=30)
        assert "engine" in {event[1] for event in system.tracer.events()}

    def test_traced_run_matches_untraced_result(self):
        plain_cfg = small_config()
        traced_cfg = small_config().with_obs(attribution=True, trace=True)
        _, plain = run_system(plain_cfg, requests=120)
        _, traced = run_system(traced_cfg, requests=120)
        assert traced.runtime_ps == plain.runtime_ps
        assert traced.transactions == plain.transactions
        assert traced.collector.all.total_ns == pytest.approx(
            plain.collector.all.total_ns
        )


#: SHA-256 of the two dump files of one fixed traced run, per
#: ``trace_sample``: ``{sample: (jsonl, chrome)}``.  A tracer change that
#: cuts work must leave these bytes alone; one that means to change the
#: trace re-pins them deliberately.
TRACE_PINS = {
    1: (
        "c7f30a9db013a25749b321b35677641a9f59e45faa5fb274aa65f38947226534",
        "067550fbc501b51d7dde4ce3a6ba9f0fc7c985e7c68270609d2412e9302f1784",
    ),
    4: (
        "15f82fec816f5ca91decf0efd709c0f39016c4cf1a5f0ce18f94d2fface3a8e3",
        "fc8a2bbaf8da377378689b45f5847f8b2a1352b55c9b21df2fab0191d8f1bfd7",
    ),
}


class TestTracePins:
    @pytest.mark.parametrize("sample", sorted(TRACE_PINS))
    def test_dump_bytes_pinned(self, tmp_path, monkeypatch, sample):
        # Packet and transaction ids come from process-wide counters and
        # appear in the dumps; restart them so the run traces as it
        # would in a fresh process, whatever ran before it.
        monkeypatch.setattr(packet_module, "_packet_ids", itertools.count())
        monkeypatch.setattr(Transaction, "_ids", itertools.count())
        config = small_config().with_obs(
            attribution=True, trace=True, trace_sample=sample
        )
        system, _ = run_system(config, requests=60)
        jsonl, chrome = system.dump_trace(str(tmp_path))
        digests = tuple(
            hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in (jsonl, chrome)
        )
        assert digests == TRACE_PINS[sample]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestTraceCli:
    def test_main_writes_traces(self, tmp_path, capsys):
        from repro.trace import main

        rc = main(
            [
                "100%-C",
                "BACKPROP",
                "--requests",
                "60",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-hop latency attribution" in out
        assert "wrote" in out
        assert len(list(tmp_path.iterdir())) == 2
