"""Sampled and masked observability (repro.obs narrowing features).

Attribution sampling records exact segments for a deterministic 1-in-N
subset of transactions; label masks restrict recording to taxonomy
prefixes while still *counting* the spans they drop.  Trace sampling
rings every Nth event while the whole-run aggregates stay exact.  None
of the three may perturb the simulated schedule: a sampled/masked run
must be bit-identical to an observability-off run once the (smaller)
observability payload itself is set aside.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.check import InvariantViolation
from repro.config import ConfigError, ObsConfig, SystemConfig
from repro.obs import TraceRecorder, UNATTRIBUTED
from repro.obs.attribution import (
    MaskedSegments,
    SegmentMask,
    segment_code,
)
from repro.serialization import result_to_state
from repro.system import MemoryNetworkSystem

from conftest import fast_workload, run_system, small_config


def _digest_without_obs(result) -> str:
    """Result digest with the observability payload stripped.

    Sampling and masking legitimately shrink ``collector.segments`` and
    add ``obs.*`` accounting keys to ``extra``; everything else —
    runtime, latencies, energy, event counts — must stay bit-identical
    to an observability-off run.
    """
    state = result_to_state(result)
    state["collector"]["segments"] = {}
    state["extra"] = {
        key: value
        for key, value in state["extra"].items()
        if not key.startswith("obs.")
    }
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------
class TestConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(attribution_sample=0),
            dict(trace_sample=0),
            dict(attribution_labels=()),
            dict(attribution_labels=("mem", "")),
            # Trailing dot can never match at a dot boundary; silently
            # recording nothing would be a footgun.
            dict(attribution_labels=("mem.",)),
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            SystemConfig(obs=ObsConfig(attribution=True, **bad)).validate()

    def test_non_default_sampling_enters_job_digest(self):
        from repro.runner import SimJob

        def job(**obs):
            return SimJob(
                config=small_config().with_obs(attribution=True, **obs),
                workload=fast_workload(),
                requests=5,
            )

        base = job().digest()
        assert job(attribution_sample=8).digest() != base
        assert job(attribution_labels=("mem",)).digest() != base
        assert job(trace_sample=4).digest() != base
        # Explicit defaults are digest-transparent: cached pre-feature
        # results stay addressable.
        assert (
            job(
                attribution_sample=1, attribution_labels=None, trace_sample=1
            ).digest()
            == base
        )


# ---------------------------------------------------------------------------
# SegmentMask / MaskedSegments units
# ---------------------------------------------------------------------------
class TestMaskUnits:
    def test_prefix_semantics(self):
        mask = SegmentMask(("mem.xfer", "resp"))
        assert mask.allows("mem.xfer")
        assert mask.allows("mem.xfer.queue.n3")
        assert mask.allows("resp.wire.4->5")
        assert not mask.allows("mem.xfernot")
        assert not mask.allows("mem.array.c0")
        assert not mask.allows("req.port")

    def test_interned_codes_match_their_labels(self):
        mask = SegmentMask(("req",))
        code_in = segment_code("req.port")
        code_out = segment_code("resp.port")
        assert mask.allows(code_in)
        assert not mask.allows(code_out)
        # memoized decisions stay stable
        assert mask.allows(code_in) and not mask.allows(code_out)

    def test_masked_segments_counts_suppressed(self):
        seg = MaskedSegments(SegmentMask(("mem",)))
        seg.append(("mem.array.c0", 100, 160))
        seg.append(("req.port", 0, 25))
        seg.append(("resp.port", 500, 575))
        assert list(seg) == [("mem.array.c0", 100, 160)]
        assert seg.suppressed_ps == 25 + 75
        # list semantics used by the overload cancel path keep working
        seg.append(("mem.queue.c0", 160, 170))
        del seg[1:]
        assert list(seg) == [("mem.array.c0", 100, 160)]


# ---------------------------------------------------------------------------
# Attribution sampling: exact counts, unchanged schedule
# ---------------------------------------------------------------------------
class TestAttributionSampling:
    def test_sampled_run_is_schedule_identical_to_obs_off(self):
        _, plain = run_system(small_config(), requests=200)
        _, sampled = run_system(
            small_config().with_obs(attribution=True, attribution_sample=8),
            requests=200,
        )
        assert sampled.runtime_ps == plain.runtime_ps
        assert sampled.events_processed == plain.events_processed
        assert _digest_without_obs(sampled) == _digest_without_obs(plain)

    def test_sampled_population_is_exact_and_counted(self):
        config = small_config().with_obs(attribution=True, attribution_sample=8)
        system, result = run_system(config, requests=200)
        sampled = system.port.attribution_sampled
        assert result.extra["obs.attribution_sample"] == 8.0
        assert result.extra["obs.attribution_sampled"] == float(sampled)
        # Stride sampling over N generated requests keeps the population
        # within one of N/8, and every sampled transaction tiles exactly.
        generated = system.port.generated
        assert abs(sampled - generated / 8) <= 1
        segments = result.collector.segments
        assert segments["req.port"].count == sampled
        assert segments[UNATTRIBUTED].count == sampled
        assert segments[UNATTRIBUTED].stat.total == 0

    def test_sampling_is_reproducible(self):
        config = small_config().with_obs(attribution=True, attribution_sample=4)
        _, first = run_system(config, requests=150)
        _, second = run_system(config, requests=150)
        assert first.extra == second.extra
        assert (
            first.collector.segments["req.port"].count
            == second.collector.segments["req.port"].count
        )

    def test_full_rate_run_has_no_sampling_keys(self):
        _, result = run_system(
            small_config().with_obs(attribution=True), requests=100
        )
        assert "obs.attribution_sample" not in result.extra
        assert result.collector.segments["req.port"].count == result.transactions


# ---------------------------------------------------------------------------
# Label masks: tiling and suppressed accounting
# ---------------------------------------------------------------------------
class TestLabelMasks:
    def test_masked_run_records_only_enabled_labels(self):
        config = small_config().with_obs(
            attribution=True, attribution_labels=("mem",)
        )
        _, result = run_system(config, requests=200)
        labels = set(result.collector.segments)
        assert labels, "mask must not drop everything"
        for label in labels - {UNATTRIBUTED}:
            assert label.startswith("mem."), label
        # suppressed spans are counted, so the residual still means
        # "instrumentation gap" and stays zero on a healthy run
        residual = result.collector.segments[UNATTRIBUTED]
        assert residual.stat.total == 0
        assert residual.stat.max == 0

    def test_masked_histograms_match_full_attribution(self):
        full_cfg = small_config().with_obs(attribution=True)
        masked_cfg = small_config().with_obs(
            attribution=True, attribution_labels=("mem",)
        )
        _, full = run_system(full_cfg, requests=200)
        _, masked = run_system(masked_cfg, requests=200)
        mem_labels = {
            label for label in full.collector.segments if label.startswith("mem.")
        }
        assert set(masked.collector.segments) == mem_labels | {UNATTRIBUTED}
        for label in mem_labels:
            kept = masked.collector.segments[label]
            reference = full.collector.segments[label]
            assert kept.count == reference.count, label
            assert kept.stat.total == reference.stat.total, label
        assert _digest_without_obs(masked) == _digest_without_obs(full)

    def test_mask_composes_with_sampling(self):
        config = small_config().with_obs(
            attribution=True,
            attribution_sample=4,
            attribution_labels=("req", "resp"),
        )
        system, result = run_system(config, requests=200)
        segments = result.collector.segments
        sampled = system.port.attribution_sampled
        assert segments["req.port"].count == sampled
        assert segments[UNATTRIBUTED].stat.total == 0
        for label in segments:
            assert label == UNATTRIBUTED or label.split(".", 1)[0] in (
                "req",
                "resp",
            )


# ---------------------------------------------------------------------------
# Audits over narrowed attribution
# ---------------------------------------------------------------------------
NARROWINGS = [
    pytest.param(dict(attribution_sample=8), id="sampled"),
    pytest.param(dict(attribution_labels=("mem",)), id="masked"),
    pytest.param(
        dict(attribution_sample=4, attribution_labels=("req", "resp")),
        id="sampled-masked",
    ),
]


class TestAuditedNarrowing:
    @pytest.mark.parametrize("narrowing", NARROWINGS)
    def test_narrowed_run_passes_result_audit(self, narrowing):
        # Sampled or masked segments cover part of the population the
        # latency components are taken over; only the residual applies.
        config = small_config().with_obs(attribution=True, **narrowing)
        system, _ = run_system(config, requests=200, audit=True)
        assert system.auditor.audits_run >= 1

    def test_dropped_segment_caught_under_sampling(self):
        config = small_config().with_obs(attribution=True, attribution_sample=8)
        system = MemoryNetworkSystem(
            config, fast_workload(), requests=200, audit=True
        )
        add = system.collector.add
        dropped = []

        def drop_longest_segment(txn):
            if not dropped and txn.segments:
                longest = max(txn.segments, key=lambda seg: seg[2] - seg[1])
                txn.segments.remove(longest)
                dropped.append(longest)
            add(txn)

        system.collector.add = drop_longest_segment
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert dropped and dropped[0][2] > dropped[0][1]
        assert excinfo.value.invariants() == ["obs.attribution"]


# ---------------------------------------------------------------------------
# Trace sampling: exact aggregates over a sampled ring
# ---------------------------------------------------------------------------
class TestTraceSampling:
    def test_recorder_validates_sample(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=4, sample=0)

    def test_recorder_strides_ring_but_counts_all(self):
        recorder = TraceRecorder(capacity=16, sample=4, sample_phase=1)
        for i in range(10):
            recorder.queue_depth("q", i, i)
        assert recorder.emitted == 10
        assert recorder.stored == 3  # emission indices 1, 5, 9
        assert recorder.sampled_out == 7
        assert recorder.retained == 3
        assert recorder.dropped == 7
        assert [event[0] for event in recorder.events()] == [1, 5, 9]
        # aggregates keep covering every event, sampled out or not
        assert recorder.queue_peak["q"] == 9
        summary = recorder.summary(runtime_ps=100)
        assert summary["trace_sample"] == 4
        assert summary["events_sampled_out"] == 7
        assert summary["events_emitted"] == 10

    def test_recorder_unsampled_semantics_unchanged(self):
        recorder = TraceRecorder(capacity=4)
        for i in range(10):
            recorder.queue_depth("q", i, i)
        assert recorder.emitted == 10
        assert recorder.stored == 10
        assert recorder.sampled_out == 0
        assert recorder.dropped == 6  # ring eviction only
        assert recorder.evicted == 6

    def test_system_trace_sampling_keeps_aggregates_exact(self):
        full_cfg = small_config().with_obs(trace=True)
        sampled_cfg = small_config().with_obs(trace=True, trace_sample=4)
        full_sys, full = run_system(full_cfg, requests=120)
        sampled_sys, sampled = run_system(sampled_cfg, requests=120)
        assert sampled.runtime_ps == full.runtime_ps
        assert _digest_without_obs(sampled) == _digest_without_obs(full)
        # every event is still counted and aggregated ...
        assert sampled_sys.tracer.emitted == full_sys.tracer.emitted
        assert sampled_sys.tracer.link_bits == full_sys.tracer.link_bits
        assert sampled_sys.tracer.link_busy_ps == full_sys.tracer.link_busy_ps
        assert sampled_sys.tracer.queue_peak == full_sys.tracer.queue_peak
        # ... but only ~1/4 of them occupy ring slots
        assert sampled_sys.tracer.stored < full_sys.tracer.stored
        assert (
            abs(sampled_sys.tracer.stored - full_sys.tracer.emitted / 4)
            <= full_sys.tracer.emitted / 8
        )
        phase = sampled_sys.tracer.sample_phase
        assert 0 <= phase < 4

    def test_trace_sampling_phase_is_seeded(self):
        config = small_config(seed=7).with_obs(trace=True, trace_sample=64)
        system_a, _ = run_system(config, requests=30)
        system_b, _ = run_system(config, requests=30)
        assert system_a.tracer.sample_phase == system_b.tracer.sample_phase
