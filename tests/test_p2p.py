"""End-to-end tests for the peer-to-peer copy traffic class.

A ``p2p_fraction`` of the workload becomes cube-to-cube DMA copies
(NOM-style): a small ``P2P_REQ`` to the source cube, a data-bearing
``P2P_XFER`` relayed cube-to-cube, and a small ``P2P_ACK`` back to the
host.  These tests pin down the relay protocol, destination patterns,
engine equivalence, attribution tiling, RAS interaction, and the
auditor's p2p invariants.
"""

import pytest

from repro.config import P2P_PROMOTE, VALID_P2P_PATTERNS
from repro.errors import ConfigError, WorkloadError
from repro.net.packet import KIND_P2P, Packet, PacketKind
from repro.obs import UNATTRIBUTED, phase_of, three_way_ns
from repro.serialization import result_digest, result_from_state, result_to_state

from conftest import fast_workload, run_system, small_config


def p2p_workload(fraction=0.2, **overrides):
    return fast_workload(p2p_fraction=fraction, **overrides)


def p2p_config(**overrides):
    defaults = dict(topology="chain", dram_fraction=0.5, p2p_pattern=P2P_PROMOTE)
    defaults.update(overrides)
    return small_config(**defaults)


# ---------------------------------------------------------------------------
# Knob validation and digest plumbing
# ---------------------------------------------------------------------------
class TestKnobs:
    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_out_of_range_rejected(self, fraction):
        with pytest.raises(WorkloadError):
            p2p_workload(fraction).validate()

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            small_config(p2p_pattern="broadcast").validate()

    @pytest.mark.parametrize("pattern", VALID_P2P_PATTERNS)
    def test_valid_patterns_accepted(self, pattern):
        small_config(p2p_pattern=pattern).validate()

    def test_p2p_knobs_change_job_digest(self):
        from repro.runner import SimJob

        plain = SimJob(config=small_config(), workload=fast_workload(), requests=5)
        fractioned = SimJob(
            config=small_config(), workload=p2p_workload(), requests=5
        )
        patterned = SimJob(
            config=small_config(p2p_pattern=P2P_PROMOTE),
            workload=fast_workload(),
            requests=5,
        )
        assert len({plain.digest(), fractioned.digest(), patterned.digest()}) == 3

    def test_zero_fraction_is_the_baseline(self):
        """p2p_fraction=0 must not perturb the RNG draw sequence."""
        _, base = run_system(small_config(), fast_workload(), requests=150)
        _, zero = run_system(small_config(), p2p_workload(0.0), requests=150)
        assert result_digest(base) == result_digest(zero)


# ---------------------------------------------------------------------------
# The relay protocol
# ---------------------------------------------------------------------------
class TestRelay:
    def test_kind_relay_chain(self):
        assert PacketKind.P2P_REQ.response_kind() is PacketKind.P2P_XFER
        assert PacketKind.P2P_XFER.response_kind() is PacketKind.P2P_ACK

    def test_copies_complete_and_conserve(self):
        _, result = run_system(p2p_config(), p2p_workload(), requests=300)
        generated = result.extra["p2p.generated"]
        assert generated > 0
        assert result.extra["p2p.completed"] + result.extra["p2p.failed"] == generated
        assert result.extra["p2p.failed"] == 0
        assert result.collector.p2p > 0
        assert result.collector.count == (
            result.collector.reads + result.collector.writes + result.collector.p2p
        )

    def test_transfers_take_hops(self):
        _, result = run_system(p2p_config(), p2p_workload(), requests=300)
        assert result.collector.xfer_hops.count == result.collector.p2p
        assert result.collector.xfer_hops.mean >= 1.0

    def test_audited_p2p_run_passes(self):
        _, result = run_system(
            p2p_config(), p2p_workload(), requests=300, audit=True
        )
        assert result.extra["p2p.completed"] > 0

    @pytest.mark.parametrize("topology", ["chain", "ring", "skiplist", "metacube"])
    def test_every_topology_carries_copies(self, topology):
        _, result = run_system(
            p2p_config(topology=topology), p2p_workload(), requests=200, audit=True
        )
        assert result.extra["p2p.completed"] > 0
        assert result.extra["p2p.failed"] == 0

    def test_patterns_pick_different_destinations(self):
        digests = {
            pattern: result_digest(
                run_system(
                    p2p_config(topology="ring", p2p_pattern=pattern),
                    p2p_workload(),
                    requests=200,
                )[1]
            )
            for pattern in VALID_P2P_PATTERNS
        }
        # On a mixed-tier ring all three patterns reach distinct cubes.
        assert len(set(digests.values())) == len(VALID_P2P_PATTERNS)

    def test_promote_falls_back_to_neighbor_when_single_tech(self):
        # With one technology there is no opposite tier to promote to.
        neighbor = run_system(
            small_config(p2p_pattern="neighbor"), p2p_workload(), requests=200
        )[1]
        promote = run_system(
            small_config(p2p_pattern=P2P_PROMOTE), p2p_workload(), requests=200
        )[1]
        assert result_digest(neighbor) == result_digest(promote)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
class TestP2pAttribution:
    def _observed(self, requests=300):
        _, result = run_system(
            p2p_config().with_obs(attribution=True), p2p_workload(), requests=requests
        )
        return result

    def test_xfer_segments_present_and_mem_phase(self):
        result = self._observed()
        xfer_labels = [
            label for label in result.collector.segments if ".xfer." in label
        ]
        assert xfer_labels
        assert all(label.startswith("mem.xfer.") for label in xfer_labels)
        assert all(phase_of(label) == "mem" for label in xfer_labels)

    def test_segments_tile_exactly(self):
        result = self._observed()
        residual = result.collector.segments[UNATTRIBUTED]
        assert residual.stat.total == 0
        assert residual.stat.max == 0

    def test_three_way_split_matches_timestamps(self):
        result = self._observed()
        breakdown = result.collector.all
        split = three_way_ns(result.collector.segments, result.transactions)
        assert split["to_memory"] == pytest.approx(breakdown.to_memory_ns, abs=1e-6)
        assert split["in_memory"] == pytest.approx(breakdown.in_memory_ns, abs=1e-6)
        assert split["from_memory"] == pytest.approx(
            breakdown.from_memory_ns, abs=1e-6
        )

    def test_round_trip_preserves_p2p_aggregates(self):
        result = self._observed(requests=200)
        clone = result_from_state(result_to_state(result))
        assert result_digest(clone) == result_digest(result)
        assert clone.collector.p2p == result.collector.p2p
        assert clone.collector.xfer_hops.mean == result.collector.xfer_hops.mean


# ---------------------------------------------------------------------------
# RAS interaction
# ---------------------------------------------------------------------------
class TestP2pRas:
    def test_crc_replays_do_not_lose_copies(self):
        _, result = run_system(
            p2p_config(topology="ring").with_ras(bit_error_rate=1e-6),
            p2p_workload(),
            requests=250,
            audit=True,
        )
        assert result.extra["p2p.completed"] == result.extra["p2p.generated"]
        assert result.extra["p2p.failed"] == 0

    def test_ring_reroutes_copies_around_link_failure(self):
        _, result = run_system(
            p2p_config(topology="ring").with_ras(
                link_failures=((2, 3, 400_000),)
            ),
            p2p_workload(),
            requests=250,
            audit=True,
        )
        assert result.availability == 1.0
        assert result.extra["p2p.failed"] == 0

    def test_chain_cut_fails_copies_cleanly(self):
        # The 50% chain has 5 cubes (nodes 1..5); cut mid-spine.
        _, result = run_system(
            p2p_config().with_ras(link_failures=((3, 4, 300_000),)),
            p2p_workload(),
            requests=250,
            audit=True,
        )
        assert result.extra["p2p.failed"] > 0
        assert result.extra["p2p.completed"] + result.extra["p2p.failed"] == (
            result.extra["p2p.generated"]
        )


# ---------------------------------------------------------------------------
# The p2p audit invariants
# ---------------------------------------------------------------------------
class TestP2pInvariants:
    def test_leaked_transfer_to_host_caught(self):
        system, _ = run_system(p2p_config(), p2p_workload(), requests=60, audit=True)
        host_id = system.route_table.host_id
        link, _kind = system._links[0]
        stray = Packet(
            kind=PacketKind.P2P_XFER,
            address=0x40,
            src=1,
            dest=host_id,
            size_bits=512,
            create_ps=0,
        )
        stray.route = [1, host_id]
        link.dst_queue.push(stray, system.engine.now)
        names = {v[0] for v in system.auditor.collect("final")}
        assert "p2p.leak" in names

    def test_dropped_copy_counter_caught(self):
        system, _ = run_system(p2p_config(), p2p_workload(), requests=60, audit=True)
        assert system.port.generated_by_kind[KIND_P2P] > 0
        system.port.completed_by_kind[KIND_P2P] -= 1
        names = {v[0] for v in system.auditor.collect("final")}
        assert "p2p.conservation" in names
