"""Tests for the arbitration schemes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arbitration import (
    AgeArbiter,
    ArbiterContext,
    DistanceArbiter,
    EnhancedDistanceArbiter,
    GlobalWeightedArbiter,
    RoundRobinArbiter,
    make_arbiter_factory,
)
from repro.errors import ConfigError
from repro.net.packet import Packet, PacketKind, Transaction


def response_from(cube, now=0, issue_ps=0):
    txn = Transaction(0, is_write=False, port_id=0, issue_ps=issue_ps)
    packet = Packet(PacketKind.READ_RESP, 0, cube, 0, 128, now, transaction=txn)
    return packet


def request_to(cube, is_write=False):
    kind = PacketKind.WRITE_REQ if is_write else PacketKind.READ_REQ
    return Packet(kind, 0, 0, cube, 128, 0)


def context(distances=None, techs=None, **kwargs):
    return ArbiterContext(
        distance_to_host=distances or {},
        tech_of_node=techs or {},
        **kwargs,
    )


class TestContext:
    def test_origin_node(self):
        ctx = context()
        assert ctx.origin_node(response_from(7)) == 7
        assert ctx.origin_node(request_to(5)) == 5

    def test_origin_distance_and_tech(self):
        ctx = context({3: 4}, {3: "NVM"})
        assert ctx.origin_distance(response_from(3)) == 4
        assert ctx.origin_is_nvm(response_from(3))
        assert not ctx.origin_is_nvm(response_from(1))


class TestRoundRobin:
    def test_rotates_across_inputs(self):
        arbiter = RoundRobinArbiter(context())
        candidates = [(0, response_from(1)), (1, response_from(2)), (2, response_from(3))]
        picks = [candidates[arbiter.pick(0, candidates)][0] for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_missing_inputs(self):
        arbiter = RoundRobinArbiter(context())
        first = arbiter.pick(0, [(0, response_from(1)), (2, response_from(2))])
        assert first == 0
        second = arbiter.pick(0, [(2, response_from(2))])
        assert second == 0  # position in candidate list


class TestDistance:
    def test_far_origin_served_more_often(self):
        ctx = context({1: 1, 9: 9})
        arbiter = DistanceArbiter(ctx)
        candidates = [(0, response_from(1)), (1, response_from(9))]
        wins = {0: 0, 1: 0}
        for _ in range(100):
            winner = candidates[arbiter.pick(0, candidates)][0]
            wins[winner] += 1
        # service should be roughly proportional to weight (2 vs 10)
        assert wins[1] > 3 * wins[0]
        assert wins[0] > 0  # no starvation

    def test_weight_of_uses_distance(self):
        ctx = context({4: 6})
        arbiter = DistanceArbiter(ctx)
        assert arbiter.weight_of(response_from(4)) == 7.0


class TestEnhancedDistance:
    def test_nvm_origin_gets_bonus(self):
        ctx = context({2: 3}, {2: "NVM"}, nvm_bonus_hops=5.0)
        arbiter = EnhancedDistanceArbiter(ctx)
        assert arbiter.weight_of(response_from(2)) == pytest.approx(9.0)

    def test_write_class_deprioritized(self):
        ctx = context({2: 3}, write_weight_factor=0.25)
        arbiter = EnhancedDistanceArbiter(ctx)
        read_weight = arbiter.weight_of(request_to(2))
        write_weight = arbiter.weight_of(request_to(2, is_write=True))
        assert write_weight == pytest.approx(read_weight * 0.25)

    def test_prefers_nvm_response_over_equal_distance_dram(self):
        ctx = context({1: 3, 2: 3}, {1: "DRAM", 2: "NVM"}, nvm_bonus_hops=6.0)
        arbiter = EnhancedDistanceArbiter(ctx)
        candidates = [(0, response_from(1)), (1, response_from(2))]
        wins = {0: 0, 1: 0}
        for _ in range(100):
            wins[candidates[arbiter.pick(0, candidates)][0]] += 1
        assert wins[1] > wins[0]


class TestAge:
    def test_oldest_wins(self):
        arbiter = AgeArbiter(context())
        old = response_from(1, issue_ps=0)
        young = response_from(2, issue_ps=90)
        pick = arbiter.pick(100, [(0, young), (1, old)])
        assert pick == 1

    def test_falls_back_to_create_time(self):
        arbiter = AgeArbiter(context())
        a = Packet(PacketKind.READ_REQ, 0, 0, 1, 8, create_ps=0)
        b = Packet(PacketKind.READ_REQ, 0, 0, 1, 8, create_ps=50)
        assert arbiter.pick(100, [(0, b), (1, a)]) == 1


class TestGlobalWeighted:
    def test_subtree_weight_drives_service(self):
        ctx = context()
        ctx.subtree_weights.update({0: 1, 1: 15})
        arbiter = GlobalWeightedArbiter(ctx)
        candidates = [(0, response_from(1)), (1, response_from(2))]
        wins = {0: 0, 1: 0}
        for _ in range(160):
            wins[candidates[arbiter.pick(0, candidates)][0]] += 1
        assert wins[1] > 8 * wins[0]
        assert wins[0] > 0


class TestFactory:
    def test_creates_fresh_instances(self):
        factory = make_arbiter_factory("round_robin", context())
        assert factory() is not factory()

    def test_all_schemes_constructible(self):
        for scheme in (
            "round_robin",
            "distance",
            "distance_enhanced",
            "age",
            "global_weighted",
        ):
            arbiter = make_arbiter_factory(scheme, context())()
            assert arbiter.pick(0, [(0, response_from(1))]) == 0

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            make_arbiter_factory("coin_flip", context())


# ---------------------------------------------------------------------------
# The single-candidate shortcut against the general deficit loop
# ---------------------------------------------------------------------------
class ReferenceDeficit:
    """The general deficit loop, as every weighted arbiter ran it for
    every round (single-candidate rounds included) before the shortcut
    in ``WeightedDeficitMixin.pick``."""

    def __init__(self, weight):
        self.weight = weight  # (input index, packet) -> float
        self.deficit = {}
        self.rr_pointer = 0

    def pick(self, candidates):
        best_pos = -1
        best_key = (float("-inf"), 0)
        for pos, (index, packet) in enumerate(candidates):
            deficit = self.deficit.get(index, 0.0) + max(
                self.weight(index, packet), 1e-9
            )
            self.deficit[index] = deficit
            rr_rank = -((index - self.rr_pointer) % 1024)
            key = (deficit, rr_rank)
            if key > best_key:
                best_key = key
                best_pos = pos
        winner = candidates[best_pos][0]
        self.deficit[winner] = 0.0
        self.rr_pointer = winner + 1
        return best_pos


def _origin(packet):
    return packet.src if packet.is_resp else packet.dest


def _reference_weight(arbiter_cls, ctx):
    """Weight formulas restated from the paper's schemes, independent
    of the arbiters' own weight code."""
    if arbiter_cls is GlobalWeightedArbiter:
        return lambda index, packet: float(ctx.subtree_weights.get(index, 1))

    def weight(index, packet):
        value = 1.0 + ctx.distance_to_host.get(_origin(packet), 0)
        if arbiter_cls is EnhancedDistanceArbiter:
            if ctx.tech_of_node.get(_origin(packet)) == "NVM":
                value += ctx.nvm_bonus_hops
            if packet.kind.is_write_class:
                value *= ctx.write_weight_factor
        return value

    return weight


NODES = range(8)
INPUTS = range(12)

candidate_specs = st.tuples(
    st.sampled_from(INPUTS),  # input index
    st.sampled_from(NODES),  # packet src
    st.sampled_from(NODES),  # packet dest
    st.sampled_from(list(PacketKind)),
)
rounds_strategy = st.lists(
    st.lists(candidate_specs, min_size=1, max_size=5, unique_by=lambda c: c[0]),
    min_size=1,
    max_size=40,
)
context_strategy = st.builds(
    ArbiterContext,
    distance_to_host=st.fixed_dictionaries({n: st.integers(0, 6) for n in NODES}),
    tech_of_node=st.fixed_dictionaries(
        {n: st.sampled_from(["DRAM", "NVM"]) for n in NODES}
    ),
    nvm_bonus_hops=st.sampled_from([0.0, 1.5, 4.0]),
    write_weight_factor=st.sampled_from([0.25, 1.0]),
    subtree_weights=st.dictionaries(st.sampled_from(INPUTS), st.integers(0, 15)),
)


@pytest.mark.parametrize(
    "arbiter_cls",
    [DistanceArbiter, EnhancedDistanceArbiter, GlobalWeightedArbiter],
)
@settings(max_examples=150, deadline=None)
@given(ctx=context_strategy, rounds=rounds_strategy)
def test_weighted_pick_matches_reference_loop(arbiter_cls, ctx, rounds):
    arbiter = arbiter_cls(ctx)
    reference = ReferenceDeficit(_reference_weight(arbiter_cls, ctx))
    for specs in rounds:
        candidates = [
            (index, Packet(kind, 0, src, dest, 128, 0))
            for index, src, dest, kind in specs
        ]
        assert arbiter.pick(0, candidates) == reference.pick(candidates)
        assert arbiter._deficit == reference.deficit
        assert arbiter._rr_pointer == reference.rr_pointer
