"""Tests for the quadrant memory controller."""

from dataclasses import replace

import pytest

from repro.arbitration import ArbiterContext, RoundRobinArbiter
from repro.config import PacketConfig, dram_tech, nvm_tech
from repro.host.address_map import Location
from repro.memory.bank import Bank
from repro.memory.controller import QuadrantController
from repro.memory.timing import TimingModel
from repro.net.buffers import InputQueue
from repro.net.packet import Packet, PacketKind, Transaction
from repro.net.router import LOCAL, LocalOutput, Router
from repro.sim.engine import Engine
from repro.units import ns

from conftest import create_all_banks


def make_request(bank=0, row=0, is_write=False, address=0):
    txn = Transaction(address, is_write, port_id=0, issue_ps=0)
    txn.location = Location(cube_index=0, quadrant=0, bank=bank, row=row, offset=0)
    txn.dest_cube = 1
    kind = PacketKind.WRITE_REQ if is_write else PacketKind.READ_REQ
    packet = Packet(kind, address, 0, 1, 128, 0, transaction=txn)
    packet.route = [0, 1]
    packet.hop_index = 1
    return packet


class Harness:
    def __init__(self, tech=None, num_banks=4, queue_depth=8, scheduling="fcfs",
                 inject_capacity=8):
        self.engine = Engine()
        self.router = Router(1, "cube", lambda: RoundRobinArbiter(ArbiterContext()))
        self.inject = InputQueue("inject", inject_capacity)
        self.router.add_input(self.inject)
        self.sunk = []
        # a local output that immediately drains responses
        self.router.add_output(
            LOCAL, LocalOutput(lambda p: True, lambda e, p, i: self.sunk.append(p))
        )
        self.routed = []
        self.controller = QuadrantController(
            name="q0",
            timing=TimingModel(tech or dram_tech()),
            num_banks=num_banks,
            queue_depth=queue_depth,
            inject_queue=self.inject,
            router=self.router,
            route_response=self._route,
            packet_config=PacketConfig(),
            scheduling=scheduling,
        )

    def _route(self, response):
        response.route = [1]  # terminate at this node (drains to sink)
        response.hop_index = 0
        self.routed.append(response)

    def send(self, packet):
        self.controller.reserve()
        self.controller.receive(self.engine, packet)

    def run(self):
        self.engine.run()


class TestBasicService:
    def test_read_produces_response(self):
        h = Harness()
        h.send(make_request())
        h.run()
        assert len(h.sunk) == 1
        assert h.sunk[0].kind == PacketKind.READ_RESP
        assert h.controller.reads == 1

    def test_write_produces_ack(self):
        h = Harness()
        h.send(make_request(is_write=True))
        h.run()
        assert h.sunk[0].kind == PacketKind.WRITE_ACK
        assert h.controller.writes == 1

    def test_timestamps_recorded(self):
        h = Harness()
        packet = make_request()
        # Served request packets are recycled through the controller's
        # PacketPool, so hold the transaction, not the packet.
        txn = packet.transaction
        h.send(packet)
        h.run()
        assert txn.mem_depart_ps == dram_tech().trcd_ps + dram_tech().tcl_ps
        assert txn.dest_tech == "DRAM"
        assert txn.row_hit is False

    def test_row_hit_faster_second_access(self):
        h = Harness()
        first, second = make_request(row=3), make_request(row=3)
        txn1, txn2 = first.transaction, second.transaction
        h.send(first)
        h.send(second)
        h.run()
        t1 = txn1.mem_depart_ps
        t2 = txn2.mem_depart_ps
        assert txn2.row_hit
        assert t2 - t1 == dram_tech().tcl_ps

    def test_bank_parallelism_with_frfcfs(self):
        h = Harness(scheduling="frfcfs")
        a, b = make_request(bank=0), make_request(bank=1)
        txn_a, txn_b = a.transaction, b.transaction
        h.send(a)
        h.send(b)
        h.run()
        # both banks were accessed concurrently: same completion time
        assert txn_a.mem_depart_ps == txn_b.mem_depart_ps


class TestScheduling:
    def test_fcfs_head_of_line_blocks(self):
        nvm = nvm_tech()
        h = Harness(tech=nvm, scheduling="fcfs")
        write = make_request(bank=0, row=1, is_write=True)
        blocked_miss = make_request(bank=0, row=2)
        other_bank = make_request(bank=1, row=1)
        other_txn = other_bank.transaction
        h.send(write)
        h.send(blocked_miss)
        h.send(other_bank)
        h.run()
        # under strict FCFS the other-bank request waits behind the
        # blocked miss (which waits out tWR)
        assert other_txn.mem_depart_ps > ns(320)

    def test_frfcfs_bypasses_blocked_head(self):
        nvm = nvm_tech()
        h = Harness(tech=nvm, scheduling="frfcfs")
        write = make_request(bank=0, row=1, is_write=True)
        blocked_miss = make_request(bank=0, row=2)
        other_bank = make_request(bank=1, row=1)
        other_txn = other_bank.transaction
        h.send(write)
        h.send(blocked_miss)
        h.send(other_bank)
        h.run()
        assert other_txn.mem_depart_ps < ns(320)

    def test_invalid_scheduling_rejected(self):
        with pytest.raises(ValueError):
            Harness(scheduling="random")


class TestBackpressure:
    def test_can_accept_tracks_queue_and_reservations(self):
        h = Harness(queue_depth=2)
        assert h.controller.can_accept()
        h.controller.reserve()
        h.controller.reserve()
        assert not h.controller.can_accept()

    def test_responses_wait_for_inject_space(self):
        h = Harness(inject_capacity=1)
        # block the inject queue with a packet whose output never accepts
        h.router.add_output(99, LocalOutput(lambda p: False, lambda e, p, i: None))
        blocker = make_request()
        blocker.route = [1, 99]
        blocker.hop_index = 0  # at node 1, bound for the refusing output

        h.inject.push(blocker)  # occupies the single slot
        h.send(make_request(row=5))
        h.engine.run(until=ns(1000))
        assert h.controller.pending_responses == 1
        # draining the queue lets the response through
        h.inject.pop()
        h.controller._inject_drained(h.engine)
        h.engine.run()
        assert h.controller.pending_responses == 0


class TestRefresh:
    def test_refresh_scheduled_for_dram(self):
        h = Harness()
        h.controller.start_refresh(h.engine)
        h.engine.run(until=dram_tech().refresh_interval_ps * 2)
        assert h.controller.refreshes > 0

    def test_no_refresh_for_nvm(self):
        h = Harness(tech=nvm_tech())
        h.controller.start_refresh(h.engine)
        h.engine.run(until=ns(100_000))
        assert h.controller.refreshes == 0


# ---------------------------------------------------------------------------
# Banks created on first touch
# ---------------------------------------------------------------------------
def bank_state(bank):
    return (
        bank.array_busy_until,
        bank.buffer_busy_until,
        bank.num_row_buffers,
        list(bank._open_rows),
        bank.accesses,
        bank.row_hits,
    )


# A refresh longer than the spacing between ticks (interval / groups):
# several groups are refreshing at once, and a bank created mid-refresh
# must inherit the busy windows still running.
LONG_REFRESH = replace(dram_tech(), refresh_duration_ps=ns(5_000))

# (time ns, bank, row): bursts separated by idle gaps of several refresh
# intervals, so the controller goes dormant and replays ticks on arrival.
LAZY_SCENARIO = [
    (50, 1, 3), (60, 1, 3), (70, 2, 0),
    (3_000, 1, 4), (3_005, 0, 1),
    (40_000, 2, 0), (40_001, 5, 7), (40_002, 9, 1),
    (41_500, 14, 2),
    (97_000, 3, 3), (97_010, 11, 3), (97_020, 1, 3),
]


def drive(harness):
    controller = harness.controller
    controller.start_refresh(harness.engine)
    for at_ns, bank, row in LAZY_SCENARIO:
        packet = make_request(bank=bank % len(controller.banks), row=row)
        harness.engine.schedule_at(ns(at_ns), lambda engine, p=packet: harness.send(p))
    harness.engine.run()


LAZY_CASES = [
    pytest.param(tech, num_banks, scheduling, id=f"{name}-{num_banks}-{scheduling}")
    for name, tech in (("dram", dram_tech()), ("long-refresh", LONG_REFRESH))
    for num_banks in (3, 16)
    for scheduling in ("fcfs", "frfcfs")
]


class TestLazyBanks:
    def test_banks_start_empty(self):
        h = Harness(num_banks=16)
        assert h.controller.banks == [None] * 16
        bank = h.controller.bank(5)
        assert h.controller.bank(5) is bank
        assert sum(b is not None for b in h.controller.banks) == 1

    @pytest.mark.parametrize("tech,num_banks,scheduling", LAZY_CASES)
    def test_created_bank_equals_eagerly_refreshed_bank(
        self, tech, num_banks, scheduling
    ):
        h = Harness(tech=tech, num_banks=num_banks, scheduling=scheduling)
        controller = h.controller
        created, replays = [], []
        create = controller.bank

        def spy_bank(index):
            fresh = controller.banks[index] is None
            bank = create(index)
            if fresh:
                created.append((index, controller.refreshes, bank_state(bank)))
            return bank

        receive = controller.receive

        def spy_receive(engine, packet):
            if not controller._refresh_armed and controller._refresh_due_ps <= engine.now:
                replays.append(engine.now)
            receive(engine, packet)

        controller.bank = spy_bank
        controller.receive = spy_receive
        drive(h)
        assert replays, "scenario must reach the dormant-replay path"
        assert any(ticks > 1 for _, ticks, _ in created)

        groups = min(QuadrantController.REFRESH_GROUPS, num_banks)
        step = tech.refresh_interval_ps // groups
        for index, ticks, state in created:
            # The same bank built eagerly and refreshed by every tick of
            # its group so far (tick n refreshes group n % groups).
            reference = Bank(num_row_buffers=tech.row_buffers)
            for n in range(ticks):
                if n % groups == index % groups:
                    reference.refresh(n * step, tech.refresh_duration_ps)
            assert state == bank_state(reference), (index, ticks)

    @pytest.mark.parametrize("tech,num_banks,scheduling", LAZY_CASES)
    def test_lazy_controller_matches_eager_controller(
        self, tech, num_banks, scheduling
    ):
        lazy = Harness(tech=tech, num_banks=num_banks, scheduling=scheduling)
        eager = Harness(tech=tech, num_banks=num_banks, scheduling=scheduling)
        create_all_banks(eager.controller)
        drive(lazy)
        drive(eager)
        touched = {bank % num_banks for _, bank, _ in LAZY_SCENARIO}
        assert {
            i for i, b in enumerate(lazy.controller.banks) if b is not None
        } == touched
        assert [p.transaction.mem_depart_ps for p in lazy.sunk] == [
            p.transaction.mem_depart_ps for p in eager.sunk
        ]
        assert lazy.controller.refreshes == eager.controller.refreshes
        for index in range(num_banks):
            # Untouched banks are created here, after every tick.
            assert bank_state(lazy.controller.bank(index)) == bank_state(
                eager.controller.banks[index]
            ), index
