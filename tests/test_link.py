"""Tests for links, shared channels, credits, and buffers."""

import pytest

from repro.config import LinkConfig
from repro.errors import SimulationError
from repro.net.buffers import InputQueue
from repro.net.link import Link, SharedChannel
from repro.net.packet import Packet, PacketKind
from repro.sim.engine import Engine


def make_packet(kind=PacketKind.READ_REQ, size_bits=128, route=(0, 1)):
    packet = Packet(kind, 0x0, route[0], route[-1], size_bits, 0)
    packet.route = list(route)
    return packet


def make_link(capacity=2, serdes_ps=2000, channel=None):
    queue = InputQueue("q", capacity)
    link = Link(
        "L",
        LinkConfig(serdes_latency_ps=serdes_ps, input_buffer_packets=capacity),
        queue,
        channel=channel,
    )
    return link, queue


class TestInputQueue:
    def test_fifo_order(self):
        queue = InputQueue("q", 4)
        a, b = make_packet(), make_packet()
        queue.push(a, now_ps=0)
        queue.push(b, now_ps=0)
        assert queue.head() is a
        assert queue.pop(now_ps=0) is a
        assert queue.pop(now_ps=0) is b

    def test_capacity_enforced(self):
        queue = InputQueue("q", 1)
        queue.push(make_packet(), now_ps=0)
        assert not queue.has_space()
        with pytest.raises(SimulationError):
            queue.push(make_packet(), now_ps=0)

    def test_empty_access_raises(self):
        queue = InputQueue("q", 1)
        with pytest.raises(SimulationError):
            queue.head()
        with pytest.raises(SimulationError):
            queue.pop(now_ps=0)

    def test_peak_occupancy(self):
        queue = InputQueue("q", 4)
        queue.push(make_packet(), now_ps=0)
        queue.push(make_packet(), now_ps=0)
        queue.pop(now_ps=0)
        assert queue.peak_occupancy == 2


class TestLinkTiming:
    def test_delivery_time_is_serialization_plus_serdes(self):
        engine = Engine()
        link, queue = make_link()
        packet = make_packet(size_bits=640)  # 2667 ps at 16x15Gbps
        arrivals = []
        link.on_delivery = lambda eng, q: arrivals.append(eng.now)
        link.send(engine, packet)
        engine.run()
        assert arrivals == [2667 + 2000]
        assert len(queue) == 1
        assert packet.hops_traversed == 1

    def test_link_busy_during_serialization(self):
        engine = Engine()
        link, _ = make_link()
        link.send(engine, make_packet(size_bits=640))
        with pytest.raises(SimulationError):
            link.send(engine, make_packet())

    def test_link_frees_after_serialization(self):
        engine = Engine()
        link, _ = make_link(capacity=4)
        link.send(engine, make_packet(size_bits=640))
        engine.run(until=2667)
        link.send(engine, make_packet())  # the serializer is free again
        assert link.packets_carried == 2

    def test_stats_accumulate(self):
        engine = Engine()
        link, _ = make_link(capacity=4)
        link.send(engine, make_packet(size_bits=640))
        engine.run()
        assert link.packets_carried == 1
        assert link.bits_carried == 640
        assert link.busy_ps == 2667


class TestCredits:
    def test_credit_consumed_on_send(self):
        engine = Engine()
        link, _ = make_link(capacity=2)
        assert link.credits == 2
        link.send(engine, make_packet())
        assert link.credits == 1

    def test_no_credit_blocks_send(self):
        engine = Engine()
        link, queue = make_link(capacity=1)
        link.send(engine, make_packet())
        engine.run()
        assert link.credits == 0
        with pytest.raises(SimulationError):
            link.send(engine, make_packet())

    def test_return_credit_restores(self):
        engine = Engine()
        link, queue = make_link(capacity=1)
        link.send(engine, make_packet())
        engine.run()
        queue.pop(engine.now)
        link.return_credit(engine)
        assert link.credits == 1


class TestSharedChannel:
    def test_two_halves_share_serializer(self):
        engine = Engine()
        channel = SharedChannel("ab")
        link_ab, _ = make_link(channel=channel)
        link_ba, _ = make_link(channel=channel)
        link_ab.send(engine, make_packet(size_bits=640))
        with pytest.raises(SimulationError):
            link_ba.send(engine, make_packet())

    def test_response_direction_granted_first(self):
        engine = Engine()
        channel = SharedChannel("ab")
        link_ab, _ = make_link(channel=channel)
        link_ba, _ = make_link(channel=channel)
        grants = []
        link_ab.on_idle = lambda eng: grants.append("requests")
        link_ba.on_idle = lambda eng: grants.append("responses")
        link_ab.sender_has_response_head = lambda: False
        link_ba.sender_has_response_head = lambda: True
        # occupy the channel, register both directions as blocked, then
        # let the idle transition re-arbitrate
        link_ab.send(engine, make_packet(size_bits=640))
        channel.wake_when_idle(engine, link_ab)
        channel.wake_when_idle(engine, link_ba)
        engine.run()
        assert grants[0] == "responses"

    def test_waiters_polled_in_registration_order(self):
        engine = Engine()
        channel = SharedChannel("ab")
        link_ab, _ = make_link(channel=channel)
        link_ba, _ = make_link(channel=channel)
        polled = []
        link_ab.on_idle = lambda eng: polled.append("ab")
        link_ba.on_idle = lambda eng: polled.append("ba")
        link_ab.send(engine, make_packet(size_bits=640))
        channel.wake_when_idle(engine, link_ba)
        channel.wake_when_idle(engine, link_ab)
        engine.run()
        # no responses pending: registration order decides, and both
        # waiters get polled by the single idle event
        assert polled == ["ba", "ab"]

    def test_uncontended_channel_schedules_no_idle_events(self):
        engine = Engine()
        channel = SharedChannel("ab")
        link_ab, _ = make_link(capacity=4, channel=channel)
        link_ab.send(engine, make_packet(size_bits=640))
        engine.run()
        # delivery is the only event: no waiters -> no idle/poll events
        assert engine.events_processed == 1

    def test_wake_registration_is_idempotent(self):
        engine = Engine()
        channel = SharedChannel("ab")
        link_ab, _ = make_link(channel=channel)
        link_ba, _ = make_link(channel=channel)
        polled = []
        link_ba.on_idle = lambda eng: polled.append("ba")
        link_ab.send(engine, make_packet(size_bits=640))
        channel.wake_when_idle(engine, link_ba)
        channel.wake_when_idle(engine, link_ba)
        engine.run()
        assert polled == ["ba"]

    def test_full_duplex_links_do_not_interfere(self):
        engine = Engine()
        link_a, _ = make_link()
        link_b, _ = make_link()
        link_a.send(engine, make_packet(size_bits=640))
        link_b.send(engine, make_packet(size_bits=640))  # independent channel
        engine.run()
        assert link_a.packets_carried == link_b.packets_carried == 1


class TestQueueWaitTracking:
    def test_wait_accumulates_between_push_and_pop(self):
        queue = InputQueue("q", 4)
        queue.push(make_packet(), now_ps=100)
        queue.push(make_packet(), now_ps=150)
        queue.pop(now_ps=300)
        queue.pop(now_ps=400)
        assert queue.total_wait_ps == (300 - 100) + (400 - 150)
        assert queue.popped == 2
