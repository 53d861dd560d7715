"""Tests for the repro.check invariant-audit subsystem.

Positive direction: healthy and degraded runs pass every audit, and an
audited run is bit-identical to an unaudited one (audits verify, they
never perturb).  Negative direction: injected defects — a stolen
credit, a leaked packet, an uncounted or past scheduler event — must
each be caught by its named invariant, with reproduction context
attached.
"""

from __future__ import annotations

import heapq

import pytest

from repro.check import (
    InvariantViolation,
    audits,
    audits_enabled,
    set_audits,
)
from repro.config import P2P_PROMOTE
from repro.net.packet import KIND_READ, KIND_WRITE, Transaction
from repro.serialization import result_digest
from repro.system import MemoryNetworkSystem
from repro.units import ns

from conftest import (
    fast_workload,
    run_sim,
    run_system,
    small_config,
)


def _audited_system(config=None, requests=120):
    return MemoryNetworkSystem(
        config if config is not None else small_config(),
        fast_workload(),
        requests=requests,
        audit=True,
    )


# ---------------------------------------------------------------------------
# Enablement plumbing
# ---------------------------------------------------------------------------
class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        system, _ = run_system(requests=20)
        assert system.auditor is None

    def test_explicit_param(self):
        system, _ = run_system(requests=20, audit=True)
        assert system.auditor is not None
        assert system.auditor.audits_run >= 1  # at least the final audit

    def test_ambient_flag_and_restore(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert not audits_enabled()
        previous = set_audits(True)
        try:
            assert previous is False
            assert audits_enabled()
            system, _ = run_system(requests=20)
            assert system.auditor is not None
        finally:
            set_audits(previous)
        assert not audits_enabled()

    def test_context_manager(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        with audits():
            system, _ = run_system(requests=20)
            assert system.auditor is not None
        assert not audits_enabled()

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        assert audits_enabled()
        system, _ = run_system(requests=20)
        assert system.auditor is not None
        monkeypatch.setenv("REPRO_AUDIT", "0")
        assert not audits_enabled()

    def test_explicit_off_overrides_ambient(self):
        with audits():
            system, _ = run_system(requests=20, audit=False)
            assert system.auditor is None


# ---------------------------------------------------------------------------
# Audits verify, never perturb
# ---------------------------------------------------------------------------
class TestDigestIdentity:
    @pytest.mark.parametrize("topology", ["chain", "ring", "skiplist"])
    def test_audited_run_is_bit_identical(self, topology):
        config = small_config(topology=topology).with_obs(attribution=True)
        plain = run_sim(config, requests=100, audit=False)
        audited = run_sim(config, requests=100, audit=True)
        assert result_digest(plain) == result_digest(audited)

    def test_audited_degraded_run_is_bit_identical(self):
        config = small_config(topology="chain").with_ras(
            link_failures=((2, 3, 300_000),)
        )
        plain = run_sim(config, requests=100, audit=False)
        audited = run_sim(config, requests=100, audit=True)
        assert result_digest(plain) == result_digest(audited)
        assert audited.requests_failed > 0  # the degraded path was taken


# ---------------------------------------------------------------------------
# Healthy and degraded runs pass every audit point
# ---------------------------------------------------------------------------
class TestHealthyAudits:
    def test_metacube_with_obs_and_ras_noise(self):
        config = (
            small_config(topology="metacube")
            .with_obs(attribution=True)
            .with_ras(bit_error_rate=1e-6)
        )
        system = _audited_system(config, requests=150)
        system.run()  # no InvariantViolation
        assert system.auditor.audits_run >= 1

    def test_quiesce_audits_on_permanent_failure(self):
        config = small_config(topology="ring").with_ras(
            link_failures=((1, 2, 300_000),)
        )
        system = _audited_system(config, requests=150)
        result = system.run()
        # ras-quiesce + final: the reroute path was audited mid-run.
        assert system.auditor.audits_run >= 2
        assert result.requests_failed == 0

    def test_degraded_final_audit_tolerates_failed_strands(self):
        # A cut chain fails the far cubes; the relaxed final audit must
        # accept stranded *failed* work but still run to completion.
        config = small_config(topology="chain").with_ras(
            link_failures=((2, 3, 300_000),)
        )
        system = _audited_system(config, requests=150)
        result = system.run()
        assert result.requests_failed > 0
        assert system.auditor.audits_run >= 2


# ---------------------------------------------------------------------------
# Injected defects: each caught by its named invariant
# ---------------------------------------------------------------------------
class TestInjectedDefects:
    def _credited_link(self, system):
        for link, _kind in system._links:
            if link.credits > 0:
                return link
        raise AssertionError("no credited link in the system")

    def test_dropped_credit_caught(self):
        system = _audited_system()

        def steal(engine):
            link = self._credited_link(system)
            link._credits -= 1

        system.engine.schedule(400_000, steal)
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert "credit.conservation" in excinfo.value.invariants()

    def test_leaked_packet_caught(self):
        system = _audited_system()

        def leak(engine):
            for link, _kind in system._links:
                queue = link.dst_queue
                if len(queue):
                    # Bypass pop(): no counter bump, no credit return.
                    queue._items.popleft()
                    queue._entry_times.popleft()
                    return
            engine.schedule(10_000, leak)

        system.engine.schedule(400_000, leak)
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert "queue.accounting" in excinfo.value.invariants()

    @staticmethod
    def _empty_behind_pop(queue):
        # Bypass pop(): the deque empties but head_key keeps its value.
        queue._items.clear()
        queue._entry_times.clear()

    def test_stale_head_key_reported_not_crashed(self):
        # A shared channel with both directions waiting re-arbitrates
        # through has_response_head when it goes idle.  A sender queue
        # whose head_key outlived its packets must be skipped there (as
        # _try_output skips it), so the auditor can name the defect
        # instead of an IndexError escaping the event loop.
        system = MemoryNetworkSystem(
            small_config(),
            fast_workload(),
            requests=120,
            audit=True,
        )
        emptied = []
        granted = []

        def after_idle(engine, channel, waiting):
            # Runs after the channel's idle event at this instant.
            granted.append(channel._waiting is not waiting)
            system.auditor.audit("stale-grant")

        def inject(engine):
            for (src, dst), link in system._link_by_pair.items():
                channel = link.channel
                if not link._waiting or len(channel._waiting) < 2:
                    continue
                router = system._routers[src]
                stale = [q for q in router.inputs if q.head_key == dst and len(q)]
                if not stale or channel._busy_until <= engine.now:
                    continue
                for queue in stale:
                    self._empty_behind_pop(queue)
                    emptied.append(queue.name)
                engine.schedule_at(
                    channel._busy_until, after_idle, channel, channel._waiting
                )
                return
            engine.schedule(1_000, inject)

        system.engine.schedule(0, inject)
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        assert emptied, "no shared channel ever had two waiters"
        assert granted == [True]
        assert excinfo.value.context["point"] == "stale-grant"
        stale_queues = {
            component
            for name, component, _ in excinfo.value.violations
            if name == "queue.head_key"
        }
        assert stale_queues == set(emptied)

    def _finished_heap_system(self):
        # White-box: the tests below reach into the engine's heap.
        system = MemoryNetworkSystem(
            small_config(),
            fast_workload(),
            requests=40,
            audit=True,
        )
        system.run()
        return system

    def test_uncounted_heap_event_caught(self):
        system = self._finished_heap_system()
        engine = system.engine
        # Push an event without bumping the pending counter: the event
        # was smuggled past the scheduler's bookkeeping.
        heapq.heappush(
            engine._heap, (engine.now + 1, engine._seq, lambda eng: None, ())
        )
        names = {v[0] for v in system.auditor.collect("final")}
        assert names == {"engine.integrity"}

    def test_past_heap_event_caught(self):
        system = self._finished_heap_system()
        engine = system.engine
        # A counted event timestamped before now would fire in the past.
        heapq.heappush(
            engine._heap, (engine.now - 1, engine._seq, lambda eng: None, ())
        )
        engine._pending += 1
        names = {v[0] for v in system.auditor.collect("final")}
        assert names == {"engine.integrity"}

    def test_violation_carries_reproduction_context(self):
        system = _audited_system()
        system.engine.schedule(
            400_000, lambda eng: self._steal_one(system)
        )
        with pytest.raises(InvariantViolation) as excinfo:
            system.run()
        violation = excinfo.value
        assert violation.context["workload"] == "TEST"
        assert violation.context["seed"] == system.config.seed
        assert violation.context["requests"] == system.requests
        assert violation.context["point"] in ("final", "stall")
        # Each violation is a (invariant, component, detail) triple and
        # all of it lands in the printable message.
        invariant, component, detail = violation.violations[0]
        assert invariant in str(violation)
        assert component in str(violation)
        assert detail in str(violation)

    def _steal_one(self, system):
        self._credited_link(system)._credits -= 1


def _read_count_lost(port):
    port.completed_by_kind[KIND_READ] -= 1


def _write_slot_leaked(port):
    port.outstanding_by_kind[KIND_WRITE] += 1


def _retry_without_timeout(port):
    port.retries_by_kind[KIND_READ] += port.timeouts - port.retries + 1


def _pile_entry_missing(port):
    # a pending transaction that its kind's pile does not hold
    port.pending.append(Transaction(0x40, False, port.port_id, 0))


def _read_window_overrun(port):
    port.outstanding_by_kind[KIND_READ] = port.window + 1


class TestPortLedgerDefects:
    """Each host-port invariant catches a corrupted ledger table.

    A finished, audited closed-loop run exercises every table: all three
    kinds complete, time out, retry and shed.  Each case corrupts one
    table afterwards and the final audit must name the invariant.
    """

    @staticmethod
    def _finished_port():
        config = small_config(
            topology="chain", dram_fraction=0.5, p2p_pattern=P2P_PROMOTE
        ).with_overload(
            deadline_ps=ns(200), max_retries=2, retry_backoff_ps=ns(50),
            shed_high=64, shed_low=32,
        )
        workload = fast_workload(p2p_fraction=0.2, mlp=8)
        system, _ = run_system(config, workload, requests=150, audit=True)
        return system

    @pytest.mark.parametrize("corrupt, invariant", [
        pytest.param(_read_count_lost, "txn.conservation", id="read-count"),
        pytest.param(_write_slot_leaked, "port.directory", id="write-slot"),
        pytest.param(
            _retry_without_timeout, "overload.conservation", id="retries"
        ),
        pytest.param(_pile_entry_missing, "port.backlog", id="pile-entry"),
        pytest.param(_read_window_overrun, "port.window", id="read-window"),
    ])
    def test_corrupted_table_caught(self, corrupt, invariant):
        system = self._finished_port()
        port = system.port
        assert not port.open_loop  # the window bounds are checked
        for table in (port.generated_by_kind, port.timeouts_by_kind,
                      port.retries_by_kind, port.shed_by_kind):
            assert all(table), table
        assert system.auditor.collect("final") == []
        corrupt(port)
        names = {v[0] for v in system.auditor.collect("final")}
        assert invariant in names
