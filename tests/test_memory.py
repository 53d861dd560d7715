"""Tests for banks, timing models, and technology behaviour."""

import pytest

from repro.config import dram_tech, nvm_tech
from repro.memory.bank import Bank
from repro.memory.timing import TimingModel
from repro.units import ns


class TestBank:
    def test_initially_closed_and_free(self):
        bank = Bank()
        assert not bank.would_hit(5)
        assert bank.ready_for(0, 5)

    def test_note_access_opens_row(self):
        bank = Bank()
        bank.note_access(7, hit=False)
        assert bank.would_hit(7)
        assert not bank.would_hit(8)

    def test_lru_eviction_with_multiple_buffers(self):
        bank = Bank(num_row_buffers=2)
        bank.note_access(1, hit=False)
        bank.note_access(2, hit=False)
        bank.note_access(1, hit=True)  # refresh 1's recency
        bank.note_access(3, hit=False)  # evicts 2
        assert bank.would_hit(1)
        assert bank.would_hit(3)
        assert not bank.would_hit(2)

    def test_hit_counter(self):
        bank = Bank()
        bank.note_access(1, hit=False)
        bank.note_access(1, hit=True)
        assert bank.accesses == 2
        assert bank.row_hits == 1

    def test_refresh_closes_rows_and_occupies(self):
        bank = Bank(num_row_buffers=2)
        bank.note_access(1, hit=False)
        bank.refresh(100, 350)
        assert not bank.would_hit(1)
        assert bank.array_busy_until == 450
        assert not bank.ready_for(200, 1)

    def test_earliest_start_hit_ignores_array(self):
        bank = Bank()
        bank.note_access(5, hit=False)
        bank.push_array_busy(1_000_000)
        bank.push_buffer_busy(100)
        assert bank.earliest_start(0, 5) == 100  # hit waits only for buffer
        assert bank.earliest_start(0, 6) == 1_000_000  # miss waits for array

    def test_invalid_buffer_count(self):
        with pytest.raises(ValueError):
            Bank(num_row_buffers=0)


class TestDramTiming:
    def setup_method(self):
        self.tech = dram_tech()
        self.model = TimingModel(self.tech)

    def test_closed_bank_access(self):
        bank = Bank()
        plan = self.model.plan(bank, 0, row=3, is_write=False)
        assert plan.start_ps == 0
        assert plan.data_ready_ps == self.tech.trcd_ps + self.tech.tcl_ps
        assert not plan.row_hit

    def test_row_hit_costs_tcl(self):
        bank = Bank()
        first = self.model.plan(bank, 0, 3, False)
        self.model.apply(bank, first, 3)
        hit = self.model.plan(bank, first.data_ready_ps, 3, False)
        assert hit.row_hit
        assert hit.data_ready_ps - hit.start_ps == self.tech.tcl_ps

    def test_row_conflict_pays_precharge(self):
        bank = Bank()
        first = self.model.plan(bank, 0, 3, False)
        self.model.apply(bank, first, 3)
        # wait until tRAS satisfied so only the conflict cost shows
        later = max(first.array_free_ps, first.data_ready_ps)
        miss = self.model.plan(bank, later, 9, False)
        assert not miss.row_hit
        assert miss.data_ready_ps - miss.start_ps == (
            self.tech.trp_ps + self.tech.trcd_ps + self.tech.tcl_ps
        )

    def test_tras_keeps_array_busy(self):
        bank = Bank()
        plan = self.model.plan(bank, 0, 3, False)
        assert plan.array_free_ps >= self.tech.tras_ps

    def test_write_recovery_extends_array(self):
        bank = Bank()
        plan = self.model.plan(bank, 0, 3, is_write=True)
        assert plan.array_free_ps >= plan.data_ready_ps + self.tech.twr_ps


class TestNvmTiming:
    def setup_method(self):
        self.tech = nvm_tech()
        self.model = TimingModel(self.tech)

    def test_read_miss_slower_than_dram(self):
        dram_model = TimingModel(dram_tech())
        nvm_plan = self.model.plan(Bank(), 0, 1, False)
        dram_plan = dram_model.plan(Bank(), 0, 1, False)
        assert nvm_plan.data_ready_ps > dram_plan.data_ready_ps

    def test_write_occupies_array_for_twr(self):
        bank = Bank(num_row_buffers=self.tech.row_buffers)
        plan = self.model.plan(bank, 0, 1, is_write=True)
        self.model.apply(bank, plan, 1)
        assert bank.array_busy_until >= plan.data_ready_ps + ns(320)

    def test_hit_read_bypasses_write_recovery(self):
        """The decoupled row buffer: hits proceed during tWR (Section 2.4)."""
        bank = Bank(num_row_buffers=self.tech.row_buffers)
        write = self.model.plan(bank, 0, 1, is_write=True)
        self.model.apply(bank, write, 1)
        read = self.model.plan(bank, write.data_ready_ps, 1, is_write=False)
        assert read.row_hit
        assert read.start_ps == write.data_ready_ps  # no tWR wait

    def test_miss_read_waits_for_write_recovery(self):
        bank = Bank(num_row_buffers=1)
        write = self.model.plan(bank, 0, 1, is_write=True)
        self.model.apply(bank, write, 1)
        miss = self.model.plan(bank, write.data_ready_ps, 2, is_write=False)
        assert miss.start_ps >= write.data_ready_ps + ns(320)

    def test_no_refresh(self):
        assert not self.tech.needs_refresh

    def test_multiple_row_buffers_configured(self):
        assert self.tech.row_buffers == 4
