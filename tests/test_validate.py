"""Tests for the built-in self-check module."""

import pytest

from repro.__main__ import main as cli_main
from repro.energy import EnergyModel
from repro.system import MemoryNetworkSystem
from repro.validate import CheckResult, all_passed, run_self_check

from conftest import small_config


class TestSelfCheck:
    @pytest.mark.parametrize(
        "topology", ["chain", "ring", "tree", "skiplist", "metacube"]
    )
    def test_all_checks_pass_on_every_topology(self, topology):
        results = run_self_check(small_config(topology=topology))
        assert all_passed(results), [str(r) for r in results if not r.passed]

    def test_mixed_nvm_config_passes(self):
        results = run_self_check(small_config(dram_fraction=0.5))
        assert all_passed(results)

    def test_check_names_unique(self):
        results = run_self_check(small_config())
        names = [result.name for result in results]
        assert len(names) == len(set(names))
        assert names == [
            "route_sanity", "single_read_latency", "audit", "cube_accesses",
            "traffic_share",
        ]

    def test_result_string_format(self):
        result = CheckResult("demo", True, "ok")
        assert str(result) == "[PASS] demo: ok"
        assert "[FAIL]" in str(CheckResult("demo", False, "bad"))


class TestSelfCheckCli:
    def test_cli_exit_zero_on_pass(self, capsys):
        # use the default (full-size) chain — still fast enough
        assert cli_main(["selfcheck", "--topology", "tree"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


class _InflatedEnergy(EnergyModel):
    """Reports 1 pJ more network energy than the traffic accounts for."""

    def report(self, *args):
        report = super().report(*args)
        report.network_pj += 1.0
        return report


class TestAuditedRun:
    def test_violation_is_a_fail_row_not_an_exception(self, monkeypatch):
        monkeypatch.setattr("repro.system.EnergyModel", _InflatedEnergy)
        results = {r.name: r for r in run_self_check(small_config())}
        audit = results["audit"]
        assert not audit.passed
        assert "energy.totals" in audit.detail and "network_pj" in audit.detail
        assert results["cube_accesses"].passed and results["traffic_share"].passed

    def test_cli_exits_one_on_violation(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.system.EnergyModel", _InflatedEnergy)
        assert cli_main(["selfcheck", "--topology", "tree"]) == 1
        assert "[FAIL] audit:" in capsys.readouterr().out

    def test_two_simulations(self, monkeypatch):
        runs = []
        original = MemoryNetworkSystem.run

        def counting_run(self, *args, **kwargs):
            runs.append(self.requests)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MemoryNetworkSystem, "run", counting_run)
        run_self_check(small_config())
        assert runs == [1, 1200]
