"""Tests for the shared ``REPRO_*`` environment-variable parsing."""

import warnings

import pytest

from repro import check
from repro.env import env_flag, reset_warnings

VAR = "REPRO_TEST_FLAG"


@pytest.fixture(autouse=True)
def _fresh_warnings():
    reset_warnings()
    yield
    reset_warnings()


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "TRUE", " On "])
    def test_true_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(VAR, raw)
        assert env_flag(VAR) is True

    @pytest.mark.parametrize("raw", ["0", "false", "no", "off", "FALSE", " Off "])
    def test_false_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(VAR, raw)
        assert env_flag(VAR, default=True) is False

    @pytest.mark.parametrize("default", [False, True])
    def test_unset_and_empty_yield_default(self, monkeypatch, default):
        monkeypatch.delenv(VAR, raising=False)
        assert env_flag(VAR, default=default) is default
        monkeypatch.setenv(VAR, "   ")
        assert env_flag(VAR, default=default) is default

    def test_unrecognized_warns_once_and_yields_default(self, monkeypatch):
        monkeypatch.setenv(VAR, "maybe")
        with pytest.warns(RuntimeWarning, match="maybe"):
            assert env_flag(VAR, default=True) is True
        # Second read of the same variable stays quiet.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_flag(VAR) is False

    def test_warn_once_is_per_variable(self, monkeypatch):
        monkeypatch.setenv(VAR, "bogus")
        monkeypatch.setenv(VAR + "_2", "bogus")
        with pytest.warns(RuntimeWarning):
            env_flag(VAR)
        with pytest.warns(RuntimeWarning):
            env_flag(VAR + "_2")


class TestAuditsEnabledFlag:
    """REPRO_AUDIT=false used to *enable* audits (any non-"0" string did)."""

    @pytest.mark.parametrize("raw", ["false", "off", "no", "0"])
    def test_false_spellings_disable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_AUDIT", raw)
        assert check.audits_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "yes", "on"])
    def test_true_spellings_enable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_AUDIT", raw)
        assert check.audits_enabled() is True

    def test_ambient_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "false")
        with check.audits():
            assert check.audits_enabled() is True
        assert check.audits_enabled() is False
