"""Replay the golden regression corpus at tier-1 scale.

Every matrix case re-simulates (with invariant audits on) and must
reproduce its checked-in digest bit for bit.  The experiment corpus is
spot-checked here — the full sweep runs in CI and via
``tools/regen_goldens.py --check`` — but its *coverage* is enforced:
registering a new experiment without regenerating the corpus fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.goldens import (
    MATRIX_REQUESTS,
    _matrix_workload,
    compute_experiments,
    diff_goldens,
    fleet_cases,
    matrix_cases,
    run_fleet_case,
    run_matrix_case,
)
from repro.experiments.registry import experiment_ids
from repro.system import MemoryNetworkSystem

GOLDENS = Path(__file__).parent / "goldens"

_CASES = matrix_cases()
_FLEET_CASES = fleet_cases()

#: Cheap, structurally diverse spot-checks of the experiment corpus.
SPOT_EXPERIMENTS = ["fig04", "fig10", "analysis_parking_lot"]


def _load(name: str) -> dict:
    return json.loads((GOLDENS / f"{name}.json").read_text())


class TestMatrixGoldens:
    @pytest.mark.parametrize(
        "name,config,workload", _CASES, ids=[name for name, _, _ in _CASES]
    )
    def test_case_reproduces_golden(self, name, config, workload):
        recorded = _load("matrix")
        assert name in recorded, (
            f"matrix case {name!r} has no golden; run "
            "`python tools/regen_goldens.py --only matrix`"
        )
        entry = run_matrix_case(config, audit=True, workload=workload)
        report = diff_goldens({name: recorded[name]}, {name: entry})
        assert not report, "\n".join(report)

    @pytest.mark.parametrize("name,base", [
        ("skiplist/frfcfs", "skiplist/base"),
        ("p2p/shuffle", "p2p/base"),
        ("p2p/neighbor", "p2p/base"),
        ("skiplist/hysteresis", "skiplist/base"),
    ])
    def test_path_case_differs_from_its_base(self, name, base):
        # Each case exists to reach a path its base never runs; an equal
        # digest would mean its knob no longer takes effect.
        recorded = _load("matrix")
        assert recorded[name]["digest"] != recorded[base]["digest"]

    def test_hysteresis_case_toggles_burst_mode(self):
        config = next(c for n, c, _ in _CASES if n == "skiplist/hysteresis")
        result = MemoryNetworkSystem(
            config, _matrix_workload(), requests=MATRIX_REQUESTS
        ).run()
        assert result.burst_mode_toggles > 0

    def test_no_orphan_goldens(self):
        live = {name for name, _, _ in _CASES}
        live |= {name for name, _ in _FLEET_CASES}
        assert set(_load("matrix")) == live


class TestFleetGoldens:
    @pytest.mark.parametrize(
        "name,fleet", _FLEET_CASES, ids=[name for name, _ in _FLEET_CASES]
    )
    def test_fleet_case_reproduces_golden(self, name, fleet):
        recorded = _load("matrix")
        assert name in recorded, (
            f"fleet case {name!r} has no golden; run "
            "`python tools/regen_goldens.py --only matrix`"
        )
        entry = run_fleet_case(fleet, audit=True)
        report = diff_goldens({name: recorded[name]}, {name: entry})
        assert not report, "\n".join(report)


class TestExperimentGoldens:
    def test_corpus_covers_registry(self):
        assert sorted(_load("experiments")) == sorted(experiment_ids())

    def test_spot_checks_reproduce(self):
        recorded = _load("experiments")
        current = compute_experiments(only=SPOT_EXPERIMENTS)
        assert sorted(current) == sorted(SPOT_EXPERIMENTS)
        subset = {name: recorded[name] for name in SPOT_EXPERIMENTS}
        report = diff_goldens(subset, current)
        assert not report, "\n".join(report)
