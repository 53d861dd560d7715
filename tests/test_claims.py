"""The paper's conclusions (repro.check.claims) hold on real runs, and
every claim predicate carries load."""

import pytest

from repro.check.claims import CLAIMS, failed_claims
from repro.experiments import get_experiment

#: Requests per simulation.  Every claim holds at this count, and all
#: claimed experiments together take about 17 s (one core of a shared
#: 2-vCPU machine, Python 3.11).
CLAIM_REQUESTS = 300


@pytest.mark.parametrize("experiment_id", sorted(CLAIMS))
def test_experiment_claims_hold(experiment_id):
    output = get_experiment(experiment_id)(requests=CLAIM_REQUESTS)
    assert failed_claims(experiment_id, output.data) == []


def _breakdown(kmeans, nw, hotspot):
    """Chain latency rows from (to_memory, in_memory, from_memory) triples."""
    def row(to_memory, in_memory, from_memory):
        return {"100%-C": {
            "to_memory": to_memory, "in_memory": in_memory,
            "from_memory": from_memory,
        }}

    return {"breakdown": {
        "KMEANS": row(*kmeans), "NW": row(*nw), "HOTSPOT": row(*hotspot),
    }}


#: (experiment id, claim name, hand-built data that violates that claim)
VIOLATIONS = [
    ("table01", "table01.ddr_speed_falls_to_800mhz",
     {"rows": [(1, 1333, 2133), (2, 1066, 2133), (3, 1066, 1866)]}),
    ("fig04", "fig04.tree_over_ring_over_chain",
     {"averages": {"100%-T": 10.0, "100%-R": 12.0}}),
    ("fig05", "fig05.network_over_array_nw_most_in_memory",
     _breakdown(kmeans=(10, 30, 10), nw=(10, 60, 10), hotspot=(10, 20, 10))),
    ("fig05", "fig05.network_over_array_nw_most_in_memory",
     _breakdown(kmeans=(100, 30, 100), nw=(100, 20, 100), hotspot=(10, 20, 10))),
    ("fig07", "fig07.nvm_mixes_beat_chain_50pct_competitive",
     {"averages": {"100%-T": 20.0, "50%-T (NVM-L)": 11.0, "0%-T": 5.0}}),
    ("fig10", "fig10.distance_wrecks_no_baseline",
     {"averages": {"100%-C": 3.0, "50%-T (NVM-F)": -10.5}}),
    ("fig11", "fig11.metacube_best_skiplist_near_tree",
     {"averages": {"100%-T": 15.0, "100%-MC": 13.5, "100%-SL": 16.0}}),
    ("fig12", "fig12.combined_all_beat_chain",
     {"averages": {"100%-MC": 20.0, "100%-C": 0.0}}),
    ("fig13", "fig13.fewer_ports_hurt_chain_not_metacube",
     {"averages": {"100%-C": -16.0, "100%-MC": -17.0}}),
    ("fig14", "fig14.nvm_worst_with_fewer_banks",
     {"averages": {"100%-C": -3.0, "50%-T (NVM-L)": -2.0, "0%-C": -1.0}}),
    ("fig15", "fig15.energy_tracks_hops_nvm_writes_cost",
     {"relative_energy": {
         "100%-C": {"network": 1.0, "write": 1.0},
         "0%-C": {"network": 0.3, "write": 3.0},
         "100%-T": {"network": 1.1, "write": 1.0},
         "100%-SL": {"network": 0.7, "write": 1.0},
     }}),
    ("ablation_arbiters", "ablation_arbiters.distance_wrecks_nothing",
     {"delta": {"100%-C": {"distance": 2.0}, "100%-T": {"distance": -11.0}}}),
    ("ablation_interleave", "ablation_interleave.64b_no_more_row_hits",
     {"grid": {"KMEANS": {64: {"row_hit_rate": 40.0}, 256: {"row_hit_rate": 38.0}}}}),
    ("ablation_serdes", "ablation_serdes.slow_serdes_hurts_chain_most",
     {"slowdown": {"100%-C": {2.0: 1.0, 10.0: 8.0}, "100%-T": {10.0: 9.0}}}),
    ("ablation_ratio", "ablation_ratio.tree_mixes_beat_chain",
     {"averages": {"100%-T": 15.0, "0%-T": -0.5}}),
    ("ablation_window", "ablation_window.metacube_gains_at_window_8",
     {"grid": {8: {"100%-MC": 0.0}}}),
    ("ablation_buffers", "ablation_buffers.starving_chain_never_helps",
     {"grid": {"100%-C": {1: 5.5, 16: 2.0}}}),
]


@pytest.mark.parametrize(
    "experiment_id,claim,data", VIOLATIONS,
    ids=[f"{claim}-{index}" for index, (_, claim, _) in enumerate(VIOLATIONS)],
)
def test_violating_data_fails_its_claim(experiment_id, claim, data):
    assert claim in failed_claims(experiment_id, data)


def test_every_claim_has_a_violating_case():
    claimed = {name for claims in CLAIMS.values() for name in claims}
    assert {claim for _, claim, _ in VIOLATIONS} == claimed
