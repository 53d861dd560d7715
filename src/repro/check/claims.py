"""The paper's conclusions as named predicates over experiment data.

Each entry of :data:`CLAIMS` maps an experiment id to the claims its
:class:`repro.experiments.base.ExperimentOutput` ``data`` must satisfy:
tree > ring > chain (Fig 4), network latency above array latency
(Fig 5), MetaCube best (Fig 11), fewer ports hurting the chain most
(Fig 13), and the rest of EXPERIMENTS.md's shape-fidelity table plus
the ablations.  A predicate returns True when its claim holds.

The goldens pin exact digests, and a deliberate re-pin replaces them
wholesale; these predicates are what keep a re-pin from silently
flipping a conclusion.  ``tests/test_claims.py`` runs every claimed
experiment and asserts :func:`failed_claims` is empty.

Not imported by ``repro.check``: simulations never need it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

Claim = Callable[[Mapping], bool]


def _table01(data: Mapping) -> bool:
    """DDR bus speed falls to 800 MHz at the highest DIMM count."""
    return any(800 in (ddr3, ddr4) for _, ddr3, ddr4 in data["rows"])


def _fig04(data: Mapping) -> bool:
    """Tree > Ring > 0 (chain): the paper's headline topology result."""
    averages = data["averages"]
    return averages["100%-T"] > averages["100%-R"] > 0.0


def _fig05(data: Mapping) -> bool:
    """Under load the chain's network latency (to + from) exceeds its
    in-memory latency on KMEANS, and NW (lowest load) has the largest
    in-memory share of the suite."""
    breakdown = data["breakdown"]
    chain = breakdown["KMEANS"]["100%-C"]
    if not chain["to_memory"] + chain["from_memory"] > chain["in_memory"]:
        return False

    def in_share(workload):
        row = breakdown[workload]["100%-C"]
        total = row["to_memory"] + row["in_memory"] + row["from_memory"]
        return row["in_memory"] / total

    return in_share("NW") >= max(in_share(w) for w in breakdown) - 1e-9


def _fig07(data: Mapping) -> bool:
    """Every tree mix beats the chain on average, and the 50% NVM-L mix
    stays within 8 points of all-DRAM ("some amount of NVM" pays)."""
    averages = data["averages"]
    return (
        all(value > 0 for value in averages.values())
        and averages["50%-T (NVM-L)"] > averages["100%-T"] - 8.0
    )


def _fig10(data: Mapping) -> bool:
    """Distance arbitration wrecks no baseline configuration."""
    return all(value > -10.0 for value in data["averages"].values())


def _fig11(data: Mapping) -> bool:
    """MetaCube is the best 100% topology; skip-list is close to tree."""
    averages = data["averages"]
    return (
        averages["100%-MC"] >= averages["100%-T"] - 1.0
        and abs(averages["100%-SL"] - averages["100%-T"]) < 10.0
    )


def _fig12(data: Mapping) -> bool:
    """Every combined-technique configuration beats the chain."""
    return all(value > 0 for value in data["averages"].values())


def _fig13(data: Mapping) -> bool:
    """Halving the ports degrades the chain; MetaCube suffers no more."""
    averages = data["averages"]
    return averages["100%-C"] < 0.0 and averages["100%-MC"] >= averages["100%-C"]


def _fig14(data: Mapping) -> bool:
    """An NVM configuration suffers most from losing banks."""
    averages = data["averages"]
    worst = min(averages, key=averages.get)
    # A prefix test: "0%" is also a substring of every "100%" label.
    return worst.startswith(("0%", "50%"))


def _fig15(data: Mapping) -> bool:
    """Network energy shrinks with the network, NVM write energy pushes
    the all-NVM chain up, the tree is the cheapest all-DRAM network,
    and the skip-list pays extra network energy for its write paths."""
    energy = data["relative_energy"]
    return (
        energy["0%-C"]["network"] < energy["100%-C"]["network"]
        and energy["0%-C"]["write"] > energy["100%-C"]["write"]
        and energy["100%-T"]["network"] <= energy["100%-C"]["network"]
        and energy["100%-SL"]["network"] >= energy["100%-T"]["network"] - 1.0
    )


def _ablation_arbiters(data: Mapping) -> bool:
    """Distance arbitration regresses no studied configuration badly."""
    return all(row["distance"] > -10.0 for row in data["delta"].values())


def _ablation_interleave(data: Mapping) -> bool:
    """64 B interleaving gets no more row-buffer hits than 256 B."""
    return all(
        rows[64]["row_hit_rate"] <= rows[256]["row_hit_rate"] + 1.0
        for rows in data["grid"].values()
    )


def _ablation_serdes(data: Mapping) -> bool:
    """10 ns SerDes hurts, and hurts the chain (most hops) more than
    the tree: the paper's Section 5 sensitivity statement."""
    slowdown = data["slowdown"]
    return (
        slowdown["100%-C"][10.0] > slowdown["100%-C"][2.0]
        and slowdown["100%-C"][10.0] > slowdown["100%-T"][10.0]
    )


def _ablation_ratio(data: Mapping) -> bool:
    """Every tree mix beats the all-DRAM chain baseline."""
    return all(value > 0 for value in data["averages"].values())


def _ablation_window(data: Mapping) -> bool:
    """The topology benefit exists at small windows."""
    return data["grid"][8]["100%-MC"] > 0


def _ablation_buffers(data: Mapping) -> bool:
    """Starving the chain of buffers cannot help it."""
    chain = data["grid"]["100%-C"]
    return chain[1] <= chain[16] + 3.0


#: experiment id -> {claim name: predicate over that experiment's data}
CLAIMS: Dict[str, Dict[str, Claim]] = {
    "table01": {"table01.ddr_speed_falls_to_800mhz": _table01},
    "fig04": {"fig04.tree_over_ring_over_chain": _fig04},
    "fig05": {"fig05.network_over_array_nw_most_in_memory": _fig05},
    "fig07": {"fig07.nvm_mixes_beat_chain_50pct_competitive": _fig07},
    "fig10": {"fig10.distance_wrecks_no_baseline": _fig10},
    "fig11": {"fig11.metacube_best_skiplist_near_tree": _fig11},
    "fig12": {"fig12.combined_all_beat_chain": _fig12},
    "fig13": {"fig13.fewer_ports_hurt_chain_not_metacube": _fig13},
    "fig14": {"fig14.nvm_worst_with_fewer_banks": _fig14},
    "fig15": {"fig15.energy_tracks_hops_nvm_writes_cost": _fig15},
    "ablation_arbiters": {"ablation_arbiters.distance_wrecks_nothing": _ablation_arbiters},
    "ablation_interleave": {
        "ablation_interleave.64b_no_more_row_hits": _ablation_interleave
    },
    "ablation_serdes": {"ablation_serdes.slow_serdes_hurts_chain_most": _ablation_serdes},
    "ablation_ratio": {"ablation_ratio.tree_mixes_beat_chain": _ablation_ratio},
    "ablation_window": {"ablation_window.metacube_gains_at_window_8": _ablation_window},
    "ablation_buffers": {"ablation_buffers.starving_chain_never_helps": _ablation_buffers},
}


def failed_claims(experiment_id: str, data: Mapping) -> List[str]:
    """Names of ``experiment_id``'s claims that ``data`` violates."""
    return [
        name
        for name, holds in CLAIMS[experiment_id].items()
        if not holds(data)
    ]
