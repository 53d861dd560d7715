"""Differential test: ``canonical_tree`` against its original definition.

Job and fleet digests are the disk cache's keys, so canonicalisation
must never move a digest byte.  ``reference_canonical_tree`` below is
the straightforward definition the per-type plans replaced (one
``is_dataclass`` / ``fields`` call per node); hypothesis drives both
through :func:`digest_tree` on random trees that mix exact leaves,
``IntEnum`` members, leaf subclasses, class objects, non-str dict keys,
nested containers, and dataclasses whose digest-transparent fields sit
at and off their defaults.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    InterposerLinkConfig,
    ObsConfig,
    OverloadConfig,
    SystemConfig,
)
from repro.net.packet import PacketKind
from repro.runner.job import _DIGEST_TRANSPARENT, _is_default
from repro.runner.job import canonical_tree, digest_tree
from repro.workloads import WorkloadSpec


def reference_canonical_tree(value: Any) -> Any:
    """The original per-node definition, kept verbatim as the oracle."""
    if is_dataclass(value) and not isinstance(value, type):
        transparent = _DIGEST_TRANSPARENT.get(type(value).__name__, ())
        tree: Dict[str, Any] = {"__class__": type(value).__name__}
        for f in fields(value):
            field_value = getattr(value, f.name)
            if f.name in transparent and _is_default(f, field_value):
                continue
            tree[f.name] = reference_canonical_tree(field_value)
        return tree
    if isinstance(value, dict):
        return {
            str(key): reference_canonical_tree(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [reference_canonical_tree(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Label(str):
    """A leaf subclass: not an exact leaf type, same JSON."""


Pair = namedtuple("Pair", "left right")


@dataclass(frozen=True)
class Box:
    """A plain dataclass carrying arbitrary children."""

    first: Any
    second: Any = None
    extra: Tuple[Any, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class BigBox(Box):
    """A dataclass subclass (its plan must include inherited fields)."""

    third: Any = 0


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(list(Color) + list(PacketKind)[:3]),
    st.text(max_size=4).map(Label),
    st.sampled_from([int, Box, SystemConfig, Color]),
    st.just(range(3)),  # no JSON form: falls back to repr()
)

keys = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Color)),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


def _maybe(default: Any, other: st.SearchStrategy) -> st.SearchStrategy:
    """A transparent field's value: at its default or drawn off it."""
    return st.one_of(st.just(default), other)


obs_configs = st.builds(
    ObsConfig,
    attribution=st.booleans(),
    attribution_sample=_maybe(1, st.integers(1, 8)),
    trace_sample=_maybe(1, st.integers(1, 8)),
)

system_configs = st.builds(
    SystemConfig,
    obs=obs_configs,
    overload=_maybe(
        OverloadConfig(), st.builds(OverloadConfig, deadline_ps=st.integers(0, 9))
    ),
    failed_links=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=2
    ).map(tuple),
    interposer_link=st.just(InterposerLinkConfig()),
)

workloads = st.builds(
    WorkloadSpec,
    name=st.text(min_size=1, max_size=4),
    read_fraction=st.floats(0.0, 1.0),
    mean_gap_ns=st.floats(0.0, 10.0),
    locality_lines=st.floats(1.0, 8.0),
    arrival=_maybe("closed", st.sampled_from(["poisson", "onoff"])),
    on_fraction=_maybe(1.0, st.floats(0.1, 0.9)),
    on_burst=_maybe(32.0, st.floats(1.0, 64.0)),
    skew=_maybe(0.0, st.floats(0.0, 0.99)),
)


def _extend(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Box, children, children, st.lists(children, max_size=2).map(tuple)),
        st.builds(BigBox, children, children, third=children),
    )


trees = st.recursive(
    st.one_of(leaves, system_configs, workloads, obs_configs),
    _extend,
    max_leaves=12,
)


@given(trees)
@settings(max_examples=300, deadline=None)
def test_digest_tree_agrees_with_reference(value):
    assert digest_tree(canonical_tree(value)) == digest_tree(
        reference_canonical_tree(value)
    )


@given(system_configs, workloads)
@settings(max_examples=60, deadline=None)
def test_config_trees_equal_reference(config, workload):
    # Configs hold no NaN, so the trees themselves compare equal too.
    for value in (config, workload, (config, workload)):
        assert canonical_tree(value) == reference_canonical_tree(value)


def test_class_objects_are_not_planned():
    # A dataclass *class* is a value like any other: it reprs, it is not
    # canonicalized as an instance of itself.
    assert canonical_tree(SystemConfig) == repr(SystemConfig)
    assert canonical_tree([Box, Color]) == [repr(Box), repr(Color)]
