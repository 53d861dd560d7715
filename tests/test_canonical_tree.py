"""Differential test: the canonical JSON encoder against its definition.

Job and fleet digests are the disk cache's keys, so canonicalisation
must never move a digest byte.  ``reference_canonical_tree`` below is
the straightforward tree definition (one ``is_dataclass`` / ``fields``
call per node), and ``reference_json`` encodes it with ``json.dumps``
as digests always have.  Hypothesis checks :func:`canonical_json`
against that, byte for byte, on random trees that mix exact leaves,
``IntEnum`` and str-enum members, leaf subclasses, class objects,
non-str dict keys, nested containers, and dataclasses whose
digest-transparent fields sit at and off their defaults.

The encoder memoizes the text of frozen, fully immutable dataclass
instances by identity; the last section checks that the memo never
leaks into an instance (pickles, ``vars()``), never outlives one, and
never serves one value's text for another that merely compares equal.
"""

from __future__ import annotations

import copy
import enum
import gc
import json
import math
import pickle
import weakref
from collections import namedtuple
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    InterposerLinkConfig,
    LinkConfig,
    ObsConfig,
    OverloadConfig,
    SystemConfig,
)
from repro.net.packet import PacketKind
from repro.runner.job import _DIGEST_TRANSPARENT, _MEMO, _is_default
from repro.runner.job import SimJob, canonical_json, canonical_tree, digest_tree
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


def reference_json(value: Any) -> str:
    """The reference tree as digests have always encoded it."""
    return json.dumps(
        reference_canonical_tree(value), sort_keys=True, separators=(",", ":")
    )


class Color(enum.IntEnum):
    RED = 1
    GREEN = 2


class Mode(str, enum.Enum):
    """A str-enum: ``str()`` gives ``Mode.FAST``, JSON gives ``fast``."""

    FAST = "fast"
    SLOW = "slów"


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
    st.sampled_from(list(Color) + list(Mode) + list(PacketKind)[:3]),
    st.text(max_size=4).map(Label),
    st.sampled_from([int, Box, SystemConfig, Color]),
    st.just(range(3)),  # no JSON form: falls back to repr()
)

keys = st.one_of(
    st.text(max_size=4),
    st.integers(min_value=-5, max_value=5),
    st.booleans(),
    st.none(),
    st.sampled_from(list(Color) + list(Mode)),
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


@given(trees)
@settings(max_examples=300, deadline=None)
def test_encoder_bytes_equal_reference(value):
    assert canonical_json(value) == reference_json(value)
    # Again with every immutable part of the tree memoized.
    assert canonical_json(value) == reference_json(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: "int", "1": "str"},
        {"1": "str", 1: "int"},
        {True: "bool", "True": "str", None: "none", "None": "str"},
        # str() of an enum member differs across Python versions.
        {Color.RED: "enum", str(Color.RED): "str", str(Mode.FAST): "str",
         Mode.FAST: "enum"},
        {(1, 2): "tuple", "(1, 2)": "str"},
    ],
    ids=["int-then-str", "str-then-int", "bool-none", "enums", "tuple-key"],
)
def test_keys_colliding_under_str(value):
    # Of keys that collide under str(), the last one in iteration order
    # wins, as in the reference tree.
    assert canonical_json(value) == reference_json(value)
    assert len(json.loads(canonical_json(value))) < len(value)
    assert canonical_json(Box(value)) == reference_json(Box(value))


def test_non_finite_floats():
    value = Box(math.nan, (math.inf, -math.inf), extra=(-0.0, 1e308 * 10))
    assert canonical_json(value) == reference_json(value)
    assert "NaN" in canonical_json(value)
    assert "-Infinity" in canonical_json(value)


def test_non_ascii_strings():
    value = {"clé": "naïve ☃", "\U0001F600": ["\u00e9", "\x00\n\"\\"]}
    assert canonical_json(value) == reference_json(value)
    assert canonical_json(value).isascii()


def test_enum_leaves():
    value = Box(Color.GREEN, Mode.SLOW, extra=(PacketKind(0), Mode.FAST))
    assert canonical_json(value) == reference_json(value)
    assert canonical_json(Mode.FAST) == '"fast"'
    assert canonical_json(Color.GREEN) == "2"


def _lanes_job(lanes: Any) -> SimJob:
    return SimJob(SystemConfig(link=LinkConfig(lanes=lanes)), WORKLOAD, 100)


WORKLOAD = WorkloadSpec(
    name="MEMO", read_fraction=0.5, mean_gap_ns=1.0, locality_lines=2.0
)


def test_equal_but_differently_encoded_values_never_share_text():
    # 1, 1.0 and True compare (and hash) equal, so configs holding them
    # do too; a memo keyed by equality would hand one's text to all.
    values = (1, 1.0, True)
    configs = [LinkConfig(lanes=v) for v in values]
    assert configs[0] == configs[1] == configs[2]
    assert len({hash(c) for c in configs}) == 1
    first = [_lanes_job(v) for v in values]
    digests = [job.digest() for job in first]
    assert len(set(digests)) == 3
    for job, value in zip(first, values):
        lanes = json.loads(canonical_json(job.config))["link"]["lanes"]
        assert type(lanes) is type(value)
        assert canonical_json(job.config) == reference_json(job.config)
    # The memo is warm for the first jobs' configs (kept alive above);
    # new equal configs must still encode from their own fields.
    again = [_lanes_job(v).digest() for v in values]
    assert again == digests
    assert [_lanes_job(v).digest() for v in reversed(values)] == digests[::-1]


# ---------------------------------------------------------------------------
# Memo hygiene
# ---------------------------------------------------------------------------
def _dataclass_nodes(value: Any) -> List[Any]:
    """Every dataclass instance in a config tree, parents first."""
    out = []
    if is_dataclass(value) and not isinstance(value, type):
        out.append(value)
        for f in fields(value):
            out.extend(_dataclass_nodes(getattr(value, f.name)))
    elif isinstance(value, (list, tuple)):
        for item in value:
            out.extend(_dataclass_nodes(item))
    return out


def test_digest_leaves_pickles_and_vars_unchanged():
    job = SimJob(SystemConfig(seed=424242), WORKLOAD, 100)
    untouched = copy.deepcopy(job)  # never seen by the encoder
    nodes = _dataclass_nodes(job)
    before = [(dict(vars(node)), repr(node), hash(node)) for node in nodes[1:]]
    config_bytes = pickle.dumps(job.config)
    digest = job.digest()
    assert id(job.config) in _MEMO  # the config really was memoized
    assert [(dict(vars(node)), repr(node), hash(node)) for node in nodes[1:]] == before
    assert pickle.dumps(job.config) == config_bytes
    # Only the job's own digest rides along in its pickle.
    object.__setattr__(untouched, "_digest", digest)
    assert pickle.dumps(job) == pickle.dumps(untouched)
    assert set(vars(pickle.loads(pickle.dumps(job)))) == {
        "config", "workload", "requests", "_digest"
    }


@dataclass(frozen=True)
class Holder:
    """Frozen, but holding a list: its text can change."""

    items: List[int]


def test_frozen_dataclass_holding_a_list_is_never_memoized():
    holder = Holder([1, 2])
    outer = Box(holder, (holder,))
    before = digest_tree(outer), digest_tree(holder)
    assert id(holder) not in _MEMO and id(outer) not in _MEMO
    holder.items.append(3)
    after = digest_tree(outer), digest_tree(holder)
    assert after[0] != before[0] and after[1] != before[1]
    assert canonical_json(outer) == reference_json(outer)


def test_dropped_config_is_collected_and_forgotten():
    config = SystemConfig(seed=31337, link=LinkConfig(lanes=7))
    SimJob(config, WORKLOAD, 100).digest()
    key, ref = id(config), weakref.ref(config)
    assert _MEMO[key]() is config
    del config
    gc.collect()
    assert ref() is None
    assert key not in _MEMO or _MEMO[key]() is not None


def test_reused_ids_never_get_a_dead_instances_text():
    # Each temporary Box dies right after it is encoded, so the next one
    # is usually allocated at the same address (the same id).
    seen = set()
    for value in range(300):
        box = Box(value, extra=(value,))
        seen.add(id(box))
        assert canonical_json(box) == reference_json(box)
        del box
    assert len(seen) < 300  # ids really were reused
