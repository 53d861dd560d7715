"""Simulation jobs: a hashable unit of work for the runner.

A :class:`SimJob` freezes everything a simulation's outcome depends on —
the full :class:`SystemConfig` tree (which includes the seed), the
:class:`WorkloadSpec`, and the request count — and derives a stable
content digest from it.  Identical jobs hash identically regardless of
how their configs were constructed, so the digest doubles as the
memoization key of :class:`repro.runner.cache.ResultCache` and as the
deduplication key inside a batch.

Jobs are plain frozen dataclasses and therefore picklable, which is what
lets :class:`repro.runner.pool.ParallelRunner` ship them to worker
processes.

Digests hash the text :func:`canonical_json` writes: exactly what
``json.dumps(tree, sort_keys=True, separators=(",", ":"))`` gives for the
value's canonical tree, written directly instead of through a tree.  The
text of each frozen config instance is kept while the instance lives, so
a config shared by many jobs or fleet shards is encoded once.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import MISSING, dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Callable, Dict, Tuple

from repro.config import SystemConfig
from repro.workloads import WorkloadSpec

#: Salt folded into every job digest.  Bump when the simulator's
#: behaviour changes in a way that invalidates previously cached results
#: (the config/workload schema itself is already part of the digest).
#: v2: RAS fault layer (FaultPlan in SystemConfig, availability fields).
#: v3: peer-to-peer copies (p2p_fraction / p2p_pattern knobs, p2p
#: packet kinds and collector aggregates).  v3 also covers the overload
#: layer: its fields are digest-transparent at their defaults (below),
#: so pre-overload digests were never invalidated.
JOB_DIGEST_VERSION = "repro-job-v3"

#: Fields that are *omitted* from the canonical tree while they hold
#: their dataclass default.  This is how an off-by-default feature can
#: add config/workload fields without invalidating every existing digest
#: and cached result: a job that never touches the feature canonicalizes
#: exactly as it did before the fields existed, while any non-default
#: setting enters the tree (and the digest) as usual.
_DIGEST_TRANSPARENT = {
    "SystemConfig": frozenset({"overload"}),
    "WorkloadSpec": frozenset({"arrival", "on_fraction", "on_burst", "skew"}),
    "ObsConfig": frozenset({"attribution_sample", "trace_sample"}),
}


def _is_default(f: Any, value: Any) -> bool:
    """True when a dataclass field holds its declared default value."""
    if f.default is not MISSING:
        return value == f.default
    if f.default_factory is not MISSING:  # type: ignore[misc]
        return value == f.default_factory()
    return False


#: ``json.dumps`` spelling of the floats whose ``repr`` is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_float(value: float) -> str:
    """A float as ``json.dumps`` writes it, NaN and infinities included."""
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: How ``json.dumps`` writes each exact leaf type.  Matched on the
#: *exact* type, so subclasses (an ``IntEnum`` member is an ``int``)
#: take the general branches of :func:`_encode` exactly as they always
#: have.
_LEAVES: Dict[type, Callable[[Any], str]] = {
    str: _encode_str,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _value: "null",
}


class _Plan:
    """How one dataclass type encodes, built once per type.

    ``fields`` lists one ``(prefix, name, transparent)`` entry per JSON
    key in sorted order: the ``"__class__"`` entry has ``name`` None and
    its whole ``"key":value`` text as ``prefix``; a field entry has its
    ``"key":`` text and, when the field is digest-transparent (so its
    default must be checked), its :class:`dataclasses.Field`.
    ``memoize`` is true for frozen types whose instances take weak
    references.
    """

    __slots__ = ("fields", "memoize")

    def __init__(self, cls: type) -> None:
        transparent = _DIGEST_TRANSPARENT.get(cls.__name__, ())
        entries = [("__class__", None, None)] + [
            (f.name, f.name, f if f.name in transparent else None)
            for f in fields(cls)
        ]
        entries.sort(key=lambda entry: entry[0])
        self.fields = tuple(
            (
                _encode_str(key) + ":" + ("" if name else _encode_str(cls.__name__)),
                name,
                field,
            )
            for key, name, field in entries
        )
        self.memoize = (
            cls.__dataclass_params__.frozen and cls.__weakrefoffset__ != 0
        )


#: ``{dataclass type: plan}``, filled on first sight of each type.
_PLANS: Dict[type, _Plan] = {}


class _Memo(weakref.ref):
    """A weak reference to a frozen instance, carrying its JSON text."""

    __slots__ = ("key", "fragment")


#: ``{id(instance): memo}`` for every live frozen, fully immutable
#: dataclass instance encoded so far.  Kept beside the instances, never
#: on them, so pickles, ``vars()``, ``==``, ``hash`` and ``repr`` are
#: untouched.  An entry goes when its instance is freed, and a lookup
#: also checks the reference, so a new object that reuses a dead one's
#: ``id`` is never served its text.  Process-wide on purpose: an entry
#: only repeats what encoding its instance again would give, so no
#: caller can tell it is there.
_MEMO: Dict[int, _Memo] = {}


def _forget(memo: _Memo, memos: Dict[int, _Memo] = _MEMO) -> None:
    # ``memos`` is bound here, not looked up as a global, so instances
    # freed while the interpreter tears modules down are still dropped.
    if memos.get(memo.key) is memo:
        del memos[memo.key]


def _encode(value: Any) -> Tuple[str, bool]:
    """``(canonical JSON of value, whether that text can never change)``.

    Dispatches exactly as the canonical tree always has: exact leaves,
    then dataclass instances (a class object is not one), dicts (keys
    by ``str()``; of keys that collide, the last one wins), lists and
    tuples, leaf subclasses, and ``repr()`` for anything else.  A frozen
    dataclass instance whose fields are all immutable is encoded once
    per instance; equality plays no part, since ``1``, ``1.0`` and
    ``True`` compare equal but encode differently.
    """
    cls = type(value)
    leaf = _LEAVES.get(cls)
    if leaf is not None:
        return leaf(value), True
    plan = _PLANS.get(cls)
    if plan is None and is_dataclass(value) and not isinstance(value, type):
        plan = _PLANS[cls] = _Plan(cls)
    if plan is not None:
        key = id(value)
        memo = _MEMO.get(key)
        if memo is not None and memo() is value:
            return memo.fragment, True
        fixed = plan.memoize
        parts = []
        for prefix, name, transparent in plan.fields:
            if name is None:
                parts.append(prefix)
                continue
            field_value = getattr(value, name)
            if transparent is not None and _is_default(transparent, field_value):
                continue
            # Most fields are leaves or memoized configs: skip the call
            # for them.
            leaf = _LEAVES.get(type(field_value))
            if leaf is not None:
                parts.append(prefix + leaf(field_value))
                continue
            memo = _MEMO.get(id(field_value))
            if memo is not None and memo() is field_value:
                parts.append(prefix + memo.fragment)
                continue
            text, field_fixed = _encode(field_value)
            parts.append(prefix + text)
            fixed = fixed and field_fixed
        text = "{" + ",".join(parts) + "}"
        if fixed:
            memo = _MEMO[key] = _Memo(value, _forget)
            memo.key = key
            memo.fragment = text
        return text, fixed
    if isinstance(value, dict):
        by_key = {str(key): item for key, item in value.items()}
        return "{" + ",".join(
            _encode_str(key) + ":" + _encode(by_key[key])[0]
            for key in sorted(by_key)
        ) + "}", False
    if isinstance(value, (list, tuple)):
        pieces = [_encode(item) for item in value]
        text = "[" + ",".join([piece for piece, _ in pieces]) + "]"
        return text, isinstance(value, tuple) and all(
            [piece_fixed for _, piece_fixed in pieces]
        )
    if isinstance(value, str):
        return _encode_str(value), True
    if isinstance(value, int):
        return int.__repr__(value), True
    if isinstance(value, float):
        return _encode_float(value), True
    return _encode_str(repr(value)), False


def canonical_json(value: Any) -> str:
    """The compact, key-sorted canonical JSON text of any value.

    Field order comes from the dataclass definition and dict keys are
    sorted, so two structurally equal values always encode to the same
    text no matter how (or in what order) they were built.  The text is
    what ``json.dumps(tree, sort_keys=True, separators=(",", ":"))``
    writes for the value's canonical tree, byte for byte.
    """
    return _encode(value)[0]


def canonical_tree(value: Any) -> Any:
    """The value's canonical tree: :func:`canonical_json`, parsed."""
    return json.loads(canonical_json(value))


def digest_tree(value: Any) -> str:
    """SHA-256 of :func:`canonical_json`.

    Canonicalising is idempotent, so a value and its canonical tree
    have the same digest.
    """
    return hashlib.sha256(canonical_json(value).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class SimJob:
    """One simulation to run: frozen config + workload + request count.

    The per-run seed lives inside ``config.seed`` and the workload
    stream derives from it via :func:`repro.sim.derive_seed`, so the job
    is fully self-describing: equal digests imply bit-identical results.
    """

    config: SystemConfig
    workload: WorkloadSpec
    requests: int = 2000

    def digest(self) -> str:
        """Stable content digest over the whole job tree."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            cached = digest_tree(
                {
                    "version": JOB_DIGEST_VERSION,
                    "config": self.config,
                    "workload": self.workload,
                    "requests": self.requests,
                }
            )
            object.__setattr__(self, "_digest", cached)
        return cached

    def label(self) -> str:
        """Human-readable tag for logs and progress output."""
        return f"{self.config.label()}/{self.workload.name}/r{self.requests}"
