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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any, Dict

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


#: Leaf types returned as-is.  Matched on the *exact* type, so
#: subclasses (an ``IntEnum`` member is an ``int``) take the general
#: branches below exactly as they always have.
_LEAF_TYPES = frozenset({bool, int, float, str, type(None)})


class _Plan:
    """How one dataclass type canonicalizes, built once per type.

    ``fields`` pairs each field name, in definition order, with its
    :class:`dataclasses.Field` when the field is digest-transparent (so
    its default must be checked) and ``None`` otherwise.
    """

    __slots__ = ("name", "fields")

    def __init__(self, cls: type) -> None:
        self.name = cls.__name__
        transparent = _DIGEST_TRANSPARENT.get(self.name, ())
        self.fields = tuple(
            (f.name, f if f.name in transparent else None) for f in fields(cls)
        )


#: ``{dataclass type: plan}``, filled on first sight of each type.
_PLANS: Dict[type, _Plan] = {}


def canonical_tree(value: Any) -> Any:
    """Reduce a dataclass tree to canonical JSON-able primitives.

    Field order comes from the dataclass definition and dict keys are
    sorted, so two structurally equal values always canonicalize to the
    same tree no matter how (or in what order) they were built.
    """
    cls = type(value)
    if cls in _LEAF_TYPES:
        return value
    plan = _PLANS.get(cls)
    if plan is None and is_dataclass(value) and not isinstance(value, type):
        plan = _PLANS[cls] = _Plan(cls)
    if plan is not None:
        tree: Dict[str, Any] = {"__class__": plan.name}
        for name, transparent in plan.fields:
            field_value = getattr(value, name)
            if transparent is not None and _is_default(transparent, field_value):
                continue
            # Most fields are leaves: skip the call for them.
            tree[name] = (
                field_value
                if type(field_value) in _LEAF_TYPES
                else canonical_tree(field_value)
            )
        return tree
    if isinstance(value, dict):
        return {
            str(key): canonical_tree(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical_tree(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def digest_tree(tree: Any) -> str:
    """SHA-256 of a canonical tree's compact JSON encoding."""
    payload = json.dumps(tree, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
                    "config": canonical_tree(self.config),
                    "workload": canonical_tree(self.workload),
                    "requests": self.requests,
                }
            )
            object.__setattr__(self, "_digest", cached)
        return cached

    def label(self) -> str:
        """Human-readable tag for logs and progress output."""
        return f"{self.config.label()}/{self.workload.name}/r{self.requests}"
