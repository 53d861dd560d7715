"""Per-hop latency attribution: segment taxonomy and derived views.

With ``config.obs.attribution`` on, every transaction carries a list of
``(label, start_ps, end_ps)`` segments appended by the components it
visits.  Hot-path components intern their labels once at construction
(:func:`segment_code`) and append integer codes instead of strings —
per-event string concatenation was the bulk of attribution's overhead —
and the codes are decoded back to the string taxonomy when a completed
transaction is folded into the collector (:func:`sum_by_label` accepts
either form).  Labels follow a ``<phase>.<stage>[.<where>]`` taxonomy:

============================  =============================================
label                         meaning
============================  =============================================
``req.port``                  coherence point -> memory port crossing
``req.inject``                wait for injection-queue space at the port
``req.queue.<queue>``         router input-queue wait (request path)
``req.retry.<link>``          CRC-failed traversals replayed (RAS)
``req.wire.<link>``           serialization + SerDes + propagation
``mem.xbar.<cube>``           wrong-quadrant crossing penalty
``mem.queue.<controller>``    controller queue wait
``mem.array.<controller>``    bank access (incl. bank-ready wait)
``mem.xfer.stall.<ctrl>``     p2p transfer waits for inject space
``mem.xfer.queue.<queue>``    router input-queue wait (p2p data leg)
``mem.xfer.retry.<link>``     CRC-failed p2p traversals replayed (RAS)
``mem.xfer.wire.<link>``      link traversal (p2p data leg)
``resp.stall.<controller>``   response waits for controller inject space
``resp.queue.<queue>``        router input-queue wait (response path)
``resp.retry.<link>``         CRC-failed traversals replayed (RAS)
``resp.wire.<link>``          link traversal (response path)
``resp.port``                 memory port -> core crossing
``host.timeout.<kind>``       cancelled attempt's span [claim, deadline]
                              (overload; counts toward the ``req`` phase)
``host.retry.<kind>``         retry backoff + re-admission wait
                              (overload; counts toward the ``req`` phase)
============================  =============================================

The segments of one transaction tile its end-to-end latency exactly:
``req.*`` sums to the Fig 5 *to-memory* interval, ``mem.*`` to
*in-memory* and ``resp.*`` to *from-memory*, which is what lets the
paper's three-way split be recomputed as a view over the N-way one
(:func:`three_way_ns`).  Peer-to-peer copies reuse the same tiling: the
``P2P_REQ`` leg is ``req.*``, everything from the source-cube read
through the cube-to-cube ``P2P_XFER`` to the destination write is
``mem.*`` (the data-leg hops carry the ``mem.xfer.*`` labels above),
and the ``P2P_ACK`` leg is ``resp.*``.  Zero-length waits are never recorded, so any
per-transaction residual (``UNATTRIBUTED``) indicates an instrumentation
gap, not rounding.

:class:`repro.results.TransactionCollector` folds each completed
transaction's per-label duration sums into fixed-width histograms, so
every segment exposes mean and tail percentiles (p50/p95/p99).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.stats import Histogram
from repro.units import to_ns

#: Histogram shape for per-segment duration distributions: 4 ns buckets
#: over a ~1 us in-range window; longer waits land in the overflow
#: counter and percentiles clamp to the observed max.
SEGMENT_BUCKET_PS = 4_000
SEGMENT_NUM_BUCKETS = 256

#: Pseudo-segment holding per-transaction time no component claimed.
UNATTRIBUTED = "unattributed"

PHASES = ("req", "mem", "resp")

#: Fig 5 naming for each phase prefix.
PHASE_TO_COMPONENT = {
    "req": "to_memory",
    "mem": "in_memory",
    "resp": "from_memory",
}


def make_segment_histogram() -> Histogram:
    return Histogram(SEGMENT_BUCKET_PS, SEGMENT_NUM_BUCKETS)


# ---------------------------------------------------------------------------
# Segment codebook: process-global interning of labels to small ints.
#
# A component that appends segments on the hot path computes its codes
# once (at construction) and appends ``(code, start_ps, end_ps)``;
# everything downstream of the collector keeps seeing string labels.
# Codes are assigned in first-intern order and are process-local — they
# never cross a process boundary or enter a digest, only labels do.
# ---------------------------------------------------------------------------
_SEGMENT_LABELS: List[str] = []
_SEGMENT_CODES: Dict[str, int] = {}


def segment_code(label: str) -> int:
    """Intern ``label`` and return its stable integer code."""
    code = _SEGMENT_CODES.get(label)
    if code is None:
        code = len(_SEGMENT_LABELS)
        _SEGMENT_LABELS.append(label)
        _SEGMENT_CODES[label] = code
    return code


def sum_by_label(
    segments: Iterable[Tuple[object, int, int]]
) -> Dict[str, int]:
    """Per-label duration sums for one transaction's segment list.

    Accepts integer-coded labels (hot-path appenders) and plain strings
    (cold paths, tests) interchangeably; the result is always keyed by
    label string.  Accumulation happens on the raw keys — int hashing
    is cheaper — and decoding happens once per distinct label.
    """
    sums: Dict[object, int] = {}
    for label, start_ps, end_ps in segments:
        sums[label] = sums.get(label, 0) + (end_ps - start_ps)
    labels = _SEGMENT_LABELS
    out: Dict[str, int] = {}
    for key, total in sums.items():
        if type(key) is int:
            key = labels[key]
        out[key] = out.get(key, 0) + total
    return out


def phase_of(label: str) -> Optional[str]:
    """The ``req``/``mem``/``resp`` phase a segment label belongs to.

    Overload dead time (``host.timeout.*`` backed-off ``host.retry.*``)
    precedes the surviving attempt's arrival at memory, so it counts
    toward ``req`` — the breakdown's to-memory interval spans it by
    construction (``start_ps`` is pinned at the first window grant).
    """
    head = label.split(".", 1)[0]
    if head == "host":
        return "req"
    return head if head in PHASES else None


def category_of(label: str) -> str:
    """``<phase>.<stage>`` — the label with its location detail dropped."""
    parts = label.split(".")
    return ".".join(parts[:2]) if len(parts) > 2 else label


def rollup(
    segment_hists: Mapping[str, Histogram]
) -> Dict[str, Histogram]:
    """Merge per-location segment histograms into per-category ones.

    ``req.queue.n3.from2`` and ``req.queue.host.inject`` both fold into
    ``req.queue``; labels without location detail pass through.  Input
    histograms are not modified.
    """
    merged: Dict[str, Histogram] = {}
    for label in sorted(segment_hists):
        hist = segment_hists[label]
        key = category_of(label)
        into = merged.get(key)
        if into is None:
            into = merged[key] = Histogram(hist.bucket_width, hist.num_buckets)
        into.merge(hist)
    return merged


def three_way_ns(
    segment_hists: Mapping[str, Histogram], transactions: int
) -> Dict[str, float]:
    """The Fig 5 decomposition recomputed from segment attribution.

    Mean nanoseconds per transaction for to/in/from-memory, each phase's
    value being the summed duration of all its segments divided by the
    collector's transaction count (segments a transaction did not incur
    contribute zero, exactly as in the timestamp-based split).
    """
    totals = {phase: 0.0 for phase in PHASES}
    for label, hist in segment_hists.items():
        phase = phase_of(label)
        if phase is not None:
            totals[phase] += hist.stat.total
    count = transactions or 1
    return {
        PHASE_TO_COMPONENT[phase]: to_ns(totals[phase] / count)
        for phase in PHASES
    }


def segment_table_rows(
    segment_hists: Mapping[str, Histogram], transactions: int
) -> List[List[str]]:
    """Rows (category, per-txn mean, mean, p50, p95, p99 — all ns) for
    a rendered per-segment table, categories in phase order."""
    merged = rollup(segment_hists)
    order = {phase: i for i, phase in enumerate(PHASES)}
    count = transactions or 1
    rows: List[List[str]] = []
    for label in sorted(
        merged, key=lambda lb: (order.get(phase_of(lb) or "", 99), lb)
    ):
        hist = merged[label]
        p50, _ = hist.percentile_detail(0.50)
        p95, _ = hist.percentile_detail(0.95)
        p99, clamped = hist.percentile_detail(0.99)
        rows.append(
            [
                label,
                f"{to_ns(hist.stat.total / count):8.1f}",
                f"{to_ns(hist.stat.mean):8.1f}",
                f"{to_ns(p50):8.1f}",
                f"{to_ns(p95):8.1f}",
                f"{to_ns(p99):8.1f}" + ("*" if clamped else ""),
            ]
        )
    return rows
