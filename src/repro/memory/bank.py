"""A single memory bank: decoupled array and row-buffer resources.

Two occupancy windows model the paper's technology assumptions:

* ``array_busy_until`` — the cell array: activations (row misses) wait
  for it; it covers tRAS and the write-recovery time tWR (320 ns for
  PCM, Table 2).
* ``buffer_busy_until`` — the row-buffer / column path: row-buffer hits
  only wait for this short window.  This realizes the "decoupled
  sensing and buffering" advantage of NVMs (Section 2.4): reads hitting
  an open row proceed while a slow array write completes behind them.

A bank may hold several open rows (``num_row_buffers``): DRAM has one,
PCM-style NVM several (buffer reorganization, Lee et al. ISCA'09 — the
paper's reference [28]).  Rows are evicted LRU.

Banks are created on first touch: a :class:`~repro.memory.controller.
QuadrantController` holds ``None`` for every bank no request has reached
yet, and a new bank starts from the busy windows that refresh alone would
have given it (:func:`refreshed_windows`, tracked per refresh group).  A
short job on a 4,096-bank system then builds only the few hundred banks
it serves.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple


class Bank:
    __slots__ = (
        "array_busy_until",
        "buffer_busy_until",
        "num_row_buffers",
        "_open_rows",
        "accesses",
        "row_hits",
    )

    def __init__(self, num_row_buffers: int = 1) -> None:
        if num_row_buffers < 1:
            raise ValueError("need at least one row buffer")
        self.array_busy_until = 0
        self.buffer_busy_until = 0
        self.num_row_buffers = num_row_buffers
        self._open_rows: "OrderedDict[int, None]" = OrderedDict()
        self.accesses = 0
        self.row_hits = 0

    # -- scheduling queries ----------------------------------------------
    def would_hit(self, row: int) -> bool:
        return row in self._open_rows

    @property
    def open_row(self):
        """Most recently used open row (None if all buffers are closed)."""
        if not self._open_rows:
            return None
        return next(reversed(self._open_rows))

    @property
    def any_row_open(self) -> bool:
        return bool(self._open_rows)

    @property
    def buffers_full(self) -> bool:
        return len(self._open_rows) >= self.num_row_buffers

    def earliest_start(self, now_ps: int, row: int) -> int:
        """Earliest time an access to ``row`` could begin."""
        if self.would_hit(row):
            return max(now_ps, self.buffer_busy_until)
        return max(now_ps, self.array_busy_until, self.buffer_busy_until)

    def ready_for(self, now_ps: int, row: int) -> bool:
        return self.earliest_start(now_ps, row) <= now_ps

    # -- state updates ------------------------------------------------------
    def note_access(self, row: int, hit: bool) -> None:
        self.accesses += 1
        if hit:
            self.row_hits += 1
            self._open_rows.move_to_end(row)
        else:
            if self.buffers_full:
                self._open_rows.popitem(last=False)  # evict LRU
            self._open_rows[row] = None

    def push_array_busy(self, until_ps: int) -> None:
        if until_ps > self.array_busy_until:
            self.array_busy_until = until_ps

    def push_buffer_busy(self, until_ps: int) -> None:
        if until_ps > self.buffer_busy_until:
            self.buffer_busy_until = until_ps

    def refresh(self, now_ps: int, duration_ps: int) -> None:
        """Refresh closes the row buffers and occupies the whole bank."""
        self.array_busy_until, self.buffer_busy_until = refreshed_windows(
            self.array_busy_until, self.buffer_busy_until, now_ps, duration_ps
        )
        self._open_rows.clear()

    # kept for compatibility with older call sites/tests
    @property
    def busy_until(self) -> int:
        return max(self.array_busy_until, self.buffer_busy_until)


def refreshed_windows(
    array_busy_until: int, buffer_busy_until: int, now_ps: int, duration_ps: int
) -> Tuple[int, int]:
    """``(array_busy_until, buffer_busy_until)`` after a refresh at ``now_ps``.

    The one definition of refresh timing: :meth:`Bank.refresh` applies it
    to a live bank, and the controller applies it to each refresh group's
    shadow windows, the state a bank no access has touched would hold.
    """
    array_busy_until = max(now_ps, array_busy_until) + duration_ps
    return array_busy_until, max(buffer_busy_until, array_busy_until)
