"""Plain-text table rendering for experiment output."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table.

    Numbers are right-aligned, text left-aligned; the first column is
    treated as a label column.
    """
    materialized: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            width = widths[index] if index < len(widths) else len(cell)
            if index == 0:
                parts.append(cell.ljust(width))
            else:
                parts.append(cell.rjust(width))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append(fmt_row(row))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
