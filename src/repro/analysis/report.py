"""ASCII rendering helpers for the paper's tables (the "figures" of
this repo).

:func:`table` lays rows out like the paper's tables and :func:`bar`
draws Figure 3's bars; :func:`repro.analysis.experiments.render` uses
them to format every experiment's rows, so benchmark output can be
eyeballed against the original.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["table", "bar"]


def table(headers: Sequence[str], rows: Sequence[Sequence],
          title: str = "") -> str:
    """Render a simple fixed-width table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(headers[i]), *(len(r[i]) for r in cells)) if cells
              else len(headers[i]) for i in range(len(headers))]
    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)


def bar(value: float, scale: float, width: int = 40) -> str:
    """A proportional ASCII bar."""
    if scale <= 0:
        return ""
    filled = max(0, min(width, round(value / scale * width)))
    return "#" * filled

