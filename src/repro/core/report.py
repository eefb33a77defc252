"""Table rendering: ASCII output and CSV export.

Every experiment driver produces a :class:`Table`; benches print them in
the paper's row/column layout and can additionally persist CSVs for
plotting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import List, Union

from ..errors import AnalysisError

Cell = Union[str, int, float]


@dataclass
class Table:
    """A titled grid of cells with a header row."""

    title: str
    header: List[str]
    rows: List[List[Cell]] = field(default_factory=list)

    def add_row(self, *cells: Cell) -> None:
        """Append one row (must match the header width)."""
        if len(cells) != len(self.header):
            raise AnalysisError(
                f"row has {len(cells)} cells, header has {len(self.header)}"
            )
        self.rows.append(list(cells))

    def column(self, name: str) -> List[Cell]:
        """Extract one column by header name."""
        if name not in self.header:
            raise AnalysisError(f"no column {name!r}")
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Render as aligned ASCII text."""
        return render_table(self)

    def to_csv(self) -> str:
        """Render as CSV text (header first)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.header)
        for row in self.rows:
            writer.writerow(_format_cell(c) for c in row)
        return buffer.getvalue()


def _format_cell(cell: Cell) -> str:
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)


def render_table(table: Table) -> str:
    """Aligned ASCII rendering of a :class:`Table`."""
    formatted = [[_format_cell(c) for c in row] for row in table.rows]
    widths = [
        max(len(table.header[i]), *(len(r[i]) for r in formatted))
        if formatted
        else len(table.header[i])
        for i in range(len(table.header))
    ]
    lines = [table.title, ""]
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(table.header, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
