"""Plain-text table emitters used by the benchmark harnesses.

Every benchmark prints the rows/series of the corresponding paper table or
figure. To keep the output diff-able and terminal-friendly we emit simple
fixed-width tables (and optionally CSV) rather than depending on plotting
libraries, which are unavailable offline. :class:`JsonReport` gives the
soak and health reports their one JSON form.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterable, Sequence

from repro.utils.atomicio import atomic_write_text


def _json_default(value):
    """Make numpy scalars (and anything else odd) JSON-serialisable."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def format_fixed(value, width: int = 10, precision: int = 3) -> str:
    """Format ``value`` right-aligned in ``width`` columns.

    Floats get ``precision`` digits; ``None`` renders as ``-`` (the paper's
    "missing bar" for engines that fail on a topology).
    """
    if value is None:
        return "-".rjust(width)
    if isinstance(value, bool):
        return str(value).rjust(width)
    if isinstance(value, float):
        return f"{value:.{precision}f}".rjust(width)
    return str(value).rjust(width)


class Table:
    """Fixed-width table accumulator.

    >>> t = Table(["topo", "eBB"], title="demo")
    >>> t.add_row(["ring", 0.5])
    >>> print(t.render())  # doctest: +ELLIPSIS
    demo...
    """

    def __init__(self, columns: Sequence[str], title: str = "", precision: int = 3):
        self.columns = list(columns)
        self.title = title
        self.precision = precision
        self.rows: list[list[object]] = []

    def add_row(self, row: Iterable[object]) -> None:
        row = list(row)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def _widths(self) -> list[int]:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(format_fixed(cell, 0, self.precision).strip()))
        return [w + 2 for w in widths]

    def render(self) -> str:
        widths = self._widths()
        out = io.StringIO()
        if self.title:
            out.write(self.title + "\n")
        header = "".join(c.rjust(w) for c, w in zip(self.columns, widths))
        out.write(header + "\n")
        out.write("-" * len(header) + "\n")
        for row in self.rows:
            out.write(
                "".join(format_fixed(c, w, self.precision) for c, w in zip(row, widths)) + "\n"
            )
        return out.getvalue()

    def to_json(self, indent: int | None = 2) -> str:
        """Machine-readable form: rows as column-keyed objects (the CLI's
        ``--json`` output mode)."""
        payload = {
            "title": self.title,
            "columns": self.columns,
            "rows": [dict(zip(self.columns, row)) for row in self.rows],
        }
        return json.dumps(payload, indent=indent, default=_json_default)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(
                ",".join("" if c is None else str(c) for c in row)
            )
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.render()


class JsonReport:
    """``to_json`` and ``save`` for a report class that defines ``to_dict``."""

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path) -> None:
        """Atomically write the report as JSON."""
        atomic_write_text(path, self.to_json() + "\n")
