"""Tabular result containers for experiments and benchmarks.

Experiments produce small tables (one row per sweep point); benchmarks print
them in the paper-facing format and EXPERIMENTS.md embeds them.  The container
is deliberately plain: ordered column names, list-of-dict rows, loss-free JSON
and a fixed-width markdown renderer for terminals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = ["ResultTable", "format_markdown_table"]


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e5 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_markdown_table(columns: list[str], rows: Iterable[Mapping[str, Any]]) -> str:
    """Render rows as a GitHub-flavoured markdown table (fixed column order)."""
    rendered = [[_format_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) if rendered else len(column)
        for i, column in enumerate(columns)
    ]
    def line(cells: list[str]) -> str:
        padded = [cell.ljust(width) for cell, width in zip(cells, widths, strict=True)]
        return "| " + " | ".join(padded) + " |"

    header = line(columns)
    separator = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    body = [line(cells) for cells in rendered]
    return "\n".join([header, separator, *body])


@dataclass
class ResultTable:
    """An ordered experiment result: title, column order, rows, metadata.

    >>> table = ResultTable(title="demo", columns=["k", "err"])
    >>> table.add_row(k=2, err=1.5)
    >>> table.column("k")
    [2]
    """

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values: Any) -> None:
        """Append a row; unknown keys extend the column order."""
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(dict(values))

    def column(self, name: str) -> list[Any]:
        """Return one column as a list (missing cells are skipped)."""
        return [row[name] for row in self.rows if name in row]

    def to_markdown(self) -> str:
        """Render the table with title and notes for terminal output."""
        parts = [f"### {self.title}", ""]
        parts.append(format_markdown_table(self.columns, self.rows))
        if self.notes:
            parts.extend(["", self.notes])
        return "\n".join(parts)

    def to_json(self) -> str:
        """Loss-free JSON serialization."""
        payload = {
            "title": self.title,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ResultTable":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        return cls(
            title=payload["title"],
            columns=list(payload["columns"]),
            rows=[dict(row) for row in payload["rows"]],
            notes=payload.get("notes", ""),
        )
