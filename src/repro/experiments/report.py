"""Rendering utilities: ASCII tables, CSV export, ASCII line plots.

All experiment generators produce plain data structures; this module turns
them into the artifacts a terminal user or a CI log can read.  No plotting
dependency is required (the environment is offline).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigError
from ..lab.spec import dump_json

__all__ = [
    "Table",
    "ascii_plot",
    "table_to_payload",
    "table_from_payload",
    "render_json",
]


@dataclass
class Table:
    """A titled grid of cells with optional per-cell shading marks."""

    title: str
    col_labels: list[str]
    row_labels: list[str]
    cells: list[list[str]]
    row_header: str = ""

    def __post_init__(self) -> None:
        if len(self.cells) != len(self.row_labels):
            raise ConfigError("cells rows must match row_labels")
        for row in self.cells:
            if len(row) != len(self.col_labels):
                raise ConfigError("cells cols must match col_labels")

    def render(self) -> str:
        """Fixed-width ASCII rendering."""
        widths = [max(len(self.row_header), *(len(r) for r in self.row_labels))]
        for j, label in enumerate(self.col_labels):
            w = max(len(label), *(len(row[j]) for row in self.cells)) if self.cells else len(label)
            widths.append(w)
        out = io.StringIO()
        out.write(self.title + "\n")
        header = [self.row_header.rjust(widths[0])] + [
            lbl.rjust(widths[j + 1]) for j, lbl in enumerate(self.col_labels)
        ]
        line = "  ".join(header)
        out.write(line + "\n")
        out.write("-" * len(line) + "\n")
        for rlabel, row in zip(self.row_labels, self.cells):
            parts = [rlabel.rjust(widths[0])] + [
                cell.rjust(widths[j + 1]) for j, cell in enumerate(row)
            ]
            out.write("  ".join(parts) + "\n")
        return out.getvalue()

    def to_csv(self) -> str:
        """Comma-separated export (header row + data rows)."""
        out = io.StringIO()
        out.write(",".join([self.row_header] + self.col_labels) + "\n")
        for rlabel, row in zip(self.row_labels, self.cells):
            out.write(",".join([rlabel] + row) + "\n")
        return out.getvalue()


def table_to_payload(table: Table) -> dict:
    """Plain-data form of a rendered table (for repro.lab payloads)."""
    return {
        "title": table.title,
        "col_labels": list(table.col_labels),
        "row_labels": list(table.row_labels),
        "cells": [list(row) for row in table.cells],
        "row_header": table.row_header,
    }


def table_from_payload(doc: dict) -> Table:
    """Rebuild a :class:`Table` from its payload form."""
    return Table(
        title=doc["title"],
        col_labels=list(doc["col_labels"]),
        row_labels=list(doc["row_labels"]),
        cells=[list(row) for row in doc["cells"]],
        row_header=doc["row_header"],
    )


def render_json(payload: dict) -> str:
    """Canonical JSON rendering shared by every registered spec."""
    return dump_json(payload, indent=1, sort_keys=True) + "\n"


def ascii_plot(
    series: dict[str, Sequence[tuple[float, float]]],
    width: int = 72,
    height: int = 20,
    title: str = "",
    x_label: str = "x",
    y_label: str = "y",
    hline: float | None = None,
    hline_label: str = "",
) -> str:
    """Plot named (x, y) series on a character grid.

    Each series gets a distinct marker; an optional horizontal reference
    line (e.g. the 2 GB device budget) is drawn with ``=``.
    """
    pts = [(x, y) for s in series.values() for x, y in s]
    if not pts:
        return f"{title}\n(no data)\n"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    if hline is not None:
        ys.append(hline)
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, max(0, round((x - x_min) / (x_max - x_min) * (width - 1))))

    def to_row(y: float) -> int:
        return min(height - 1, max(0, round((y_max - y) / (y_max - y_min) * (height - 1))))

    if hline is not None:
        r = to_row(hline)
        for c in range(width):
            grid[r][c] = "="

    markers = "ox+*#@%&"
    legend = []
    for i, (name, data) in enumerate(series.items()):
        mark = markers[i % len(markers)]
        legend.append(f"{mark}={name}")
        for x, y in data:
            grid[to_row(y)][to_col(x)] = mark

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write(
        f"{y_label}: {y_min:.3g} .. {y_max:.3g}"
        + (f"   ({hline_label}: '=' at {hline:.3g})" if hline is not None else "")
        + "\n"
    )
    for row in grid:
        out.write("|" + "".join(row) + "\n")
    out.write("+" + "-" * width + "\n")
    out.write(f" {x_label}: {x_min:.3g} .. {x_max:.3g}\n")
    out.write(" " + "  ".join(legend) + "\n")
    return out.getvalue()
