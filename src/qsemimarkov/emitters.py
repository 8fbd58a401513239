"""Serialization of tabular results to CSV, JSON, and standalone SVG.

Every command produces a :class:`ResultTable`: named, equal-length numeric
columns plus the resolved configuration and scalar metadata. The three
emitters render the same numbers:

- CSV leads with ``# command:``, ``# config.<key>:`` and ``# meta.<key>:``
  comment lines, then a header row and data at 12 significant digits
  (scalars in comment lines too; a list there prints its floats by repr).
- JSON mirrors the table as an object validating against ``JSON_SCHEMA``;
  floats print by repr, their shortest round-trip form; non-finite as null.
- SVG draws one polyline per dependent column. The polylines live in a
  group whose affine transform maps data coordinates to pixels, so the
  numeric content of the ``points`` attributes is the same 12-digit data
  the CSV carries.

CSV rows and SVG points are formatted ``_BLOCK`` rows at a time, one
``%``-format call per block: no Python call per cell, and no list of every
cell at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from html import escape
from typing import Iterator, Mapping

import numpy as np

from .errors import DomainError

__all__ = ["ResultTable", "to_csv", "to_json", "to_svg", "JSON_SCHEMA"]

_FMT = "%.12g"
_BLOCK = 10_000  # rows per formatting call


@dataclass(frozen=True)
class ResultTable:
    """Named numeric columns with provenance.

    :param command: name of the operation that produced the table.
    :param config: resolved settings (flat mapping of scalars/strings).
    :param columns: ordered mapping of equal-length 1-D numeric arrays; the
        first column is the abscissa for plotting.
    :param metadata: scalar result values and run information.
    """

    command: str
    config: Mapping[str, object]
    columns: Mapping[str, np.ndarray]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.columns:
            raise DomainError("a result table needs at least one column")
        lengths = set()
        for name, col in self.columns.items():
            arr = np.asarray(col)
            if arr.ndim != 1:
                raise DomainError(f"column {name!r} is not 1-D")
            lengths.add(arr.size)
        if len(lengths) != 1:
            raise DomainError(f"columns have mixed lengths {sorted(lengths)}")


def _num(x: object) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _FMT % float(x)
    return str(x)


def _blocks(cols: list[np.ndarray], sep: str) -> Iterator[str]:
    """The rows of equal-length columns, cells joined by "," and rows by
    ``sep``, at 12 significant digits: one string per ``_BLOCK`` rows."""
    row = ",".join([_FMT] * len(cols))
    for start in range(0, cols[0].size, _BLOCK):
        block = np.column_stack([c[start:start + _BLOCK] for c in cols])
        yield sep.join([row] * len(block)) % tuple(block.ravel().tolist())


def to_csv(table: ResultTable) -> str:
    """Render the table as CSV with # comment lines for provenance."""
    lines = [f"# command: {table.command}"]
    for prefix, entries in (("config", table.config),
                            ("meta", table.metadata)):
        for key, value in entries.items():
            text = _num(value)  # an empty value leaves no trailing blank
            lines.append(f"# {prefix}.{key}: {text}" if text
                         else f"# {prefix}.{key}:")
    names = list(table.columns)
    lines.append(",".join(names))
    cols = [np.asarray(table.columns[n], dtype=float) for n in names]
    lines.extend(_blocks(cols, "\n"))
    lines.append("")  # the closing newline
    return "\n".join(lines)


JSON_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "result-table",
    "type": "object",
    "required": ["command", "config", "metadata", "columns"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "config": {"type": "object"},
        "metadata": {"type": "object"},
        "columns": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "array",
                "items": {"type": ["number", "null"]},
            },
        },
    },
}


def _jsonable(value: object) -> object:
    """Coerce to JSON-safe values; non-finite floats become null."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return bool(value) if value is not None else None
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _json_column(col: np.ndarray) -> list:
    """A column as a list of floats, with null at non-finite values."""
    arr = np.asarray(col, dtype=float)
    values = arr.tolist()
    for i in np.flatnonzero(~np.isfinite(arr)).tolist():
        values[i] = None
    return values


def to_json(table: ResultTable) -> str:
    """Render the table as a JSON document matching ``JSON_SCHEMA``."""
    doc = {
        "command": table.command,
        "config": _jsonable(dict(table.config)),
        "metadata": _jsonable(dict(table.metadata)),
        "columns": {name: _json_column(col)
                    for name, col in table.columns.items()},
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 72, 24, 40, 56  # plot margins


def _finite_range(arrs: list[np.ndarray]) -> tuple[float, float]:
    vals = np.concatenate([a[np.isfinite(a)] for a in arrs]) if arrs else np.array([])
    if vals.size == 0:
        return 0.0, 1.0
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _segments(x: np.ndarray, y: np.ndarray) -> list[slice]:
    """Split a series at non-finite samples; returns the runs as slices."""
    ok = np.concatenate([[False], np.isfinite(x) & np.isfinite(y), [False]])
    edges = np.flatnonzero(np.diff(ok)).tolist()  # alternating starts, ends
    return [slice(a, b) for a, b in zip(edges[::2], edges[1::2])]


def to_svg(table: ResultTable) -> str:
    """Render the table as a standalone SVG line chart.

    The first column is the abscissa; every other column becomes one
    polyline. Points are written in data coordinates (12 significant
    digits) inside a group carrying the data-to-pixel affine transform, so
    the numbers in the file equal the CSV columns. Non-finite samples split
    a series into separate polyline segments.
    """
    names = list(table.columns)
    if len(names) < 2:
        raise DomainError("an SVG chart needs an abscissa and >= 1 series")
    x = np.asarray(table.columns[names[0]], dtype=float)
    series = {n: np.asarray(table.columns[n], dtype=float) for n in names[1:]}

    x_lo, x_hi = _finite_range([x])
    y_lo, y_hi = _finite_range(list(series.values()))
    sx = (_W - _ML - _MR) / (x_hi - x_lo)
    sy = -(_H - _MT - _MB) / (y_hi - y_lo)  # y grows upward in data space
    tx = _ML - sx * x_lo
    ty = (_H - _MB) - sy * y_lo

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    out.append(
        f'<text x="{_W / 2:g}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">'
        f'{escape(table.command, quote=False)}</text>'
    )
    # axes
    out.append(
        f'<path d="M {_ML} {_MT} V {_H - _MB} H {_W - _MR}" fill="none" '
        'stroke="black" stroke-width="1"/>'
    )
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = tx + sx * xv
        yp = ty + sy * yv
        out.append(
            f'<line x1="{xp:.2f}" y1="{_H - _MB}" x2="{xp:.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        out.append(
            f'<text x="{xp:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_num(float(f"{xv:.6g}"))}</text>'
        )
        out.append(
            f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" '
            'stroke="black"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{yp:.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" '
            f'font-size="11">{_num(float(f"{yv:.6g}"))}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:g}" y="{_H - 16}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">'
        f'{escape(names[0], quote=False)}</text>'
    )
    # series polylines in data coordinates
    out.append(
        f'<g transform="translate({tx:.6f} {ty:.6f}) scale({sx:.6f} {sy:.6f})" '
        'fill="none" stroke-width="1.5" stroke-linejoin="round">'
    )
    for k, (name, y) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        for seg in _segments(x, y):
            pts = " ".join(_blocks([x[seg], y[seg]], " "))
            out.append(
                f'<polyline stroke="{color}" vector-effect="non-scaling-stroke" '
                f'points="{pts}"/>'
            )
    out.append("</g>")
    # legend
    for k, name in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        yp = _MT + 14 + 16 * k
        out.append(
            f'<line x1="{_W - _MR - 120}" y1="{yp - 4}" x2="{_W - _MR - 96}" '
            f'y2="{yp - 4}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_W - _MR - 90}" y="{yp}" font-family="sans-serif" '
            f'font-size="12">{escape(name, quote=False)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
