"""CSV / JSON / SVG emitters: formats, schema, numeric fidelity."""

import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest

from qsemimarkov import (
    DomainError,
    JSON_SCHEMA,
    ResultTable,
    to_csv,
    to_json,
    to_svg,
)
from qsemimarkov import emitters


def _table(**overrides):
    base = dict(
        command="rate",
        config={"s": 1.0, "p": 3.0, "grid": 5, "mode": "paper",
                "flag": True},
        columns={
            "t": np.linspace(0.0, 1.0, 5),
            "gamma": np.array([0.0, 1.0 / 3.0, np.nan, -2.5, 1e-12]),
        },
        metadata={"version": "0.1.0", "poles": 1},
    )
    base.update(overrides)
    return ResultTable(**base)


# ------------------------------------------------------------- validation

def test_table_validation():
    with pytest.raises(DomainError):
        _table(columns={})
    with pytest.raises(DomainError):
        _table(columns={"t": np.zeros((2, 2))})
    with pytest.raises(DomainError):
        _table(columns={"t": np.zeros(3), "y": np.zeros(4)})


# -------------------------------------------------------------------- csv

def test_csv_layout():
    text = to_csv(_table(metadata={"version": "0.1.0", "poles": 1,
                                   "defaults_applied": ""}))
    lines = text.splitlines()
    assert lines[0] == "# command: rate"
    assert "# config.s: 1" in lines
    assert "# config.mode: paper" in lines
    assert "# config.flag: true" in lines
    assert "# meta.version: 0.1.0" in lines
    assert "# meta.poles: 1" in lines
    assert "# meta.defaults_applied:" in lines  # no trailing blank
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "t,gamma"
    rows = lines[header_idx + 1:]
    assert len(rows) == 5
    assert rows[1].split(",")[1] == "0.333333333333"  # 12 significant digits
    assert rows[2].split(",")[1] == "nan"
    assert rows[4].split(",")[1] == "1e-12"
    assert text.endswith("\n")


# ------------------------------------------------------------------- json

def test_json_schema_is_well_formed():
    jsonschema.Draft7Validator.check_schema(JSON_SCHEMA)


def test_json_document_validates_and_round_trips():
    doc = json.loads(to_json(_table()))
    jsonschema.validate(doc, JSON_SCHEMA)
    assert doc["command"] == "rate"
    assert doc["config"]["p"] == 3.0
    assert doc["config"]["flag"] is True
    assert doc["metadata"]["poles"] == 1
    got = doc["columns"]["gamma"]
    assert got[1] == pytest.approx(1.0 / 3.0)
    assert got[2] is None  # nan serialized as null
    assert doc["columns"]["t"] == pytest.approx(list(np.linspace(0, 1, 5)))


def test_json_rejects_nothing_but_emits_null_for_inf():
    table = _table(columns={"t": np.array([0.0, 1.0]),
                            "y": np.array([np.inf, -np.inf])})
    doc = json.loads(to_json(table))
    assert doc["columns"]["y"] == [None, None]
    jsonschema.validate(doc, JSON_SCHEMA)


def test_json_metadata_none_and_nested():
    table = _table(metadata={"first": None, "pair": (0.1, 0.2)})
    doc = json.loads(to_json(table))
    assert doc["metadata"]["first"] is None
    assert doc["metadata"]["pair"] == [0.1, 0.2]


# -------------------------------------------------------------------- svg

def _polylines(svg: str):
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.tag.endswith("polyline")]


def test_svg_structure_and_numeric_fidelity():
    x = np.linspace(0.0, 2.0, 7)
    y1 = np.sin(x) / 3.0
    y2 = np.cos(x) * 1e-3
    table = _table(columns={"t": x, "a": y1, "b": y2})
    svg = to_svg(table)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("width") == "720" and root.get("height") == "480"
    polys = _polylines(svg)
    assert len(polys) == 2
    # points carry the data at 12 significant digits, same as the CSV
    fmt = "{:.12g}".format
    for poly, ys in zip(polys, (y1, y2)):
        pts = [pair.split(",") for pair in poly.get("points").split()]
        assert [p[0] for p in pts] == [fmt(v) for v in x]
        assert [p[1] for p in pts] == [fmt(v) for v in ys]
        assert poly.get("vector-effect") == "non-scaling-stroke"
    # legend mentions each series, axis label mentions the abscissa
    assert ">a</text>" in svg and ">b</text>" in svg
    assert ">t</text>" in svg


def test_svg_splits_series_at_non_finite_samples():
    x = np.linspace(0.0, 1.0, 6)
    for y, runs in (
        (np.array([0.0, 1.0, np.nan, 2.0, 3.0, np.inf]), [2, 2]),
        (np.array([np.nan, 1.0, 2.0, -np.inf, np.nan, 3.0]), [2, 1]),
        (np.full(6, np.nan), []),
    ):
        svg = to_svg(_table(columns={"t": x, "y": y}))
        assert [len(poly.get("points").split())
                for poly in _polylines(svg)] == runs


def test_svg_title_defaults_to_command():
    svg = to_svg(_table(columns={"t": np.arange(3.0), "y": np.arange(3.0)}))
    assert ">rate</text>" in svg


def test_svg_degenerate_ranges_still_render():
    svg = to_svg(_table(columns={"t": np.zeros(4), "y": np.ones(4)}))
    assert len(_polylines(svg)) == 1


def test_svg_needs_a_series():
    with pytest.raises(DomainError):
        to_svg(_table(columns={"t": np.arange(4.0)}))


# --------------------------------------- block formatting against per cell

# the 12-digit edge: each pair straddles a rounding of the 12th digit, a
# carry into a new decade, or %g's switch to exponent form (exponent < -4
# or >= 12)
_EDGES = [0.1234567890125, 0.1234567890135, 9.999999999995, 9.99999999999499,
          999999999999.5, 999999999999.4, 1e12, 999999999999.9999, 1e-4,
          9.99999999999e-5, 9.999999999995e-5, 123456789012.5, 2.5e-7,
          1.0000000000005, 0.99999999999949]
_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
            2.2250738585072014e-308, 2.225073858507201e-308, 1e308, -1e308,
            1.7976931348623157e308, -1.7976931348623157e308]


def _values(n, seed=0):
    """n values: the special and edge values with their float neighbours,
    then random magnitudes over the whole float range, with both signs."""
    base = np.array(_SPECIAL + _EDGES + [-v for v in _EDGES])
    with np.errstate(over="ignore"):  # past the largest float is inf
        near = np.concatenate([base, np.nextafter(base, np.inf),
                               np.nextafter(base, -np.inf)])
    rng = np.random.default_rng(seed)
    rand = (rng.choice([-1.0, 1.0], n) * rng.random(n)
            * 10.0 ** rng.integers(-320, 308, n))
    return np.concatenate([near, rand])[:n]


def _csv_per_cell(table):
    """The CSV as it was formatted one cell per call."""
    lines = to_csv(table).splitlines()
    head = lines[:next(i for i, line in enumerate(lines)
                       if not line.startswith("#")) + 1]
    cols = [np.asarray(c, dtype=float) for c in table.columns.values()]
    rows = [",".join("{:.12g}".format(v) for v in row) for row in zip(*cols)]
    return "\n".join(head + rows) + "\n"


def _json_per_value(table):
    """The JSON as it was built one value per call."""
    doc = json.loads(to_json(table))
    doc["columns"] = {name: [float(v) if np.isfinite(v) else None
                             for v in np.asarray(col, dtype=float)]
                      for name, col in table.columns.items()}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("n_rows, n_cols", [
    (0, 1), (0, 3), (1, 1), (7, 1), (100, 3),
    (emitters._BLOCK, 2), (2 * emitters._BLOCK + 1, 2)])
def test_blocks_print_the_per_cell_bytes(n_rows, n_cols):
    """CSV rows, JSON columns and SVG points equal those of the per-value
    formatting on every special, subnormal, huge and rounding-edge value,
    for an empty table, one column, and tables of one and of several
    blocks."""
    vals = _values(n_rows * n_cols).reshape(n_cols, n_rows)
    table = _table(columns={f"c{j}": vals[j] for j in range(n_cols)})
    csv = to_csv(table)
    assert csv == _csv_per_cell(table)
    assert to_json(table) == _json_per_value(table)
    if n_cols < 2:
        return
    # the chart's data range must be finite: values past 1e300 shrink
    big = np.isfinite(vals) & (np.abs(vals) >= 1e300)
    vals = np.where(big, vals * 1e-10, vals)
    svg = to_svg(_table(columns={f"c{j}": vals[j] for j in range(n_cols)}))
    fmt = "{:.12g}".format
    want = []
    x = vals[0]
    for y in vals[1:]:
        ok = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
        runs = np.split(ok, np.flatnonzero(np.diff(ok) > 1) + 1)
        want += [" ".join(f"{fmt(x[i])},{fmt(y[i])}" for i in run)
                 for run in runs if run.size]
    assert [poly.get("points") for poly in _polylines(svg)] == want
