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
    text = to_csv(_table())
    lines = text.splitlines()
    assert lines[0] == "# command: rate"
    assert "# config.s: 1" in lines
    assert "# config.mode: paper" in lines
    assert "# config.flag: true" in lines
    assert "# meta.version: 0.1.0" in lines
    assert "# meta.poles: 1" in lines
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
