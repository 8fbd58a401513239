"""End-to-end CLI tests: exit codes, formats, config files, determinism."""

import argparse
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qsemimarkov import (
    DephasingSemiMarkov,
    JSON_SCHEMA,
    coherence_zeros,
    q_of_t,
)
from qsemimarkov.cli import build_parser, run

T_STAR = float(coherence_zeros(DephasingSemiMarkov(s=1.0, p=3.0), 1.0)[0])


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_out(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    doc = json.loads(out)
    jsonschema.validate(doc, JSON_SCHEMA)
    return doc


# ------------------------------------------------------------------- rate

def test_rate_csv_layout_and_defaults(capsys):
    code, out, err = _run(capsys, ["rate", "--p", "0.1", "--grid", "5",
                                   "--t-max", "2"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# command: rate"
    assert "# config.s: 1" in lines          # default rate sum applied
    assert "# config.grid: 5" in lines
    assert "# meta.defaults_applied: family,s" in lines
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "t,gamma"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 5
    assert float(rows[0].split(",")[0]) == 0.0
    assert all(np.isfinite(float(r.split(",")[1])) for r in rows)


def test_rate_has_no_pole_where_q_decays_without_zeros(capsys):
    for argv in (
        # p <= s^2/8: q(150) ~ 1e-18 is small, but q has no zero
        ["--p", "0.1", "--t-max", "150"],
        # p > s^2/8: |q| < 1e-12 from t ~ 55 on, yet no grid point is a zero
        ["--p", "3", "--t-max", "100", "--grid", "11"],
    ):
        code, out, _ = _run(capsys, ["rate", *argv])
        assert code == 0 and "nan" not in out


def test_rate_pole_reported_not_fatal(capsys):
    # grid point landing exactly on the coherence zero: gamma is null in
    # JSON, and the pole location is listed in the metadata
    doc = _json_out(capsys, ["rate", "--p", "3", "--t-max", str(2 * T_STAR),
                             "--grid", "3", "--format", "json"])
    assert doc["columns"]["gamma"][1] is None
    assert doc["columns"]["t"][1] == pytest.approx(T_STAR, abs=1e-15)
    assert doc["metadata"]["singular_times"] == pytest.approx([T_STAR])


def test_rate_csv_prints_nan_at_a_pole_and_plus_zero_at_t0(capsys):
    code, out, _ = _run(capsys, ["rate", "--p", "3", "--t-max",
                                 "0.740795521828109", "--grid", "3"])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert rows[0] == "0,0" and rows[-1].endswith(",nan")


# -------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv", [
    ["rate", "--p", "-1"],
    ["rate", "--s", "1", "--p", "1", "--lambda1", "1", "--lambda2", "2"],
    ["rate", "--p", "1", "--lambda", "2"],
    ["rate", "--p", "1", "--t-max", "-1"],
    ["measure", "--lambda1", "1"],
    ["measure", "--family", "nonunital", "--p", "1"],
    ["measure", "--p", "1", "--T", "0"],
    ["measure", "--p-points", "0"],
    ["blp", "--p", "3", "--grid", "1"],
    ["holevo", "--p-list", "1,abc"],
    ["holevo", "--p-list", "1e-7,1.00000001e-7"],
    ["holevo", "--p", "3"],
    ["classical-sim", "--paths", "10"],
    ["classical-sim", "--seed", "1", "--wtd", "exponential", "--lambda1", "1"],
    ["classical-sim", "--seed", "1", "--lambda", "1"],
    ["kernel-check", "--lambda", "1"],
    ["divisibility", "--boundary-search", "--p", "3"],
    ["divisibility", "--boundary-search", "--family", "nonunital"],
    ["measure", "--p", "0.2", "--p-min", "0.1", "--p-points", "7"],
    ["measure", "--family", "nonunital", "--p-points", "3"],
    ["divisibility", "--p", "3", "--p-min", "0.2", "--p-tol", "5"],
    ["measure", "--mode", "min", "--gamma-ref", "5"],
    ["measure", "--p", "0.1", "--gamma-max", "0.01"],
    ["measure", "--family", "nonunital", "--mode", "min", "--gamma-ref", "1"],
    ["holevo", "--lambda1", "1", "--lambda2", "2"],
    ["classical-sim", "--seed", "1", "--wtd", "tanhsech", "--lambda2", "1"],
    ["kernel-check", "--lambda1", "1"],
])
def test_configuration_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "qsm: configuration error:" in err


@pytest.mark.parametrize("argv", [
    *([*command, flag, str(2**62)] for command, flag in (
        (["rate"], "--grid"), (["holevo"], "--grid"), (["blp"], "--grid"),
        (["divisibility"], "--grid"),
        (["divisibility", "--boundary-search"], "--grid"),
        (["classical-sim", "--seed", "1"], "--grid"),
        (["measure"], "--p-points"))),
    ["rate", "--grid", "1000001"],
])
def test_grids_past_the_cap_exit_2(capsys, argv):
    # refused before anything is allocated; a grid near the cap is never run
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "[" in err and "1000000]" in err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["rate", "--bogus"],
    ["measure", "--mode", "median"],
    ["rate", "--format", "yaml"],
    ["classical-sim", "--seed", "1", "--family", "nonunital"],
    ["classical-sim", "--seed", "1", "--s", "5"],
    ["classical-sim", "--seed", "1", "--p", "2"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, _ = _run(capsys, argv)
    assert code == 2


def test_holevo_refuses_p_values_that_print_as_one_column(capsys):
    code, out, err = _run(capsys, ["holevo", "--p-list", "1e-7,1.00000001e-7"])
    assert code == 2 and out == ""
    assert "1e-07 and 1.00000001e-07" in err and "chi_p1e-07" in err


def test_numerical_failures_exit_3(capsys):
    # excision halo wider than the horizon leaves nothing to integrate
    code, out, err = _run(capsys, ["measure", "--s", "1", "--p", "3",
                                   "--epsilon", "0.9"])
    assert code == 3
    assert "qsm: numerical failure:" in err
    # bisection bracket that does not straddle the boundary
    code, out, err = _run(capsys, [
        "divisibility", "--boundary-search", "--p-min", "0.3", "--p-max",
        "0.4", "--t-max", "30", "--grid", "400",
    ])
    assert code == 3
    # 5e6 Volterra steps exceed the cap: refused before the O(n^2) sum
    code, out, err = _run(capsys, ["kernel-check", "--dt", "1e-6"])
    assert code == 3 and "cap" in err
    # 7.6e11 rate poles exceed the cap: refused before they are listed
    code, out, err = _run(capsys, ["measure", "--p", "3", "--T", "1e12"])
    assert code == 3 and "cap" in err


def test_measure_choi_form_reports_a_rate_pole_inside_a_tiny_excision(capsys):
    # a node lands within 1e-12 of the pole at t = 0.740796, where gamma is
    # not finite: the Choi route stops with the rate route's exit code
    code, out, err = _run(capsys, ["measure", "--p", "3", "--form", "choi",
                                   "--epsilon", "1e-13"])
    assert code == 3 and out == ""
    assert "rate pole" in err and "0.7407" in err


def test_measure_past_the_underflow_of_q(capsys):
    # q(3000) underflows, but ln|q| is never taken of the float q, so the
    # rate route stays finite in both modes; at p = 3 it excises 2290 poles
    for p, poles in (("0.1", 0), ("3", 2290)):
        for mode in ("paper", "min"):
            doc = _json_out(capsys, ["measure", "--p", p, "--T", "3000",
                                     "--mode", mode, "--format", "json"])
            assert all(np.isfinite(doc["columns"][c][0])
                       for c in ("xi", "zeta", "gamma_ref"))
            assert len(doc["metadata"]["excised_intervals"]) == poles
    # the Choi route evaluates gamma itself, in closed form: finite too
    code, out, err = _run(capsys, ["measure", "--p", "0.1", "--T", "3000",
                                   "--form", "choi"])
    assert code == 0, err
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    assert all(np.isfinite(float(x)) for x in row.split(","))


def test_version_and_help_exit_0(capsys):
    code, out, _ = _run(capsys, ["--version"])
    assert code == 0
    assert out.startswith("qsm ")
    code, out, _ = _run(capsys, ["rate", "--help"])
    assert code == 0
    assert "usage: qsm rate" in out


def test_divisibility_help_shows_scan_and_boundary_search_defaults(
        capsys, monkeypatch):
    # argparse wraps help to the terminal width, which can split a default
    monkeypatch.setenv("COLUMNS", "200")
    code, out, _ = _run(capsys, ["divisibility", "--help"])
    assert code == 0
    text = " ".join(out.split())
    assert "(default 10; 60 for --boundary-search)" in text
    assert "(default 1000; 1200 for --boundary-search)" in text
    for default in ("0.05", "0.4", "0.0001"):
        assert f"(default {default})" in text


def _registered_flags(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt[2:] for opt in sub.choices[command]._option_string_actions
            if opt.startswith("--") and opt != "--help"}


@pytest.mark.parametrize("argv", [
    ["rate"],
    ["measure"],
    ["measure", "--mode", "min"],
    ["measure", "--family", "nonunital"],
    ["measure", "--family", "nonunital", "--mode", "min"],
    ["holevo"],
    ["blp"],
    ["divisibility"],
    ["divisibility", "--boundary-search"],
    ["classical-sim", "--seed", "1"],
    ["classical-sim", "--seed", "1", "--wtd", "tanhsech"],
    ["kernel-check"],
])
def test_defaults_applied_lists_every_default_read(capsys, argv):
    """A config value whose flag was not given came from a default, and
    defaults_applied names only registered flags."""
    doc = _json_out(capsys, [*argv, "--format", "json"])
    flags = _registered_flags(argv[0])
    applied = doc["metadata"]["defaults_applied"].split(",")
    assert set(applied) <= flags
    given = {tok[2:] for tok in argv if tok.startswith("--")}
    for key in doc["config"]:
        # a switch left off is a choice of mode, not a default
        if key in flags and key not in given and key != "boundary-search":
            assert key in applied, key


# ---------------------------------------------------------------- measure

def test_measure_single_point_fixed_reference(capsys):
    doc = _json_out(capsys, ["measure", "--p", "0.1", "--format", "json"])
    proc = DephasingSemiMarkov(s=1.0, p=0.1)
    expected = -np.log(float(q_of_t(proc, 1.0))) / 2.0
    assert doc["columns"]["p"] == [0.1]
    assert doc["columns"]["xi"][0] == pytest.approx(expected, rel=1e-9)
    assert doc["columns"]["gamma_ref"] == [0.0]
    assert doc["columns"]["cp_indivisible"] == [0.0]
    assert doc["config"]["mode"] == "paper"
    assert doc["metadata"]["p_boundary"] == pytest.approx(0.125)


def test_measure_sweep_and_regime_column(capsys):
    doc = _json_out(capsys, ["measure", "--p-points", "11", "--format", "json"])
    ps = doc["columns"]["p"]
    assert ps == pytest.approx(list(np.linspace(0.0, 0.5, 11)))
    zeta = doc["columns"]["zeta"]
    assert zeta[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(zeta, zeta[1:]))
    flags = doc["columns"]["cp_indivisible"]
    assert flags == [1.0 if p > 0.125 else 0.0 for p in ps]


@pytest.mark.parametrize("horizon", ["3", "6"])
def test_measure_min_mode_past_a_rate_pole(capsys, horizon):
    args = ["measure", "--p", "3", "--T", horizon, "--format", "json"]
    doc = _json_out(capsys, args + ["--mode", "min"])
    xi, ref = doc["columns"]["xi"][0], doc["columns"]["gamma_ref"][0]
    for shift in (-1e-4, 1e-4):
        moved = _json_out(capsys, args + ["--gamma-ref", repr(ref + shift)])
        assert moved["columns"]["xi"][0] >= xi


def test_measure_min_mode_semigroup_is_exactly_zero(capsys):
    doc = _json_out(capsys, ["measure", "--p", "0", "--mode", "min",
                             "--format", "json"])
    assert doc["columns"]["xi"] == [0.0]
    assert doc["columns"]["gamma_ref"] == [0.0]


def test_measure_echoes_gamma_max(capsys):
    doc = _json_out(capsys, ["measure", "--p", "0.1", "--mode", "min",
                             "--gamma-max", "0.01", "--format", "json"])
    assert doc["config"]["gamma-max"] == 0.01
    assert doc["columns"]["gamma_ref"] == [0.01]
    doc = _json_out(capsys, ["measure", "--p", "0.1", "--format", "json"])
    assert "gamma-max" not in doc["config"]


def test_measure_nonunital_modes(capsys):
    doc = _json_out(capsys, ["measure", "--family", "nonunital",
                             "--format", "json"])
    assert doc["columns"]["lambda"] == [1.0]
    assert doc["columns"]["xi"][0] == pytest.approx(np.log(np.cosh(1.0)),
                                                    rel=1e-9)
    doc = _json_out(capsys, ["measure", "--family", "nonunital", "--mode",
                             "min", "--format", "json"])
    assert doc["config"]["mode"] == "min"
    assert doc["columns"]["gamma_ref"][0] == pytest.approx(np.tanh(0.5),
                                                           abs=1e-6)
    assert doc["columns"]["xi"][0] == pytest.approx(0.19355181656647222,
                                                    rel=1e-6)


def test_measure_choi_form_reports_constant(capsys):
    doc = _json_out(capsys, ["measure", "--p", "0.1", "--form", "choi",
                             "--format", "json"])
    assert doc["metadata"]["family_constant"] == pytest.approx(2.0, abs=1e-9)
    assert doc["columns"]["xi_raw"][0] == pytest.approx(
        2.0 * doc["columns"]["xi"][0], rel=1e-9
    )


def test_measure_excision_reported(capsys):
    doc = _json_out(capsys, ["measure", "--p", "3", "--format", "json"])
    intervals = doc["metadata"]["excised_intervals"]
    assert len(intervals) == 1
    lo, hi, p = intervals[0]
    assert lo == pytest.approx(T_STAR - 1e-6, abs=1e-12)
    assert hi == pytest.approx(T_STAR + 1e-6, abs=1e-12)
    assert p == 3.0
    # in a sweep each interval names the p of its row
    doc = _json_out(capsys, ["measure", "--p-min", "2.5", "--p-max", "3",
                             "--p-points", "3", "--format", "json"])
    intervals = doc["metadata"]["excised_intervals"]
    assert [p for _, _, p in intervals] == doc["columns"]["p"]
    for lo, hi, p in intervals:
        pole = coherence_zeros(DephasingSemiMarkov(s=1.0, p=p), 1.0)
        assert lo < pole[0] < hi


# ----------------------------------------------------- parametrization alias

def test_rate_parametrizations_are_identical(capsys):
    base = ["--t-max", "2", "--grid", "5"]
    code, out_sp, _ = _run(capsys, ["rate", "--s", "3", "--p", "2", *base])
    assert code == 0
    code, out_pair, _ = _run(capsys,
                             ["rate", "--lambda1", "1", "--lambda2", "2", *base])
    assert code == 0
    assert out_sp == out_pair


# ------------------------------------------------------------- config files

def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# recipe\n"
        "p = 3\n"
        "t-max = 2\n"
        "grid = 5\n"
        "format = json\n"
    )
    doc = _json_out(capsys, ["rate", "--config", str(cfg), "--grid", "7"])
    assert doc["config"]["p"] == 3.0
    assert doc["config"]["t-max"] == 2.0
    assert doc["config"]["grid"] == 7  # command line wins over the file
    # --config=PATH spelling works too
    doc = _json_out(capsys, ["rate", f"--config={cfg}", "--grid", "7"])
    assert doc["config"]["grid"] == 7


def test_config_file_boolean_flag(capsys, tmp_path):
    cfg = tmp_path / "div.cfg"
    cfg.write_text("boundary-search = false\np = 3\nt-max = 2\ngrid = 100\n")
    doc = _json_out(capsys, ["divisibility", "--config", str(cfg),
                             "--format", "json"])
    assert doc["config"]["boundary-search"] is False


@pytest.mark.parametrize("content", [
    "p 3\n",                       # missing =
    "= 3\n",                       # empty key
    "boundary-search = maybe\n",   # bad boolean
])
def test_config_file_errors_exit_2(capsys, tmp_path, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    cmd = "divisibility" if "boundary" in content else "rate"
    code, _, err = _run(capsys, [cmd, "--config", str(cfg)])
    assert code == 2
    assert "qsm: configuration error:" in err


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, ["rate", "--config",
                                 str(tmp_path / "absent.cfg")])
    assert code == 2


# ------------------------------------------------------------ output modes

def test_out_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "rate.csv"
    code, out, _ = _run(capsys, ["rate", "--p", "0.1", "--grid", "5",
                                 "--t-max", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("# command: rate")


def test_svg_points_carry_the_csv_numbers(capsys):
    argv = ["rate", "--p", "0.1", "--grid", "6", "--t-max", "3"]
    code, csv_text, _ = _run(capsys, argv)
    assert code == 0
    rows = [l.split(",") for l in csv_text.splitlines()
            if l and not l.startswith("#")][1:]
    code, svg_text, _ = _run(capsys, argv + ["--format", "svg"])
    assert code == 0
    root = ET.fromstring(svg_text)
    polys = [el for el in root.iter() if el.tag.endswith("polyline")]
    assert len(polys) == 1
    pts = [pair.split(",") for pair in polys[0].get("points").split()]
    assert [p[0] for p in pts] == [r[0] for r in rows]
    assert [p[1] for p in pts] == [r[1] for r in rows]


def test_csv_output_is_deterministic(capsys):
    argv = ["measure", "--p-points", "5", "--p-max", "0.12"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert first == second


# ---------------------------------------------------- diagnostics commands

def test_blp_metadata(capsys):
    doc = _json_out(capsys, ["blp", "--p", "0.1", "--grid", "201",
                             "--format", "json"])
    assert doc["metadata"]["blp"] <= 1e-10
    doc = _json_out(capsys, ["blp", "--p", "3", "--grid", "401",
                             "--format", "json"])
    assert doc["metadata"]["blp"] > 0.01


def test_divisibility_scan_output(capsys):
    doc = _json_out(capsys, ["divisibility", "--p", "3", "--grid", "200",
                             "--t-max", "3", "--format", "json"])
    assert doc["metadata"]["violation_count"] > 0
    assert doc["metadata"]["cp_divisible"] is False
    assert doc["metadata"]["first_violation"] > T_STAR
    assert max(doc["columns"]["violation"]) == 1.0
    doc = _json_out(capsys, ["divisibility", "--p", "0.1", "--grid", "100",
                             "--t-max", "5", "--format", "json"])
    assert doc["metadata"]["cp_divisible"] is True
    assert doc["metadata"]["violation_count"] == 0


@pytest.mark.parametrize("s", [0.9, 0.95, 1.1])
def test_boundary_search_away_from_s_one(capsys, s):
    # q(t) rounding to 1 + 2e-16 once made map_at's Kraus weight NaN here
    doc = _json_out(capsys, ["divisibility", "--boundary-search", "--s", str(s),
                             "--format", "json"])
    exact = s**2 / 8
    assert abs(doc["metadata"]["p_boundary_estimate"] - exact) <= 0.016 * exact


def test_holevo_output(capsys):
    doc = _json_out(capsys, ["holevo", "--grid", "25", "--t-max", "3",
                             "--format", "json"])
    assert set(doc["columns"]) == {"t", "chi_p2", "chi_p0.1", "chi_p0.01"}
    for name in ("chi_p2", "chi_p0.1", "chi_p0.01"):
        assert doc["columns"][name][0] == pytest.approx(1.0, abs=1e-9)


def test_classical_sim_output_and_determinism(capsys):
    argv = ["classical-sim", "--wtd", "exponential", "--lambda", "1",
            "--seed", "7", "--paths", "500", "--grid", "5", "--t-max", "1"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    code, second, _ = _run(capsys, argv)
    assert first == second
    doc = _json_out(capsys, argv + ["--format", "json"])
    ts = np.array(doc["columns"]["t"])
    assert doc["columns"]["survival_exact"] == pytest.approx(np.exp(-ts))
    assert doc["metadata"]["max_survival_error_se"] < 4.0
    occ = np.array(doc["columns"]["occupation0"])
    assert occ[0] == 1.0


def test_classical_sim_error_in_se_where_every_path_agrees(capsys):
    # 2000 paths to t = 200: past t = 10 no path survives, so the empirical
    # SE is 0 in most rows; the ratio uses the binomial SE of the exact value
    doc = _json_out(capsys, ["classical-sim", "--wtd", "tanhsech", "--paths",
                             "2000", "--t-max", "200", "--grid", "401",
                             "--seed", "11", "--format", "json"])
    assert np.array(doc["columns"]["survival_se"])[-1] == 0.0
    err = doc["metadata"]["max_survival_error_se"]
    assert np.isfinite(err) and err < 5.0


def test_commands_without_quadrature_do_not_import_scipy():
    # no command loads scipy, the Choi route's quadrature included: the
    # rate route of measure is exact, and the Gauss-Kronrod rule is numpy.
    # The SVG writer escapes text without xml.sax, which would pull in
    # urllib.request, http, ssl and email (numpy itself loads urllib.parse)
    script = (
        "import contextlib, io, sys\n"
        "from qsemimarkov.cli import run\n"
        "for argv in (['rate'], ['holevo'], ['blp'], ['divisibility'],\n"
        "             ['divisibility', '--boundary-search'],\n"
        "             ['classical-sim', '--seed', '1'], ['kernel-check'],\n"
        "             ['measure'], ['measure', '--mode', 'min'],\n"
        "             ['measure', '--form', 'choi'],\n"
        "             ['measure', '--form', 'choi', '--mode', 'min'],\n"
        "             ['measure', '--form', 'choi', '--family', 'nonunital'],\n"
        "             ['measure', '--form', 'choi', '--family', 'nonunital',\n"
        "              '--mode', 'min'],\n"
        "             ['measure', '--form', 'choi', '--format', 'json'],\n"
        "             ['rate', '--format', 'svg']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(argv) == 0, argv\n"
        "    for name in ('scipy', 'xml', 'urllib.request', 'http', 'ssl',\n"
        "                 'email'):\n"
        "        assert name not in sys.modules, (argv, name)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_kernel_check_convergence(capsys):
    doc = _json_out(capsys, ["kernel-check", "--dt", "0.02", "--t-max", "1.5",
                             "--format", "json"])
    assert doc["config"]["s"] == 1.0 and doc["config"]["p"] == 0.1
    assert doc["metadata"]["max_deviation"] < 1e-4
    assert doc["metadata"]["convergence_order"] == pytest.approx(2.0, abs=0.3)
    err = np.array(doc["columns"]["abs_error"])
    assert np.nanmax(err) <= doc["metadata"]["max_deviation"] + 1e-15
    # the kernel route works where no real rate pair exists (p > s^2/4)
    doc = _json_out(capsys, ["kernel-check", "--s", "1", "--p", "3", "--dt",
                             "0.02", "--t-max", "1.5", "--format", "json"])
    assert doc["metadata"]["max_deviation"] < 1e-3
    assert doc["metadata"]["convergence_order"] == pytest.approx(2.0, abs=0.3)
