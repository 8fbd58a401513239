"""End-to-end CLI tests: exit codes, formats, config files, determinism."""

import argparse
import csv
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qsemimarkov import (
    DephasingSemiMarkov,
    JSON_SCHEMA,
    REGIME_INDIVISIBLE,
    coherence_zeros,
    q_of_t,
)
from qsemimarkov import cli, semimarkov
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
    assert "# meta.defaults_applied: s" in lines
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
    # JSON, and the poles are given in the metadata as their lattice
    doc = _json_out(capsys, ["rate", "--p", "3", "--t-max", str(2 * T_STAR),
                             "--grid", "3", "--format", "json"])
    assert doc["columns"]["gamma"][1] is None
    assert doc["columns"]["t"][1] == pytest.approx(T_STAR, abs=1e-15)
    first, period, count = doc["metadata"]["singular_times"]
    assert first == T_STAR and count == 1
    assert period == pytest.approx(2.0 * np.pi / np.sqrt(23.0), rel=1e-15)
    # 1526561 poles to 2e6, and none where p <= s^2/8
    doc = _json_out(capsys, ["rate", "--p", "3", "--t-max", "2e6",
                             "--grid", "3", "--format", "json"])
    assert doc["metadata"]["singular_times"] == [T_STAR, period, 1526561]
    doc = _json_out(capsys, ["rate", "--p", "0.125", "--format", "json"])
    assert doc["metadata"]["singular_times"] == []


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
    ["rate", "--lambda2", "2"],
    ["rate", "--p", "1", "--t-max", "-1"],
    ["measure", "--lambda1", "1"],
    ["measure", "--family", "nonunital", "--p", "1"],
    ["measure", "--p", "1", "--T", "0"],
    ["measure", "--p-points", "0"],
    ["blp", "--p", "3", "--grid", "1"],
    ["holevo", "--p-list", "1,abc"],
    ["holevo", "--p-list", "1e-7,1.00000001e-7"],
    ["holevo", "--p-list", ","],
    ["classical-sim", "--paths", "10"],
    ["classical-sim", "--seed", "1", "--wtd", "exponential", "--lambda1", "1"],
    ["classical-sim", "--seed", "1", "--lambda", "1"],
    ["kernel-check", "--t-max", "0.001"],
    ["divisibility", "--boundary-search", "--p", "3"],
    ["divisibility", "--boundary-search", "--lambda1", "1", "--lambda2", "2"],
    ["measure", "--p", "0.2", "--p-min", "0.1", "--p-points", "7"],
    ["measure", "--family", "nonunital", "--p-points", "3"],
    ["divisibility", "--boundary-search", "--t-max", "60"],
    ["measure", "--mode", "min", "--gamma-ref", "5"],
    ["measure", "--family", "nonunital", "--mode", "min", "--gamma-ref", "1"],
    ["measure", "--family", "nonunital", "--s", "2"],
    ["classical-sim", "--seed", "1", "--wtd", "tanhsech", "--lambda2", "1"],
    ["kernel-check", "--lambda1", "1"],
    ["divisibility", "--boundary-search", "--grid", "1200"],
])
def test_configuration_errors_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert "qsm: configuration error:" in err


@pytest.mark.parametrize("argv", [
    *([*command, flag, str(2**62)] for command, flag in (
        (["rate"], "--grid"), (["holevo"], "--grid"), (["blp"], "--grid"),
        (["divisibility"], "--grid"),
        (["classical-sim", "--seed", "1"], "--grid"),
        (["measure"], "--p-points"))),
    ["rate", "--grid", "1000001"],
    ["divisibility", "--grid", "1000001"],
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
    # flags that no mode of the command reads are not registered
    ["rate", "--p", "1", "--lambda", "2"],
    ["holevo", "--p", "3"],
    ["kernel-check", "--lambda", "1"],
    ["divisibility", "--boundary-search", "--family", "nonunital"],
    ["holevo", "--lambda1", "1", "--lambda2", "2"],
    ["measure", "--p", "0.1", "--gamma-max", "0.01"],
    ["measure", "--mode", "min", "--gamma-max", "1"],
    # the boundary is s^2/8: no bracket or tolerance is left to set
    ["divisibility", "--p", "3", "--p-min", "0.2", "--p-tol", "5"],
    ["divisibility", "--boundary-search", "--p-max", "0.4"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "error:" in err and "configuration error" not in err


def test_an_unknown_flag_or_config_key_is_reported_in_the_command_usage(
        capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no-such-key = 3\n")
    for argv, flag in ((["rate", "--no-such-flag"], "--no-such-flag"),
                       (["rate", "--config", str(cfg)], "--no-such-key 3")):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: qsm rate [-h]")
        assert err.endswith(
            f"qsm rate: error: unrecognized arguments: {flag}\n")


def test_holevo_refuses_p_values_that_print_as_one_column(capsys):
    code, out, err = _run(capsys, ["holevo", "--p-list", "1e-7,1.00000001e-7"])
    assert code == 2 and out == ""
    assert "1e-07 and 1.00000001e-07" in err and "chi_p1e-07" in err


def test_holevo_refuses_more_cells_than_three_full_grids(capsys):
    # 4 curves of 1e6 points would take ~160 MB more: refused before the
    # time grid is allocated
    tracemalloc.start()
    code, out, err = _run(capsys, ["holevo", "--p-list", "1,2,3,4",
                                   "--grid", "1000000"])
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "--p-list of 4 values at --grid 1000000" in err and peak < 1e6


def test_numerical_failures_exit_3(capsys):
    # excision halo wider than the horizon leaves nothing to integrate
    code, out, err = _run(capsys, ["measure", "--s", "1", "--p", "3",
                                   "--epsilon", "0.9"])
    assert code == 3
    assert "qsm: numerical failure:" in err
    # 5e6 Volterra steps exceed the cap: refused before the maps are allocated
    code, out, err = _run(capsys, ["kernel-check", "--dt", "1e-6"])
    assert code == 3 and "cap" in err
    # 7.6e11 rate poles are no failure: the measure reads their lattice
    doc = _json_out(capsys, ["measure", "--p", "3", "--T", "1e12",
                             "--format", "json"])
    (lo, hi, p, period, count), = doc["metadata"]["excised_intervals"]
    assert lo < T_STAR < hi and p == 3.0
    assert count == np.floor((1e12 - T_STAR) / period) + 1 == 763280293171


def _same_cells_as_rate_form(capsys, argv):
    """Runs a Choi-form measure and its rate-form twin, asserts both exit 0
    with nothing on stderr and print the same xi, zeta and gamma_ref cells,
    and returns the Choi form's rows as dicts of cells."""
    tables = []
    for form in ("choi", "rate"):
        code, out, err = _run(capsys, [*argv, "--form", form])
        assert code == 0 and err == "", (form, err)
        tables.append(list(csv.DictReader(
            l for l in out.splitlines() if not l.startswith("#"))))
    choi, rate = tables
    cells = ("p", "xi", "zeta", "gamma_ref")
    assert [[r[c] for c in cells] for r in choi] \
        == [[r[c] for c in cells] for r in rate]
    return choi


def test_measure_choi_form_reports_a_rate_pole_inside_a_tiny_excision(capsys):
    # eps = 1e-13 beside the pole at t = 0.740796, where gamma is not
    # finite: the Choi form sums the rate deviation exactly, as the rate
    # form does, so no gamma is taken near the pole
    rows = _same_cells_as_rate_form(capsys, ["measure", "--p", "3",
                                             "--epsilon", "1e-13"])
    assert len(rows) == 1 and float(rows[0]["xi"]) > 0.0


def test_measure_past_the_underflow_of_q(capsys):
    # q(3000) underflows, but ln|q| is never taken of the float q, so the
    # rate route stays finite in both modes; at p = 3 it excises 2290 poles
    for p, poles in (("0.1", 0), ("3", 2290)):
        for mode in ("paper", "min"):
            doc = _json_out(capsys, ["measure", "--p", p, "--T", "3000",
                                     "--mode", mode, "--format", "json"])
            assert all(np.isfinite(doc["columns"][c][0])
                       for c in ("xi", "zeta", "gamma_ref"))
            assert [entry[4] for entry in doc["metadata"][
                "excised_intervals"]] == [poles] * bool(poles)
    # the Choi form scales the same exact sum: finite too
    code, out, err = _run(capsys, ["measure", "--p", "0.1", "--T", "3000",
                                   "--form", "choi"])
    assert code == 0, err
    row = [l for l in out.splitlines() if not l.startswith("#")][1]
    assert all(np.isfinite(float(x)) for x in row.split(","))


@pytest.mark.parametrize("argv", [["--t-max", "740"],
                                  ["--wtd", "exponential", "--t-max", "744"]])
def test_classical_sim_past_a_subnormal_exact_survival(capsys, argv):
    # the exact survival at the horizon is subnormal (8.4e-322 at t = 740),
    # where exact (1 - exact) / n underflows to 0 while the gap is not 0:
    # the SE floor keeps the error ratio finite, with no warning
    code, out, err = _run(capsys, ["classical-sim", "--seed", "1",
                                   "--paths", "1000", *argv])
    assert code == 0, err
    rows = list(csv.DictReader(l for l in out.splitlines()
                               if not l.startswith("#")))
    exact = float(rows[-1]["survival_exact"])
    assert 0.0 < exact < np.finfo(float).tiny and exact / 1000 == 0.0
    ratio = [l for l in out.splitlines() if "max_survival_error_se" in l]
    assert 0.0 < float(ratio[0].split(":")[1]) < 1.0


@pytest.mark.parametrize("argv", [
    ["--wtd", "exponential"], ["--wtd", "exponential", "--jump-prob", "0.5"],
    ["--wtd", "tanhsech"]])
def test_classical_sim_past_an_overflowing_epoch_sum(capsys, argv):
    # two finite waits near 1e308 sum past the float range: that epoch is
    # inf, a path that never jumps again, with no overflow warning
    code, out, err = _run(capsys, ["classical-sim", "--seed", "1", *argv,
                                   "--lambda", "1e-308", "--paths", "10"])
    assert code == 0, err
    rows = list(csv.DictReader(l for l in out.splitlines()
                               if not l.startswith("#")))
    assert {row["survival"] for row in rows} == {"1"}


def test_positive_flags_are_refused_with_their_name(capsys):
    for argv, name in ((["blp", "--t-max", "-1"], "--t-max"),
                       (["kernel-check", "--dt", "0"], "--dt")):
        code, _, err = _run(capsys, argv)
        value = float(argv[-1])
        assert code == 2 and err == (f"qsm: configuration error: {name} must "
                                     f"be positive and finite, got {value}\n")


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
    assert "--t-max T_MAX end of the time grid (default 10)" in text
    assert "--grid GRID number of time points (default 1000)" in text
    assert "print the divisibility boundary s^2/8" in text
    for gone in ("--p-tol", "--p-min", "--p-max", "for --boundary-search"):
        assert gone not in text


def _registered_flags(command):
    """The flags of the parser that ``run`` parses ``command``'s flags with."""
    return {opt[2:] for opt in build_parser(command)._option_string_actions
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
    ["measure", "--p", "3", "--T", "2"],
    ["measure", "--p-points", "3", "--mode", "min"],
    ["divisibility", "--boundary-search", "--s", "0.9",
     "--config", os.devnull],
])
def test_defaults_applied_lists_every_default_read(capsys, argv):
    """A config value whose flag was not given came from a default,
    defaults_applied names only registered flags, and every flag given,
    other than the output flags, is echoed in config."""
    doc = _json_out(capsys, [*argv, "--format", "json"])
    flags = _registered_flags(argv[0])
    # "" where every flag read was given
    applied = set(doc["metadata"]["defaults_applied"].split(",")) - {""}
    assert applied <= flags
    given = {tok[2:] for tok in argv if tok.startswith("--")}
    for key in doc["config"]:
        # a switch left off is a choice of mode, not a default
        if key in flags and key not in given and key != "boundary-search":
            assert key in applied, key
    assert given - {"format", "out", "config"} <= set(doc["config"])


class _Stop(Exception):
    pass


# each command's modes and spellings, stopped before computing
_MODES = {
    "rate": [[], ["--lambda1", "1", "--lambda2", "2"]],
    "measure": [[], ["--p", "1"], ["--lambda1", "1", "--lambda2", "2"],
                ["--mode", "min"], ["--family", "nonunital"]],
    "holevo": [[]],
    "blp": [[], ["--lambda1", "1", "--lambda2", "2"]],
    "divisibility": [[], ["--lambda1", "1", "--lambda2", "2"],
                     ["--boundary-search"]],
    "classical-sim": [["--seed", "1"],
                      ["--seed", "1", "--wtd", "exponential"]],
    "kernel-check": [[], ["--lambda1", "1", "--lambda2", "2"]],
}


@pytest.mark.parametrize("command", sorted(_MODES))
def test_every_registered_flag_is_read_by_some_mode(monkeypatch, command):
    """A command registers exactly the flags that its modes read."""
    read = set()

    def record(self):
        read.update(self.read)
        raise _Stop

    monkeypatch.setattr(cli._Resolved, "check_unread", record)
    for argv in _MODES[command]:
        with pytest.raises(_Stop):
            run([command, *argv])
    assert read == _registered_flags(command)


# a --config file for each command of test_a_run_builds_one_parser
_CONFIGS = {"rate": "grid = 4\n", "measure": "p-points = 3\nmode = min\n",
            "classical-sim": "grid = 3\n"}


@pytest.mark.parametrize("argv", [["rate", "--grid", "3"],
                                  ["measure", "--p-points", "2"],
                                  ["classical-sim", "--seed", "1",
                                   "--paths", "10"]])
def test_a_run_builds_one_parser(capsys, monkeypatch, tmp_path, argv):
    """A command's parser is built once a process, at any help width: a
    second run, with a --config re-parse, reuses it, and so does a run at
    another width."""
    cfg = tmp_path / "flags.cfg"
    cfg.write_text(_CONFIGS[argv[0]])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    monkeypatch.setenv("COLUMNS", "80")
    cli.build_parser.cache_clear()
    for extra in ([], ["--config", str(cfg)]):
        code, _, err = _run(capsys, [*argv, *extra])
        assert code == 0, err
    assert built == [f"qsm {argv[0]}"]
    monkeypatch.setenv("COLUMNS", "120")
    code, _, err = _run(capsys, argv)
    assert code == 0, err
    assert built == [f"qsm {argv[0]}"]


def test_a_shared_parser_keeps_no_state_between_runs(capsys):
    """A run after another run and a usage error, in one process, prints
    the bytes of the same run in a fresh interpreter."""
    assert _run(capsys, ["measure", "--p", "3", "--mode", "min"])[0] == 0
    assert _run(capsys, ["measure", "--mode", "max"])[0] == 2
    code, out, err = _run(capsys, ["measure"])
    assert code == 0, err
    done = subprocess.run([sys.executable, "-m", "qsemimarkov.cli",
                           "measure"], env=_package_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert out == done.stdout


def test_help_wraps_to_the_width_of_each_run(capsys, monkeypatch):
    """``measure --help`` at 80 columns, then at 200 in the same process,
    wraps to each width: at 200 it is the help transcript's text."""
    golden = (Path(__file__).parent / "golden" / "cli_help.txt").read_text()
    head = "$ qsm measure --help\n[exit 0]\n[stdout]\n"
    wide = golden[golden.index(head) + len(head):]
    wide = wide[:wide.index("[stderr]\n")]
    monkeypatch.setenv("COLUMNS", "80")
    code, narrow, _ = _run(capsys, ["measure", "--help"])
    assert code == 0
    assert max(map(len, narrow.splitlines())) <= 78 < len(max(
        wide.splitlines(), key=len))
    monkeypatch.setenv("COLUMNS", "200")
    assert _run(capsys, ["measure", "--help"]) == (0, wide, "")


def test_usage_errors_wrap_to_the_width_of_each_run(capsys, monkeypatch):
    """One parser prints a usage error at 60 columns, then at 200, each
    wrapped to its width (the error line itself is not wrapped)."""
    widths = []
    for columns in (60, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = _run(capsys, ["measure", "--mode", "max"])
        assert code == 2 and out == ""
        usage = err.splitlines()[:-1]
        assert usage[0].startswith("usage: qsm measure [-h]")
        assert "invalid choice: 'max'" in err.splitlines()[-1]
        widths.append(max(map(len, usage)))
    assert widths[0] <= 58 and widths[1] > 100


def test_parser_without_a_command_builds_no_flags():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_MODES)
    assert not any(parser._actions for parser in sub.choices.values())


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
    lo, hi, p, period, count = intervals[0]
    assert lo == pytest.approx(T_STAR - 1e-6, abs=1e-12)
    assert hi == pytest.approx(T_STAR + 1e-6, abs=1e-12)
    assert p == 3.0 and count == 1
    assert period == pytest.approx(2.0 * np.pi / np.sqrt(23.0), rel=1e-15)
    # in a sweep each entry names the p of its row, and no entry is left
    # for a row without poles
    doc = _json_out(capsys, ["measure", "--p-min", "2.5", "--p-max", "3",
                             "--p-points", "3", "--T", "3", "--format",
                             "json"])
    intervals = doc["metadata"]["excised_intervals"]
    assert [entry[2] for entry in intervals] == doc["columns"]["p"]
    for lo, hi, p, period, count in intervals:
        poles = coherence_zeros(DephasingSemiMarkov(s=1.0, p=p), 3.0)
        assert lo < poles[0] < hi and count == poles.size == 2
        assert period == pytest.approx(poles[1] - poles[0], rel=1e-12)
    doc = _json_out(capsys, ["measure", "--p-max", "0.2", "--p-points", "3",
                             "--format", "json"])
    assert doc["metadata"]["excised_intervals"] == []


def test_measure_excises_the_poles_just_past_the_boundary(capsys):
    """|1 - 8p/s^2| = 4e-10 was once taken as eta = 0: the row was flagged
    cp_indivisible with no pole excised, yet |eta| = 2e-5 puts three zeros
    of q before T = 1e6."""
    doc = _json_out(capsys, ["measure", "--p", "0.12500000005", "--T", "1e6",
                             "--format", "json"])
    assert doc["columns"]["cp_indivisible"] == [1.0]
    (lo, hi, p, period, count), = doc["metadata"]["excised_intervals"]
    poles = coherence_zeros(DephasingSemiMarkov(1.0, 0.12500000005), 1e6)
    assert count == poles.size == 3 and p == 0.12500000005
    assert lo < poles[0] < hi
    assert period == pytest.approx(poles[1] - poles[0], rel=1e-9)


# ----------------------------------------------------- parametrization alias

def test_rate_parametrizations_are_identical(capsys):
    """Both spellings of a dephasing process echo it as s and p."""
    for argv in (["rate", "--t-max", "2", "--grid", "5"],
                 ["blp", "--t-max", "2", "--grid", "5"],
                 ["divisibility", "--t-max", "2", "--grid", "5"],
                 ["kernel-check", "--dt", "0.02", "--t-max", "1.5"],
                 ["measure", "--T", "2"]):
        code, out_sp, _ = _run(capsys, [*argv, "--s", "3", "--p", "2"])
        assert code == 0
        code, out_pair, _ = _run(capsys,
                                 [*argv, "--lambda1", "1", "--lambda2", "2"])
        assert code == 0
        assert out_sp == out_pair, argv
        assert "# config.s: 3\n# config.p: 2\n" in out_sp, argv


@pytest.mark.parametrize("argv", [["rate"], ["measure"], ["blp"],
                                  ["divisibility"], ["kernel-check"],
                                  ["classical-sim", "--seed", "1"]])
@pytest.mark.parametrize("rates, says", [
    (["--lambda1", "-1", "--lambda2", "3"], "rate1 must be positive and "
     "finite, got -1.0"),
    (["--lambda1", "0", "--lambda2", "1"], "rate1 must be positive and "
     "finite, got 0.0"),
    (["--lambda1", "1", "--lambda2", "inf"], "rate2 must be positive and "
     "finite, got inf"),
], ids=["negative", "zero", "inf"])
def test_every_command_refuses_a_bad_rate_pair_alike(capsys, argv, rates,
                                                     says):
    """The rate pair is checked by the process it builds: a bad rate is
    named as rate1 or rate2, not by the s or p it would give."""
    code, out, err = _run(capsys, [*argv, *rates])
    assert (code, out) == (2, "")
    assert err == f"qsm: configuration error: {says}\n"


def test_measure_sweep_echoes_its_p_range(capsys):
    doc = _json_out(capsys, ["measure", "--p-min", "0.1", "--p-max", "0.2",
                             "--p-points", "3", "--format", "json"])
    assert doc["config"]["p-min"] == 0.1
    assert doc["config"]["p-max"] == 0.2
    assert doc["config"]["p-points"] == 3
    assert "p" not in doc["config"]


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
    cfg.write_text("boundary-search = true\ns = 0.9\n")
    doc = _json_out(capsys, ["divisibility", "--config", str(cfg),
                             "--format", "json"])
    assert doc["config"] == {"s": 0.9, "boundary-search": True}
    assert list(doc["columns"]) == ["p_estimate"]
    assert _is_the_boundary(0.9, doc["columns"]["p_estimate"][0])


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


@pytest.mark.parametrize("target", ["missing/rate.csv", "."])
def test_unwritable_out_exits_2(capsys, tmp_path, target):
    # a missing directory, or a directory in place of a file
    code, out, err = _run(capsys, ["rate", "--grid", "5",
                                   "--out", str(tmp_path / target)])
    assert code == 2 and out == ""
    assert err.startswith("qsm: configuration error: cannot write")


@pytest.mark.parametrize("command, recipe", [
    ("rate", "fig1"), ("measure", "fig2"), ("holevo", "fig3")])
def test_format_contradicting_out_suffix_exits_2(capsys, tmp_path,
                                                 monkeypatch, command, recipe):
    # the recipe's out = figN.svg would otherwise receive CSV text
    monkeypatch.chdir(tmp_path)
    config = Path(__file__).parent.parent / "recipes" / f"{recipe}.cfg"
    code, out, err = _run(capsys, [command, "--config", str(config),
                                   "--format", "csv"])
    assert code == 2 and out == ""
    assert err == (f"qsm: configuration error: --format csv does not match "
                   f"--out '{recipe}.svg'\n")
    assert list(tmp_path.iterdir()) == []
    code, _, _ = _run(capsys, [command, "--config", str(config), "--format",
                               "csv", "--out", f"{recipe}.csv"])
    assert code == 0
    assert [f.name for f in tmp_path.iterdir()] == [f"{recipe}.csv"]


def test_out_suffix_outside_the_formats_is_not_checked(capsys, tmp_path):
    target = tmp_path / "rate.txt"
    code, _, _ = _run(capsys, ["rate", "--grid", "5", "--format", "json",
                               "--out", str(target)])
    assert code == 0 and target.read_text().startswith("{")


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


def _is_the_boundary(s, p) -> bool:
    """Whether p is the largest double that regime() calls divisible."""
    above = float(np.nextafter(p, np.inf))
    return (DephasingSemiMarkov(s, p).regime() != REGIME_INDIVISIBLE
            and DephasingSemiMarkov(s, above).regime() == REGIME_INDIVISIBLE)


def test_divisibility_sees_the_rise_after_a_tiny_zero(capsys):
    # q vanishes at t = 55.365 with |q| near 1e-12, and |q| rises on the 33
    # grid steps after it: no step is skipped for conditioning
    doc = _json_out(capsys, ["divisibility", "--p", "0.1265", "--t-max", "60",
                             "--grid", "1000", "--format", "json"])
    meta = doc["metadata"]
    assert meta["cp_divisible"] is False and meta["violation_count"] == 33
    assert meta["first_violation"] == np.linspace(0.0, 60.0, 1000)[923]
    assert meta["singular_steps"] == 0
    assert 55.365 < meta["first_violation"] < 55.436


def test_divisibility_counts_subnormal_steps_as_singular(capsys):
    # at p = 3, q is subnormal past t = 1416.6 and 0 past t = 1490: exactly
    # those steps start from a q with no digits left to divide by
    doc = _json_out(capsys, ["divisibility", "--p", "3", "--t-max", "3000",
                             "--grid", "3000", "--format", "json"])
    q = q_of_t(DephasingSemiMarkov(s=1.0, p=3.0), np.linspace(0, 3000, 3000))
    lost = np.abs(q[:-1]) < np.finfo(float).tiny
    assert doc["metadata"]["singular_steps"] == lost.sum() == 1584
    eigs = np.array(doc["columns"]["min_choi_eigenvalue"], dtype=float)
    assert np.array_equal(np.isnan(eigs), lost)


@pytest.mark.parametrize("s", [0.9, 0.95, 1.1, 1.0, 3.0,
                               3.516819621666784e-26])
def test_boundary_search_away_from_s_one(capsys, s):
    # the largest double p that the exact branch test calls divisible: s*s/8,
    # or one double below it where s*s rounds up (0.9, 0.95)
    doc = _json_out(capsys, ["divisibility", "--boundary-search", "--s",
                             repr(s), "--format", "json"])
    b = doc["metadata"]["p_boundary_estimate"]
    assert doc["columns"]["p_estimate"] == [b]
    assert _is_the_boundary(s, b)
    assert b == DephasingSemiMarkov(s, 0.0).p_boundary
    assert (b == s * s / 8) == (s not in (0.9, 0.95))
    doc = _json_out(capsys, ["measure", "--s", repr(s), "--p", "0",
                             "--format", "json"])
    assert doc["metadata"]["p_boundary"] == b


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


def test_classical_sim_with_one_huge_stage_rate_stays_finite(capsys):
    doc = _json_out(capsys, ["classical-sim", "--seed", "1", "--lambda1",
                             "1e5", "--paths", "10", "--grid", "3",
                             "--format", "json"])
    assert np.isfinite(doc["columns"]["survival_exact"]).all()
    assert 0.0 < doc["metadata"]["max_survival_error_se"] < np.inf


def test_classical_sim_error_metric_keeps_a_nan_gap(capsys, monkeypatch):
    monkeypatch.setattr(semimarkov.ExpConvolutionWTD, "survival",
                        lambda self, t: np.full(np.shape(t), np.nan))
    code, out, err = _run(capsys, ["classical-sim", "--seed", "1",
                                   "--paths", "10", "--grid", "3"])
    assert code == 0, err
    assert "# meta.max_survival_error_se: nan" in out.splitlines()


def _package_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}


def test_commands_without_quadrature_do_not_import_scipy():
    # no command loads scipy: measure sums xi exactly in either form.
    # The SVG writer escapes text without xml.sax, which would pull in
    # urllib.request, http, ssl and email (numpy itself loads urllib.parse).
    # The package depends on numpy alone, so every command also runs with
    # the test extra's other modules (and sympy, which brings mpmath) made
    # unimportable, as after a clean install without that extra
    script = (
        "import contextlib, io, sys\n"
        "for name in ('mpmath', 'jsonschema', 'pytest', 'sympy'):\n"
        "    sys.modules[name] = None\n"
        "from qsemimarkov.cli import run\n"
        "for argv in (['rate'], ['holevo'], ['blp'], ['divisibility'],\n"
        "             ['divisibility', '--boundary-search'],\n"
        "             ['classical-sim', '--seed', '1'], ['kernel-check'],\n"
        "             ['measure'], ['measure', '--mode', 'min'],\n"
        "             ['measure', '--family', 'nonunital'],\n"
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
    done = subprocess.run([sys.executable, "-c", script], env=_package_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_module_entry_point_exit_codes():
    """``python -m qsemimarkov.cli`` exits with run()'s code; a failure
    prints nothing on stdout and one qsm: line on stderr."""
    for argv, code in ((["rate", "--grid", "5"], 0),
                       (["rate", "--grid", "1"], 2),
                       (["measure", "--p", "3", "--epsilon", "1e308"], 3)):
        done = subprocess.run([sys.executable, "-m", "qsemimarkov.cli", *argv],
                              env=_package_env(), capture_output=True,
                              text=True)
        assert done.returncode == code, (argv, done.stderr)
        if code:
            assert done.stdout == ""
            assert done.stderr.startswith("qsm: ")
            assert done.stderr.count("\n") == 1, done.stderr
        else:
            assert done.stdout.startswith("# command: rate\n")


@pytest.mark.parametrize("argv, code", [
    (["measure", "--p", "3", "--T", "1e308"], 3),
    (["rate", "--p", "3", "--t-max", "1e308"], 3),
    (["rate", "--p", "3", "--t-max", "1e300"], 3),
    (["holevo", "--t-max", "1e308"], 0),
    (["divisibility", "--p", "3", "--t-max", "1e308"], 0),
    (["blp", "--p", "3", "--t-max", "1e308"], 0),
    (["blp", "--s", "4", "--p", "2", "--t-max", "1e308"], 0),  # p = s^2/8
    (["kernel-check", "--t-max", "1e308"], 3),
], ids=["measure", "rate", "rate-1e300", "holevo", "divisibility", "blp",
        "blp-boundary", "kernel-check"])
def test_huge_horizon_fails_loudly_or_stays_finite(argv, code):
    """A horizon near the float limit is a numerical failure where it holds
    2**53 or more rate poles, past which a float no longer counts them, or
    more than 1e6 Volterra steps; elsewhere q is 0 where its phase
    overflows. In a subprocess, so that overflow warnings stay warnings."""
    done = subprocess.run([sys.executable, "-m", "qsemimarkov.cli", *argv],
                          env=_package_env(), capture_output=True, text=True)
    assert done.returncode == code, (argv, done.stderr)
    assert "Traceback" not in done.stderr
    if code:
        assert done.stdout == ""
        lines = [ln for ln in done.stderr.splitlines()
                 if ln.startswith("qsm: ")]
        assert lines == [lines[0]] and "numerical failure" in lines[0]
        assert ("steps exceed the cap" if argv[0] == "kernel-check"
                else "coherence zeros") in lines[0] and len(lines[0]) < 120
    elif argv[0] == "holevo":  # a singular divisibility step is NaN by design
        rows = [ln for ln in done.stdout.splitlines() if not ln.startswith("#")]
        assert len(rows) == 501 and "nan" not in "\n".join(rows[1:])


@pytest.mark.parametrize("argv, code", [
    (["holevo", "--t-max", "1e308"], 0),
    (["blp", "--p", "3", "--t-max", "1e308"], 0),
    (["divisibility", "--p", "3", "--t-max", "1e308"], 0),
    (["rate", "--p", "0.125", "--t-max", "1e308"], 0),
    (["measure", "--T", "1e308", "--p-max", "0.12"], 0),
    (["measure", "--family", "nonunital", "--T", "1e308"], 0),
    (["measure", "--T", "1e308"], 3),
], ids=["holevo", "blp", "divisibility", "rate-boundary", "measure-real",
        "measure-nonunital", "measure-poles"])
def test_huge_horizon_warns_nothing_in_process(capsys, argv, code):
    """In process, where the test run turns warnings into errors: the
    closed forms take their limits where s t overflows, and a sweep's pole
    count is refused before any closed form is evaluated."""
    got, out, err = _run(capsys, argv)
    assert got == code, err
    if code:
        assert "coherence zeros" in err and out == ""


@pytest.mark.parametrize("argv, code, says", [
    (["rate", "--s", "1e200"], 2, "s must have a finite square"),
    (["holevo", "--s", "1e200"], 2, "s must have a finite square"),
    (["kernel-check", "--s", "1e200"], 2, "s must have a finite square"),
    (["divisibility", "--boundary-search", "--s", "1e200"], 2,
     "s must have a finite square"),
    (["blp", "--s", "1e300", "--p", "1e300"], 2, "s must have a finite square"),
    (["measure", "--p-max", "inf"], 2, "--p-max < inf, got 0.0 and inf"),
    (["measure", "--s", "1e-300", "--p", "3"], 2, "8p/s^2 overflows"),
    (["rate", "--s", "1e-300"], 2, "8p/s^2 overflows"),
    (["measure", "--p-max", "1e308"], 2, "8p/s^2 overflows"),
    (["measure", "--gamma-ref", "1e308"], 0, ""),
    (["rate", "--s", "1e-300", "--p", "0", "--grid", "5"], 0, ""),
    (["measure", "--s", "1e-300", "--p", "0"], 0, ""),
    (["measure", "--gamma-ref", "1e308", "--form", "choi"], 0, ""),
    (["measure", "--gamma-ref", "8e307", "--form", "choi"], 0, ""),
    (["holevo", "--s", "1e-300", "--grid", "3"], 2, "8p/s^2 overflows"),
    (["blp", "--p", "1e308"], 2, "8p/s^2 overflows at s = 1.0, p = 1e+308"),
    (["divisibility", "--s", "1e-300", "--p", "2", "--grid", "3"], 2,
     "8p/s^2 overflows at s = 1e-300, p = 2.0"),
    (["kernel-check", "--s", "1e-300", "--p", "2"], 2, "8p/s^2 overflows"),
    (["classical-sim", "--seed", "1", "--paths", "1000", "--lambda1",
      "1e-320"], 0, ""),
    (["classical-sim", "--seed", "1", "--paths", "1000", "--wtd",
      "exponential", "--lambda", "1e-320"], 0, ""),
    (["classical-sim", "--seed", "1", "--lambda1", "1e5", "--paths", "10",
      "--grid", "3"], 0, ""),
    (["classical-sim", "--seed", "1", "--lambda1", "1e308", "--paths", "10",
      "--grid", "3"], 0, ""),
    (["measure", "--p", "3", "--epsilon", "1e308"], 3, "entire horizon"),
    (["measure", "--epsilon", "1e300"], 0, ""),
    (["measure", "--p", "3", "--epsilon", "5e-324"], 0, ""),
    (["classical-sim", "--wtd", "tanhsech", "--t-max", "1000", "--paths",
      "10", "--seed", "1"], 0, ""),
    (["measure", "--family", "nonunital", "--lambda", "1e300", "--T", "1e10"],
     3, "antiderivative of the rate is not finite"),
    (["measure", "--family", "nonunital", "--lambda", "1e300", "--T", "1e10",
      "--form", "choi"], 3, "is not finite"),
    (["measure", "--p", "3", "--T", "3", "--mode", "min", "--epsilon",
      "1e-10", "--form", "choi"], 0, ""),
    (["measure", "--p", "3", "--T", "60", "--epsilon", "1e-10", "--form",
      "choi"], 0, ""),
], ids=["rate-huge-s", "holevo-huge-s", "kernel-check-huge-s",
        "boundary-huge-s", "blp-huge-s", "measure-inf-p-max",
        "measure-tiny-s", "rate-tiny-s", "measure-huge-p", "measure-huge-ref",
        "rate-tiny-s-p0", "measure-tiny-s-p0", "measure-huge-ref-choi",
        "measure-large-ref-choi",
        "holevo-tiny-s", "blp-huge-p", "divisibility-tiny-s",
        "kernel-check-tiny-s", "classical-sim-tiny-rate",
        "classical-sim-tiny-exponential-rate", "classical-sim-huge-stage-rate",
        "classical-sim-overflowing-stage-rate",
        "measure-huge-epsilon", "measure-huge-epsilon-without-poles",
        "measure-subnormal-epsilon", "classical-sim-tanhsech-long",
        "measure-nonunital-huge-rate", "measure-nonunital-huge-rate-choi",
        "measure-tiny-epsilon-choi-min", "measure-tiny-epsilon-choi-poles"])
def test_extreme_rates_warn_nothing_in_process(capsys, argv, code, says):
    """In process, where the test run turns warnings into errors: an s whose
    square overflows, or a p whose 8p/s^2 does, is refused where the process
    is built, as |eta| would be inf and every phase 0 * inf; p = 0 is the
    semigroup also where s^2 underflows; a huge reference rate is reached at
    a pole or never. The Choi form takes the rate form's xi, zeta and
    gamma_ref, beside tiny excisions too, and its xi_raw, the family
    constant times xi, is inf past the float range: at 1e308. A tiny jump
    rate makes an infinite wait: the path never jumps again. A huge stage
    rate leaves the exact survival finite, and one whose product with t
    overflows makes it 0. An excision that overflows its
    phase removes the horizon before the phase is taken, and one whose
    phase is subnormal or 0 takes ln|sin| as ln of the phase. Where lambda t
    overflows, sech is 0, and the antiderivative of the rate is inf, which
    is refused in either form."""
    got, out, err = _run(capsys, argv)
    assert got == code, err
    if code:
        lines = err.splitlines()
        assert out == "" and len(lines) == 1 and lines[0].startswith("qsm: ")
        assert says in lines[0]
    else:
        assert err == ""
        if "choi" in argv:
            i = argv.index("--form")
            rows = _same_cells_as_rate_form(capsys, argv[:i] + argv[i + 2:])
            huge = "1e308" in argv
            assert all((r["xi_raw"] == "inf") == huge for r in rows)


@pytest.mark.parametrize("argv", [
    ["--wtd", "exponential", "--lambda", "1e308"],
    ["--wtd", "exponential", "--lambda", "1e5", "--paths", "1000"],
    ["--wtd", "tanhsech", "--lambda", "1e308"],
    ["--lambda1", "1e308", "--lambda2", "1e308"],
    ["--lambda1", "1e-320", "--paths", "100000001"],  # one wait per path
], ids=["exponential-huge", "exponential-1e5", "tanhsech-huge",
        "expconv-huge", "many-paths-that-never-jump"])
def test_classical_sim_past_the_renewal_cap_fails_before_walking(
        monkeypatch, capsys, argv):
    # n_paths (t_max / (mean wait) + 1) renewal steps: 2e308 would never
    # end, and 2e8 takes about 30 s; both are refused before any path is
    # walked
    monkeypatch.setattr(semimarkov, "_walk",
                        lambda *args: pytest.fail("a path was walked"))
    code, out, err = _run(capsys, ["classical-sim", "--seed", "1", *argv])
    lines = err.splitlines()
    assert code == 3 and out == "" and len(lines) == 1
    assert lines[0].startswith("qsm: ") and "renewal steps" in lines[0]
    assert f"cap of {semimarkov._MAX_RENEWALS:.0e}" in lines[0]


def test_measure_sweep_with_a_row_that_loses_its_horizon_fails(capsys):
    # 2 eps = 8 covers every period of p = 3 and its first pole: its
    # excision removes [0, 30], though p = 1/4 keeps a piece
    code, out, err = _run(capsys, ["measure", "--T", "30", "--epsilon", "4",
                                   "--p-min", "0.25", "--p-max", "3",
                                   "--p-points", "2"])
    assert code == 3 and out == ""
    assert "entire horizon" in err
    code, out, err = _run(capsys, ["measure", "--T", "30", "--epsilon", "4",
                                   "--p", "0.25"])
    assert code == 0, err


def test_kernel_check_past_the_old_step_cap(capsys):
    # 2e5 steps: the recurrence is linear in the steps, so the solve fits
    doc = _json_out(capsys, ["kernel-check", "--dt", "2.5e-5",
                             "--format", "json"])
    assert 3.5 <= doc["metadata"]["convergence_ratio"] <= 4.5


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_kernel_check_memory_grows_below_100_bytes_per_step():
    """Peak RSS of --dt 1e-4 and 1e-5 (5e4 and 5e5 steps over the default
    --t-max 5), each in a fresh interpreter: the solve keeps one float per
    step of the coherence, not a 4x4 map."""
    script = ("import contextlib, io, resource, sys\n"
              "from qsemimarkov.cli import run\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert run(['kernel-check', '--dt', sys.argv[1]]) == 0\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    peak = []
    for dt in ("1e-4", "1e-5"):
        done = subprocess.run([sys.executable, "-c", script, dt],
                              env=_package_env(), capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        peak.append(1024 * int(done.stdout))
    assert (peak[1] - peak[0]) / (5e5 - 5e4) < 100.0, peak


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads ru_maxrss in KiB, as Linux reports it")
def test_measure_output_and_memory_do_not_grow_with_the_poles():
    """``measure --p 3`` at T = 1e3 and 1e5 (763 and 76328 rate poles), each
    in a fresh interpreter: the output gives the poles as their lattice, so
    it stays under 10 kB and the peak RSS within 2 MiB."""
    script = ("import contextlib, io, resource, sys\n"
              "from qsemimarkov.cli import run\n"
              "out = io.StringIO()\n"
              "with contextlib.redirect_stdout(out):\n"
              "    assert run(['measure', '--p', '3', '--T', sys.argv[1]])"
              " == 0\n"
              "print(len(out.getvalue().encode()),\n"
              "      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    got = []
    for horizon in ("1e3", "1e5"):
        done = subprocess.run([sys.executable, "-c", script, horizon],
                              env=_package_env(), capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        got.append([int(x) for x in done.stdout.split()])
    (size_lo, peak_lo), (size_hi, peak_hi) = got
    assert max(size_lo, size_hi) < 10_000, got
    assert 1024 * (peak_hi - peak_lo) < 2 * 2**20, got


def test_kernel_check_with_a_trajectory_that_overflows_fails_loudly():
    """In a subprocess, so that an overflow warning would reach stderr."""
    done = subprocess.run([sys.executable, "-m", "qsemimarkov.cli",
                           "kernel-check", "--p", "1e300", "--dt", "0.01",
                           "--t-max", "1"],
                          env=_package_env(), capture_output=True, text=True)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr.startswith("qsm: numerical failure")
    assert done.stderr.count("\n") == 1, done.stderr


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
