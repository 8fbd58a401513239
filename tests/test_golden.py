"""Golden outputs captured before a change to the code that produced them.

Monte Carlo streams are fixed by contract, so the classical-sim files must
match byte for byte. The Volterra solver may reorder its memory sums, so the
kernel-check file (JSON, full precision) is compared within rounding. The
figure recipes must match byte for byte. The min-mode measure sweep was
captured with a golden-section reference search, which stopped within about
1e-8 of the exact time-median the package now computes, so its numbers are
compared within 1e-8.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qsemimarkov.cli import run

GOLDEN = Path(__file__).parent / "golden"


def _output(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


@pytest.mark.parametrize("name, argv", [
    ("classical_sim_expconv.csv", ["--paths", "20000", "--seed", "7"]),
    ("classical_sim_tanhsech.csv", ["--wtd", "tanhsech", "--paths", "2000",
                                    "--t-max", "200", "--grid", "401",
                                    "--seed", "11"]),
    ("classical_sim_jump_prob.csv", ["--wtd", "exponential",
                                     "--jump-prob", "0.3", "--seed", "0"]),
    ("classical_sim_max_seed.csv", ["--seed", "18446744073709551615"]),
])
def test_classical_sim_golden_bytes(capsys, name, argv):
    out = _output(capsys, ["classical-sim", "--format", "csv", *argv])
    assert out == (GOLDEN / name).read_text()


def test_kernel_check_golden_within_rounding(capsys):
    doc = json.loads(_output(capsys, ["kernel-check", "--p", "3",
                                      "--format", "json"]))
    gold = json.loads((GOLDEN / "kernel_check_p3.json").read_text())
    assert doc["config"] == gold["config"]
    assert list(doc["columns"]) == list(gold["columns"])
    for name, col in gold["columns"].items():
        assert np.abs(np.array(doc["columns"][name]) - col).max() <= 1e-12
    ratio = doc["metadata"]["convergence_ratio"]
    assert ratio == pytest.approx(gold["metadata"]["convergence_ratio"],
                                  abs=1e-9)


@pytest.mark.parametrize("name, command", [
    ("fig1.csv", "rate"),
    ("fig2.csv", "measure"),
    ("fig3.csv", "holevo"),
])
def test_recipe_golden_bytes(tmp_path, capsys, name, command):
    recipe = Path(__file__).parent.parent / "recipes" / name.replace(".csv",
                                                                     ".cfg")
    out = tmp_path / name
    _output(capsys, [command, "--config", str(recipe), "--format", "csv",
                     "--out", str(out)])
    assert out.read_text() == (GOLDEN / name).read_text()


def _columns(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()
            if not line.startswith("#")]
    return {name: np.array([float(row[i]) for row in rows[1:]])
            for i, name in enumerate(rows[0])}


def test_min_mode_sweep_golden_within_search_tolerance(capsys):
    out = _output(capsys, ["measure", "--mode", "min", "--format", "csv"])
    gold = (GOLDEN / "measure_min_sweep.csv").read_text()
    head = [line for line in out.splitlines() if line.startswith("#")]
    assert head == [line for line in gold.splitlines() if line.startswith("#")]
    got, want = (_columns(text) for text in (out, gold))
    assert list(got) == list(want)
    for name in ("p", "cp_indivisible"):
        assert np.array_equal(got[name], want[name])
    for name in ("xi", "zeta", "gamma_ref"):
        assert np.abs(got[name] - want[name]).max() <= 1e-8
    # p = 0 is the semigroup (gamma identically 0); the search stopped at
    # 4.07e-9, the median is exactly 0
    assert got["p"][0] == 0.0 and want["xi"][0] > 0.0
    assert got["xi"][0] == got["gamma_ref"][0] == 0.0
