"""Golden outputs captured before the batched Monte Carlo and Volterra code.

Monte Carlo streams are fixed by contract, so the classical-sim files must
match byte for byte. The Volterra solver may reorder its memory sums, so the
kernel-check file (JSON, full precision) is compared within rounding.
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
