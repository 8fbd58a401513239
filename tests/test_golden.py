"""Golden outputs captured before a change to the code that produced them.

Monte Carlo streams are fixed by contract, so the classical-sim files must
match byte for byte. The Volterra solver may reorder its memory sums, so the
kernel-check file (JSON, full precision) is compared within rounding. The
figure recipes must match byte for byte.

The map-stack goldens (Holevo recipe, divisibility scan, BLP curve and the
non-unital library curves) were captured when every time point went through
a per-time Kraus map. The closed-form map stack, and then the Bloch form of
the maps, change only rounding, so the scan curve is compared within a
stated tolerance, column by column, and the BLP curve as below.

The Holevo recipe's ``chi_p2`` column was re-captured in 25 cells when chi
moved from the eigenvalues of 2 x 2 states onto Bloch lengths, with a
series where chi is small. Every one of them has chi < 1e-3, near a zero of
q, where the eigenvalue route lost up to 1.3e-8 relative. Each is listed in
``_FIG3_RECAPTURED`` with its 50-digit value, and none is further from it
than before. Its # lines and every other cell are unchanged, so the recipe
is compared byte for byte.

The measure goldens (non-unital rate and Choi routes, the dephasing Choi
sweep, each in both reference modes, and the min-mode rate sweep) pin the
measure command byte for byte. ``measure_min_sweep.csv`` was captured with
a golden-section reference search, which stopped within about 1e-8 of the
exact time-median, and ``measure_choi_sweep_min.csv`` with a Brent search
to 1e-12. Both were held within those tolerances until their cells were
re-captured from the exact median: every gamma_ref of the rate sweep, its
xi and zeta at p = 0 (4.07e-9 before, 0 now) and its zeta at p = 0.03; and
gamma_ref at p = 0.22 of the Choi sweep. Each is listed as it was in
``_MIN_RECAPTURED_BEFORE`` and is no further than before from its 50-digit
oracle. No other line of them changed.

The ``# meta.max_survival_error_se`` line of the tanh-sech and max-seed
classical-sim files was re-captured when its denominator became the larger
of the empirical SE and the binomial SE of the exact survival (it had been
the empirical SE floored at 1e-12). Their data rows were not re-captured.

Provenance lines were re-captured where the CLI began to list every default
it reads in ``meta.defaults_applied`` (spelled as the flag: ``lambda``, not
``lam``) and stopped echoing ``config.gamma-ref`` in min mode, which never
reads it. Their data rows were not re-captured.

The headers of the four p-sweep measure files (``fig2.csv``,
``measure_min_sweep.csv``, ``measure_choi_sweep_paper.csv`` and
``measure_choi_sweep_min.csv``) were re-captured when ``config.*`` became
exactly the settings the command read: each gained the lines
``# config.p-min``, ``# config.p-max`` and ``# config.p-points`` after
``# config.s``. No other line of any golden changed, and no data row was
re-captured.

The pole-sweep goldens (``measure_poles_paper.csv`` and
``measure_poles_min.csv``: ``--T 60 --p-max 5 --p-points 11``, from p = 0
across the boundary to 59 rate poles per row) were captured with the
per-p ``sss_measure`` loop, before the sweep was evaluated as one batch.
They pin the batch byte for byte.
Their xi and zeta cells (p = 0.5 to 5) were re-captured when the measure
moved onto the pole lattice and took Gamma at the excision edges in phase
form: the old cells were about 1e-10 relative off a 40-digit oracle. The
fixed-mode xi now matches that oracle to 2.2e-16 relative, and the
min-mode xi matches the Choi route to 2.2e-11. Their headers and gamma_ref
cells are unchanged.

The SVG recipe goldens (``fig1.svg`` from ``rate``, ``fig2.svg`` from
``measure``) and the help transcript (``cli_help.txt``: the text of
``qsm --help`` and of every ``qsm <command> --help`` at ``COLUMNS=200``,
with stdout, stderr and exit code of usage errors: an unknown command, a
missing command, an unknown flag and bad flag values) were captured while
the emitters still formatted one cell per call and the CLI built every
command's flags for each run, before either changed. They pin both
changes byte for byte.

The headers of ``fig1.csv``, ``fig3.csv``, ``blp_p3.csv``,
``divisibility_p3.csv`` and ``kernel_check_p3.json`` were re-captured
when ``--family`` became a ``measure`` flag alone: each lost its
``config.family`` line and ``family`` from ``meta.defaults_applied``. The
help of ``rate``, ``holevo``, ``blp``, ``divisibility`` and ``kernel-check``
in ``cli_help.txt`` was re-captured then too, and lost exactly the flags those
commands stopped registering (``--family``, ``--lambda``, and on ``holevo``
also ``--p``, ``--lambda1`` and ``--lambda2``). No data row changed.

The ``qsm rate --no-such-flag`` entry of ``cli_help.txt`` was re-captured
when a command's own parser began to report an unrecognized flag, as it
already reported a bad value: its two stderr lines are now the ``qsm rate``
usage and ``qsm rate: error: ...`` in place of the ``qsm`` usage and
``qsm: error: ...``. Its exit code, 2, and every other entry are unchanged.

The ``# meta.defaults_applied`` lines of ``measure_min_sweep.csv``,
``measure_choi_sweep_min.csv``, ``measure_nonunital_rate_min.csv``,
``measure_nonunital_choi_min.csv`` and ``measure_poles_min.csv`` were
re-captured when ``measure`` lost ``--gamma-max``, the upper clip of the
min-mode median: each lost ``gamma-max``. The ``measure`` entries of
``cli_help.txt`` (its help, and the usage of ``qsm measure --mode max``)
lost the flag from both usage lines and its help entry, and the ``--mode``
help its ``in [0, --gamma-max]``. No data row changed.

The ``--form`` help line of the ``measure`` entry of ``cli_help.txt`` was
re-captured when that text stopped calling the forms an "integrand
route", since neither form integrates: it now says what each form reports.
No other line changed.

``divisibility_boundary.csv`` and ``divisibility_boundary_s0.9.csv`` were
re-captured whole when ``divisibility --boundary-search`` began to print
the closed form s^2/8 in place of a bisection on the scan: ``p_estimate``
and ``meta.p_boundary_estimate`` read 0.125 and 0.10125 (the bisection read
0.126605 and 0.102594, high by the scan's floor on |q|), the ``p_low`` and
``p_high`` columns went, and the headers lost every setting but ``s`` and
``boundary-search``. The ``divisibility`` entry of ``cli_help.txt`` lost
``--p-tol``, ``--p-min``, ``--p-max`` and the search-mode defaults of
``--t-max`` and ``--grid``, and says what ``--boundary-search`` prints; the
``--p-min`` and ``--p-max`` lines of its ``measure`` entry lost "or
bisection bracket". The ``05_witnesses.py`` section of ``demos.txt`` now
prints s^2/8 and the scan either side of it, not the bisection bracket.

``fig3.svg`` (``holevo``) was captured then too, from the code before that
change; two renders of its recipe were byte-identical.

The four ``classical_sim_*.csv`` files gained one line,
``# meta.philox_counters``, when ``classical-sim`` began to report the
Philox counters it drew over all paths. Their data rows and every other
line are unchanged: walking the thinned chunks in parked cohorts changed
which draws are computed together, not which draws a path reads.

Line 5 of ``divisibility_boundary_s0.9.csv`` and line 7 of ``fig1.csv`` and
``fig3.csv``, each an empty ``# meta.defaults_applied`` value, lost the
trailing blank that the CSV writer left after the colon. No other line of
them changed.

The ``# meta.excised_intervals`` line of ``measure_poles_paper.csv`` and
``measure_poles_min.csv`` and the ``# meta.singular_times`` line of
``fig1.csv`` were re-captured when ``measure`` and ``rate`` began to give
the rate poles as their lattice t_k = t_1 + (k - 1) P, not as a list.
Each pole row of a sweep now has one entry, [lo, hi, p, P, N], whose
[lo, hi] is its first hole with the bits it had before; ``rate`` gives
[t_1, P, N], its t_1 the first pole listed before. No other line of them
changed.

``blp_p3.csv`` was re-captured once when ``blp_measure`` began to return
the revival measure in closed form, the sum of rho^k = e^(-k pi/w) over
the peaks of |q| plus |q(T)| in a rise, in place of the grid sum of the
rises above 1e-12. Its ``# meta.blp`` line reads 1.07118629181, the
closed form 1.0711862918107309 of the 50-digit
1.0711862918107309213..., where the grid sum read 1.06791012483. Its
``trace_distance`` column had been held at 2e-13, as 12 of its cells
differed in the 12th digit from the Bloch form. Each was checked against
|q(t)| to 50 digits. The 9 where today's cell is no farther were
re-captured, at t = 4.9, 7.165, 7.29, 8.405, 8.48, 8.58, 8.585, 9.91 and
9.915. The 3 where today's cell is farther kept the golden's, at
t = 0.74, 2.025 and 8.6. Each of the 12 is listed, with its two cells and
its oracle value, in ``_BLP_RECAPTURED`` and ``_BLP_KEPT``. The file is
compared byte for byte, but for those 3 cells, which the command prints
one unit off in the 12th digit. The ``05_witnesses.py`` revival line of
``demos.txt`` reads 1.071186 (1.067910 before). No other line of either
changed.
"""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

from qsemimarkov import NonUnitalSemiMarkov, blp_measure, holevo_curve
from qsemimarkov.cli import run

import mp_closed_forms as mp

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


def _assert_golden(text, gold, tol=None):
    """Byte-identical, except that each column named in ``tol`` may differ
    from the golden by at most its tolerance, with NaNs in the same cells.
    """
    if not tol:
        assert text == gold
        return

    def split(t):
        lines = t.splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        return [line for line in lines if line.startswith("#")], rows

    head, rows = split(text)
    gold_head, gold_rows = split(gold)
    assert head == gold_head
    assert rows[0] == gold_rows[0] and len(rows) == len(gold_rows)
    for j, name in enumerate(rows[0]):
        got = [row[j] for row in rows[1:]]
        want = [row[j] for row in gold_rows[1:]]
        if name not in tol:
            assert got == want, name
            continue
        a, b = np.array(got, dtype=float), np.array(want, dtype=float)
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        err = np.abs(a - b)[~np.isnan(a)]
        assert err.max(initial=0.0) <= tol[name], (name, err.max())


@pytest.mark.parametrize("name, command, tol", [
    pytest.param("fig1.csv", "rate", None, id="fig1.csv-rate"),
    pytest.param("fig2.csv", "measure", None, id="fig2.csv-measure"),
    pytest.param("fig3.csv", "holevo", None, id="fig3.csv-holevo"),
])
def test_recipe_golden_bytes(tmp_path, capsys, name, command, tol):
    """The recipes match byte for byte."""
    recipe = Path(__file__).parent.parent / "recipes" / name.replace(".csv",
                                                                     ".cfg")
    out = tmp_path / name
    _output(capsys, [command, "--config", str(recipe), "--format", "csv",
                     "--out", str(out)])
    _assert_golden(out.read_text(), (GOLDEN / name).read_text(), tol)


# fig3.csv's chi_p2 cells re-captured when chi moved onto Bloch lengths, by
# 0-based data row: (the cell before, the cell after, chi to 50 digits)
_FIG3_RECAPTURED = {
    78: ("1.59981401791e-05", "1.5998140179e-05",
          "1.5998140179045282686236791537627784478890905378747e-5"),
    213: ("1.78248750848e-06", "1.78248750855e-06",
          "1.7824875085519949475806930609121824277493807866555e-6"),
    215: ("9.78857754297e-05", "9.78857754299e-05",
          "9.788577542987155586565617928479881849513852680739e-5"),
    337: ("0.000882931316188", "0.000882931316189",
          "8.8293131618854045027722947218612773647726945504435e-4"),
    346: ("3.02712254626e-05", "3.02712254627e-05",
          "3.0271225462708084426070205987178220457974564239387e-5"),
    347: ("8.61384411177e-06", "8.61384411193e-06",
          "8.6138441119277286011562477639613767173742807122712e-6"),
    348: ("1.5756768712e-07", "1.57567687255e-07",
          "1.5756768725516726387834574823456517437097302770294e-7"),
    349: ("4.45603148458e-06", "4.45603148464e-06",
          "4.4560314846439485551770598775818308308523801142957e-6"),
    351: ("4.94506153372e-05", "4.94506153373e-05",
          "4.9450615337266435004711318529003678330148552450463e-5"),
    461: ("0.000728497155059", "0.000728497155058",
          "7.284971550583828102760381491118173259703252976293e-4"),
    467: ("0.000374841298891", "0.000374841298892",
          "3.74841298891521582514597895083291222807405243943e-4"),
    470: ("0.000243068049484", "0.000243068049485",
          "2.4306804948450449998889439340588358533977966137789e-4"),
    476: ("6.77243414411e-05", "6.77243414412e-05",
          "6.7724341441175216253253409632726891678500474898583e-5"),
    477: ("4.94641149271e-05", "4.94641149272e-05",
          "4.9464114927212118615944560869123908517299478939162e-5"),
    478: ("3.41865839397e-05", "3.41865839396e-05",
          "3.4186583939631960544094786669558400754312925369747e-5"),
    479: ("2.18239162371e-05", "2.18239162372e-05",
          "2.1823916237206840053166137809511245938361943203347e-5"),
    480: ("1.23036227828e-05", "1.23036227827e-05",
          "1.2303622782743547875653383784796095269345357979511e-5"),
    481: ("5.54882887793e-06", "5.54882887801e-06",
          "5.5488288780080306476334460774209356494335503508472e-6"),
    482: ("1.47854887311e-06", "1.47854887302e-06",
          "1.4785488730235326614432555062103415082311231494344e-6"),
    483: ("7.96374521883e-09", "7.96374531896e-09",
          "7.9637453189628981974892302599240970213720246978111e-9"),
    484: ("1.04870085482e-06", "1.04870085492e-06",
          "1.0487008549149765609031827401370474251900818374128e-6"),
    485: ("4.50911519234e-06", "4.50911519228e-06",
          "4.5091151922754126240861241700605668307065805165497e-6"),
    487: ("1.8307726256e-05", "1.83077262559e-05",
          "1.8307726255922932759881247498630166631239993548152e-5"),
    489: ("4.06159072108e-05", "4.06159072109e-05",
          "4.0615907210894224582805490841062936266022699638103e-5"),
    491: ("7.06114245081e-05", "7.06114245083e-05",
          "7.061142450827295994581739677177216080056087040387e-5"),
}


def test_fig3_recaptured_cells_are_closer_to_their_oracle():
    """Each re-captured cell is the golden's, and no further from chi at its
    t, 1 - H2((1 + |q|)/2) in 60-digit arithmetic, than the cell before."""
    rows = [line.split(",") for line in
            (GOLDEN / "fig3.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    ts = np.linspace(0.0, 6.0, 500)  # fig3.cfg: p = 2 at s = 1
    with mpmath.workdps(60):
        for row, (old, new, oracle) in _FIG3_RECAPTURED.items():
            assert rows[row][1] == new
            chi = mp.one_minus_s(abs(mp.q(1.0, 2.0, ts[row])))
            assert abs(chi - mpmath.mpf(oracle)) <= 1e-49 * chi
            assert abs(mpmath.mpf(new) - chi) <= abs(mpmath.mpf(old) - chi)


@pytest.mark.parametrize("name, command", [("fig1.svg", "rate"),
                                           ("fig2.svg", "measure"),
                                           ("fig3.svg", "holevo")])
def test_recipe_svg_golden_bytes(tmp_path, capsys, name, command):
    recipe = Path(__file__).parent.parent / "recipes" / name.replace(".svg",
                                                                     ".cfg")
    out = tmp_path / name
    _output(capsys, [command, "--config", str(recipe), "--out", str(out)])
    assert out.read_text() == (GOLDEN / name).read_text()


_COMMANDS = ("rate", "measure", "holevo", "blp", "divisibility",
             "classical-sim", "kernel-check")


def test_help_and_usage_errors_golden(capsys, monkeypatch):
    """Every help text and the usage errors, byte for byte: exit code,
    stdout and stderr of each call, in the order of ``cli_help.txt``."""
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps to the terminal
    calls = [["--help"], *([command, "--help"] for command in _COMMANDS),
             ["no-such-command"], [], ["--version"], ["--help", "rate"],
             ["rate", "--no-such-flag"], ["blp", "--grid", "x"],
             ["measure", "--mode", "max"]]
    text = ""
    for argv in calls:
        code = run(argv)
        out, err = capsys.readouterr()
        text += (f"$ qsm {' '.join(argv)}\n[exit {code}]\n"
                 f"[stdout]\n{out}[stderr]\n{err}")
    assert text == (GOLDEN / "cli_help.txt").read_text()


@pytest.mark.parametrize("name, argv, tol", [
    ("divisibility_p3.csv", ["divisibility", "--p", "3"],
     {"min_choi_eigenvalue": 1e-10}),
    ("divisibility_boundary.csv", ["divisibility", "--boundary-search"], None),
    ("divisibility_boundary_s0.9.csv",
     ["divisibility", "--boundary-search", "--s", "0.9"], None),
])
def test_map_stack_golden(capsys, name, argv, tol):
    out = _output(capsys, [*argv, "--format", "csv"])
    _assert_golden(out, (GOLDEN / name).read_text(), tol)


# blp_p3.csv's trace_distance cells that the Bloch form of the maps moved
# in the 12th digit, by 0-based data row: (the cell before, today's cell,
# |q(t)| to 50 digits). Where today's cell is no farther from |q| the golden
# holds it (_BLP_RECAPTURED); elsewhere it keeps the cell before (_BLP_KEPT)
_BLP_RECAPTURED = {
    980: ("0.0459727127482", "0.0459727127483",
          "4.5972712748250116971868745346331929678107738870768e-2"),
    1433: ("0.00848247258499", "0.00848247258498",
           "8.4824725849848940147377528486247588494146533980234e-3"),
    1458: ("9.39947587488e-05", "9.39947587489e-05",
           "9.3994758748903306766304746708745897950176789535293e-5"),
    1681: ("0.00693963446385", "0.00693963446386",
           "6.9396344638550759620531284701206236115584218795909e-3"),
    1696: ("0.00423098885587", "0.00423098885588",
           "4.2309888558750060897390187758455609307804948088529e-3"),
    1716: ("0.000724914753157", "0.000724914753156",
           "7.2491475315649234081823807576059190866319045147728e-4"),
    1717: ("0.000555850108412", "0.000555850108411",
           "5.5585010841140208719953524207289133871175267468468e-4"),
    1982: ("3.00127067659e-05", "3.00127067658e-05",
           "3.0012706765806611091105103856453865845012836828956e-5"),
    1983: ("5.6167040762e-05", "5.61670407619e-05",
           "5.6167040761939416282329230426090465124707175601767e-5"),
}
_BLP_KEPT = {
    148: ("0.00134597968202", "0.00134597968203",
          "1.3459796820249130359258270456127340936489369875378e-3"),
    405: ("0.0230610385504", "0.0230610385505",
          "2.3061038550449988849583122131252199261310307428074e-2"),
    1720: ("5.33017873872e-05", "5.33017873873e-05",
           "5.3301787387228962639196935372406570794789528472041e-5"),
}


def test_blp_golden_bytes_but_three_rounding_ties(capsys):
    """``blp --p 3`` matches ``blp_p3.csv`` byte for byte, except at the
    three kept cells, where it prints today's cell of ``_BLP_KEPT``."""
    out = _output(capsys, ["blp", "--p", "3", "--format", "csv"]).splitlines()
    gold = (GOLDEN / "blp_p3.csv").read_text().splitlines()
    first = gold.index("t,trace_distance") + 1
    assert len(out) == len(gold)
    for row, (kept, today, _) in _BLP_KEPT.items():
        t = gold[first + row].split(",")[0]
        assert gold[first + row] == f"{t},{kept}"
        assert out[first + row] == f"{t},{today}"
        out[first + row] = gold[first + row]
    assert out == gold


def test_blp_changed_cells_against_their_oracle():
    """Each changed cell's oracle is |q(t)| = |e^(-t/2) (cos wt/2 +
    sin(wt/2)/w)|, w = sqrt(23) (s = 1, p = 3), at the grid's t. A
    re-captured cell is no farther from it than the cell before; a kept
    cell is nearer to it than today's."""
    rows = [line.split(",") for line in
            (GOLDEN / "blp_p3.csv").read_text().splitlines()
            if not line.startswith("#")][1:]
    ts = np.linspace(0.0, 10.0, 2001)
    with mpmath.workdps(60):
        for cells, held in ((_BLP_RECAPTURED, 1), (_BLP_KEPT, 0)):
            for row, pair_and_oracle in cells.items():
                q = abs(mp.q(1.0, 3.0, ts[row]))
                assert abs(q - mpmath.mpf(pair_and_oracle[2])) <= 1e-49 * q
                assert rows[row][1] == pair_and_oracle[held]
                near, far = (mpmath.mpf(pair_and_oracle[i])
                             for i in (held, 1 - held))
                assert abs(near - q) <= abs(far - q)


@pytest.mark.parametrize("name, argv", [
    ("measure_nonunital_rate_paper.csv",
     ["--family", "nonunital", "--form", "rate", "--mode", "paper"]),
    ("measure_nonunital_rate_min.csv",
     ["--family", "nonunital", "--form", "rate", "--mode", "min"]),
    ("measure_nonunital_choi_paper.csv",
     ["--family", "nonunital", "--form", "choi", "--mode", "paper"]),
    ("measure_nonunital_choi_min.csv",
     ["--family", "nonunital", "--form", "choi", "--mode", "min"]),
    ("measure_choi_sweep_paper.csv", ["--form", "choi", "--mode", "paper"]),
    ("measure_choi_sweep_min.csv", ["--form", "choi", "--mode", "min"]),
    *((f"measure_poles_{mode}.csv", ["--T", "60", "--p-max", "5",
                                     "--p-points", "11", "--mode", mode])
      for mode in ("paper", "min")),
    ("measure_min_sweep.csv", ["--mode", "min"]),
])
def test_measure_golden_bytes(capsys, name, argv):
    out = _output(capsys, ["measure", *argv, "--format", "csv"])
    assert out == (GOLDEN / name).read_text()


def test_nonunital_library_curves_golden():
    gold = json.loads((GOLDEN / "nonunital_curves.json").read_text())
    proc = NonUnitalSemiMarkov(rate=gold["lambda"])
    blp = blp_measure(proc, gold["t_max"], n_grid=gold["n_grid"])
    chi = holevo_curve(proc, blp.times)
    assert np.array_equal(blp.times, gold["t"])
    assert np.abs(blp.trace_distance - gold["trace_distance"]).max() <= 1e-14
    assert np.abs(chi - gold["chi"]).max() <= 1e-14
    assert blp.measure == pytest.approx(gold["blp"], abs=1e-14)


# the min-mode cells re-captured when the time-median became exact, as they
# were: gamma_ref of every row of measure_min_sweep.csv (p = 0, 0.01, .., 0.5)
_MIN_SWEEP_GAMMA_REF_BEFORE = """4.06530937789e-09 0.00393981882528
    0.00788992456334 0.011850366191 0.0158212003303 0.0198024691809
    0.0237942259123 0.027796532556 0.0318094272089 0.0358329763514
    0.0398672216423 0.043912218355 0.0479680277712 0.0520346933144
    0.0561122821017 0.0602008346891 0.0643004202375 0.068411083824
    0.0725328870519 0.0766658825247 0.0808101276224 0.0849656838951
    0.0891326056021 0.0933109470356 0.0975007724438 0.101702139736
    0.105915105433 0.110139731246 0.114376076915 0.118624201318
    0.12288416522 0.127156028076 0.131439859709 0.135735709675
    0.140043652324 0.144363745628 0.148696054824 0.153040636005
    0.157397563882 0.161766900467 0.166148704881 0.170543048538
    0.174949997478 0.179369619992 0.183801977114 0.188247136759
    0.19270517423 0.197176153876 0.201660141572 0.20615721406
    0.210667436287""".split()
# the other cells, by (file, 0-based data row, column)
_MIN_RECAPTURED_BEFORE = {
    ("measure_min_sweep.csv", 0, "xi"): "4.06530937789e-09",
    ("measure_min_sweep.csv", 0, "zeta"): "4.06530936136e-09",
    ("measure_min_sweep.csv", 3, "zeta"): "0.00468107548978",
    ("measure_choi_sweep_min.csv", 22, "gamma_ref"): "0.0891326044483",
    **{("measure_min_sweep.csv", row, "gamma_ref"): cell
       for row, cell in enumerate(_MIN_SWEEP_GAMMA_REF_BEFORE)},
}


def test_min_mode_recaptured_cells_are_closer_to_their_oracle():
    """At s = 1 and T = 1 these rows have no pole and gamma rises, so the
    median is gamma(T/2) and xi = (Gamma(T) - 2 Gamma(T/2))/T. Each
    re-captured cell is no further from that, in 50-digit arithmetic, than
    the cell before, and within 1e-11 of it relative (xi = 0 at p = 0)."""
    golden = {name: [line.split(",") for line in
                     (GOLDEN / name).read_text().splitlines()
                     if not line.startswith("#")]
              for name in {name for name, _, _ in _MIN_RECAPTURED_BEFORE}}
    with mpmath.workdps(50):
        for (name, row, column), old in _MIN_RECAPTURED_BEFORE.items():
            header, cells = golden[name][0], golden[name][row + 1]
            p = np.linspace(0.0, 0.5, 51)[row]  # bits of the p
            xi = mp.big_gamma(1.0, p, 1.0) - 2 * mp.big_gamma(1.0, p, 0.5)
            oracle = {"xi": xi, "zeta": xi / (1 + xi),
                      "gamma_ref": mp.gamma(1.0, p, 0.5)}[column]
            new = mpmath.mpf(cells[header.index(column)])
            assert abs(new - oracle) <= abs(mpmath.mpf(old) - oracle)
            assert abs(new - oracle) <= 1e-11 * abs(oracle) + 1e-45  # p = 0
