"""The benchmark's three workloads: their inputs, operations and oracles.

A workload is a fixed list of four operations, ``op1`` to ``op4``, each
run ``reps`` times per pass. Each operation is one or more steps, and a
step is either one ``qsm`` command run in process through
``qsemimarkov.cli.run`` or one call of the library API. Every step writes
its result to a file, and after each pass the oracles below read those
files back and compare them with closed forms evaluated at the drawn
parameters.

The seed sets the Monte Carlo seeds and jitters the dephasing parameters
inside ranges that keep the regime, the number of rate poles and every grid
size fixed, so the cost of a pass does not depend on the seed:

- ``s`` in [0.9, 1.1] for the measure sweeps;
- ``p`` in [2.5, 3.5] for the CP-indivisible cases (exactly one zero of q
  inside T = 1);
- ``lam`` in [0.9, 1.1] for the non-unital family.

The divisibility boundary search runs at the default s = 1: for most s in
[0.9, 1.1] q(t) rounds to just above 1 at some probe, the Kraus weights
become NaN, and the search dies with an uncaught LinAlgError.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("grid_maps", "xi_measure", "memory_mc")

@dataclass(frozen=True)
class Inputs:
    s: float
    p: float
    lam: float
    mc_seeds: tuple[int, int]

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = random.Random(seed)
        return cls(s=rng.uniform(0.9, 1.1), p=rng.uniform(2.5, 3.5),
                   lam=rng.uniform(0.9, 1.1),
                   mc_seeds=(rng.getrandbits(63), rng.getrandbits(63)))


@dataclass
class Step:
    """One command line (``argv``) or library call (``call``) and its file."""

    key: str
    out: str
    argv: list[str] = field(default_factory=list)
    call: Callable[[object, Path], None] | None = None


@dataclass
class Workload:
    name: str
    inputs: Inputs
    ops: list[list[Step]]
    op_names: tuple[str, ...]  # op1..op4 as named in the report
    check: Callable[[dict[str, Path]], dict[str, list[str]]]
    # runs of each operation per pass: short operations run more than once
    # so that their medians rest on more than a few short samples
    reps: tuple[int, ...] = (1, 1, 1, 1)
    # calibration job whose speed each operation's time follows: "loop"
    # for Python loops over points, nodes or paths, "array" for bulk numpy
    op_kinds: tuple[str, ...] = ("loop",) * 4
    # steps whose output must be byte-identical in every pass (fixed seed)
    repeatable: tuple[str, ...] = ()


def _r(x: float) -> str:
    return repr(float(x))


def build(name: str, seed: int, recipes: Path) -> Workload:
    inp = Inputs.from_seed(seed)
    return {"grid_maps": _grid_maps, "xi_measure": _xi_measure,
            "memory_mc": _memory_mc}[name](inp, recipes)


# -- closed forms ------------------------------------------------------------

def q_closed(s: float, p: float, t) -> np.ndarray:
    """q(t) = exp(-st/2) (cosh(eta s t/2) + sinh(eta s t/2)/eta)."""
    t = np.asarray(t, dtype=float)
    eta = np.sqrt(complex(1.0 - 8.0 * p / s**2))
    x = eta * s * t / 2
    return (np.exp(-s * t / 2) * (np.cosh(x) + np.sinh(x) / eta)).real


def gamma_closed(s: float, p: float, t) -> np.ndarray:
    """gamma(t) = 2p / (s eta coth(s eta t/2) + s), for t > 0."""
    t = np.asarray(t, dtype=float)
    eta = np.sqrt(complex(1.0 - 8.0 * p / s**2))
    x = s * eta * t / 2
    return (2.0 * p / (s * eta * np.cosh(x) / np.sinh(x) + s)).real


def h2(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=float), 1e-300, 1.0)
    y = np.clip(1.0 - x, 1e-300, 1.0)
    return -(x * np.log2(x) + y * np.log2(y))


def first_zero(s: float, p: float) -> float:
    w = math.sqrt(8.0 * p / s**2 - 1.0)
    return 2.0 * (math.pi - math.atan(w)) / (s * w)


# -- readers -----------------------------------------------------------------

def read_csv(path: Path) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """(config and meta entries, columns) of a qsm CSV file."""
    head: dict[str, str] = {}
    rows: list[list[float]] = []
    names: list[str] = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            head[key] = value
        elif not names:
            names = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return head, {n: data[:, i] for i, n in enumerate(names)}


_LEGEND = re.compile(
    r'stroke="(#\w+)" stroke-width="2"/>\n<text [^>]*>([^<]*)<')
_LINE = re.compile(r'<polyline stroke="(#\w+)"[^>]*points="([^"]*)"')


def read_svg(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Series name -> (x, y) of the finite points of each polyline."""
    text = path.read_text()
    colour_to_name = {c: n for c, n in _LEGEND.findall(text)}
    pts: dict[str, list[tuple[float, float]]] = {}
    for colour, points in _LINE.findall(text):
        pts.setdefault(colour_to_name[colour], []).extend(
            tuple(map(float, xy.split(","))) for xy in points.split())
    return {n: (np.array([a for a, _ in v]), np.array([b for _, b in v]))
            for n, v in pts.items()}


def _close(name: str, got, want, tol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    if got.size == 0:
        return [f"{name}: no values"]
    err = np.abs(got - want)
    if not np.all(err <= tol):
        i = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        return [f"{name}: |{got[i]!r} - {want[i]!r}| > {tol:g} at index {i}"]
    return []


def _that(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# -- grid_maps ---------------------------------------------------------------

def _nonunital_curves(qsm, out: Path, lam: float) -> None:
    """Non-unital BLP distance and Holevo curve through the library API."""
    proc = qsm.NonUnitalSemiMarkov(rate=lam)
    blp = qsm.blp_measure(proc, 6.0, n_grid=1000)
    chi = qsm.holevo_curve(proc, blp.times)
    table = qsm.ResultTable(
        command="nonunital-curves", config={"lambda": lam},
        columns={"t": blp.times, "trace_distance": blp.trace_distance,
                 "chi": chi},
        metadata={"blp": blp.measure})
    out.write_text(qsm.to_csv(table))


def _grid_maps(inp: Inputs, recipes: Path) -> Workload:
    s1 = 1.0  # every grid_maps command runs at s = 1 (CLI default, recipes)
    ops = [
        [Step("boundary", "boundary.csv",
              ["divisibility", "--boundary-search"])],
        [Step("scan", "scan.csv", ["divisibility", "--p", _r(inp.p)])],
        [Step("holevo", "holevo.svg",
              ["holevo", "--config", str(recipes / "fig3.cfg")]),
         Step("blp", "blp.csv", ["blp", "--p", _r(inp.p)]),
         Step("rate", "rate.svg",
              ["rate", "--config", str(recipes / "fig1.cfg")])],
        [Step("nonunital", "nonunital.csv",
              call=lambda qsm, out: _nonunital_curves(qsm, out, inp.lam))],
    ]

    def check(files: dict[str, Path]) -> dict[str, list[str]]:
        bad: dict[str, list[str]] = {}
        _, cols = read_csv(files["boundary"])
        b = s1**2 / 8
        bad["boundary"] = _that(
            abs(cols["p_estimate"][0] - b) <= 0.016 * b,
            f"boundary {cols['p_estimate'][0]!r} not within 1.6% of {b!r}")

        head, cols = read_csv(files["scan"])
        ts = np.linspace(0.0, float(head["config.t-max"]),
                         int(head["config.grid"]))
        q = q_closed(s1, inp.p, ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(q[1:] / q[:-1])
        viol = cols["violation"] == 1.0
        checked = np.isfinite(cols["min_choi_eigenvalue"])
        bad["scan"] = (
            _that(viol.any(), "no CP-divisibility violation at p > s^2/8")
            + _that(bool(np.all(ratio[viol] > 1.0)),
                    "violation on a step with |q(t2)/q(t1)| <= 1")
            + _that(bool(np.all(viol[checked & (ratio > 1.0 + 1e-6)])),
                    "no violation on a step with |q(t2)/q(t1)| > 1"))

        series = read_svg(files["holevo"])
        errs = []
        for p in (2.0, 0.1, 0.01):
            t, chi = series[f"chi_p{p:g}"]
            want = 1.0 - h2((1.0 + np.abs(q_closed(s1, p, t))) / 2.0)
            errs += _close(f"holevo p={p:g}", chi, want, 1e-8)
        bad["holevo"] = errs

        _, cols = read_csv(files["blp"])
        bad["blp"] = _close("blp D(t)", cols["trace_distance"],
                            np.abs(q_closed(s1, inp.p, cols["t"])), 1e-9)

        t, g = read_svg(files["rate"])["gamma"]  # fig1.cfg: p = 3
        away = (t > 0.0) & (np.abs(q_closed(s1, 3.0, t)) > 1e-3)
        want = gamma_closed(s1, 3.0, t[away])
        bad["rate"] = _close("rate gamma(t)", g[away], want,
                             1e-8 * np.abs(want) + 1e-10)

        head, cols = read_csv(files["nonunital"])
        # each output state g|+><+| + (1-g)|0><0| has determinant
        # g(1-g)/2; the ensemble average is diag(1 - g/2, g/2)
        g = 1.0 / np.cosh(inp.lam * cols["t"])
        disc = np.clip(1.0 - 2.0 * g * (1.0 - g), 0.0, None)
        top = (1.0 + np.sqrt(disc)) / 2.0
        bad["nonunital"] = (
            _close("non-unital D(t)", cols["trace_distance"], g, 1e-9)
            + _close("non-unital chi(t)", cols["chi"],
                     h2(g / 2.0) - h2(top), 1e-8)
            + _that(float(head["meta.blp"]) <= 1e-12,
                    "non-unital BLP measure is not 0"))
        return bad

    return Workload("grid_maps", inp, ops,
                    ("boundary_s", "scan_s", "curves_s", "nonunital_s"),
                    check, reps=(1, 2, 2, 2))


# -- xi_measure --------------------------------------------------------------

def _xi_fixed(s: float, p, T: float = 1.0) -> np.ndarray:
    """xi against gamma_ref = 0 when gamma >= 0 on [0, T]: -ln q(T) / 2T."""
    return np.array([-math.log(q_closed(s, float(x), T)) / (2.0 * T)
                     for x in np.atleast_1d(p)])


def _xi_measure(inp: Inputs, recipes: Path) -> Workload:
    s, lam = _r(inp.s), _r(inp.lam)
    ops = [
        [Step("min_sweep", "min_sweep.csv",
              ["measure", "--mode", "min", "--s", s])],
        [Step("choi_sweep", "choi_sweep.csv",
              ["measure", "--mode", "min", "--form", "choi",
               "--p-points", "5", "--s", s]),
         Step("choi_nonunital", "choi_nonunital.csv",
              ["measure", "--family", "nonunital", "--mode", "min",
               "--form", "choi", "--lambda", lam])],
        [Step("pole", "pole.csv",
              ["measure", "--p", _r(inp.p), "--mode", "min"])],
        [Step("fig2", "fig2.svg",
              ["measure", "--config", str(recipes / "fig2.cfg")]),
         Step("fixed_json", "fixed.json",
              ["measure", "--format", "json", "--s", s]),
         Step("fixed_nonunital", "fixed_nonunital.csv",
              ["measure", "--family", "nonunital", "--lambda", lam])],
    ]
    ln_cosh = math.log(math.cosh(inp.lam))
    xi_min_nonunital = ln_cosh - 2.0 * math.log(math.cosh(inp.lam / 2.0))

    def check(files: dict[str, Path]) -> dict[str, list[str]]:
        bad: dict[str, list[str]] = {}
        doc = json.loads(files["fixed_json"].read_text())
        p_fixed = np.array(doc["columns"]["p"], dtype=float)
        xi_fixed = np.array(doc["columns"]["xi"], dtype=float)
        bad["fixed_json"] = _close("fixed xi", xi_fixed,
                                   _xi_fixed(inp.s, p_fixed), 1e-7)

        _, mn = read_csv(files["min_sweep"])
        b = inp.s**2 / 8
        bad["min_sweep"] = (
            _close("min zeta", mn["zeta"], mn["xi"] / (1 + mn["xi"]), 1e-10)
            + _close("min cp_indivisible", mn["cp_indivisible"],
                     (mn["p"] > b).astype(float), 0.0)
            + _that(bool(np.all(mn["xi"] <= xi_fixed + 1e-8)),
                    "xi at the minimizing reference exceeds xi at 0")
            + _that(bool(np.all(mn["gamma_ref"] >= 0.0)),
                    "negative reference rate"))

        _, ch = read_csv(files["choi_sweep"])
        shared = [(i, j) for i, p in enumerate(ch["p"])
                  for j, q in enumerate(mn["p"]) if abs(p - q) < 1e-12]
        bad["choi_sweep"] = (
            _that(len(shared) == 3, f"{len(shared)} shared p values, not 3")
            + _close("choi xi vs rate xi",
                     [ch["xi"][i] for i, _ in shared],
                     [mn["xi"][j] for _, j in shared], 1e-6))

        _, nu = read_csv(files["choi_nonunital"])
        bad["choi_nonunital"] = (
            _close("non-unital gamma_ref", nu["gamma_ref"],
                   [inp.lam * math.tanh(inp.lam / 2.0)], 1e-6)
            + _close("non-unital min xi", nu["xi"], [xi_min_nonunital], 1e-6))

        head, po = read_csv(files["pole"])
        holes = ast.literal_eval(head["meta.excised_intervals"])
        t1 = first_zero(1.0, inp.p)
        bad["pole"] = (
            _that(len(holes) == 1 and holes[0][0] < t1 < holes[0][1],
                  f"excised {holes}, expected one interval around {t1!r}")
            + _that(bool(np.isfinite(po["xi"][0]) and po["xi"][0] > 0.0),
                    f"pole xi {po['xi'][0]!r}"))

        series = read_svg(files["fig2"])
        p2, xi2 = series["xi"]
        bad["fig2"] = _close("fig2 xi", xi2, _xi_fixed(1.0, p2), 1e-7)

        _, fn = read_csv(files["fixed_nonunital"])
        bad["fixed_nonunital"] = _close("non-unital fixed xi", fn["xi"],
                                        [ln_cosh], 1e-8)
        return bad

    return Workload("xi_measure", inp, ops,
                    ("measure_min_s", "measure_choi_s", "measure_pole_s",
                     "measure_fixed_s"),
                    check, reps=(1, 1, 1, 2))


# -- memory_mc ---------------------------------------------------------------

def _survival_misses(name: str, path: Path) -> list[str]:
    """Empirical survival within 4 standard errors of the exact one."""
    head, c = read_csv(path)
    n = int(head["config.paths"])
    g = c["survival_exact"]
    se = np.maximum(c["survival_se"], np.sqrt(g * (1.0 - g) / n))
    miss = np.abs(c["survival"] - g) > 4.0 * se + 1e-12
    return _that(not miss.any(),
                 f"{name}: survival off by more than 4 SE at "
                 f"t = {c['t'][miss][:3].tolist()}")


def _memory_mc(inp: Inputs, recipes: Path) -> Workload:
    many, long_ = (str(x) for x in inp.mc_seeds)
    long_argv = ["classical-sim", "--wtd", "tanhsech", "--paths", "5000",
                 "--t-max", "200", "--grid", "401", "--seed", long_]
    ops = [
        [Step("kernel", "kernel.csv", ["kernel-check", "--p", _r(inp.p)])],
        [Step("mc_many", "mc_many.csv",
              ["classical-sim", "--paths", "100000", "--seed", many])],
        [Step("mc_long", "mc_long.csv", list(long_argv))],
        [Step("mc_repeat", "mc_repeat.csv", list(long_argv))],
    ]

    def check(files: dict[str, Path]) -> dict[str, list[str]]:
        head, _ = read_csv(files["kernel"])
        dev = float(head["meta.max_deviation"])
        ratio = float(head["meta.convergence_ratio"])
        return {
            "kernel": (
                _that(dev <= 1e-4, f"max_deviation {dev!r} > 1e-4")
                + _that(3.5 <= ratio <= 4.5,
                        f"convergence_ratio {ratio!r} outside [3.5, 4.5]")),
            "mc_many": _survival_misses("mc_many", files["mc_many"]),
            "mc_long": _survival_misses("mc_long", files["mc_long"]),
            "mc_repeat": _that(
                files["mc_repeat"].read_bytes()
                == files["mc_long"].read_bytes(),
                "repeat with the same seed is not byte-identical"),
        }

    return Workload("memory_mc", inp, ops,
                    ("kernel_s", "mc_many_paths_s", "mc_long_paths_s",
                     "mc_repeat_s"),
                    check, op_kinds=("array", "loop", "loop", "loop"),
                    repeatable=("mc_many", "mc_long"))
