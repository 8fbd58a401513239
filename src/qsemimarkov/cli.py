"""qsm: command-line front end for the semi-Markov dynamics toolkit.

Grammar: ``qsm <command> [flags]`` with commands rate, measure, holevo, blp,
divisibility, classical-sim, kernel-check. ``_DEFAULTS`` names each command's
flags and their defaults, ``_FLAGS`` each flag's type and help line; the
subparsers, ``--help`` and every default a command uses come from them. The
dephasing family takes ``--s/--p`` or ``--lambda1/--lambda2`` (s = l1 + l2,
p = l1 l2), the non-unital family ``--lambda``.

Commands read their settings through ``_Resolved.get``. Before computing, a
command refuses every given flag it did not read, so each spelling and mode
accepts exactly the flags it uses; ``meta.defaults_applied`` lists the flags
read but not given.

A flat key=value config file (``--config PATH``) supplies flags; flags given
on the command line override the file. Output goes to stdout or
``--out PATH`` as CSV (default), JSON, or SVG.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .emitters import ResultTable, to_csv, to_json, to_svg
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    UnsupportedVariant,
)
from .measures import (
    SSSConfig,
    blp_measure,
    cp_divisibility_scan,
    divisibility_boundary,
    holevo_curve,
    sss_measure,
)
from .numerics import solve_volterra
from .semimarkov import (
    DephasingSemiMarkov,
    ExpConvolutionWTD,
    ExponentialKernel,
    ExponentialWTD,
    NonUnitalSemiMarkov,
    REGIME_INDIVISIBLE,
    TanhSechWTD,
    classical_jump_simulate,
    coherence_zeros,
    gamma_dephasing,
    jump_superop,
    q_of_t,
)

# flag: (type, the tuple of its choices, or bool for a switch; help line)
_FLAGS = {
    "family": (("dephasing", "nonunital"), "process family"),
    "s": (float, "dephasing rate sum s = lambda1 + lambda2"),
    "p": (float, "dephasing rate product p = lambda1 * lambda2"),
    "lambda1": (float, "first jump rate (with --lambda2, replaces --s/--p)"),
    "lambda2": (float, "second jump rate (with --lambda1)"),
    "lambda": (float, "non-unital rate, or rate of single-rate waiting times"),
    "T": (float, "averaging horizon"),
    "mode": (("paper", "min"), "reference: 'paper' is --gamma-ref, 'min' the "
                               "time-median of gamma in [0, --gamma-max]"),
    "form": (("rate", "choi"), "integrand route"),
    "gamma-ref": (float, "fixed reference rate of --mode paper"),
    "gamma-max": (float, "upper clip of the min-mode median (default none)"),
    "epsilon": (float, "half-width excised around rate poles"),
    "p-min": (float, "lower end of the p sweep or bisection bracket"),
    "p-max": (float, "upper end of the p sweep or bisection bracket"),
    "p-points": (int, "sweep length; the sweep runs when no p is given"),
    "p-list": (str, "comma-separated p values"),
    "t-max": (float, "end of the time grid"),
    "grid": (int, "number of time points"),
    "boundary-search": (bool, "bisect in p for the divisibility boundary"),
    "p-tol": (float, "bisection width target"),
    "wtd": (("exponential", "expconv", "tanhsech"), "waiting-time law"),
    "jump-prob": (float, "site-flip probability per renewal"),
    "paths": (int, "number of Monte Carlo paths"),
    "seed": (int, "64-bit seed (required)"),
    "dt": (float, "integration step"),
    "format": (("csv", "json", "svg"), "output format"),
    "out": (str, "output path (stdout if not given)"),
    "config": (str, "key=value file of flags"),
}

_BOOL_FLAGS = {flag for flag, (kind, _) in _FLAGS.items() if kind is bool}

# read by run() itself, so no command reads them
_OUTPUT = {"format": "csv", "out": None, "config": None}
_FAMILY = {"family": "dephasing", "s": 1.0, "p": 3.0, "lambda1": None,
           "lambda2": None, "lambda": None}

# command -> {flag: default}; "command --switch" overrides defaults in that
# mode. None means no default: the flag is optional, or required.
_DEFAULTS: dict[str, dict[str, object]] = {
    "rate": {**_FAMILY, "t-max": 6.0, "grid": 500, **_OUTPUT},
    "measure": {**_FAMILY, "p": None, "lambda": 1.0, "T": 1.0,
                "mode": "paper", "form": "rate", "gamma-ref": 0.0,
                "gamma-max": None, "epsilon": 1e-6, "p-min": 0.0,
                "p-max": 0.5, "p-points": 51, **_OUTPUT},
    "holevo": {**_FAMILY, "p": None, "p-list": "2,0.1,0.01", "t-max": 6.0,
               "grid": 500, **_OUTPUT},
    "blp": {**_FAMILY, "t-max": 10.0, "grid": 2001, **_OUTPUT},
    "divisibility": {**_FAMILY, "t-max": 10.0, "grid": 1000,
                     "boundary-search": False, "p-min": 0.05, "p-max": 0.4,
                     "p-tol": 1e-4, **_OUTPUT},
    "divisibility --boundary-search": {"t-max": 60.0, "grid": 1200},
    "classical-sim": {"lambda1": 1.0, "lambda2": 2.0, "lambda": 1.0,
                      "wtd": "expconv", "jump-prob": 1.0, "paths": 100_000,
                      "seed": None, "t-max": 2.0, "grid": 41, **_OUTPUT},
    "kernel-check": {**_FAMILY, "p": 0.1, "dt": 1e-3, "t-max": 5.0,
                     **_OUTPUT},
}


def _help(flag: str, modes: dict[str, dict[str, object]]) -> str:
    """The flag's help line with its default in each mode ("" for none)."""
    shown = []
    for mode, table in modes.items():
        default = table.get(flag)
        if default is not None and default is not False:
            text = f"{default:g}" if isinstance(default, float) else default
            shown.append(f"{text} for {mode}" if mode else f"{text}")
    line = _FLAGS[flag][1]
    return f"{line} (default {'; '.join(shown)})" if shown else line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsm",
        description="Quantum semi-Markov dynamics: rates, maps, and "
                    "non-Markovianity measures.",
    )
    parser.add_argument("--version", action="version",
                        version=f"qsm {__version__}")
    # exact flag names only, so that a prefix such as --s cannot land on --seed
    sub = parser.add_subparsers(dest="command", required=True, parser_class=(
        lambda **kw: argparse.ArgumentParser(allow_abbrev=False, **kw)))
    for command, cmd in _DISPATCH.items():
        p = sub.add_parser(command, help=cmd.__doc__)
        modes = {key.partition(" ")[2]: table for key, table in
                 _DEFAULTS.items() if key.partition(" ")[0] == command}
        for flag in _DEFAULTS[command]:
            kind, _ = _FLAGS[flag]
            kw = ({"action": "store_true"} if kind is bool else
                  {"choices": kind} if isinstance(kind, tuple) else
                  {"type": kind})
            p.add_argument(f"--{flag}", default=_OUTPUT.get(flag),
                           help=_help(flag, modes), **kw)
    return parser


def _load_config_flags(path: str) -> list[str]:
    """Translate a key=value file into an argv fragment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    flags: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {raw!r}"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in _BOOL_FLAGS:
            if value.lower() in ("1", "true", "yes", "on"):
                flags.append(f"--{key}")
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ConfigError(
                    f"{path}:{lineno}: boolean flag {key!r} got {value!r}"
                )
        else:
            flags.extend((f"--{key}", value))
    return flags


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


class _Resolved:
    """A command's settings: the given flags, else the table's defaults.

    Records what the command reads: ``applied`` holds the flags read but not
    given, and :meth:`check_unread` refuses a given flag never read.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.defaults = dict(_DEFAULTS[args.command])
        self.read = set(_OUTPUT)
        self.applied: set[str] = set()

    def given(self, flag: str) -> bool:
        # identity tests: 0.0 is a given value, a switch left off is not
        value = getattr(self.args, flag.replace("-", "_"))
        return value is not None and value is not False

    def get(self, flag: str):
        self.read.add(flag)
        if self.given(flag):
            return getattr(self.args, flag.replace("-", "_"))
        if flag not in _BOOL_FLAGS:  # a switch left off is a choice
            self.applied.add(flag)
        return self.defaults[flag]

    def check_unread(self) -> None:
        unread = [f"--{flag}" for flag in self.defaults
                  if flag not in self.read and self.given(flag)]
        _require(not unread, f"{self.args.command} does not use "
                             f"{', '.join(unread)} with the flags given")


def _dephasing(r: _Resolved, rates: bool = True) -> tuple[float, float | None]:
    """(s, p) of a dephasing process: from --lambda1/--lambda2 when either
    is given, else from --s and, when ``rates``, --p (else p is None)."""
    _require(r.get("family") == "dephasing",
             f"{r.args.command} is defined for the dephasing family")
    if rates and (r.given("lambda1") or r.given("lambda2")):
        _require(r.given("lambda1") and r.given("lambda2"),
                 "--lambda1 and --lambda2 must be given together")
        l1, l2 = r.get("lambda1"), r.get("lambda2")
        return l1 + l2, l1 * l2
    return r.get("s"), (r.get("p") if rates else None)


def _positive(name: str, value: float) -> float:
    _require(np.isfinite(value) and value > 0.0,
             f"{name} must be positive, got {value!r}")
    return float(value)


# refused before allocating: a divisibility scan takes ~1 kB per grid point
_MAX_GRID = 10**6


def _time_grid(r: _Resolved) -> tuple[float, int]:
    """(--t-max, --grid), checked."""
    t_max, n = _positive("--t-max", r.get("t-max")), r.get("grid")
    _require(2 <= n <= _MAX_GRID,
             f"--grid must be in [2, {_MAX_GRID}], got {n}")
    return t_max, int(n)


def _curve_config(proc: DephasingSemiMarkov, t_max: float, n: int) -> dict:
    return {"family": "dephasing", "s": proc.s, "p": proc.p, "t-max": t_max,
            "grid": n}


def cmd_rate(r: _Resolved) -> ResultTable:
    """time-local decay rate curve"""
    proc = DephasingSemiMarkov(*_dephasing(r))
    t_max, n = _time_grid(r)
    r.check_unread()
    ts = np.linspace(0.0, t_max, n)
    vals = gamma_dephasing(proc, ts)  # NaN at poles, annotated below
    poles = coherence_zeros(proc, t_max)
    return ResultTable("rate", _curve_config(proc, t_max, n),
                       {"t": ts, "gamma": vals},
                       {"singular_times": [float(x) for x in poles]})


def cmd_measure(r: _Resolved) -> ResultTable:
    """deviation-from-semigroup measure (xi, zeta)"""
    kind, mode = r.get("family"), r.get("mode")
    ref = ({"gamma_ref": r.get("gamma-ref")} if mode == "paper"
           else {"gamma_max": r.get("gamma-max")})
    cfg = SSSConfig(horizon=r.get("T"), form=r.get("form"),
                    mode="fixed" if mode == "paper" else "min",
                    excision=r.get("epsilon"), **ref)
    config = {"family": kind, "T": cfg.horizon, "mode": mode, "form": cfg.form,
              "gamma-ref": ref.get("gamma_ref"), "epsilon": cfg.excision,
              "gamma-max": cfg.gamma_max}
    config = {key: value for key, value in config.items() if value is not None}
    if kind == "nonunital":
        procs = [NonUnitalSemiMarkov(rate=r.get("lambda"))]
        config["lambda"] = procs[0].rate
        columns = {"lambda": np.array([procs[0].rate])}
    else:
        s, p = _dephasing(r, rates=any(map(r.given,
                                           ("p", "lambda1", "lambda2"))))
        if p is None:
            p_lo, p_hi, n_p = r.get("p-min"), r.get("p-max"), r.get("p-points")
            _require(1 <= n_p <= _MAX_GRID,
                     f"--p-points must be in [1, {_MAX_GRID}], got {n_p}")
            _require(p_hi >= p_lo >= 0.0, "need 0 <= --p-min <= --p-max")
            p_values = np.linspace(p_lo, p_hi, n_p)
        else:
            p_values = np.array([p])
        config["s"] = s
        columns = {"p": p_values}
        procs = [DephasingSemiMarkov(s=s, p=float(p)) for p in p_values]
    r.check_unread()
    results = [sss_measure(pr, cfg) for pr in procs]
    for name in ("xi", "zeta", "gamma_ref"):
        columns[name] = np.array([getattr(res, name) for res in results])
    meta: dict[str, object] = {}
    if kind == "dephasing":
        columns["cp_indivisible"] = np.array(
            [1.0 if pr.regime() == REGIME_INDIVISIBLE else 0.0
             for pr in procs])
    if cfg.form == "choi":
        columns["xi_raw"] = np.array([res.raw_average for res in results])
        meta["family_constant"] = results[0].family_constant
    if kind == "dephasing":
        meta["p_boundary"] = s**2 / 8.0
    # [lo, hi, p]: only the dephasing family has poles to excise
    meta["excised_intervals"] = [[lo, hi, pr.p] for pr, res in
                                 zip(procs, results) for lo, hi in res.excised]
    return ResultTable("measure", config, columns, meta)


def cmd_holevo(r: _Resolved) -> ResultTable:
    """Holevo information curves"""
    s, _ = _dephasing(r, rates=False)
    raw_list = r.get("p-list")
    try:
        p_values = [float(tok) for tok in raw_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --p-list {raw_list!r}: {exc}") from exc
    _require(len(p_values) >= 1, "--p-list must name at least one p value")
    names = [f"chi_p{p:g}" for p in p_values]
    for i, name in enumerate(names):
        j = names.index(name)
        _require(i == j, f"--p-list values {p_values[j]!r} and "
                 f"{p_values[i]!r} both print as column {name}")
    t_max, n = _time_grid(r)
    r.check_unread()
    ts = np.linspace(0.0, t_max, n)
    columns = {"t": ts}
    for name, p in zip(names, p_values):
        columns[name] = holevo_curve(DephasingSemiMarkov(s=s, p=p), ts)
    return ResultTable("holevo", {"family": "dephasing", "s": s,
                                  "p-list": raw_list, "t-max": t_max,
                                  "grid": n},
                       columns, {"ensemble": "equal-weight |+>,|->"})


def cmd_blp(r: _Resolved) -> ResultTable:
    """trace-distance revival measure"""
    proc = DephasingSemiMarkov(*_dephasing(r))
    t_max, n = _time_grid(r)
    r.check_unread()
    res = blp_measure(proc, t_max, n_grid=n)
    return ResultTable("blp", _curve_config(proc, t_max, n),
                       {"t": res.times, "trace_distance": res.trace_distance},
                       {"blp": res.measure})


def cmd_divisibility(r: _Resolved) -> ResultTable:
    """CP-divisibility scan or boundary search"""
    search = r.get("boundary-search")
    if search:
        r.defaults.update(_DEFAULTS["divisibility --boundary-search"])
    s, p = _dephasing(r, rates=not search)
    t_max, n = _time_grid(r)
    if search:
        bracket = (r.get("p-min"), r.get("p-max"))
        p_tol = _positive("--p-tol", r.get("p-tol"))
        r.check_unread()
        est = divisibility_boundary(s, p_bracket=bracket, t_max=t_max,
                                    n_grid=n, p_tol=p_tol)
        return ResultTable(
            "divisibility",
            {"family": "dephasing", "s": s, "t-max": t_max, "grid": n,
             "p-tol": p_tol, "boundary-search": True, "p-min": bracket[0],
             "p-max": bracket[1]},
            {"p_estimate": np.array([est.p_estimate]),
             "p_low": np.array([est.p_low]),
             "p_high": np.array([est.p_high])},
            {"p_boundary_estimate": est.p_estimate})
    proc = DephasingSemiMarkov(s=s, p=p)
    r.check_unread()
    report = cp_divisibility_scan(proc, np.linspace(0.0, t_max, n))
    violating = (np.nan_to_num(report.min_eigenvalues, nan=0.0)
                 < -report.tol).astype(float)
    return ResultTable(
        "divisibility",
        {**_curve_config(proc, t_max, n), "boundary-search": False},
        {"t": report.times[1:], "min_choi_eigenvalue": report.min_eigenvalues,
         "violation": violating},
        {"violation_count": report.violation_count,
         "first_violation": report.first_violation,
         "singular_steps": report.singular_steps,
         "cp_divisible": report.cp_divisible})


def cmd_classical_sim(r: _Resolved) -> ResultTable:
    """Monte Carlo renewal simulation"""
    kind = r.get("wtd")
    rates = {flag: r.get(flag) for flag in
             (("lambda1", "lambda2") if kind == "expconv" else ("lambda",))}
    wtd = {"expconv": ExpConvolutionWTD, "exponential": ExponentialWTD,
           "tanhsech": TanhSechWTD}[kind](*rates.values())
    _require(r.given("seed"), "--seed is required for classical-sim")
    seed, p_jump, n_paths = r.get("seed"), r.get("jump-prob"), r.get("paths")
    t_max, n_times = _time_grid(r)
    r.check_unread()
    sim = classical_jump_simulate(wtd, p_jump, t_max, n_paths,
                                  seed=seed, n_times=n_times)
    exact = np.asarray(wtd.survival(sim.times), dtype=float)
    columns = {"t": sim.times, "survival": sim.survival,
               "survival_se": sim.survival_se, "survival_exact": exact}
    for site in (0, 1):
        columns[f"occupation{site}"] = sim.occupation[site]
        columns[f"occupation{site}_se"] = sim.occupation_se[site]
    # where every path agrees the empirical SE is 0; the binomial SE of the
    # exact survival keeps the ratio meaningful there
    gap = np.abs(sim.survival - exact)
    se = np.maximum(sim.survival_se, np.sqrt(exact * (1.0 - exact) / n_paths))
    err = np.divide(gap, se, out=np.zeros_like(gap), where=gap > 0.0)
    return ResultTable(
        "classical-sim",
        {"wtd": kind, **rates, "jump-prob": p_jump, "paths": n_paths,
         "seed": seed, "t-max": t_max, "grid": n_times},
        columns, {"max_survival_error_se": float(np.max(err))})


def cmd_kernel_check(r: _Resolved) -> ResultTable:
    """memory-kernel integration vs closed form"""
    s, p = _dephasing(r)
    dt = _positive("--dt", r.get("dt"))
    t_max = _positive("--t-max", r.get("t-max"))
    _require(t_max >= 4 * dt, "--t-max must cover at least a few steps")
    proc = DephasingSemiMarkov(s=s, p=p)
    r.check_unread()
    # k(t) = p exp(-s t); valid for every p >= 0 even where no real rate
    # pair (lambda1, lambda2) exists
    kernel = ExponentialKernel(amplitude=p, decay=s)
    bracket = jump_superop(proc) - np.eye(4)

    def q_error(step: float) -> tuple[np.ndarray, np.ndarray, float]:
        sol = solve_volterra(kernel, bracket, t_max, step)
        q_num = sol.maps[:, 1, 1].real
        q_ref = np.asarray(q_of_t(proc, sol.times), dtype=float)
        return sol.times, q_num, float(np.abs(q_num - q_ref).max())

    times, q_num, dev = q_error(dt)
    _, _, dev_coarse = q_error(2 * dt)
    ratio = dev_coarse / dev if dev > 0 else np.inf
    q_ref = np.asarray(q_of_t(proc, times), dtype=float)
    stride = max(1, times.size // 500)
    sel = np.unique(np.r_[np.arange(0, times.size, stride), times.size - 1])
    return ResultTable(
        "kernel-check",
        {"family": "dephasing", "s": s, "p": p, "dt": dt, "t-max": t_max},
        {"t": times[sel], "q_closed": q_ref[sel], "q_volterra": q_num[sel],
         "abs_error": np.abs(q_num - q_ref)[sel]},
        {"max_deviation": dev, "max_deviation_coarse": dev_coarse,
         "convergence_ratio": ratio,
         "convergence_order": (float(np.log2(ratio)) if np.isfinite(ratio)
                               else np.nan)})


_DISPATCH: dict[str, Callable[[_Resolved], ResultTable]] = {
    "rate": cmd_rate,
    "measure": cmd_measure,
    "holevo": cmd_holevo,
    "blp": cmd_blp,
    "divisibility": cmd_divisibility,
    "classical-sim": cmd_classical_sim,
    "kernel-check": cmd_kernel_check,
}

_RENDERERS = {"csv": to_csv, "json": to_json, "svg": to_svg}


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the process exit code (0, 2, or 3)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:  # file flags after the command, so given flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _load_config_flags(args.config) + argv[at:])
        r = _Resolved(args)
        table = _DISPATCH[args.command](r)
        meta = {"version": __version__,
                "defaults_applied": ",".join(sorted(r.applied))}
        table = replace(table, metadata={**meta, **table.metadata})
        text = _RENDERERS[args.format](table)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # argparse --help / usage errors
        code = exc.code
        return int(code) if code else 0
    except (ConfigError, UnsupportedVariant, DomainError) as exc:
        print(f"qsm: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"qsm: numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
