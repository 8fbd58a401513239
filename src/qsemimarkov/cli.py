"""qsm: command-line front end for the semi-Markov dynamics toolkit.

Grammar: ``qsm <command> [flags]`` with commands rate, measure, holevo, blp,
divisibility, classical-sim, kernel-check. ``_DEFAULTS`` names each command's
flags and their defaults, ``_FLAGS`` each flag's type and help line; a
command's parser, its ``--help`` and every default it uses come from them,
and it registers only the flags some mode of it reads. A run whose first
token is a command parses with that command's parser alone, which reports
an unknown flag or a bad value in its own usage; the qsm parser, which
lists the commands with no flags, is built only for its help, the version,
or a missing or unknown command. Each parser is built once a process and
shared by every later run; its help wraps when it prints. Dephasing takes
``--s/--p`` or ``--lambda1/--lambda2`` (s = l1 + l2, p = l1 l2);
``measure --family nonunital`` takes ``--lambda``.

Commands read their settings through ``_Resolved.get``. Before computing, a
command refuses every given flag it did not read, so each spelling and mode
accepts exactly the flags it uses. A command returns only its columns and
metadata; ``run`` builds the one ``ResultTable``, whose ``config.*`` is every
value the command read and ``meta.defaults_applied`` the flags read but not
given.

A flat key=value config file (``--config PATH``) supplies flags; flags given
on the command line override the file. Output goes to stdout or
``--out PATH`` as CSV (default), JSON, or SVG; a format suffix must match.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .emitters import ResultTable, to_csv, to_json, to_svg
from .errors import ConfigError, DomainError, NumericalError
from .measures import (
    SSSConfig,
    blp_measure,
    cp_divisibility_scan,
    holevo_curve,
    sss_measure,
)
from .numerics import solve_volterra
from .semimarkov import (
    DephasingSemiMarkov,
    ExpConvolutionWTD,
    ExponentialWTD,
    NonUnitalSemiMarkov,
    TanhSechWTD,
    _IMAG,
    _require_positive,
    _zero_lattice,
    classical_jump_simulate,
    gamma_dephasing,
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
                               "time-median of gamma"),
    "form": (("rate", "choi"), "'rate' reports xi; 'choi' adds the Choi "
                               "trace-norm average and family constant"),
    "gamma-ref": (float, "fixed reference rate of --mode paper"),
    "epsilon": (float, "half-width excised around rate poles"),
    "p-min": (float, "lower end of the p sweep"),
    "p-max": (float, "upper end of the p sweep"),
    "p-points": (int, "sweep length; the sweep runs when no p is given"),
    "p-list": (str, "comma-separated p values"),
    "t-max": (float, "end of the time grid"),
    "grid": (int, "number of time points"),
    "boundary-search": (bool, "print the divisibility boundary s^2/8"),
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
_RATES = {"s": 1.0, "p": 3.0, "lambda1": None, "lambda2": None}

# command -> {flag: default}. None means no default: the flag is optional,
# or required. A result echoes the flags it read in this order.
_DEFAULTS: dict[str, dict[str, object]] = {
    "rate": {**_RATES, "t-max": 6.0, "grid": 500, **_OUTPUT},
    "measure": {"family": "dephasing", "T": 1.0, "mode": "paper",
                "form": "rate", "gamma-ref": 0.0, "epsilon": 1e-6,
                **_RATES, "p": None, "lambda": 1.0,
                "p-min": 0.0, "p-max": 0.5, "p-points": 51, **_OUTPUT},
    "holevo": {"s": 1.0, "p-list": "2,0.1,0.01", "t-max": 6.0, "grid": 500,
               **_OUTPUT},
    "blp": {**_RATES, "t-max": 10.0, "grid": 2001, **_OUTPUT},
    "divisibility": {**_RATES, "t-max": 10.0, "grid": 1000,
                     "boundary-search": False, **_OUTPUT},
    "classical-sim": {"wtd": "expconv", "lambda1": 1.0, "lambda2": 2.0,
                      "lambda": 1.0, "jump-prob": 1.0, "paths": 100_000,
                      "seed": None, "t-max": 2.0, "grid": 41, **_OUTPUT},
    "kernel-check": {**_RATES, "p": 0.1, "dt": 1e-3, "t-max": 5.0,
                     **_OUTPUT},
}


def _help(command: str, flag: str) -> str:
    """The flag's help line with the command's default, if it has one."""
    default, line = _DEFAULTS[command][flag], _FLAGS[flag][1]
    if default is None or default is False:
        return line
    text = f"{default:g}" if isinstance(default, float) else default
    return f"{line} (default {text})"


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The qsm parser, every command with its help line and none with flags;
    or, given ``command``, that command's parser alone, with its flags.

    The parser is shared: one is built per command in a process, and every
    call for it returns it, so a caller must not change it. Its help and
    usage errors wrap to the terminal width when they print.
    """
    # flags are added under a fixed width, so that no add_argument asks the
    # terminal for its size
    fixed = functools.partial(argparse.HelpFormatter, width=80)
    if command is not None:
        # exact flag names only, so that a prefix such as --s cannot land on
        # --seed
        parser = argparse.ArgumentParser(prog=f"qsm {command}",
                                         allow_abbrev=False,
                                         formatter_class=fixed)
        for flag in _DEFAULTS[command]:
            kind, _ = _FLAGS[flag]
            kw = ({"action": "store_true"} if kind is bool else
                  {"choices": kind} if isinstance(kind, tuple) else
                  {"type": kind})
            parser.add_argument(f"--{flag}", default=_OUTPUT.get(flag),
                                help=_help(command, flag), **kw)
    else:
        parser = argparse.ArgumentParser(
            prog="qsm",
            description="Quantum semi-Markov dynamics: rates, maps, and "
                        "non-Markovianity measures.",
            formatter_class=fixed,
        )
        parser.add_argument("--version", action="version",
                            version=f"qsm {__version__}")
        sub = parser.add_subparsers(dest="command", required=True)
        for name, cmd in _DISPATCH.items():
            sub.add_parser(name, help=cmd.__doc__, add_help=False)
    # argparse builds a formatter, which reads the width, each time it prints
    parser.formatter_class = argparse.HelpFormatter
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
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (key and eq):
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _BOOL_FLAGS:
            flags += [f"--{key}", value]
        elif value.lower() in ("1", "true", "yes", "on"):
            flags.append(f"--{key}")
        elif value.lower() not in ("0", "false", "no", "off"):
            raise ConfigError(f"{path}:{lineno}: boolean flag {key!r} got {value!r}")
    return flags


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


class _Resolved:
    """A command's settings: the given flags, else the table's defaults.

    Records what the command reads: ``values`` holds each value read,
    ``applied`` the flags read but not given, and :meth:`check_unread`
    refuses a given flag never read.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.defaults = _DEFAULTS[args.command]
        self.read = set(_OUTPUT)
        self.values: dict[str, object] = {}
        self.applied: set[str] = set()

    def given(self, flag: str) -> bool:
        # identity tests: 0.0 is a given value, a switch left off is not
        value = getattr(self.args, flag.replace("-", "_"))
        return value is not None and value is not False

    def get(self, flag: str):
        self.read.add(flag)
        given = self.given(flag)
        if not given and flag not in _BOOL_FLAGS:  # a switch left off is a choice
            self.applied.add(flag)
        self.values[flag] = (getattr(self.args, flag.replace("-", "_"))
                             if given else self.defaults[flag])
        return self.values[flag]

    def config(self) -> dict[str, object]:
        """The values read, less None, in table order (no output flag)."""
        return {flag: self.values[flag] for flag in self.defaults
                if self.values.get(flag) is not None}

    def check_unread(self) -> None:
        unread = [f"--{flag}" for flag in self.defaults
                  if flag not in self.read and self.given(flag)]
        _require(not unread, f"{self.args.command} does not use "
                             f"{', '.join(unread)} with the flags given")


def _dephasing(r: _Resolved) -> DephasingSemiMarkov:
    """The dephasing process of --lambda1/--lambda2 when either is given,
    else of --s and --p."""
    if r.given("lambda1") or r.given("lambda2"):
        _require(r.given("lambda1") and r.given("lambda2"),
                 "--lambda1 and --lambda2 must be given together")
        proc = DephasingSemiMarkov.from_rates(r.get("lambda1"),
                                              r.get("lambda2"))
        # echoed as s and p, so both spellings print the same bytes
        r.values.update(lambda1=None, lambda2=None, s=proc.s, p=proc.p)
        return proc
    return DephasingSemiMarkov(r.get("s"), r.get("p"))


# refused before allocating: with its CSV, a command takes up to ~300 B per
# grid point (classical-sim; holevo 190 with its three p values, blp 110,
# divisibility 90); holevo's --p-list times --grid is held to 3 such grids
_MAX_GRID = 10**6


def _time_grid(r: _Resolved) -> tuple[float, int]:
    """(--t-max, --grid), checked."""
    t_max, n = _require_positive("--t-max", r.get("t-max")), r.get("grid")
    _require(2 <= n <= _MAX_GRID,
             f"--grid must be in [2, {_MAX_GRID}], got {n}")
    return t_max, int(n)


def cmd_rate(r: _Resolved) -> tuple[dict, dict]:
    """time-local decay rate curve"""
    proc = _dephasing(r)
    t_max, n = _time_grid(r)
    r.check_unread()
    # the poles as their lattice [t_1, period, count], or none
    first, period, count = _zero_lattice(proc, t_max)
    ts = np.linspace(0.0, t_max, n)
    vals = gamma_dephasing(proc, ts)  # NaN at poles, annotated below
    return ({"t": ts, "gamma": vals}, {"singular_times": [
        first.item(), period.item(), count.item()] if count else []})


def cmd_measure(r: _Resolved) -> tuple[dict, dict]:
    """deviation-from-semigroup measure (xi, zeta)"""
    kind, mode = r.get("family"), r.get("mode")
    cfg = SSSConfig(horizon=r.get("T"), form=r.get("form"),
                    mode="fixed" if mode == "paper" else "min",
                    gamma_ref=r.get("gamma-ref") if mode == "paper" else 0.0,
                    excision=r.get("epsilon"))
    if kind == "nonunital":
        proc = NonUnitalSemiMarkov(rate=r.get("lambda"))
        columns = {"lambda": proc.rate}
    else:
        if any(map(r.given, ("p", "lambda1", "lambda2"))):
            one = _dephasing(r)
            s, p_values = one.s, np.array([one.p])
        else:
            s = r.get("s")
            p_lo, p_hi, n_p = r.get("p-min"), r.get("p-max"), r.get("p-points")
            _require(1 <= n_p <= _MAX_GRID,
                     f"--p-points must be in [1, {_MAX_GRID}], got {n_p}")
            _require(0.0 <= p_lo <= p_hi < np.inf, "need 0 <= --p-min <= "
                     f"--p-max < inf, got {p_lo!r} and {p_hi!r}")
            p_values = np.linspace(p_lo, p_hi, n_p)
        columns = {"p": p_values}
        proc = DephasingSemiMarkov(s, p_values)
    r.check_unread()
    res = sss_measure(proc, cfg)
    columns.update(xi=res.xi, zeta=res.zeta, gamma_ref=res.gamma_ref)
    choi = cfg.form == "choi"
    meta = {"family_constant": res.family_constant} if choi else {}
    if kind == "dephasing":
        columns["cp_indivisible"] = (proc.branch == _IMAG).astype(float)
        meta["p_boundary"] = proc.p_boundary
    if choi:
        columns["xi_raw"] = res.raw_average
    # [lo, hi, p, period, count] per row with poles: its first hole, or its
    # merged one, and their lattice; only the dephasing family has poles
    lo, hi, period, count, row = res.excised
    meta["excised_intervals"] = [[*hole, n] for hole, n in zip(
        np.column_stack([lo, hi, p_values[row], period]).tolist(),
        count.tolist())] if kind == "dephasing" else []
    # the non-unital family gives one process's numbers
    return {name: np.atleast_1d(col) for name, col in columns.items()}, meta


def cmd_holevo(r: _Resolved) -> tuple[dict, dict]:
    """Holevo information curves"""
    s = r.get("s")
    raw_list = r.get("p-list")
    try:
        p_values = [float(tok) for tok in raw_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --p-list {raw_list!r}: {exc}") from exc
    _require(len(p_values) >= 1, "--p-list must name at least one p value")
    names = {}  # column name -> index of its p
    for i, p in enumerate(p_values):
        j = names.setdefault(name := f"chi_p{p:g}", i)
        _require(i == j, f"--p-list values {p_values[j]!r} and {p!r} both "
                 f"print as column {name}")
    t_max, n = _time_grid(r)
    _require(len(p_values) * n <= 3 * _MAX_GRID, f"--p-list of {len(p_values)}"
             f" values at --grid {n} is more than {3 * _MAX_GRID} cells")
    r.check_unread()
    ts = np.linspace(0.0, t_max, n)
    columns = {"t": ts}
    for name, i in names.items():
        columns[name] = holevo_curve(DephasingSemiMarkov(s, p_values[i]), ts)
    return columns, {"ensemble": "equal-weight |+>,|->"}


def cmd_blp(r: _Resolved) -> tuple[dict, dict]:
    """trace-distance revival measure"""
    proc = _dephasing(r)
    t_max, n = _time_grid(r)
    r.check_unread()
    res = blp_measure(proc, t_max, n_grid=n)
    return ({"t": res.times, "trace_distance": res.trace_distance},
            {"blp": res.measure})


def cmd_divisibility(r: _Resolved) -> tuple[dict, dict]:
    """CP-divisibility scan or boundary search"""
    if r.get("boundary-search"):
        # the boundary is p = s^2/8; the process checks s alone
        boundary = DephasingSemiMarkov(s=r.get("s"), p=0.0).p_boundary
        r.check_unread()
        return ({"p_estimate": np.array([boundary])},
                {"p_boundary_estimate": boundary})
    proc = _dephasing(r)
    t_max, n = _time_grid(r)
    r.check_unread()
    report = cp_divisibility_scan(proc, np.linspace(0.0, t_max, n))
    # NaN (singular) steps compare False: they never violate
    violating = report.min_eigenvalues < -report.tol
    return ({"t": report.times[1:],
             "min_choi_eigenvalue": report.min_eigenvalues,
             "violation": violating.astype(float)},
            {"violation_count": report.violation_count,
             "first_violation": report.first_violation,
             "singular_steps": report.singular_steps,
             "cp_divisible": report.cp_divisible})


def cmd_classical_sim(r: _Resolved) -> tuple[dict, dict]:
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
    # exact survival keeps the ratio meaningful there. A NaN gap stays NaN.
    # The root is taken before dividing by n, which would underflow to 0
    # where the exact survival is subnormal
    gap = np.abs(sim.survival - exact)
    se = np.maximum(sim.survival_se,
                    np.sqrt(exact * (1.0 - exact)) / np.sqrt(n_paths))
    err = np.divide(gap, se, out=np.zeros_like(gap), where=gap != 0.0)
    return columns, {"max_survival_error_se": float(np.max(err)),
                     "philox_counters": sim.philox_counters}


def cmd_kernel_check(r: _Resolved) -> tuple[dict, dict]:
    """memory-kernel integration vs closed form"""
    proc = _dephasing(r)
    dt = _require_positive("--dt", r.get("dt"))
    t_max = _require_positive("--t-max", r.get("t-max"))
    _require(t_max >= 4 * dt, "--t-max must cover at least a few steps")
    r.check_unread()

    def q_error(step: float):
        """(times, Volterra q, closed-form q, their largest gap) at a step."""
        # k(t) = p exp(-s t), valid for every p >= 0 even where no real rate
        # pair (lambda1, lambda2) exists; solve_volterra says why J - 1 is -2
        sol = solve_volterra(proc.p, proc.s, t_max, step)
        q_num = sol.coherence
        q_ref = q_of_t(proc, sol.times)
        return sol.times, q_num, q_ref, float(np.abs(q_num - q_ref).max())

    times, q_num, q_ref, dev = q_error(dt)
    dev_coarse = q_error(2 * dt)[-1]
    ratio = dev_coarse / dev if dev > 0 else np.inf
    stride = max(1, times.size // 500)
    sel = np.unique(np.r_[np.arange(0, times.size, stride), times.size - 1])
    return ({"t": times[sel], "q_closed": q_ref[sel], "q_volterra": q_num[sel],
             "abs_error": np.abs(q_num - q_ref)[sel]},
            {"max_deviation": dev, "max_deviation_coarse": dev_coarse,
             "convergence_ratio": ratio,
             "convergence_order": (float(np.log2(ratio))
                                   if np.isfinite(ratio) else np.nan)})


_DISPATCH: dict[str, Callable[[_Resolved], tuple[dict, dict]]] = {
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
    # no top-level option takes a value, so the first bare token is the command
    at = next((i for i, a in enumerate(argv) if not a.startswith("-")),
              len(argv))
    command = argv[at] if at < len(argv) else None
    try:
        # the tokens up to a command that is not first are the qsm parser's:
        # it prints help, the version or a usage error
        if at or command not in _DISPATCH:
            build_parser().parse_args(argv[:at + 1])
        parser = build_parser(command)
        args = parser.parse_args(argv[at + 1:])
        if args.config:  # file flags first, so given flags win
            args = parser.parse_args(_load_config_flags(args.config)
                                     + argv[at + 1:])
        args.command = command
        suffix = Path(args.out or "").suffix.lower()[1:]
        _require(suffix not in _RENDERERS or suffix == args.format,
                 f"--format {args.format} does not match --out {args.out!r}")
        r = _Resolved(args)
        columns, meta = _DISPATCH[args.command](r)
        table = ResultTable(args.command, r.config(), columns,
                            {"version": __version__,
                             "defaults_applied": ",".join(sorted(r.applied)),
                             **meta})
        text = _RENDERERS[args.format](table)
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {args.out!r}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return 0
    except SystemExit as exc:  # argparse --help / usage errors
        return int(exc.code or 0)
    except (ConfigError, DomainError) as exc:
        print(f"qsm: configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"qsm: numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
