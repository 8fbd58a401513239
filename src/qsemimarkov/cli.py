"""qsm: command-line front end for the semi-Markov dynamics toolkit.

Grammar: ``qsm <command> [flags]`` with commands rate, measure, holevo, blp,
divisibility, classical-sim, kernel-check. Families are selected with
``--family {dephasing|nonunital}``; the dephasing family takes either
``--s/--p`` or ``--lambda1/--lambda2`` (converted as s = l1 + l2, p = l1 l2
at parse time; the two parametrizations are mutually exclusive), the
non-unital family takes ``--lambda``.

A flat key=value config file (``--config PATH``) supplies flag defaults;
flags given on the command line override the file. Output goes to stdout or
``--out PATH`` as CSV (default), JSON, or SVG.

Exit codes: 0 success, 2 invalid configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
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

_BOOL_FLAGS = {"boundary-search"}


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

    def family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--family", choices=("dephasing", "nonunital"),
                       default=None, help="process family (default dephasing)")
        p.add_argument("--s", type=float, default=None,
                       help="dephasing rate sum s = lambda1 + lambda2")
        p.add_argument("--p", type=float, default=None,
                       help="dephasing rate product p = lambda1 * lambda2")
        rate_flags(p)

    def rate_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--lambda1", type=float, default=None,
                       help="first jump rate (alternative to --s/--p)")
        p.add_argument("--lambda2", type=float, default=None,
                       help="second jump rate (alternative to --s/--p)")
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="rate of the non-unital family (or of "
                            "single-rate waiting times)")

    def output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json", "svg"),
                       default="csv", help="output format (default csv)")
        p.add_argument("--out", type=str, default=None,
                       help="output path (default stdout)")
        p.add_argument("--config", type=str, default=None,
                       help="key=value file of flag defaults")

    p_rate = sub.add_parser("rate", help="time-local decay rate curve")
    family_flags(p_rate)
    output_flags(p_rate)
    p_rate.add_argument("--t-max", type=float, default=None,
                        help="curve endpoint (default 6)")
    p_rate.add_argument("--grid", type=int, default=None,
                        help="number of samples (default 500)")

    p_meas = sub.add_parser("measure",
                            help="deviation-from-semigroup measure (xi, zeta)")
    family_flags(p_meas)
    output_flags(p_meas)
    p_meas.add_argument("--T", type=float, default=None,
                        help="averaging horizon (default 1)")
    p_meas.add_argument("--mode", choices=("paper", "min"), default=None,
                        help="reference policy: 'paper' scores against "
                             "--gamma-ref (default 0); 'min' minimizes over "
                             "constant references (default paper)")
    p_meas.add_argument("--form", choices=("rate", "choi"), default=None,
                        help="integrand route (default rate)")
    p_meas.add_argument("--gamma-ref", type=float, default=None,
                        help="fixed reference rate (default 0)")
    p_meas.add_argument("--gamma-max", type=float, default=None,
                        help="upper clip of the minimizing reference "
                             "(default none)")
    p_meas.add_argument("--epsilon", type=float, default=None,
                        help="half-width excised around rate poles "
                             "(default 1e-6)")
    p_meas.add_argument("--p-min", type=float, default=None,
                        help="sweep start (default 0)")
    p_meas.add_argument("--p-max", type=float, default=None,
                        help="sweep end (default 0.5)")
    p_meas.add_argument("--p-points", type=int, default=None,
                        help="sweep length (default 51)")

    p_hol = sub.add_parser("holevo", help="Holevo information curves")
    family_flags(p_hol)
    output_flags(p_hol)
    p_hol.add_argument("--p-list", type=str, default=None,
                       help="comma-separated p values (default 2,0.1,0.01)")
    p_hol.add_argument("--t-max", type=float, default=None,
                       help="curve endpoint (default 6)")
    p_hol.add_argument("--grid", type=int, default=None,
                       help="number of samples (default 500)")

    p_blp = sub.add_parser("blp", help="trace-distance revival measure")
    family_flags(p_blp)
    output_flags(p_blp)
    p_blp.add_argument("--t-max", type=float, default=None,
                       help="scan endpoint (default 10)")
    p_blp.add_argument("--grid", type=int, default=None,
                       help="number of samples (default 2001)")

    p_div = sub.add_parser("divisibility",
                           help="CP-divisibility scan or boundary search")
    family_flags(p_div)
    output_flags(p_div)
    p_div.add_argument("--t-max", type=float, default=None,
                       help="scan endpoint (default 10; 60 for "
                            "--boundary-search)")
    p_div.add_argument("--grid", type=int, default=None,
                       help="grid points (default 1000; 1200 for "
                            "--boundary-search)")
    p_div.add_argument("--boundary-search", action="store_true",
                       help="bisect in p for the divisibility boundary")
    p_div.add_argument("--p-min", type=float, default=None,
                       help="bisection bracket start (default 0.05)")
    p_div.add_argument("--p-max", type=float, default=None,
                       help="bisection bracket end (default 0.4)")
    p_div.add_argument("--p-tol", type=float, default=None,
                       help="bisection width target (default 1e-4)")

    p_sim = sub.add_parser("classical-sim",
                           help="Monte Carlo renewal simulation")
    rate_flags(p_sim)
    output_flags(p_sim)
    p_sim.add_argument("--wtd", choices=("exponential", "expconv", "tanhsech"),
                       default=None,
                       help="waiting-time distribution (default expconv)")
    p_sim.add_argument("--jump-prob", type=float, default=None,
                       help="site-flip probability per renewal (default 1)")
    p_sim.add_argument("--paths", type=int, default=None,
                       help="number of Monte Carlo paths (default 100000)")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="64-bit seed (required)")
    p_sim.add_argument("--t-max", type=float, default=None,
                       help="simulation endpoint (default 2)")
    p_sim.add_argument("--grid", type=int, default=None,
                       help="number of report times (default 41)")

    p_ker = sub.add_parser("kernel-check",
                           help="memory-kernel integration vs closed form")
    family_flags(p_ker)
    output_flags(p_ker)
    p_ker.add_argument("--dt", type=float, default=None,
                       help="integration step (default 1e-3)")
    p_ker.add_argument("--t-max", type=float, default=None,
                       help="integration endpoint (default 5)")

    return parser


def _load_config_flags(path: str) -> list[str]:
    """Translate a key=value file into an argv fragment."""
    p = Path(path)
    try:
        text = p.read_text()
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


def _merge_config(argv: list[str]) -> list[str]:
    """Splice config-file flags after the command so CLI flags override."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
    if path is None:
        return argv
    for i, tok in enumerate(argv):
        if not tok.startswith("-"):
            return argv[: i + 1] + _load_config_flags(path) + argv[i + 1:]
    return argv


class _Resolved:
    """Tracks which settings fell back to documented defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.defaults_applied: list[str] = []

    def get(self, name: str, default):
        value = getattr(self.args, name)
        if value is None:
            self.defaults_applied.append(name.replace("_", "-"))
            return default
        return value

    def metadata(self) -> dict:
        return {
            "version": __version__,
            "defaults_applied": ",".join(sorted(self.defaults_applied)),
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _reject(r: _Resolved, names: Sequence[str], context: str) -> None:
    """Refuse given flags that ``context`` never reads, rather than drop them."""
    given = [f"--{n.replace('_', '-')}" for n in names
             if getattr(r.args, n) is not None]
    _require(not given, f"{context} does not use {', '.join(given)}")


def _dephasing_params(r: _Resolved, *, s_default: float = 1.0,
                      p_default: float | None = None) -> tuple[float, float]:
    """Resolve (s, p), enforcing parametrization exclusivity."""
    a = r.args
    pair_given = a.lambda1 is not None or a.lambda2 is not None
    sp_given = a.s is not None or a.p is not None
    _require(not (pair_given and sp_given),
             "(--s, --p) and (--lambda1, --lambda2) are mutually exclusive")
    _require(a.lam is None,
             "--lambda belongs to the non-unital family; dephasing takes "
             "--s/--p or --lambda1/--lambda2")
    if pair_given:
        _require(a.lambda1 is not None and a.lambda2 is not None,
                 "--lambda1 and --lambda2 must be given together")
        return a.lambda1 + a.lambda2, a.lambda1 * a.lambda2
    s = r.get("s", s_default)
    if p_default is None:
        _require(a.p is not None, "--p is required for this command")
        return s, a.p
    return s, r.get("p", p_default)


def _family(r: _Resolved, *, allow_nonunital: bool = True,
            p_default: float | None = None):
    """Build the process object named by --family and its parameter flags."""
    kind = r.get("family", "dephasing")
    if kind == "nonunital":
        _require(allow_nonunital,
                 "this command supports only the dephasing family")
        _reject(r, ["s", "p", "lambda1", "lambda2"], "the non-unital family")
        lam = r.get("lam", 1.0)
        return NonUnitalSemiMarkov(rate=lam)
    s, p = _dephasing_params(r, p_default=p_default)
    return DephasingSemiMarkov(s=s, p=p)


def _positive(name: str, value: float) -> float:
    _require(np.isfinite(value) and value > 0.0,
             f"{name} must be positive, got {value!r}")
    return float(value)


def _grid_size(value: int, minimum: int = 2) -> int:
    _require(value >= minimum, f"--grid must be >= {minimum}, got {value}")
    return int(value)


def _sss_config(r: _Resolved) -> SSSConfig:
    horizon = _positive("--T", r.get("T", 1.0))
    mode = r.get("mode", "paper")
    _reject(r, ["gamma_max"] if mode == "paper" else ["gamma_ref"],
            f"measure --mode {mode}")
    form = r.get("form", "rate")
    gamma_ref = r.get("gamma_ref", 0.0)
    epsilon = _positive("--epsilon", r.get("epsilon", 1e-6))
    return SSSConfig(horizon=horizon,
                     mode="fixed" if mode == "paper" else "min",
                     form=form, gamma_ref=gamma_ref,
                     gamma_max=r.args.gamma_max, excision=epsilon)


def cmd_rate(r: _Resolved) -> ResultTable:
    proc = _family(r, allow_nonunital=False, p_default=3.0)
    t_max = _positive("--t-max", r.get("t_max", 6.0))
    n = _grid_size(r.get("grid", 500))
    ts = np.linspace(0.0, t_max, n)
    vals = gamma_dephasing(proc, ts)  # NaN at poles, annotated below
    poles = coherence_zeros(proc, t_max)
    meta = r.metadata()
    meta["singular_times"] = [float(x) for x in poles]
    return ResultTable(
        command="rate",
        config={"family": "dephasing", "s": proc.s, "p": proc.p,
                "t-max": t_max, "grid": n},
        columns={"t": ts, "gamma": vals},
        metadata=meta,
    )


def cmd_measure(r: _Resolved) -> ResultTable:
    kind = r.get("family", "dephasing")
    cfg = _sss_config(r)
    meta = r.metadata()
    config_echo = {
        "family": kind, "T": cfg.horizon,
        "mode": "min" if cfg.mode == "min" else "paper",
        "form": cfg.form, "gamma-ref": cfg.gamma_ref,
        "epsilon": cfg.excision,
    }
    if cfg.gamma_max is not None:
        config_echo["gamma-max"] = cfg.gamma_max
    if kind == "nonunital":
        _reject(r, ["p_min", "p_max", "p_points"], "the non-unital measure")
        proc = _family(r)
        res = sss_measure(proc, cfg)
        config_echo["lambda"] = proc.rate
        columns = {
            "lambda": np.array([proc.rate]),
            "xi": np.array([res.xi]),
            "zeta": np.array([res.zeta]),
            "gamma_ref": np.array([res.gamma_ref]),
        }
        if cfg.form == "choi":
            columns["xi_raw"] = np.array([res.raw_average])
            meta["family_constant"] = res.family_constant
        meta["excised_intervals"] = [list(h) for h in res.excised]
        return ResultTable("measure", config_echo, columns, meta)

    a = r.args
    _require(a.lam is None, "--lambda belongs to the non-unital family")
    pair_given = a.lambda1 is not None or a.lambda2 is not None
    if a.p is not None or pair_given:
        _reject(r, ["p_min", "p_max", "p_points"], "a single-p measure")
        s, p = _dephasing_params(r, p_default=None)
        p_values = np.array([p])
    else:
        s = r.get("s", 1.0)
        p_lo = r.get("p_min", 0.0)
        p_hi = r.get("p_max", 0.5)
        n_p = r.get("p_points", 51)
        _require(n_p >= 1, f"--p-points must be >= 1, got {n_p}")
        _require(p_hi >= p_lo >= 0.0, "need 0 <= --p-min <= --p-max")
        p_values = np.linspace(p_lo, p_hi, n_p)
    config_echo["s"] = s

    procs = [DephasingSemiMarkov(s=s, p=float(p)) for p in p_values]
    results = [sss_measure(pr, cfg) for pr in procs]
    columns = {
        "p": p_values,
        "xi": np.array([res.xi for res in results]),
        "zeta": np.array([res.zeta for res in results]),
        "gamma_ref": np.array([res.gamma_ref for res in results]),
        "cp_indivisible": np.array(
            [1.0 if pr.regime() == REGIME_INDIVISIBLE else 0.0
             for pr in procs]),
    }
    if cfg.form == "choi":
        columns["xi_raw"] = np.array([res.raw_average for res in results])
        meta["family_constant"] = results[0].family_constant
    meta["p_boundary"] = s**2 / 8.0
    excised = [list(h) for res in results for h in res.excised]
    meta["excised_intervals"] = excised
    return ResultTable("measure", config_echo, columns, meta)


def cmd_holevo(r: _Resolved) -> ResultTable:
    _require(r.get("family", "dephasing") == "dephasing",
             "holevo curves are implemented for the dephasing family")
    a = r.args
    _require(all(v is None for v in (a.p, a.lambda1, a.lambda2, a.lam)),
             "holevo takes --p-list for its p values")
    s = r.get("s", 1.0)
    raw_list = r.get("p_list", "2,0.1,0.01")
    try:
        p_values = [float(tok) for tok in raw_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --p-list {raw_list!r}: {exc}") from exc
    _require(len(p_values) >= 1, "--p-list must name at least one p value")
    t_max = _positive("--t-max", r.get("t_max", 6.0))
    n = _grid_size(r.get("grid", 500))
    ts = np.linspace(0.0, t_max, n)
    curves = [holevo_curve(DephasingSemiMarkov(s=s, p=p), ts)
              for p in p_values]
    columns: dict[str, np.ndarray] = {"t": ts}
    for p, chi in zip(p_values, curves):
        columns[f"chi_p{p:g}"] = chi
    meta = r.metadata()
    meta["ensemble"] = "equal-weight |+>,|->"
    return ResultTable(
        command="holevo",
        config={"family": "dephasing", "s": s, "p-list": raw_list,
                "t-max": t_max, "grid": n},
        columns=columns,
        metadata=meta,
    )


def cmd_blp(r: _Resolved) -> ResultTable:
    proc = _family(r, allow_nonunital=False, p_default=3.0)
    t_max = _positive("--t-max", r.get("t_max", 10.0))
    n = _grid_size(r.get("grid", 2001))
    res = blp_measure(proc, t_max, n_grid=n)
    meta = r.metadata()
    meta["blp"] = res.measure
    return ResultTable(
        command="blp",
        config={"family": "dephasing", "s": proc.s, "p": proc.p,
                "t-max": t_max, "grid": n},
        columns={"t": res.times, "trace_distance": res.trace_distance},
        metadata=meta,
    )


def cmd_divisibility(r: _Resolved) -> ResultTable:
    if r.args.boundary_search:
        a = r.args
        _require(all(v is None for v in (a.p, a.lambda1, a.lambda2, a.lam)),
                 "--boundary-search sweeps p; fix only --s")
        _require(a.family in (None, "dephasing"),
                 "--boundary-search is defined for the dephasing family")
        s = r.get("s", 1.0)
        bracket = (r.get("p_min", 0.05), r.get("p_max", 0.4))
        t_max = _positive("--t-max", r.get("t_max", 60.0))
        n = _grid_size(r.get("grid", 1200))
        p_tol = _positive("--p-tol", r.get("p_tol", 1e-4))
        est = divisibility_boundary(s, p_bracket=bracket, t_max=t_max,
                                    n_grid=n, p_tol=p_tol)
        meta = r.metadata()
        meta["p_boundary_estimate"] = est.p_estimate
        return ResultTable(
            command="divisibility",
            config={"family": "dephasing", "s": s, "t-max": t_max,
                    "grid": n, "p-tol": p_tol, "boundary-search": True,
                    "p-min": bracket[0], "p-max": bracket[1]},
            columns={"p_estimate": np.array([est.p_estimate]),
                     "p_low": np.array([est.p_low]),
                     "p_high": np.array([est.p_high])},
            metadata=meta,
        )
    _reject(r, ["p_min", "p_max", "p_tol"], "the divisibility scan")
    proc = _family(r, allow_nonunital=False, p_default=3.0)
    t_max = _positive("--t-max", r.get("t_max", 10.0))
    n = _grid_size(r.get("grid", 1000))
    report = cp_divisibility_scan(proc, np.linspace(0.0, t_max, n))
    meta = r.metadata()
    meta["violation_count"] = report.violation_count
    meta["first_violation"] = report.first_violation
    meta["singular_steps"] = report.singular_steps
    meta["cp_divisible"] = report.cp_divisible
    violating = (np.nan_to_num(report.min_eigenvalues, nan=0.0)
                 < -report.tol).astype(float)
    return ResultTable(
        command="divisibility",
        config={"family": "dephasing", "s": proc.s, "p": proc.p,
                "t-max": t_max, "grid": n, "boundary-search": False},
        columns={"t": report.times[1:],
                 "min_choi_eigenvalue": report.min_eigenvalues,
                 "violation": violating},
        metadata=meta,
    )


_WTD_BUILDERS = {
    "exponential": lambda r: ExponentialWTD(rate=r.get("lam", 1.0)),
    "tanhsech": lambda r: TanhSechWTD(rate=r.get("lam", 1.0)),
}


def cmd_classical_sim(r: _Resolved) -> ResultTable:
    a = r.args
    kind = r.get("wtd", "expconv")
    if kind == "expconv":
        _require(a.lam is None,
                 "expconv waits take --lambda1/--lambda2, not --lambda")
        l1 = r.get("lambda1", 1.0)
        l2 = r.get("lambda2", 2.0)
        wtd = ExpConvolutionWTD(rate1=l1, rate2=l2)
        rates = {"lambda1": l1, "lambda2": l2}
    else:
        _reject(r, ["lambda1", "lambda2"], f"--wtd {kind}")
        wtd = _WTD_BUILDERS[kind](r)
        rates = {"lambda": wtd.rate}
    _require(a.seed is not None, "--seed is required for classical-sim")
    jump_prob = r.get("jump_prob", 1.0)
    n_paths = r.get("paths", 100_000)
    t_max = _positive("--t-max", r.get("t_max", 2.0))
    n_times = _grid_size(r.get("grid", 41))
    sim = classical_jump_simulate(wtd, jump_prob, t_max, n_paths,
                                  seed=a.seed, n_times=n_times)
    exact = np.asarray(wtd.survival(sim.times), dtype=float)
    meta = r.metadata()
    meta["max_survival_error_se"] = float(np.max(
        np.abs(sim.survival - exact) / np.maximum(sim.survival_se, 1e-12)
    ))
    return ResultTable(
        command="classical-sim",
        config={"wtd": kind, **rates, "jump-prob": jump_prob,
                "paths": n_paths, "seed": a.seed, "t-max": t_max,
                "grid": n_times},
        columns={
            "t": sim.times,
            "survival": sim.survival,
            "survival_se": sim.survival_se,
            "survival_exact": exact,
            "occupation0": sim.occupation[0],
            "occupation0_se": sim.occupation_se[0],
            "occupation1": sim.occupation[1],
            "occupation1_se": sim.occupation_se[1],
        },
        metadata=meta,
    )


def cmd_kernel_check(r: _Resolved) -> ResultTable:
    _require(r.get("family", "dephasing") == "dephasing",
             "kernel-check is defined for the dephasing family")
    s, p = _dephasing_params(r, p_default=0.1)
    dt = _positive("--dt", r.get("dt", 1e-3))
    t_max = _positive("--t-max", r.get("t_max", 5.0))
    _require(t_max >= 4 * dt, "--t-max must cover at least a few steps")
    proc = DephasingSemiMarkov(s=s, p=p)
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
    meta = r.metadata()
    meta["max_deviation"] = dev
    meta["max_deviation_coarse"] = dev_coarse
    meta["convergence_ratio"] = ratio
    meta["convergence_order"] = float(np.log2(ratio)) if np.isfinite(ratio) else np.nan
    return ResultTable(
        command="kernel-check",
        config={"family": "dephasing", "s": s, "p": p, "dt": dt,
                "t-max": t_max},
        columns={"t": times[sel],
                 "q_closed": q_ref[sel],
                 "q_volterra": q_num[sel],
                 "abs_error": np.abs(q_num - q_ref)[sel]},
        metadata=meta,
    )


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
        args = parser.parse_args(_merge_config(argv))
        table = _DISPATCH[args.command](_Resolved(args))
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
