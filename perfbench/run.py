"""Benchmark of the qsemimarkov package and its ``qsm`` command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid_maps --seed 1 --seconds 20 \
        --trace 0

Every ``qsm`` command runs in this one process through
``qsemimarkov.cli.run``, sequentially; the benchmark starts no threads of
its own. Each operation writes to ``--out`` in a scratch directory under
``.perfbench/`` and every output is checked against a closed-form oracle
(see ``workloads.py``).

With ``--trace 0`` the run measures, with tracing off, the set-up time of a
fresh interpreter (median of several), then one warm-up pass, then passes
until ``--seconds`` have elapsed (at least three), and reports
per-operation and per-pass medians scaled to a reference host speed by
calibration jobs run between steps (see ``measure``). With ``--trace 1``
it wraps the package's public functions (see ``tracer.py``) for one pass
after untraced passes and reports the per-layer metrics, tracing overhead
included.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report with every metric under its operation name, the run
context, and the sha256 of every output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from tracer import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# a median of three passes survives one pass caught by a slow spell
MIN_PASSES = 3
IMPORTTIME_REPEATS = 3
SIM_BLOCK = 16  # renewal steps per Philox draw in classical-sim's stream
CAL_EVERY_S = 0.25
# What each calibration job takes on a quiet 2-vCPU x86-64 host; reported
# timings are scaled by (this / the job's median in the run) ** 0.75. Over
# 90 runs on that host the operations' times moved about three quarters as
# much as the jobs' did; the exponent 0.75 gave the smallest worst spread
# of 0.5, 0.75 and 1.
CAL_REF_S = {"loop": 0.005, "array": 0.005}
CAL_ELASTICITY = 0.75

# Functions whose calls, self time and total time are per-layer metrics.
TRACED_FUNCTIONS = (
    "quantum.choi_of_superop", "quantum.intermediate_map",
    "semimarkov.superop_at", "semimarkov.map_at", "quantum.kraus_from_choi",
    "quantum.apply_kraus", "numerics.trace_norm",
    "numerics.von_neumann_entropy", "numerics.adaptive_quad",
    "numerics.minimize_scalar", "numerics.find_root",
    "semimarkov.gamma_dephasing", "measures.sss_measure",
    "quantum.choi_of_generator", "numerics.solve_volterra",
    "semimarkov.classical_jump_simulate", "cli.run", "emitters.to_csv",
    "emitters.to_json", "emitters.to_svg",
)
COUNTERS = (
    ("measures.divisibility_boundary.probes", "count"),
    ("numerics.adaptive_quad.evals", "count"),
    ("numerics.minimize_scalar.probes", "count"),
    ("numerics.solve_volterra.steps", "count"),
    ("semimarkov.classical_jump_simulate.paths", "count"),
    ("emitters.to_csv.bytes", "B"),
    ("emitters.to_json.bytes", "B"),
    ("emitters.to_svg.bytes", "B"),
)
IMPORTED = tuple(f"qsemimarkov.{m}" for m in MODULES) + ("numpy", "scipy")


@dataclass
class Pass:
    wall_s: float
    op_s: list[float]
    digests: dict[str, str]
    failures: dict[str, list[str]]
    attempted: int
    cal_s: dict[str, list[float]]  # calibration kind -> job times


def calibrate_loop() -> float:
    """Seconds for interpreter work with 4x4 LAPACK calls and small ufuncs.

    Shaped like the package's per-point, per-node and per-path loops. Like
    the array job below, it uses no qsemimarkov code, so no change to the
    package moves it.
    """
    m = np.eye(4) + 0.01
    v = np.linspace(0.0, 1.0, 4096)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(400):
        acc += float(np.linalg.eigvalsh(m + i * 1e-9)[0])
        acc += sum(k * 0.5 for k in range(8))
        if i % 16 == 0:
            acc += float(np.exp(-v * i).sum())
    return time.perf_counter() - t0


def calibrate_array() -> float:
    """Seconds for weighted sums over a long stack of 4x4 complex matrices.

    Shaped like the Volterra solver's memory sum.
    """
    w = np.linspace(1.0, 0.0, 5001)
    maps = np.ones((5001, 4, 4), dtype=complex)
    t0 = time.perf_counter()
    for n in range(1000, 5001, 250):
        np.einsum("n,nij->ij", w[:n], maps[:n])
    return time.perf_counter() - t0


CALIBRATIONS = {"loop": calibrate_loop, "array": calibrate_array}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60,
                          check=True)


SETUP_CODE = ("import time; t0 = time.perf_counter(); import qsemimarkov.cli;"
              " qsemimarkov.cli.build_parser();"
              " print(time.perf_counter() - t0)")


def setup_times() -> list[float]:
    """import qsemimarkov.cli + build_parser() in fresh interpreters."""
    run_child(["-c", SETUP_CODE])  # compiles bytecode; not timed
    return [float(run_child(["-c", SETUP_CODE]).stdout)
            for _ in range(SETUP_REPEATS)]


def import_times() -> dict[str, float]:
    """Median cumulative import time per module from ``-X importtime``.

    ``numpy`` and ``scipy`` sum every outermost entry of that package, so
    each counts once however many of its submodules the package pulled in.
    """
    samples: dict[str, list[float]] = {m: [] for m in IMPORTED}
    for _ in range(IMPORTTIME_REPEATS):
        err = run_child(["-X", "importtime", "-c",
                         "import qsemimarkov.cli"]).stderr
        rows = []
        for line in err.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(),
                         int(cum) * 1e-6))
        got = dict.fromkeys(IMPORTED, 0.0)
        for i, (depth, name, cum) in enumerate(rows):
            parent = next((r[1] for r in rows[i + 1:] if r[0] < depth), "")
            for m in IMPORTED:
                top = m.split(".")[0] == m
                if name == m or (top and name.startswith(m + ".")
                                 and not parent.startswith(m)):
                    got[m] += cum
        for m in IMPORTED:
            samples[m].append(got[m])
    return {m: statistics.median(v) for m, v in samples.items()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(wl: workloads.Workload, qsm, workdir: Path,
             tracer: Tracer | None = None) -> Pass:
    """Run every operation ``reps`` times, then check every output.

    ``op_s`` holds the time of one run of each operation.
    """
    pdir = Path(tempfile.mkdtemp(dir=workdir))
    files: dict[str, Path] = {}
    failures: dict[str, list[str]] = {}
    op_s = []
    attempted = 0
    cal: dict[str, list[float]] = {kind: [] for kind in CALIBRATIONS}
    for k, (op, reps) in enumerate(zip(wl.ops, wl.reps), start=1):
        spent = 0.0
        for step in op * reps:
            out = files[step.key] = pdir / step.out
            if tracer is not None:
                tracer.op = f"op{k}:{step.key}"
            t0 = time.perf_counter()
            try:
                if step.call is not None:
                    step.call(qsm, out)
                    code = 0
                else:
                    code = qsm.cli.run([*step.argv, "--out", str(out)])
            except Exception as exc:  # a crash fails the step, not the run
                code = f"{type(exc).__name__}: {exc}"
            step_s = time.perf_counter() - t0
            spent += step_s
            # calibration samples in proportion to the time measured, so
            # their median weighs the host's speed as the timings do
            for _ in range(1 + int(step_s / CAL_EVERY_S)):
                for kind, job in CALIBRATIONS.items():
                    cal[kind].append(job())
            attempted += 1
            if code != 0:
                failures[step.key] = [f"exit {code}"]
        op_s.append(spent / reps)
    wall = sum(r * t for r, t in zip(wl.reps, op_s))
    if not failures:
        try:
            for key, msgs in wl.check(files).items():
                if msgs:
                    failures[key] = msgs
        except Exception as exc:  # an unreadable output fails every step
            failures = {key: [f"check raised {type(exc).__name__}: {exc}"]
                        for key in files}
    digests = {key: sha256(path) for key, path in files.items()
               if path.exists()}
    shutil.rmtree(pdir)
    return Pass(wall, op_s, digests, failures, attempted, cal)


def timed_passes(wl, qsm, workdir: Path, seconds: float,
                 min_passes: int) -> list[Pass]:
    """Passes until ``seconds`` have elapsed and ``min_passes`` are done."""
    out: list[Pass] = []
    t0 = time.perf_counter()
    while len(out) < min_passes or time.perf_counter() - t0 < seconds:
        out.append(run_pass(wl, qsm, workdir))
    return out


def rng_reference_s(wtd, t_max: float, n_paths: int, seed: int) -> float:
    """Time of classical-sim's per-path RNG work alone.

    Builds ``Generator(Philox(key=(seed, i)))`` for every path and draws its
    uniforms in blocks of SIM_BLOCK renewal steps until the waits reach
    t_max, as the simulation does; only construction and draws are timed.
    """
    two_stage = hasattr(wtd, "rate1")
    shape = (SIM_BLOCK, 3 if two_stage else 2)
    spent = 0.0
    for i in range(n_paths):
        t0 = time.perf_counter()
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64)))
        u = gen.random(shape)
        spent += time.perf_counter() - t0
        total = 0.0
        while True:
            if two_stage:
                w = (-np.log1p(-u[:, 0]) / wtd.rate1
                     - np.log1p(-u[:, 1]) / wtd.rate2)
            else:
                w = wtd.inverse_cdf(u[:, 0])
            total += float(w.sum())
            if total >= t_max:
                break
            t0 = time.perf_counter()
            u = gen.random(shape)
            spent += time.perf_counter() - t0
    return spent


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return "-"
    q = math.floor(100 * (n - 10) / n)
    return f"p{q}={np.percentile(values, q):.6g}"


def context(wl: workloads.Workload, qsm) -> list[str]:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    src_lines = sum(len(p.read_text().splitlines())
                    for p in SRC.rglob("*.py"))
    i = wl.inputs
    return [
        f"inputs: s={i.s!r} p={i.p!r} lambda={i.lam!r} "
        f"mc_seeds={i.mc_seeds[0]},{i.mc_seeds[1]}",
        f"context: nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} qsemimarkov={qsm.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} {threads} "
        f"src_lines={src_lines}",
    ]


def line(name: str, unit: str, values: list[float],
         ref_s: float | None = None) -> str:
    ref = "" if ref_s is None else f" ref_s={ref_s:.6g}"
    return (f"{name:<40} {unit:<5} median={statistics.median(values):.6g} "
            f"{tail(values)} n={len(values)}{ref}")


def measure(wl, qsm, workdir: Path, seconds: float, report: list[str]):
    """End-to-end metrics with tracing off.

    Each operation's times are scaled by (CAL_REF_S over the median of its
    workload-declared calibration job) ** CAL_ELASTICITY. The jobs run after
    every step of every timed pass, so a slow spell of the host moves the
    scaled times less. ``wall_s`` sums the scaled operation times of a
    pass. The report also gives every timing in plain seconds. ``setup_s``
    is plain seconds.
    """
    setup = setup_times()
    warm = run_pass(wl, qsm, workdir)
    passes = timed_passes(wl, qsm, workdir, seconds, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = {}
    for kind in CALIBRATIONS:
        cal = [c for p in passes for c in p.cal_s[kind]]
        scale[kind] = (CAL_REF_S[kind]
                       / statistics.median(cal)) ** CAL_ELASTICITY
        report.append(line(f"calibration job {kind}", "s", cal))
    op_scale = [scale[kind] for kind in wl.op_kinds]
    walls = [p.wall_s for p in passes]
    ref_walls = [sum(r * t * f for r, t, f in zip(wl.reps, p.op_s, op_scale))
                 for p in passes]
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "wall_s": (statistics.median(ref_walls), "ref_s"),
               "peak_rss_mb": (rss_mb, "MB")}
    report.append(line("setup_s", "s", setup))
    report.append(line("wall_s", "s", walls, metrics["wall_s"][0]))
    report.append(f"{'peak_rss_mb':<40} {'MB':<5} value={rss_mb:.6g}")
    for k, name in enumerate(wl.op_names):
        values = [p.op_s[k] for p in passes]
        ref_s = statistics.median(values) * op_scale[k]
        metrics[f"op{k + 1}_s"] = (ref_s, "ref_s")
        report.append(line(f"{name} (op{k + 1}_s)", "s", values, ref_s))
    if wl.name == "grid_maps":
        report.append(line("grid_curves_s (op2+op3+op4)", "s",
                           [sum(p.op_s[1:]) for p in passes]))
    return [warm] + passes, metrics


def trace(wl, qsm, workdir: Path, seconds: float, report: list[str],
          span_file: Path):
    imports = import_times()
    warm = run_pass(wl, qsm, workdir)
    plain = timed_passes(wl, qsm, workdir, seconds / 2, 1)
    tracer = Tracer()
    tracer.install(qsm)
    try:
        traced = run_pass(wl, qsm, workdir, tracer)
    finally:
        tracer.uninstall()
    rng_ref = sum(rng_reference_s(*call) for call in tracer.sim_calls)
    n_spans = tracer.write_spans(span_file)

    calls, counts = tracer.totals("calls"), tracer.totals("counts")
    self_s, total_s = tracer.totals("self_s"), tracer.totals("total_s")
    metrics: dict[str, tuple[float, str]] = {}
    for f in TRACED_FUNCTIONS:
        metrics[f"{f}.calls"] = (calls[f], "count")
        metrics[f"{f}.self_s"] = (self_s[f], "s")
        metrics[f"{f}.total_s"] = (total_s[f], "s")
    for name, unit in COUNTERS:
        metrics[name] = (counts[name], unit)
    sss = calls["measures.sss_measure"]
    metrics["measures.sss_measure.quads_per_call"] = (
        counts["quads_under_sss"] / sss if sss else 0.0, "count/call")
    metrics["semimarkov.classical_jump_simulate.rng_ref_s"] = (rng_ref, "s")
    metrics["cli.sweep_concurrency"] = (tracer.sweep_concurrency(), "ratio")
    for m, value in imports.items():
        metrics[f"setup.import.{m.removeprefix('qsemimarkov.')}_s"] = (
            value, "s")
    untraced = statistics.median(p.wall_s for p in plain)
    metrics["trace.overhead_s"] = (traced.wall_s - untraced, "s")

    for name, (value, unit) in metrics.items():
        report.append(f"{name:<48} {unit:<10} value={value:.6g}")
    report.append(f"traced wall_s={traced.wall_s:.6g} untraced median "
                  f"wall_s={untraced:.6g} (n={len(plain)}); {n_spans} spans "
                  f"in {span_file.relative_to(ROOT)}")
    op_calls = tracer.per_op("calls")
    for k, op in enumerate(wl.ops, start=1):
        for step in op:
            key = f"op{k}:{step.key}"
            n_sss = op_calls[(key, "measures.sss_measure")]
            if n_sss:
                quads = op_calls[(key, "numerics.adaptive_quad")]
                report.append(f"{key}: adaptive_quad calls per sss_measure "
                              f"= {quads / n_sss:.4g} ({quads}/{n_sss})")
    return [warm] + plain + [traced], metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "qsemimarkov" / "cli.py").is_file():
        fail(f"no qsemimarkov sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsemimarkov
    import qsemimarkov.cli

    if Path(qsemimarkov.__file__).resolve().parent != SRC / "qsemimarkov":
        fail(f"imported qsemimarkov from {qsemimarkov.__file__}, not {SRC}")

    wl = workloads.build(args.workload, args.seed, ROOT / "recipes")
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch, prefix="work-"))
    report = [f"qsm benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}"]
    report += context(wl, qsemimarkov)
    try:
        if args.trace:
            span_file = (scratch
                         / f"trace-{args.workload}-seed{args.seed}.jsonl")
            passes, metrics = trace(wl, qsemimarkov, workdir, args.seconds,
                                    report, span_file)
        else:
            passes, metrics = measure(wl, qsemimarkov, workdir, args.seconds,
                                      report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for key in wl.repeatable:
        if len({p.digests.get(key) for p in passes}) != 1:
            passes[-1].failures.setdefault(key, []).append(
                "output differs between passes with the same seed")
    failures = {}
    for i, p in enumerate(passes):
        for key, msgs in p.failures.items():
            failures.setdefault(key, []).extend(f"pass {i}: {m}" for m in msgs)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    report.append(f"operations: attempted={attempted} failed={failed} "
                  f"error_rate={failed / attempted:.6g}")
    for key, msgs in failures.items():
        report += [f"FAILED {key}: {m}" for m in msgs]
    report += [f"sha256 {key} {d}" for key, d in passes[-1].digests.items()]
    for text in report:
        print(text)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
