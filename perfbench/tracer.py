"""Per-layer tracing of the qsemimarkov package from outside its source.

``Tracer.install()`` replaces every public function of the traced modules
with a timing wrapper, in every namespace that holds it: the defining
module, each module that imported it by name, the package itself and
module-level dicts such as the CLI's dispatch and renderer tables. Nothing
under ``src/`` changes; ``uninstall()`` puts the originals back.

Each call records its duration and its self time, which is the duration
minus the time spent in traced callees on the same thread. Everything is
keyed by operation id (set by the benchmark before each operation) and kept
per thread, because the CLI's parameter sweeps run on a thread pool; the
per-thread records are merged when read. Calls, times and counters are
aggregated for every call. A span (id, parent, operation, thread, name,
start, end) is kept for a function only while it has at most ``SPAN_CAP``
calls in an operation; functions called more often (``q_of_t``,
``gamma_dephasing``, ~1e5 calls per operation) are aggregated only. Spans
are held in memory and written out by ``write_spans`` when the benchmark
ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("cli", "emitters", "measures", "numerics", "quantum", "semimarkov")
SPAN_CAP = 10_000
_SWEEP_ITEMS = ("measures.sss_measure", "measures.holevo_curve")
_COUNTED = frozenset({
    "numerics.adaptive_quad", "measures.cp_divisibility_scan",
    "numerics.solve_volterra", "semimarkov.classical_jump_simulate",
    "emitters.to_csv", "emitters.to_json", "emitters.to_svg", "cli.run",
    *_SWEEP_ITEMS,
})


class _ThreadRecord:
    """What one thread observed; only that thread writes to it."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child_s, name, span_id]
        self.calls: Counter = Counter()       # (op, name) -> calls
        self.total_s: Counter = Counter()     # (op, name) -> seconds
        self.self_s: Counter = Counter()      # (op, name) -> seconds
        self.counts: Counter = Counter()      # (op, counter) -> value
        self.spans: dict[tuple, list | None] = defaultdict(list)


class Tracer:
    """Timing wrappers plus the counters named in the benchmark's metrics."""

    def __init__(self) -> None:
        self.op = "-"
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._records_lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: list[tuple[dict, object, object]] = []
        self._sim_signature = None
        self.sim_calls: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of ``package.<m>`` for m in MODULES."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrappers: dict[int, object] = {}
        for m, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for n in names:
                fn = vars(mod).get(n)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{m}.{n}", fn)
        self._sim_signature = inspect.signature(
            mods["semimarkov"].classical_jump_simulate)
        for ns in [vars(package)] + [vars(mod) for mod in mods.values()]:
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    self._set(ns, key, wrappers[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._set(value, k, wrappers[id(v)])

    def _set(self, container: dict, key, value) -> None:
        self._patched.append((container, key, container[key]))
        container[key] = value

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    # -- the wrapper ------------------------------------------------------

    def _record(self) -> _ThreadRecord:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _ThreadRecord()
            with self._records_lock:
                self._records.append(rec)
        return rec

    def _wrap(self, name: str, fn):
        tracer = self
        counted = name in _COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._record()
            stack = rec.stack
            parent = stack[-1] if stack else None
            frame = [0.0, name, next(tracer._ids)]
            if name == "numerics.minimize_scalar":
                args = (tracer._probe_counter(rec, args[0]),) + args[1:]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[0] += end - start
            key = (tracer.op, name)
            rec.calls[key] += 1
            rec.total_s[key] += end - start
            rec.self_s[key] += end - start - frame[0]
            spans = rec.spans[key]
            if spans is not None:
                if len(spans) < SPAN_CAP:
                    spans.append((frame[2], parent[2] if parent else None,
                                  start, end))
                else:
                    rec.spans[key] = None
            if counted:
                tracer._count(rec, name, args, kwargs, result, end - start)
            return result

        return traced

    def _probe_counter(self, rec: _ThreadRecord, objective):
        key = (self.op, "numerics.minimize_scalar.probes")

        def probe(x):
            rec.counts[key] += 1
            return objective(x)
        return probe

    def _count(self, rec: _ThreadRecord, name, args, kwargs, result,
               duration) -> None:
        """Counters beyond calls and times."""
        op, counts = self.op, rec.counts
        ancestors = {frame[1] for frame in rec.stack}
        if name == "numerics.adaptive_quad":
            counts[(op, "numerics.adaptive_quad.evals")] += result.evaluations
            if "measures.sss_measure" in ancestors:
                counts[(op, "quads_under_sss")] += 1
        elif name == "measures.cp_divisibility_scan":
            if "measures.divisibility_boundary" in ancestors:
                counts[(op, "measures.divisibility_boundary.probes")] += 1
        elif name == "numerics.solve_volterra":
            counts[(op, "numerics.solve_volterra.steps")] += (
                len(result.times) - 1)
        elif name == "semimarkov.classical_jump_simulate":
            bound = self._sim_signature.bind(*args, **kwargs).arguments
            counts[(op, "semimarkov.classical_jump_simulate.paths")] += int(
                bound["n_paths"])
            self.sim_calls.append((bound["wtd"], float(bound["t_max"]),
                                   int(bound["n_paths"]), int(bound["seed"])))
        elif name.startswith("emitters.to_"):
            counts[(op, f"{name}.bytes")] += len(result.encode())
        elif name in _SWEEP_ITEMS:
            counts[(op, "sweep_item_s")] += duration
        elif name == "cli.run":
            counts[(op, "run_s")] += duration

    # -- reading ----------------------------------------------------------

    def per_op(self, field: str) -> Counter:
        """(operation, name) -> value of calls, total_s, self_s or counts."""
        out: Counter = Counter()
        for rec in self._records:
            out.update(getattr(rec, field))
        return out

    def totals(self, field: str) -> Counter:
        """Name -> value summed over operations."""
        out: Counter = Counter()
        for (_, name), value in self.per_op(field).items():
            out[name] += value
        return out

    def sweep_concurrency(self) -> float:
        """Summed sweep-item time over the wall time of the enclosing runs."""
        counts = self.per_op("counts")
        ops = {op for (op, name), v in counts.items()
               if name == "sweep_item_s" and v > 0}
        run_s = sum(counts[(op, "run_s")] for op in ops)
        items = sum(counts[(op, "sweep_item_s")] for op in ops)
        return items / run_s if run_s else 0.0

    def write_spans(self, path: Path) -> int:
        """Write kept spans as JSON arrays, one per line; return how many.

        Each line is [id, parent, op, thread, name, start, end] with times
        in seconds on ``time.perf_counter``. A final line lists the
        (op, name) pairs that were aggregated only, with their call counts.
        """
        calls = self.per_op("calls")
        hot = {key for key, n in calls.items() if n > SPAN_CAP}
        written = 0
        with open(path, "w") as fh:
            for thread, rec in enumerate(self._records):
                for (op, name), spans in rec.spans.items():
                    if spans is None or (op, name) in hot:
                        continue
                    for span_id, parent, start, end in spans:
                        fh.write(json.dumps([span_id, parent, op, thread,
                                             name, start, end]) + "\n")
                        written += 1
            fh.write(json.dumps({"aggregated_only": {
                f"{op} {name}": calls[(op, name)]
                for op, name in sorted(hot)}}) + "\n")
        return written
