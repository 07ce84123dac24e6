"""Layer spans for the traced run, recorded from outside the package.

Each wrapped public function records a span: name, start, end, parent span
and request id.  A function bound by ``from .x import y`` lives in several
module namespaces, so :meth:`Tracer.install` patches every qmaxemu module
attribute that holds the original function object, and :meth:`remove` puts
all of them back.  The per-element kernels ``fxp.vec_add``,
``fxp.vec_from_real`` and ``pipeline.hadamard_sign_column`` are deliberately
not wrapped: they run N times per operation and their time stays in
``pipeline.op_self_s``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# (defining module, function, span name); several functions may share a span name.
TARGETS = (
    ("graph", "parse_graph", "graph.parse"),
    ("graph", "cut_values_all", "graph.cut_values_all"),
    ("graph", "brute_force_max_cut", "graph.brute_force"),
    ("diagonals", "build_cost_diagonal", "diagonals.cost_table"),
    ("diagonals", "build_mixer_exponents", "diagonals.mixer_table"),
    ("fxp", "vec_reduce_mod_2pi", "fxp.angle"),
    ("fxp", "vec_normalize_rad", "fxp.angle"),
    ("fxp", "vec_cordic_sincos", "fxp.cordic"),
    ("fxp", "vec_apply_flags", "fxp.flags"),
    ("fxp", "vec_mul", "fxp.mult"),
    ("pipeline", "run_elemental_ansatz", "pipeline.op"),
    ("pipeline", "run_layer", "pipeline.layer"),
    ("pipeline", "run_qaoa", "pipeline.run"),
    ("reference", "fwht_inplace", "reference.fwht"),
    ("reference", "walsh_streamed", "reference.walsh_streamed"),
    ("reference", "dense_cost_unitary", "reference.dense_unitary"),
    ("reference", "dense_mixer_unitary", "reference.dense_unitary"),
    ("reference", "dense_run_qaoa", "reference.dense"),
    ("reference", "decomposed_run_qaoa_f64", "reference.decomposed"),
    ("variational", "expectation", "variational.expectation"),
    ("variational", "optimize", "variational.optimize"),
    ("variational", "make_objective", "variational.make_objective"),
    ("engines", "run_engine", "engines.run_engine"),
    ("engines", "make_engine", "engines.make_engine"),
    ("cli", "main", "cli.main"),
)

# Layer metrics: (name, unit).  Times and counts are per pass over the
# request list (median over traced passes), so counts repeat exactly.
LAYER_METRICS = (
    ("pipeline.op_s", "s"), ("pipeline.op_self_s", "s"),
    ("pipeline.host_ns_per_clock", "ns/clock"),
    ("pipeline.layer_self_s", "s"), ("pipeline.run_self_s", "s"),
    ("pipeline.ops", "count"), ("pipeline.clocks", "count"),
    ("pipeline.modeled_adds", "count"), ("pipeline.overflow_runs", "count"),
    ("fxp.angle_s", "s"), ("fxp.cordic_s", "s"), ("fxp.flags_s", "s"), ("fxp.mult_s", "s"),
    ("diagonals.cost_table_s", "s"), ("diagonals.mixer_table_s", "s"),
    ("diagonals.table_builds", "count"), ("diagonals.builds_per_graph", "ratio"),
    ("reference.fwht_s", "s"), ("reference.transforms", "count"),
    ("reference.walsh_streamed_s", "s"), ("reference.dense_unitary_s", "s"),
    ("reference.dense_s", "s"),
    ("variational.expectation_s", "s"), ("variational.optimizer_self_s", "s"),
    ("variational.objective_evals", "count"),
    ("graph.parse_s", "s"), ("graph.cut_values_all_s", "s"), ("graph.brute_force_s", "s"),
    ("engines.run_engine_s", "s"), ("cli.main_self_s", "s"),
)

# Span name -> layer metric that gets its total or self time.
_TOTAL_TIME = {
    "pipeline.op": "pipeline.op_s",
    "fxp.angle": "fxp.angle_s", "fxp.cordic": "fxp.cordic_s",
    "fxp.flags": "fxp.flags_s", "fxp.mult": "fxp.mult_s",
    "diagonals.cost_table": "diagonals.cost_table_s",
    "diagonals.mixer_table": "diagonals.mixer_table_s",
    "reference.fwht": "reference.fwht_s",
    "reference.walsh_streamed": "reference.walsh_streamed_s",
    "reference.dense_unitary": "reference.dense_unitary_s",
    "reference.dense": "reference.dense_s",
    "variational.expectation": "variational.expectation_s",
    "graph.parse": "graph.parse_s", "graph.cut_values_all": "graph.cut_values_all_s",
    "graph.brute_force": "graph.brute_force_s",
    "engines.run_engine": "engines.run_engine_s",
}
_SELF_TIME = {
    "pipeline.op": "pipeline.op_self_s",
    "pipeline.layer": "pipeline.layer_self_s",
    "pipeline.run": "pipeline.run_self_s",
    "variational.optimize": "variational.optimizer_self_s",
    "cli.main": "cli.main_self_s",
}
_COUNT = {
    "pipeline.op": "pipeline.ops",
    "diagonals.cost_table": "diagonals.table_builds",
    "diagonals.mixer_table": "diagonals.table_builds",
    "reference.fwht": "reference.transforms",
    "reference.walsh_streamed": "reference.transforms",
    "variational.objective": "variational.objective_evals",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "data")

    def __init__(self, name, parent, request):
        self.name, self.parent, self.request = name, parent, request
        self.start = self.end = 0.0
        self.data = None


class Tracer:
    """In-memory span recorder with install/remove of the module wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = None  # id of the request in flight, set by work.measure
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.request)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            span.data = _span_data(name, args, result)
            if name == "variational.make_objective":
                # the objective closure is no module attribute: wrap what is returned
                return tracer.wrap("variational.objective", result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qmaxemu" or key.startswith("qmaxemu.")]
        for mod_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[f"qmaxemu.{mod_name}"], attr)
            wrapped = self.wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapped)

    def remove(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def patched_sites(self) -> set[str]:
        return {f"{m.__name__}.{key}" for m, key, _ in self._patched}

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.request] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": rows}, fh)


def _span_data(name, args, result):
    """Counts taken at the span boundary where the work happens."""
    if name == "pipeline.run":
        report = result[1]
        return (report.cycles_total, report.adds, report.overflow)
    if name == "diagonals.cost_table":
        g, n = args[0], args[1]
        return ("cost", g.num_vertices, g.edges, n)
    if name == "diagonals.mixer_table":
        return ("mixer", args[0])
    return None


def layer_metrics(tracer: Tracer, pass_of_request) -> dict[str, float]:
    """Per-pass layer totals, as the median over the traced passes."""
    per_pass: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    keys: dict[int, set] = defaultdict(set)
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for idx, s in enumerate(tracer.spans):
        acc = per_pass[pass_of_request(s.request)]
        dur = s.end - s.start
        if s.name in _TOTAL_TIME:
            acc[_TOTAL_TIME[s.name]] += dur
        if s.name in _SELF_TIME:
            acc[_SELF_TIME[s.name]] += dur - child_time[idx]
        if s.name in _COUNT:
            acc[_COUNT[s.name]] += 1
        if s.name == "pipeline.run" and s.data:  # no data if the call raised
            clocks, adds, overflow = s.data
            acc["pipeline.clocks"] += clocks
            acc["pipeline.modeled_adds"] += adds
            acc["pipeline.overflow_runs"] += int(overflow)
        if s.name in ("diagonals.cost_table", "diagonals.mixer_table"):
            keys[pass_of_request(s.request)].add(s.data)
    for p, acc in per_pass.items():
        acc["pipeline.host_ns_per_clock"] = (1e9 * acc["pipeline.op_s"] / acc["pipeline.clocks"]
                                             if acc["pipeline.clocks"] else 0.0)
        acc["diagonals.builds_per_graph"] = (acc["diagonals.table_builds"] / len(keys[p])
                                             if keys[p] else 0.0)
    return {name: statistics.median(acc.get(name, 0.0) for acc in per_pass.values())
            for name, _ in LAYER_METRICS}
