"""Command-line surface: emulate, solve, bench, oracle.

Reports are JSON on stdout (bench can emit CSV).  Floats are rounded to 12
significant digits before serialization and, when --seed is given, the
wall-clock field is pinned to 0.0 (the measured duration goes to the stderr
log instead) so seeded output is byte-identical across runs and hosts.

Exit codes: 0 success, 2 usage or input error, 3 numeric failure (overflow)
under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import os
import re
import sys
import time

import numpy as np

from .diagonals import mixer_table
from .diagonals import build_cost_diagonal  # noqa: F401  unused; in perfbench's SITES
from .engines import ENGINE_NAMES, make_engine, run_engine
from .fxp import FxFormat
from .graph import (MAX_QUBITS, GraphFormatError, WeightedGraph, brute_force_max_cut,
                    parse_graph)
from .pipeline import CLOCK_HZ, QaoaParams
from .variational import OptimizerConfig, expectation, grid_search_p1, optimize

SCHEMA_VERSION = "1"
BRUTE_FORCE_REPORT_MAX = 20

log = logging.getLogger("qmaxemu")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class InputError(Exception):
    pass


def _round_floats(obj):
    """12 significant digits: canonical and insensitive to last-ulp noise."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit_json(report: dict, stream=None):
    """Print report as one line of JSON (RFC 8259): a NaN or infinity in it
    is a ValueError, exit 2, never a non-JSON token."""
    print(json.dumps(_round_floats(report), allow_nan=False), file=stream or sys.stdout)


def parse_fixed_point(text: str) -> FxFormat:
    m = re.fullmatch(r"q(\d+)\.(\d+)", text)
    if not m:
        raise InputError(f"bad fixed-point format {text!r}; expected e.g. q7.25")
    int_bits, frac_bits = int(m.group(1)), int(m.group(2))
    try:
        return FxFormat(word_bits=int_bits + frac_bits, frac_bits=frac_bits)
    except ValueError as exc:
        raise InputError(str(exc))


def parse_float_list(text: str, name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise InputError(f"--{name} must be a comma-separated list of numbers")
    if not values:
        raise InputError(f"--{name} is empty")
    return values


def parse_qubit_range(text: str) -> range:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text)
    if not m:
        raise InputError(f"bad qubit range {text!r}; expected e.g. 2..9")
    lo = int(m.group(1))
    hi = int(m.group(2) or lo)
    if not 1 <= lo <= hi <= MAX_QUBITS:
        raise InputError(f"bad qubit range {text!r}; qubit counts run 1..{MAX_QUBITS}")
    return range(lo, hi + 1)


def load_graph(path: str) -> WeightedGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh)
    except OSError as exc:
        raise InputError(f"cannot read graph file: {exc}")
    except GraphFormatError as exc:
        raise InputError(f"{path}: {exc}")


def complete_graph(n: int) -> WeightedGraph:
    """Deterministic unit-weight bench instance on n vertices."""
    edges = tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n))
    return WeightedGraph(n, edges)


def graph_summary(g: WeightedGraph) -> dict:
    return {"vertices": g.num_vertices, "edges": g.num_edges,
            "total_weight": g.total_weight}


def base_report(command: str, args, g: WeightedGraph) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "graph": graph_summary(g),
        "seed": args.seed,
    }


def finish_report(report: dict, started: float, seed) -> dict:
    elapsed = time.perf_counter() - started
    log.info("wall clock: %.6f s", elapsed)
    # Seeded runs must be byte-identical, so the measured time is logged
    # rather than reported.
    report["wall_clock_s"] = 0.0 if seed is not None else elapsed
    return report


def _params_from_args(args) -> QaoaParams:
    gamma = parse_float_list(args.gamma, "gamma")
    beta = parse_float_list(args.beta, "beta")
    if len(gamma) != len(beta):
        raise InputError(f"gamma has {len(gamma)} entries but beta has {len(beta)}")
    if args.layers is not None and args.layers != len(gamma):
        raise InputError(f"--layers {args.layers} does not match {len(gamma)} parameters")
    return QaoaParams.from_lists(gamma, beta)


def _open_output(path: str | None, files: contextlib.ExitStack):
    """Open an output file, if one is named, in files; an unwritable path is
    an input error."""
    if path is None:
        return None
    try:
        return files.enter_context(open(path, "w", encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}")


def _engine_sections(report: dict, run, fmt: FxFormat):
    counts = run.counts
    if counts.cycles_per_op:
        report["cycles"] = {
            "total": counts.cycles_total,
            "per_op": list(counts.cycles_per_op),
            "mults": counts.mults,
            "adds": counts.adds,
        }
        report["derived_time_s"] = counts.derived_seconds()
        report["clock_hz"] = CLOCK_HZ
        report["overflow"] = counts.overflow
    else:
        report["overflow"] = counts.overflow
        report["op_counts"] = {"mults": counts.mults, "adds": counts.adds}
    report["fixed_point"] = fmt.name


def cmd_emulate(args) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    params = _params_from_args(args)
    fmt = parse_fixed_point(args.fixed_point)
    if args.trace is not None and args.engine != "pipeline":
        raise InputError(f"--trace needs the pipeline engine: {args.engine} models no clocks")
    with contextlib.ExitStack() as files:
        # both output files are opened before the run, so a bad path fails fast
        trace_fh = _open_output(args.trace, files)
        dump_fh = _open_output(args.dump_state, files)
        trace_writer = trace_fh and (lambda record: trace_fh.write(json.dumps(record) + "\n"))
        run = run_engine(args.engine, g, params, fmt=fmt, trace_writer=trace_writer)
        if dump_fh:
            json.dump(_round_floats({
                "n": run.state.n,
                "scale_exp": float(run.state.scale_exp),
                "amps": [[float(a.real), float(a.imag)] for a in run.state.amps],
            }), dump_fh, allow_nan=False)
    result = expectation(run.state, g.cost_table)

    report = base_report("emulate", args, g)
    report["engine"] = args.engine
    report["params"] = {"p": params.p, "gamma": list(params.gamma),
                        "beta": list(params.beta)}
    report["f_p"] = result.f_p
    report["best_bitstring"] = result.best_bitstring
    report["best_cut"] = result.best_cut
    _engine_sections(report, run, fmt)
    if args.dump_diagonals:
        report["cost_diagonal"] = g.cost_table.entries.tolist()
        report["mixer_exponents"] = mixer_table(g.num_vertices).u.tolist()
    emit_json(finish_report(report, started, args.seed))
    return _numeric_exit(report, args)


def cmd_solve(args) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    if args.layers < 1:
        raise InputError("--layers must be >= 1")
    # checked here, not only in optimize, because the grid never calls it
    if args.restarts < 1:
        raise InputError("need at least one restart")
    if args.max_evals < 1:
        raise InputError("need at least one evaluation")
    fmt = parse_fixed_point(args.fixed_point)
    seed = args.seed if args.seed is not None else 0
    cfg = OptimizerConfig(restarts=args.restarts, max_evals=args.max_evals)

    engine = make_engine(args.engine, fmt=fmt)
    if args.optimizer == "grid":
        if args.layers != 1:
            raise InputError("--optimizer grid supports only --layers 1")
        trace = grid_search_p1(g, resolution=64, engine=engine)
    else:  # nelder-mead
        trace = optimize(g, args.layers, engine, cfg=cfg, seed=seed)
    best_params, f_p = trace.best_params, trace.best_f_p
    run = run_engine(args.engine, g, best_params, fmt=fmt)
    result = expectation(run.state, g.cost_table)

    report = base_report("solve", args, g)
    report["engine"] = args.engine
    report["optimizer"] = args.optimizer
    report["params"] = {"p": best_params.p, "gamma": list(best_params.gamma),
                        "beta": list(best_params.beta)}
    report["f_p"] = f_p
    report["evaluations"] = trace.evaluations
    report["converged"] = trace.converged
    report["best_bitstring"] = result.best_bitstring
    report["best_cut"] = result.best_cut
    if g.num_vertices <= BRUTE_FORCE_REPORT_MAX:
        best_value, _ = brute_force_max_cut(g)
        report["brute_force_max"] = best_value
        report["ratio"] = f_p / best_value if best_value > 0 else 1.0
    _engine_sections(report, run, fmt)
    emit_json(finish_report(report, started, args.seed))
    return _numeric_exit(report, args)


def cmd_bench(args) -> int:
    qubits = parse_qubit_range(args.qubits)
    if args.layers < 1:
        raise InputError("--layers must be >= 1")
    fmt = parse_fixed_point(args.fixed_point)
    engines = [name.strip() for name in args.engine.split(",")]
    for name in engines:
        if name not in ENGINE_NAMES:
            raise InputError(f"unknown engine {name!r}")
    if len(set(engines)) < len(engines):
        raise InputError(f"--engine names an engine twice: {args.engine!r}")
    # Fixed bench parameters, small enough that the streamed amplitudes of
    # complete graphs stay inside the default format's integer headroom.
    gamma = tuple(0.2 for _ in range(args.layers))
    beta = tuple(0.4 for _ in range(args.layers))

    rows = []
    for n in qubits:
        g = complete_graph(n)
        params = QaoaParams(args.layers, gamma, beta)
        g.cost_table  # built outside the engines' timed runs
        for name in engines:
            started = time.perf_counter()
            try:
                run = run_engine(name, g, params, fmt=fmt)
            except ValueError as exc:
                log.error("skipping %s at n=%d: %s", name, n, exc)
                continue
            elapsed = time.perf_counter() - started
            f_p = expectation(run.state, g.cost_table).f_p
            row = {
                "schema_version": SCHEMA_VERSION,
                "command": "bench",
                "n": n,
                "engine": name,
                "layers": args.layers,
                "f_p": f_p,
                "wall_clock_s": 0.0 if args.seed is not None else elapsed,
                "seed": args.seed,
            }
            counts = run.counts
            if counts.cycles_per_op:
                row.update(cycles_total=counts.cycles_total, mults=counts.mults,
                           adds=counts.adds, derived_time_s=counts.derived_seconds(),
                           overflow=counts.overflow)
            else:
                row.update(mults=counts.mults, adds=counts.adds, overflow=counts.overflow)
            rows.append(row)

    if args.format == "csv":
        columns = ["n", "engine", "layers", "f_p", "cycles_total", "mults", "adds",
                   "derived_time_s", "wall_clock_s", "overflow", "seed"]
        print(",".join(columns))
        for row in rows:
            cells = []
            for col in columns:
                value = _round_floats(row.get(col, ""))
                cells.append("" if value is None else str(value))
            print(",".join(cells))
    else:
        for row in rows:
            emit_json(row)
    if args.strict and any(row.get("overflow") for row in rows):
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    g = load_graph(args.graph)
    try:
        best, maximizers = brute_force_max_cut(g)
    except ValueError as exc:
        raise InputError(str(exc))
    report = base_report("oracle", args, g)
    report["max_cut"] = best
    report["maximizers"] = maximizers
    report["maximizer_count"] = len(maximizers)
    emit_json(finish_report(report, started, args.seed))
    return EXIT_OK


def _numeric_exit(report: dict, args) -> int:
    if args.strict and report.get("overflow"):
        log.error("overflow flag raised; failing under --strict")
        return EXIT_NUMERIC
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, graph: bool = True,
                numeric: bool = True):
    if graph:
        parser.add_argument("--graph", required=True, help="edge-list graph file")
    parser.add_argument("--seed", type=int, default=None)
    if numeric:
        parser.add_argument("--fixed-point", default="q7.25", dest="fixed_point")
        parser.add_argument("--strict", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaxemu",
        description="Weighted-MaxCut QAOA accelerator emulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    emulate = sub.add_parser("emulate", help="single run with given parameters")
    _add_common(emulate)
    emulate.add_argument("--layers", type=int, default=None)
    emulate.add_argument("--gamma", required=True, help="comma list of cost parameters")
    emulate.add_argument("--beta", required=True, help="comma list of mixer parameters")
    emulate.add_argument("--engine", choices=ENGINE_NAMES, default="pipeline")
    emulate.add_argument("--dump-state", dest="dump_state", default=None)
    emulate.add_argument("--dump-diagonals", dest="dump_diagonals", action="store_true")
    emulate.add_argument("--trace", default=None, help="per-clock JSON-lines file")
    emulate.set_defaults(func=cmd_emulate)

    solve = sub.add_parser("solve", help="optimize the variational parameters")
    _add_common(solve)
    solve.add_argument("--layers", type=int, required=True)
    solve.add_argument("--engine", choices=ENGINE_NAMES, default="pipeline")
    solve.add_argument("--optimizer", choices=("nelder-mead", "grid"),
                       default="nelder-mead")
    solve.add_argument("--restarts", type=int, default=8)
    solve.add_argument("--max-evals", dest="max_evals", type=int, default=2000)
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("bench", help="engine comparison over a qubit range")
    _add_common(bench, graph=False)
    bench.add_argument("--qubits", required=True, help="range, e.g. 2..9")
    bench.add_argument("--layers", type=int, required=True)
    bench.add_argument("--engine", default="pipeline,decomposed-f64,dense",
                       help="comma list of engines")
    bench.add_argument("--format", choices=("json", "csv"), default="json")
    bench.set_defaults(func=cmd_bench)

    oracle = sub.add_parser("oracle", help="brute-force maximum cut")
    _add_common(oracle, numeric=False)
    oracle.set_defaults(func=cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built on the first main() call and reused by
    the later ones in the process: parse_args leaves a parser unchanged."""
    return build_parser()


def _setup_logging():
    level = os.environ.get("QMAX_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr, level=levels.get(level, logging.ERROR),
                        format="%(levelname)s %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
