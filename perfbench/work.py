"""Closed-loop execution of a workload's requests, and the checks on their outputs.

One request is in flight at a time.  A CLI request runs ``qmaxemu.cli.main``
in this process with stdout captured; a library request (f64-large) runs
the decomposed-f64 engine with the butterfly and reads out f_p.  Every
qmaxemu function is looked up through its module at call time, so the
wrappers in spans.py see each call.  All checks run after the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import time
from dataclasses import dataclass, field

import qmaxemu.cli
import qmaxemu.diagonals
import qmaxemu.engines
import qmaxemu.variational
from qmaxemu.pipeline import QaoaParams

import gen
import oracle

PIPELINE_FILL = 19  # CALCULATE_RAD + NORMALIZE_RAD + 16 CORDIC stages + 1_MULT

# Largest accepted |f_p - oracle| in cut weight, by arithmetic.  The fixed-
# point bounds are about 10x the largest gap over the golden corpus.
TOL_FIXED = {"q12.20": 2e-3, "q7.25": 1e-3}
TOL_F64 = 1e-9
TOL_GOLDEN_F64 = 1e-10  # relative; the butterfly may be reordered, not changed


@dataclass
class Response:
    request: gen.Request
    seconds: float
    rc: int | None = None
    output: object = None  # stdout text (cli) or (f_p, norm) (lib)
    error: str | None = None
    kernel_s: float | None = None  # median calibration kernel time around the request


def execute(req: gen.Request, graph) -> Response:
    """Run one request; only the emulator's work is inside the timer."""
    resp = Response(req, 0.0)
    if req.kind == "cli":
        buf = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                resp.rc = qmaxemu.cli.main(list(req.argv))
        except (Exception, SystemExit) as exc:  # a failed request, not a failed run
            resp.error = f"{type(exc).__name__}: {exc}"
        resp.seconds = time.perf_counter() - started
        resp.output = buf.getvalue()
        return resp
    params = QaoaParams.from_lists(req.gamma, req.beta)
    started = time.perf_counter()
    try:
        run = qmaxemu.engines.run_engine("decomposed-f64", graph, params, fast=True)
        diag = qmaxemu.diagonals.build_cost_diagonal(graph, graph.num_vertices)
        f_p = qmaxemu.variational.expectation(run.state, diag).f_p
    except Exception as exc:
        resp.seconds = time.perf_counter() - started
        resp.error = f"{type(exc).__name__}: {exc}"
        return resp
    resp.seconds = time.perf_counter() - started
    resp.rc = 0
    resp.output = (f_p, run.state.physical_norm())
    return resp


@dataclass
class Measurement:
    responses: list[Response] = field(default_factory=list)
    pass_seconds: list[float] = field(default_factory=list)


def measure(reqs, graphs, seconds: float, tracer=None, sampler=None) -> Measurement:
    """Whole passes over `reqs`; a new pass starts only if a median pass still
    fits before the deadline, and at least one pass always runs.

    With a hostspeed.Sampler, the calibration kernel runs before the first
    request, after every request and every hostspeed.INTERVAL_S seconds during
    one.  Each response then holds the median kernel time from the sample
    before it to the sample after it, and its seconds exclude the kernel."""
    m = Measurement()
    if sampler is not None:
        sampler.sample()
        sampler.start()
    try:
        deadline = time.perf_counter() + seconds
        pass_index = 0
        while not m.pass_seconds or (
                time.perf_counter() + statistics.median(m.pass_seconds) <= deadline):
            total = 0.0
            for j, req in enumerate(reqs):
                if tracer is not None:
                    tracer.request = pass_index * len(reqs) + j
                if sampler is None:
                    resp = execute(req, graphs.get(req.instance))
                else:
                    first, stolen = sampler.mark()
                    resp = execute(req, graphs.get(req.instance))
                    resp.seconds -= sampler.stolen - stolen
                    sampler.sample()
                    resp.kernel_s = statistics.median(sampler.samples[first - 1:])
                m.responses.append(resp)
                total += resp.seconds
            m.pass_seconds.append(total)
            pass_index += 1
    finally:
        if sampler is not None:
            sampler.stop()
    return m


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    failures: list[str]
    f_p_err: float | None = None  # largest oracle gap among non-saturated results
    evals: int = 0  # f_p evaluations the request made
    elements: int = 0  # streamed diagonal elements the request evolved


def _cycles(p: int, n: int) -> int:
    return 2 * p * ((1 << n) + PIPELINE_FILL)


def _check_emulate(req, rep, v: Verdict):
    if rep["cycles"]["total"] != _cycles(req.p, req.n):
        v.failures.append(f"cycles.total {rep['cycles']['total']} != 2p(2^n+{PIPELINE_FILL})")
    if rep["overflow"]:
        v.failures.append("overflow: true on a workload chosen not to saturate")
    else:
        v.f_p_err = abs(rep["f_p"] - oracle.expected_cut(req.n, req.edges, req.gamma, req.beta))
        if v.f_p_err > TOL_FIXED[gen.EMULATE_FORMAT]:
            v.failures.append(f"oracle gap {v.f_p_err:.3g}")
    v.evals, v.elements = 1, req.elements


def _check_bench(req, text, v: Verdict):
    rows = [json.loads(line) for line in text.splitlines()]
    seen = {(r["n"], r["engine"]) for r in rows}
    expected = {(n, e) for n in gen.BENCH_QUBITS for e in gen.BENCH_ENGINES}
    if seen != expected or len(rows) != len(expected):
        v.failures.append("bench rows do not cover every (n, engine) once")
    errs = []
    for r in rows:
        n = r["n"]
        if r["engine"] == "pipeline" and r["cycles_total"] != _cycles(gen.BENCH_P, n):
            v.failures.append(f"n={n}: cycles_total != 2p(2^n+{PIPELINE_FILL})")
        if r["overflow"]:
            continue
        err = abs(r["f_p"] - oracle.expected_cut(n, gen.complete_edges(n), req.gamma, req.beta))
        tol = TOL_FIXED["q7.25"] if r["engine"] == "pipeline" else TOL_F64 * max(1.0, r["f_p"])
        if err > tol:
            v.failures.append(f"n={n} {r['engine']}: oracle gap {err:.3g}")
        errs.append(err)
    v.f_p_err = max(errs, default=None)
    v.evals, v.elements = len(rows), req.elements


def _check_solve(req, rep, v: Verdict):
    if rep["cycles"]["total"] != _cycles(req.p, req.n):
        v.failures.append(f"cycles.total != 2p(2^n+{PIPELINE_FILL})")
    if not 1 <= rep["evaluations"] <= gen.SOLVE_MAX_EVALS:
        v.failures.append(f"evaluations {rep['evaluations']} outside 1..{gen.SOLVE_MAX_EVALS}")
    if abs(rep["brute_force_max"] - oracle.max_cut(req.n, req.edges)) > 1e-9:
        v.failures.append("brute_force_max differs from the oracle's maximum cut")
    if not rep["overflow"]:
        params = rep["params"]
        v.f_p_err = abs(rep["f_p"] - oracle.expected_cut(req.n, req.edges, params["gamma"],
                                                         params["beta"]))
        if v.f_p_err > TOL_FIXED["q7.25"]:
            v.failures.append(f"oracle gap {v.f_p_err:.3g}")
    # the optimizer's evaluations plus the final report run
    v.evals = rep["evaluations"]
    v.elements = (rep["evaluations"] + 1) * 2 * req.p * (1 << req.n)


def _check_large(req, output, golden, v: Verdict):
    f_p, norm = output
    if golden is None or abs(f_p - golden["f_p"]) > TOL_GOLDEN_F64 * max(1.0, abs(f_p)) \
            or abs(norm - golden["norm"]) > TOL_GOLDEN_F64:
        v.failures.append("differs from the golden f_p / norm")
    v.f_p_err = abs(f_p - oracle.expected_cut(req.n, req.edges, req.gamma, req.beta))
    if v.f_p_err > TOL_F64 * max(1.0, abs(f_p)):
        v.failures.append(f"oracle gap {v.f_p_err:.3g}")
    v.evals, v.elements = 1, req.elements


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(resp: Response, golden: dict, cache: dict) -> Verdict:
    """Judge one response; semantic checks run once per distinct output."""
    req = resp.request
    if resp.error is not None:
        return Verdict([resp.error])
    if resp.rc != 0:
        return Verdict([f"exit code {resp.rc}"])
    expected = golden.get(str(req.instance))
    key = (req.instance, digest(resp.output) if req.kind == "cli" else resp.output)
    if key not in cache:
        v = Verdict([])
        try:
            if req.kind == "lib":
                _check_large(req, resp.output, expected, v)
            else:
                if key[1] != expected:
                    v.failures.append("stdout sha256 differs from the golden")
                if req.workload == "bench-sweep":
                    _check_bench(req, resp.output, v)
                elif req.workload == "emulate-n12":
                    _check_emulate(req, json.loads(resp.output), v)
                else:
                    _check_solve(req, json.loads(resp.output), v)
        except (ValueError, KeyError, TypeError) as exc:
            v.failures.append(f"unreadable report: {type(exc).__name__}: {exc}")
        cache[key] = v
    return cache[key]


def judge(responses, golden: dict) -> list[Verdict]:
    cache: dict = {}
    return [check(r, golden, cache) for r in responses]


def fail_frac(verdicts) -> float:
    """Failed requests over requests attempted."""
    return sum(1 for v in verdicts if v.failures) / len(verdicts)
