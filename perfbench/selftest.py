"""Self-test of the benchmark itself (not part of the project's test suite).

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute, because it traces one
pass of every workload.  Checks that:
  * the oracle agrees with the dense engine at small n;
  * inputs are a function of the seed;
  * a corrupted golden digest raises fail_frac above 0;
  * the wrappers reach every binding site and are all removed again;
  * the host-speed sampler samples around and during a request, its time
    is left out of the request's, and its timer is removed afterwards;
  * every layer predicted active on a workload records a span there, and
    reference.fwht and the pipeline stay out of the workloads predicted not
    to reach them;
  * run.py fails without printing a result when the sources are absent.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import oracle  # noqa: E402
import qmaxemu  # noqa: E402
import spans  # noqa: E402
import work  # noqa: E402

INPUTS = ROOT / ".perfbench_out" / "selftest-inputs"

# Span names each workload is predicted to record in one pass.
ACTIVE = {
    "emulate-n12": {"cli.main", "graph.parse", "graph.cut_values_all",
                    "diagonals.cost_table", "diagonals.mixer_table", "engines.run_engine",
                    "pipeline.run", "pipeline.layer", "pipeline.op", "fxp.angle",
                    "fxp.cordic", "fxp.flags", "fxp.mult", "variational.expectation"},
    "bench-sweep": {"cli.main", "graph.cut_values_all", "diagonals.cost_table",
                    "diagonals.mixer_table", "engines.run_engine", "pipeline.run",
                    "pipeline.layer", "pipeline.op", "fxp.angle", "fxp.cordic", "fxp.flags",
                    "fxp.mult", "reference.decomposed", "reference.walsh_streamed",
                    "reference.dense", "reference.dense_unitary",
                    "variational.expectation"},
    "solve-n8": {"cli.main", "graph.parse", "graph.cut_values_all", "graph.brute_force",
                 "diagonals.cost_table", "diagonals.mixer_table", "engines.make_engine",
                 "engines.run_engine", "pipeline.run", "pipeline.layer", "pipeline.op",
                 "fxp.angle", "fxp.cordic", "fxp.flags", "fxp.mult", "variational.optimize",
                 "variational.make_objective", "variational.objective",
                 "variational.expectation"},
    "f64-large": {"engines.run_engine", "reference.decomposed", "reference.fwht",
                  "graph.cut_values_all", "diagonals.cost_table", "diagonals.mixer_table",
                  "variational.expectation"},
}
# Binding sites named in the benchmark's design, which install() must reach.
SITES = {
    "qmaxemu.pipeline.build_cost_diagonal", "qmaxemu.reference.build_cost_diagonal",
    "qmaxemu.variational.build_cost_diagonal", "qmaxemu.cli.build_cost_diagonal",
    "qmaxemu.engines.run_qaoa", "qmaxemu.engines.decomposed_run_qaoa_f64",
    "qmaxemu.engines.dense_run_qaoa", "qmaxemu.variational.decomposed_run_qaoa_f64",
    "qmaxemu.cli.run_engine", "qmaxemu.cli.make_engine", "qmaxemu.cli.expectation",
    "qmaxemu.cli.optimize",
}
UNWRAPPED = {"qmaxemu.fxp.vec_add", "qmaxemu.fxp.vec_from_real",
             "qmaxemu.pipeline.hadamard_sign_column"}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}", flush=True)


def test_oracle_matches_dense() -> None:
    for n in (2, 5, 9):
        edges = gen.dense_random_edges(random.Random(n), n)
        g = qmaxemu.WeightedGraph(n, tuple(edges))
        params = qmaxemu.QaoaParams.from_lists([0.3, 0.05], [1.1, 2.9])
        state = qmaxemu.dense_run_qaoa(g, params)
        f_p = qmaxemu.expectation(state, qmaxemu.build_cost_diagonal(g, n)).f_p
        got = oracle.expected_cut(n, edges, params.gamma, params.beta)
        check(abs(f_p - got) < 1e-12, f"oracle equals the dense engine at n={n}")


def test_inputs_follow_seed() -> None:
    for name in gen.WORKLOADS:
        a = gen.requests(name, 3, INPUTS)
        b = gen.requests(name, 3, INPUTS)
        c = gen.requests(name, 4, INPUTS)
        check(a == b and [r.instance for r in a] != [r.instance for r in c],
              f"{name}: same seed gives the same requests, another seed others")
    text = Path(gen.requests("emulate-n12", 0, INPUTS)[0].graph_path).read_text()
    g = qmaxemu.parse_graph(text)
    check(g.num_vertices == gen.EMULATE_N and min(min(i, j) for i, j, _ in g.edges) == 0,
          "graph files parse as the 1-indexed edge-list format")


def test_wrappers() -> None:
    originals = {site: getattr(sys.modules[site.rsplit(".", 1)[0]], site.rsplit(".", 1)[1])
                 for site in SITES | UNWRAPPED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = tracer.patched_sites()
        check(SITES <= patched, "every named binding site is wrapped")
        check(not (UNWRAPPED & patched), "per-element kernels are left unwrapped")
    finally:
        tracer.remove()
    restored = all(getattr(sys.modules[s.rsplit(".", 1)[0]], s.rsplit(".", 1)[1]) is fn
                   for s, fn in originals.items())
    check(restored, "remove() restores every original function")


def traced_pass(name: str, golden: dict):
    reqs = gen.requests(name, 0, INPUTS)
    graphs = {r.instance: qmaxemu.parse_graph(Path(r.graph_path).read_text())
              for r in reqs if r.kind == "lib"}
    tracer = spans.Tracer()
    tracer.install()
    try:
        m = work.measure(reqs, graphs, 0.0, tracer)
    finally:
        tracer.remove()
    return m, tracer, work.judge(m.responses, golden)


def test_traced_workloads(golden: dict) -> None:
    for name in gen.WORKLOADS:
        m, tracer, verdicts = traced_pass(name, golden[name])
        check(work.fail_frac(verdicts) == 0.0, f"{name}: fail_frac is 0 against the golden")
        seen = {s.name for s in tracer.spans}
        missing = ACTIVE[name] - seen
        check(not missing, f"{name}: every predicted layer records a span {sorted(missing)}")
        if name != "f64-large":
            check("reference.fwht" not in seen, f"{name}: no reference.fwht spans")
        else:
            check(not any(s.startswith("pipeline.") for s in seen), f"{name}: no pipeline spans")
        if name == "emulate-n12":
            bad = {str(r.request.instance): "0" * 64 for r in m.responses}
            corrupted = dict(golden[name], **bad)
            check(work.fail_frac(work.judge(m.responses, corrupted)) > 0,
                  f"{name}: a corrupted golden digest raises fail_frac above 0")


def test_sampler() -> None:
    reqs = gen.requests("f64-large", 0, INPUTS)[:1]
    graphs = {r.instance: qmaxemu.parse_graph(Path(r.graph_path).read_text()) for r in reqs}
    handler = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler("f64-large")
    m = work.measure(reqs, graphs, 0.0, sampler=sampler)
    resp = m.responses[0]
    check(len(sampler.samples) >= 3
          and min(sampler.samples) <= resp.kernel_s <= max(sampler.samples),
          "the host-speed sampler runs before, during and after a request")
    check(0.0 < resp.seconds < m.pass_seconds[0] + sampler.stolen,
          "request time excludes the sampler's own time")
    check(signal.getsignal(signal.SIGALRM) is handler and signal.getitimer(signal.ITIMER_REAL)
          == (0.0, 0.0), "the sampler's timer and handler are removed after the run")


def test_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "f64-large", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py exits non-zero and prints no result without the sources")
    shutil.rmtree(bare)


def main() -> int:
    golden = json.loads((HERE / "golden.json").read_text())["workloads"]
    test_oracle_matches_dense()
    test_inputs_follow_seed()
    test_wrappers()
    test_refuses_without_sources()
    test_sampler()
    test_traced_workloads(golden)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
