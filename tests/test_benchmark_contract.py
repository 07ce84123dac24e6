"""The benchmark under perfbench/ wraps qmaxemu functions by name from
outside the package; a rename here would silently break its traced run."""

import ast
import importlib
import importlib.util
from pathlib import Path

from qmaxemu import QaoaParams, WeightedGraph, run_engine, run_qaoa

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only
    return module


def test_span_targets_resolve():
    spans = _load_spans()
    for module_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"qmaxemu.{module_name}")
        assert callable(getattr(module, attr, None)), f"qmaxemu.{module_name}.{attr}"
    result = run_qaoa(WeightedGraph(2, ((0, 1, 1.0),)), QaoaParams(1, (0.4,), (0.2,)))
    assert spans._span_data("pipeline.run", (), result) == (2 * (4 + 19), 2 * 16, False)


def _selftest_sites() -> set[str]:
    # the literal SITES set of perfbench/selftest.py, read without running it
    tree = ast.parse((PERFBENCH / "selftest.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/selftest.py defines no SITES")


def test_benchmark_binding_sites_hold_their_span_targets():
    # each site is a module attribute the traced run must patch: it has to
    # stay bound to the function that spans.TARGETS wraps, or moving a call
    # between modules would silently drop that layer's spans
    defining = {attr: module_name for module_name, attr, _ in _load_spans().TARGETS}
    sites = _selftest_sites()
    assert sites
    for site in sorted(sites):
        _, module_name, attr = site.split(".")
        target = getattr(importlib.import_module(f"qmaxemu.{defining[attr]}"), attr)
        bound = getattr(importlib.import_module(f"qmaxemu.{module_name}"), attr, None)
        assert bound is target, site


def test_run_engine_accepts_the_benchmark_fast_keyword():
    # perfbench/work.py makes exactly this call for every f64-large request
    g = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 0.5)))
    params = QaoaParams(1, (0.4,), (0.2,))
    run = run_engine("decomposed-f64", g, params, fast=True)
    plain = run_engine("decomposed-f64", g, params)
    assert run.state.amps.tobytes() == plain.state.amps.tobytes()
