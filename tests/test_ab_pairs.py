"""tools/ab_pairs.py compares two checkouts' benchmark runs; here its runs
are stubbed, so no benchmark starts."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

AB_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "evals_per_s", "better": "higher", "bound": 0.25}]}


@pytest.fixture
def ab_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib only
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return module


def stub_runs(ab_pairs, monkeypatch, values, failed=None):
    """Each side's runs return values[side] in turn; the run numbered
    failed (counting both sides, from 0) reports one failed operation."""
    runs = []

    def run_once(checkout, workload, seed, seconds):
        wall, evals = values[checkout.name][sum(r == checkout.name for r in runs)]
        runs.append(checkout.name)
        return {"failed": int(len(runs) - 1 == failed), "attempted": 10,
                "metrics": {"wall_s": {"value": wall}, "evals_per_s": {"value": evals}}}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return runs


def run_main(ab_pairs, capsys) -> tuple[int, dict[str, str]]:
    status = ab_pairs.main(["parent", "change", "--workload", "w", "--seed", "1",
                            "--seconds", "1", "--pairs", "4"])
    lines = capsys.readouterr().out.splitlines()
    return status, {line.split()[0]: line for line in lines if "within bound" in line}


def test_reports_each_median_against_its_bound(ab_pairs, monkeypatch, capsys):
    # wall_s 1.0 -> 1.2 is 20% worse, within 0.25; evals_per_s 100 -> 70 is
    # 30% worse, past it
    stub_runs(ab_pairs, monkeypatch, {"parent": [(1.0, 100.0)] * 4,
                                      "change": [(1.2, 70.0)] * 4})
    status, rows = run_main(ab_pairs, capsys)
    assert status == 0
    assert rows["wall_s"].endswith("within bound 0.25: yes")
    assert rows["evals_per_s"].endswith("within bound 0.25: no")


def test_a_spread_wider_than_the_bound_is_unresolved(ab_pairs, monkeypatch, capsys):
    # the parent's wall_s quartiles are 1.0 and 1.5 about a median of 1.25,
    # an interquartile range of 40% of it, past the 0.25 bound: the same
    # change median is unresolved, and so is one that looks 60% worse.
    # evals_per_s beats every parent run with every change run, so the same
    # spread is resolved: within the bound
    parent = [(1.0, 100.0), (1.0, 100.0), (1.5, 150.0), (1.5, 150.0)]
    for wall in (1.25, 2.0):
        stub_runs(ab_pairs, monkeypatch, {"parent": parent, "change": [(wall, 151.0)] * 4})
        status, rows = run_main(ab_pairs, capsys)
        assert status == 0
        assert rows["wall_s"].endswith("within bound 0.25: unresolved")
        assert rows["evals_per_s"].endswith("within bound 0.25: yes")


def test_a_failed_run_stops_the_comparison(ab_pairs, monkeypatch, capsys):
    runs = stub_runs(ab_pairs, monkeypatch, {"parent": [(1.0, 100.0)] * 4,
                                             "change": [(1.0, 100.0)] * 4}, failed=3)
    status, rows = run_main(ab_pairs, capsys)
    assert status == 1 and len(runs) == 4 and not rows



@pytest.mark.parametrize("returncode,stdout", [(1, ""), (0, "# host {}\nno result\n"), (0, "")],
                         ids=["run_failed", "output_malformed", "no_output"])
def test_an_unreadable_run_is_reported(ab_pairs, monkeypatch, capsys, returncode, stdout):
    # the parent's first run exits non-zero or prints no JSON result: the
    # tool names the pair, the side and the exit code, prints the end of
    # the run's stderr, and exits 1 without running the change
    calls = []
    stderr = "".join(f"line {k}\n" for k in range(30)) + "Traceback: boom\n"

    def run(cmd, **kwargs):
        calls.append(kwargs["cwd"].name)
        return subprocess.CompletedProcess(cmd, returncode, stdout, stderr)

    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    status = ab_pairs.main(["parent", "change", "--workload", "w", "--seed", "1",
                            "--seconds", "1", "--pairs", "4"])
    out = capsys.readouterr().out
    assert status == 1 and calls == ["parent"]
    assert out.startswith(f"pair 0 parent: exit code {returncode}, no result read")
    assert out.endswith("line 29\nTraceback: boom\n") and "line 20\n" not in out
