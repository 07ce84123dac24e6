import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from qmaxemu import cli, diagonals
from qmaxemu import graph as graph_module
from qmaxemu.cli import main

TRIANGLE = "3\n1 2 1.0\n2 3 1.0\n1 3 1.0\n"
SINGLE_EDGE = "2\n1 2 1.0\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.graph"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.graph"
    path.write_text(SINGLE_EDGE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_emulate_zero_parameters(capsys, triangle_file):
    code, out = run_cli(capsys, "emulate", "--graph", triangle_file,
                        "--gamma", "0", "--beta", "0", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == "1"
    assert report["command"] == "emulate"
    assert report["f_p"] == pytest.approx(1.5, abs=1e-6)
    assert report["graph"] == {"vertices": 3, "edges": 3, "total_weight": 3.0}
    assert report["cycles"]["total"] == 2 * (8 + 19)
    assert report["overflow"] is False
    assert report["wall_clock_s"] == 0.0  # seeded: timing suppressed


def test_emulate_engines_agree(capsys, triangle_file):
    values = {}
    for engine in ("pipeline", "dense", "decomposed-f64"):
        code, out = run_cli(capsys, "emulate", "--graph", triangle_file,
                            "--gamma", "0.7", "--beta", "0.6", "--engine", engine)
        assert code == 0
        values[engine] = json.loads(out)["f_p"]
    assert abs(values["pipeline"] - values["dense"]) <= 5e-3
    assert abs(values["decomposed-f64"] - values["dense"]) <= 1e-9


def test_emulate_missing_beta_exits_2(triangle_file):
    with pytest.raises(SystemExit) as err:
        main(["emulate", "--graph", triangle_file, "--gamma", "0.1"])
    assert err.value.code == 2


def test_emulate_bad_graph_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("2\n1 5 1.0\n")
    code = main(["emulate", "--graph", str(bad), "--gamma", "0", "--beta", "0"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_emulate_mismatched_params_exits_2(capsys, triangle_file):
    code = main(["emulate", "--graph", triangle_file,
                 "--gamma", "0.1,0.2", "--beta", "0.1"])
    assert code == 2


@pytest.mark.parametrize("engine", ["pipeline", "decomposed-f64", "dense"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_emulate_non_finite_parameter_exits_2(capsys, triangle_file, engine, value):
    # a NaN or an infinity would print invalid JSON (NaN, Infinity) and exit 0
    for gamma, beta in ((value, "0.3"), ("0.3", value)):
        code = main(["emulate", "--graph", triangle_file, "--engine", engine,
                     f"--gamma={gamma}", f"--beta={beta}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err


@pytest.mark.parametrize("argv", [
    ["emulate", "--engine", "pipeline", "--gamma", "0.1", "--beta", "0.2"],
    ["emulate", "--engine", "decomposed-f64", "--gamma", "0.1", "--beta", "0.2"],
    ["emulate", "--engine", "dense", "--gamma", "0.1", "--beta", "0.2"],
    ["solve", "--layers", "1", "--restarts", "1", "--max-evals", "8"],
    ["oracle"],
])
def test_cut_values_past_float64_exit_2(capsys, tmp_path, argv):
    # twice the total weight is the cost table's largest entry; past float64
    # it would print Infinity or NaN, which are not JSON.  bench takes no
    # graph: its complete graphs have unit weights
    path = tmp_path / "huge.graph"
    path.write_text("3\n1 2 1e308\n2 3 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([argv[0], "--graph", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "overflows" in captured.err


def test_report_json_refuses_a_non_finite_figure(capsys):
    # a NaN or infinity that reached a report would be an input error, exit
    # 2, rather than a NaN or Infinity token
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cli.emit_json({"f_p": value})
    assert capsys.readouterr().out == ""


def test_the_cli_never_imports_scipy(tmp_path):
    # the Nelder-Mead simplex is in-repo: neither emulate nor solve, nor
    # importing the CLI, loads scipy
    path = tmp_path / "tri.graph"
    path.write_text(TRIANGLE)
    script = (
        "import sys\n"
        "from qmaxemu.cli import main\n"
        f"assert main(['emulate', '--graph', {str(path)!r}, '--gamma', '0.3',"
        " '--beta', '0.2', '--seed', '1']) == 0\n"
        f"assert main(['solve', '--graph', {str(path)!r}, '--layers', '1',"
        " '--restarts', '2', '--max-evals', '40', '--seed', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_emulate_saturating_angle_prints_no_warning(capsys, triangle_file):
    # gamma * cost reaches 6e305, whose scaled image overflows float64:
    # CALCULATE_RAD saturates it with the flag, and numpy says nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["emulate", "--graph", triangle_file, "--gamma", "1e305",
                     "--beta", "0.3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["overflow"] is True


def test_emulate_gamma_past_float64_saturates_in_the_pipeline(capsys, triangle_file):
    # gamma * cost overflows float64 itself: CALCULATE_RAD still saturates
    # it with the flag, as at 1e305, and numpy says nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["emulate", "--graph", triangle_file, "--gamma", "1e308",
                     "--beta", "0.3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["overflow"] is True


@pytest.mark.parametrize("engine", ["decomposed-f64", "dense"])
def test_emulate_gamma_past_float64_is_an_input_error_in_float64(capsys, triangle_file,
                                                                 engine):
    # the float64 engines' phases would be NaN, printed as invalid JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["emulate", "--graph", triangle_file, "--engine", engine,
                     "--gamma", "1e308", "--beta", "0.3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "overflows float64" in captured.err


def test_emulate_fixed_point_flag(capsys, triangle_file):
    code, out = run_cli(capsys, "emulate", "--graph", triangle_file,
                        "--gamma", "0.3", "--beta", "0.2",
                        "--fixed-point", "q6.18")
    assert code == 0
    assert json.loads(out)["fixed_point"] == "q6.18"
    code = main(["emulate", "--graph", triangle_file, "--gamma", "0",
                 "--beta", "0", "--fixed-point", "bogus"])
    assert code == 2


def test_emulate_dump_state_and_diagonals(capsys, triangle_file, tmp_path):
    dump = tmp_path / "state.json"
    code, out = run_cli(capsys, "emulate", "--graph", triangle_file,
                        "--gamma", "0.4", "--beta", "0.3",
                        "--dump-state", str(dump), "--dump-diagonals")
    assert code == 0
    report = json.loads(out)
    assert report["cost_diagonal"] == [0.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 0.0]
    assert report["mixer_exponents"] == [-3, -1, -1, 1, -1, 1, 1, 3]
    state = json.loads(dump.read_text())
    assert state["n"] == 3
    assert len(state["amps"]) == 8


def test_emulate_trace_file(capsys, triangle_file, tmp_path):
    trace = tmp_path / "trace.jsonl"
    code, _ = run_cli(capsys, "emulate", "--graph", triangle_file,
                      "--gamma", "0.4", "--beta", "0.3", "--trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert len(lines) == 2 * (8 + 19)
    record = json.loads(lines[0])
    assert record["clock"] == 0 and record["order"] == "cost"


@pytest.mark.parametrize("engine", ["decomposed-f64", "dense"])
def test_emulate_trace_needs_the_pipeline(capsys, triangle_file, tmp_path, engine):
    # only the pipeline models clocks: the float64 engines have none to trace
    trace = tmp_path / "trace.jsonl"
    code = main(["emulate", "--graph", triangle_file, "--gamma", "0.4", "--beta", "0.3",
                 "--engine", engine, "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --trace needs the pipeline engine")
    assert not trace.exists()


@pytest.mark.parametrize("flag", ["--trace", "--dump-state"])
def test_emulate_unwritable_output_exits_2_before_the_run(capsys, monkeypatch,
                                                           triangle_file, tmp_path, flag):
    runs = []
    monkeypatch.setattr(cli, "run_engine", lambda *args, **kwargs: runs.append(args))
    code = main(["emulate", "--graph", triangle_file, "--gamma", "0.4", "--beta", "0.3",
                 flag, str(tmp_path / "missing" / "out.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not runs
    assert captured.err.startswith("error: cannot write output file")


@pytest.mark.parametrize("evals", ["0", "-3"])
def test_solve_rejects_a_non_positive_evaluation_budget(capsys, edge_file, evals):
    code = main(["solve", "--graph", edge_file, "--layers", "1", "--max-evals", evals])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need at least one evaluation\n"


@pytest.mark.parametrize("optimizer", ["nelder-mead", "grid"])
@pytest.mark.parametrize("argv,message", [
    (["--restarts", "0"], "need at least one restart"),
    (["--max-evals", "0", "--restarts", "-4"], "need at least one restart"),
    (["--max-evals", "0"], "need at least one evaluation"),
    (["--max-evals", "-3", "--restarts", "2"], "need at least one evaluation"),
])
def test_solve_rejects_a_bad_budget_with_either_optimizer(capsys, edge_file, optimizer,
                                                          argv, message):
    code = main(["solve", "--graph", edge_file, "--layers", "1", "--optimizer", optimizer,
                 *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.fixture
def table_builds(monkeypatch):
    # every cost table is summed by cut_values_all, whichever module calls it
    calls = []
    real = graph_module.cut_values_all
    spy = lambda *args: calls.append(args) or real(*args)  # noqa: E731
    monkeypatch.setattr(graph_module, "cut_values_all", spy)
    monkeypatch.setattr(diagonals, "cut_values_all", spy)
    return calls


@pytest.mark.parametrize("optimizer", ["nelder-mead", "grid"])
@pytest.mark.parametrize("engine", ["pipeline", "decomposed-f64", "dense"])
def test_solve_builds_the_cost_table_once(capsys, edge_file, table_builds, engine, optimizer):
    code, out = run_cli(capsys, "solve", "--graph", edge_file, "--layers", "1",
                        "--engine", engine, "--optimizer", optimizer, "--seed", "0",
                        "--restarts", "2", "--max-evals", "40")
    assert code == 0 and json.loads(out)["brute_force_max"] == 1.0
    assert len(table_builds) == 1


@pytest.mark.parametrize("engine", ["pipeline", "decomposed-f64", "dense"])
def test_emulate_builds_the_cost_table_once(capsys, triangle_file, table_builds, engine):
    code, _ = run_cli(capsys, "emulate", "--graph", triangle_file, "--gamma", "0.4",
                      "--beta", "0.3", "--engine", engine, "--dump-diagonals")
    assert code == 0
    assert len(table_builds) == 1


def test_oracle_and_bench_build_one_cost_table_per_graph(capsys, triangle_file,
                                                         table_builds):
    assert run_cli(capsys, "oracle", "--graph", triangle_file)[0] == 0
    assert len(table_builds) == 1
    assert run_cli(capsys, "bench", "--qubits", "2..4", "--layers", "1")[0] == 0
    assert [n for _, n in table_builds[1:]] == [2, 3, 4]


def test_strict_overflow_exits_3(capsys, tmp_path):
    k9 = tmp_path / "k9.graph"
    lines = ["9"] + [f"{i} {j} 1.0" for i in range(1, 10) for j in range(i + 1, 10)]
    k9.write_text("\n".join(lines) + "\n")
    argv = ["emulate", "--graph", str(k9), "--layers", "8",
            "--gamma", ",".join(["0.7"] * 8), "--beta", ",".join(["0.6"] * 8),
            "--strict"]
    code = main(argv)
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["overflow"] is True


def test_qubit_limit_checked_before_allocating(capsys, tmp_path):
    # n = 25 is past MAX_QUBITS: every command must exit 2 before building
    # any 2**n table (one such table is 256 MB)
    big = tmp_path / "n25.graph"
    big.write_text("25\n1 2 1.0\n")
    tracemalloc.start()
    try:
        codes = [main(["emulate", "--graph", str(big), "--gamma", "0.1", "--beta", "0.1",
                       "--engine", engine]) for engine in ("decomposed-f64", "dense")]
        codes.append(main(["solve", "--graph", str(big), "--layers", "1",
                           "--engine", "decomposed-f64", "--seed", "0"]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == [2, 2, 2]
    assert peak < 2 ** 25
    assert "qubit count 25 outside 1..24" in capsys.readouterr().err


def test_solve_single_edge(capsys, edge_file):
    code, out = run_cli(capsys, "solve", "--graph", edge_file, "--layers", "1",
                        "--engine", "decomposed-f64", "--seed", "3",
                        "--restarts", "4", "--max-evals", "400")
    assert code == 0
    report = json.loads(out)
    assert report["brute_force_max"] == 1.0
    assert report["ratio"] >= 0.99
    assert report["best_bitstring"] in ("01", "10")
    assert {"f_p", "best_cut", "evaluations", "converged"} <= set(report)


def test_solve_pipeline_report_schema(capsys, tmp_path):
    # f_p is an average, so the modal bitstring's cut may sit on either side
    # of it; the report simply carries both values
    rng_lines = ["6", "1 2 1.0", "2 3 1.0", "3 4 1.0", "4 5 1.0", "5 6 1.0",
                 "1 4 1.0", "2 6 1.0"]
    graph = tmp_path / "n6.graph"
    graph.write_text("\n".join(rng_lines) + "\n")
    code, out = run_cli(capsys, "solve", "--graph", str(graph), "--layers", "1",
                        "--engine", "pipeline", "--seed", "2",
                        "--restarts", "1", "--max-evals", "40")
    assert code == 0
    report = json.loads(out)
    assert {"f_p", "best_bitstring", "best_cut", "cycles", "brute_force_max"} <= set(report)
    assert report["engine"] == "pipeline"


def test_solve_grid_optimizer(capsys, edge_file):
    code, out = run_cli(capsys, "solve", "--graph", edge_file, "--layers", "1",
                        "--engine", "decomposed-f64", "--optimizer", "grid")
    assert code == 0
    report = json.loads(out)
    assert report["f_p"] >= 0.99
    # beta is folded into [0, pi/2): 64 gamma by 32 beta lattice points
    assert report["evaluations"] == 64 * 32 and report["converged"]
    assert 0.0 <= report["params"]["beta"][0] < math.pi / 2


@pytest.mark.parametrize("argv,evaluations", [
    (["--layers", "2"], 48),
    (["--layers", "3"], 64),
    (["--layers", "1", "--optimizer", "grid"], 64 * 32),
], ids=["p2", "p3", "grid"])
def test_solve_max_evals_is_not_a_hard_budget(capsys, edge_file, argv, evaluations):
    # each Nelder-Mead restart gets max(2p + 2, max_evals // restarts)
    # evaluations, so 8 restarts of a 10-evaluation budget run 8 (2p + 2),
    # and the grid evaluates its whole lattice whatever the budget
    code, out = run_cli(capsys, "solve", "--graph", edge_file, "--engine", "decomposed-f64",
                        "--seed", "1", "--restarts", "8", "--max-evals", "10", *argv)
    assert code == 0
    assert json.loads(out)["evaluations"] == evaluations


def test_oracle(capsys, triangle_file):
    code, out = run_cli(capsys, "oracle", "--graph", triangle_file)
    assert code == 0
    report = json.loads(out)
    assert report["max_cut"] == 2.0
    assert report["maximizer_count"] == 6
    assert "000" not in report["maximizers"]


def test_bench_cycle_columns(capsys):
    code, out = run_cli(capsys, "bench", "--qubits", "2..5", "--layers", "2",
                        "--engine", "pipeline,dense", "--seed", "0")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    pipeline = {r["n"]: r for r in rows if r["engine"] == "pipeline"}
    dense = {r["n"]: r for r in rows if r["engine"] == "dense"}
    for n in range(2, 6):
        n_states = 1 << n
        assert pipeline[n]["cycles_total"] == 2 * 2 * (n_states + 19)
        assert pipeline[n]["mults"] == 2 * 2 * n_states
        assert dense[n]["mults"] == 2 * 2 * n_states * n_states
        assert dense[n]["mults"] // pipeline[n]["mults"] == n_states


def test_bench_csv_format(capsys):
    code, out = run_cli(capsys, "bench", "--qubits", "3", "--layers", "1",
                        "--engine", "pipeline", "--format", "csv", "--seed", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,engine,layers")
    assert lines[1].split(",")[0] == "3"


def test_bench_rejects_an_engine_named_twice(capsys):
    code = main(["bench", "--qubits", "2..3", "--layers", "1",
                 "--engine", "pipeline,pipeline"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "twice" in captured.err


def test_bench_skips_dense_beyond_guard(capsys):
    # an engine that raises is skipped without failing the bench: q4.4
    # cannot store the 9-qubit start amplitude 2**-5
    code, out = run_cli(capsys, "bench", "--qubits", "9", "--fixed-point", "q4.4",
                        "--layers", "1", "--engine", "pipeline", "--seed", "0")
    assert code == 0
    assert out.strip() == ""


def test_bench_reports_a_skipped_engine_at_the_default_log_level():
    # q4.8 cannot store the 17-qubit start amplitude 2**-9: the pipeline row
    # is skipped, and with QMAX_LOG unset the reason still reaches stderr
    env = {k: v for k, v in os.environ.items() if k != "QMAX_LOG"}
    result = subprocess.run(
        [sys.executable, "-m", "qmaxemu", "bench", "--qubits", "17..17", "--layers", "1",
         "--fixed-point", "q4.8", "--engine", "pipeline,decomposed-f64", "--seed", "1",
         "--format", "csv"], capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "skipping pipeline at n=17" in result.stderr and "2**-9" in result.stderr
    rows = result.stdout.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [["17", "decomposed-f64"]]


def test_bench_row_at_beta_half_pi_fold(capsys):
    # at q4.4 some of this row's angles fold one ulp past half_pi, which the
    # CORDIC accepts, so the row is printed
    code, out = run_cli(capsys, "bench", "--qubits", "8", "--fixed-point", "q4.4",
                        "--layers", "1", "--engine", "pipeline", "--seed", "0")
    assert code == 0
    assert [json.loads(line)["n"] for line in out.splitlines()] == [8]


@pytest.mark.parametrize("fmt", ["q12.20", "q6.10"])
def test_emulate_beta_half_pi(capsys, tmp_path, fmt):
    path = tmp_path / "path3.graph"
    path.write_text("3\n1 2 1.0\n2 3 1.0\n")
    code, out = run_cli(capsys, "emulate", "--graph", str(path), "--gamma", "0.3",
                        "--beta", "1.5707963267948966", "--fixed-point", fmt)
    assert code == 0
    assert json.loads(out)["fixed_point"] == fmt


def test_report_json_roundtrip(capsys, triangle_file):
    _, out = run_cli(capsys, "emulate", "--graph", triangle_file,
                     "--gamma", "0.7", "--beta", "0.6", "--seed", "5")
    parsed = json.loads(out)
    assert json.dumps(parsed) == out.strip()


def _solve_bytes(triangle_file, threads):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    result = subprocess.run(
        [sys.executable, "-m", "qmaxemu", "solve", "--graph", triangle_file,
         "--layers", "1", "--seed", "7", "--restarts", "2", "--max-evals", "80"],
        capture_output=True, env=env, check=True)
    return result.stdout


def test_seeded_output_is_byte_identical(triangle_file):
    runs = [_solve_bytes(triangle_file, threads) for threads in (1, 1, 4)]
    assert runs[0] == runs[1] == runs[2]


FIVE_VERTEX = "5\n1 2 1.0\n2 3 0.5\n3 4 1.5\n4 5 1.0\n1 5 0.75\n1 3 0.25\n"
K9 = "9\n" + "".join(f"{i} {j} 1.0\n" for i in range(1, 10) for j in range(i + 1, 10))
SIX_VERTEX = "6\n1 2 1.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n1 4 1.0\n2 6 1.0\n"
EIGHT_VERTEX = ("8\n"
                "1 2 1.0\n1 3 0.5\n1 5 2.0\n2 3 1.5\n2 4 0.75\n"
                "2 7 1.25\n3 6 1.0\n4 5 2.5\n4 8 0.5\n5 6 1.75\n"
                "5 8 1.0\n6 7 0.25\n7 8 1.5\n3 8 2.0\n")


# sha256 of the seeded stdout of small runs of all three engines: any change
# to the fixed-point datapath, the float64 engines' printed values, the
# counters or the report layout shows here.
@pytest.mark.parametrize("graph,argv,digest", [
    (FIVE_VERTEX, ["emulate", "--layers", "2", "--gamma", "0.4,0.2",
                   "--beta", "0.3,0.7", "--seed", "1"],
     "628f4d48d7f64a254ae7c1baa3fb238bd61d0c913d9f358633b4a4a228228beb"),
    (K9, ["emulate", "--layers", "8", "--gamma", ",".join(["0.7"] * 8),
          "--beta", ",".join(["0.6"] * 8), "--seed", "0"],  # saturates
     "b6da1481d68af901a6463c30385b2799a9d125c2575ff602595c134fbdbeb134"),
    (None, ["bench", "--qubits", "2..8", "--layers", "2", "--engine", "pipeline",
            "--seed", "0"],
     "6af07dc2858bc204f87d21833127014159fd915462e901a5a5e9db7db0219c24"),
    (SIX_VERTEX, ["solve", "--layers", "1", "--seed", "7", "--restarts", "2",
                  "--max-evals", "80"],
     "26e462a6a74e241d45b01586898ec2d48bb83caeff5db745951ad3c688d487aa"),
    (FIVE_VERTEX, ["emulate", "--engine", "decomposed-f64", "--layers", "2",
                   "--gamma", "0.4,0.2", "--beta", "0.3,0.7", "--seed", "1"],
     "fc85fa453ade94d3b1e24cbf2c4557add76875064bd225a68a63ed97e87078c1"),
    (None, ["bench", "--qubits", "2..10", "--layers", "2", "--engine", "decomposed-f64",
            "--seed", "0"],
     "15a182e749e61e7e93f6a5d9e8ff69a39abbfebdf98c2459c3419e3d77b01931"),
    (FIVE_VERTEX, ["emulate", "--engine", "dense", "--layers", "2",
                   "--gamma", "0.4,0.2", "--beta", "0.3,0.7", "--seed", "1"],
     "b9ea9661573877be64f44bcb006ec86fd546f93f926ebc1994f7ab1caa99d68c"),
    (None, ["bench", "--qubits", "2..12", "--layers", "2", "--engine", "dense",
            "--seed", "0"],
     "1c4c2977300d360ce85fcd931ab1d1989978e2b303861bbc09285d36bcab268b"),
    (SIX_VERTEX, ["solve", "--layers", "1", "--engine", "decomposed-f64",
                  "--optimizer", "grid", "--seed", "7"],
     "5b6d4eb3f5ce042ae526634cdb6f0e1879a758ae65af4ee077725075ce5022eb"),
    (SIX_VERTEX, ["solve", "--layers", "1", "--engine", "dense",
                  "--optimizer", "grid", "--seed", "7"],
     "1c6ce271c5660c43157ca2a2f2fd231d66a70a733bdeab5de2916972711cad56"),
    (SIX_VERTEX, ["solve", "--layers", "1", "--engine", "dense", "--seed", "7",
                  "--restarts", "2", "--max-evals", "80"],
     "ac6ea585f7a1b5af3e77b76df4c05473b25d2c669e254c0a31049b0bdeef4a5f"),
    # p = 2 at n = 8 in q7.25: most mixer passes fail the sector's sum of
    # |w| check, some take the full-N N_ADD, and some saturate
    (EIGHT_VERTEX, ["solve", "--layers", "2", "--seed", "3", "--restarts", "2",
                    "--max-evals", "60"],
     "5b1b52daad31235cca4058e2b8183aaa75ab8c7ff0202f38af758169c76824cc"),
], ids=["emulate-n5", "emulate-k9-saturating", "bench-2-8", "solve-p1",
        "emulate-n5-f64", "bench-2-10-f64", "emulate-n5-dense", "bench-2-12-dense",
        "solve-grid-f64", "solve-grid-dense", "solve-p1-dense", "solve-p2-n8"])
def test_seeded_stdout_digest(capsys, tmp_path, graph, argv, digest):
    if graph is not None:
        path = tmp_path / "g.graph"
        path.write_text(graph)
        argv = argv[:1] + ["--graph", str(path)] + argv[1:]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_main_reuses_one_parser_across_commands(capsys, triangle_file, tmp_path):
    # main() builds its parser on the first call and keeps it; alternating
    # commands through the kept parser must match calls on a fresh one
    bad = tmp_path / "bad.graph"
    bad.write_text("3\n1 2\n")
    argvs = [
        ["emulate", "--graph", triangle_file, "--gamma", "0.4", "--beta", "0.3",
         "--seed", "1"],
        ["solve", "--graph", triangle_file, "--layers", "1", "--seed", "7",
         "--restarts", "1", "--max-evals", "40"],
        ["bench", "--qubits", "2..4", "--layers", "1", "--seed", "0"],
        ["emulate", "--graph", triangle_file, "--gamma", "0.1"],  # argparse: exit 2
        ["emulate", "--graph", str(bad), "--gamma", "0", "--beta", "0"],  # input: exit 2
        ["oracle", "--graph", triangle_file, "--seed", "0"],
    ]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    reused = [call(argv) for argv in argvs + argvs]
    assert cli._parser() is cli._parser()
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 2, 0]
    assert reused == fresh + fresh
