"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines as they complete.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qmaxemu import (QaoaParams, align_global_phase, brute_force_max_cut,
                     build_cost_diagonal, build_mixer_exponents,
                     decomposed_run_qaoa_f64, dense_run_qaoa, expectation,
                     grid_search_p1, mixer_angles, optimize, probabilities,
                     run_qaoa)
from qmaxemu import fxp
from qmaxemu.fxp import FxFormat
from qmaxemu.pipeline import PIPELINE_LATENCY
from qmaxemu.variational import OptimizerConfig

from conftest import (complete_graph, path_graph, random_graph,
                      random_instance, seeded_instances)

ACCEPT_SEED = 0x5EED


def _announce(number: int, name: str):
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def small_instances():
    return seeded_instances(ACCEPT_SEED, count=50, n_lo=2, n_hi=6, p_hi=4)


@pytest.fixture(scope="module")
def full_instances():
    return seeded_instances(ACCEPT_SEED, count=50, n_lo=2, n_hi=9, p_hi=8)


def test_criterion_1_decomposition_correctness(small_instances):
    started = time.perf_counter()
    for g, params in small_instances:
        dense = dense_run_qaoa(g, params).state
        dec = decomposed_run_qaoa_f64(g, params).state
        aligned = align_global_phase(dec.amps, dense.amps)
        assert np.abs(aligned - dense.amps).max() <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f} s"
    _announce(1, "decomposition correctness")


def test_criterion_2_fixed_point_fidelity(full_instances):
    started = time.perf_counter()
    assert FxFormat().name == "q7.25"
    for g, params in full_instances:
        state, report = run_qaoa(g, params)
        assert not report.overflow
        ref = decomposed_run_qaoa_f64(g, params).state
        tv = 0.5 * np.abs(probabilities(state) - probabilities(ref)).sum()
        assert tv <= 1e-3
        d = build_cost_diagonal(g, g.num_vertices)
        assert abs(expectation(state, d).f_p - expectation(ref, d).f_p) <= 5e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f} s"
    _announce(2, "fixed-point fidelity")


def test_criterion_3_cycle_law():
    p = 2
    for n in range(1, 10):
        g = path_graph(n) if n > 1 else complete_graph(1)
        params = QaoaParams.from_lists([0.1] * p, [0.2] * p)
        _, report = run_qaoa(g, params)
        n_states = 1 << n
        assert report.cycles_per_op == [n_states + 19] * (2 * p)
        assert report.cycles_total == 2 * p * (n_states + 19)
    assert PIPELINE_LATENCY == 19
    _announce(3, "cycle law")


def test_criterion_4_complexity_gap():
    p = 2
    for n in range(2, 10):
        g = complete_graph(n)
        params = QaoaParams.from_lists([0.1] * p, [0.2] * p)
        _, report = run_qaoa(g, params)
        n_states = 1 << n
        assert report.mults == 2 * p * n_states
        _, counts = dense_run_qaoa(g, params)
        assert counts.mults == 2 * p * n_states * n_states
        assert counts.mults // report.mults == n_states
        assert counts.mults % report.mults == 0
    _announce(4, "complexity gap")


def test_criterion_5_execution_time_trend():
    p = 8
    times = {}
    dense_mults = {}
    for n in range(2, 10):
        g = complete_graph(n)
        params = QaoaParams.from_lists([0.2] * p, [0.4] * p)
        _, report = run_qaoa(g, params)
        n_states = 1 << n
        # the derived time is an affine function of N = 2**n (linear trend)
        assert report.cycles_total == 2 * p * (n_states + 19)
        times[n] = report.derived_seconds()
        dense_mults[n] = 2 * p * n_states * n_states  # grows as N**2
    assert times[9] <= 0.34e-3  # below the measured end-to-end time at n=9
    for n in range(2, 9):
        assert dense_mults[n + 1] == 4 * dense_mults[n]
    _announce(5, "execution-time trend")


def test_criterion_6_closed_form_diagonals():
    rng = np.random.default_rng(ACCEPT_SEED + 6)
    from qmaxemu.graph import cut_values_all
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 9)))
        n = g.num_vertices
        d = build_cost_diagonal(g, n)
        np.testing.assert_array_equal(d.entries, 2.0 * cut_values_all(g, n))
    for n in range(1, 7):
        u = build_mixer_exponents(n).u
        idx = np.arange(1 << n)
        popcounts = np.array([bin(i).count("1") for i in idx])
        assert (u == 2 * popcounts - n).all()
        beta = 0.7349
        lam = np.array([np.exp(-1j * beta), np.exp(1j * beta)])
        kron = lam
        for _ in range(n - 1):
            kron = np.kron(kron, lam)
        np.testing.assert_allclose(np.exp(1j * mixer_angles(build_mixer_exponents(n), beta)),
                                   kron, atol=1e-12)
    _announce(6, "closed-form diagonals")


def test_criterion_7_cordic_accuracy():
    fmt = FxFormat()
    rng = np.random.default_rng(ACCEPT_SEED + 7)

    thetas = rng.uniform(0.0, 2.0 * math.pi, 100_000)
    raw = fxp.vec_from_real(thetas, fmt)
    cos_raw, sin_raw = fxp.vec_sincos(raw, fmt)
    cos_err = np.abs(fxp.vec_to_float(cos_raw, fmt) - np.cos(thetas)).max()
    sin_err = np.abs(fxp.vec_to_float(sin_raw, fmt) - np.sin(thetas)).max()
    assert max(cos_err, sin_err) <= 2.0 ** -12

    half_pi_raw = fxp._trig_constants(fmt)[2]
    q1 = rng.integers(0, half_pi_raw + 1, 100_000)
    cos_raw, sin_raw = fxp.vec_cordic_sincos(q1, fmt)
    angles = q1 * fmt.ulp
    cos_err = np.abs(fxp.vec_to_float(cos_raw, fmt) - np.cos(angles)).max()
    sin_err = np.abs(fxp.vec_to_float(sin_raw, fmt) - np.sin(angles)).max()
    assert max(cos_err, sin_err) <= 2.0 ** -14
    _announce(7, "CORDIC accuracy")


def test_criterion_8_variational_sanity():
    def f64(g, params):
        return decomposed_run_qaoa_f64(g, params).state

    # F_p(0,0) = half the total weight: bit-exact for dyadic weights, and at
    # float rounding (1e-12) for arbitrary real weights
    zero = QaoaParams(1, (0.0,), (0.0,))
    for g in (complete_graph(3), complete_graph(4), path_graph(5)):
        d = build_cost_diagonal(g, g.num_vertices)
        assert expectation(f64(g, zero), d).f_p == 0.5 * g.total_weight
    rng = np.random.default_rng(ACCEPT_SEED + 8)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 7)))
        d = build_cost_diagonal(g, g.num_vertices)
        f_p = expectation(f64(g, zero), d).f_p
        assert f_p == pytest.approx(0.5 * g.total_weight, abs=1e-12)

    # optimized p=1 against the 64x64 grid oracle
    cfg = OptimizerConfig(restarts=6, max_evals=900)
    for g in (complete_graph(2), complete_graph(3)):
        _, _, grid_best = grid_search_p1(g, 64)
        trace = optimize(g, 1, decomposed_run_qaoa_f64, cfg, seed=ACCEPT_SEED)
        assert abs(trace.best_f_p - grid_best) <= 1e-2

    # expectation never exceeds the brute-force maximum
    for _ in range(200):
        g, params = random_instance(rng, 2, 6, 4)
        d = build_cost_diagonal(g, g.num_vertices)
        best, _ = brute_force_max_cut(g)
        assert expectation(f64(g, params), d).f_p <= best + 1e-9
    _announce(8, "variational sanity")


def test_criterion_9_cli_determinism(tmp_path):
    graph = tmp_path / "t.graph"
    graph.write_text("3\n1 2 1.0\n2 3 1.0\n1 3 1.0\n")

    def run(threads, argv):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = str(threads)
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        return subprocess.run([sys.executable, "-m", "qmaxemu", *argv],
                              capture_output=True, env=env, check=True).stdout

    solve_argv = ["solve", "--graph", str(graph), "--layers", "1", "--seed", "7",
                  "--restarts", "2", "--max-evals", "80"]
    emulate_argv = ["emulate", "--graph", str(graph), "--gamma", "0.7",
                    "--beta", "0.6", "--seed", "11"]
    for argv in (solve_argv, emulate_argv):
        outputs = [run(1, argv), run(1, argv), run(4, argv)]
        assert outputs[0] == outputs[1] == outputs[2]
        json.loads(outputs[0])  # stdout is a single parseable report
    _announce(9, "CLI determinism")
