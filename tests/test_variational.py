import math
from fractions import Fraction

import numpy as np
import pytest

from qmaxemu import (QaoaParams, StateVector, brute_force_max_cut,
                     build_cost_diagonal, decomposed_run_qaoa_f64, expectation,
                     grid_search_p1, init_uniform_state, make_engine, optimize,
                     probabilities, run_qaoa)
from qmaxemu import diagonals
from qmaxemu.variational import OptimizationTrace, OptimizerConfig, ZeroStateError

from conftest import complete_graph, random_instance


def test_probabilities_uniform_and_basis(triangle):
    state = init_uniform_state(3)
    np.testing.assert_allclose(probabilities(state), [1 / 8] * 8)
    amps = np.zeros(8, dtype=np.complex128)
    amps[5] = 0.25
    basis = StateVector(amps=amps, scale_exp=Fraction(0), n=3)
    np.testing.assert_allclose(probabilities(basis), np.eye(8)[5])


def test_probabilities_scale_invariant():
    rng = np.random.default_rng(89)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    a = StateVector(amps=amps, scale_exp=Fraction(0), n=3)
    b = StateVector(amps=2.0 * amps, scale_exp=Fraction(-1), n=3)
    np.testing.assert_allclose(probabilities(a), probabilities(b))


def test_probabilities_zero_state_rejected():
    state = StateVector(amps=np.zeros(4, dtype=np.complex128),
                        scale_exp=Fraction(0), n=2)
    with pytest.raises(ZeroStateError):
        probabilities(state)


def test_expectation_uniform_triangle(triangle):
    d = build_cost_diagonal(triangle, 3)
    result = expectation(init_uniform_state(3), d)
    assert result.f_p == 1.5  # mean cut over 8 bitstrings = 12/8, exactly
    assert result.probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_expectation_basis_state(triangle):
    d = build_cost_diagonal(triangle, 3)
    amps = np.zeros(8, dtype=np.complex128)
    amps[1] = 1.0  # bitstring 100
    result = expectation(StateVector(amps=amps, scale_exp=Fraction(0), n=3), d)
    assert result.f_p == 2.0
    assert result.best_bitstring == "100"
    assert result.best_cut == 2.0


def one_ulp_apart_state(low, high):
    """A 3-qubit state whose probability at `high` is one ulp above that at
    `low`: adjacent amplitudes there, the rest equal."""
    amps = np.full(8, 0.25, dtype=np.complex128)
    amps[low] = 0.5664
    amps[high] = np.nextafter(0.5664, 1.0)
    state = StateVector(amps=amps, scale_exp=Fraction(0), n=3)
    probs = probabilities(state)
    assert probs[high] == np.nextafter(probs[low], 1.0)
    return state


def test_expectation_reports_the_lower_member_of_a_complement_pair(triangle):
    # 100 (index 1) and its complement 011 (index 6) tie in exact arithmetic;
    # whichever one rounding favours, the pair is reported by its lower index
    d = build_cost_diagonal(triangle, 3)
    for low, high in ((1, 6), (6, 1)):
        result = expectation(one_ulp_apart_state(low, high), d)
        assert int(np.argmax(result.probs)) == high
        assert result.best_bitstring == "100"
        assert result.best_cut == 2.0
    # the pair sums decide, not the members: 6 dominates, so pair (1, 6)
    # beats pair (2, 5) although p[2] > p[1]
    amps = np.zeros(8, dtype=np.complex128)
    amps[[1, 2, 6]] = 0.1, 0.5, 0.9
    result = expectation(StateVector(amps=amps, scale_exp=Fraction(0), n=3), d)
    assert result.best_bitstring == "100"


def test_f_p_at_zero_parameters_is_half_total_weight():
    rng = np.random.default_rng(97)
    for _ in range(20):
        g, _ = random_instance(rng, 2, 6, 1)
        d = build_cost_diagonal(g, g.num_vertices)
        params = QaoaParams(1, (0.0,), (0.0,))
        f_p = expectation(decomposed_run_qaoa_f64(g, params).state, d).f_p
        assert f_p == pytest.approx(0.5 * g.total_weight, abs=1e-12)


def test_f_p_at_zero_parameters_exact_for_unit_weights(triangle):
    d = build_cost_diagonal(triangle, 3)
    state, _ = decomposed_run_qaoa_f64(triangle, QaoaParams(1, (0.0,), (0.0,)))
    f_p = expectation(state, d).f_p
    assert f_p == 0.5 * triangle.total_weight  # dyadic weights: bit-exact


def test_f_p_bounded_by_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(50):
        g, params = random_instance(rng, 2, 6, 4)
        d = build_cost_diagonal(g, g.num_vertices)
        best, _ = brute_force_max_cut(g)
        f_p = expectation(decomposed_run_qaoa_f64(g, params).state, d).f_p
        assert 0.0 <= f_p <= best + 1e-9


def test_optimize_single_edge_reaches_optimum(single_edge):
    trace = optimize(single_edge, 1, decomposed_run_qaoa_f64,
                     OptimizerConfig(restarts=4, max_evals=600), seed=5)
    assert trace.best_f_p >= 0.99  # depth-1 solves a single edge exactly
    assert trace.evaluations == len(trace.iterations)
    assert trace.best_f_p == max(f for _, f in trace.iterations)


def test_optimize_triangle_matches_grid_oracle(triangle):
    gamma, beta, grid_best = grid_search_p1(triangle, 64)
    trace = optimize(triangle, 1, decomposed_run_qaoa_f64,
                     OptimizerConfig(restarts=4, max_evals=600), seed=7)
    assert abs(trace.best_f_p - grid_best) <= 1e-2
    assert trace.best_f_p >= grid_best - 1e-2


def test_optimize_trace_is_deterministic(triangle):
    cfg = OptimizerConfig(restarts=2, max_evals=120)
    a = optimize(triangle, 1, decomposed_run_qaoa_f64, cfg, seed=9)
    b = optimize(triangle, 1, decomposed_run_qaoa_f64, cfg, seed=9)
    assert a.best_f_p == b.best_f_p
    assert a.best_params == b.best_params
    assert [f for _, f in a.iterations] == [f for _, f in b.iterations]


def test_optimize_best_is_running_maximum(single_edge):
    trace = optimize(single_edge, 1, decomposed_run_qaoa_f64,
                     OptimizerConfig(restarts=3, max_evals=150), seed=11)
    running = -math.inf
    for _, f in trace.iterations:
        running = max(running, f)
    assert trace.best_f_p == running


def test_grid_search_values(single_edge):
    gamma, beta, best = grid_search_p1(single_edge, 16)
    # the zero lattice point must evaluate to the mean cut
    d = build_cost_diagonal(single_edge, 2)
    state, _ = decomposed_run_qaoa_f64(single_edge, QaoaParams(1, (0.0,), (0.0,)))
    zero = expectation(state, d).f_p
    assert zero == pytest.approx(0.5 * single_edge.total_weight)
    assert best >= zero
    with pytest.raises(ValueError):
        grid_search_p1(single_edge, 4)


def test_engine_agreement_on_best_value(triangle):
    cfg = OptimizerConfig(restarts=2, max_evals=200)
    f64 = optimize(triangle, 1, decomposed_run_qaoa_f64, cfg, seed=13)
    pipe = optimize(triangle, 1, make_engine("pipeline"), cfg, seed=13)
    assert abs(f64.best_f_p - pipe.best_f_p) <= 5e-3


def test_pipeline_expectation_consistency(triangle):
    params = QaoaParams(1, (0.7,), (0.6,))
    d = build_cost_diagonal(triangle, 3)
    state, _ = run_qaoa(triangle, params)
    got = expectation(state, d)
    ref = expectation(decomposed_run_qaoa_f64(triangle, params).state, d)
    assert abs(got.f_p - ref.f_p) <= 5e-3


@pytest.mark.parametrize("name", ["pipeline", "decomposed-f64"])
def test_optimize_builds_the_cost_table_once(monkeypatch, name):
    # the graph keeps its table: the objective's expectation and the engine
    # read the same one
    calls = []
    real = diagonals.cut_values_all
    monkeypatch.setattr(diagonals, "cut_values_all",
                        lambda *args: calls.append(args) or real(*args))
    trace = optimize(complete_graph(5), 2, make_engine(name),
                     OptimizerConfig(restarts=4, max_evals=400), seed=3)
    assert trace.evaluations >= 200
    assert len(calls) == 1


@pytest.mark.parametrize("cfg", [OptimizerConfig(max_evals=0), OptimizerConfig(max_evals=-5),
                                 OptimizerConfig(restarts=0)])
def test_optimize_rejects_an_empty_budget(single_edge, cfg):
    calls = []
    with pytest.raises(ValueError):
        optimize(single_edge, 1, lambda g, params: calls.append(params), cfg)
    assert not calls


def test_grid_search_folds_beta_below_half_pi(triangle):
    # beta and beta + pi/2 tie at p = 1; the triangle's optimum has both
    # on the 16-point lattice, and only the lower one is evaluated
    trace = OptimizationTrace()
    gamma, beta, best = grid_search_p1(triangle, 16, trace=trace)
    assert 0.0 <= beta < math.pi / 2
    assert trace.evaluations == 16 * 8
    assert (gamma, beta, best) == (trace.best_params.gamma[0], trace.best_params.beta[0],
                                   trace.best_f_p)
    # the folded half of the lattice holds nothing better
    d = build_cost_diagonal(triangle, 3)
    lattice = [QaoaParams(1, (i * math.pi / 16,), (j * math.pi / 16,))
               for i in range(16) for j in range(8, 16)]
    upper = max(expectation(decomposed_run_qaoa_f64(triangle, params).state, d).f_p
                for params in lattice)
    assert upper <= best + 1e-12
    odd = OptimizationTrace()
    assert grid_search_p1(triangle, 9, trace=odd)[1] < math.pi / 2
    assert odd.evaluations == 9 * 5
