import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxemu import (EngineRun, OpCounts, QaoaParams, StateVector, WeightedGraph,
                     brute_force_max_cut,
                     build_cost_diagonal, decomposed_run_qaoa_f64, expectation,
                     grid_search_p1, init_uniform_state, make_engine, optimize,
                     probabilities, run_qaoa)
from qmaxemu import diagonals
from qmaxemu.variational import (DOMAIN, FATOL, XATOL, OptimizationTrace, OptimizerConfig,
                                 ZeroStateError, _nelder_mead, make_objective)

from conftest import complete_graph, random_graph, random_instance


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
    grid_best = grid_search_p1(triangle, 64).best_f_p
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
    best = grid_search_p1(single_edge, 16).best_f_p
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
    trace = grid_search_p1(triangle, 16)
    best = trace.best_f_p
    assert 0.0 <= trace.best_params.beta[0] < math.pi / 2
    assert trace.evaluations == 16 * 8
    # the folded half of the lattice holds nothing better
    d = build_cost_diagonal(triangle, 3)
    lattice = [QaoaParams(1, (i * math.pi / 16,), (j * math.pi / 16,))
               for i in range(16) for j in range(8, 16)]
    upper = max(expectation(decomposed_run_qaoa_f64(triangle, params).state, d).f_p
                for params in lattice)
    assert upper <= best + 1e-12
    odd = grid_search_p1(triangle, 9)
    assert odd.best_params.beta[0] < math.pi / 2
    assert odd.evaluations == 9 * 5


@pytest.mark.parametrize("resolution", [8, 9])
def test_grid_over_an_edgeless_graph_reports_the_first_lattice_point(resolution):
    # every f_p is 0, so the first point in (i, j) order is the best; the
    # trace is the whole lattice's log, and the grid always converges
    trace = grid_search_p1(WeightedGraph(3, ()), resolution)
    assert trace.best_params == QaoaParams(1, (0.0,), (0.0,)) and trace.best_f_p == 0.0
    assert trace.evaluations == len(trace.iterations) == resolution * -(-resolution // 2)
    assert {f for _, f in trace.iterations} == {0.0} and trace.converged


def test_nelder_mead_trace_reports_the_first_maximum(single_edge):
    # a stub engine whose f_p is a step function of gamma, a quarter per
    # quarter of its range, so evaluations repeat the maximum and the
    # earliest of them is reported
    def engine(g, params):
        q = math.floor(4 * params.gamma[0] / math.pi) / 4
        amps = np.array([math.sqrt(1 - q), math.sqrt(q), 0.0, 0.0], dtype=np.complex128)
        return EngineRun(StateVector(amps=amps, scale_exp=Fraction(0), n=2), OpCounts())

    trace = optimize(single_edge, 1, engine, OptimizerConfig(restarts=4, max_evals=80), seed=3)
    f_ps = [f for _, f in trace.iterations]
    assert f_ps.count(max(f_ps)) > 1
    first = f_ps.index(max(f_ps))
    assert first > 0
    assert trace.best_params is trace.iterations[first][0]
    assert trace.best_f_p == f_ps[first] and trace.evaluations == len(f_ps)


def test_an_empty_trace_has_no_best_point():
    trace = OptimizationTrace()
    assert (trace.evaluations, trace.best_params, trace.best_f_p) == (0, None, -math.inf)


def _test_objective(kind: str, centre: np.ndarray):
    """A smooth objective, the same rounded to 2 decimals, or a step
    function whose level sets are unit cells: the last two give the simplex
    equal values, which the argsort orders."""
    def smooth(x):
        return float(np.sum((x - centre) ** 2) + 0.1 * np.sum(np.sin(3 * x)))

    if kind == "smooth":
        return smooth
    if kind == "rounded":
        return lambda x: round(smooth(x), 2)
    return lambda x: float(np.sum(np.floor(np.abs(x - centre))))


@given(n=st.integers(1, 18),
       maxfev=st.one_of(st.integers(1, 19), st.integers(20, 399)),
       kind=st.sampled_from(["smooth", "rounded", "step"]),
       tolerances=st.sampled_from([(XATOL, FATOL), (1e-2, 1e-3)]),
       seed=st.integers(0, 2**32 - 1), zeros=st.floats(0.0, 1.0))
@settings(max_examples=150, deadline=None)
def test_nelder_mead_takes_scipys_steps(n, maxfev, kind, tolerances, seed, zeros):
    # the whole evaluation log, bit for bit, and the convergence verdict
    # equal scipy's non-adaptive Nelder-Mead: at 17 and 18 parameters the
    # simplex's 18 and 19 values take numpy's unstable argsort, and a
    # budget below n + 1 ends inside the initial simplex
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-3.0, 3.0, n)
    x0[rng.random(n) < zeros] = 0.0
    centre = rng.uniform(-2.0, 2.0, n)
    objective = _test_objective(kind, centre)
    xatol, fatol = tolerances

    def logged(log):
        def fun(x):
            log.append(x.tobytes())
            return objective(x)
        return fun

    ours, theirs = [], []
    converged = _nelder_mead(logged(ours), x0, maxfev, xatol, fatol)
    res = minimize(logged(theirs), x0, method="Nelder-Mead",
                   options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    assert ours == theirs
    assert converged == bool(res.success)
    assert len(ours) <= maxfev


def test_nelder_mead_hands_each_call_a_copy():
    # an objective that writes to its argument leaves the simplex as it was
    def log_of(clobber):
        log = []

        def fun(x):
            log.append(x.tobytes())
            value = float(np.sum(x ** 2))
            if clobber:
                x[:] = 99.0
            return value

        _nelder_mead(fun, np.array([0.5, 0.0, -1.0]), 60, XATOL, FATOL)
        return log

    assert len(log_of(False)) == 60 and log_of(True) == log_of(False)


def _restart_by_restart(g, p, engine, cfg, seed):
    """optimize's trace with its restarts run one after another, each on its
    own, point by point, and each restart's evaluation count."""
    trace = OptimizationTrace()
    objective = make_objective(g, p, engine, trace)
    starts = np.random.default_rng(seed).uniform(0.0, DOMAIN, size=(cfg.restarts, 2 * p))
    counts = []
    for x0 in starts:
        before = trace.evaluations
        converged = _nelder_mead(lambda x: objective(x[None])[0], x0,
                                 max(2 * p + 2, cfg.max_evals // cfg.restarts), XATOL, FATOL)
        trace.converged = trace.converged or converged
        counts.append(trace.evaluations - before)
    return trace, counts


def _step_engine(g, params):
    # f_p is a step function of gamma, a quarter per quarter of its range
    q = math.floor(4 * params.gamma[0] / math.pi) / 4
    amps = np.array([math.sqrt(1 - q), math.sqrt(q), 0.0, 0.0], dtype=np.complex128)
    return EngineRun(StateVector(amps=amps, scale_exp=Fraction(0), n=2), OpCounts())


@pytest.mark.parametrize("case", ["pipeline-n6", "step-stub"])
def test_lockstep_restarts_log_as_restarts_run_one_by_one(case, single_edge):
    # optimize steps its restarts in lockstep, one batch per round, through
    # the pipeline's batch or point by point: its log, in restart order,
    # and converged equal those of the restarts run one after another.
    # The restarts end at different steps: at n = 6 three spend their
    # budget of 100 evaluations and two converge after 94 and 88
    if case == "pipeline-n6":
        g, p, engine = random_graph(np.random.default_rng(11), 6), 1, make_engine("pipeline")
        cfg, seed = OptimizerConfig(restarts=5, max_evals=500), 0
    else:
        g, p, engine = single_edge, 1, _step_engine
        cfg, seed = OptimizerConfig(restarts=4, max_evals=200), 3  # converge after 39 to 47
    want, counts = _restart_by_restart(g, p, lambda g, params: engine(g, params), cfg, seed)
    got = optimize(g, p, engine, cfg, seed=seed)
    assert got.iterations == want.iterations and got.converged == want.converged
    assert len(set(counts)) > 1


def test_grid_batches_its_rows_as_points(triangle):
    # each lattice row goes to the pipeline as one batch; the log is the
    # point-by-point one, in (i, j) order
    engine = make_engine("pipeline")
    batched = grid_search_p1(triangle, 9, engine)
    assert batched.iterations == grid_search_p1(triangle, 9, lambda g, q: engine(g, q)).iterations
