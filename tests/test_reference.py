import math
import tracemalloc

import numpy as np
import pytest

from qmaxemu import (ENGINE_NAMES, EngineRun, QaoaParams, WeightedGraph, align_global_phase,
                     build_cost_diagonal, build_mixer_exponents, cost_angles,
                     decomposed_run_qaoa_f64, dense_cost_unitary,
                     dense_mixer_unitary, dense_run_qaoa, fwht_inplace,
                     mixer_angles, mixer_table, run_engine, walsh_streamed)
from qmaxemu import pipeline, reference
from qmaxemu.pipeline import hadamard_sign
from qmaxemu.reference import _apply_mixer

from conftest import complete_graph, random_graph, random_instance


def assert_unitary(u, atol=1e-10):
    n = u.shape[0]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=atol)


def test_dense_cost_unitary_identity_at_zero(triangle):
    np.testing.assert_allclose(np.diag(dense_cost_unitary(triangle, 0.0)), np.eye(8))


def test_dense_cost_unitary_single_edge_hand_values():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    u = np.diag(dense_cost_unitary(g, math.pi / 2))
    np.testing.assert_allclose(np.diag(u), [1j, -1j, -1j, 1j], atol=1e-12)


def test_dense_cost_unitary_equals_diagonal_up_to_global_phase():
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 6)))
        n = g.num_vertices
        gamma = float(rng.uniform(0, math.pi))
        u = np.diag(np.diag(dense_cost_unitary(g, gamma)))
        d = np.exp(-1j * gamma * build_cost_diagonal(g, n).entries)
        # ratio must be one constant phase across all entries
        ratio = u / d
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)
        assert abs(ratio[0] - np.exp(1j * gamma * g.total_weight)) < 1e-10


def _dense_cost_unitary_where(g, gamma):
    # the gate product as it was built before the bit planes: each gate's
    # factor selected by index arithmetic, multiplied in as diag * factor
    idx = np.arange(1 << g.num_vertices, dtype=np.int64)
    diag = np.ones(len(idx), dtype=np.complex128)
    for i, j, w in g.edges:
        theta = -2.0 * w * gamma
        differ = ((idx >> i) ^ (idx >> j)) & 1
        diag = diag * np.where(differ, np.exp(0.5j * theta), np.exp(-0.5j * theta))
    return diag


def _reversed_random_graph(rng, n):
    # a random graph with half its edges given high endpoint first
    g = random_graph(rng, n, edge_prob=float(rng.uniform(0.2, 1.0)), weight_range=(0.1, 3.0))
    return WeightedGraph(n, tuple((j, i, w) if rng.random() < 0.5 else (i, j, w)
                                  for i, j, w in g.edges))


@pytest.mark.parametrize("n", range(2, 14))
def test_dense_cost_unitary_equals_the_index_arithmetic_product_bytewise(n):
    # below 2**14 states numpy multiplies diag * factor in that order, so the
    # old product and the in-place one round alike
    rng = np.random.default_rng(400 + n)
    for _ in range(3):
        g = _reversed_random_graph(rng, n)
        gamma = float(rng.uniform(-3.0, 3.0))
        assert dense_cost_unitary(g, gamma).tobytes() == _dense_cost_unitary_where(g, gamma).tobytes()


@pytest.mark.parametrize("n", [2, 5, 9, 12, 13])
def test_dense_run_qaoa_equals_the_index_arithmetic_run_bytewise(n, monkeypatch):
    rng = np.random.default_rng(500 + n)
    g = _reversed_random_graph(rng, n)
    params = QaoaParams.from_lists(list(rng.uniform(-2, 2, 2)), list(rng.uniform(-2, 2, 2)))
    got = dense_run_qaoa(g, params).state.amps.tobytes()
    monkeypatch.setattr(reference, "dense_cost_unitary", _dense_cost_unitary_where)
    assert got == dense_run_qaoa(g, params).state.amps.tobytes()


def test_dense_cost_unitary_is_a_left_fold_at_fourteen_qubits():
    # from 2**14 states numpy would elide diag * np.where(...)'s temporary and
    # compute where * diag, which an FMA complex multiply rounds differently:
    # the product is pinned to np.multiply(diag, factor, out=diag)
    rng = np.random.default_rng(14)
    for g in (complete_graph(14), _reversed_random_graph(rng, 14)):
        gamma = float(rng.uniform(0.1, 3.0))
        idx = np.arange(1 << 14, dtype=np.int64)
        diag = np.ones(1 << 14, dtype=np.complex128)
        for i, j, w in g.edges:
            theta = -2.0 * w * gamma
            factor = np.where(((idx >> i) ^ (idx >> j)) & 1,
                              np.exp(0.5j * theta), np.exp(-0.5j * theta))
            np.multiply(diag, factor, out=diag)
        assert dense_cost_unitary(g, gamma).tobytes() == diag.tobytes()


def test_dense_mixer_unitary_values():
    np.testing.assert_allclose(dense_mixer_unitary(0.0, 3), np.eye(8), atol=1e-15)
    u = dense_mixer_unitary(math.pi / 2, 1)
    np.testing.assert_allclose(u, [[0, -1j], [-1j, 0]], atol=1e-12)


def test_mixer_tensor_power_matches_hadamard_conjugated_diagonal():
    # the Kronecker power equals H x ... x H times the exponent diagonal
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    for n in range(1, 6):
        beta = 0.618
        hn = h
        for _ in range(n - 1):
            hn = np.kron(hn, h)
        d = np.diag(np.exp(1j * mixer_angles(build_mixer_exponents(n), beta)))
        np.testing.assert_allclose(dense_mixer_unitary(beta, n), hn @ d @ hn,
                                   atol=1e-12)


def test_dense_unitaries_are_unitary():
    rng = np.random.default_rng(59)
    for _ in range(5):
        g = random_graph(rng, 4)
        assert_unitary(np.diag(dense_cost_unitary(g, float(rng.uniform(0, 3)))))
        assert_unitary(dense_mixer_unitary(float(rng.uniform(0, 3)), 4))


def test_dense_run_qaoa_uniform_at_zero(triangle):
    state, _ = dense_run_qaoa(triangle, QaoaParams(1, (0.0,), (0.0,)))
    np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_dense_run_qaoa_norm_preserved():
    rng = np.random.default_rng(61)
    for _ in range(100):
        g, params = random_instance(rng, 2, 5, 3)
        state, _ = dense_run_qaoa(g, params)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_dense_size_guard():
    # the engines share one limit, MAX_QUBITS = 24
    g = WeightedGraph(25, ((0, 1, 1.0),))
    with pytest.raises(ValueError, match="qubit count 25 outside 1..24"):
        dense_run_qaoa(g, QaoaParams(1, (0.1,), (0.1,)))


def test_per_qubit_mixer_equals_kronecker_power():
    rng = np.random.default_rng(89)
    for n in range(1, 9):
        beta = float(rng.uniform(0, math.pi))
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        want = dense_mixer_unitary(beta, n) @ v
        np.testing.assert_allclose(_apply_mixer(v, beta), want, rtol=0, atol=1e-13)


def test_dense_builds_no_full_matrix():
    # one 4096 x 4096 complex matrix is 256 MB; the state itself is 64 kB
    params = QaoaParams.from_lists([0.2, 0.3], [0.4, 0.5])
    tracemalloc.start()
    try:
        dense_run_qaoa(complete_graph(12), params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_walsh_forms_agree():
    # walsh_streamed is the stream-order definition; fwht_inplace, which the
    # decomposed-f64 engine runs, must match it in place, at odd and even n
    # and at the sizes the CLI runs
    rng = np.random.default_rng(67)
    for n in (0, 1, 2, 3, 4, 5, 6, 8, 9, 10):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        streamed = walsh_streamed(v.copy())
        butterfly = v.copy()
        assert fwht_inplace(butterfly) is butterfly
        assert np.abs(butterfly - streamed).max() <= 1e-12 * np.abs(streamed).max()
        if n <= 6:  # both equal the sign-matrix product
            signs = np.array([[hadamard_sign(r, c) for c in range(1 << n)]
                              for r in range(1 << n)])
            np.testing.assert_allclose(butterfly, signs @ v, atol=1e-12)


def test_fwht_inplace_needs_one_scratch_vector():
    # a driver that copies array halves at each level peaks near 1.13 x
    v = np.ones(1 << 16, dtype=np.complex128)  # 1 MB
    tracemalloc.start()
    try:
        fwht_inplace(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * v.nbytes


def test_fwht_inplace_scratch_is_one_block():
    # the butterfly's scratch is one block long, whatever N is
    v = np.ones(1 << 18, dtype=np.complex128)  # 4 MB
    scratch = pipeline.BLOCK_BYTES // 2  # a block and its scratch share BLOCK_BYTES
    assert scratch <= v.nbytes // 8
    tracemalloc.start()
    try:
        fwht_inplace(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * scratch


def _decomposed_on_all_n_angles(g, params):
    # the float64 dataflow with exp taken on all N angles of both passes:
    # the oracle for decomposed_run_qaoa_f64, which takes it on the distinct ones
    n = g.num_vertices
    d, m = build_cost_diagonal(g, n), build_mixer_exponents(n)
    v = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=np.complex128)
    for k in range(params.p):
        for angles in (cost_angles(d, params.gamma[k]), mixer_angles(m, params.beta[k])):
            v = fwht_inplace(np.exp(1j * angles) * v)
        v *= 1.0 / (1 << n)
    return v


def test_decomposed_matches_all_n_angle_phases_bytewise():
    rng = np.random.default_rng(79)
    for n in range(1, 15):
        for _ in range(2):
            g = (random_graph(rng, n, weight_range=(0.1, 3.0)) if n > 1
                 else WeightedGraph(1, ()))
            p = int(rng.integers(1, 4))
            params = QaoaParams.from_lists(rng.uniform(0.0, 2.0, p),
                                           rng.uniform(0.0, math.pi, p))
            got = decomposed_run_qaoa_f64(g, params).state.amps
            assert got.tobytes() == _decomposed_on_all_n_angles(g, params).tobytes()


def test_decomposed_holds_at_most_three_state_vectors():
    # the phase array takes the product in place and the old state is
    # dropped before each butterfly; multiplying into a new array peaked at 4,
    # and keeping the N/2 cost angles alive through expand at 2.75
    n = 16
    g = random_graph(np.random.default_rng(89), n, edge_prob=0.3)
    g.cost_table  # prebuilt: the graph keeps it
    mixer_table(n)  # prebuilt, as the cost table is
    params = QaoaParams.from_lists([0.3, 0.1], [0.5, 0.7])
    tracemalloc.start()
    try:
        decomposed_run_qaoa_f64(g, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.55 * 16 * (1 << n)


def test_decomposed_matches_dense(six_vertex_graph):
    rng = np.random.default_rng(71)
    for _ in range(20):
        g, params = random_instance(rng, 2, 6, 4)
        dense = dense_run_qaoa(g, params).state
        dec = decomposed_run_qaoa_f64(g, params).state
        aligned = align_global_phase(dec.amps, dense.amps)
        assert np.abs(aligned - dense.amps).max() < 1e-9


def test_dense_matches_decomposed_beyond_twelve_qubits():
    g = random_graph(np.random.default_rng(97), 14, edge_prob=0.3)
    params = QaoaParams.from_lists([0.15, 0.35], [0.4, 0.25])
    dense = dense_run_qaoa(g, params).state
    dec = decomposed_run_qaoa_f64(g, params).state
    aligned = align_global_phase(dec.amps, dense.amps)
    assert np.abs(aligned - dense.amps).max() < 1e-12


def test_decomposed_identity_at_zero(triangle):
    state, _ = decomposed_run_qaoa_f64(triangle, QaoaParams(1, (0.0,), (0.0,)))
    np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


@pytest.mark.parametrize("name", ENGINE_NAMES)
@pytest.mark.parametrize("n,p", [(3, 1), (4, 2)])
def test_engine_op_counts(name, n, p):
    # every engine returns an EngineRun, which unpacks as state, counts.  The
    # butterfly computes decomposed-f64's transform, but its counts are the
    # modelled dataflow's, the same as the pipeline's; only the pipeline
    # models clocks
    g = random_graph(np.random.default_rng(73), n)
    params = QaoaParams.from_lists([0.1] * p, [0.3] * p)
    run = run_engine(name, g, params)
    assert isinstance(run, EngineRun)
    state, counts = run
    assert state is run.state and counts is run.counts
    assert state.n == n
    big_n = 1 << n
    want = {"pipeline": (2 * p * big_n, 2 * p * big_n ** 2, [big_n + 19] * (2 * p)),
            "decomposed-f64": (2 * p * big_n, 2 * p * big_n ** 2, []),
            "dense": (2 * p * big_n ** 2, 2 * p * big_n * (big_n - 1), [])}[name]
    assert (counts.mults, counts.adds, counts.cycles_per_op) == want


@pytest.mark.parametrize("name", ["decomposed-f64", "dense"])
def test_float_engines_reject_a_trace_writer(triangle, name):
    records = []
    with pytest.raises(ValueError, match="models no clocks"):
        run_engine(name, triangle, QaoaParams(1, (0.4,), (0.3,)), trace_writer=records.append)
    assert not records


def test_decomposed_large_run_is_fast():
    # informational bound: the butterfly form finishes a 9-qubit, 8-layer
    # evolution well under a second
    import time
    g = random_graph(np.random.default_rng(101), 9)
    params = QaoaParams.from_lists([0.1] * 8, [0.2] * 8)
    started = time.perf_counter()
    decomposed_run_qaoa_f64(g, params)
    assert time.perf_counter() - started < 1.0


def test_align_global_phase():
    rng = np.random.default_rng(83)
    ref = rng.normal(size=8) + 1j * rng.normal(size=8)
    rotated = ref * np.exp(1j * 1.234)
    aligned = align_global_phase(rotated, ref)
    np.testing.assert_allclose(aligned, ref, atol=1e-12)
