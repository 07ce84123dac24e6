import math

import numpy as np
import pytest

from qmaxemu import (OpCounts, QaoaParams, WeightedGraph, align_global_phase,
                     build_cost_diagonal, build_mixer_exponents,
                     decomposed_run_qaoa_f64, dense_cost_unitary,
                     dense_mixer_unitary, dense_run_qaoa, fwht_inplace,
                     mixer_angles, walsh_streamed)
from qmaxemu.pipeline import hadamard_sign
from qmaxemu.reference import _MATVEC_BLOCK_ELEMS, _matvec

from conftest import random_graph, random_instance


def assert_unitary(u, atol=1e-10):
    n = u.shape[0]
    np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=atol)


def test_dense_cost_unitary_identity_at_zero(triangle):
    np.testing.assert_allclose(dense_cost_unitary(triangle, 0.0, 3), np.eye(8))


def test_dense_cost_unitary_single_edge_hand_values():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    u = dense_cost_unitary(g, math.pi / 2, 2)
    np.testing.assert_allclose(np.diag(u), [1j, -1j, -1j, 1j], atol=1e-12)


def test_dense_cost_unitary_equals_diagonal_up_to_global_phase():
    rng = np.random.default_rng(53)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 6)))
        n = g.num_vertices
        gamma = float(rng.uniform(0, math.pi))
        u = np.diag(dense_cost_unitary(g, gamma, n))
        d = np.exp(-1j * gamma * build_cost_diagonal(g, n).entries)
        # ratio must be one constant phase across all entries
        ratio = u / d
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)
        assert abs(ratio[0] - np.exp(1j * gamma * g.total_weight)) < 1e-10


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
        assert_unitary(dense_cost_unitary(g, float(rng.uniform(0, 3)), 4))
        assert_unitary(dense_mixer_unitary(float(rng.uniform(0, 3)), 4))


def test_dense_run_qaoa_uniform_at_zero(triangle):
    state = dense_run_qaoa(triangle, QaoaParams(1, (0.0,), (0.0,)))
    np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_dense_run_qaoa_norm_preserved():
    rng = np.random.default_rng(61)
    for _ in range(100):
        g, params = random_instance(rng, 2, 5, 3)
        state = dense_run_qaoa(g, params)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)


def test_dense_size_guard():
    g = WeightedGraph(13, ((0, 1, 1.0),))
    with pytest.raises(ValueError):
        dense_run_qaoa(g, QaoaParams(1, (0.1,), (0.1,)))


def test_matvec_row_blocks_equal_whole_product():
    # several row blocks plus a partial one; each row's sum must not change
    rng = np.random.default_rng(89)
    n_cols = 512
    rows = 3 * (_MATVEC_BLOCK_ELEMS // n_cols) + 7
    u = rng.normal(size=(rows, n_cols)) + 1j * rng.normal(size=(rows, n_cols))
    v = rng.normal(size=n_cols) + 1j * rng.normal(size=n_cols)
    assert _matvec(u, v).tobytes() == (u * v[np.newaxis, :]).sum(axis=1).tobytes()


def test_walsh_forms_agree():
    rng = np.random.default_rng(67)
    for n in (1, 2, 4, 6):
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        streamed = walsh_streamed(v.copy())
        butterfly = fwht_inplace(v.copy())
        np.testing.assert_allclose(streamed, butterfly, atol=1e-12)
        # both equal the sign-matrix product
        signs = np.array([[hadamard_sign(r, c) for c in range(1 << n)]
                          for r in range(1 << n)])
        np.testing.assert_allclose(butterfly, signs @ v, atol=1e-12)


def test_decomposed_matches_dense(six_vertex_graph):
    rng = np.random.default_rng(71)
    for _ in range(20):
        g, params = random_instance(rng, 2, 6, 4)
        dense = dense_run_qaoa(g, params)
        for fast in (False, True):
            dec = decomposed_run_qaoa_f64(g, params, fast=fast)
            aligned = align_global_phase(dec.amps, dense.amps)
            assert np.abs(aligned - dense.amps).max() < 1e-9


def test_decomposed_identity_at_zero(triangle):
    state = decomposed_run_qaoa_f64(triangle, QaoaParams(1, (0.0,), (0.0,)))
    np.testing.assert_allclose(state.amps, np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_decomposed_op_counts():
    g = random_graph(np.random.default_rng(73), 4)
    params = QaoaParams.from_lists([0.1, 0.2], [0.3, 0.4])
    counts = OpCounts()
    decomposed_run_qaoa_f64(g, params, counts=counts)
    assert counts.mults == 2 * 2 * 16
    assert counts.adds == 2 * 2 * 16 * 16
    fast_counts = OpCounts()
    decomposed_run_qaoa_f64(g, params, fast=True, counts=fast_counts)
    assert fast_counts.mults == counts.mults
    assert fast_counts.adds == 2 * 2 * 16 * 4


def test_dense_op_counts():
    g = random_graph(np.random.default_rng(79), 3)
    params = QaoaParams.from_lists([0.1], [0.2])
    counts = OpCounts()
    dense_run_qaoa(g, params, counts=counts)
    assert counts.mults == 2 * 64
    assert counts.adds == 2 * 8 * 7


def test_decomposed_large_run_is_fast():
    # informational bound: the butterfly form finishes a 9-qubit, 8-layer
    # evolution well under a second
    import time
    g = random_graph(np.random.default_rng(101), 9)
    params = QaoaParams.from_lists([0.1] * 8, [0.2] * 8)
    started = time.perf_counter()
    decomposed_run_qaoa_f64(g, params, fast=True)
    assert time.perf_counter() - started < 1.0


def test_align_global_phase():
    rng = np.random.default_rng(83)
    ref = rng.normal(size=8) + 1j * rng.normal(size=8)
    rotated = ref * np.exp(1j * 1.234)
    aligned = align_global_phase(rotated, ref)
    np.testing.assert_allclose(aligned, ref, atol=1e-12)
