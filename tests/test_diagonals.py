import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qmaxemu import (QaoaParams, WeightedGraph, assignment_from_index, build_cost_diagonal,
                     build_mixer_exponents, cost_angles, cost_half_angles, cut_value,
                     cut_values_all, decomposed_run_qaoa_f64, diagonals, mixer_angles,
                     mixer_level_angles, mixer_table, run_qaoa)
from qmaxemu.graph import MAX_QUBITS

from conftest import random_graph


def test_single_edge_cost_diagonal():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    d = build_cost_diagonal(g, 2)
    assert d.entries.tolist() == [0.0, 2.0, 2.0, 0.0]


def test_triangle_cost_diagonal(triangle):
    d = build_cost_diagonal(triangle, 3)
    assert d.entries.tolist() == [0.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 0.0]


def test_empty_edge_set():
    g = WeightedGraph(3, ())
    assert not build_cost_diagonal(g, 3).entries.any()


def test_cost_diagonal_requires_enough_qubits(triangle):
    with pytest.raises(ValueError):
        build_cost_diagonal(triangle, 2)


def test_cost_diagonal_is_twice_cut_value():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 8)))
        n = g.num_vertices
        d = build_cost_diagonal(g, n)
        for l in range(1 << n):
            assert d.entries[l] == pytest.approx(
                2.0 * cut_value(g, assignment_from_index(l, n)), rel=1e-13)


def test_cost_diagonal_symmetries():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = random_graph(rng, 6)
        d = build_cost_diagonal(g, 6)
        n_states = 1 << 6
        assert d.entries[0] == 0.0 and d.entries[n_states - 1] == 0.0
        assert (d.entries >= 0.0).all()
        flipped = d.entries[::-1]  # index complement reverses the table
        np.testing.assert_allclose(d.entries, flipped, rtol=1e-13)


def test_mixer_exponents_small_cases():
    assert build_mixer_exponents(2).u.tolist() == [-2, 0, 0, 2]
    assert build_mixer_exponents(1).u.tolist() == [-1, 1]
    assert build_mixer_exponents(3).u[5] == 1  # popcount(101b)=2 -> 2*2-3


def test_mixer_exponents_structure():
    for n in range(1, 11):
        u = build_mixer_exponents(n).u
        assert u[0] == -n and u[-1] == n
        assert int(u.sum()) == 0
        assert set((u + n) % 2) == {0}
        # multiplicity of each exponent level follows binomial counts
        for k in range(n + 1):
            assert int(np.sum(u == 2 * k - n)) == math.comb(n, k)


def test_cost_angles():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    d = build_cost_diagonal(g, 2)
    assert cost_angles(d, 0.0).tolist() == [0.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(cost_angles(d, math.pi / 4),
                               [0.0, -math.pi / 2, -math.pi / 2, 0.0])
    angles = cost_angles(d, 0.37)
    np.testing.assert_allclose(angles, angles[::-1])


def test_mixer_angles():
    m = build_mixer_exponents(2)
    assert mixer_angles(m, 0.0).tolist() == [0.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(mixer_angles(m, math.pi / 2),
                               [-math.pi, 0.0, 0.0, math.pi])
    m3 = build_mixer_exponents(3)
    assert mixer_angles(m3, 0.3)[5] == pytest.approx(0.3)


def test_mixer_diagonal_matches_kronecker_power():
    # explicit tensor power of the 2x2 eigenvalue pair
    for n in range(1, 7):
        beta = 0.4321
        lam = np.array([np.exp(-1j * beta), np.exp(1j * beta)])
        expected = lam
        for _ in range(n - 1):
            expected = np.kron(expected, lam)
        got = np.exp(1j * mixer_angles(build_mixer_exponents(n), beta))
        np.testing.assert_allclose(got, expected, atol=1e-12)


def _cut_values_strided(g, n):
    # the table as it was summed before its pattern tiles: per edge, w added
    # in place to two strided quarter views of the lower half, or to the half
    # where bit lo is set when hi = n-1, and the upper half its reverse
    values = np.zeros(1 << n, dtype=np.float64)
    half = values[:1 << (n - 1)]
    for i, j, w in g.edges:
        lo, hi = min(i, j), max(i, j)
        if hi == n - 1:
            half.reshape(-1, 2, 1 << lo)[:, 1, :] += w
            continue
        quarters = half.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
        quarters[:, 0, :, 1, :] += w
        quarters[:, 1, :, 0, :] += w
    values[len(half):] = half[::-1]
    return values


def _cut_values_per_edge(g, n):
    # the table as one full-length masked add per edge: the oracle the
    # strided quarter-view adds must match to the last bit
    idx = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n, dtype=np.float64)
    for i, j, w in g.edges:
        values += w * (((idx >> i) ^ (idx >> j)) & 1)
    return values


# weights whose zero terms and products a pattern tile must keep exact: both
# zeros, a value near the bottom of the normal range and a large one
_EDGE_CASE_WEIGHTS = (0.0, -0.0, 1e-300, 1e3)


@pytest.mark.parametrize("n", range(1, 17))
def test_cut_values_all_matches_per_edge_oracle_bytewise(n):
    # against both oracles: the full masked add per edge, and the strided
    # quarter views the table was summed with before its pattern tiles
    rng = np.random.default_rng(100 + n)
    for pad in (0, 1, 2, 5):
        v = n - pad
        if v < 1:
            continue
        for density in (0.0, 0.3, 0.5, 1.0):
            pairs = [(i, j) for i in range(v) for j in range(i + 1, v)
                     if rng.random() < density]
            # non-dyadic weights and edge-case ones, and half the edges
            # given high endpoint first, in a shuffled order
            weights = [float(rng.choice(_EDGE_CASE_WEIGHTS)) if rng.random() < 0.4
                       else float(rng.uniform(0.1, 3.0)) for _ in pairs]
            edges = [(j, i, w) if rng.random() < 0.5 else (i, j, w)
                     for (i, j), w in zip(pairs, weights)]
            rng.shuffle(edges)
            g = WeightedGraph(v, tuple(edges))
            got = cut_values_all(g, n)
            assert got.tobytes() == _cut_values_per_edge(g, n).tobytes()
            assert got.tobytes() == _cut_values_strided(g, n).tobytes()
            # the complement symmetry the engines' expansion relies on, exactly
            entries = build_cost_diagonal(g, n).entries
            assert entries.tobytes() == entries[::-1].tobytes()


def test_cut_values_all_holds_little_beyond_its_output_at_twenty_qubits():
    rng = np.random.default_rng(7)
    edges = tuple((i, j, float(rng.uniform(0.2, 1.0)))
                  for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.3)
    g = WeightedGraph(20, edges)
    tracemalloc.start()
    try:
        cut_values_all(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float64 output is 8 MB; the bit planes, pattern tile and cast
    # buffer about 300 KiB
    assert peak <= 8 * 2 ** 20 + 512 * 2 ** 10


def test_mixer_table_builds_each_qubit_count_once(monkeypatch):
    # the accessor caches every n it has seen: a sweep over n = 2..12 has
    # to rebuild nothing on its second pass, nor when the engines run
    built = []

    def spy(n):
        built.append(n)
        return build_mixer_exponents(n)

    monkeypatch.setattr(diagonals, "build_mixer_exponents", spy)
    mixer_table.cache_clear()
    try:
        tables = {n: mixer_table(n) for n in range(2, 13)}
        for n in range(2, 13):
            assert mixer_table(n) is tables[n] and tables[n].n == n
        assert built == list(range(2, 13))
        g = WeightedGraph(5, ((0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)))
        params = QaoaParams(1, (0.4,), (0.3,))
        run_qaoa(g, params)
        decomposed_run_qaoa_f64(g, params)
        assert built == list(range(2, 13))
    finally:
        mixer_table.cache_clear()  # no table built through the spy outlives it


def test_mixer_table_is_read_only_and_equals_a_fresh_build():
    for n in (1, 5, 12):
        m, fresh = mixer_table(n), build_mixer_exponents(n)
        assert not m.popcount.flags.writeable
        with pytest.raises(ValueError):
            m.popcount[0] = 1
        assert m.popcount.tobytes() == fresh.popcount.tobytes()
        u = m.u  # a fresh array: writing to it leaves the table as it is
        u[0] = 99
        assert m.u.tobytes() == fresh.u.tobytes() and m.u.dtype == np.int64


def test_mixer_table_rejects_bad_qubit_counts_before_allocating():
    cached = mixer_table.cache_info().currsize
    tracemalloc.start()
    try:
        for n in (0, MAX_QUBITS + 1, MAX_QUBITS + 1):
            with pytest.raises(ValueError):
                mixer_table(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one n = 25 popcount table alone is 32 MB
    assert mixer_table.cache_info().currsize == cached


def test_mixer_exponents_match_popcount_up_to_twenty_qubits():
    # popcount(l) does not depend on n, so each table is a prefix of n = 20's
    popcounts = np.array([bin(l).count("1") for l in range(1 << 20)])
    for n in range(1, 21):
        m = build_mixer_exponents(n)
        np.testing.assert_array_equal(m.popcount, popcounts[:1 << n])
        np.testing.assert_array_equal(m.u, 2 * popcounts[:1 << n] - n)
        assert m.u.dtype == np.int64


def test_mixer_level_angles_gather_to_mixer_angles_bitwise():
    for n in (1, 2, 5, 9):
        m = build_mixer_exponents(n)
        for beta in (0.0, 0.3, 1.1, math.pi / 2, 3.0):
            levels = mixer_level_angles(m, beta)
            assert levels.shape == (n + 1,)
            assert levels[m.popcount].tobytes() == mixer_angles(m, beta).tobytes()
            # the float64 engine's phases: exp on n + 1 angles, then the gather
            assert (m.expand(np.exp(1j * levels)).tobytes()
                    == np.exp(1j * mixer_angles(m, beta)).tobytes())


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13])
def test_cost_half_angles_mirror_to_cost_angles_bitwise(n):
    rng = np.random.default_rng(300 + n)
    g = random_graph(rng, n, weight_range=(0.1, 3.0)) if n > 1 else WeightedGraph(1, ())
    d = build_cost_diagonal(g, n)
    for gamma in (0.0, 0.37, 1.9, 11.0):
        half = cost_half_angles(d, gamma)
        assert half.shape == (1 << (n - 1),)
        assert d.expand(half).tobytes() == cost_angles(d, gamma).tobytes()
        # the float64 engine's phases: exp on N/2 angles, then the mirror
        assert (d.expand(np.exp(1j * half)).tobytes()
                == np.exp(1j * cost_angles(d, gamma)).tobytes())


def test_sector_table_holds_the_even_popcount_state_of_each_pair():
    for n in (1, 2, 5, 10):
        m = mixer_table(n)
        assert mixer_table(n).odd is m.odd and m.sector_level is m.sector_level
        assert not m.sector_level.flags.writeable and not m.odd.flags.writeable
        half = 1 << (n - 1)
        state = np.arange(half) + half * m.odd.astype(np.int64)
        assert (m.popcount[state] % 2 == 0).all()
        assert (m.sector_level == m.popcount[state]).all()
        levels = np.arange(n + 1) * 10
        assert (m.sector_expand(levels) == m.expand(levels)[state]).all()


def test_angles_past_float64_saturate_without_a_warning():
    triangle = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
    d, m = build_cost_diagonal(triangle, 3), build_mixer_exponents(3)
    top = np.finfo(np.float64).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cost_half_angles(d, 1e308).tolist() == [0.0, -top, -top, -top]
        assert mixer_level_angles(m, 1e308).tolist() == [-top, -1e308, 1e308, top]
        # a product that fits is float64's own
        assert cost_half_angles(d, 1e307).tobytes() == (-1e307 * d.entries[:4]).tobytes()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_angles_of_a_parameter_array_are_each_parameters_own(n):
    # row b of a call over B parameters, and of either table's expand over
    # (B, K) values, is the call on parameter b alone, to the byte.  A row
    # at 1e308 saturates beside finite rows, with no warning, and leaves
    # them unclipped
    rng = np.random.default_rng(400 + n)
    g = random_graph(rng, n, weight_range=(0.1, 3.0)) if n > 1 else WeightedGraph(1, ())
    d, m = build_cost_diagonal(g, n), mixer_table(n)
    params = np.array([0.0, 0.37, -1.9, 1e308, 11.0, 1e-300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for table, angles in ((d, cost_half_angles), (m, mixer_level_angles)):
            rows = angles(table, params)
            assert rows.shape == (len(params), angles(table, 0.5).size)
            expanded = table.expand(rows)
            assert expanded.shape == (len(params), 1 << n)
            for row, param, wide in zip(rows, params, expanded):
                alone = angles(table, float(param))
                assert row.tobytes() == alone.tobytes()
                assert wide.tobytes() == table.expand(alone).tobytes()
            finite = params != 1e308
            assert np.isfinite(rows).all()
            assert rows[finite].tobytes() == np.multiply.outer(
                params[finite], angles(table, 1.0)).tobytes()
