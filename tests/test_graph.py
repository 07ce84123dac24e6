import io

import numpy as np
import pytest

from qmaxemu import (WeightedGraph, assignment_from_index, brute_force_max_cut,
                     cut_value, cut_values_all, index_from_assignment, parse_graph)
from qmaxemu import graph as graph_module
from qmaxemu.graph import GraphFormatError, bit_planes

from conftest import random_graph


def test_parse_triangle():
    g = parse_graph("3\n1 2 1.0\n2 3 1.0\n1 3 1.0")
    assert g.num_vertices == 3
    assert g.num_edges == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))


def test_parse_single_edge_and_stream():
    g = parse_graph(io.StringIO("2\n1 2 0.5"))
    assert g.num_vertices == 2
    assert g.edges == ((0, 1, 0.5),)


def test_parse_comments_and_blanks():
    text = "# header comment\n\n3\n# an edge\n1 2 1.0\n\n2 3 2.5\n"
    g = parse_graph(text)
    assert g.num_edges == 2
    assert g.total_weight == 3.5


@pytest.mark.parametrize("text,fragment", [
    ("2\n1 3 1.0", "out of range"),
    ("2\n1 2 1.0\n2 1 2.0", "duplicate"),
    ("2\n1 2", "expected"),
    ("2\n1 2 nan", "non-finite"),
    ("2\n1 2 -1.0", "negative"),
    ("2\n1 1 1.0", "self-loop"),
    ("x\n1 2 1.0", "vertex count"),
    ("", "missing vertex count"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("edge,parsed,direct", [
    ("1 3 1.0", "line 2: vertex 3 out of range 1..2", "vertex 2 out of range 0..1"),
    ("0 2 1.0", "line 2: vertex 0 out of range 1..2", "vertex -1 out of range 0..1"),
    ("2 2 1.0", "line 2: self-loop on vertex 2", "self-loop on vertex 1"),
    ("1 2 inf", "line 2: non-finite weight on edge (1,2)", "non-finite weight on edge (0,1)"),
    ("2 1 -0.5", "line 2: negative weight -0.5 on edge (2,1)",
     "negative weight -0.5 on edge (1,0)"),
])
def test_an_edge_error_names_the_numbering_of_its_input(edge, parsed, direct):
    # parse_graph names 1-based vertices and the line; direct construction
    # names the 0-based vertices it was given
    with pytest.raises(GraphFormatError) as err:
        parse_graph(f"2\n{edge}")
    assert str(err.value) == parsed
    i, j, w = edge.split()
    with pytest.raises(ValueError) as err:
        WeightedGraph(2, ((int(i) - 1, int(j) - 1, float(w)),))
    assert str(err.value) == direct


def test_duplicate_edge_errors_name_the_second_occurrence():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("3\n1 2 1.0\n2 3 1.0\n2 1 2.0")
    assert str(err.value) == "line 4: duplicate edge (2,1)"
    with pytest.raises(ValueError) as err:
        WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (1, 0, 2.0)))
    assert str(err.value) == "duplicate edge (1,0)"


def test_a_parsed_graph_checks_each_edge_once(monkeypatch):
    calls = []
    real = graph_module._check_edge

    def spy(*args, **kwargs):
        calls.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_module, "_check_edge", spy)
    g = parse_graph("4\n1 2 1.0\n2 3 2.0\n3 4 1.0\n1 4 1.0\n")
    assert calls == [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 1.0)]
    assert g == WeightedGraph(4, g.edges)  # the direct construction checks them again
    assert len(calls) == 8


def test_parse_error_names_line_number():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("# c\n3\n1 2 1.0\n1 5 1.0")
    assert err.value.line_no == 4


def test_a_weight_total_past_half_of_float64_is_rejected():
    # the cost table doubles each cut value: the doubled total bounds every
    # entry, and the check names the edge that takes it past float64
    quarter = float(np.finfo(np.float64).max) / 4
    assert parse_graph(f"3\n1 2 {quarter!r}\n2 3 {quarter!r}").total_weight == 2 * quarter
    with pytest.raises(GraphFormatError, match="overflows") as err:
        parse_graph("3\n1 2 1e307\n2 3 5e307\n1 3 5e307")
    assert err.value.line_no == 4
    with pytest.raises(ValueError, match="overflows"):
        WeightedGraph(2, ((0, 1, 1e308),))


def test_cut_value_triangle(triangle):
    assert cut_value(triangle, "000") == 0.0
    assert cut_value(triangle, "100") == 2.0
    assert cut_value(triangle, "111") == 0.0
    with pytest.raises(ValueError):
        cut_value(triangle, "0101")


def test_cut_value_six_vertex_optimum(six_vertex_graph):
    best, maximizers = brute_force_max_cut(six_vertex_graph)
    for bits in maximizers:
        assert cut_value(six_vertex_graph, bits) == best
    # enumeration really is the maximum
    n = six_vertex_graph.num_vertices
    for l in range(1 << n):
        assert cut_value(six_vertex_graph, assignment_from_index(l, n)) <= best


def test_brute_force_triangle(triangle):
    best, maximizers = brute_force_max_cut(triangle)
    assert best == 2.0
    assert len(maximizers) == 6
    assert "000" not in maximizers and "111" not in maximizers


def test_brute_force_single_edge():
    g = WeightedGraph(2, ((0, 1, 0.5),))
    best, maximizers = brute_force_max_cut(g)
    assert best == 0.5
    assert sorted(maximizers) == ["01", "10"]


def test_brute_force_matches_reversed_enumeration():
    # independent oracle: enumerate assignments in descending index order
    g = random_graph(np.random.default_rng(42), 6)
    best, maximizers = brute_force_max_cut(g)
    oracle_best = -1.0
    oracle_argmax = []
    for l in range((1 << g.num_vertices) - 1, -1, -1):
        v = cut_value(g, assignment_from_index(l, g.num_vertices))
        if v > oracle_best:
            oracle_best, oracle_argmax = v, [l]
        elif v == oracle_best:
            oracle_argmax.append(l)
    assert best == oracle_best
    assert [index_from_assignment(b) for b in maximizers] == sorted(oracle_argmax)


def test_brute_force_size_guard():
    g = WeightedGraph(25, ())
    with pytest.raises(ValueError):
        brute_force_max_cut(g)


def test_cut_complement_symmetry_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 8)))
        n = g.num_vertices
        l = int(rng.integers(0, 1 << n))
        bits = assignment_from_index(l, n)
        flipped = "".join("1" if b == "0" else "0" for b in bits)
        assert cut_value(g, bits) == pytest.approx(cut_value(g, flipped))
        assert 0.0 <= cut_value(g, bits) <= g.total_weight


def test_brute_force_dominates_random_assignments():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = random_graph(rng, 6)
        best, _ = brute_force_max_cut(g)
        for _ in range(20):
            bits = assignment_from_index(int(rng.integers(0, 64)), 6)
            assert cut_value(g, bits) <= best + 1e-12


def test_mean_cut_is_half_total_weight():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 8)))
        values = cut_values_all(g)
        assert values.mean() == pytest.approx(0.5 * g.total_weight, rel=1e-12)


def test_cost_table_is_built_once_read_only_and_outside_equality():
    g, twin = (WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.5))) for _ in range(2))
    table = g.cost_table
    assert g.cost_table is table
    assert table.n == 3
    assert table.entries.tobytes() == (2.0 * cut_values_all(g)).tobytes()
    with pytest.raises(ValueError):
        table.entries[0] = 1.0
    assert "cost_table" not in vars(twin)
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)


def test_bit_planes_hold_each_bit_of_each_index():
    for bits in range(11):
        x = np.arange(1 << bits)
        want = (x >> np.arange(bits)[:, None]) & 1 == 1
        planes = bit_planes(bits)
        assert planes.dtype == bool and planes.flags.c_contiguous
        np.testing.assert_array_equal(planes, want)


def test_assignment_index_roundtrip():
    for l in range(32):
        assert index_from_assignment(assignment_from_index(l, 5)) == l
