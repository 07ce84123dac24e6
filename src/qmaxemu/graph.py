"""Weighted-MaxCut instances: edge-list parsing, cut evaluation, exhaustive search.

Vertices are 1-indexed in graph files and 0-indexed everywhere else; the
conversion happens once, in :func:`parse_graph`.  A cut assignment is a string
of '0'/'1' whose position v is the subset label of vertex v, so basis-state
index l maps to the assignment via bit v = (l >> v) & 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Largest qubit count any engine or table accepts: 2**24 amplitudes.
MAX_QUBITS = 24


class GraphFormatError(ValueError):
    """Malformed graph input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class WeightedGraph:
    """A Weighted-MaxCut instance: vertex count plus undirected weighted edges.

    Edges are (i, j, weight) with 0-indexed endpoints, i != j, no duplicate
    undirected pair, and finite non-negative weights whose total, doubled,
    is finite (see _add_weight).
    """

    num_vertices: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        total = 0.0
        for i, j, w in self.edges:
            _check_edge(i, j, w, self.num_vertices, seen)
            total = _add_weight(total, w)

    @classmethod
    def _from_checked(cls, num_vertices: int,
                      edges: tuple[tuple[int, int, float], ...]) -> WeightedGraph:
        """An instance whose edges the caller has checked as __post_init__
        would (parse_graph checks each on its line): the fields are set as
        the frozen __init__ sets them, and no edge is checked again."""
        g = object.__new__(cls)
        object.__setattr__(g, "num_vertices", num_vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    @cached_property
    def cost_table(self):
        """The graph's CostDiagonal on |V| qubits, built on first read and kept
        in the instance __dict__ (not a field: ==, hash and repr ignore it);
        its entries are read-only, as every engine run shares them."""
        from .diagonals import build_cost_diagonal  # diagonals imports graph
        table = build_cost_diagonal(self, self.num_vertices)
        table.entries.flags.writeable = False
        return table


def _check_edge(i: int, j: int, w: float, num_vertices: int,
               seen: set[tuple[int, int]], base: int = 0) -> None:
    """Raise ValueError unless 0-indexed (i, j, w) is a valid new edge; record it
    in seen.  Messages name vertex v as v + base, the numbering of the input."""
    for v in (i, j):
        if not 0 <= v < num_vertices:
            raise ValueError(f"vertex {v + base} out of range "
                             f"{base}..{num_vertices - 1 + base}")
    if i == j:
        raise ValueError(f"self-loop on vertex {i + base}")
    if not math.isfinite(w):
        raise ValueError(f"non-finite weight on edge ({i + base},{j + base})")
    if w < 0:
        raise ValueError(f"negative weight {w} on edge ({i + base},{j + base})")
    key = (min(i, j), max(i, j))
    if key in seen:
        raise ValueError(f"duplicate edge ({i + base},{j + base})")
    seen.add(key)


def _add_weight(total: float, w: float) -> float:
    """total + w, the running weight total in edge order, or ValueError when
    twice it overflows float64.  The cost table adds each entry's crossed
    weights in edge order and doubles them, and rounding is monotone, so a
    finite doubled total bounds every entry, f_p and the reports' figures."""
    total += w
    if not math.isfinite(2.0 * total):
        raise ValueError(f"total weight {total:g} overflows: twice it, the cost "
                         f"table's largest entry, is past float64")
    return total


def check_qubit_count(n: int) -> None:
    """Raise ValueError unless 1 <= n <= MAX_QUBITS; call before allocating 2**n."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count {n} outside 1..{MAX_QUBITS}")


def assignment_from_index(index: int, num_vertices: int) -> str:
    """Bit string for basis-state index; position v holds vertex v's label."""
    return "".join(str((index >> v) & 1) for v in range(num_vertices))


def index_from_assignment(bits: str) -> int:
    return sum(1 << v for v, b in enumerate(bits) if b == "1")


def parse_graph(source) -> WeightedGraph:
    """Parse the edge-list format: header line |V|, then "i j w" lines.

    Lines starting with '#' and blank lines are ignored.  Vertex indices in
    the file are 1-based.  Raises GraphFormatError naming the offending line.
    Each edge is checked once, on its line, so the graph skips the check
    that direct construction makes.
    """
    text = source.read() if hasattr(source, "read") else source
    num_vertices = None
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    total = 0.0

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if num_vertices is None:
            try:
                num_vertices = int(line)
            except ValueError:
                raise GraphFormatError(line_no, f"expected vertex count, got {line!r}")
            if num_vertices < 1:
                raise GraphFormatError(line_no, "vertex count must be positive")
            continue

        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(line_no, f"expected 'i j w', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(line_no, f"bad vertex index in {line!r}")
        try:
            w = float(parts[2])
        except ValueError:
            raise GraphFormatError(line_no, f"bad weight in {line!r}")
        try:
            _check_edge(i - 1, j - 1, w, num_vertices, seen, base=1)
            total = _add_weight(total, w)
        except ValueError as exc:
            raise GraphFormatError(line_no, str(exc))
        edges.append((i - 1, j - 1, w))

    if num_vertices is None:
        raise GraphFormatError(0, "empty input: missing vertex count")
    return WeightedGraph._from_checked(num_vertices, tuple(edges))


def cut_value(g: WeightedGraph, bits: str) -> float:
    """Total weight of edges whose endpoints carry different labels."""
    if len(bits) != g.num_vertices:
        raise ValueError(f"assignment length {len(bits)} != {g.num_vertices} vertices")
    return float(sum(w for i, j, w in g.edges if bits[i] != bits[j]))


# A broadcast add whose rows are shorter than numpy's 8192-element ufunc
# buffer runs through that buffer, at about half the speed of a contiguous
# add, so the cost table adds its pattern tiles 2**13 states at a time.
_TILE_BITS = 13


def bit_planes(bits: int) -> np.ndarray:
    """planes[k, x] = bit k of x, for every x < 2**bits, as a (bits, 2**bits)
    bool array.  Built by doubling: the columns from 2**k to 2**(k+1) copy
    those below 2**k and set bit k."""
    planes = np.zeros((bits, 1 << bits), dtype=bool)
    for k in range(bits):
        h = 1 << k
        planes[:k, h:2 * h] = planes[:k, :h]
        planes[k, h:2 * h] = True
    return planes


def cut_values_all(g: WeightedGraph, n: int | None = None) -> np.ndarray:
    """Cut value of every assignment, indexed by basis state (length 2**n).

    Padding qubits beyond |V| do not touch any edge, so their bits are inert.
    A cut and its complement cross the same edges, so values[l] equals
    values[2**n - 1 - l]: only the lower half, bit n-1 clear, is summed, and
    the upper half is its reverse.

    The lower half is a stack of tiles of T = 2**t states, t = min(13, n-1),
    and each edge (lo, hi) is one in-place pass over it.  An edge with
    lo < t adds a pattern tile, w where bits lo and hi differ and 0.0
    elsewhere, with one broadcast add of contiguous rows.  When hi < t the
    tile repeats with period 2**(hi+1); when hi = n-1, whose bit is clear in
    the half, it is w where bit lo is set; otherwise bit hi lies above the
    tile and the pattern is a (2, T) pair along it: w where bit lo is set,
    for bit hi clear, and w minus that, for bit hi set.  An edge with
    lo >= t adds w in place to its two quarters, strided views of the shape
    (-1, 2, 2**(hi-lo-1), 2, 2**lo) whose runs are already 2**lo long, or,
    when hi = n-1, to the half where bit lo is set.  Beyond its output a
    call holds the tile's bit planes, one (2, T) pattern and numpy's cast
    buffer, about 300 KiB at most.

    Every entry receives the weights of its crossed edges in edge order, as
    a sum over all edges of w * (bits differ) would.  The other terms are
    zeros, which leave a partial sum unchanged since it is never -0.0, and
    w * 1.0 is w; so the table is the same to the last bit.
    """
    if n is None:
        n = g.num_vertices
    if n < g.num_vertices:
        raise ValueError(f"need n >= {g.num_vertices} qubits, got {n}")
    check_qubit_count(n)
    values = np.zeros(1 << n, dtype=np.float64)
    half = values[:1 << (n - 1)]
    t = min(_TILE_BITS, n - 1)
    tiles = half.reshape(-1, 1 << t)
    planes = bit_planes(t)
    pattern = np.empty((2, 1 << t))
    for i, j, w in g.edges:
        lo, hi = min(i, j), max(i, j)
        if lo >= t:
            if hi == n - 1:
                half.reshape(-1, 2, 1 << lo)[:, 1, :] += w
                continue
            quarters = half.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
            quarters[:, 0, :, 1, :] += w
            quarters[:, 1, :, 0, :] += w
            continue
        np.multiply(planes[lo] != planes[hi] if hi < t else planes[lo], w, out=pattern[0])
        if hi < t or hi == n - 1:
            np.add(tiles, pattern[0], out=tiles)
            continue
        np.subtract(w, pattern[0], out=pattern[1])
        pairs = half.reshape(-1, 2, 1 << (hi - t), 1 << t)
        np.add(pairs, pattern[:, None, :], out=pairs)
    values[len(half):] = half[::-1]
    return values


def brute_force_max_cut(g: WeightedGraph) -> tuple[float, list[str]]:
    """Exact maximum cut by enumeration of all 2**|V| assignments.

    Returns the maximum value and every maximizing assignment, in ascending
    index order.  It reads g.cost_table, which holds twice each cut value
    (exactly, so halving its maximum is exact) and limits it to MAX_QUBITS
    vertices.
    """
    entries = g.cost_table.entries
    best = entries.max()
    argmax = np.flatnonzero(entries == best)
    return float(best) * 0.5, [assignment_from_index(int(l), g.num_vertices) for l in argmax]
