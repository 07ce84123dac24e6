"""Shared instances and generators for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qmaxemu import QaoaParams, WeightedGraph, fxp, run_qaoa
from qmaxemu.pipeline import hadamard_sign_column

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and a failure prints the blob that reproduces it
settings.register_profile("ci", derandomize=True, print_blob=True)

# CLI tests start `python -m qmaxemu` in a subprocess; point it at the same
# source tree as this process, which pytest's `pythonpath` setting only adds
# to sys.path.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def triangle() -> WeightedGraph:
    return WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))


@pytest.fixture
def single_edge() -> WeightedGraph:
    return WeightedGraph(2, ((0, 1, 1.0),))


def complete_graph(n: int, weight: float = 1.0) -> WeightedGraph:
    return WeightedGraph(n, tuple((i, j, weight)
                                  for i in range(n) for j in range(i + 1, n)))


def path_graph(n: int) -> WeightedGraph:
    return WeightedGraph(n, tuple((i, i + 1, 1.0) for i in range(n - 1)))


# A fixed 6-vertex, 11-edge unit-weight instance used across tests.
SIX_VERTEX_EDGES = (
    (0, 1, 1.0), (0, 2, 1.0), (0, 4, 1.0), (1, 2, 1.0), (1, 3, 1.0),
    (1, 5, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0), (3, 5, 1.0),
    (4, 5, 1.0),
)


@pytest.fixture
def six_vertex_graph() -> WeightedGraph:
    return WeightedGraph(6, SIX_VERTEX_EDGES)


def random_graph(rng: np.random.Generator, n: int,
                 edge_prob: float = 0.6,
                 weight_range: tuple[float, float] = (0.2, 1.0)) -> WeightedGraph:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [pq for pq in pairs if rng.random() < edge_prob] or [pairs[0]]
    lo, hi = weight_range
    return WeightedGraph(n, tuple((i, j, float(rng.uniform(lo, hi)))
                                  for i, j in keep))


def random_instance(rng: np.random.Generator, n_lo: int, n_hi: int,
                    p_hi: int) -> tuple[WeightedGraph, QaoaParams]:
    """One random (graph, params) sample with modest cost phases."""
    n = int(rng.integers(n_lo, n_hi + 1))
    g = random_graph(rng, n)
    p = int(rng.integers(1, p_hi + 1))
    max_entry = 2.0 * g.total_weight
    gamma_hi = min(np.pi, 24.0 / max_entry)
    return g, QaoaParams.from_lists(rng.uniform(0.0, gamma_hi, p),
                                    rng.uniform(0.0, np.pi, p))


def seeded_instances(seed: int, count: int, n_lo: int, n_hi: int,
                     p_hi: int) -> list[tuple[WeightedGraph, QaoaParams]]:
    """Deterministic instance set for cross-engine comparisons.

    Samples whose fixed-point run saturates are redrawn (deterministically,
    from the same stream): the fidelity criteria are defined over the
    non-saturating regime, where the overflow flag must stay clear.
    """
    rng = np.random.default_rng(seed)
    instances = []
    for _ in range(count):
        for _attempt in range(64):
            g, params = random_instance(rng, n_lo, n_hi, p_hi)
            _, report = run_qaoa(g, params)
            if not report.overflow:
                break
        else:
            raise AssertionError("no representable instance found")
        instances.append((g, params))
    return instances


def streamed_n_add(words, fmt, ctx):
    """N_ADD as the hardware streams it: column c of the stacked (2, N)
    words lands on every row with its +/-1 signs, in ascending c, with a
    saturating addition each time."""
    n = words.shape[1].bit_length() - 1
    res = np.zeros_like(words)
    for c in range(words.shape[1]):
        res = fxp.vec_add(res, hadamard_sign_column(c, n) * words[:, c:c + 1], fmt, ctx)
    return res
