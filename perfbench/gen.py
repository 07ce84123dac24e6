"""Deterministic workload inputs, made from the benchmark seed.

Plain Python (no numpy), so run.py writes the input files before it, or
any set-up probe, imports the emulator.  Every request is an *instance* of a golden
corpus: seed s selects the instance ids (s * per_pass + j) mod corpus for
j in range(per_pass), and instance i is generated from the string key
"<workload>:<i>" alone.  So the same seed always gives the same inputs, and
every request has a golden output recorded in golden.json.

Graph files use the edge-list format of the project README: a vertex count,
then one "i j w" line per edge with 1-indexed vertices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    # name: (requests per pass, corpus size); BENCHMARK.json says why each exists
    "emulate-n12": (4, 32),
    "bench-sweep": (1, 8),
    "solve-n8": (1, 8),
    "f64-large": (3, 48),
}

EMULATE_N, EMULATE_P, EMULATE_FORMAT = 12, 2, "q12.20"
SOLVE_N, SOLVE_P, SOLVE_RESTARTS, SOLVE_MAX_EVALS = 8, 2, 4, 400
BENCH_QUBITS, BENCH_P = range(2, 13), 2
BENCH_ENGINES = ("pipeline", "decomposed-f64", "dense")
LARGE_NS, LARGE_P = (16, 17, 18), 1
EDGE_PROB = 0.6
WEIGHT_RANGE = (0.2, 1.0)


@dataclass(frozen=True)
class Request:
    """One closed-loop request: a CLI argv, or a library call on a graph file."""

    workload: str
    instance: int
    kind: str  # "cli" or "lib"
    argv: tuple[str, ...]
    n: int
    p: int
    gamma: tuple[float, ...]
    beta: tuple[float, ...]
    graph_path: str | None
    edges: tuple[tuple[int, int, float], ...]  # 0-indexed, as written to the file
    elements: int  # streamed diagonal elements the request evolves (fixed part)


def instance_ids(workload: str, seed: int) -> list[int]:
    per_pass, corpus = WORKLOADS[workload]
    return [(seed * per_pass + j) % corpus for j in range(per_pass)]


def _weight(rng: random.Random) -> float:
    return round(rng.uniform(*WEIGHT_RANGE), 6)


def dense_random_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Each vertex pair is an edge with probability EDGE_PROB."""
    return [(i, j, _weight(rng)) for i in range(n) for j in range(i + 1, n)
            if rng.random() < EDGE_PROB]


def sparse_random_edges(rng: random.Random, n: int) -> list[tuple[int, int, float]]:
    """Exactly 2n distinct edges, so the per-edge table work does not vary."""
    pairs = sorted(rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], 2 * n))
    return [(i, j, _weight(rng)) for i, j in pairs]


def complete_edges(n: int) -> tuple[tuple[int, int, float], ...]:
    """The CLI bench instance: unit-weight complete graph."""
    return tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n))


def write_graph(path: Path, n: int, edges) -> None:
    lines = [f"# {path.stem}", str(n)]
    lines += [f"{i + 1} {j + 1} {w:.6f}" for i, j, w in edges]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _angles(rng: random.Random, p: int, gamma_hi: float) -> tuple[tuple, tuple]:
    gamma = tuple(round(rng.uniform(0.0, gamma_hi), 6) for _ in range(p))
    beta = tuple(round(rng.uniform(0.0, math.pi), 6) for _ in range(p))
    return gamma, beta


def _csv(values) -> str:
    return ",".join(f"{v:.6f}" for v in values)


def make_request(workload: str, instance: int, input_dir: Path) -> Request:
    """Build instance `instance` of `workload`, writing its graph file if any."""
    rng = random.Random(f"{workload}:{instance}")
    path = input_dir / workload / f"{instance}.graph"
    if workload == "emulate-n12":
        n, p = EMULATE_N, EMULATE_P
        edges = dense_random_edges(rng, n)
        gamma, beta = _angles(rng, p, 0.5)
        write_graph(path, n, edges)
        argv = ("emulate", "--graph", str(path), "--engine", "pipeline",
                "--fixed-point", EMULATE_FORMAT, "--layers", str(p),
                "--gamma", _csv(gamma), "--beta", _csv(beta), "--seed", str(instance))
        return Request(workload, instance, "cli", argv, n, p, gamma, beta, str(path),
                       tuple(edges), 2 * p * (1 << n))
    if workload == "bench-sweep":
        argv = ("bench", "--qubits", f"{BENCH_QUBITS[0]}..{BENCH_QUBITS[-1]}",
                "--layers", str(BENCH_P), "--seed", str(instance))
        elements = len(BENCH_ENGINES) * sum(2 * BENCH_P * (1 << n) for n in BENCH_QUBITS)
        return Request(workload, instance, "cli", argv, BENCH_QUBITS[-1], BENCH_P,
                       (0.2,) * BENCH_P, (0.4,) * BENCH_P, None, (), elements)
    if workload == "solve-n8":
        n, p = SOLVE_N, SOLVE_P
        edges = dense_random_edges(rng, n)
        write_graph(path, n, edges)
        argv = ("solve", "--graph", str(path), "--engine", "pipeline", "--layers", str(p),
                "--restarts", str(SOLVE_RESTARTS), "--max-evals", str(SOLVE_MAX_EVALS),
                "--seed", str(instance))
        # elements depend on the evaluation count and are filled in after the run
        return Request(workload, instance, "cli", argv, n, p, (), (), str(path),
                       tuple(edges), 0)
    if workload == "f64-large":
        n, p = LARGE_NS[instance % len(LARGE_NS)], LARGE_P
        edges = sparse_random_edges(rng, n)
        gamma, beta = _angles(rng, p, 0.5)
        write_graph(path, n, edges)
        return Request(workload, instance, "lib", (), n, p, gamma, beta, str(path),
                       tuple(edges), 2 * p * (1 << n))
    raise ValueError(f"unknown workload {workload!r}")


def requests(workload: str, seed: int, input_dir: Path) -> list[Request]:
    """The fixed request list of one pass for this workload and seed."""
    return [make_request(workload, i, input_dir) for i in instance_ids(workload, seed)]
