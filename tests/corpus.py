"""The byte-identity corpus: seeded pipeline runs and one sha256 per case.

Each case is a random weighted graph on n = 1..12 vertices, p = 1..3 layers
and one of the formats q4.8, q6.10, q7.25 and q12.20, with integer or
non-integer weights.  gamma and beta include 0 and pi/2, and some cases
draw gamma past the point where CALCULATE_RAD saturates, so the prefix,
clamp and full-N fallback paths of N_ADD stay covered.  A case's digest
hashes run_qaoa's amplitudes (the exact image of its words), scale
exponent, overflow flag and counts; for n <= 7 also its per-clock trace,
and for every tenth case the decomposed-f64 state.

tests/test_corpus.py compares every digest with corpus_golden.json.  The
golden changes only on a deliberate change to an output.  The compare mode
also runs each case's graph as one run_qaoa_batch batch of four points,
the case's and three more, and fails on an item that differs from its own
run_qaoa (batch_differs):

    PYTHONPATH=src python tests/corpus.py          # compare, exit 1 on a difference
    PYTHONPATH=src python tests/corpus.py --write  # re-record corpus_golden.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from qmaxemu import PipelineConfig, QaoaParams, WeightedGraph, run_qaoa
from qmaxemu.fxp import FxFormat
from qmaxemu.pipeline import run_qaoa_batch
from qmaxemu.reference import decomposed_run_qaoa_f64

GOLDEN = Path(__file__).resolve().parent / "corpus_golden.json"
SEED = 2021
CASES = 360
FORMATS = (FxFormat(12, 8), FxFormat(16, 10), FxFormat(32, 25), FxFormat(32, 20))
TRACED_UP_TO = 7  # qubits; a trace has 2p(N + 19) records
F64_EVERY = 10
BATCH_EXTRA = 3  # points that join each case's own in its batch


def case(index: int) -> tuple[WeightedGraph, QaoaParams, FxFormat]:
    """Case index of the corpus: every n, p and format in turn, the rest
    drawn from a generator seeded by (SEED, index)."""
    rng = np.random.default_rng((SEED, index))
    n = 1 + index % 12
    fmt = FORMATS[index // 12 % len(FORMATS)]
    p = 1 + index // 48 % 3
    integer = index % 2 == 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [pair for pair in pairs if rng.random() < 0.6] or pairs[:1]
    weights = rng.integers(1, 4, len(keep)) if integer else rng.uniform(0.2, 3.0, len(keep))
    g = WeightedGraph(n, tuple((i, j, float(w)) for (i, j), w in zip(keep, weights)))
    return g, draw_params(rng, g, p, fmt), fmt


def draw_params(rng: np.random.Generator, g: WeightedGraph, p: int, fmt: FxFormat,
                saturate: bool = False) -> QaoaParams:
    """A case's gamma and beta, drawn from rng; saturate sets the first
    beta to twice the format's angle limit over n, so that CALCULATE_RAD
    saturates in the first mixer pass."""
    # CALCULATE_RAD saturates once |angle| passes the format's 2**(I - 1)
    # (2C is at most twice the total weight, and u*beta at most n*beta)
    n = g.num_vertices
    limit = 2.0 ** (fmt.word_bits - fmt.frac_bits - 1)
    cost_peak = 2.0 * g.total_weight or 1.0
    gamma, beta = [], []
    for _ in range(p):
        gamma.append((0.0, math.pi / 2, float(rng.uniform(0.0, 0.1)),
                      float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, math.pi)),
                      float(rng.uniform(0.5, 4.0)) * limit / cost_peak,
                      float(rng.uniform(1.0, 3.0)) * limit / cost_peak)[rng.integers(7)])
        beta.append((0.0, math.pi / 2, float(rng.uniform(0.0, 0.5)),
                     float(rng.uniform(0.0, math.pi)),
                     float(rng.uniform(0.5, 3.0)) * limit / n)[rng.integers(5)])
    if saturate:
        beta[0] = 2.0 * limit / n
    return QaoaParams.from_lists(gamma, beta)


def run_case(index: int) -> tuple[str, bool]:
    """The case's digest and whether its run saturated."""
    g, params, fmt = case(index)
    records: list[dict] = []
    traced = g.num_vertices <= TRACED_UP_TO
    state, counts = run_qaoa(g, params, PipelineConfig(fmt=fmt),
                             records.append if traced else None)
    h = hashlib.sha256()
    h.update(state.amps.tobytes())
    h.update(repr((str(state.scale_exp), counts.overflow, counts.mults, counts.adds,
                   counts.cycles_per_op)).encode())
    if traced:
        h.update(json.dumps(records, sort_keys=True).encode())
    if index % F64_EVERY == 0:
        h.update(decomposed_run_qaoa_f64(g, params).state.amps.tobytes())
    return h.hexdigest(), counts.overflow


def batch_differs(index: int) -> list[int]:
    """The items of case index's batch whose run_qaoa_batch run differs
    from their own run_qaoa: the case's point, then BATCH_EXTRA points
    drawn as the case draws them, from a generator seeded by (SEED, index,
    k), the last of them saturating."""
    g, params, fmt = case(index)
    cfg = PipelineConfig(fmt=fmt)
    points = [params] + [draw_params(np.random.default_rng((SEED, index, k)), g, params.p, fmt,
                                     saturate=k == BATCH_EXTRA)
                         for k in range(1, BATCH_EXTRA + 1)]
    runs = run_qaoa_batch(g, points, cfg)
    return [k for k, (point, run) in enumerate(zip(points, runs))
            if run_bytes(run) != run_bytes(run_qaoa(g, point, cfg))]


def run_bytes(run) -> bytes:
    """An engine run's amplitudes, scale exponent, flag and counts."""
    state, counts = run
    return state.amps.tobytes() + repr((str(state.scale_exp), counts.overflow, counts.mults,
                                        counts.adds, counts.cycles_per_op)).encode()


def digests() -> tuple[list[str], int]:
    """Every case's digest, and how many of the runs saturated."""
    results = [run_case(i) for i in range(CASES)]
    return [d for d, _ in results], sum(s for _, s in results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare or re-record the corpus golden.")
    parser.add_argument("--write", action="store_true",
                        help="rewrite corpus_golden.json from this tree's outputs")
    args = parser.parse_args(argv)
    got, saturated = digests()
    if args.write:
        GOLDEN.write_text(json.dumps({"seed": SEED, "cases": CASES, "saturated": saturated,
                                      "digests": got}, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN.name}: {CASES} cases, {saturated} saturated")
        return 0
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    differ = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    print(f"{len(differ)} of {CASES} cases differ" + (f": {differ[:20]}" if differ else ""))
    batches = [i for i in range(CASES) if batch_differs(i)]
    print(f"{len(batches)} of {CASES} batches differ from their single runs"
          + (f": {batches[:20]}" if batches else ""))
    return 1 if differ or batches or len(got) != len(want) else 0


if __name__ == "__main__":
    sys.exit(main())
