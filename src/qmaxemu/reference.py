"""Double-precision reference engines.

Two independent routes to the same ansatz state:

  * dense: per-gate construction (diagonal two-qubit phase gates for the
    cost step, the 2x2 X-rotation applied to each qubit in turn for the
    mixer), so no N x N matrix is built.  Deliberately shares no code with
    the decomposed dataflow.
  * decomposed: diagonal phase multiply followed by a +/-1 Walsh-Hadamard
    transform and a 1/2**n scale per layer -- the pipeline's dataflow in
    float64, transformed by the in-place butterfly.  walsh_streamed, the
    transform accumulated in stream order, is kept as its test oracle.
    As in the pipeline, the complex exponentials are taken on the distinct
    angles only and expanded to N phases: N/2 for a cost pass, mirrored,
    and n + 1 for a mixer pass, gathered by popcount.

Both return a StateVector with scale_exp 0 and tally their work in an
optional OpCounts (multiplies and additions only: no clocks are modeled).

The dense cost step equals the diagonal-table construction only up to one
global phase per layer (exp(+i*gamma*sum(w))), so state comparisons go
through align_global_phase.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .diagonals import cost_half_angles, mixer_level_angles, mixer_table
from .diagonals import build_cost_diagonal  # noqa: F401  unused; in perfbench's SITES
from .graph import WeightedGraph, check_qubit_count
from .pipeline import (OpCounts, QaoaParams, StateVector, _sum_diff, butterfly,
                       hadamard_sign_column)


def dense_cost_unitary(g: WeightedGraph, gamma: float) -> np.ndarray:
    """Diagonal of the product over edges of two-qubit diagonal phase gates
    with angle -2*w*gamma, as a length-2**n vector, n = g.num_vertices.

    Each gate contributes exp(-i*theta/2) where the endpoint bits agree and
    exp(+i*theta/2) where they differ.
    """
    idx = np.arange(1 << g.num_vertices, dtype=np.int64)
    diag = np.ones(len(idx), dtype=np.complex128)
    for i, j, w in g.edges:
        theta = -2.0 * w * gamma
        differ = ((idx >> i) ^ (idx >> j)) & 1
        diag = diag * np.where(differ, np.exp(0.5j * theta), np.exp(-0.5j * theta))
    return diag


def dense_mixer_unitary(beta: float, n: int) -> np.ndarray:
    """n-fold Kronecker power of cos(beta)*I - i*sin(beta)*X."""
    if n < 1:
        raise ValueError("need at least one qubit")
    rx = np.array([[np.cos(beta), -1j * np.sin(beta)],
                   [-1j * np.sin(beta), np.cos(beta)]], dtype=np.complex128)
    u = rx
    for _ in range(n - 1):
        u = np.kron(u, rx)
    return u


def _apply_mixer(v: np.ndarray, beta: float) -> np.ndarray:
    """dense_mixer_unitary(beta, n) @ v, one qubit q at a time: reshaped to
    (-1, 2, 2**q), v pairs the amplitudes with bit q clear (lo) and set (hi).
    Elementwise only, so results do not depend on the BLAS thread count."""
    (a, b), (c, d) = dense_mixer_unitary(beta, 1)
    for q in range(len(v).bit_length() - 1):
        pairs = v.reshape(-1, 2, 1 << q)
        lo, hi = pairs[:, 0], pairs[:, 1]
        v = np.stack((a * lo + b * hi, c * lo + d * hi), axis=1).reshape(-1)
    return v


def dense_run_qaoa(g: WeightedGraph, params: QaoaParams,
                   counts: OpCounts | None = None) -> StateVector:
    """Gate-product oracle on the uniform state: per layer, the diagonal cost
    gate product, then the X-rotation on each qubit in turn.  counts tallies
    both steps as N x N matrix-vector products, the oracle's defining form."""
    n = g.num_vertices
    check_qubit_count(n)
    n_states = 1 << n
    v = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    for k in range(params.p):
        v = _apply_mixer(dense_cost_unitary(g, params.gamma[k]) * v, params.beta[k])
    if counts is not None:
        counts.mults += 2 * params.p * n_states * n_states
        counts.adds += 2 * params.p * n_states * (n_states - 1)
    return StateVector(amps=v, scale_exp=Fraction(0), n=n)


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place +/-1 Walsh-Hadamard butterfly (natural order), O(N log N).

    Each level is one vectorised pass of the cache-blocked butterfly, over
    one block or column slab of v at a time and into one scratch array of
    that size or back; the result lands in v, which is returned.
    """
    butterfly((v,), _sum_diff)
    return v


def walsh_streamed(v: np.ndarray) -> np.ndarray:
    """+/-1 Walsh-Hadamard transform accumulated in ascending stream order.

    Mirrors the pipeline's N_ADD dataflow: element c lands on all N slots
    with column-c signs before element c+1 is applied.  O(N^2): the oracle
    for fwht_inplace, not used by any engine.
    """
    n_states = len(v)
    n = n_states.bit_length() - 1
    out = np.zeros(n_states, dtype=np.complex128)
    for c in range(n_states):
        out = out + hadamard_sign_column(c, n) * v[c]
    return out


def decomposed_run_qaoa_f64(g: WeightedGraph, params: QaoaParams,
                            counts: OpCounts | None = None) -> StateVector:
    """Pipeline dataflow in float64: phase multiply, +/-1 transform, 1/2**n scale.

    The tables are g.cost_table and mixer_table(n).  Each pass takes
    exp(i*angle) on its distinct angles, expands the phases with the
    table's expand into a fresh array, and multiplies the state into it.
    The angles are freed before expand allocates, and the old state before
    the butterfly takes its block-sized scratch, so a run peaks at 2.5
    state vectors: the state, N/2 phases and their expansion.  The
    transform is computed by the butterfly, but counts describe the
    decomposed dataflow, as run_qaoa's do: N multiplies and N*N additions
    per transform, 2*p transforms.
    """
    n = g.num_vertices
    n_states = 1 << n
    diag = g.cost_table  # rejects n above MAX_QUBITS before allocating
    mixer = mixer_table(n)
    v = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    scale = 1.0 / n_states
    passes = ((diag, cost_half_angles, params.gamma), (mixer, mixer_level_angles, params.beta))
    for k in range(params.p):
        for table, angles, theta in passes:
            phases = table.expand(np.exp(1j * angles(table, theta[k])))
            phases *= v
            v = phases  # drops the old state before the butterfly's scratch is taken
            fwht_inplace(v)
        v *= scale  # exact: a power-of-two factor
    if counts is not None:
        counts.mults += 2 * params.p * n_states
        counts.adds += 2 * params.p * n_states * n_states
    return StateVector(amps=v, scale_exp=Fraction(0), n=n)


def align_global_phase(state: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate `state` so its phase matches `reference` at the reference's
    largest-magnitude amplitude (ties broken towards the lowest index)."""
    idx = int(np.argmax(np.abs(reference)))
    if abs(state[idx]) == 0.0 or abs(reference[idx]) == 0.0:
        return state.copy()
    rot = reference[idx] * np.conj(state[idx])
    return state * (rot / abs(rot))
