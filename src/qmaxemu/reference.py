"""Double-precision reference engines.

Two independent routes to the same ansatz state:

  * dense: per-gate construction (diagonal two-qubit phase gates for the
    cost step, a Kronecker power of the 2x2 X-rotation for the mixer)
    applied by explicit N x N matrix-vector multiplication.  Deliberately
    shares no code with the decomposed dataflow.
  * decomposed: diagonal phase multiply followed by a +/-1 Walsh-Hadamard
    transform and a 1/2**n scale per layer -- the pipeline's dataflow in
    float64, with either the streamed O(N^2)-addition form or an in-place
    butterfly.

Both return a StateVector with scale_exp 0 and tally their work in an
optional OpCounts (multiplies and additions only: no clocks are modeled).

The dense cost step equals the diagonal-table construction only up to one
global phase per layer (exp(+i*gamma*sum(w))), so state comparisons go
through align_global_phase.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .diagonals import build_cost_diagonal, build_mixer_exponents, cost_angles, mixer_angles
from .graph import WeightedGraph
from .pipeline import OpCounts, QaoaParams, StateVector, butterfly, hadamard_sign_column

DENSE_MAX_QUBITS = 12
_MATVEC_BLOCK_ELEMS = 1 << 18  # elements per _matvec row block: 4 MB of complex128


def _matvec(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Row-wise products summed by numpy's fixed pairwise reduction: no BLAS,
    # so results do not depend on the host thread count.  Rows go in blocks;
    # each row's sum is the same as over the whole matrix at once.
    rows = max(1, _MATVEC_BLOCK_ELEMS // len(v))
    out = np.empty(len(u), dtype=np.result_type(u, v))
    for r in range(0, len(u), rows):
        out[r:r + rows] = (u[r:r + rows] * v[np.newaxis, :]).sum(axis=1)
    return out


def dense_cost_unitary(g: WeightedGraph, gamma: float, n: int) -> np.ndarray:
    """Product over edges of two-qubit diagonal phase gates with angle -2*w*gamma.

    Each gate contributes exp(-i*theta/2) where the endpoint bits agree and
    exp(+i*theta/2) where they differ.
    """
    if n != g.num_vertices:
        raise ValueError("dense cost unitary expects one qubit per vertex")
    idx = np.arange(1 << n, dtype=np.int64)
    diag = np.ones(1 << n, dtype=np.complex128)
    for i, j, w in g.edges:
        theta = -2.0 * w * gamma
        differ = ((idx >> i) ^ (idx >> j)) & 1
        diag = diag * np.where(differ, np.exp(0.5j * theta), np.exp(-0.5j * theta))
    return np.diag(diag)


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


def dense_run_qaoa(g: WeightedGraph, params: QaoaParams,
                   counts: OpCounts | None = None) -> StateVector:
    """Gate-product oracle: explicit matrix-vector products on the uniform state."""
    n = g.num_vertices
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense engine limited to {DENSE_MAX_QUBITS} qubits, got {n}")
    n_states = 1 << n
    v = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    for k in range(params.p):
        v = _matvec(dense_cost_unitary(g, params.gamma[k], n), v)
        v = _matvec(dense_mixer_unitary(params.beta[k], n), v)
    if counts is not None:
        counts.mults += 2 * params.p * n_states * n_states
        counts.adds += 2 * params.p * n_states * (n_states - 1)
    return StateVector(amps=v, scale_exp=Fraction(0), n=n)


def _sum_diff(left, right, plus, minus):
    np.add(left[0], right[0], out=plus[0])
    np.subtract(left[0], right[0], out=minus[0])


def fwht_inplace(v: np.ndarray) -> np.ndarray:
    """In-place +/-1 Walsh-Hadamard butterfly (natural order), O(N log N).

    Each level pairs the two halves of every 2h-block in one vectorised pass
    (reshaping a 1-D array always gives a view, so the writes land in v).
    """
    butterfly((v,), _sum_diff)
    return v


def walsh_streamed(v: np.ndarray) -> np.ndarray:
    """+/-1 Walsh-Hadamard transform accumulated in ascending stream order.

    Mirrors the pipeline's N_ADD dataflow: element c lands on all N slots
    with column-c signs before element c+1 is applied.
    """
    n_states = len(v)
    n = n_states.bit_length() - 1
    out = np.zeros(n_states, dtype=np.complex128)
    for c in range(n_states):
        out = out + hadamard_sign_column(c, n) * v[c]
    return out


def decomposed_run_qaoa_f64(g: WeightedGraph, params: QaoaParams,
                            fast: bool = False,
                            counts: OpCounts | None = None) -> StateVector:
    """Pipeline dataflow in float64: phase multiply, +/-1 transform, 1/2**n scale.

    fast=True swaps the streamed transform for the butterfly; the two forms
    agree to rounding and the swap only changes the addition count.
    """
    n = g.num_vertices
    n_states = 1 << n
    diag = build_cost_diagonal(g, n)  # rejects n above MAX_QUBITS before allocating
    mixer = build_mixer_exponents(n)
    v = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    scale = 1.0 / n_states
    for k in range(params.p):
        for angles in (cost_angles(diag, params.gamma[k]),
                       mixer_angles(mixer, params.beta[k])):
            v = np.exp(1j * angles) * v
            v = fwht_inplace(v) if fast else walsh_streamed(v)
        v = v * scale  # exact: a power-of-two factor
    if counts is not None:
        counts.mults += 2 * params.p * n_states
        counts.adds += 2 * params.p * n_states * (n if fast else n_states)
    return StateVector(amps=v, scale_exp=Fraction(0), n=n)


def align_global_phase(state: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate `state` so its phase matches `reference` at the reference's
    largest-magnitude amplitude (ties broken towards the lowest index)."""
    idx = int(np.argmax(np.abs(reference)))
    if abs(state[idx]) == 0.0 or abs(reference[idx]) == 0.0:
        return state.copy()
    rot = reference[idx] * np.conj(state[idx])
    return state * (rot / abs(rot))
