"""Double-precision reference engines.

Two independent routes to the same ansatz state:

  * dense: per-gate construction (diagonal two-qubit phase gates for the
    cost step, the 2x2 X-rotation applied to each qubit in turn for the
    mixer), so no N x N matrix is built.  Deliberately shares no code with
    the decomposed dataflow beyond graph.bit_planes, the bits of each index.
  * decomposed: diagonal phase multiply followed by a +/-1 Walsh-Hadamard
    transform and a 1/2**n scale per layer -- the pipeline's dataflow in
    float64, transformed by the in-place butterfly.  walsh_streamed, the
    transform accumulated in stream order, is kept as its test oracle.
    As in the pipeline, the complex exponentials are taken on the distinct
    angles only and expanded to N phases: N/2 for a cost pass, mirrored,
    and n + 1 for a mixer pass, gathered by popcount.

Both return an EngineRun: a StateVector with scale_exp 0, and OpCounts
of multiplies and additions only (no clocks are modeled).

The dense cost step equals the diagonal-table construction only up to one
global phase per layer (exp(+i*gamma*sum(w))), so state comparisons go
through align_global_phase.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .diagonals import cost_half_angles, mixer_level_angles, mixer_table
from .diagonals import build_cost_diagonal  # noqa: F401  unused; in perfbench's SITES
from .graph import WeightedGraph, bit_planes, check_qubit_count
from .pipeline import (EngineRun, OpCounts, QaoaParams, StateVector, _sum_diff, butterfly,
                       hadamard_sign_column)


def dense_cost_unitary(g: WeightedGraph, gamma: float) -> np.ndarray:
    """Diagonal of the product over edges of two-qubit diagonal phase gates
    with angle -2*w*gamma, as a length-2**n vector, n = g.num_vertices.

    Each gate contributes exp(-i*theta/2) where the endpoint bits agree and
    exp(+i*theta/2) where they differ; its factor is selected where the
    endpoints' bit planes differ, and it is multiplied in as
    np.multiply(diag, factor, out=diag), in edge order.  The operand order
    is part of the output: numpy's complex multiply, on hosts where it uses
    FMA, does not round x*y and y*x to the same last bits.
    """
    planes = bit_planes(g.num_vertices)
    diag = np.ones(planes.shape[1], dtype=np.complex128)
    for i, j, w in g.edges:
        theta = -2.0 * w * gamma
        if not math.isfinite(theta):
            raise ValueError(f"cost phase -2*w*gamma overflows float64 at gamma={gamma!r}")
        factor = np.where(planes[i] != planes[j], np.exp(0.5j * theta), np.exp(-0.5j * theta))
        np.multiply(diag, factor, out=diag)
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


def dense_run_qaoa(g: WeightedGraph, params: QaoaParams) -> EngineRun:
    """Gate-product oracle on the uniform state: per layer, the diagonal cost
    gate product, then the X-rotation on each qubit in turn.  Its counts
    are N x N matrix-vector products for both, the oracle's defining form."""
    n = g.num_vertices
    check_qubit_count(n)
    n_states = 1 << n
    v = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    for k in range(params.p):
        v = _apply_mixer(dense_cost_unitary(g, params.gamma[k]) * v, params.beta[k])
    counts = OpCounts(mults=2 * params.p * n_states * n_states,
                      adds=2 * params.p * n_states * (n_states - 1))
    return EngineRun(StateVector(amps=v, scale_exp=Fraction(0), n=n), counts)


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


def decomposed_run_qaoa_f64(g: WeightedGraph, params: QaoaParams) -> EngineRun:
    """Pipeline dataflow in float64: phase multiply, +/-1 transform, 1/2**n scale.

    The tables are g.cost_table and mixer_table(n).  Each pass takes
    exp(i*angle) on its distinct angles, expands the phases with the
    table's expand into a fresh array, and multiplies the state into it.
    The angles are freed before expand allocates, and the old state before
    the butterfly takes its block-sized scratch, so a run peaks at 2.5
    state vectors: the state, N/2 phases and their expansion.  The
    transform is computed by the butterfly, but counts describe the
    decomposed dataflow, as run_qaoa's do: N multiplies and N*N additions
    per transform, 2*p transforms.  A parameter whose angles overflow
    float64 is rejected, as their phases would be NaN.
    """
    n = g.num_vertices
    n_states = 1 << n
    diag = g.cost_table  # rejects n above MAX_QUBITS before allocating
    mixer = mixer_table(n)
    passes = ((diag, cost_half_angles, params.gamma), (mixer, mixer_level_angles, params.beta))
    for table, _, theta in passes:
        if not all(math.isfinite(t * table.peak) for t in theta):
            raise ValueError(f"a phase angle overflows float64 at parameters {theta!r}")
    v = np.full(n_states, 1.0 / np.sqrt(n_states), dtype=np.complex128)
    scale = 1.0 / n_states
    for k in range(params.p):
        for table, angles, theta in passes:
            phases = table.expand(np.exp(1j * angles(table, theta[k])))
            phases *= v
            v = phases  # drops the old state before the butterfly's scratch is taken
            fwht_inplace(v)
        v *= scale  # exact: a power-of-two factor
    counts = OpCounts(mults=2 * params.p * n_states, adds=2 * params.p * n_states * n_states)
    return EngineRun(StateVector(amps=v, scale_exp=Fraction(0), n=n), counts)


def align_global_phase(state: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate `state` so its phase matches `reference` at the reference's
    largest-magnitude amplitude (ties broken towards the lowest index)."""
    idx = int(np.argmax(np.abs(reference)))
    if abs(state[idx]) == 0.0 or abs(reference[idx]) == 0.0:
        return state.copy()
    rot = reference[idx] * np.conj(state[idx])
    return state * (rot / abs(rot))
