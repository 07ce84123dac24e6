"""Cycle-accurate fixed-point model of the MaxCut accelerator pipeline.

Each half-layer is one elemental operation: stream the N diagonal elements
through CALCULATE_RAD -> NORMALIZE_RAD -> CORDIC(16) -> 1_MULT, one element
per clock in steady state, while N_ADD applies the streamed complex product
to all N accumulator slots in parallel with +/-1 column signs, saturating
after every addition.  An operation therefore takes N + PIPELINE_LATENCY
clocks and costs N complex multiplies plus N*N complex additions; those
modelled counts and the per-clock trace describe that streamed datapath.

The state is held as raw int64 words (real and imaginary arrays) for the
whole run; run_qaoa builds the float64 StateVector once, at readout (word
widths <= 32 bits make that image lossless).

The host evaluates the datapath in a different order with identical words
and flags.  The per-element stages are batch-evaluated, which is
value-identical to streaming because elements only interact in N_ADD.
N_ADD, defined as accumulation in ascending stream order, is computed in
O(N log N) by a butterfly over per-block summaries of each row's stream
(_n_add): prefix extremes say exactly which rows saturate, and for those a
composition of clamp-add maps gives the clipped result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fxp
from .diagonals import build_cost_diagonal, build_mixer_exponents, cost_angles, mixer_angles
from .fxp import FxContext, FxFormat
from .graph import WeightedGraph, check_qubit_count

# Stage depths: CALCULATE_RAD 1 + NORMALIZE_RAD 1 + CORDIC 16 + 1_MULT 1.
PIPELINE_LATENCY = 1 + 1 + fxp.CORDIC_STAGES + 1
CLOCK_HZ = 100_000_000  # reported times are cycles / CLOCK_HZ, labeled derived

TraceWriter = Callable[[dict], None]


@dataclass
class StateVector:
    """N = 2**n amplitudes plus a power-of-two scale exponent.

    Physical amplitude l is amps[l] * 2**scale_exp; scale_exp is a Fraction
    because the uniform initial state at odd n leaves a residual half
    exponent (sqrt(2)) that is only applied at readout.
    """

    amps: np.ndarray  # complex128
    scale_exp: Fraction
    n: int

    def physical(self) -> np.ndarray:
        return self.amps * 2.0 ** float(self.scale_exp)

    def physical_norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2) * 4.0 ** float(self.scale_exp))


@dataclass(frozen=True)
class QaoaParams:
    """Layer count p and the per-layer cost/mixer parameters."""

    p: int
    gamma: tuple[float, ...]
    beta: tuple[float, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("layer count must be >= 1")
        if len(self.gamma) != self.p or len(self.beta) != self.p:
            raise ValueError(f"gamma/beta must each have length p={self.p}")

    @staticmethod
    def from_lists(gamma, beta) -> "QaoaParams":
        return QaoaParams(len(gamma), tuple(float(g) for g in gamma),
                          tuple(float(b) for b in beta))


@dataclass(frozen=True)
class PipelineConfig:
    fmt: FxFormat = FxFormat()
    per_layer_shift: int | None = None  # None -> n bits (the exact 1/2**n factor)

    def __post_init__(self):
        if self.per_layer_shift is not None and self.per_layer_shift < 0:
            raise ValueError("per_layer_shift must be >= 0")


@dataclass
class OpCounts:
    """Scalar complex multiply/add tallies of one engine run, plus the modeled
    clocks per elemental operation (empty for the float64 engines) and the
    fixed-point engine's sticky overflow flag."""

    mults: int = 0
    adds: int = 0
    cycles_per_op: list[int] = field(default_factory=list)
    overflow: bool = False

    @property
    def cycles_total(self) -> int:
        return sum(self.cycles_per_op)

    def derived_seconds(self) -> float:
        return self.cycles_total / CLOCK_HZ


def hadamard_sign(row: int, col: int) -> int:
    """+/-1 entry of the natural-order Walsh-Hadamard sign matrix."""
    return 1 - 2 * ((row & col).bit_count() & 1)


def _parity(v: np.ndarray) -> np.ndarray:
    """Parity of the bit count, for values below 2**32."""
    v = v ^ (v >> 16)
    v ^= v >> 8
    v ^= v >> 4
    v ^= v >> 2
    v ^= v >> 1
    return v & 1


@lru_cache(maxsize=8)
def _row_index(n: int) -> np.ndarray:
    # shared and read-only: hadamard_sign_column runs once per column
    rows = np.arange(1 << n, dtype=np.int64)
    rows.flags.writeable = False
    return rows


def hadamard_sign_column(col: int, n: int) -> np.ndarray:
    """Signs hadamard_sign(i, col) for all rows i, as an int64 vector."""
    return 1 - 2 * _parity(_row_index(n) & col)


Halves = list[np.ndarray]


def butterfly(arrays: tuple[np.ndarray, ...],
              combine: Callable[[Halves, Halves, Halves, Halves], None]
              ) -> tuple[np.ndarray, ...]:
    """Natural-order butterfly along the last axis, in place.

    Each array is 1-D or C-contiguous, so that reshaping it gives a view.
    At each level h = 1, 2, ..., N/2 every 2h-block of each array is split
    into halves L and R.  combine(left, right, plus, minus) reads the old
    halves from the copies left, right and writes the new ones into the
    views plus (replacing L) and minus (replacing R).  With plus = L + R
    and minus = L - R this is the +/-1 Walsh-Hadamard transform: plus
    serves the rows whose sign on R is +1, minus those whose sign is -1.
    """
    n_states = arrays[0].shape[-1]
    h = 1
    while h < n_states:
        blocks = [a.reshape(-1, 2, h) for a in arrays]
        combine([b[:, 0].copy() for b in blocks], [b[:, 1].copy() for b in blocks],
                [b[:, 0] for b in blocks], [b[:, 1] for b in blocks])
        h *= 2
    return arrays


def _prefix_combine(left: Halves, right: Halves, plus: Halves, minus: Halves) -> None:
    # (sum, max prefix, min prefix) of the stream L then +R, and of L then -R
    (sl, tl, bl), (sr, tr, br) = left, right
    np.add(sl, sr, out=plus[0])
    np.maximum(tl, sl + tr, out=plus[1])
    np.minimum(bl, sl + br, out=plus[2])
    np.subtract(sl, sr, out=minus[0])
    np.maximum(tl, sl - br, out=minus[1])
    np.minimum(bl, sl - tr, out=minus[2])


def _clamp_combine(left: Halves, right: Halves, plus: Halves, minus: Halves) -> None:
    # clamp map a -> clip(a + d, lo, hi) of L then R, and of L then -R,
    # whose map is (-d, -hi - 1, -lo - 1)
    (dl, lol, hil), (dr, lor, hir) = left, right
    np.add(dl, dr, out=plus[0])
    np.clip(lol + dr, lor, hir, out=plus[1])
    np.clip(hil + dr, lor, hir, out=plus[2])
    neg_lo, neg_hi = -hir - 1, -lor - 1
    np.subtract(dl, dr, out=minus[0])
    np.clip(lol - dr, neg_lo, neg_hi, out=minus[1])
    np.clip(hil - dr, neg_lo, neg_hi, out=minus[2])


def _n_add(words: np.ndarray, fmt: FxFormat, ctx: FxContext) -> np.ndarray:
    """N_ADD of the stacked (2, N) re/im 1_MULT words.

    Row i of the result is the saturating accumulation, from zero and in
    ascending column order c, of hadamard_sign(i, c) * words[:, c].  The
    butterfly's entries summarise the signed sub-stream of one column block
    for one row sign pattern:

    (a) its sum s and its largest (t) and smallest (b) unclipped prefix
        sum.  Clipped and unclipped accumulation agree up to the first
        addition that leaves [min_raw, max_raw], so a row saturates exactly
        when its t or b lies outside; the other rows' result is s, and the
        sticky flag is raised exactly when some row saturates.
    (b) only then, the clamp map a -> clip(a + d, lo, hi) the sub-stream
        applies to the accumulator.  Each saturating addition is such a map,
        and the family is closed under composition.  Negating a stream
        conjugates its map by a -> -a - 1, which maps [min_raw, max_raw]
        onto itself since min_raw = -max_raw - 1.  The result is the whole
        stream's map applied to 0.

    Words are below 2**31 in magnitude and N <= 2**24, so every sum stays
    below 2**56 and the int64 arithmetic is exact.
    """
    s, t, b = butterfly((words.copy(), words.copy(), words.copy()), _prefix_combine)
    if not ((t > fmt.max_raw).any() or (b < fmt.min_raw).any()):
        return s
    ctx.overflow = True
    d, lo, hi = butterfly((words.copy(), np.full_like(words, fmt.min_raw),
                           np.full_like(words, fmt.max_raw)), _clamp_combine)
    return np.clip(d, lo, hi)


def init_uniform_state(n: int, fmt: FxFormat = FxFormat()) -> StateVector:
    """Equal-superposition start state with an exact power-of-two stored value.

    Stored amplitude is 2**-ceil(n/2); the residual scale (including the
    sqrt(2) for odd n) lives in scale_exp so the physical norm is exactly 1.
    """
    check_qubit_count(n)
    half_up = (n + 1) // 2
    if fmt.frac_bits < half_up:
        raise ValueError(f"format {fmt.name} cannot store 2**-{half_up}")
    amps = np.full(1 << n, 2.0 ** -half_up, dtype=np.complex128)
    return StateVector(amps=amps, scale_exp=Fraction(half_up) - Fraction(n, 2), n=n)


def _emit_op_trace(write: TraceWriter, n_states: int, op_index: int,
                   layer: int, order: str, neg_cos: np.ndarray,
                   neg_sin: np.ndarray, overflow: bool):
    """One record per clock: stage occupancy by stream element index, the
    sign-adjustment bits travelling beside the element in 1_MULT, and the
    sticky overflow state of the operation."""
    total = n_states + PIPELINE_LATENCY
    for clock in range(total):
        def occupant(depth):
            c = clock - depth
            return c if 0 <= c < n_states else None
        # CORDIC holds the elements at stage depths 2 .. 1 + CORDIC_STAGES.
        cordic_occ = [c for c in range(max(0, clock - 1 - fxp.CORDIC_STAGES),
                                       min(n_states, clock - 1))]
        mult = occupant(2 + fxp.CORDIC_STAGES)
        write({
            "op": op_index,
            "layer": layer,
            "order": order,
            "clock": clock,
            "calculate_rad": occupant(0),
            "normalize_rad": occupant(1),
            "cordic": cordic_occ,
            "mult": mult,
            "n_add": occupant(PIPELINE_LATENCY),
            "neg_cos": bool(neg_cos[mult]) if mult is not None else None,
            "neg_sin": bool(neg_sin[mult]) if mult is not None else None,
            "overflow": overflow,
        })


def run_elemental_ansatz(in_re: np.ndarray, in_im: np.ndarray, angles: np.ndarray,
                         cfg: PipelineConfig, ctx: FxContext | None = None,
                         trace_writer: TraceWriter | None = None,
                         op_index: int = 0, layer: int = 0,
                         order: str = "cost") -> tuple[np.ndarray, np.ndarray]:
    """One streamed phase-and-transform pass: out = H1 . (diag(e^{i angles}) . in).

    in_re/in_im are the raw int64 words of the N input amplitudes; returns
    the raw words of the result register, which starts zeroed and replaces
    the state at drain, N + PIPELINE_LATENCY clocks later.  Saturation
    anywhere sets the sticky flag on ctx but the run continues.
    """
    n_states = len(in_re)
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (n_states,):
        raise ValueError(f"expected {n_states} angles, got {angles.shape}")
    if ctx is None:
        ctx = FxContext()
    fmt = cfg.fmt

    # Per-element stages (independent across the stream, so batch-evaluated):
    # CALCULATE_RAD quantizes the angle, NORMALIZE_RAD folds it, CORDIC turns
    # it into a unit phasor, 1_MULT forms the streamed complex product.
    rad = fxp.vec_from_real(angles, fmt, ctx)
    rad_q1, neg_cos, neg_sin = fxp.vec_normalize_rad(fxp.vec_reduce_mod_2pi(rad, fmt), fmt)
    cos_q1, sin_q1 = fxp.vec_cordic_sincos(rad_q1, fmt)
    cos_raw, sin_raw = fxp.vec_apply_flags(cos_q1, sin_q1, neg_cos, neg_sin, fmt, ctx)
    mult_re = fxp.vec_add(fxp.vec_mul(in_re, cos_raw, fmt, ctx),
                          -fxp.vec_mul(in_im, sin_raw, fmt, ctx), fmt, ctx)
    mult_im = fxp.vec_add(fxp.vec_mul(in_re, sin_raw, fmt, ctx),
                          fxp.vec_mul(in_im, cos_raw, fmt, ctx), fmt, ctx)

    # N_ADD: the hardware accumulates the product stream into all N slots in
    # ascending stream order, saturating after each addition; _n_add gives
    # the same words and flag from one butterfly over both parts.
    res_re, res_im = _n_add(np.stack((mult_re, mult_im)), fmt, ctx)

    if trace_writer is not None:
        _emit_op_trace(trace_writer, n_states, op_index, layer, order,
                       neg_cos, neg_sin, ctx.overflow)
    return res_re, res_im


def run_layer(re: np.ndarray, im: np.ndarray, d_cost_angles: np.ndarray,
              d_mixer_angles: np.ndarray, cfg: PipelineConfig,
              ctx: FxContext | None = None, trace_writer: TraceWriter | None = None,
              layer: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """Cost pass, mixer pass, then the end-of-layer arithmetic right shift.

    Returns the shifted raw words and the shift k.  The two passes grow the
    state by exactly 2**n in norm, so the layer changes the state's scale
    exponent by k - n; the default k = n keeps it fixed and realizes the
    layer's 1/2**n factor exactly.
    """
    re, im = run_elemental_ansatz(re, im, d_cost_angles, cfg, ctx, trace_writer,
                                  op_index=2 * layer, layer=layer, order="cost")
    re, im = run_elemental_ansatz(re, im, d_mixer_angles, cfg, ctx, trace_writer,
                                  op_index=2 * layer + 1, layer=layer, order="mixer")
    k = cfg.per_layer_shift if cfg.per_layer_shift is not None else len(re).bit_length() - 1
    return re >> k, im >> k, k


def run_qaoa(g: WeightedGraph, params: QaoaParams, cfg: PipelineConfig = PipelineConfig(),
             trace_writer: TraceWriter | None = None) -> tuple[StateVector, OpCounts]:
    """Full accelerator run: uniform init, then p layers of cost+mixer passes."""
    n = g.num_vertices
    n_states = 1 << n
    diag = build_cost_diagonal(g, n)  # rejects n above MAX_QUBITS before allocating
    mixer = build_mixer_exponents(n)
    start = init_uniform_state(n, cfg.fmt)
    re = fxp.vec_from_real(start.amps.real, cfg.fmt)
    im = np.zeros_like(re)
    scale_exp = start.scale_exp
    ctx = FxContext()
    for layer in range(params.p):
        re, im, k = run_layer(re, im, cost_angles(diag, params.gamma[layer]),
                              mixer_angles(mixer, params.beta[layer]),
                              cfg, ctx, trace_writer, layer=layer)
        scale_exp += k - n
    ops = 2 * params.p
    counts = OpCounts(mults=ops * n_states, adds=ops * n_states * n_states,
                      cycles_per_op=[n_states + PIPELINE_LATENCY] * ops,
                      overflow=ctx.overflow)
    amps = fxp.vec_to_float(re, cfg.fmt) + 1j * fxp.vec_to_float(im, cfg.fmt)
    return StateVector(amps=amps, scale_exp=scale_exp, n=n), counts
