"""Cycle-accurate fixed-point model of the MaxCut accelerator pipeline.

Each half-layer is one elemental operation: stream the N diagonal elements
through CALCULATE_RAD -> NORMALIZE_RAD -> CORDIC(16) -> 1_MULT, one element
per clock in steady state, while N_ADD applies the streamed complex product
to all N accumulator slots in parallel with +/-1 column signs, saturating
after every addition.  An operation therefore takes N + PIPELINE_LATENCY
clocks and costs N complex multiplies plus N*N complex additions; those
modelled counts and the per-clock trace describe that streamed datapath.

The state is one int64 register, real and imaginary rows, which each pass
overwrites in place, as the result register replaces the state memory at
drain; run_qaoa builds the float64 StateVector once, at readout (words of
<= 32 bits make that image lossless).  run_qaoa holds it in the state's
parity sector (complement symmetry; Shaydulin & Wild, IEEE TQE 2, 2021):
N/2 words per row, the lower half h before a cost pass and the words e at
the even-popcount states after one.  Every pass runs an N/2 1_MULT and an
N/2 transform (_sector_n_add), which is its N_ADD when the block bound
over the two halves of its N-stream, read off that transform, certifies
that no row saturates (_halves_certified); any other pass builds the
full (2, N) product for _n_add, and the run returns to the sector unless
a row saturated, after which it holds the full register to the end.
1_MULT (fxp.vec_cmul) rounds and clips its products in place on the
register, where a run peaks: at 2.25 times the full register when every
pass is certified, and at 4.25 times on the full register, at n = 16 and
20.  A sector N_ADD peaks at 1.75 times, holding the words, the
transform's float64 image and its last product.  A pass that takes the
full-N N_ADD holds the N/2 words beside it (up to 4.45 times where a
q7.25 pass at n = 16 clamps).

The host evaluates the datapath in a different order with identical words
and flags.  The per-element stages are batch-evaluated, which is
value-identical to streaming because elements only interact in N_ADD.
CALCULATE_RAD, NORMALIZE_RAD, CORDIC and the sign restore (the last three
in one kernel, fxp.vec_sincos) run only on the distinct angles of a pass,
and their words are expanded to the N streamed elements before 1_MULT: a
cost pass evaluates the N/2 angles of the states with bit n-1 clear and
mirrors them (the cost table is symmetric under complementing every bit),
a mixer pass the n + 1 angles u*beta, u = -n, -n+2, ..., n, gathered by
popcount.  Their saturation flags depend only on the set of angles, which
is the same.
CORDIC is evaluated by a per-format decision-interval table
(fxp.vec_cordic_sincos), which gives the 16 stages' words in one O(1)
lookup through a bucket index over the input range.
N_ADD, defined as accumulation in ascending stream order, is computed in
O(N log N) by transforms (_n_add).  The +/-1 transforms of the 1_MULT
words, which the certificates read, are a few float64 BLAS products with
Kronecker factors of H (_exact_transform): every partial sum is an
integer bounded by the row's sum of |w|, within 2**53 wherever the
result is used, so each product is exact in any summation order and the words are those of the int64
butterfly.  The undo, prefix and clamp passes, and reference.fwht_inplace,
whose float64 sums depend on their order, run on the cache-blocked,
constant-geometry driver (butterfly), which applies the same combines in
the same order as the natural-order butterfly, so words and flags are
identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import hadamard

from . import fxp
from .diagonals import (ParitySector, cost_half_angles, mixer_level_angles, mixer_table,
                        sector_table)
from .diagonals import build_cost_diagonal  # noqa: F401  unused; in perfbench's SITES
from .fxp import FxContext, FxFormat
from .graph import WeightedGraph, check_qubit_count

# Stage depths: CALCULATE_RAD 1 + NORMALIZE_RAD 1 + CORDIC 16 + 1_MULT 1.
PIPELINE_LATENCY = 1 + 1 + fxp.CORDIC_STAGES + 1
CLOCK_HZ = 100_000_000  # reported times are cycles / CLOCK_HZ, labeled derived

TraceWriter = Callable[[dict], None]
# Widens per-angle values (words, flags) from a pass's distinct angles to its
# N streamed elements: a table's expand, or _stream_as_is for N angles.
Expand = Callable[[np.ndarray], np.ndarray]


def _stream_as_is(values: np.ndarray) -> np.ndarray:
    return values


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
        if not np.isfinite((*self.gamma, *self.beta)).all():
            raise ValueError("gamma/beta must be finite")

    @staticmethod
    def from_lists(gamma, beta) -> "QaoaParams":
        return QaoaParams(len(gamma), tuple(float(g) for g in gamma),
                          tuple(float(b) for b in beta))


@dataclass(frozen=True)
class PipelineConfig:
    fmt: FxFormat = FxFormat()


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


class EngineRun(NamedTuple):
    """What every engine returns; it unpacks as state, counts."""

    state: StateVector
    counts: OpCounts


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


def hadamard_sign_column(col: int, n: int) -> np.ndarray:
    """Signs hadamard_sign(i, col) for all rows i, as an int64 vector."""
    return 1 - 2 * _parity(np.arange(1 << n, dtype=np.int64) & col)


Halves = list[np.ndarray]

# Working set of one butterfly block, in bytes: a block of every input plus
# its scratch.  A core's L2 holds it; see CHANGES.md for the sweep.
BLOCK_BYTES = 1 << 20


def _block_length(arrays: tuple[np.ndarray, ...], n_states: int) -> int:
    """Elements per block: the largest power of two up to N whose block of
    every array, with its scratch, fits in BLOCK_BYTES (at least one)."""
    column_bytes = 2 * sum(a.nbytes for a in arrays) // n_states
    fit = max(1, BLOCK_BYTES // column_bytes)
    return min(n_states, 1 << (fit.bit_length() - 1))


def _levels(views: list[np.ndarray], scratch: list[np.ndarray],
            combine: Callable[[Halves, Halves, Halves, Halves], None]) -> None:
    """All constant-geometry levels along the last axis, in place on views,
    swapping roles with scratch of their shape at each level."""
    half = views[0].shape[-1] // 2
    # each side's even, odd, first-half and second-half views, built once
    sides = [([a[..., 0::2] for a in side], [a[..., 1::2] for a in side],
              [a[..., :half] for a in side], [a[..., half:] for a in side])
             for side in (views, scratch)]
    levels = half.bit_length()
    for level in range(levels):
        (left, right, _, _), (_, _, plus, minus) = sides[level % 2], sides[1 - level % 2]
        combine(left, right, plus, minus)
    if levels % 2:  # an odd level count ends in the scratch
        for a, result in zip(views, scratch):
            np.copyto(a, result)


def butterfly(arrays: tuple[np.ndarray, ...],
              combine: Callable[[Halves, Halves, Halves, Halves], None]
              ) -> tuple[np.ndarray, ...]:
    """Natural-order butterfly along the last axis, in place; N = 2**n.

    Constant geometry (Pease, 1968): a run of levels over m elements passes
    them between a view and a scratch array of its shape, which swap roles
    at each level.  A level calls combine(left, right, plus, minus) once,
    on views: left and right are the even and odd elements src[..., 0::2]
    and src[..., 1::2], and plus and minus are the halves dst[..., :m/2]
    and dst[..., m/2:].  With plus = L + R and minus = L - R this is the
    +/-1 Walsh-Hadamard transform: plus serves the rows whose sign on R is
    +1, minus those whose sign is -1.

    A level moves the index bit it pairs on from the bottom to the top and
    shifts the others down one place, so level k of a run pairs the indices
    that differ in bit k, for k = 0 .. log2(m)-1 in that order, and after
    the run every index is back in natural order.  When the run's level
    count is odd, the result sits in the scratch and is copied back.

    The runs are cache-blocked (Bailey, 1990).  With B = _block_length(...):
    levels 0 .. b-1, b = log2(B), run on each contiguous block
    [..., s:s+B] in turn; levels b .. n-1 run on the (..., N/B, B) grid,
    where they pair rows, one column slab of about B elements at a time.
    When N <= B there is one block and no row level.  Each array gets one
    scratch array, about one block long, reused by every block and slab.

    Every output element is therefore built from the same combines of the
    same operands in the same level order as the natural-order butterfly
    that pairs the halves of each 2**(k+1)-block at level k, so the results
    are identical to the bit.
    """
    n_states = arrays[0].shape[-1]
    if n_states < 1 or n_states & (n_states - 1):
        raise ValueError(f"butterfly length must be a power of two, got {n_states}")
    block = _block_length(arrays, n_states)
    rows = n_states // block
    width = max(1, block // rows)
    scratch = [np.empty(a.shape[:-1] + (max(block, rows),), a.dtype) for a in arrays]
    in_block = [s[..., :block] for s in scratch]
    for start in range(0, n_states, block):
        _levels([a[..., start:start + block] for a in arrays], in_block, combine)
    if rows == 1:  # N <= B: no level pairs elements of different blocks
        return arrays
    # Splitting the last axis is a view for any strides, so the grid is the
    # arrays themselves.  Swapped, a slab has the row index on its last axis.
    grids = [a.reshape(a.shape[:-1] + (rows, block)) for a in arrays]
    slab = [s[..., :rows * width].reshape(s.shape[:-1] + (rows, width)).swapaxes(-1, -2)
            for s in scratch]
    for start in range(0, block, width):
        _levels([g[..., start:start + width].swapaxes(-1, -2) for g in grids], slab, combine)
    return arrays


def _sum_diff(left: Halves, right: Halves, plus: Halves, minus: Halves) -> None:
    # the +/-1 Walsh-Hadamard combine: plus = L + R, minus = L - R
    np.add(left[0], right[0], out=plus[0])
    np.subtract(left[0], right[0], out=minus[0])


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


# _exact_transform's Sylvester factors have at most 2**FACTOR_BITS rows
FACTOR_BITS = 6


@functools.cache
def _sylvester(bits: int) -> np.ndarray:
    """The read-only float64 Sylvester Hadamard matrix of 2**bits rows,
    whose entry (i, j) is hadamard_sign(i, j)."""
    h = hadamard(1 << bits, dtype=np.float64)
    h.flags.writeable = False
    return h


def _exact_transform(words: np.ndarray) -> np.ndarray:
    """The +/-1 transform of int64 words along the last axis, as a new
    float64 array, leaving words as they are; exact while every row's sum
    of |w| is at most 2**53.

    A sign splits over the index bits, hadamard_sign(i, j) being the product
    of the signs of any partition of their bits into fields, so H_N is the
    Kronecker product of Sylvester factors of at most 2**FACTOR_BITS rows
    and the transform is one float64 matrix product per factor, as in the
    four-step FFT but without twiddles (Bailey, 1990).  The factors hold
    +/-1 and the operands are integers, and every partial sum of a product
    is a signed sum of disjoint parts of one row, so bounded by its sum of
    |w|.  While that is at most 2**53, every operation is therefore exact,
    whatever order, blocking, FMA or thread count BLAS uses, and the
    float64 result holds exactly the butterfly's words.  The callers stay
    within it: _n_add transforms rows whose sum is at most max_raw, or
    blocks of at most 2**20 words of magnitude at most 2**31, and a sector pass whose sum
    passes it, possible only at n = 24, is rejected by _halves_certified's
    terms in the sums alone, before the image is read.
    """
    image = words.astype(np.float64)
    right = words.shape[-1]
    bits = right.bit_length() - 1
    factors = -(-bits // FACTOR_BITS)
    for k in range(factors):
        size_bits = (bits + k) // factors  # as even as possible, summing to bits
        size, h = 1 << size_bits, _sylvester(size_bits)
        right >>= size_bits
        if right == 1:  # the last factor: one product over contiguous rows; H = H^T
            image = image.reshape(-1, size) @ h
        else:
            image = np.matmul(h, image.reshape(-1, size, right))
    return image.reshape(words.shape)


# _n_add bounds 2**min(n, CERTIFIED_DEPTH) stream blocks; 4 is the least depth
# that certifies test_run_qaoa_holds_one_register's unsaturated q12.20 run
CERTIFIED_DEPTH = 4


def _top_levels_bound(words: np.ndarray, block_l1: np.ndarray) -> np.ndarray:
    """Finish the transform of words in place, whose blocks hold their own
    transforms and have sums of |w| block_l1, and return twice a bound on
    every prefix sum of every row's signed stream.

    In a block with transform Y and sum of |w| T, a prefix P with sum of |w|
    A has |P| <= A and |P| <= |Y(j)| + T - A: the leaf bound 2B(j) = |Y(j)| +
    T.  A pair L, R also has the pair bound max(2B_L(j), 2|Y_L(j)| +
    2B_R(j)), the children's rows taken modulo their width w, and its bound
    is the lesser of the two.  So a pair's bound never exceeds the leaf bound
    of the block it forms, and starting from smaller blocks never loosens
    the result.
    """
    # rows of the (2 * blocks, width) grid of words hold one block each
    width = words.shape[-1] // block_l1.shape[1]
    l1 = block_l1.reshape(-1, 1)
    bound = np.abs(words.reshape(-1, width))
    bound += l1
    while width < words.shape[-1]:
        pairs, children = words.reshape(-1, 2, width), bound.reshape(-1, 2, width)
        left, right = pairs[:, 0], pairs[:, 1]
        spanning = np.abs(left)
        spanning *= 2
        spanning += children[:, 1]
        np.maximum(spanning, children[:, 0], out=spanning)
        del bound, children  # free the children's bounds before the pair's
        # the level itself: the pair becomes the block (L + R, L - R)
        diff = left - right
        left += right
        right[...] = diff
        del diff
        width *= 2
        l1 = l1.reshape(-1, 2).sum(axis=-1, keepdims=True)
        bound = np.abs(words.reshape(-1, width))
        bound += l1
        halves = bound.reshape(-1, 2, width // 2)
        np.minimum(halves, spanning[:, None], out=halves)
        del halves, spanning  # a view of bound would keep it through the next level
    return bound


def _n_add(words: np.ndarray, fmt: FxFormat, ctx: FxContext) -> np.ndarray:
    """N_ADD of the (2, N) register of 1_MULT words, in place; returns words.

    Row i of the result is the saturating accumulation, from zero and in
    ascending column order c, of hadamard_sign(i, c) * words[:, c].  A row
    whose prefix sums all stay in [min_raw, max_raw] is the plain +/-1
    transform.  Two bounds prove that for every row, and then the transform
    is written to words and the flag is left as it is: sum(|w|) <= max_raw
    on each row of words, or else _top_levels_bound over 2**min(n,
    CERTIFIED_DEPTH) blocks.  _exact_transform computes the transform of
    the rows, or of the blocks for the block bound, as exact float64 matrix
    products, their sums of |w| bounding its partial sums.  When both bounds
    fail, the int64 butterfly undoes the transform in place (H H w = N w),
    and its entries summarise the signed sub-stream of one column block for
    one row sign pattern:

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

    Pass (a) is skipped when a row's whole sum leaves the range.  It runs on
    words, as its sum array, and two copies, freed before the clamp pass
    runs on words and two bound arrays (each pass 2.2 x words beside them
    at n = 18); when a row saturates, the transform in words is undone
    first.

    Words are below 2**31 in magnitude and N <= 2**24, so every sum stays
    below 2**56 and the int64 arithmetic is exact.  The undo, prefix and
    clamp passes stay on the butterfly: the words' sum of |w| does not
    bound the partial sums of a product with the finished transform, and
    the prefix and clamp combines are no products.
    """
    n = words.shape[-1].bit_length() - 1
    # splitting the last axis is a view, so the blocks are words themselves
    blocks = words.reshape(2, 1 << min(n, CERTIFIED_DEPTH), -1)
    block_l1 = np.abs(blocks).sum(axis=-1)
    if (block_l1.sum(axis=-1) <= fmt.max_raw).all():
        np.copyto(words, _exact_transform(words), casting="unsafe")
        return words
    np.copyto(blocks, _exact_transform(blocks), casting="unsafe")
    if _top_levels_bound(words, block_l1).max() <= 2 * fmt.max_raw:
        return words
    # a row whose whole sum leaves the range saturates: no prefix pass needed
    saturates = words.max() > fmt.max_raw or words.min() < fmt.min_raw
    butterfly((words,), _sum_diff)
    words >>= n
    if not saturates:
        _, t, b = butterfly((words, words.copy(), words.copy()), _prefix_combine)
        if not ((t > fmt.max_raw).any() or (b < fmt.min_raw).any()):
            return words
        del t, b  # only the check needed them; free them before the clamp pass
        butterfly((words,), _sum_diff)
        words >>= n
    ctx.overflow = True
    d, lo, hi = butterfly((words, np.full_like(words, fmt.min_raw),
                           np.full_like(words, fmt.max_raw)), _clamp_combine)
    return np.clip(d, lo, hi, out=words)


def init_uniform_state(n: int, fmt: FxFormat = FxFormat()) -> StateVector:
    """Equal-superposition start state with an exact power-of-two stored value.

    Stored amplitude is 2**-ceil(n/2); the residual scale (including the
    sqrt(2) for odd n) lives in scale_exp so the physical norm is exactly 1.
    """
    value, scale_exp = _uniform_start(n, fmt)
    amps = np.full(1 << n, value, dtype=np.complex128)
    return StateVector(amps=amps, scale_exp=scale_exp, n=n)


def _uniform_start(n: int, fmt: FxFormat) -> tuple[float, Fraction]:
    """init_uniform_state's stored amplitude and scale exponent."""
    check_qubit_count(n)
    half_up = (n + 1) // 2
    if fmt.frac_bits < half_up:
        raise ValueError(f"format {fmt.name} cannot store 2**-{half_up}")
    return 2.0 ** -half_up, Fraction(half_up) - Fraction(n, 2)


def _emit_op_trace(write: TraceWriter, n_states: int, layer: int, order: str,
                   neg_cos: np.ndarray, neg_sin: np.ndarray, overflow: bool):
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
            "op": 2 * layer + (order == "mixer"),
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


def _halves_certified(h: np.ndarray, l_lo: np.ndarray, l_up: np.ndarray, cost: bool,
                      fmt: FxFormat) -> bool:
    """Whether a sector pass's N_ADD provably saturates no row, from its
    N-stream's two halves: h is the N/2 transform of the pass's words, and
    l_lo and l_up each half's sum of |w| per row.

    Row i signs element c of either half by sign(i mod N/2, c), times
    (-1)**(bit n-1 of i) in the upper half, so each half's |Y|, its
    transform's magnitude, has period N/2 in i.  For a cost pass both
    halves' |Y| is |h|.  For a mixer pass, since
    sign(i, j) * (-1)**popcount(j) = sign(N/2-1-i, j), the lower half's Y
    is (h + rev h)/2 and the upper half's (h - rev h)/2, rev h = h[::-1].
    _top_levels_bound's pair bound, max(|Y_lo| + l_lo, 2|Y_lo| + |Y_up| +
    l_up) <= 2 max_raw, then certifies every prefix of every row; it holds
    whenever l_lo + l_up <= max_raw, which is tried first.

    h may be _exact_transform's float64 image.  While the words' sum of
    |w| is at most 2**53 it is exact, and a rounded sum here can only pass
    2**53, far above the limits compared with, so every comparison is
    decided as in int64.  Past that, l_up (cost) or l_lo + l_up (mixer)
    passes 2**53, and the terms in the sums alone exceed the limits
    whatever |h| is, so an inexact image certifies nothing.
    """
    if (l_lo + l_up <= fmt.max_raw).all():
        return True
    if cost:
        return bool((3 * np.abs(h).max(axis=-1) + l_up <= 2 * fmt.max_raw).all())
    # 2|Y_lo| and 2|Y_up| are their own mirror: half of the rows suffice
    rows = (h.shape[-1] + 1) // 2
    h, rev = h[:, :rows], h[:, ::-1][:, :rows]
    lower = np.add(h, rev)
    np.abs(lower, out=lower)
    upper = np.subtract(h, rev)
    np.abs(upper, out=upper)
    upper += lower
    upper += lower
    limit = 4 * fmt.max_raw
    return bool((lower.max(axis=-1) + 2 * l_lo <= limit).all()
                and (upper.max(axis=-1) + 2 * l_up <= limit).all())


def _sector_n_add(words: np.ndarray, order: str, sector: ParitySector, fmt: FxFormat,
                  ctx: FxContext) -> np.ndarray:
    """N_ADD of a pass run in the parity sector (see run_qaoa) on its N/2
    1_MULT words; returns the register the pass leaves.

    The pass's N product words stream as two halves: words, then words
    reversed, for a cost pass; for a mixer pass, words at the sector's
    states, 0 elsewhere, that is the words off sector.odd, then those on
    it.  When _halves_certified proves that no row saturates, N_ADD is the
    plain transform, and since sign(i, N-1-c) = sign(i, c) *
    (-1)**popcount(i), and sign(i, c) for c < N/2 depends only on i mod N/2:
    - after a cost pass the odd-popcount rows are exactly 0, and an even
      one is twice row i mod N/2 of the N/2 transform of words, which is
      therefore the register e;
    - after a mixer pass the result is its own mirror, and its lower half is
      the N/2 transform of words, the register h.

    _exact_transform computes that transform as a float64 image, and words
    keep the 1_MULT words until the bound has been read.  A certified pass writes
    the image to words.  Otherwise no transform needs undoing: the full
    (2, N) product is built from words and _n_add runs on it with a local
    context.  If no row saturated, its result is still the plain transform,
    and the run returns to the sector in words.  If one did, the full
    register is returned: a saturating cost pass can leave odd-popcount
    rows non-zero, though a mixer pass's result is still its own mirror,
    row N-1-i signing every streamed word as row i does.
    """
    half = words.shape[-1]
    cost = order == "cost"
    magnitudes = np.abs(words)
    l1 = magnitudes.sum(axis=-1)
    l_up = l1 if cost else magnitudes @ sector.odd
    l_lo = l1 if cost else l1 - l_up
    del magnitudes
    h = _exact_transform(words)
    if _halves_certified(h, l_lo, l_up, cost, fmt):
        if cost:
            h *= 2
        np.copyto(words, h, casting="unsafe")
        return words
    del h  # words still hold the 1_MULT words: free the image before the product
    full = np.empty((2, 2 * half), dtype=np.int64)
    lower, upper = full[:, :half], full[:, half:]
    if cost:
        lower[...] = words
        upper[...] = words[:, ::-1]
    else:  # no scatter: word j goes to state j + N/2 where odd[j], else to j
        np.multiply(words, sector.odd, out=upper)
        np.subtract(words, upper, out=lower)
    local = FxContext()
    _n_add(full, fmt, local)
    if local.overflow:
        ctx.overflow = True
        return full
    if cost:  # one word of each pair {j, j + N/2} is 0
        return np.add(lower, upper, out=words)
    words[...] = lower
    return words


def run_elemental_ansatz(words: np.ndarray, angles: np.ndarray, cfg: PipelineConfig,
                         ctx: FxContext | None = None,
                         trace_writer: TraceWriter | None = None,
                         layer: int = 0, order: str = "cost",
                         expand: Expand = _stream_as_is,
                         sector: ParitySector | None = None) -> np.ndarray:
    """One streamed phase-and-transform pass: out = H1 . (diag(e^{i angles}) . in).

    words is the (2, N) int64 register of the N input amplitudes; the pass
    overwrites it with the result register, which replaces the state at
    drain, N + PIPELINE_LATENCY clocks later, and returns it, holding beside
    it only the phasors and 1_MULT's rounding temporaries.  Saturation
    anywhere sets the sticky flag on ctx but the run continues.

    The elements stream expand(angles), which must give N of them.  With a
    table's expand, angles holds the distinct angles, every one of them
    streamed: the angle stages and CORDIC run once per distinct angle, and
    their words are expanded before 1_MULT.

    With run_qaoa's sector, a register of N/2 words holds the state in its
    parity sector.  1_MULT then runs on those words, taking the distinct
    angles' words as they are in a cost pass and by sector.expand in a
    mixer pass, and N_ADD is _sector_n_add, whose register is returned;
    the trace still streams expand(angles).
    """
    n_states = 1 << sector.n if sector is not None else words.shape[-1]
    in_sector = words.shape[-1] < n_states
    if ctx is None:
        ctx = FxContext()
    fmt = cfg.fmt

    # Per-element stages, batch-evaluated (elements interact only in N_ADD):
    # CALCULATE_RAD quantizes the angle, NORMALIZE_RAD folds it and CORDIC
    # turns it into a unit phasor.  They are pure functions of the angle and
    # their flags depend only on the set of angles: the distinct ones suffice.
    rad = fxp.vec_from_real(angles, fmt, ctx)
    # the trace's sign bits, kept only when tracing
    if trace_writer is not None:
        _, neg_cos, neg_sin = fxp.vec_normalize_rad(fxp.vec_reduce_mod_2pi(rad, fmt), fmt)
    cos_raw, sin_raw = fxp.vec_sincos(rad, fmt)
    del rad  # free the angle words before 1_MULT
    if in_sector:
        stream = sector.expand if order == "mixer" else _stream_as_is
    else:
        stream = expand
    cos_raw, sin_raw = stream(cos_raw), stream(sin_raw)
    if cos_raw.shape != (words.shape[-1],):
        raise ValueError(f"expected {words.shape[-1]} angles, streamed {cos_raw.shape}")
    fxp.vec_cmul(words, cos_raw, sin_raw, fmt, ctx)
    del cos_raw, sin_raw  # free them before N_ADD

    # N_ADD: the hardware accumulates the product stream into all N slots in
    # ascending stream order, saturating after each addition; _n_add gives
    # the same words and flag by butterflies over the register, in place.
    if in_sector:
        words = _sector_n_add(words, order, sector, fmt, ctx)
    else:
        _n_add(words, fmt, ctx)

    if trace_writer is not None:
        _emit_op_trace(trace_writer, n_states, layer, order,
                       expand(neg_cos), expand(neg_sin), ctx.overflow)
    return words


def run_layer(words: np.ndarray, d_cost_angles: np.ndarray,
              d_mixer_angles: np.ndarray, cfg: PipelineConfig,
              ctx: FxContext | None = None, trace_writer: TraceWriter | None = None,
              layer: int = 0, cost_expand: Expand = _stream_as_is,
              mixer_expand: Expand = _stream_as_is,
              sector: ParitySector | None = None) -> np.ndarray:
    """Cost pass, mixer pass, then the end-of-layer arithmetic right shift.

    Updates the (2, N) register words in place and returns it.  The two
    passes grow the state by exactly 2**n in norm, so the n-bit shift
    realizes the layer's 1/2**n factor and leaves the scale exponent
    unchanged.  Each pass streams its expand of its angles.  With a sector,
    a pass may return a new register (run_elemental_ansatz), and the layer
    returns the one it leaves.
    """
    n = sector.n if sector is not None else words.shape[-1].bit_length() - 1
    words = run_elemental_ansatz(words, d_cost_angles, cfg, ctx, trace_writer, layer=layer,
                                 order="cost", expand=cost_expand, sector=sector)
    words = run_elemental_ansatz(words, d_mixer_angles, cfg, ctx, trace_writer, layer=layer,
                                 order="mixer", expand=mixer_expand, sector=sector)
    words >>= n
    return words


def run_qaoa(g: WeightedGraph, params: QaoaParams, cfg: PipelineConfig = PipelineConfig(),
             trace_writer: TraceWriter | None = None) -> EngineRun:
    """Full accelerator run: uniform init, then p layers of cost+mixer passes.

    The tables are g.cost_table, mixer_table(n) and sector_table(n).  Each
    pass evaluates its distinct angles only: the cost passes the N/2 of the
    lower half, mirrored, the mixer passes the n + 1 levels, gathered by
    popcount.

    The register holds the state's parity sector, N/2 words per row: the
    start state and each cost-pass product are their own mirror, so before
    a cost pass it is the lower half h, and after one the words e at the
    even-popcount states (sector_table; _sector_n_add says why).  After an
    N_ADD that saturates, the run holds the full (2, N) register to the
    end, as a cost pass may then leave odd-popcount states non-zero (a
    mixer pass from the sector stays its own mirror).  Words, flags,
    counts and traces are those of the full-N passes.
    """
    n = g.num_vertices
    n_states = 1 << n
    diag = g.cost_table  # rejects n above MAX_QUBITS before allocating
    mixer, sector = mixer_table(n), sector_table(n)
    value, scale_exp = _uniform_start(n, cfg.fmt)
    words = np.zeros((2, n_states // 2), dtype=np.int64)
    words[0] = fxp.vec_from_real(np.full(1, value), cfg.fmt)
    ctx = FxContext()
    for layer in range(params.p):
        words = run_layer(words, cost_half_angles(diag, params.gamma[layer]),
                          mixer_level_angles(mixer, params.beta[layer]),
                          cfg, ctx, trace_writer, layer=layer, cost_expand=diag.expand,
                          mixer_expand=mixer.expand, sector=sector)
    ops = 2 * params.p
    counts = OpCounts(mults=ops * n_states, adds=ops * n_states * n_states,
                      cycles_per_op=[n_states + PIPELINE_LATENCY] * ops,
                      overflow=ctx.overflow)
    amps = np.empty(n_states, dtype=np.complex128)
    for part, row in zip((amps.real, amps.imag), words):
        part[:row.size] = fxp.vec_to_float(row, cfg.fmt)
        if row.size < n_states:  # the sector's h: the state is h, then h reversed
            part[row.size:] = part[row.size - 1::-1]
    return EngineRun(StateVector(amps=amps, scale_exp=scale_exp, n=n), counts)
