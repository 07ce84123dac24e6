"""Cycle-accurate fixed-point model of the MaxCut accelerator pipeline.

Each half-layer is one elemental operation: stream the N diagonal elements
through CALCULATE_RAD -> NORMALIZE_RAD -> CORDIC(16) -> 1_MULT, one element
per clock in steady state, while N_ADD applies the streamed complex product
to all N accumulator slots in parallel with +/-1 column signs, saturating
after every addition.  An operation therefore takes N + PIPELINE_LATENCY
clocks and costs N complex multiplies plus N*N complex additions; those
modelled counts and the per-clock trace describe that streamed datapath.

The state is a batch register, the one shape every pass takes and all
that it returns: the (2, B, M) int64 real and imaginary rows of B items,
item b at [:, b], M = N/2 words per row in the state's parity sector and
M = N on the full register.  A pass overwrites it in place, as the result
register replaces the state memory at drain; run_qaoa_batch steps one
register and one FxContext per batch, builds each item's float64
StateVector once, at readout (words of <= 32 bits make that image
lossless), and run_qaoa is its batch of one.  A run starts in the parity
sector (complement symmetry; Shaydulin & Wild, IEEE TQE 2, 2021): the
lower half h before a cost pass, the even-popcount words e after one.
Every pass runs an N/2 1_MULT and an N/2 transform (_sector_n_add), which
is an item's N_ADD when the pair bound over the two halves of its
N-stream, read off that transform, certifies that no row saturates
(_pair_bound_holds); any other item runs _stream_passes on its full
(2, N) product.  Once an item's N_ADD saturates, the batch leaves the
sector together, onto one (2, B, N) register, and _n_add certifies each
item on its own from there to readout.
1_MULT (fxp.vec_cmul) rounds its products in place on the register.  It
is given the CORDIC table's peak |cos|, |sin| word (fxp.cordic_peak), and
when one extreme scan of the register shows that no product and no sum can
leave the word range it takes them with no clips; otherwise it clips each
product and each sum, with the flag.  A run peaks in 1_MULT: at 2.25
times the full register when every pass is certified, and at 4.25 times
on the full register, at n = 16 and 20.  A sector N_ADD peaks at 1.75
times (the words, the transform's float64 image and its last product):
a cost pass's pair bound takes its terms from two reductions of the
image, with no N/2 temporary.  A pass that takes the full-N passes holds
the N/2 words beside them (up to 4.45 times where a q7.25 pass at n = 16
clamps).

Every stage acts elementwise or along the last axis, on (B, K) angles, so
it runs once per batch.  Each decision is the item's own, its flag one of
the batch's FxContext: CALCULATE_RAD's by its row's extremes, 1_MULT's by
its words (if the batch-wide scan is not safe, all items take the clips,
which change no word that would not clip), and the certificates by
reductions along the last axis.  A batch holds at most BATCH_WORDS =
2**16 words per row in the sector, twice that on the full register.

The host evaluates the datapath in a different order with identical words
and flags.  Each pass evaluates its per-element stages on whole arrays,
which is value-identical to streaming as elements interact only in N_ADD.
CALCULATE_RAD, NORMALIZE_RAD, CORDIC and the sign restore (the last three
in one kernel, fxp.vec_sincos) run only on the distinct angles of a pass,
and their words are expanded to the N streamed elements before 1_MULT by
the pass's table, read off the run's cost table: a cost pass evaluates the
N/2 angles of the states with bit n-1 clear and mirrors them (the cost
table is symmetric under complementing every bit), a mixer pass the n + 1
angles u*beta, u = -n, -n+2, ..., n, gathered by popcount (mixer_table(n)).
Their saturation flags depend only on the set of angles, which is the
same.  As in the hardware, the cost and mixer passes share no stage:
each runs its own CALCULATE_RAD, so its flag is that of its own
angles, raised before any trace record of the pass reads it.
CORDIC is evaluated by a per-format decision-interval table
(fxp.vec_cordic_sincos), which gives the 16 stages' words in one O(1)
lookup through a bucket index over the input range.
N_ADD, defined as accumulation in ascending stream order, is computed in
O(N log N) by transforms (_n_add).  The +/-1 transforms of the 1_MULT
words, which the certificates read, are a few float64 BLAS products with
Kronecker factors of H (_exact_transform): every partial sum is an
integer bounded by the row's sum of |w|, within EXACT_L1 = 2**53 wherever
the result is used, so each product is exact in any summation order and
the words are those of the int64 butterfly.  _n_add certifies from that
one image, by the row's sum of |w| or the pair bound.  The prefix, undo
and clamp passes, and reference.fwht_inplace, whose float64 sums depend
on their order, run on the cache-blocked, constant-geometry driver
(butterfly), which applies the same combines in the same order as the
natural-order butterfly, so words and flags are identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import fxp
from .diagonals import (CostDiagonal, MixerExponents, cost_half_angles, mixer_level_angles,
                        mixer_table)
from .diagonals import build_cost_diagonal  # noqa: F401  unused; in perfbench's SITES
from .fxp import FxContext, FxFormat
from .graph import WeightedGraph, check_qubit_count

# Stage depths: CALCULATE_RAD 1 + NORMALIZE_RAD 1 + CORDIC 16 + 1_MULT 1.
PIPELINE_LATENCY = 1 + 1 + fxp.CORDIC_STAGES + 1
CLOCK_HZ = 100_000_000  # reported times are cycles / CLOCK_HZ, labeled derived

TraceWriter = Callable[[dict], None]


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
    # whose map is (-d, -hi - 1, -lo - 1); np.clip's wrapper costs more
    # than its work at most levels' sizes, so it is spelt maximum, minimum
    (dl, lol, hil), (dr, lor, hir) = left, right
    np.add(dl, dr, out=plus[0])
    np.minimum(np.maximum(lol + dr, lor, out=plus[1]), hir, out=plus[1])
    np.minimum(np.maximum(hil + dr, lor, out=plus[2]), hir, out=plus[2])
    neg_lo, neg_hi = -hir - 1, -lor - 1
    np.subtract(dl, dr, out=minus[0])
    np.minimum(np.maximum(lol - dr, neg_lo, out=minus[1]), neg_hi, out=minus[1])
    np.minimum(np.maximum(hil - dr, neg_lo, out=minus[2]), neg_hi, out=minus[2])


# _exact_transform's Sylvester factors have at most 2**FACTOR_BITS rows
FACTOR_BITS = 6


@functools.cache
def _sylvester(bits: int) -> np.ndarray:
    """The read-only float64 Sylvester Hadamard matrix of 2**bits rows,
    whose entry (i, j) is hadamard_sign(i, j)."""
    i = np.arange(1 << bits)
    h = (1 - 2 * _parity(i[:, None] & i)).astype(np.float64)
    h.flags.writeable = False
    return h


def _exact_transform(words: np.ndarray) -> np.ndarray:
    """The +/-1 transform of int64 words along the last axis, as a new
    float64 array, leaving words as they are; exact while every row's sum
    of |w| is at most EXACT_L1 = 2**53.

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
    within it: _n_add transforms whole rows only when each has a sum of |w|
    at most EXACT_L1, and a sector pass whose words pass it, possible only
    at n = 24, is rejected by _pair_bound_holds's sum terms alone and reads
    no whole sum off its image.
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


# _exact_transform's image is exact while every row's sum of |w| is at most this
EXACT_L1 = 1 << 53


def _pair_bound_holds(y_lo: np.ndarray, y_up: np.ndarray | int, l_lo: np.ndarray,
                      l_up: np.ndarray, fmt: FxFormat) -> np.ndarray:
    """Whether N_ADD provably saturates no row of an N-stream, from its plain
    +/-1 transform Y: y_lo and y_up are rows i and i + N/2 of Y, in either
    order within a pair, and l_lo and l_up each stream half's sum of |w|
    per row: a bool for (2, N/2) halves, one per item for a (2, B, N/2) batch.

    Rows i and i + N/2, i < N/2, sign the lower half alike and the upper
    half oppositely, so with A and B the N/2 transforms of the two halves,
    Y is A + B on the lower rows and A - B on the upper ones: 2|A| =
    |y_lo + y_up| and 2|B| = |y_lo - y_up| on both rows of a pair.  A
    prefix P of a half with transform X and sum of |w| T, with S its own
    sum of |w|, has |P| <= S and |P| <= |X| + T - S, so 2|P| <= |X| + T.
    A prefix of a row's stream is such a prefix of the lower half, or A
    plus one of the upper half, so the pair bound
    max(|A| + l_lo, 2|A| + |B| + l_up) <= 2 max_raw certifies every prefix
    of both rows.  It holds whenever l_lo + l_up <= max_raw, tried first.
    A cost pass's y_up is 0, so 2|A| = 2|B| = |y_lo|: with M = max|y_lo|,
    two reductions, the terms are M + 2 l_lo and 3M + 2 l_up <= 4 max_raw.

    The y may be float64 images, exact while l_lo + l_up <= EXACT_L1: a
    rounded sum here then only passes 2**53, far above the limits, so every
    comparison is decided as in int64; past it, l_lo or l_up alone exceeds
    the limits, so an inexact image certifies nothing.
    """
    by_sums = l_lo + l_up <= fmt.max_raw
    if by_sums.all():
        return by_sums[0]  # true for every item
    if np.ndim(y_up) == 0:  # the 0 of a cost pass
        lower = np.maximum(y_lo.max(axis=-1), -y_lo.min(axis=-1))
        upper = 3 * lower
    else:
        lower = np.add(y_lo, y_up)  # 2|A|
        np.abs(lower, out=lower)
        upper = np.subtract(y_lo, y_up)  # then 4|A| + 2|B|
        np.abs(upper, out=upper)
        upper += lower
        upper += lower
        lower, upper = lower.max(axis=-1), upper.max(axis=-1)
    limit = 4 * fmt.max_raw
    return ((lower + 2 * l_lo <= limit) & (upper + 2 * l_up <= limit)).all(axis=0)


def _n_add(words: np.ndarray, fmt: FxFormat, ctx: FxContext) -> np.ndarray:
    """N_ADD of the (2, B, N) register of 1_MULT words, in place; returns
    words.  Row i of item b's result is the saturating accumulation, from
    zero and in ascending column order c, of hadamard_sign(i, c) *
    words[:, b, c]; a row that saturates raises ctx.overflow[b].

    A row whose prefix sums all stay in [min_raw, max_raw] is the plain
    +/-1 transform Y.  _exact_transform computes Y into a float64 image
    beside words, exact while every row's sum of |w| is at most EXACT_L1,
    and an item whose pair bound over its two halves holds
    (_pair_bound_holds) takes its Y from the image.  For any other item, a
    row whose whole sum, read off the image, leaves the range saturates,
    and _stream_passes finds the result from its 1_MULT words.  Past
    EXACT_L1, possible only at n >= 23, no image is taken: it could never
    certify such a row, but an inexact one could fake that shortcut.
    """
    half = words.shape[-1] // 2
    l_lo, l_up = np.moveaxis(np.abs(words).reshape(words.shape[:-1] + (2, half)).sum(-1), -1, 0)
    fallback = dict.fromkeys(range(words.shape[1]), False)  # item -> a whole sum leaves
    if (l_lo + l_up <= EXACT_L1).all():
        image = _exact_transform(words)
        holds = _pair_bound_holds(image[..., :half], image[..., half:], l_lo, l_up, fmt)
        for row, certified in enumerate(holds.tolist()):
            if certified:
                np.copyto(words[:, row], image[:, row], casting="unsafe")
                del fallback[row]
            else:
                fallback[row] = bool(image[:, row].max() > fmt.max_raw
                                     or image[:, row].min() < fmt.min_raw)
        del image  # free it before the passes
    for row, saturates in fallback.items():
        if _stream_passes(words[:, row], fmt, saturates):
            ctx.overflow[row] = True
    return words


def _stream_passes(words: np.ndarray, fmt: FxFormat, saturates: bool) -> bool:
    """N_ADD of one item's (2, N) 1_MULT words, in place, by butterfly
    passes; returns whether a row saturated.  saturates says that a row's
    whole sum is known to leave the range.

    The int64 butterfly's entries summarise the signed sub-stream of one
    column block for one row sign pattern:

    (a) its sum s and its largest (t) and smallest (b) unclipped prefix
        sum.  Clipped and unclipped accumulation agree up to the first
        addition that leaves [min_raw, max_raw], so a row saturates exactly
        when its t or b lies outside; the other rows' result is s.
    (b) only then, the clamp map a -> clip(a + d, lo, hi) the sub-stream
        applies to the accumulator.  Each saturating addition is such a map,
        and the family is closed under composition.  Negating a stream
        conjugates its map by a -> -a - 1, which maps [min_raw, max_raw]
        onto itself since min_raw = -max_raw - 1.  The result is the whole
        stream's map applied to 0.

    Pass (a) is skipped when saturates is true.  It runs on words, as its
    sum array, and two copies, freed before the clamp pass runs on words,
    its transform undone (H H = N I), and two bound arrays; either pass
    holds 2.2 x words beside them at n = 18.

    Words are below 2**31 in magnitude and N <= 2**24, so every sum stays
    below 2**56 and the int64 arithmetic is exact.  The undo, prefix and
    clamp passes stay on the butterfly: the words' sum of |w| does not bound
    the undo's product with a transform, and the prefix and clamp combines
    are no products.
    """
    if not saturates:
        _, t, b = butterfly((words, words.copy(), words.copy()), _prefix_combine)
        if not ((t > fmt.max_raw).any() or (b < fmt.min_raw).any()):
            return False
        del t, b  # only the check needed them; free them before the clamp pass
        butterfly((words,), _sum_diff)
        words >>= words.shape[-1].bit_length() - 1
    d, lo, hi = butterfly((words, np.full_like(words, fmt.min_raw),
                           np.full_like(words, fmt.max_raw)), _clamp_combine)
    np.minimum(np.maximum(d, lo, out=words), hi, out=words)
    return True


def init_uniform_state(n: int, fmt: FxFormat = FxFormat()) -> StateVector:
    """Equal-superposition start state with an exact power-of-two stored value.

    Stored amplitude is 2**-ceil(n/2); the residual scale (including the
    sqrt(2) for odd n) lives in scale_exp so the physical norm is exactly 1.
    """
    value, scale_exp = _uniform_start(n, fmt)
    amps = np.full(1 << n, value, dtype=np.complex128)
    return StateVector(amps=amps, scale_exp=scale_exp, n=n)


@functools.lru_cache(maxsize=None)
def _uniform_start(n: int, fmt: FxFormat) -> tuple[float, Fraction]:
    """init_uniform_state's stored amplitude and scale exponent, built once
    per (n, fmt)."""
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


def _sector_n_add(words: np.ndarray, order: str, mixer: MixerExponents, fmt: FxFormat,
                  ctx: FxContext) -> np.ndarray:
    """N_ADD of a pass run in the parity sector (see run_qaoa) on the
    (2, B, N/2) register of its 1_MULT words; returns the result register.

    An item's N product words stream as two halves: words, then words
    reversed, for a cost pass; for a mixer pass, words at the sector's
    states, 0 elsewhere, that is the words off mixer.odd, then those on
    it.  Its plain transform Y follows from the N/2 transform h of words,
    since sign(i, N-1-c) = sign(i, c) * (-1)**popcount(i), and sign(i, c)
    for c < N/2 depends only on i mod N/2:
    - after a cost pass the odd-popcount rows, one of each pair {j, j +
      N/2}, are exactly 0, and an even one is row i mod N/2 of 2h, the
      register e: Y's pairs are (2h, 0) in some order;
    - after a mixer pass the result is its own mirror, and its lower half
      is h, the register: Y's pairs are (h, rev h), rev h = h[::-1].

    _exact_transform computes every item's h as one float64 image, doubled
    in place after a cost pass, while words keep the 1_MULT words.  An
    item whose Y _pair_bound_holds certifies takes its row of the image.
    For any other item no transform needs undoing: Y's whole sums are its
    row's and 0, so a row saturates where that row leaves the range, and
    _stream_passes runs on the item's full (2, N) product, its words
    _unfold-ed.  If no row saturated, the result is still the plain
    transform, which goes back into the item's row, and the register is
    words, in place.  If one did, its flag is raised and the whole batch
    leaves the sector, as a saturating cost pass can leave odd-popcount
    rows non-zero (a mixer pass's result is still its own mirror, row
    N-1-i signing every streamed word as row i does).  The pass then
    returns one new (2, B, N) register, at most 2 * BATCH_WORDS words per
    row: a saturating item's row is its own full-N result, and any other
    row its sector result _unfold-ed in the other order's layout, e spread
    by mixer.odd after a cost pass, [h, h reversed] after a mixer pass.
    """
    half = words.shape[-1]
    cost = order == "cost"
    magnitudes = np.abs(words)
    l1 = magnitudes.sum(axis=-1)
    l_up = l1 if cost else magnitudes @ mixer.odd
    l_lo = l1 if cost else l1 - l_up
    del magnitudes
    h = _exact_transform(words)
    if cost:
        h *= 2
    rows = (half + 1) // 2  # a mixer pass's |h +- rev h| is its own mirror
    y_lo, y_up = (h, 0) if cost else (h[..., :rows], h[..., ::-1][..., :rows])
    holds = _pair_bound_holds(y_lo, y_up, l_lo, l_up, fmt)
    del y_lo, y_up
    fallback = {}  # item -> (its full product, whether a whole sum leaves the range)
    for row in [row for row, certified in enumerate(holds.tolist()) if not certified]:
        exact = (l_lo[:, row] + l_up[:, row] <= EXACT_L1).all()
        fallback[row] = (_unfold(words[:, row], cost, mixer),
                         bool(exact and (h[:, row].max() > fmt.max_raw
                                         or h[:, row].min() < fmt.min_raw)))
    np.copyto(words, h, casting="unsafe")
    del h  # the products hold the rejected items' 1_MULT words: free the image first
    saturated = []
    for row, (full, saturates) in fallback.items():
        if _stream_passes(full, fmt, saturates):
            saturated.append(row)
        else:  # the plain transform; a cost pass's pairs {j, j + N/2} hold one 0
            words[:, row] = full[:, :half] + full[:, half:] if cost else full[:, :half]
    if not saturated:
        return words
    ctx.overflow[saturated] = True
    words = _unfold(words, not cost, mixer)  # the batch leaves the sector together
    for row in saturated:
        words[:, row] = fallback[row][0]
    return words


def _unfold(words: np.ndarray, mirror: bool, mixer: MixerExponents) -> np.ndarray:
    """Sector words on all N states along the last axis, as a new array:
    words, then words reversed, if mirror (a cost pass's product); else
    words at the sector's states, 0 elsewhere (a mixer pass's product),
    with no scatter: word j goes to state j + N/2 where mixer.odd[j]."""
    upper = words[..., ::-1] if mirror else words * mixer.odd
    return np.concatenate((words if mirror else words - upper, upper), axis=-1)


def run_elemental_ansatz(words: np.ndarray, angles: np.ndarray, cfg: PipelineConfig,
                         ctx: FxContext | None = None,
                         trace_writer: TraceWriter | None = None,
                         layer: int = 0, order: str = "cost",
                         diag: CostDiagonal | None = None) -> np.ndarray:
    """One streamed phase-and-transform pass: out = H1 . (diag(e^{i angles}) . in).

    words is a batch, the (2, B, M) int64 register of B items, item b at
    [:, b] with its flag ctx.overflow[b] (a bool array, all clear if ctx is
    None), and angles are (B, K), row b item b's; every decision is the
    item's own (see the module docstring).  The pass returns the result
    register, which replaces the state at drain, N + PIPELINE_LATENCY
    clocks later: words, overwritten in place, unless the batch leaves the
    parity sector (below); beside it the pass holds only the phasors and
    1_MULT's rounding temporaries.  Saturation sets the item's sticky flag
    but its run continues.

    With diag=None the register holds M = N words per row and the elements
    stream the N angles as given.  Given the run's cost table diag, angles
    are the distinct angles of the pass's table, diag or mixer_table(diag.n):
    N/2 in a cost pass, n + 1 in a mixer pass, or a ValueError.  The
    elements stream the table's expand of them: the angle stages and
    CORDIC run once per distinct angle, and their words are expanded before
    1_MULT.  CALCULATE_RAD raises the flag when one of the item's own
    angles saturates.

    A register of M = N/2 words then holds the state in its parity sector
    (see run_qaoa): 1_MULT takes the distinct angles' words as they are in
    a cost pass and by the mixer's sector_expand in a mixer pass, N_ADD is
    _sector_n_add, and the trace still streams the table's expand.  When an
    item's N_ADD saturates there, the pass returns one new (2, B, N)
    register for the whole batch.  On the full register, M = N, N_ADD is
    _n_add, in place.  Only a batch of one takes a trace_writer.
    """
    n_states = words.shape[-1] if diag is None else len(diag.entries)
    in_sector = words.shape[-1] < n_states
    mixer = None if diag is None else mixer_table(diag.n)
    table = diag if order == "cost" else mixer
    stream = expand = _stream_as_is if table is None else table.expand
    if diag is not None:
        distinct = n_states // 2 if order == "cost" else diag.n + 1
        if angles.shape[-1] != distinct:
            raise ValueError(f"expected {distinct} distinct {order} angles, "
                             f"got {angles.shape[-1]}")
    if ctx is None:
        ctx = FxContext(np.zeros(words.shape[1], dtype=bool))
    fmt = cfg.fmt

    # Per-element stages, on whole arrays (elements interact only in N_ADD):
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
        stream = mixer.sector_expand if order == "mixer" else _stream_as_is
    cos_raw, sin_raw = stream(cos_raw), stream(sin_raw)
    if cos_raw.shape != words.shape[1:]:
        raise ValueError(f"expected {words.shape[-1]} angles, streamed {cos_raw.shape}")
    # the CORDIC's words bound |cos| and |sin|: 1_MULT skips its clips when
    # the register's largest word cannot saturate against them
    fxp.vec_cmul(words, cos_raw, sin_raw, fmt, ctx, peak=fxp.cordic_peak(fmt))
    del cos_raw, sin_raw  # free them before N_ADD

    # N_ADD: the hardware accumulates the product stream into all N slots in
    # ascending stream order, saturating after each addition; _n_add gives
    # the same words and flag by butterflies over the register, in place.
    words = (_sector_n_add(words, order, mixer, fmt, ctx) if in_sector
             else _n_add(words, fmt, ctx))

    if trace_writer is not None:
        _emit_op_trace(trace_writer, n_states, layer, order, expand(neg_cos)[0],
                       expand(neg_sin)[0], bool(ctx.overflow[0]))
    return words


def run_layer(words: np.ndarray, d_cost_angles: np.ndarray,
              d_mixer_angles: np.ndarray, cfg: PipelineConfig,
              ctx: FxContext | None = None, trace_writer: TraceWriter | None = None,
              layer: int = 0, diag: CostDiagonal | None = None) -> np.ndarray:
    """Cost pass, mixer pass, then the end-of-layer arithmetic right shift,
    on the (2, B, M) register of a batch and its context (all clear if ctx
    is None); returns the result register, as a pass does (see
    run_elemental_ansatz).

    The two passes grow the state by exactly 2**n in norm, so the n-bit
    shift realizes the layer's 1/2**n factor and leaves the scale exponent
    unchanged.  Each pass runs its own angle stages, on N angles or, given
    the cost table diag, on its table's distinct ones.
    """
    n = diag.n if diag is not None else words.shape[-1].bit_length() - 1
    if ctx is None:
        ctx = FxContext(np.zeros(words.shape[1], dtype=bool))
    for order, angles in (("cost", d_cost_angles), ("mixer", d_mixer_angles)):
        words = run_elemental_ansatz(words, angles, cfg, ctx, trace_writer, layer=layer,
                                     order=order, diag=diag)
    words >>= n
    return words


def run_qaoa(g: WeightedGraph, params: QaoaParams, cfg: PipelineConfig = PipelineConfig(),
             trace_writer: TraceWriter | None = None) -> EngineRun:
    """Full accelerator run: uniform init, then p layers of cost+mixer passes,
    as a batch of one (run_qaoa_batch), the only batch that takes a trace.

    Each pass is given the cost table g.cost_table and evaluates its
    table's distinct angles only (run_elemental_ansatz).

    The register holds the state's parity sector, N/2 words per row: the
    start state and each cost-pass product are their own mirror, so before
    a cost pass it is the lower half h, and after one the words e at the
    even-popcount states (the mixer table's odd; _sector_n_add says why).
    Every pass certifies with _pair_bound_holds, as _n_add does.  From an
    N_ADD that saturates, the run's batch holds the full (2, 1, N) register
    to readout.  Words, flags, counts and traces are those of the full-N
    passes.
    """
    return run_qaoa_batch(g, [params], cfg, trace_writer)[0]


# A batch holds at most this many words per row in the sector, B * N/2,
# twice that on the full register: from n = 17 on, B = 1
BATCH_WORDS = 1 << 16


def run_qaoa_batch(g: WeightedGraph, points: list[QaoaParams],
                   cfg: PipelineConfig = PipelineConfig(),
                   trace_writer: TraceWriter | None = None) -> list[EngineRun]:
    """run_qaoa of each point, all with one layer count, as batches of at
    most BATCH_WORDS words per row in the sector (see the module docstring).

    A batch is one (2, B, M) register and one FxContext of B flags, item b
    point b.  Each layer runs it through run_layer, with (B, K) angles of
    one broadcast product per pass.  It starts in the parity sector, and
    from the pass where an item's N_ADD saturates it holds one full
    (2, B, N) register to readout.  Each item's words, flag and counts are
    those of its own run, and only a batch of one takes a trace_writer."""
    if trace_writer is not None and len(points) != 1:
        raise ValueError("a per-clock trace needs a batch of one point")
    if len({params.p for params in points}) > 1:
        raise ValueError("the points of a batch need one layer count")
    n = g.num_vertices
    n_states = 1 << n
    diag = g.cost_table  # rejects n above MAX_QUBITS before allocating
    size = max(1, BATCH_WORDS // (n_states // 2))
    if len(points) > size:
        return [run for start in range(0, len(points), size)
                for run in run_qaoa_batch(g, points[start:start + size], cfg)]
    _, scale_exp = _uniform_start(n, cfg.fmt)
    mixer = mixer_table(n)
    words = np.zeros((2, len(points), n_states // 2), dtype=np.int64)
    words[0] = 1 << (cfg.fmt.frac_bits - (n + 1) // 2)  # the start value 2**-ceil(n/2)
    ctx = FxContext(np.zeros(len(points), dtype=bool))
    gamma = np.array([params.gamma for params in points]).T  # (p, B): layer, then point
    beta = np.array([params.beta for params in points]).T
    for layer, (gammas, betas) in enumerate(zip(gamma, beta)):
        words = run_layer(words, cost_half_angles(diag, gammas), mixer_level_angles(mixer, betas),
                          cfg, ctx, trace_writer, layer=layer, diag=diag)
    ops = 2 * len(gamma)
    half = words.shape[-1]
    runs = []
    for row, overflow in enumerate(ctx.overflow.tolist()):
        counts = OpCounts(mults=ops * n_states, adds=ops * n_states * n_states,
                          cycles_per_op=[n_states + PIPELINE_LATENCY] * ops, overflow=overflow)
        amps = np.empty(n_states, dtype=np.complex128)
        amps.real[:half], amps.imag[:half] = fxp.vec_to_float(words[:, row], cfg.fmt)
        amps[half:] = amps[:n_states - half][::-1]  # the sector's h: h, then h reversed
        runs.append(EngineRun(StateVector(amps=amps, scale_exp=scale_exp, n=n), counts))
    return runs
