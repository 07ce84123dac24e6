"""Q-format signed fixed-point arithmetic and a 16-stage CORDIC sine/cosine.

Scalars are `Fx` values carrying a raw two's-complement integer plus a
format.  The same arithmetic is mirrored by `vec_*` kernels on int64 numpy
arrays so whole state vectors go through the identical bit-level datapath
without per-element Python overhead; a property test pins the two paths to
bit equality.  Word widths are capped at 32 bits so every intermediate
product fits in int64.

The modelled CORDIC has 16 rotation stages, and the scalar
`cordic_sincos` runs them one by one.  Its vector twin gets the same words
from a per-format decision-interval table: the stage directions depend
only on the input angle, so the inputs fall into at most 2**15 intervals
of equal output (`_cordic_table`).  A bucket index over the input range
(`_cordic_index`) finds each input's interval in O(1): every bucket holds
at most one interval start beyond the interval of its first input.

Policy (shared by both paths):
  * conversion and multiplication round to nearest, ties to even;
  * addition/subtraction on raw values is exact unless it saturates;
  * overflow saturates and raises a sticky flag on the `FxContext`
    threaded through the call (never wraps, never hidden global state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CORDIC_STAGES = 16


@dataclass(frozen=True)
class FxFormat:
    """qI.F format: word_bits total (I = word_bits - frac_bits, sign included)."""

    word_bits: int = 32
    frac_bits: int = 25

    def __post_init__(self):
        if self.word_bits > 32:
            raise ValueError("word widths above 32 bits are not supported")
        if not (2 <= self.frac_bits <= self.word_bits - 2):
            raise ValueError(
                f"need 2 <= frac_bits <= word_bits - 2, got q{self.word_bits}/{self.frac_bits}"
            )

    @property
    def max_raw(self) -> int:
        return (1 << (self.word_bits - 1)) - 1

    @property
    def min_raw(self) -> int:
        return -(1 << (self.word_bits - 1))

    @property
    def ulp(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def name(self) -> str:
        return f"q{self.word_bits - self.frac_bits}.{self.frac_bits}"


@dataclass
class FxContext:
    """Sticky overflow carrier: once set it stays set for the whole run.  A
    batch's holds one flag per item, a bool array, which the vector kernels
    raise from the item's own words: a row of vec_from_real's angles, or an
    item [:, b] of a (2, B, M) register."""

    overflow: bool | np.ndarray = False


@dataclass(frozen=True)
class Fx:
    """Signed fixed-point scalar: value = raw * 2**-frac_bits."""

    raw: int
    fmt: FxFormat

    def to_float(self) -> float:
        return self.raw * self.fmt.ulp

    def __repr__(self):
        return f"Fx({self.to_float():.9g} [{self.fmt.name}])"


@dataclass(frozen=True)
class CFx:
    """Complex fixed-point pair; both parts share one format."""

    re: Fx
    im: Fx

    def __post_init__(self):
        if self.re.fmt != self.im.fmt:
            raise ValueError("real and imaginary parts must share a format")

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())


@dataclass(frozen=True)
class QuadrantFlags:
    """Sign adjustments recorded by first-quadrant angle normalization."""

    neg_cos: bool
    neg_sin: bool


def _check_fmt(a: Fx, b: Fx):
    if a.fmt != b.fmt:
        raise ValueError(f"format mismatch: {a.fmt.name} vs {b.fmt.name}")


def _saturate(raw: int, fmt: FxFormat, ctx: FxContext | None) -> int:
    if raw > fmt.max_raw:
        if ctx is not None:
            ctx.overflow = True
        return fmt.max_raw
    if raw < fmt.min_raw:
        if ctx is not None:
            ctx.overflow = True
        return fmt.min_raw
    return raw


def _rne_shift(value, shift: int):
    """Shift right with round-to-nearest-even; works on ints and int arrays.

    Adding half - 1 rounds up exactly the remainders above one half; adding
    the quotient's low bit as well rounds a tie up only from an odd quotient.
    """
    return (value + ((value >> shift) & 1) + ((1 << (shift - 1)) - 1)) >> shift


def _round_scaled(x: float, fmt: FxFormat) -> int:
    """round(x * 2**frac_bits), ties to even, for finite x: clamped one step
    past the word range first, so that an inf product saturates."""
    return round(min(max(float(x) * (1 << fmt.frac_bits), fmt.min_raw - 1), fmt.max_raw + 1))


def fx_from_real(x: float, fmt: FxFormat, ctx: FxContext | None = None) -> Fx:
    """Convert a real to fixed point, round-to-nearest-even, saturating."""
    if not math.isfinite(x):
        raise ValueError(f"cannot convert non-finite value {x!r}")
    return Fx(_saturate(_round_scaled(x, fmt), fmt, ctx), fmt)


def fx_add(a: Fx, b: Fx, ctx: FxContext | None = None) -> Fx:
    _check_fmt(a, b)
    return Fx(_saturate(a.raw + b.raw, a.fmt, ctx), a.fmt)


def fx_sub(a: Fx, b: Fx, ctx: FxContext | None = None) -> Fx:
    _check_fmt(a, b)
    return Fx(_saturate(a.raw - b.raw, a.fmt, ctx), a.fmt)


def fx_neg(a: Fx, ctx: FxContext | None = None) -> Fx:
    return Fx(_saturate(-a.raw, a.fmt, ctx), a.fmt)


def fx_mul(a: Fx, b: Fx, ctx: FxContext | None = None) -> Fx:
    """Full-width product, right-shifted by frac_bits with RNE, saturating."""
    _check_fmt(a, b)
    raw = _rne_shift(a.raw * b.raw, a.fmt.frac_bits)
    return Fx(_saturate(int(raw), a.fmt, ctx), a.fmt)


def cfx_mul_phase(a: CFx, cos: Fx, sin: Fx, ctx: FxContext | None = None) -> CFx:
    """Multiply a complex amplitude by (cos + i sin), parts computed separately."""
    re = fx_sub(fx_mul(a.re, cos, ctx), fx_mul(a.im, sin, ctx), ctx)
    im = fx_add(fx_mul(a.re, sin, ctx), fx_mul(a.im, cos, ctx), ctx)
    return CFx(re, im)


# --------------------------------------------------------------------------
# Trigonometric constants per format
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _trig_constants(fmt: FxFormat):
    """Raw angle constants, CORDIC arctangent table, and gain for a format."""
    if fmt.max_raw * fmt.ulp < 2.0 * math.pi:
        raise ValueError(f"format {fmt.name} cannot represent 2*pi")
    scale = 1 << fmt.frac_bits
    two_pi = round(2.0 * math.pi * scale)
    pi = round(math.pi * scale)
    half_pi = round(0.5 * math.pi * scale)
    three_half_pi = round(1.5 * math.pi * scale)
    atan = tuple(round(math.atan(2.0 ** -i) * scale) for i in range(CORDIC_STAGES))
    gain = 1.0
    for i in range(CORDIC_STAGES):
        gain /= math.sqrt(1.0 + 2.0 ** (-2 * i))
    k = round(gain * scale)
    return two_pi, pi, half_pi, three_half_pi, atan, k


@lru_cache(maxsize=None)
def _q1_max(fmt: FxFormat) -> int:
    """Largest raw angle normalize_rad produces, the CORDIC's input limit:
    half_pi, or one more where rounding maps a mirrored branch's lower edge
    (half_pi or three_half_pi) past it, as at q6.10 and q12.20."""
    two_pi, pi, half_pi, three_half_pi, _, _ = _trig_constants(fmt)
    return max(half_pi, pi - half_pi, two_pi - three_half_pi)


def fx_two_pi(fmt: FxFormat) -> Fx:
    return Fx(_trig_constants(fmt)[0], fmt)


def fx_pi(fmt: FxFormat) -> Fx:
    return Fx(_trig_constants(fmt)[1], fmt)


def fx_half_pi(fmt: FxFormat) -> Fx:
    return Fx(_trig_constants(fmt)[2], fmt)


# --------------------------------------------------------------------------
# Scalar angle pipeline: reduce -> normalize -> CORDIC -> sign restore
# --------------------------------------------------------------------------

def reduce_mod_2pi(rad: Fx) -> Fx:
    """Reduce any angle into [0, 2*pi) against the fixed-point constant."""
    two_pi = _trig_constants(rad.fmt)[0]
    return Fx(rad.raw % two_pi, rad.fmt)


def normalize_rad(rad: Fx) -> tuple[Fx, QuadrantFlags]:
    """Fold an angle in [0, 2*pi) into the first quadrant.

    Branches: [0,pi/2) keeps the angle; [pi/2,pi) maps to pi-rad with
    neg_cos; [pi,3pi/2) maps to rad-pi with both flags; [3pi/2,2pi) maps to
    2pi-rad with neg_sin.
    """
    two_pi, pi, half_pi, three_half_pi, _, _ = _trig_constants(rad.fmt)
    r = rad.raw
    if not (0 <= r < two_pi):
        raise ValueError(f"angle {rad.to_float()} not reduced to [0, 2*pi)")
    if r < half_pi:
        return Fx(r, rad.fmt), QuadrantFlags(False, False)
    if r < pi:
        return Fx(pi - r, rad.fmt), QuadrantFlags(neg_cos=True, neg_sin=False)
    if r < three_half_pi:
        return Fx(r - pi, rad.fmt), QuadrantFlags(neg_cos=True, neg_sin=True)
    return Fx(two_pi - r, rad.fmt), QuadrantFlags(neg_cos=False, neg_sin=True)


def cordic_sincos(rad_q1: Fx) -> tuple[Fx, Fx]:
    """Rotation-mode CORDIC, exactly CORDIC_STAGES iterations.

    The x register starts at the gain constant K so no post-scaling multiply
    is needed.  Input must lie in [0, _q1_max(fmt)]; output error stays below
    2**-14 for the default q7.25 format.
    """
    fmt = rad_q1.fmt
    atan, k = _trig_constants(fmt)[4:]
    if not (0 <= rad_q1.raw <= _q1_max(fmt)):
        raise ValueError(f"angle {rad_q1.to_float()} outside the first quadrant")
    x, y, z = k, 0, rad_q1.raw
    for i in range(CORDIC_STAGES):
        if z >= 0:
            x, y, z = x - (y >> i), y + (x >> i), z - atan[i]
        else:
            x, y, z = x + (y >> i), y - (x >> i), z + atan[i]
    return Fx(x, fmt), Fx(y, fmt)


def apply_flags(cos_q1: Fx, sin_q1: Fx, flags: QuadrantFlags,
                ctx: FxContext | None = None) -> tuple[Fx, Fx]:
    """Restore quadrant signs recorded by normalize_rad."""
    cos = fx_neg(cos_q1, ctx) if flags.neg_cos else cos_q1
    sin = fx_neg(sin_q1, ctx) if flags.neg_sin else sin_q1
    return cos, sin


def fx_sincos(rad: Fx, ctx: FxContext | None = None) -> tuple[Fx, Fx]:
    """Full path: reduce mod 2*pi, normalize, CORDIC, sign restore."""
    rad_q1, flags = normalize_rad(reduce_mod_2pi(rad))
    cos_q1, sin_q1 = cordic_sincos(rad_q1)
    return apply_flags(cos_q1, sin_q1, flags, ctx)


# --------------------------------------------------------------------------
# Vector kernels: identical bit-level behavior on int64 raw arrays
# --------------------------------------------------------------------------

def _vec_saturate(raw: np.ndarray, fmt: FxFormat, ctx: FxContext | None) -> np.ndarray:
    """Clip raw to the word range in place and return it, raising the
    sticky flag when any word was out of range.

    Its callers (vec_mul, vec_cmul, vec_add, vec_apply_flags) pass arrays
    they have just computed or were asked to update in place, so writing
    into raw never touches another input.
    """
    if raw.size and (raw.max() > fmt.max_raw or raw.min() < fmt.min_raw):
        if ctx is not None and isinstance(ctx.overflow, np.ndarray):  # (2, B, M) words
            ctx.overflow |= ((raw > fmt.max_raw) | (raw < fmt.min_raw)).any(axis=(0, 2))
        elif ctx is not None:
            ctx.overflow = True
        # np.clip costs several times this at the small N of overhead-bound runs
        np.minimum(np.maximum(raw, fmt.min_raw, out=raw), fmt.max_raw, out=raw)
    return raw


def vec_from_real(x: np.ndarray, fmt: FxFormat, ctx: FxContext | None = None) -> np.ndarray:
    """Vector twin of fx_from_real.  Rounding is monotone, so x's extremes
    decide finiteness and saturation; x is clipped only when one saturates,
    which changes no word in range.  A batch's context raises each row's
    flag, along the last axis, by its own extremes."""
    x = np.asarray(x, dtype=np.float64)
    x_lo, x_hi = (float(x.min()), float(x.max())) if x.size else (0.0, 0.0)
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise ValueError("cannot convert non-finite values")
    if _round_scaled(x_lo, fmt) < fmt.min_raw or _round_scaled(x_hi, fmt) > fmt.max_raw:
        if ctx is not None and isinstance(ctx.overflow, np.ndarray):
            ctx.overflow |= [_round_scaled(lo, fmt) < fmt.min_raw
                             or _round_scaled(hi, fmt) > fmt.max_raw
                             for lo, hi in zip(x.min(axis=-1), x.max(axis=-1))]
        elif ctx is not None:
            ctx.overflow = True
        x = np.clip(x, fmt.min_raw * fmt.ulp, fmt.max_raw * fmt.ulp)
    return np.rint(x * float(1 << fmt.frac_bits)).astype(np.int64)  # rint ties to even


def vec_to_float(raw: np.ndarray, fmt: FxFormat) -> np.ndarray:
    # raw fits in <= 32 bits, so the float64 image is exact.
    return raw.astype(np.float64) * fmt.ulp


def _rne_product(a_raw: np.ndarray, b_raw: np.ndarray, frac_bits: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The rounded product of fx_mul, unclipped."""
    prod = np.multiply(a_raw, b_raw, out=out)  # |raw| < 2**31 so the int64 product is exact
    # _rne_shift on the fresh product, in place: one temporary, not three
    odd = prod >> frac_bits
    odd &= 1
    odd += (1 << (frac_bits - 1)) - 1
    prod += odd
    prod >>= frac_bits
    return prod


def vec_mul(a_raw: np.ndarray, b_raw: np.ndarray, fmt: FxFormat,
            ctx: FxContext | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """fx_mul on arrays; out=a_raw rounds and clips the product in place."""
    return _vec_saturate(_rne_product(a_raw, b_raw, fmt.frac_bits, out), fmt, ctx)


def vec_cmul(words: np.ndarray, cos: np.ndarray, sin: np.ndarray, fmt: FxFormat,
             ctx: FxContext | None = None, peak: int | None = None) -> np.ndarray:
    """Vector twin of cfx_mul_phase on a (2, N) register of real and
    imaginary rows, in place; returns words.  The products are rounded and
    clipped, the real row subtracts im * sin and the imaginary row adds
    re * sin, and the sums are clipped: the scalar's saturations.

    peak, when given, must bound every |cos| and |sin| word.  Rounding is
    monotone and odd, so no rounded product exceeds rne(max|w| * peak) in
    magnitude, rne being _rne_shift by frac_bits; when twice that is at
    most max_raw, no product and no sum can leave the word range, and one
    extreme scan of the register replaces the three of the clipping path.
    """
    f = fmt.frac_bits
    safe = peak is not None and words.size > 0 and (
        2 * _rne_shift(max(int(words.max()), -int(words.min())) * peak, f) <= fmt.max_raw)
    if safe:
        cross = _rne_product(words[::-1], sin, f)
        _rne_product(words, cos, f, out=words)
    else:
        cross = vec_mul(words[::-1], sin, fmt, ctx)
        vec_mul(words, cos, fmt, ctx, out=words)
    words[0] -= cross[0]
    words[1] += cross[1]
    return words if safe else _vec_saturate(words, fmt, ctx)


def vec_add(a_raw: np.ndarray, b_raw: np.ndarray, fmt: FxFormat,
            ctx: FxContext | None = None) -> np.ndarray:
    return _vec_saturate(a_raw + b_raw, fmt, ctx)


def vec_reduce_mod_2pi(raw: np.ndarray, fmt: FxFormat) -> np.ndarray:
    two_pi = _trig_constants(fmt)[0]
    return raw % two_pi


def vec_normalize_rad(raw: np.ndarray, fmt: FxFormat):
    """Vector twin of normalize_rad: returns (rad_q1, neg_cos, neg_sin).

    Two folds, about pi and then about each half's quarter point, with the
    rounded constants as the scalar branches use them (at q12.20 and q8.16
    two_pi is not 2 * pi, so the upper half mirrors about two_pi)."""
    two_pi, pi, half_pi, three_half_pi, _, _ = _trig_constants(fmt)
    if ((raw < 0) | (raw >= two_pi)).any():
        raise ValueError("angles not reduced to [0, 2*pi)")
    neg_sin = raw >= pi
    neg_cos = (raw >= half_pi) ^ (raw >= three_half_pi)
    back = neg_cos ^ neg_sin
    rad_q1 = np.where(back, np.where(neg_sin, two_pi, pi) - raw, raw - pi * neg_sin)
    return rad_q1, neg_cos, neg_sin


@lru_cache(maxsize=8)
def _cordic_table(fmt: FxFormat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf starts and their (x, y) for the CORDIC over inputs [0, _q1_max].

    Stage i rotates by +atan[i] when z = r - c >= 0 and by -atan[i] when
    not, where c is the sum of the rotations so far.  x and y start from
    constants, so the result depends only on the direction bits, and the
    inputs r sharing a direction prefix form an interval, which stage i
    splits at its c.  Running the stage recursion over these intervals
    leaves at most _q1_max + 1 of them, ordered along the input.
    """
    atan, k = _trig_constants(fmt)[4:]
    lo = np.zeros(1, dtype=np.int64)
    hi = np.full(1, _q1_max(fmt), dtype=np.int64)
    c = np.zeros(1, dtype=np.int64)
    x = np.full(1, k, dtype=np.int64)
    y = np.zeros(1, dtype=np.int64)

    def split(below, above):  # each interval's -1 part (below c), then its +1 part
        return np.stack((below, above), axis=1).ravel()

    for i in range(CORDIC_STAGES):
        xs, ys = x >> i, y >> i  # arithmetic shifts, same as the scalar path
        lo, hi = split(lo, np.maximum(lo, c)), split(np.minimum(hi, c - 1), hi)
        x, y = split(x + ys, x - ys), split(y - xs, y + xs)
        c = split(c - atan[i], c + atan[i])
        keep = lo <= hi
        lo, hi, x, y, c = lo[keep], hi[keep], x[keep], y[keep], c[keep]
    for a in (lo, x, y):
        a.flags.writeable = False  # shared by every call for this format
    return lo, x, y


@lru_cache(maxsize=8)
def _cordic_index(fmt: FxFormat) -> tuple[int, np.ndarray, np.ndarray]:
    """Bucket index over the CORDIC inputs [0, _q1_max]: (shift, first, next).

    Input r falls in bucket r >> shift.  first[b] is the _cordic_table leaf
    holding the bucket's first input and next[b] the start of the leaf after
    it (_q1_max + 1 past the last leaf).  shift is the largest for which no
    bucket holds a second leaf start beyond that one, so r's leaf is
    first[b] + (r >= next[b]).
    """
    starts = _cordic_table(fmt)[0]
    top = _q1_max(fmt)
    shift = 0
    while shift < top.bit_length():
        # the starts that open a leaf inside a bucket, not at its first input
        inner = starts[(starts & ((2 << shift) - 1)) != 0] >> (shift + 1)
        if (inner[1:] == inner[:-1]).any():
            break
        shift += 1
    # leaf i holds the first inputs of buckets ceil(starts[i] / 2**shift) up
    # to the next leaf's; int32 throughout keeps the build's peak near the
    # index's own size
    opens = -(-starts >> shift)
    first = np.repeat(np.arange(len(starts), dtype=np.int32),
                      np.diff(opens, append=(top >> shift) + 1))
    nxt = np.append(starts[1:], top + 1).astype(np.int32)[first]
    for a in (first, nxt):
        a.flags.writeable = False  # shared by every call for this format
    return shift, first, nxt


def _cordic_leaf(rad_q1: np.ndarray, fmt: FxFormat) -> np.ndarray:
    """Each first-quadrant input's _cordic_table leaf, by the bucket index."""
    shift, first, nxt = _cordic_index(fmt)
    bucket = rad_q1 >> shift
    leaf, leaf_end = first[bucket], nxt[bucket]
    del bucket  # freed before the index is built
    # an intp index gathers directly; an int32 one is converted on each gather
    return np.add(leaf, rad_q1 >= leaf_end, dtype=np.intp)


@lru_cache(maxsize=8)
def cordic_peak(fmt: FxFormat) -> int:
    """The largest |x| or |y| word of the CORDIC table: a bound on every
    vec_sincos word, whose sign restore keeps magnitudes."""
    _, x, y = _cordic_table(fmt)
    return int(max(np.abs(x).max(), np.abs(y).max()))


def vec_cordic_sincos(rad_q1: np.ndarray, fmt: FxFormat) -> tuple[np.ndarray, np.ndarray]:
    """Vector twin of cordic_sincos, evaluated by a lookup in _cordic_table
    through its bucket index."""
    if rad_q1.size and (rad_q1.min() < 0 or rad_q1.max() > _q1_max(fmt)):
        raise ValueError("angles outside the first quadrant")
    _, x, y = _cordic_table(fmt)
    leaf = _cordic_leaf(rad_q1, fmt)
    return x[leaf], y[leaf]


def vec_apply_flags(cos_raw, sin_raw, neg_cos, neg_sin, fmt: FxFormat,
                    ctx: FxContext | None = None):
    cos = _vec_saturate(np.where(neg_cos, -cos_raw, cos_raw), fmt, ctx)
    sin = _vec_saturate(np.where(neg_sin, -sin_raw, sin_raw), fmt, ctx)
    return cos, sin


@lru_cache(maxsize=8)
def _fold_tables(fmt: FxFormat) -> tuple:
    """two_pi, normalize_rad's branch starts after 0, and by branch its fold
    centre and the signs it restores to cos and sin."""
    two_pi, pi, half_pi, three_half_pi, _, _ = _trig_constants(fmt)
    return (two_pi, np.array([half_pi, pi, three_half_pi]), np.array([0, pi, pi, two_pi]),
            np.array([1, -1, -1, 1]), np.array([1, 1, -1, -1]))


def vec_sincos(raw: np.ndarray, fmt: FxFormat) -> tuple[np.ndarray, np.ndarray]:
    """Vector twin of fx_sincos on raw angle values, in one pass: reduce,
    find the branch q by one search, fold to |rad - centre[q]|, look the
    CORDIC words up, and restore signs by gathers, which never saturates:
    CORDIC words are below 2**(frac_bits + 1) in magnitude."""
    two_pi, starts, centre, cos_sign, sin_sign = _fold_tables(fmt)
    rad = raw % two_pi
    q = np.searchsorted(starts, rad, "right")
    rad -= centre[q]
    _, x, y = _cordic_table(fmt)
    leaf = _cordic_leaf(np.abs(rad, out=rad), fmt)
    del rad  # each temporary is freed once read, for the pipeline's peak
    cos, sin = x[leaf], y[leaf]
    del leaf
    cos *= cos_sign[q]
    sin *= sin_sign[q]
    return cos, sin
