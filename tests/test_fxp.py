import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxemu import fxp
from qmaxemu.fxp import (CFx, Fx, FxContext, FxFormat, QuadrantFlags, apply_flags,
                         cfx_mul_phase, cordic_sincos, fx_add, fx_from_real,
                         fx_mul, fx_neg, fx_sincos, fx_sub, normalize_rad,
                         reduce_mod_2pi, fx_pi, fx_two_pi, fx_half_pi)

FMT = FxFormat()

raw_values = st.integers(min_value=FMT.min_raw, max_value=FMT.max_raw)


def fx(raw: int) -> Fx:
    return Fx(raw, FMT)


def test_format_validation():
    with pytest.raises(ValueError):
        FxFormat(word_bits=40, frac_bits=20)
    with pytest.raises(ValueError):
        FxFormat(word_bits=16, frac_bits=15)
    assert FxFormat().name == "q7.25"
    assert FxFormat(word_bits=16, frac_bits=12).name == "q4.12"


def test_from_real_known_values():
    assert fx_from_real(0.5, FMT).raw == 1 << 24
    assert fx_from_real(-1.0, FMT).raw == -(1 << 25)
    # independent high-precision oracle for round-to-nearest-even of pi*2**25
    assert fx_from_real(math.pi, FMT).raw == 105414357


def test_from_real_ties_to_even():
    # exactly representable half-ulp inputs
    assert fx_from_real(1.5 * FMT.ulp, FMT).raw == 2
    assert fx_from_real(2.5 * FMT.ulp, FMT).raw == 2
    assert fx_from_real(-1.5 * FMT.ulp, FMT).raw == -2


def test_from_real_saturates_with_sticky_flag():
    ctx = FxContext()
    top = fx_from_real(100.0, FMT, ctx)
    assert top.raw == FMT.max_raw and ctx.overflow
    bottom = fx_from_real(-100.0, FMT, ctx)
    assert bottom.raw == FMT.min_raw and ctx.overflow
    with pytest.raises(ValueError):
        fx_from_real(float("inf"), FMT)


@pytest.mark.parametrize("fmt", [FxFormat(32, 25), FxFormat(32, 20), FxFormat(12, 8)],
                         ids=lambda f: f.name)
def test_from_real_scalar_and_vector_agree_at_the_extremes(fmt):
    top, bottom, half = fmt.max_raw * fmt.ulp, fmt.min_raw * fmt.ulp, fmt.ulp / 2
    # (value, saturates): the limits, and the ties half an ulp beyond them,
    # which round to even: out past max_raw (odd), back to min_raw (even);
    # then values whose scaled image overflows float64; last a value 0.49
    # ulp past the range, which rounds to max_raw and keeps that word when
    # its saturating neighbours below make the array clip
    cases = [(top, False), (top + half, True), (bottom, False), (bottom - half, False),
             (bottom - 2 * half, True), (1e308, True), (-1e308, True), (0.0, False),
             (top + 0.98 * half, False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        for x, saturates in cases:
            ctx_s, ctx_v = FxContext(), FxContext()
            want = fx_from_real(x, fmt, ctx_s).raw
            assert fxp.vec_from_real(np.array([x]), fmt, ctx_v).tolist() == [want]
            assert ctx_s.overflow == ctx_v.overflow == saturates, x
        ctx = FxContext()
        got = fxp.vec_from_real(np.array([x for x, _ in cases]), fmt, ctx)
    assert got.tolist() == [fx_from_real(x, fmt).raw for x, _ in cases]
    assert got.tolist()[5:7] == [fmt.max_raw, fmt.min_raw]
    assert ctx.overflow


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_from_real_rejects_non_finite_values_on_both_paths(bad):
    with pytest.raises(ValueError):
        fx_from_real(bad, FMT)
    with pytest.raises(ValueError):
        fxp.vec_from_real(np.array([0.0, bad, 1e308]), FMT)


def test_vec_from_real_of_an_empty_array():
    for flag in (False, True):
        ctx = FxContext(overflow=flag)
        got = fxp.vec_from_real(np.zeros(0), FMT, ctx)
        assert got.dtype == np.int64 and got.shape == (0,)
        assert ctx.overflow is flag


def test_mul_examples():
    half = fx_from_real(0.5, FMT)
    assert fx_mul(half, half).to_float() == 0.25
    one = fx_from_real(1.0, FMT)
    for raw in (1, -7, 12345, FMT.max_raw):
        assert fx_mul(one, fx(raw)).raw == raw
    # smallest positive squared: rounds to even zero
    eps = fx(1)
    assert fx_mul(eps, eps).raw == 0


def test_mul_round_to_even_against_fraction_oracle():
    # the chosen operand range keeps every product inside the raw range,
    # so rounding alone decides the result
    from fractions import Fraction
    rng = np.random.default_rng(3)
    for _ in range(500):
        a, b = (int(rng.integers(-(1 << 26), 1 << 26)) for _ in range(2))
        got = fx_mul(fx(a), fx(b)).raw
        exact = Fraction(a * b, 1 << FMT.frac_bits)
        lo = math.floor(exact)
        frac = exact - lo
        if frac < Fraction(1, 2):
            expect = lo
        elif frac > Fraction(1, 2):
            expect = lo + 1
        else:
            expect = lo if lo % 2 == 0 else lo + 1
        assert got == expect


def test_format_mismatch_rejected():
    other = FxFormat(word_bits=16, frac_bits=12)
    with pytest.raises(ValueError):
        fx_mul(fx(1), Fx(1, other))
    with pytest.raises(ValueError):
        CFx(fx(0), Fx(0, other))


@given(a=raw_values, b=raw_values)
@settings(max_examples=200, deadline=None)
def test_mul_commutes(a, b):
    assert fx_mul(fx(a), fx(b)).raw == fx_mul(fx(b), fx(a)).raw


@given(a=raw_values, b=raw_values, c=raw_values)
@settings(max_examples=200, deadline=None)
def test_add_exact_and_associative_absent_saturation(a, b, c):
    if abs(a + b) <= FMT.max_raw and abs(b + c) <= FMT.max_raw \
            and abs(a + b + c) <= FMT.max_raw:
        left = fx_add(fx_add(fx(a), fx(b)), fx(c))
        right = fx_add(fx(a), fx_add(fx(b), fx(c)))
        assert left.raw == right.raw == a + b + c


@given(values=st.lists(st.floats(min_value=-200, max_value=200), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_sticky_flag_is_monotone(values):
    ctx = FxContext()
    seen = False
    for v in values:
        fx_from_real(v, FMT, ctx)
        seen = seen or ctx.overflow
        assert ctx.overflow == seen  # never cleared once set


def test_reduce_mod_2pi():
    two_pi = fx_two_pi(FMT)
    got = reduce_mod_2pi(fx_from_real(2.5 * math.pi, FMT))
    assert abs(got.raw - fx_half_pi(FMT).raw) <= 1
    got = reduce_mod_2pi(fx_from_real(-0.5 * math.pi, FMT))
    assert abs(got.raw - (fx_pi(FMT).raw + fx_half_pi(FMT).raw)) <= 2
    assert reduce_mod_2pi(fx(0)).raw == 0
    assert 0 <= reduce_mod_2pi(fx(FMT.min_raw)).raw < two_pi.raw


def test_normalize_rad_branches():
    q1, flags = normalize_rad(fx_from_real(math.pi / 3, FMT))
    assert flags == QuadrantFlags(False, False)
    assert q1.raw == fx_from_real(math.pi / 3, FMT).raw

    q1, flags = normalize_rad(fx_pi(FMT))  # exactly the third-branch boundary
    assert q1.raw == 0
    assert flags == QuadrantFlags(neg_cos=True, neg_sin=True)

    q1, flags = normalize_rad(fx_from_real(1.5 * math.pi, FMT))
    assert flags == QuadrantFlags(neg_cos=False, neg_sin=True)
    assert abs(q1.raw - fx_half_pi(FMT).raw) <= 1

    q1, flags = normalize_rad(fx_from_real(0.75 * math.pi, FMT))
    assert flags == QuadrantFlags(neg_cos=True, neg_sin=False)

    with pytest.raises(ValueError):
        normalize_rad(fx(-1))
    with pytest.raises(ValueError):
        normalize_rad(fx(fx_two_pi(FMT).raw))


def test_normalize_output_stays_in_first_quadrant():
    rng = np.random.default_rng(5)
    half_pi = fx_half_pi(FMT).raw
    for _ in range(2000):
        raw = int(rng.integers(0, fx_two_pi(FMT).raw))
        q1, _ = normalize_rad(fx(raw))
        assert 0 <= q1.raw <= half_pi


def _assert_vec_normalize_matches_scalar(fmt, raw):
    rad_q1, neg_cos, neg_sin = fxp.vec_normalize_rad(raw, fmt)
    for r, q1, nc, ns in zip(raw.tolist(), rad_q1.tolist(), neg_cos.tolist(),
                             neg_sin.tolist()):
        want, flags = normalize_rad(Fx(r, fmt))
        assert (q1, nc, ns) == (want.raw, flags.neg_cos, flags.neg_sin), (fmt.name, r)


# q4.9, q12.20 and q8.16 round 2*pi to an odd raw value (and q4.9 rounds
# 3*pi/2 apart from pi + pi/2), so the folds must use each constant as is
@pytest.mark.parametrize("fmt", [FxFormat(12, 8), FxFormat(16, 10), FxFormat(13, 9)],
                         ids=lambda f: f.name)
def test_vec_normalize_rad_matches_scalar_on_every_input(fmt):
    _assert_vec_normalize_matches_scalar(fmt, np.arange(fx_two_pi(fmt).raw, dtype=np.int64))


@pytest.mark.parametrize("fmt", [FxFormat(), FxFormat(32, 20), FxFormat(24, 16)],
                         ids=lambda f: f.name)
def test_vec_normalize_rad_matches_scalar_at_branch_edges(fmt):
    two_pi, pi, half_pi, three_half_pi, _, _ = fxp._trig_constants(fmt)
    edges = np.array([e + d for e in (0, half_pi, pi, three_half_pi, two_pi)
                      for d in range(-2, 3)], dtype=np.int64)
    edges = edges[(edges >= 0) & (edges < two_pi)]
    rand = np.random.default_rng(11).integers(0, two_pi, 2000)
    _assert_vec_normalize_matches_scalar(fmt, np.concatenate([edges, rand]))
    with pytest.raises(ValueError):
        fxp.vec_normalize_rad(np.array([two_pi]), fmt)


def test_cordic_known_angles():
    tol = 2.0 ** -14
    cos, sin = cordic_sincos(fx(0))
    assert abs(cos.to_float() - 1.0) <= tol and abs(sin.to_float()) <= tol
    cos, sin = cordic_sincos(fx_from_real(math.pi / 4, FMT))
    assert abs(cos.to_float() - math.cos(math.pi / 4)) <= tol
    assert abs(sin.to_float() - math.sin(math.pi / 4)) <= tol
    cos, sin = cordic_sincos(fx_from_real(math.pi / 3, FMT))
    assert abs(cos.to_float() - 0.5) <= tol
    assert abs(sin.to_float() - math.sin(math.pi / 3)) <= tol
    with pytest.raises(ValueError):
        cordic_sincos(fx_from_real(2.0, FMT))


def test_cordic_norm_preserved():
    rng = np.random.default_rng(17)
    for _ in range(300):
        raw = int(rng.integers(0, fx_half_pi(FMT).raw + 1))
        cos, sin = cordic_sincos(fx(raw))
        assert cos.to_float() ** 2 + sin.to_float() ** 2 == pytest.approx(1.0, abs=2 ** -11)


def test_apply_flags():
    one, zero = fx_from_real(1.0, FMT), fx(0)
    cos, sin = apply_flags(one, zero, QuadrantFlags(neg_cos=True, neg_sin=True))
    assert cos.to_float() == -1.0 and sin.to_float() == 0.0
    c, s = fx_from_real(0.5, FMT), fx_from_real(0.866, FMT)
    assert apply_flags(c, s, QuadrantFlags(False, False)) == (c, s)


def test_full_path_at_4_radians():
    cos, sin = fx_sincos(fx_from_real(4.0, FMT))
    assert abs(cos.to_float() - math.cos(4.0)) <= 2 ** -12
    assert abs(sin.to_float() - math.sin(4.0)) <= 2 ** -12


def test_full_path_random_angles():
    rng = np.random.default_rng(23)
    thetas = rng.uniform(-8 * math.pi, 8 * math.pi, 5000)
    for theta in thetas:
        cos, sin = fx_sincos(fx_from_real(float(theta), FMT))
        assert abs(cos.to_float() - math.cos(theta)) <= 2 ** -12
        assert abs(sin.to_float() - math.sin(theta)) <= 2 ** -12


def test_cfx_phase_multiply():
    a = CFx(fx_from_real(0.5, FMT), fx_from_real(-0.25, FMT))
    cos, sin = fx_sincos(fx_from_real(1.1, FMT))
    got = cfx_mul_phase(a, cos, sin).to_complex()
    want = a.to_complex() * complex(math.cos(1.1), math.sin(1.1))
    assert abs(got - want) < 1e-3


def test_neg_saturates_min_raw():
    ctx = FxContext()
    assert fx_neg(fx(FMT.min_raw), ctx).raw == FMT.max_raw
    assert ctx.overflow


# ---------------------------------------------------------------------------
# Vector kernels must match the scalar path bit for bit
# ---------------------------------------------------------------------------

def test_vector_kernels_match_scalar_bitwise():
    rng = np.random.default_rng(29)
    angles = rng.uniform(-30.0, 30.0, 500)
    raw = fxp.vec_from_real(angles, FMT)
    for x, r in zip(angles, raw):
        assert fx_from_real(float(x), FMT).raw == int(r)

    cos_v, sin_v = fxp.vec_sincos(raw, FMT)
    for r, cv, sv in zip(raw, cos_v, sin_v):
        cos_s, sin_s = fx_sincos(fx(int(r)))
        assert (cos_s.raw, sin_s.raw) == (int(cv), int(sv))

    a = rng.integers(FMT.min_raw, FMT.max_raw, 500)
    b = rng.integers(FMT.min_raw, FMT.max_raw, 500)
    prod_v = fxp.vec_mul(a, b, FMT)
    sum_v = fxp.vec_add(a, b, FMT)
    for ai, bi, pi_, si in zip(a, b, prod_v, sum_v):
        assert fx_mul(fx(int(ai)), fx(int(bi))).raw == int(pi_)
        assert fx_add(fx(int(ai)), fx(int(bi))).raw == int(si)


def test_vector_context_flags_overflow():
    ctx = FxContext()
    fxp.vec_from_real(np.array([100.0]), FMT, ctx)
    assert ctx.overflow
    ctx2 = FxContext()
    big = np.array([FMT.max_raw], dtype=np.int64)
    fxp.vec_add(big, big, FMT, ctx2)
    assert ctx2.overflow
    # the word limits themselves are in range: no flag
    limits = np.array([FMT.max_raw, FMT.min_raw], dtype=np.int64)
    ctx3 = FxContext()
    assert (fxp.vec_add(limits, np.zeros(2, dtype=np.int64), FMT, ctx3) == limits).all()
    assert not ctx3.overflow
    # one past either limit clips and flags; a set flag stays set
    for past in (limits + [1, 0], limits - [0, 1]):
        ctx4 = FxContext()
        assert (fxp.vec_add(past, np.zeros(2, dtype=np.int64), FMT, ctx4) == limits).all()
        assert ctx4.overflow
        assert (fxp.vec_add(limits, np.zeros(2, dtype=np.int64), FMT, ctx4) == limits).all()
        assert ctx4.overflow


def read_only(a):
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


def kernel_pairs(fmt):
    """(vector kernel, scalar twin) pairs, both called as f(a, b, ctx) and
    returning a tuple of results.  vec_apply_flags negates a where it is
    odd and b where its bit 1 is set, as apply_flags does per element."""
    def vec_flags(a, b, ctx):
        return fxp.vec_apply_flags(a, b, read_only(a & 1 == 1), read_only(b & 2 == 2),
                                   fmt, ctx)

    def scalar_flags(p, q, ctx):
        return apply_flags(p, q, QuadrantFlags(p.raw & 1 == 1, q.raw & 2 == 2), ctx)

    return [(lambda a, b, ctx: (fxp.vec_mul(a, b, fmt, ctx),),
             lambda p, q, ctx: (fx_mul(p, q, ctx),)),
            (lambda a, b, ctx: (fxp.vec_add(a, b, fmt, ctx),),
             lambda p, q, ctx: (fx_add(p, q, ctx),)),
            (vec_flags, scalar_flags)]


@pytest.mark.parametrize("fmt", [FxFormat(32, 25), FxFormat(32, 20), FxFormat(12, 8)],
                         ids=lambda f: f.name)
def test_vector_kernel_contract(fmt):
    # the kernels saturate their fresh result in place: they must never
    # write into an input, must hand back arrays of their own, and must
    # raise the sticky flag exactly when the scalar path would
    edge = [fmt.min_raw, fmt.min_raw + 1, fmt.min_raw + 2, -1, 0, 1,
            fmt.max_raw - 2, fmt.max_raw - 1, fmt.max_raw]
    a, b = (read_only(np.array(v, dtype=np.int64))
            for v in zip(*[(p, q) for p in edge for q in edge]))
    empty = read_only(np.zeros(0, dtype=np.int64))
    for vec, scalar in kernel_pairs(fmt):
        before = a.copy(), b.copy()
        for out in vec(a, b, FxContext()):
            assert out.flags.writeable and out.shape == a.shape
            assert not (np.shares_memory(out, a) or np.shares_memory(out, b))
        assert (a == before[0]).all() and (b == before[1]).all()
        for flag in (False, True):  # empty operands leave the flag as it was
            ctx = FxContext(overflow=flag)
            assert all(out.shape == (0,) for out in vec(empty, empty, ctx))
            assert ctx.overflow is flag
        for k, (p, q) in enumerate(zip(a.tolist(), b.tolist())):
            ctx_v, ctx_s = FxContext(), FxContext()
            words = vec(a[k:k + 1], b[k:k + 1], ctx_v)
            want = scalar(Fx(p, fmt), Fx(q, fmt), ctx_s)
            assert [int(w[0]) for w in words] == [w.raw for w in want]
            assert ctx_v.overflow == ctx_s.overflow, (p, q)


# ---------------------------------------------------------------------------
# The fused angle kernel and complex 1_MULT against the scalar path
# ---------------------------------------------------------------------------

def _assert_vec_sincos_matches_scalar(fmt, raws):
    cos, sin = fxp.vec_sincos(raws, fmt)
    for r, c, s in zip(raws.tolist(), cos.tolist(), sin.tolist()):
        ctx = FxContext()
        want_cos, want_sin = fx_sincos(Fx(r, fmt), ctx)
        assert (c, s) == (want_cos.raw, want_sin.raw), (fmt.name, r)
        assert not ctx.overflow  # restoring a sign never saturates


@pytest.mark.parametrize("fmt", [FxFormat(12, 8), FxFormat(16, 10)], ids=lambda f: f.name)
def test_vec_sincos_matches_scalar_on_every_input_over_six_turns(fmt):
    two_pi = fx_two_pi(fmt).raw
    _assert_vec_sincos_matches_scalar(fmt, np.arange(-3 * two_pi, 3 * two_pi, dtype=np.int64))


@pytest.mark.parametrize("fmt", [FxFormat(32, 25), FxFormat(32, 20)], ids=lambda f: f.name)
def test_vec_sincos_matches_scalar_across_the_word_range(fmt):
    two_pi, pi, half_pi, three_half_pi, _, _ = fxp._trig_constants(fmt)
    edges = [e + k * two_pi + d for e in (0, half_pi, pi, three_half_pi)
             for k in (-2, 0, 3) for d in (-1, 0, 1)]
    raws = np.concatenate((edges, [fmt.min_raw, fmt.max_raw],
                           np.random.default_rng(67).integers(fmt.min_raw, fmt.max_raw + 1,
                                                              3000)))
    _assert_vec_sincos_matches_scalar(fmt, raws)


def test_cordic_words_leave_room_to_negate():
    # vec_sincos restores signs without saturating: in every format the
    # table's words (they depend on frac_bits alone) stay below
    # 2**(frac_bits + 1), well inside the word range
    for frac_bits in range(2, 29):
        fmt = FxFormat(frac_bits + 4, frac_bits)
        _, x, y = fxp._cordic_table(fmt)
        assert np.abs(np.concatenate((x, y))).max() < 2 << frac_bits <= fmt.max_raw


@pytest.mark.parametrize("fmt", [FxFormat(32, 25), FxFormat(32, 20), FxFormat(12, 8)],
                         ids=lambda f: f.name)
def test_vec_cmul_matches_scalar(fmt):
    # register words across the full range and at the limits, phasors from
    # the CORDIC (some a little above 1.0) and arbitrary words, whose
    # products saturate
    rng = np.random.default_rng(71)
    edge = [fmt.min_raw, fmt.min_raw + 1, -1, 0, 1, fmt.max_raw - 1, fmt.max_raw]
    count = 600
    re = np.concatenate((np.repeat(edge, len(edge)),
                         rng.integers(fmt.min_raw, fmt.max_raw + 1, count)))
    im = np.concatenate((np.tile(edge, len(edge)),
                         rng.integers(fmt.min_raw, fmt.max_raw + 1, count)))
    cos, sin = fxp.vec_sincos(rng.integers(fmt.min_raw, fmt.max_raw + 1, len(re)), fmt)
    wild = rng.random(len(re)) < 0.3
    cos[wild] = rng.integers(fmt.min_raw, fmt.max_raw + 1, wild.sum())
    sin[wild] = rng.integers(fmt.min_raw, fmt.max_raw + 1, wild.sum())
    words = np.stack((re, im))
    ctx = FxContext()
    assert fxp.vec_cmul(words, cos, sin, fmt, ctx) is words  # in place
    flags = []
    for k in range(len(re)):
        ctx_v, ctx_s = FxContext(), FxContext()
        one = np.array([[re[k]], [im[k]]])
        fxp.vec_cmul(one, cos[k:k + 1], sin[k:k + 1], fmt, ctx_v)
        want = cfx_mul_phase(CFx(Fx(int(re[k]), fmt), Fx(int(im[k]), fmt)),
                             Fx(int(cos[k]), fmt), Fx(int(sin[k]), fmt), ctx_s)
        assert one[:, 0].tolist() == words[:, k].tolist() == [want.re.raw, want.im.raw]
        assert ctx_v.overflow == ctx_s.overflow, k
        flags.append(ctx_s.overflow)
    assert ctx.overflow == any(flags) and not all(flags)
    assert any(flags[k] for k in range(len(edge) ** 2, len(re)) if not wild[k])


def test_numpy_right_shift_is_arithmetic():
    # the CORDIC table and the rounding shift rely on sign-propagating shifts
    assert int(np.int64(-5) >> 1) == -5 >> 1 == -3


# ---------------------------------------------------------------------------
# The decision-interval CORDIC table against the 16-stage scalar CORDIC
# ---------------------------------------------------------------------------

def scalar_cordic_raw(raws, fmt):
    pairs = [cordic_sincos(Fx(int(r), fmt)) for r in raws]
    return [c.raw for c, _ in pairs], [s.raw for _, s in pairs]


@pytest.mark.parametrize("fmt", [FxFormat(12, 8), FxFormat(16, 10)])
def test_cordic_table_matches_scalar_on_every_input(fmt):
    raws = np.arange(fxp._q1_max(fmt) + 1, dtype=np.int64)
    cos, sin = fxp.vec_cordic_sincos(raws, fmt)
    assert (cos.tolist(), sin.tolist()) == scalar_cordic_raw(raws, fmt)


@pytest.mark.parametrize("fmt", [FxFormat(32, 25), FxFormat(32, 20)])
def test_cordic_table_matches_scalar_at_leaf_boundaries(fmt):
    half_pi = fx_half_pi(fmt).raw
    starts = fxp._cordic_table(fmt)[0]
    rng = np.random.default_rng(31)
    raws = np.concatenate((starts, starts[1:] - 1, [half_pi, fxp._q1_max(fmt)],
                           rng.integers(0, half_pi + 1, 2000)))
    cos, sin = fxp.vec_cordic_sincos(raws, fmt)
    assert (cos.tolist(), sin.tolist()) == scalar_cordic_raw(raws, fmt)


@pytest.mark.parametrize("fmt", [FxFormat(16, 10), FxFormat(32, 20)], ids=lambda f: f.name)
def test_cordic_accepts_the_fold_one_ulp_past_half_pi(fmt):
    # here round(pi) - round(pi/2) = round(pi/2) + 1, so normalize_rad maps
    # an angle of exactly half_pi to half_pi + 1, and the CORDIC takes it
    half_pi = fx_half_pi(fmt).raw
    top = fxp._q1_max(fmt)
    assert top == half_pi + 1
    assert normalize_rad(Fx(half_pi, fmt))[0].raw == top
    cos, sin = fxp.vec_cordic_sincos(np.array([top]), fmt)
    assert (cos.tolist(), sin.tolist()) == scalar_cordic_raw([top], fmt)
    with pytest.raises(ValueError):
        fxp.vec_cordic_sincos(np.array([top + 1]), fmt)
    with pytest.raises(ValueError):
        cordic_sincos(Fx(top + 1, fmt))


@pytest.mark.parametrize("fmt", [FxFormat(12, 8), FxFormat(16, 10),
                                 FxFormat(32, 25), FxFormat(32, 20)])
def test_cordic_table_shape_and_sharing(fmt):
    starts, x, y = fxp._cordic_table(fmt)
    assert starts[0] == 0 and (np.diff(starts) > 0).all()
    assert len(starts) == len(x) == len(y) <= min(fxp._q1_max(fmt) + 1,
                                                  1 << fxp.CORDIC_STAGES - 1)
    for a in (starts, x, y):
        assert not a.flags.writeable
    # the lookup's results belong to the caller
    cos, sin = fxp.vec_cordic_sincos(np.array([0, 1]), fmt)
    assert cos.flags.writeable and sin.flags.writeable


def test_cordic_index_finds_the_leaf_in_every_format():
    # each bucket holds at most one leaf start beyond its first input's
    # leaf, so the O(1) lookup must agree with a binary search on the
    # inputs where that could fail: every leaf edge and every bucket edge
    fmts = [FxFormat(w, f) for w in range(4, 33) for f in range(2, w - 1)
            if FxFormat(w, f).max_raw * FxFormat(w, f).ulp >= 2.0 * math.pi]
    assert len(fmts) > 300
    for fmt in fmts:
        starts, x, y = fxp._cordic_table(fmt)
        shift, first, nxt = fxp._cordic_index(fmt)
        top = fxp._q1_max(fmt)
        assert len(first) == len(nxt) == (top >> shift) + 1 <= 1 << 16
        assert not (first.flags.writeable or nxt.flags.writeable)
        bucket = np.arange(len(first), dtype=np.int64) << shift
        raws = np.concatenate((starts, starts[1:] - 1, bucket,
                               np.minimum(bucket + (1 << shift) - 1, top), [0, top]))
        leaf = np.searchsorted(starts, raws, side="right") - 1
        cos, sin = fxp.vec_cordic_sincos(raws, fmt)
        assert (cos == x[leaf]).all() and (sin == y[leaf]).all(), fmt.name


def test_vec_cordic_rejects_angles_outside_first_quadrant():
    half_pi = fx_half_pi(FMT).raw
    for raw in (-1, half_pi + 1):
        with pytest.raises(ValueError):
            fxp.vec_cordic_sincos(np.array([0, raw]), FMT)


# ---------------------------------------------------------------------------
# Shift-only rounding against the divmod definition
# ---------------------------------------------------------------------------

def rne_shift_divmod(value, shift):
    q, r = divmod(value, 1 << shift)
    half = 1 << (shift - 1)
    return q + ((r > half) | ((r == half) & ((q & 1) == 1)))


def test_rne_shift_matches_divmod_definition():
    rng = np.random.default_rng(37)
    for shift in range(2, 32):
        unit, half = 1 << shift, 1 << (shift - 1)
        quotients = np.array([-5, -4, -3, -1, 0, 1, 2, 3, 4, 5], dtype=np.int64)
        # ties above even and odd quotients, one either side, random products
        values = np.concatenate([quotients * unit + half + off for off in (-1, 0, 1)]
                                + [quotients * unit,
                                   rng.integers(-(1 << 62), 1 << 62, 200)])
        want = rne_shift_divmod(values, shift)
        assert (fxp._rne_shift(values, shift) == want).all()
        for v, w in zip(values.tolist(), want.tolist()):
            assert fxp._rne_shift(v, shift) == w
        if shift <= 30:  # vec_mul rounds its product in place by the same rule
            fmt = FxFormat(32, shift)
            fits = np.abs(values) <= fmt.max_raw
            got = fxp.vec_mul(values[fits], np.ones(fits.sum(), dtype=np.int64), fmt)
            assert (got == want[fits]).all()


@pytest.mark.parametrize("fmt", [FxFormat(12, 8), FxFormat(16, 10)], ids=lambda f: f.name)
def test_cordic_peak_bounds_every_vec_sincos_word(fmt):
    # exhaustively over six turns, as the vec_sincos tests: cordic_peak is
    # the largest |cos| or |sin| word any angle gets, so 1_MULT may bound
    # its products with it
    two_pi = fx_two_pi(fmt).raw
    cos, sin = fxp.vec_sincos(np.arange(-3 * two_pi, 3 * two_pi, dtype=np.int64), fmt)
    assert max(np.abs(cos).max(), np.abs(sin).max()) == fxp.cordic_peak(fmt)


@pytest.mark.parametrize("fmt", [FxFormat(12, 8), FxFormat(32, 25), FxFormat(32, 20)],
                         ids=lambda f: f.name)
def test_vec_cmul_bound_decides_at_its_edge(fmt, monkeypatch):
    # registers at the largest max|w| that vec_cmul's phasor bound accepts,
    # 2 rne(max|w| * peak) <= max_raw, and one word above it, against
    # phasors at +/-peak: the first takes no clip and saturates nowhere,
    # the second clips and saturates, and both give cfx_mul_phase's words
    # and flag
    peak, f = fxp.cordic_peak(fmt), fmt.frac_bits
    top = ((fmt.max_raw // 2) << f) // peak
    while 2 * fxp._rne_shift((top + 1) * peak, f) <= fmt.max_raw:
        top += 1
    while 2 * fxp._rne_shift(top * peak, f) > fmt.max_raw:
        top -= 1
    clips = []
    saturate = fxp._vec_saturate
    monkeypatch.setattr(fxp, "_vec_saturate", lambda *args: clips.append(1) or saturate(*args))
    signs = np.array([(a, b, c, d) for a in (-1, 1) for b in (-1, 1)
                      for c in (-1, 1) for d in (-1, 1)]).T
    for m, saturates in ((top, False), (top + 1, True)):
        words = signs[:2] * m
        cos, sin = signs[2] * peak, signs[3] * peak
        ctx = FxContext()
        clips.clear()
        fxp.vec_cmul(words, cos, sin, fmt, ctx, peak=peak)
        assert bool(clips) == ctx.overflow == saturates
        for k in range(signs.shape[1]):
            want_ctx = FxContext()
            want = cfx_mul_phase(CFx(Fx(int(signs[0, k] * m), fmt), Fx(int(signs[1, k] * m), fmt)),
                                 Fx(int(cos[k]), fmt), Fx(int(sin[k]), fmt), want_ctx)
            column = np.array([[signs[0, k] * m], [signs[1, k] * m]])
            col_ctx = FxContext()
            fxp.vec_cmul(column, cos[k:k + 1], sin[k:k + 1], fmt, col_ctx, peak=peak)
            assert words[:, k].tolist() == column[:, 0].tolist() == [want.re.raw, want.im.raw]
            assert col_ctx.overflow == want_ctx.overflow
