import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxemu import (QaoaParams, StateVector, WeightedGraph, build_cost_diagonal,
                     build_mixer_exponents, cost_angles, cost_half_angles,
                     decomposed_run_qaoa_f64, dense_run_qaoa, expectation, fxp,
                     hadamard_sign, init_uniform_state, mixer_angles,
                     mixer_level_angles, mixer_table, probabilities, pipeline,
                     run_elemental_ansatz, run_layer, run_qaoa)
from qmaxemu.fxp import FxContext, FxFormat
from qmaxemu.pipeline import (PIPELINE_LATENCY, PipelineConfig, _n_add,
                              hadamard_sign_column)

from conftest import complete_graph, path_graph, random_graph, streamed_n_add
import corpus
from corpus import run_bytes

CFG = PipelineConfig()


def to_words(amps):
    """The (2, 1, N) register of complex amplitudes, as the pipeline holds a
    batch of one."""
    amps = np.asarray(amps, dtype=np.complex128)
    return np.array([fxp.vec_from_real(amps.real, CFG.fmt),
                     fxp.vec_from_real(amps.imag, CFG.fmt)])[:, None]


def to_amps(words, fmt=CFG.fmt):
    """The amplitudes of a batch of one's (2, 1, N) register."""
    return fxp.vec_to_float(words[0, 0], fmt) + 1j * fxp.vec_to_float(words[1, 0], fmt)


def to_state(words, scale_exp) -> StateVector:
    return StateVector(amps=to_amps(words), scale_exp=Fraction(scale_exp),
                       n=words.shape[-1].bit_length() - 1)


def one_ctx() -> FxContext:
    """The context of a batch of one, its flag clear."""
    return FxContext(np.zeros(1, dtype=bool))


def n_add_one(words, fmt, ctx):
    """_n_add of one item's (2, N) words, as a batch of one on a copy;
    returns its (2, N) result."""
    return _n_add(words[:, None].copy(), fmt, ctx)[:, 0]


def test_hadamard_sign_basics():
    for c in range(8):
        assert hadamard_sign(0, c) == 1
    assert hadamard_sign(1, 1) == -1
    assert hadamard_sign(3, 3) == 1


def test_hadamard_sign_matches_kronecker_square():
    h1 = np.array([[1, 1], [1, -1]])
    expected = np.kron(h1, h1)
    got = np.array([[hadamard_sign(r, c) for c in range(4)] for r in range(4)])
    assert (got == expected).all()
    for c in range(4):
        assert (hadamard_sign_column(c, 2) == expected[:, c]).all()


@pytest.mark.parametrize("bits", range(pipeline.FACTOR_BITS + 1))
def test_sylvester_factor_is_the_read_only_sign_matrix(bits):
    h = pipeline._sylvester(bits)
    assert h.dtype == np.float64 and h.shape == (1 << bits, 1 << bits)
    assert all(h[i, j] == hadamard_sign(i, j) for i in range(1 << bits) for j in range(1 << bits))
    assert not h.flags.writeable
    with pytest.raises(ValueError):
        h[0, 0] = -1.0


def sign_matrix(n):
    """The symmetric +/-1 Walsh-Hadamard matrix, one column per stream element."""
    return np.array([hadamard_sign_column(c, n) for c in range(1 << n)])


def assert_n_add_matches_stream(words, fmt) -> bool:
    """Compare _n_add with the streamed oracle, words and flag; return the flag."""
    want_ctx, got_ctx = FxContext(), one_ctx()
    want = streamed_n_add(words, fmt, want_ctx)
    got = n_add_one(words, fmt, got_ctx)
    assert got.dtype == np.int64
    assert (got == want).all()
    assert got_ctx.overflow[0] == want_ctx.overflow
    return got_ctx.overflow[0]


N_ADD_FORMATS = (FxFormat(32, 25), FxFormat(32, 20), FxFormat(16, 10), FxFormat(12, 8))


def test_n_add_matches_streamed_random_words():
    rng = np.random.default_rng(53)
    flags = []
    for fmt in N_ADD_FORMATS:
        for n in range(1, 11):
            # words in [-2**(bits-1), 2**(bits-1)): from below max_raw / N,
            # which never saturates, to the full range
            for bits in (max(1, fmt.word_bits - 1 - n), fmt.word_bits - 1 - n // 2,
                         fmt.word_bits):
                words = rng.integers(-(1 << bits - 1), 1 << bits - 1, size=(2, 1 << n))
                flags.append(assert_n_add_matches_stream(words, fmt))
    assert any(flags) and not all(flags)


def test_n_add_prefix_saturates_but_sum_returns_to_range():
    fmt = FxFormat(12, 8)
    hi = fmt.max_raw
    words = np.array([[hi, hi, -hi, -hi], [0, 0, 0, 0]], dtype=np.int64)
    assert assert_n_add_matches_stream(words, fmt)
    # row 0 clips at the second addition, so its unclipped sum 0 comes out -hi
    got = n_add_one(words, fmt, one_ctx())
    assert got[0].tolist() == [-hi, 0, hi, 0]
    assert got[1].tolist() == [0, 0, 0, 0]


def test_n_add_prefix_at_the_limits_is_not_saturation():
    fmt = FxFormat(12, 8)
    words = np.array([[fmt.max_raw, 0, 0, 0], [fmt.min_raw, 0, 0, 0]], dtype=np.int64)
    assert not assert_n_add_matches_stream(words, fmt)
    words[0, 3] = 1  # one step past max_raw on rows 0 and 3
    assert assert_n_add_matches_stream(words, fmt)


def test_n_add_large_block_sums_without_saturation():
    # the first word sits near each limit, so every block holding it has a
    # near-full-range sum at every level, but no prefix leaves the range
    fmt = FxFormat(16, 10)
    n = 6
    rng = np.random.default_rng(59)
    words = rng.integers(-2, 3, size=(2, 1 << n))
    words[0, 0] = fmt.max_raw - 2 * (1 << n)
    words[1, 0] = fmt.min_raw + 2 * (1 << n)
    assert not assert_n_add_matches_stream(words, fmt)
    got = n_add_one(words, fmt, one_ctx())
    assert (got == words @ sign_matrix(n)).all()  # the plain +/-1 transform


def test_n_add_saturates_in_imaginary_part_only():
    fmt = FxFormat(12, 8)
    words = np.zeros((2, 8), dtype=np.int64)
    words[0] = [5, -3, 7, 1, 0, -2, 4, 6]
    words[1] = [fmt.min_raw, -fmt.max_raw, 0, 0, 0, 0, 0, 0]
    assert assert_n_add_matches_stream(words, fmt)
    got = n_add_one(words, fmt, one_ctx())
    assert (got[0] == words[0] @ sign_matrix(3)).all()  # real part unclipped
    assert got[1, 0] == fmt.min_raw


def n_add_takes_bound_path(words, fmt, monkeypatch) -> bool:
    """Check _n_add against the stream and say whether it skipped both the
    prefix-summary and the clamp pass, which only the no-saturation
    certificates allow."""
    calls = []
    for name in ("_prefix_combine", "_clamp_combine"):
        monkeypatch.setattr(pipeline, name, lambda *args, combine=getattr(pipeline, name):
                            calls.append(1) or combine(*args))
    assert_n_add_matches_stream(words, fmt)
    return not calls


def test_n_add_bound_holds_at_max_raw(monkeypatch):
    # sum(|w|) == max_raw on the real row: the bound path, no flag, and
    # result row 1, whose signs match the words', reaches max_raw exactly
    fmt = FxFormat(12, 8)
    words = np.array([[1000, -47, 600, -400], [3, -3, 0, 9]], dtype=np.int64)
    assert np.abs(words[0]).sum() == fmt.max_raw
    assert n_add_takes_bound_path(words, fmt, monkeypatch)
    ctx = one_ctx()
    got = n_add_one(words, fmt, ctx)
    assert not ctx.overflow[0]
    assert (got == words @ sign_matrix(2)).all()
    assert got[0, 1] == fmt.max_raw


def test_n_add_one_past_the_bound_saturates(monkeypatch):
    # sum(|w|) == max_raw + 1 with one sign per word: row 0 adds them all
    fmt = FxFormat(12, 8)
    words = np.array([[1000, 47, 600, 401], [0, 0, 0, 0]], dtype=np.int64)
    assert not n_add_takes_bound_path(words, fmt, monkeypatch)
    ctx = one_ctx()
    got = n_add_one(words, fmt, ctx)
    assert ctx.overflow[0] and got[0, 0] == fmt.max_raw


def test_n_add_single_min_raw_word_saturates_on_negated_rows(monkeypatch):
    # |min_raw| = max_raw + 1: the rows whose sign on column 1 is -1 saturate
    fmt = FxFormat(12, 8)
    words = np.zeros((2, 4), dtype=np.int64)
    words[1, 1] = fmt.min_raw
    assert not n_add_takes_bound_path(words, fmt, monkeypatch)
    ctx = one_ctx()
    got = n_add_one(words, fmt, ctx)
    assert ctx.overflow[0]
    assert got[1].tolist() == [fmt.min_raw, fmt.max_raw, fmt.min_raw, fmt.max_raw]


def test_n_add_certifies_words_past_the_sum_bound(monkeypatch):
    # sum(|w|) = 2100 > max_raw = 2047, yet the blocks' bound holds on
    # every row: no prefix pass, no flag, and the plain +/-1 transform
    fmt = FxFormat(12, 8)
    words = np.array([[-800, 100, 600, 300, 300, 0, 0, 0], [0] * 8], dtype=np.int64)
    assert np.abs(words[0]).sum() > fmt.max_raw
    assert n_add_takes_bound_path(words, fmt, monkeypatch)
    ctx = one_ctx()
    got = n_add_one(words, fmt, ctx)
    assert not ctx.overflow[0]
    assert (got == words @ sign_matrix(3)).all()


def test_n_add_certificate_on_near_limit_words(monkeypatch):
    # words whose sum(|w|) passes max_raw, scaled so that some streams
    # saturate and most do not: the stream comparison shows the certificate
    # never spares a saturating stream the prefix pass, and some unsaturated
    # streams are certified and some are not
    rng = np.random.default_rng(61)
    outcomes = {}  # (saturates, certified) -> count
    for fmt in N_ADD_FORMATS:
        for n in range(6, 11):
            for spread in (3.0, 4.0, 6.0):
                sigma = fmt.max_raw / (spread * math.sqrt(1 << n))
                words = np.rint(rng.normal(0.0, sigma, (2, 1 << n))).astype(np.int64)
                assert (np.abs(words).sum(axis=1) > fmt.max_raw).any()
                certified = n_add_takes_bound_path(words, fmt, monkeypatch)
                monkeypatch.undo()
                ctx = FxContext()
                streamed_n_add(words, fmt, ctx)
                saturates = ctx.overflow
                assert not (certified and saturates)
                outcomes[saturates, certified] = outcomes.get((saturates, certified), 0) + 1
    assert set(outcomes) == {(True, False), (False, True), (False, False)}


def test_n_add_never_certifies_saturating_words(monkeypatch):
    # adversarial words: a single min_raw, one row's signs on words that sum
    # to max_raw + 1, and a prefix one past the limit that returns to zero
    fmt = FxFormat(12, 8)
    rng = np.random.default_rng(67)
    for n in range(1, 9):
        size = 1 << n
        cases = []
        for col in {1, size // 2, size - 1}:  # column 0 is never negated
            words = np.zeros((2, size), dtype=np.int64)
            words[1, col] = fmt.min_raw
            cases.append(words)
        row = int(rng.integers(size))
        signs = hadamard_sign_column(row, n)  # the sign matrix is symmetric
        cuts = np.sort(rng.integers(0, fmt.max_raw + 2, size - 1))
        magnitudes = np.diff(cuts, prepend=0, append=fmt.max_raw + 1)
        words = np.zeros((2, size), dtype=np.int64)
        words[0] = signs * magnitudes
        cases.append(words)
        if size > 1:
            back = words.copy()
            half = size // 2
            back[0, :half] = signs[:half] * np.diff(
                np.sort(rng.integers(0, fmt.max_raw + 2, half - 1)), prepend=0,
                append=fmt.max_raw + 1)
            back[0, half:] = -signs[half:] * np.abs(back[0, :half])[::-1]
            cases.append(back)
        for words in cases:
            assert not n_add_takes_bound_path(words, fmt, monkeypatch), (n, words)
            monkeypatch.undo()
            ctx = one_ctx()
            n_add_one(words, fmt, ctx)
            assert ctx.overflow[0]


def prefix_saturating_words(n, fmt):
    """Words (k, k, k, -k) on columns 0..3, k = 0.4 max_raw: every row sums
    to +/-2k, in range, but the rows whose signs there are all + reach 3k."""
    k = 2 * fmt.max_raw // 5
    words = np.zeros((2, 1 << n), dtype=np.int64)
    words[:, :4] = [k, k, k, -k]
    return words


def test_n_add_skips_the_prefix_pass_when_a_sum_leaves_the_range(monkeypatch):
    # a row whose whole sum leaves the range saturates, so _n_add goes
    # straight to the clamp pass; one whose prefixes alone do needs both
    fmt = FxFormat(12, 8)
    for n in (2, 5, 9):
        past = np.zeros((2, 1 << n), dtype=np.int64)
        past[0, :2] = fmt.max_raw // 2 + 1  # row 0 sums to max_raw + 1
        for words, prefix_pass in ((past, False), (prefix_saturating_words(n, fmt), True)):
            passes = []
            prefix_combine = pipeline._prefix_combine
            monkeypatch.setattr(pipeline, "_prefix_combine",
                                lambda *args: passes.append(1) or prefix_combine(*args))
            assert assert_n_add_matches_stream(words, fmt)
            monkeypatch.undo()
            assert bool(passes) == prefix_pass


def test_n_add_takes_no_image_of_rows_past_the_exact_limit(monkeypatch):
    # with EXACT_L1 below row 0's sum of |w|, _n_add takes no image of the
    # rows, so neither the pair bound nor the whole-sum shortcut runs: a
    # stream the pair bound certifies and one whose whole sum leaves the
    # range both go through the prefix pass, with the streamed words and flag
    fmt = FxFormat(12, 8)
    certified = np.array([[-800, 100, 600, 300, 300, 0, 0, 0], [0] * 8], dtype=np.int64)
    past = np.zeros((2, 8), dtype=np.int64)
    past[0, :2] = fmt.max_raw // 2 + 1  # row 0 sums to max_raw + 1
    for words, saturates in ((certified, False), (past, True)):
        l1 = int(np.abs(words[0]).sum())
        for limit, image in ((pipeline.EXACT_L1, True), (l1 - 1, False)):
            calls = []
            monkeypatch.setattr(pipeline, "EXACT_L1", limit)
            for name in ("_exact_transform", "_prefix_combine"):
                monkeypatch.setattr(pipeline, name, lambda *args, name=name,
                                    f=getattr(pipeline, name): calls.append(name) or f(*args))
            assert assert_n_add_matches_stream(words, fmt) == saturates
            monkeypatch.undo()
            assert ("_exact_transform" in calls) == image
            assert ("_prefix_combine" in calls) == (not image), (saturates, limit)


def test_n_add_frees_the_prefix_pass_before_clamping():
    # every sum is in range but some prefixes are not, so both passes run;
    # keeping the prefix pass's three arrays through the clamp pass peaked
    # at 10.5 x the words, and N-sized butterfly scratch at 7.5 x
    fmt = FxFormat(12, 8)
    words = prefix_saturating_words(18, fmt)[:, None]
    ctx = one_ctx()
    tracemalloc.start()
    try:
        _n_add(words, fmt, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.overflow[0]
    assert peak <= 4.1 * words.nbytes


def natural_order_butterfly(arrays, combine):
    """The in-place natural-order butterfly: level h = 1, 2, ..., N/2 combines
    copies of the two halves of every 2h-block and writes them back."""
    n_states = arrays[0].shape[-1]
    h = 1
    while h < n_states:
        blocks = [a.reshape(-1, 2, h) for a in arrays]
        combine([b[:, 0].copy() for b in blocks], [b[:, 1].copy() for b in blocks],
                [b[:, 0] for b in blocks], [b[:, 1] for b in blocks])
        h *= 2
    return arrays


def butterfly_inputs(rng, n):
    """(combine, arrays) cases for every combine the engines use.  The int64
    words have a full-range row, whose prefixes leave the q4.8 range from
    n = 1 on, and a small row, which never does."""
    fmt = FxFormat(12, 8)
    words = np.stack((rng.integers(fmt.min_raw, fmt.max_raw + 1, 1 << n),
                      rng.integers(-3, 4, 1 << n)))
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return [
        (pipeline._sum_diff, (v,)),
        (pipeline._sum_diff, (words.copy(),)),
        (pipeline._prefix_combine, (words.copy(), words.copy(), words.copy())),
        (pipeline._clamp_combine, (words.copy(), np.full_like(words, fmt.min_raw),
                                   np.full_like(words, fmt.max_raw))),
    ]


def test_butterfly_matches_natural_order_bytes():
    rng = np.random.default_rng(83)
    saturated = []
    for n in range(13):  # odd n end in the scratch arrays and copy back
        for combine, arrays in butterfly_inputs(rng, n):
            want = natural_order_butterfly(tuple(a.copy() for a in arrays), combine)
            got = pipeline.butterfly(arrays, combine)
            assert all(g is a for g, a in zip(got, arrays))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            if combine is pipeline._prefix_combine:
                saturated.append(bool((got[1] > FxFormat(12, 8).max_raw).any()))
    assert any(saturated) and not all(saturated)


def test_butterfly_matches_natural_order_bytes_across_blocks(monkeypatch):
    # blocks of a few elements, so that n <= 12 runs many blocks and slabs;
    # a block with its scratch takes 32 bytes per element for one complex128
    # or one (2, N) int64 input, 96 for three (2, N) int64 inputs
    rng = np.random.default_rng(89)
    parities = set()
    for block_bytes in (64, 128, 256, 1024):
        monkeypatch.setattr(pipeline, "BLOCK_BYTES", block_bytes)
        for n in range(13):
            for combine, arrays in butterfly_inputs(rng, n):
                b = pipeline._block_length(arrays, 1 << n).bit_length() - 1
                if b < n:
                    parities.add((b % 2, (n - b) % 2))
                want = natural_order_butterfly(tuple(a.copy() for a in arrays), combine)
                got = pipeline.butterfly(arrays, combine)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()
    # odd and even in-block and row level counts, in every pairing
    assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_butterfly_matches_natural_order_bytes_two_levels_past_a_block():
    # unpatched: log2(B) + 2 levels for one complex128 input, so one-input
    # transforms run four blocks and two row levels, three-input passes four
    n = (pipeline.BLOCK_BYTES // 32).bit_length() + 1
    for combine, arrays in butterfly_inputs(np.random.default_rng(97), n):
        assert pipeline._block_length(arrays, 1 << n) <= 1 << (n - 2)
        want = natural_order_butterfly(tuple(a.copy() for a in arrays), combine)
        for g, w in zip(pipeline.butterfly(arrays, combine), want):
            assert g.tobytes() == w.tobytes()


def _engine_outputs(cases):
    # amplitude bytes and overflow flag of each fixed-point format and of the
    # float64 engine; the pipeline's amplitudes are lossless images of its words
    formats = (FxFormat(32, 25), FxFormat(16, 10), FxFormat(32, 20))
    out = []
    for g, params in cases:
        for fmt in formats:
            state, counts = run_qaoa(g, params, PipelineConfig(fmt=fmt))
            out.append((fmt.name, state.amps.tobytes(), counts.overflow))
        out.append(("f64", decomposed_run_qaoa_f64(g, params).state.amps.tobytes(), False))
    return out


def test_engines_are_byte_identical_under_a_tiny_block(monkeypatch):
    rng = np.random.default_rng(227)
    cases = [(random_graph(rng, n, weight_range=(0.2, 3.0)),
              QaoaParams.from_lists(rng.uniform(0.0, 2.0, p), rng.uniform(0.0, math.pi, p)))
             for n in range(2, 13) for p in (1, 2, 3)]
    default = _engine_outputs(cases)
    monkeypatch.setattr(pipeline, "BLOCK_BYTES", 256)
    assert _engine_outputs(cases) == default
    saturating = {name for name, _, overflow in default if overflow}
    assert {"q7.25", "q6.10"} <= saturating


@given(n=st.integers(0, 14), bits=st.integers(1, 32), at_min_raw=st.booleans(),
       blocks=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_exact_transform_matches_butterfly(n, bits, at_min_raw, blocks, seed):
    # the float64 Kronecker products against the int64 butterfly, on the
    # (2, N) register and on a (2, 16, N/16) stack of rows, with words
    # up to 2**31 in magnitude or all at q7.25's min_raw = -2**31
    rng = np.random.default_rng(seed)
    words = rng.integers(-(1 << bits - 1), 1 << bits - 1, size=(2, 1 << n))
    if at_min_raw:
        words[...] = FxFormat(32, 25).min_raw
    if blocks:
        words = words.reshape(2, 1 << min(n, 4), -1)
    given_words = words.copy()
    want = pipeline.butterfly((words.copy(),), pipeline._sum_diff)[0]
    got = pipeline._exact_transform(words)
    assert got.dtype == np.float64 and got.shape == words.shape
    assert got.astype(np.int64).tobytes() == want.tobytes()
    assert words.tobytes() == given_words.tobytes()


def test_sector_sums_past_the_exact_limit_certify_nothing():
    # _exact_transform is exact while a row's sum of |w| is at most 2**53;
    # a sector pass past it (possible only at n = 24) is rejected by the
    # sums alone, whatever its image holds, so an inexact image is never
    # used: a cost pass's (2h, 0), whose halves' sums are the words', and a
    # mixer pass's (h, rev h), whose halves split them
    fmt = FxFormat(32, 25)
    past = (1 << 53) + 1
    h = np.zeros((2, 8))
    sums = np.full(2, past)
    assert not pipeline._pair_bound_holds(2 * h, 0, sums, sums, fmt)
    for l_up in (0, 1 << 52, past):
        l_lo, l_up = np.full(2, past - l_up), np.full(2, l_up)
        assert not pipeline._pair_bound_holds(h, h[:, ::-1], l_lo, l_up, fmt), l_up


# Hashes run_qaoa's words, flags and counts over random instances at n <= 12,
# in q7.25 (saturating from about n = 10) and q12.20, and one n = 16 exact
# transform, whose first and last products, 32 x 32 by 32 x 2048 and 2048 x 64
# by 64 x 64, OpenBLAS splits over two threads.
_THREADS_PROGRAM = """
import hashlib, sys
import numpy as np
from qmaxemu import QaoaParams, WeightedGraph, pipeline, run_qaoa
from qmaxemu.fxp import FxFormat
rng = np.random.default_rng(79)
digest, saturated = hashlib.sha256(), 0
for case in range(16):
    n = int(rng.integers(6, 13))
    edges = [(i, j, float(rng.uniform(0.2, 3.0))) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.5]
    params = QaoaParams.from_lists(rng.uniform(0, 1, 2), rng.uniform(0, 3, 2))
    fmt = (FxFormat(32, 25), FxFormat(32, 20))[case % 2]
    state, counts = run_qaoa(WeightedGraph(n, tuple(edges)), params,
                             pipeline.PipelineConfig(fmt=fmt))
    digest.update(state.amps.tobytes())
    digest.update(repr((counts.overflow, counts.adds, counts.cycles_per_op)).encode())
    saturated += counts.overflow
words = rng.integers(-(1 << 31), 1 << 31, size=(2, 1 << 16))
digest.update(pipeline._exact_transform(words).tobytes())
print(digest.hexdigest(), saturated)
"""


def test_blas_threads_cannot_change_a_word():
    # _exact_transform is exact whatever the BLAS thread count, so one and
    # two OpenBLAS threads give the same words, flags and counts
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"OPENBLAS_NUM_THREADS does not set the threads of {blas}")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREADS_PROGRAM], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout.split())
    (digest, saturated), other = outputs[0], outputs[1]
    assert 0 < int(saturated) < 16
    assert other == [digest, saturated]


@pytest.mark.parametrize("shape", [(6,), (12,), (2, 12), (0,)])
def test_butterfly_rejects_lengths_that_are_not_powers_of_two(shape):
    with pytest.raises(ValueError, match="power of two"):
        pipeline.butterfly((np.zeros(shape),), pipeline._sum_diff)


def test_init_uniform_state():
    s1 = init_uniform_state(1)
    np.testing.assert_allclose(s1.physical(), [math.sqrt(0.5)] * 2, atol=2 ** -25)
    s2 = init_uniform_state(2)
    assert s2.scale_exp == 0
    assert abs(s2.physical_norm() - 1.0) < 2 ** -20
    np.testing.assert_allclose(probabilities(s2), [0.25] * 4)
    s3 = init_uniform_state(3)
    assert s3.scale_exp == Fraction(1, 2)
    assert abs(s3.physical_norm() - 1.0) < 2 ** -20
    with pytest.raises(ValueError):
        init_uniform_state(0)
    with pytest.raises(ValueError):
        init_uniform_state(25)


def test_elemental_op_reduces_to_hadamard_on_zero_angles():
    out = run_elemental_ansatz(to_words([1.0, 0.0]), np.zeros((1, 2)), CFG)
    np.testing.assert_allclose(to_amps(out), [1.0, 1.0], atol=2 ** -12)

    out = run_elemental_ansatz(to_words([1.0, 1.0]), np.zeros((1, 2)), CFG)
    np.testing.assert_allclose(to_amps(out), [2.0, 0.0], atol=2 ** -12)


def test_elemental_op_matches_dense_matvec():
    rng = np.random.default_rng(41)
    n = 3
    n_states = 1 << n
    signs = np.array([[hadamard_sign(r, c) for c in range(n_states)]
                      for r in range(n_states)], dtype=np.float64)
    for _ in range(10):
        angles = rng.uniform(-math.pi, math.pi, n_states)
        amps = (rng.uniform(-0.5, 0.5, n_states)
                + 1j * rng.uniform(-0.5, 0.5, n_states))
        out = run_elemental_ansatz(to_words(amps), angles[None], CFG)
        # exact-arithmetic oracle for the same dataflow
        want = signs @ (np.exp(1j * angles) * amps)
        assert np.abs(to_amps(out) - want).max() <= 2 ** -12


def test_elemental_op_rejects_wrong_angle_count():
    # one check after the expand, not numpy's broadcast error, rejects it
    with pytest.raises(ValueError, match="expected 2 angles"):
        run_elemental_ansatz(to_words([1.0, 0.0]), np.zeros((1, 3)), CFG)


@pytest.mark.parametrize("order,count", [("mixer", 9), ("mixer", 3), ("mixer", 16),
                                         ("cost", 7), ("cost", 9), ("cost", 16)])
def test_elemental_op_rejects_a_wrong_distinct_angle_count(order, count):
    # given the run's cost table, a pass takes its table's distinct angles:
    # n + 1 = 5 mixer levels or N/2 = 8 cost angles at n = 4, and no other
    # count is gathered, ignored in part or broadcast
    diag = path_graph(4).cost_table
    words = to_words(np.full(16, 0.25))
    with pytest.raises(ValueError, match=f"expected {5 if order == 'mixer' else 8} distinct"):
        run_elemental_ansatz(words, np.zeros((1, count)), CFG, order=order, diag=diag)


def test_run_qaoa_fidelity_at_fourteen_qubits():
    # q12.20 keeps this instance clear of saturation at n = 14; bounds are
    # acceptance criterion 2's
    g = random_graph(np.random.default_rng(61), 14, edge_prob=0.3)
    params = QaoaParams(1, (0.15,), (0.4,))
    state, report = run_qaoa(g, params, PipelineConfig(fmt=FxFormat(32, 20)))
    assert not report.overflow
    ref = decomposed_run_qaoa_f64(g, params).state
    tv = 0.5 * np.abs(probabilities(state) - probabilities(ref)).sum()
    assert tv <= 1e-3
    d = build_cost_diagonal(g, 14)
    assert abs(expectation(state, d).f_p - expectation(ref, d).f_p) <= 5e-3


@pytest.mark.parametrize("fmt", [FxFormat(32, 20), FxFormat(16, 10)], ids=lambda f: f.name)
def test_run_qaoa_at_beta_half_pi(fmt):
    # these formats round their constants so that the fold maps an angle of
    # exactly pi/2 (here -pi/2 + 2*pi, from the mixer) one ulp past half_pi,
    # which the CORDIC must accept
    g = path_graph(3)
    params = QaoaParams(1, (0.3,), (math.pi / 2,))
    state, report = run_qaoa(g, params, PipelineConfig(fmt=fmt))
    assert not report.overflow
    ref = decomposed_run_qaoa_f64(g, params).state
    assert 0.5 * np.abs(probabilities(state) - probabilities(ref)).sum() <= 8 * fmt.ulp


def test_layer_is_identity_at_zero_parameters():
    for n in (1, 2, 3, 4):
        g = complete_graph(n) if n > 1 else WeightedGraph(1, ())
        d = build_cost_diagonal(g, n)
        m = build_mixer_exponents(n)
        before = init_uniform_state(n).amps
        words = run_layer(to_words(before), cost_angles(d, 0.0)[None],
                          mixer_angles(m, 0.0)[None], CFG)
        np.testing.assert_allclose(to_amps(words), before, atol=2 ** -12)


def test_layer_matches_dense_oracle():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    params = QaoaParams(1, (math.pi / 4,), (math.pi / 8,))
    state, _ = run_qaoa(g, params)
    dense = dense_run_qaoa(g, params).state
    np.testing.assert_allclose(probabilities(state), probabilities(dense),
                               atol=2 ** -12)


def test_layer_scale_exp_constant_at_default_shift():
    # the n-bit shift exactly realizes the layer's 1/2**n factor, so the
    # physical scale never moves and the norm stays 1
    g = complete_graph(3)
    d = build_cost_diagonal(g, 3)
    m = build_mixer_exponents(3)
    start = init_uniform_state(3)
    words = to_words(start.amps)
    for _ in range(4):
        run_layer(words, cost_angles(d, 0.3)[None], mixer_angles(m, 0.2)[None], CFG)
    assert abs(to_state(words, start.scale_exp).physical_norm() - 1.0) < 2 ** -10


def test_run_qaoa_zero_parameters_gives_uniform(triangle):
    state, report = run_qaoa(triangle, QaoaParams(1, (0.0,), (0.0,)))
    np.testing.assert_allclose(probabilities(state), [1 / 8] * 8, atol=1e-6)
    assert not report.overflow


def test_run_qaoa_matches_dense_distribution(triangle):
    params = QaoaParams(1, (0.7,), (0.6,))
    state, report = run_qaoa(triangle, params)
    dense = dense_run_qaoa(triangle, params).state
    tv = 0.5 * np.abs(probabilities(state) - probabilities(dense)).sum()
    assert tv <= 1e-3
    assert not report.overflow


def test_cycle_accounting_formula():
    params = QaoaParams.from_lists([0.2] * 8, [0.4] * 8)
    g = complete_graph(9)
    _, report = run_qaoa(g, params)
    per_op = 512 + PIPELINE_LATENCY
    assert report.cycles_per_op == [per_op] * 16
    assert report.cycles_total == 16 * per_op
    assert report.mults == 16 * 512
    assert report.adds == 16 * 512 * 512
    assert report.derived_seconds() == pytest.approx(report.cycles_total * 1e-8)


def test_norm_preserved_across_layers():
    rng = np.random.default_rng(43)
    for n, p in ((3, 8), (6, 4), (9, 2)):
        g = random_graph(rng, n)
        gamma = rng.uniform(0, min(math.pi, 12.0 / g.total_weight), p)
        beta = rng.uniform(0, math.pi, p)
        state, report = run_qaoa(g, QaoaParams.from_lists(gamma, beta))
        assert not report.overflow
        assert abs(state.physical_norm() - 1.0) < 2 ** -10


def test_bit_identical_determinism():
    g = random_graph(np.random.default_rng(47), 5)
    params = QaoaParams.from_lists([0.5, 0.2], [0.3, 0.9])
    a, rep_a = run_qaoa(g, params)
    b, rep_b = run_qaoa(g, params)
    assert (a.amps == b.amps).all()
    assert rep_a == rep_b


def test_overflow_flag_raised_on_saturation():
    # adversarial: large-amplitude concentration at n=9 saturates q7.25
    g = complete_graph(9)
    params = QaoaParams.from_lists([0.7] * 8, [0.6] * 8)
    _, report = run_qaoa(g, params)
    assert report.overflow


def test_trace_records_stage_occupancy(tmp_path):
    g = WeightedGraph(2, ((0, 1, 1.0),))
    records = []
    state, report = run_qaoa(g, QaoaParams(1, (0.4,), (0.2,)),
                             trace_writer=records.append)
    per_op = 4 + PIPELINE_LATENCY
    assert len(records) == 2 * per_op
    first = records[0]
    assert first["clock"] == 0 and first["calculate_rad"] == 0
    assert first["normalize_rad"] is None
    drain = records[per_op - 1]
    assert drain["clock"] == per_op - 1
    assert drain["n_add"] == 3  # last element lands in the accumulator
    orders = {r["order"] for r in records}
    assert orders == {"cost", "mixer"}
    # each layer's cost pass is op 2*layer and its mixer pass op 2*layer + 1
    records = []
    run_qaoa(g, QaoaParams(2, (0.4, 0.1), (0.2, 0.3)), trace_writer=records.append)
    assert [(r["op"], r["layer"], r["order"]) for r in records[::per_op]] == [
        (0, 0, "cost"), (1, 0, "mixer"), (2, 1, "cost"), (3, 1, "mixer")]
    assert all(r["op"] == records[k * per_op]["op"]
               for k in range(4) for r in records[k * per_op:(k + 1) * per_op])


def _start_register(n, fmt):
    words = np.zeros((2, 1, 1 << n), dtype=np.int64)
    words[0] = fxp.vec_from_real(init_uniform_state(n, fmt).amps.real, fmt)
    return words


def _run_streaming_every_angle(g, params, cfg, trace_writer=None):
    # run_qaoa's layer loop with both passes streaming all N angles: the
    # oracle for run_qaoa's passes on the distinct angles, N/2 for a cost
    # pass and n + 1 for a mixer pass; returns the final register and flag
    n = g.num_vertices
    d, m = build_cost_diagonal(g, n), build_mixer_exponents(n)
    words = _start_register(n, cfg.fmt)
    ctx = one_ctx()
    for layer in range(params.p):
        run_layer(words, cost_angles(d, params.gamma[layer])[None],
                  mixer_angles(m, params.beta[layer])[None], cfg, ctx, trace_writer, layer=layer)
    return words, ctx.overflow[0]


def _assert_distinct_angles_match_n_angles(g, params, fmt, trace=False):
    cfg = PipelineConfig(fmt=fmt)
    got_records, want_records = [], []
    state, counts = run_qaoa(g, params, cfg, got_records.append if trace else None)
    words, overflow = _run_streaming_every_angle(
        g, params, cfg, want_records.append if trace else None)
    # run_qaoa's readout, against the sum re + 1j*im of the register's rows
    assert state.amps.tobytes() == to_amps(words, fmt).tobytes()
    assert counts.overflow == overflow
    assert json.dumps(got_records) == json.dumps(want_records)
    return overflow


@pytest.mark.parametrize("fmt,gamma_hi", [(FxFormat(32, 25), 2.0), (FxFormat(32, 20), 60.0),
                                          (FxFormat(12, 8), 0.5)],
                         ids=["q7.25", "q12.20", "q4.8"])
def test_mixer_on_distinct_angles_matches_streaming_all_angles(fmt, gamma_hi):
    rng = np.random.default_rng(211)
    flags = set()
    for k in range(24):
        g = random_graph(rng, int(rng.integers(2, 11)), weight_range=(0.2, 3.0))
        p = int(rng.integers(1, 4))
        params = QaoaParams.from_lists(rng.uniform(0.0, gamma_hi, p),
                                       rng.uniform(0.0, math.pi, p))
        flags.add(_assert_distinct_angles_match_n_angles(g, params, fmt, trace=k % 6 == 0))
    assert flags == {False, True}  # the draws include saturating runs


def test_mixer_on_distinct_angles_matches_on_saturating_k9():
    params = QaoaParams.from_lists([0.7] * 8, [0.6] * 8)
    assert _assert_distinct_angles_match_n_angles(complete_graph(9), params, FxFormat(),
                                                trace=True)


def test_mixer_on_distinct_angles_matches_when_calculate_rad_saturates():
    # q4.8 holds angles below 8: the mixer angles u*beta reach 4*3 = 12
    fmt = FxFormat(12, 8)
    ctx = FxContext()
    fxp.vec_from_real(mixer_angles(build_mixer_exponents(4), 3.0), fmt, ctx)
    assert ctx.overflow
    params = QaoaParams(1, (0.05,), (3.0,))
    assert _assert_distinct_angles_match_n_angles(path_graph(4), params, fmt, trace=True)


def test_cost_on_half_angles_matches_when_calculate_rad_saturates():
    # q4.8 holds angles in [-8, 8): the cost angles -gamma*entry reach -2.5*6 = -15
    fmt = FxFormat(12, 8)
    d = build_cost_diagonal(path_graph(4), 4)
    ctx = FxContext()
    fxp.vec_from_real(cost_angles(d, 2.5), fmt, ctx)
    assert ctx.overflow
    params = QaoaParams(1, (2.5,), (0.3,))
    assert _assert_distinct_angles_match_n_angles(path_graph(4), params, fmt, trace=True)


@pytest.mark.parametrize("fmt", [FxFormat(32, 25), FxFormat(32, 20)], ids=lambda f: f.name)
def test_passes_update_the_register_in_place(fmt):
    # the cost and mixer passes and run_layer return the register they were
    # given, and the words they leave are those of the all-angle oracle;
    # q7.25 saturates on this instance, q12.20 does not
    g = random_graph(np.random.default_rng(229), 10, weight_range=(0.2, 3.0))
    params = QaoaParams.from_lists([0.9, 0.4], [0.5, 1.1])
    cfg, diag, mixer = PipelineConfig(fmt=fmt), g.cost_table, mixer_table(10)
    by_pass, by_layer = _start_register(10, fmt), _start_register(10, fmt)
    pass_ctx, layer_ctx = one_ctx(), one_ctx()
    for layer in range(params.p):
        cost = cost_half_angles(diag, params.gamma[layer])[None]
        levels = mixer_level_angles(mixer, params.beta[layer])[None]
        register = run_elemental_ansatz(by_pass, cost, cfg, pass_ctx, diag=diag)
        assert register is by_pass
        register = run_elemental_ansatz(by_pass, levels, cfg, pass_ctx, order="mixer",
                                        diag=diag)
        assert register is by_pass
        by_pass >>= 10
        register = run_layer(by_layer, cost, levels, cfg, layer_ctx, diag=diag)
        assert register is by_layer
    want, overflow = _run_streaming_every_angle(g, params, cfg)
    assert by_pass.dtype == by_layer.dtype == np.int64
    assert by_pass.tobytes() == want.tobytes() and by_layer.tobytes() == want.tobytes()
    assert pass_ctx.overflow[0] == layer_ctx.overflow[0] == overflow == (fmt.name == "q7.25")


@pytest.mark.parametrize("fmt,gamma", [
    (FxFormat(32, 20), [0.3, 0.2]),
    (FxFormat(32, 25), [0.3, 0.2]),
    (FxFormat(32, 20), [0.2, 0.1]),
], ids=["q12.20", "q7.25", "q12.20-prefix-pass"])
def test_run_qaoa_holds_one_register(fmt, gamma, monkeypatch):
    # every stage updates the register in place, and 1_MULT rounds and
    # clips its products in place.  Here mixer passes fail the parity
    # sector's certificate, so their N_ADD runs on the full (2, N)
    # product, beside the N/2 words.  Neither q12.20 run saturates, and the
    # prefix pass of its first mixer pass peaks at up to 4.33 x on the
    # register and two copies; a third copy would reach 5.33 x.  The q7.25
    # run saturates in its first mixer pass and stays on the full register,
    # peaking at 4.45 x where that pass clamps, then at 4.25 x in 1_MULT;
    # its saturating passes go straight to the clamp pass, since a row's
    # whole sum leaves the range, and it takes no prefix pass.  An
    # out-of-place 1_MULT of both rows at once would reach 5.3 x, and a
    # second re/im pair, a stacked copy for N_ADD or a start vector held to
    # readout would each add at least 1 x.  The cost table, the mixer table
    # with its sector arrays and the CORDIC table belong to the graph, n and
    # the format, not to the run, so they are built before tracing.
    n = 16
    g = random_graph(np.random.default_rng(5), n, weight_range=(0.2, 3.0))
    params = QaoaParams.from_lists(gamma, [0.4, 0.7])
    g.cost_table, mixer_table(n).odd, mixer_table(n).sector_level
    run_qaoa(path_graph(2), params, PipelineConfig(fmt=fmt))  # builds the CORDIC table
    prefix_passes = []
    prefix_combine = pipeline._prefix_combine
    monkeypatch.setattr(pipeline, "_prefix_combine",
                        lambda *args: prefix_passes.append(1) or prefix_combine(*args))
    tracemalloc.start()
    try:
        _, counts = run_qaoa(g, params, PipelineConfig(fmt=fmt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.overflow == (fmt.name == "q7.25")
    assert bool(prefix_passes) == (fmt.name == "q12.20")
    assert peak <= 5 * 2 * 8 * (1 << n)


def test_certified_run_holds_the_parity_sector(monkeypatch):
    # every pass of this run is certified by sum |w| in the sector, so no
    # full-N N_ADD runs and the register stays N/2 words of each row: the
    # run peaks at 2.25 x the full (2, N) register, in 1_MULT, where the
    # full-N passes peak at 4.25 x
    n = 16
    g = random_graph(np.random.default_rng(5), n, weight_range=(0.2, 3.0))
    params = QaoaParams.from_lists([0.02, 0.01], [0.4, 0.7])
    cfg = PipelineConfig(fmt=FxFormat(32, 20))
    g.cost_table, mixer_table(n).odd, mixer_table(n).sector_level
    run_qaoa(path_graph(2), params, cfg)  # builds the CORDIC table
    full_passes = []
    stream_passes = pipeline._stream_passes
    monkeypatch.setattr(pipeline, "_stream_passes",
                        lambda *args: full_passes.append(1) or stream_passes(*args))
    tracemalloc.start()
    try:
        _, counts = run_qaoa(g, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not counts.overflow and not full_passes
    assert peak <= 2.5 * 2 * 8 * (1 << n)


def _parity_breaks(order, words):
    """Whether a full-N register after a pass of this order lies outside the
    parity sector: odd-popcount states not 0 after a cost pass, or a state
    that is not its own mirror after a mixer pass."""
    if order == "cost":
        odd = mixer_table(words.shape[-1].bit_length() - 1).popcount & 1
        return bool(words[:, odd == 1].any())
    return bool((words != words[:, ::-1]).any())


@pytest.mark.parametrize("fmt,n,seed,gamma,beta,registers,full,breaks", [
    # the first mixer pass saturates: the run leaves the sector there
    (FxFormat(32, 25), 10, 229, [0.9, 0.4], [0.5, 1.1], [512, 1024, 1024, 1024], True, None),
    # the first cost pass saturates, and the symmetry breaks there
    (FxFormat(12, 8), 10, 0, [0.3, 1.4], [0.8, 0.2], [1024] * 4, True, 0),
    # the mixer passes fail sum |w|, but the half-stream bound certifies them
    (FxFormat(32, 25), 8, 0, [0.9, 0.4], [0.5, 1.1], [128] * 4, False, None),
    # a pass fails both certificates but saturates no row: back to the sector
    (FxFormat(32, 25), 8, 19, [0.9, 0.4], [0.5, 1.1], [128] * 4, True, None),
], ids=["q7.25-mixer", "q4.8-cost-breaks", "q7.25-halves", "q7.25-returns"])
def test_run_leaves_the_parity_sector_after_a_saturating_n_add(fmt, n, seed, gamma, beta,
                                                               registers, full, breaks,
                                                               monkeypatch):
    g = random_graph(np.random.default_rng(seed), n, weight_range=(0.2, 3.0))
    params = QaoaParams.from_lists(gamma, beta)
    cfg = PipelineConfig(fmt=fmt)
    passes = []
    run_pass = pipeline.run_elemental_ansatz
    full_passes = []
    stream_passes = pipeline._stream_passes

    def recording(*args, **kwargs):  # run_layer looks the pass up in the module
        words = run_pass(*args, **kwargs)
        passes.append((kwargs["order"], words[:, 0].copy()))
        return words

    monkeypatch.setattr(pipeline, "run_elemental_ansatz", recording)
    monkeypatch.setattr(pipeline, "_stream_passes",
                        lambda *args: full_passes.append(1) or stream_passes(*args))
    state, counts = run_qaoa(g, params, cfg)
    got = [words.shape[-1] for _, words in passes]
    assert bool(full_passes) == full  # whether a pass ran the full-N passes
    passes.clear()
    want, overflow = _run_streaming_every_angle(g, params, cfg)
    assert got == registers
    assert state.amps.tobytes() == to_amps(want, fmt).tobytes()
    assert counts.overflow == overflow == (registers[-1] == 1 << n)
    broken = [k for k, (order, words) in enumerate(passes) if _parity_breaks(order, words)]
    assert (broken[0] if broken else None) == breaks


@pytest.mark.parametrize("fmt", [FxFormat(32, 20), FxFormat(32, 25)], ids=lambda f: f.name)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1),
       gamma=st.floats(0.0, 4.0), beta=st.floats(0.0, 4.0))
@settings(max_examples=40, deadline=None)
def test_certified_passes_keep_the_parity_sector(fmt, n, seed, gamma, beta):
    # what run_qaoa's sector relies on, shown on the full-N passes: on a
    # register whose N_ADD input has sum |w| <= max_raw in each row, a cost
    # pass on a mirror-symmetric register leaves every odd-popcount state at
    # exactly 0, and a mixer pass on a register that is 0 there returns its
    # own mirror
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weight_range=(0.2, 3.0))
    d, m = g.cost_table, mixer_table(n)
    odd = m.popcount & 1 == 1
    cfg = PipelineConfig(fmt=fmt)
    # |w| <= max_raw / (4N) in each part keeps each 1_MULT word below
    # max_raw / (2N) + 2, so each row's sum of |w| below max_raw
    top = fmt.max_raw // (4 << n)
    half = rng.integers(-top, top + 1, (2, 1 << (n - 1)))
    symmetric = np.concatenate((half, half[:, ::-1]), axis=1)
    supported = rng.integers(-top, top + 1, (2, 1 << n))
    supported[:, odd] = 0
    for words, angles, table, order in ((symmetric, cost_half_angles(d, gamma), d, "cost"),
                                        (supported, mixer_level_angles(m, beta), m, "mixer")):
        cos, sin = fxp.vec_sincos(fxp.vec_from_real(angles, fmt), fmt)
        product = fxp.vec_cmul(words.copy(), table.expand(cos), table.expand(sin), fmt)
        assert (np.abs(product).sum(axis=-1) <= fmt.max_raw).all()  # certified
        out = run_elemental_ansatz(words[:, None], angles[None], cfg, order=order, diag=d)
        out = out[:, 0]
        if order == "cost":
            assert not out[:, odd].any()
        else:
            assert (out == out[:, ::-1]).all()


@given(n=st.integers(3, 10), fmt=st.sampled_from(N_ADD_FORMATS),
       seed=st.integers(0, 2**32 - 1), beta=st.one_of(st.just(0.0), st.floats(0.0, 4.0)))
@settings(max_examples=60, deadline=None)
def test_mixer_pass_from_the_sector_returns_its_own_mirror(n, fmt, seed, beta):
    # the pass streams the sector's words at the even-popcount states and 0
    # at the others, and sign(N-1-i, c) = sign(i, c) * (-1)**popcount(c), so
    # rows i and N-1-i accumulate the same stream: the register is its own
    # mirror even when a row saturates.  At beta = 0 the words, all above
    # max_raw / 2, are their own products, and row 0 saturates
    rng = np.random.default_rng(seed)
    words = rng.integers(fmt.max_raw // 2 + 1, fmt.max_raw + 1, (2, 1 << (n - 1)))
    if beta:
        words *= rng.choice((-1, 1), words.shape)
    m, ctx = mixer_table(n), one_ctx()
    out = run_elemental_ansatz(words[:, None], mixer_level_angles(m, beta)[None],
                               PipelineConfig(fmt=fmt), ctx, order="mixer",
                               diag=WeightedGraph(n, ()).cost_table)[:, 0]
    assert beta or ctx.overflow[0]
    # a batch whose N_ADD saturates leaves the sector, onto the full register
    assert (out.shape[-1] == 1 << n) == ctx.overflow[0]
    if out.shape[-1] < 1 << n:  # back in the sector: h, then its mirror
        out = np.concatenate((out, out[:, ::-1]), axis=1)
    assert (out == out[:, ::-1]).all()


def sector_product(words, order):
    """The full (2, N) N_ADD input of a sector pass on its N/2 words: the
    words then their mirror for a cost pass, and for a mixer pass the words
    at the sector's even-popcount states, 0 elsewhere."""
    half = words.shape[-1]
    if order == "cost":
        return np.concatenate((words, words[:, ::-1]), axis=1)
    states = np.arange(half) + np.where(mixer_table(half.bit_length()).odd, half, 0)
    full = np.zeros((2, 2 * half), dtype=np.int64)
    full[:, states] = words
    return full


def half_stream_bound(product):
    """Twice the pair bound over the two halves of an N-stream, the largest
    on any row: with each half's own transform Y and sum of |w| T,
    max(|Y_lo| + T_lo, 2|Y_lo| + |Y_up| + T_up)."""
    half = product.shape[-1] // 2
    signs = sign_matrix(half.bit_length() - 1)
    (y_lo, t_lo), (y_up, t_up) = [
        (np.abs(part @ signs), np.abs(part).sum(axis=-1, keepdims=True))
        for part in (product[:, :half], product[:, half:])]
    return int(np.maximum(y_lo + t_lo, 2 * y_lo + y_up + t_up).max())


@given(n=st.integers(1, 10), fmt=st.sampled_from(N_ADD_FORMATS),
       order=st.sampled_from(["cost", "mixer"]), seed=st.integers(0, 2**32 - 1),
       bits=st.integers(1, 32), offset=st.one_of(st.none(), st.integers(-4, 4)))
@settings(max_examples=80, deadline=None)
def test_sector_n_add_matches_the_full_stream(n, fmt, order, seed, bits, offset):
    # _sector_n_add against _n_add on the full product and the streamed
    # oracle, on random words, or, with an offset, on words scaled so that
    # the half-stream bound lands within a few units of its limit: the same
    # words and flag, and the full-N passes run exactly when that bound fails
    half = 1 << (n - 1)
    rng = np.random.default_rng(seed)
    bits = min(bits, fmt.word_bits)
    words = rng.integers(-(1 << bits - 1), 1 << bits - 1, size=(2, half), dtype=np.int64)
    if offset is not None and words.any():
        scale = half_stream_bound(sector_product(words, order)) / (2 * fmt.max_raw)
        words = np.clip((words / scale).astype(np.int64), fmt.min_raw, fmt.max_raw)
        top = np.unravel_index(np.abs(words).argmax(), words.shape)
        words[top] = np.clip(words[top] + np.sign(words[top]) * offset,
                             fmt.min_raw, fmt.max_raw)
    product = sector_product(words, order)
    bound = half_stream_bound(product) <= 2 * fmt.max_raw
    want_ctx, got_ctx = FxContext(), one_ctx()
    want = streamed_n_add(product, fmt, want_ctx)
    assert (n_add_one(product, fmt, one_ctx()) == want).all()
    full_passes = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_stream_passes", lambda *args, f=pipeline._stream_passes:
                      full_passes.append(1) or f(*args))
        got = pipeline._sector_n_add(words[:, None].copy(), order, mixer_table(n), fmt,
                                     got_ctx)[:, 0]
    # only a saturating N_ADD widens the register to the full N words
    assert got_ctx.overflow[0] == want_ctx.overflow == (got.shape[-1] == 2 * half)
    assert bool(full_passes) == (not bound)
    assert not (bound and want_ctx.overflow)
    if got.shape[-1] == half:  # back in the sector: rebuild the full register
        assert not got_ctx.overflow[0]
        # after a cost pass the words e sit at the even-popcount states, as
        # a mixer pass's product does; after a mixer pass, h then its mirror
        got = (sector_product(got, "mixer") if order == "cost"
               else np.concatenate((got, got[:, ::-1]), axis=1))
    assert got.dtype == np.int64
    assert (got == want).all()


@given(n=st.integers(1, 10), fmt=st.sampled_from(N_ADD_FORMATS),
       seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 32), stretch=st.floats(0.5, 1.05))
@settings(max_examples=100, deadline=None)
def test_pair_bound_agrees_with_the_integer_bound_on_any_words(n, fmt, seed, bits, stretch):
    # any (2, N) words, not only sector products, scaled to put the pair
    # bound at 0.5 to 1.05 times its limit: on _exact_transform's halves,
    # _pair_bound_holds decides as the integer half_stream_bound does, and
    # it never certifies a stream whose streamed N_ADD saturates
    half = 1 << (n - 1)
    rng = np.random.default_rng(seed)
    bits = min(bits, fmt.word_bits)
    words = rng.integers(-(1 << bits - 1), 1 << bits - 1, size=(2, 2 * half), dtype=np.int64)
    if words.any():
        scale = stretch * 2 * fmt.max_raw / half_stream_bound(words)
        words = np.clip(np.rint(words * scale).astype(np.int64), fmt.min_raw, fmt.max_raw)
    image = pipeline._exact_transform(words)
    l_lo, l_up = np.abs(words[:, :half]).sum(axis=-1), np.abs(words[:, half:]).sum(axis=-1)
    certified = pipeline._pair_bound_holds(image[:, :half], image[:, half:], l_lo, l_up, fmt)
    assert certified == (half_stream_bound(words) <= 2 * fmt.max_raw)
    ctx = FxContext()
    streamed_n_add(words, fmt, ctx)
    assert not (certified and ctx.overflow)


@pytest.mark.parametrize("order", ["cost", "mixer"])
@pytest.mark.parametrize("peak,whole_sum", [(0.95, False), (1.2, True)],
                         ids=["prefix-only", "whole-sum"])
def test_rejected_sector_pass_takes_one_transform(order, peak, whole_sum):
    # a sector pass that the pair bound rejects reads its whole sums off its
    # own N/2 image: it takes one _exact_transform and no _n_add, and runs
    # the prefix pass only when no whole sum leaves the range.  The words
    # are scaled so that the full stream's largest whole sum is peak times
    # max_raw; in both cases a row saturates
    n, fmt = 8, FxFormat(16, 10)
    drawn = np.random.default_rng(3).integers(-1000, 1001, (2, 1 << (n - 1)))
    signs = sign_matrix(n)
    scale = peak * fmt.max_raw / np.abs(sector_product(drawn, order) @ signs).max()
    words = np.rint(drawn * scale).astype(np.int64)
    product = sector_product(words, order)
    assert (np.abs(product @ signs).max() > fmt.max_raw) == whole_sum
    want_ctx = FxContext()
    want = streamed_n_add(product, fmt, want_ctx)
    assert want_ctx.overflow
    calls, got_ctx = [], one_ctx()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_exact_transform", "_n_add", "_stream_passes", "_prefix_combine"):
            patch.setattr(pipeline, name, lambda *args, name=name, f=getattr(pipeline, name):
                          calls.append(name) or f(*args))
        got = pipeline._sector_n_add(words[:, None], order, mixer_table(n), fmt, got_ctx)
    assert calls.count("_exact_transform") == 1 and "_n_add" not in calls
    assert calls.count("_stream_passes") == 1
    assert ("_prefix_combine" in calls) == (not whole_sum)
    assert got.shape == (2, 1, 1 << n)  # the saturating batch of one widens
    assert got_ctx.overflow[0] and got[:, 0].tobytes() == want.tobytes()


def test_each_pass_raises_its_own_calculate_rad_flag():
    # layer 1's mixer angles u*beta reach 4 * 20 = 80, past q7.25's 64, and
    # nothing else saturates.  Each pass runs CALCULATE_RAD on its own
    # angles, so only that pass's records read overflow: true, as when the
    # passes are run one at a time below
    g, n, cfg = path_graph(4), 4, PipelineConfig()
    params = QaoaParams.from_lists([0.3, 0.2], [0.7, 20.0])
    records = []
    _, counts = run_qaoa(g, params, cfg, records.append)
    assert counts.overflow
    assert sorted({(r["op"], r["overflow"]) for r in records}) == [
        (0, False), (1, False), (2, False), (3, True)]
    want = []
    diag, mixer = g.cost_table, mixer_table(n)
    words = np.zeros((2, 1, 1 << (n - 1)), dtype=np.int64)
    words[0] = fxp.vec_from_real(init_uniform_state(n, cfg.fmt).amps.real[:1], cfg.fmt)
    ctx = one_ctx()
    for layer in range(params.p):
        for order, angles in (("cost", cost_half_angles(diag, params.gamma[layer])),
                              ("mixer", mixer_level_angles(mixer, params.beta[layer]))):
            words = run_elemental_ansatz(words, angles[None], cfg, ctx, want.append,
                                         layer=layer, order=order, diag=diag)
        words >>= n
    assert json.dumps(records) == json.dumps(want)


# Points on one n = 9 graph in q7.25, p = 2, each with its own run: the
# first stays certified to the end; CALCULATE_RAD saturates in the second
# (u*beta = 85.5 > 64) and in the third (2C gamma past 64), in passes that
# the batch runs; the pair bound rejects the fourth's first mixer pass, which
# saturates no row, and N_ADD saturates in the fourth's and the fifth's
# second mixer pass; the second's and the sixth's second mixer passes fail
# the pair bound but saturate no row.
_BATCH_POINTS = [([0.37, 0.51], [2.65, 1.31]), ([0.61, 1.14], [0.46, 9.5]),
                 ([0.54, 1.15], [3.05, 2.55]), ([0.75, 0.93], [1.96, 2.94]),
                 ([0.04, 0.22], [2.16, 1.83]), ([0.66, 0.03], [2.41, 1.72])]


@pytest.mark.parametrize("batch_words", [pipeline.BATCH_WORDS, 2 * 256, 256],
                         ids=["one-batch", "split-in-pairs", "batches-of-one"])
def test_batch_items_match_their_own_runs(batch_words, monkeypatch):
    # every item of run_qaoa_batch gives its own run_qaoa's amplitudes,
    # scale, flag and counts, to the byte, wherever it saturates or its
    # batch widens, and when the size cap splits the batch (N/2 = 256
    # words).  A rejected item's fallback reads its row of the batch's
    # image: every image is a whole batch's, one per pass, and no item takes
    # one of its own.  A batch widens to the full register in the pass
    # where an item's N_ADD saturates: the fourth's and the fifth's last
    # pass, but not the sixth's, rejected there
    g = random_graph(np.random.default_rng(1), 9, weight_range=(0.2, 3.0))
    points = [QaoaParams.from_lists(*point) for point in _BATCH_POINTS]
    cfg = PipelineConfig(fmt=FxFormat(32, 25))
    fallbacks, images, sector = [], [], []  # what the spies below record, in call order

    def spy(name, record):
        call = getattr(pipeline, name)

        def spied(*args):
            before = args[-1].overflow.copy() if name == "_sector_n_add" else None
            result = call(*args)
            record(args, result, before)
            return result
        monkeypatch.setattr(pipeline, name, spied)

    # the full-N passes, which run where the pair bound rejects an item, and
    # whether a row saturated; each image's shape; whether each sector pass
    # widened its batch, and the rows whose flag its N_ADD raised
    spy("_stream_passes", lambda args, saturated, _: fallbacks.append(saturated))
    spy("_exact_transform", lambda args, image, _: images.append(image.shape))
    spy("_sector_n_add", lambda args, out, before: sector.append(
        (out is not args[0], np.flatnonzero(args[-1].overflow & ~before).tolist())))
    want = [run_qaoa(g, params, cfg) for params in points]
    alone = sorted(fallbacks)
    for record in (fallbacks, images, sector):
        record.clear()
    monkeypatch.setattr(pipeline, "BATCH_WORDS", batch_words)
    got = pipeline.run_qaoa_batch(g, points, cfg)
    assert [run_bytes(run) for run in got] == [run_bytes(run) for run in want]
    assert [run.counts.overflow for run in got] == [False, True, True, True, True, False]
    assert sorted(fallbacks) == alone and len(alone) >= 4
    size = min(len(points), batch_words // 256)  # items per batch
    assert images == [(2, size, 256)] * (2 * 2 * len(points) // size)
    # each batch's four passes in turn, all in the sector: row b of pass k
    # is point (k // 4) * size + b, and a pass widens exactly when a row saturates
    assert len(sector) == 2 * 2 * len(points) // size
    assert all(widened == bool(rows) for widened, rows in sector)
    assert [(k % 4, k // 4 * size + row) for k, (_, rows) in enumerate(sector)
            for row in rows] == [(3, 3), (3, 4)]
    assert fallbacks[-1] is False  # the sixth point's last pass, rejected: it stays
    assert pipeline.run_qaoa_batch(g, [], cfg) == []


def test_batch_pass_raises_each_items_own_flags():
    # at n = 2 a mixer pass streams the sector's words at states 0 and 3,
    # and 0 at the others; the first four items have a word at state 0
    # only, whose angle is u*beta = -2 beta.  The first item's 1_MULT
    # saturates; the second's 1_MULT clips to min_raw, whose N_ADD the
    # bound rejects but which saturates no row; the fifth's N_ADD saturates
    # rows 0 and 3, so the pass returns one full (2, 5, 4) register, whose
    # rows 0-3 are the mirror of each item's own pass in the sector.  The
    # batch takes the clipping path for all, and each item's words and flag
    # are those of its own pass; CALCULATE_RAD decides each row's flag
    fmt = FxFormat(16, 10)
    cfg, diag, mixer = PipelineConfig(fmt=fmt), WeightedGraph(2, ()).cost_table, mixer_table(2)
    big = int(0.9 * fmt.max_raw)
    words = np.array([[[big, 0], [big, 0], [3, 0], [5, 0], [big, big]],
                      [[big, 0], [-big, 0], [4, 0], [-2, 0], [0, 0]]], dtype=np.int64)
    angles = mixer_level_angles(mixer, np.array([0.2, 0.4, 0.2, 20.0, 0.0]))
    ctx = FxContext(np.zeros(5, dtype=bool))
    got = run_elemental_ansatz(words.copy(), angles, cfg, ctx, order="mixer", diag=diag)
    assert isinstance(got, np.ndarray) and got.shape == (2, 5, 4)
    for item in range(5):
        item_ctx = one_ctx()
        want = run_elemental_ansatz(words[:, item:item + 1].copy(), angles[item:item + 1], cfg,
                                    item_ctx, order="mixer", diag=diag)[:, 0]
        assert want.shape[-1] == (4 if item == 4 else 2)
        if item < 4:  # its own pass stays in the sector: h, then h reversed
            want = np.concatenate((want, want[:, ::-1]), axis=-1)
        assert got[:, item].tobytes() == want.tobytes()
        assert ctx.overflow[item] == item_ctx.overflow[0]
    assert ctx.overflow.tolist() == [True, True, False, True, True]


@pytest.mark.parametrize("index,order", [(5, "cost"), (4, "mixer")])
def test_a_batch_leaves_the_parity_sector_together(index, order):
    # corpus case index's batch, the first whose N_ADD saturates for one
    # item and not for another in a pass of this order.  That pass returns
    # one (2, B, N) register for the whole batch: a saturating row is that
    # item's own full-N result, and every other row is its own sector result
    # laid out on the N states, spread over the even-popcount states after a
    # cost pass, its mirror after a mixer pass.  Each item keeps its own
    # flag, and from there to readout its own run's bytes
    g, points, cfg = corpus.batch(index)
    sector_n_add, calls = pipeline._sector_n_add, []

    def recording(words, *args):
        given = (words.copy(), args[-1].overflow.copy())
        out = sector_n_add(words, *args)
        # the later passes of the run overwrite the register and flags in place
        calls.append((given, args[:-1], args[-1].overflow.copy(),
                      out.copy() if isinstance(out, np.ndarray) else out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_sector_n_add", recording)
        runs = pipeline.run_qaoa_batch(g, points, cfg)
    (words, before), (got_order, mixer, fmt), after, out = calls[-1]
    assert [o.shape == w.shape for (w, _), _, _, o in calls].count(False) == 1
    assert got_order == order
    assert isinstance(out, np.ndarray) and out.dtype == np.int64
    assert out.shape == (2, len(points), 1 << g.num_vertices)  # one register
    saturating = []
    for item in range(len(points)):
        item_ctx = FxContext(before[item:item + 1].copy())
        own = sector_n_add(words[:, item:item + 1].copy(), order, mixer, fmt, item_ctx)[:, 0]
        if own.shape[-1] == out.shape[-1]:  # its N_ADD saturates
            saturating.append(item)
        else:
            own = sector_product(own, "mixer" if order == "cost" else "cost")
        assert out[:, item].tobytes() == own.tobytes()
        assert after[item] == item_ctx.overflow[0]
    assert 0 < len(saturating) < len(points)
    assert [run_bytes(run) for run in runs] == [run_bytes(run_qaoa(g, point, cfg))
                                               for point in points]


def test_a_batch_takes_no_trace():
    g = path_graph(3)
    params = QaoaParams(1, (0.3,), (0.2,))
    records = []
    with pytest.raises(ValueError, match="batch of one"):
        pipeline.run_qaoa_batch(g, [params, params], CFG, records.append)
    assert not records
    pipeline.run_qaoa_batch(g, [params], CFG, records.append)
    assert len(records) == 2 * (8 + PIPELINE_LATENCY)


@given(n=st.integers(1, 10), fmt=st.sampled_from(N_ADD_FORMATS), items=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), bits=st.integers(1, 32), stretch=st.floats(0.5, 1.05))
@settings(max_examples=100, deadline=None)
def test_cost_pair_bound_takes_one_scan(n, fmt, items, seed, bits, stretch):
    # a cost pass's pair (2h, 0): the verdict from M = max|2h| per row,
    # M + 2 l_lo and 3M + 2 l_up against 4 max_raw, is the two-array
    # form's, on words scaled to put that bound at 0.5 to 1.05 times its
    # limit, and a batch's verdict is each item's own
    half = 1 << (n - 1)
    rng = np.random.default_rng(seed)
    bits = min(bits, fmt.word_bits)
    words = rng.integers(-(1 << bits - 1), 1 << bits - 1, size=(2, items, half), dtype=np.int64)
    if words.any():
        h = 2 * np.abs(pipeline._exact_transform(words)).max(axis=-1)
        scale = stretch * 4 * fmt.max_raw / (3 * h + 2 * np.abs(words).sum(axis=-1)).max()
        words = np.clip(np.rint(words * scale).astype(np.int64), fmt.min_raw, fmt.max_raw)
    image = 2 * pipeline._exact_transform(words)
    sums = np.abs(words).sum(axis=-1)
    one = pipeline._pair_bound_holds(image, 0, sums, sums, fmt)
    assert one.tolist() == pipeline._pair_bound_holds(image, np.zeros_like(image), sums, sums,
                                                      fmt).tolist()
    assert one.tolist() == [bool(pipeline._pair_bound_holds(image[:, k], 0, sums[:, k],
                                                            sums[:, k], fmt))
                            for k in range(items)]
