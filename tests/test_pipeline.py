import math
from fractions import Fraction

import numpy as np
import pytest

from qmaxemu import (QaoaParams, StateVector, WeightedGraph, build_cost_diagonal,
                     build_mixer_exponents, cost_angles, decomposed_run_qaoa_f64,
                     dense_run_qaoa, expectation, fxp, hadamard_sign,
                     init_uniform_state, mixer_angles, probabilities,
                     run_elemental_ansatz, run_layer, run_qaoa)
from qmaxemu.fxp import FxContext, FxFormat
from qmaxemu.pipeline import (PIPELINE_LATENCY, PipelineConfig, _n_add,
                              hadamard_sign_column)

from conftest import complete_graph, random_graph

CFG = PipelineConfig()


def to_words(amps):
    """Raw (re, im) words of complex amplitudes, as the pipeline holds them."""
    amps = np.asarray(amps, dtype=np.complex128)
    return fxp.vec_from_real(amps.real, CFG.fmt), fxp.vec_from_real(amps.imag, CFG.fmt)


def to_amps(re, im):
    return fxp.vec_to_float(re, CFG.fmt) + 1j * fxp.vec_to_float(im, CFG.fmt)


def to_state(re, im, scale_exp) -> StateVector:
    return StateVector(amps=to_amps(re, im), scale_exp=Fraction(scale_exp),
                       n=len(re).bit_length() - 1)


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


def streamed_n_add(words, fmt, ctx):
    """N_ADD as the hardware streams it: column c of the stacked (2, N)
    words lands on every row with its +/-1 signs, in ascending c, with a
    saturating addition each time."""
    n = words.shape[1].bit_length() - 1
    res = np.zeros_like(words)
    for c in range(words.shape[1]):
        res = fxp.vec_add(res, hadamard_sign_column(c, n) * words[:, c:c + 1], fmt, ctx)
    return res


def sign_matrix(n):
    """The symmetric +/-1 Walsh-Hadamard matrix, one column per stream element."""
    return np.array([hadamard_sign_column(c, n) for c in range(1 << n)])


def assert_n_add_matches_stream(words, fmt) -> bool:
    """Compare _n_add with the streamed oracle, words and flag; return the flag."""
    want_ctx, got_ctx = FxContext(), FxContext()
    want = streamed_n_add(words, fmt, want_ctx)
    got = _n_add(words, fmt, got_ctx)
    assert got.dtype == np.int64
    assert (got == want).all()
    assert got_ctx.overflow == want_ctx.overflow
    return got_ctx.overflow


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
    got = _n_add(words, fmt, FxContext())
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
    got = _n_add(words, fmt, FxContext())
    assert (got == words @ sign_matrix(n)).all()  # the plain +/-1 transform


def test_n_add_saturates_in_imaginary_part_only():
    fmt = FxFormat(12, 8)
    words = np.zeros((2, 8), dtype=np.int64)
    words[0] = [5, -3, 7, 1, 0, -2, 4, 6]
    words[1] = [fmt.min_raw, -fmt.max_raw, 0, 0, 0, 0, 0, 0]
    assert assert_n_add_matches_stream(words, fmt)
    got = _n_add(words, fmt, FxContext())
    assert (got[0] == words[0] @ sign_matrix(3)).all()  # real part unclipped
    assert got[1, 0] == fmt.min_raw


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
    out = run_elemental_ansatz(*to_words([1.0, 0.0]), np.zeros(2), CFG)
    np.testing.assert_allclose(to_amps(*out), [1.0, 1.0], atol=2 ** -12)

    out = run_elemental_ansatz(*to_words([1.0, 1.0]), np.zeros(2), CFG)
    np.testing.assert_allclose(to_amps(*out), [2.0, 0.0], atol=2 ** -12)


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
        out = run_elemental_ansatz(*to_words(amps), angles, CFG)
        # exact-arithmetic oracle for the same dataflow
        want = signs @ (np.exp(1j * angles) * amps)
        assert np.abs(to_amps(*out) - want).max() <= 2 ** -12


def test_elemental_op_rejects_wrong_angle_count():
    with pytest.raises(ValueError):
        run_elemental_ansatz(*to_words([1.0, 0.0]), np.zeros(3), CFG)


def test_run_qaoa_fidelity_at_fourteen_qubits():
    # q12.20 keeps this instance clear of saturation at n = 14; bounds are
    # acceptance criterion 2's
    g = random_graph(np.random.default_rng(61), 14, edge_prob=0.3)
    params = QaoaParams(1, (0.15,), (0.4,))
    state, report = run_qaoa(g, params, PipelineConfig(fmt=FxFormat(32, 20)))
    assert not report.overflow
    ref = decomposed_run_qaoa_f64(g, params, fast=True)
    tv = 0.5 * np.abs(probabilities(state) - probabilities(ref)).sum()
    assert tv <= 1e-3
    d = build_cost_diagonal(g, 14)
    assert abs(expectation(state, d).f_p - expectation(ref, d).f_p) <= 5e-3


def test_layer_is_identity_at_zero_parameters():
    for n in (1, 2, 3, 4):
        g = complete_graph(n) if n > 1 else WeightedGraph(1, ())
        d = build_cost_diagonal(g, n)
        m = build_mixer_exponents(n)
        before = init_uniform_state(n).amps
        re, im, k = run_layer(*to_words(before), cost_angles(d, 0.0),
                              mixer_angles(m, 0.0), CFG)
        assert k == n  # scale exponent unchanged
        np.testing.assert_allclose(to_amps(re, im), before, atol=2 ** -12)


def test_layer_matches_dense_oracle():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    params = QaoaParams(1, (math.pi / 4,), (math.pi / 8,))
    state, _ = run_qaoa(g, params)
    dense = dense_run_qaoa(g, params)
    np.testing.assert_allclose(probabilities(state), probabilities(dense),
                               atol=2 ** -12)


def test_layer_scale_exp_constant_at_default_shift():
    # the n-bit shift exactly realizes the layer's 1/2**n factor, so the
    # physical scale never moves and the norm stays 1
    g = complete_graph(3)
    d = build_cost_diagonal(g, 3)
    m = build_mixer_exponents(3)
    start = init_uniform_state(3)
    re, im = to_words(start.amps)
    scale_exp = start.scale_exp
    for _ in range(4):
        re, im, k = run_layer(re, im, cost_angles(d, 0.3), mixer_angles(m, 0.2), CFG)
        scale_exp += k - 3
    assert scale_exp == start.scale_exp
    assert abs(to_state(re, im, scale_exp).physical_norm() - 1.0) < 2 ** -10


def test_layer_scale_exp_tracks_nondefault_shift():
    g = complete_graph(2)
    d = build_cost_diagonal(g, 2)
    m = build_mixer_exponents(2)
    cfg = PipelineConfig(per_layer_shift=0)
    start = init_uniform_state(2)
    re, im, k = run_layer(*to_words(start.amps), cost_angles(d, 0.1),
                          mixer_angles(m, 0.1), cfg)
    assert k == 0  # unshifted raw grows by 2**n, so scale_exp drops by n
    out = to_state(re, im, start.scale_exp + k - 2)
    assert abs(out.physical_norm() - 1.0) < 2 ** -10


def test_run_qaoa_zero_parameters_gives_uniform(triangle):
    state, report = run_qaoa(triangle, QaoaParams(1, (0.0,), (0.0,)))
    np.testing.assert_allclose(probabilities(state), [1 / 8] * 8, atol=1e-6)
    assert not report.overflow


def test_run_qaoa_matches_dense_distribution(triangle):
    params = QaoaParams(1, (0.7,), (0.6,))
    state, report = run_qaoa(triangle, params)
    dense = dense_run_qaoa(triangle, params)
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
