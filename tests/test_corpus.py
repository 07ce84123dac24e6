"""Byte identity of the pipeline against the committed corpus golden (see
tests/corpus.py, which also re-records it on a deliberate change), and of
its small cases against N_ADD's streamed definition."""

import json

import numpy as np
import pytest

import corpus
from qmaxemu import (PipelineConfig, cost_angles, fxp, init_uniform_state, mixer_angles,
                     mixer_table, pipeline, run_layer, run_qaoa)
from qmaxemu.fxp import FxContext

from conftest import streamed_n_add

STREAMED_UP_TO = 8  # qubits; the streamed N_ADD takes N vector additions per pass


def test_corpus_matches_its_golden():
    golden = json.loads(corpus.GOLDEN.read_text(encoding="utf-8"))
    got, saturated = corpus.digests()
    assert (golden["seed"], golden["cases"]) == (corpus.SEED, corpus.CASES) == (corpus.SEED,
                                                                                len(got))
    differ = [i for i, (a, b) in enumerate(zip(got, golden["digests"])) if a != b]
    assert not differ, f"{len(differ)} cases differ, first {differ[:10]}"
    # the saturating paths stay covered: at least a third of the runs saturate
    assert saturated == golden["saturated"] and 3 * saturated >= corpus.CASES


def test_corpus_batches_match_their_single_runs():
    # each case's graph as one batch of its own point and three more, one
    # saturating in CALCULATE_RAD: every item is its own run, to the byte
    differ = [i for i in range(corpus.CASES) if corpus.batch_differs(i)]
    assert not differ, f"{len(differ)} batches differ, first {differ[:10]}"


def _streamed_in_place(words, fmt, ctx):
    words[...] = streamed_n_add(words, fmt, ctx)
    return words


def test_small_cases_match_the_streamed_definition():
    # every corpus case with n <= STREAMED_UP_TO gives run_qaoa's words and
    # flag when each pass runs on the full register over all N angles, with
    # the O(N^2) streamed accumulation as its N_ADD: the golden then pins
    # correctness, not only the status quo
    checked = saturated = 0
    for index in range(corpus.CASES):
        g, params, fmt = corpus.case(index)
        n = g.num_vertices
        if n > STREAMED_UP_TO:
            continue
        cfg = PipelineConfig(fmt=fmt)
        state, counts = run_qaoa(g, params, cfg)
        words = np.zeros((2, 1 << n), dtype=np.int64)
        words[0] = fxp.vec_from_real(init_uniform_state(n, fmt).amps.real, fmt)
        ctx = FxContext()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_n_add", _streamed_in_place)
            for layer in range(params.p):
                run_layer(words, cost_angles(g.cost_table, params.gamma[layer]),
                          mixer_angles(mixer_table(n), params.beta[layer]), cfg, ctx)
        want = np.empty(1 << n, dtype=np.complex128)
        want.real, want.imag = fxp.vec_to_float(words[0], fmt), fxp.vec_to_float(words[1], fmt)
        assert state.amps.tobytes() == want.tobytes(), index
        assert counts.overflow == ctx.overflow, index
        checked += 1
        saturated += ctx.overflow
    # the saturating passes are among those checked
    assert checked == corpus.CASES * STREAMED_UP_TO // 12 and 3 * saturated >= checked
