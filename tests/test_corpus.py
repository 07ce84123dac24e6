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


def test_corpus_batches_match_their_single_runs(monkeypatch):
    # each case's graph as one batch of its own point and three more, one
    # saturating in CALCULATE_RAD: every item is its own run, to the byte.
    # A batch of several leaves the parity sector together, onto the full
    # register, where an item's N_ADD saturates, and the corpus keeps that
    # path covered after a cost pass and after a mixer pass
    sector_n_add = pipeline._sector_n_add
    widened = {"cost": 0, "mixer": 0}  # batches with B > 1, by the pass that widened them

    def counting(words, order, *args):
        out = sector_n_add(words, order, *args)
        widened[order] += out.shape != words.shape and words.shape[1] > 1
        return out

    monkeypatch.setattr(pipeline, "_sector_n_add", counting)
    differ = [i for i in range(corpus.CASES) if corpus.batch_differs(i)]
    assert not differ, f"{len(differ)} batches differ, first {differ[:10]}"
    assert widened["cost"] > 0 and widened["mixer"] > 0, widened


def _streamed_in_place(words, fmt, ctx):
    # the streamed N_ADD of a batch of one's (2, 1, N) register and flag
    item_ctx = FxContext(bool(ctx.overflow[0]))
    words[:, 0] = streamed_n_add(words[:, 0], fmt, item_ctx)
    ctx.overflow[0] = item_ctx.overflow
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
        words = np.zeros((2, 1, 1 << n), dtype=np.int64)
        words[0] = fxp.vec_from_real(init_uniform_state(n, fmt).amps.real, fmt)
        ctx = FxContext(np.zeros(1, dtype=bool))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_n_add", _streamed_in_place)
            for layer in range(params.p):
                run_layer(words, cost_angles(g.cost_table, params.gamma[layer])[None],
                          mixer_angles(mixer_table(n), params.beta[layer])[None], cfg, ctx)
        want = np.empty(1 << n, dtype=np.complex128)
        want.real = fxp.vec_to_float(words[0, 0], fmt)
        want.imag = fxp.vec_to_float(words[1, 0], fmt)
        assert state.amps.tobytes() == want.tobytes(), index
        assert counts.overflow == ctx.overflow[0], index
        checked += 1
        saturated += ctx.overflow[0]
    # the saturating passes are among those checked
    assert checked == corpus.CASES * STREAMED_UP_TO // 12 and 3 * saturated >= checked
