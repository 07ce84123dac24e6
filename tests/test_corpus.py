"""Byte identity of the pipeline against the committed corpus golden (see
tests/corpus.py, which also re-records it on a deliberate change)."""

import json

import corpus


def test_corpus_matches_its_golden():
    golden = json.loads(corpus.GOLDEN.read_text(encoding="utf-8"))
    got, saturated = corpus.digests()
    assert (golden["seed"], golden["cases"]) == (corpus.SEED, corpus.CASES) == (corpus.SEED,
                                                                                len(got))
    differ = [i for i, (a, b) in enumerate(zip(got, golden["digests"])) if a != b]
    assert not differ, f"{len(differ)} cases differ, first {differ[:10]}"
    # the saturating paths stay covered: at least a third of the runs saturate
    assert saturated == golden["saturated"] and 3 * saturated >= corpus.CASES
