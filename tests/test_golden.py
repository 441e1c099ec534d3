"""Golden traces: sha256 digests of canonical output pinned in the test.

A refactor that must keep traces byte-identical is checked here: the
digests were recorded from the engine and any change to the bytes a
trace serializes to fails the matching test.  A deliberate change to
the output (a new `TRACE_SCHEMA` or engine version) records new ones.

The digests recorded under toroidal-trace/1 are kept: `oracles.trace1_of`
rebuilds the fields trace/2 leaves out, and the result must still hash
to them.  The trace/2 digests are pinned next to them.
"""

import hashlib

import pytest

import test_acceptance
import test_pipeline
from oracles import record1_of, trace1_of
from toroidal.documents import (
    canonical_dumps,
    chart_to_doc,
    lift_record_to_doc,
    principalization_to_doc,
)
from toroidal.lift import lift_after_principalization
from toroidal.pipeline import parse_document, toroidalize
from toroidal.principalize import EXCEEDED, principalize_chart_family


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _low_cap_doc():
    doc = test_pipeline.identity_doc()
    doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[2, 1], [1, 3]]
    doc["charts"][0]["strata"][0]["chart"]["d"] = 3
    doc["dims"]["d"] = 3
    return doc


PIPELINE_GOLDEN = {
    "identity": (test_pipeline.identity_doc, 50,
                 "8f4ca0b93d427a7a9de1c8ab4e437d8416f14a9d1a175c5b4da3e31a313f600b"),
    "two_chart": (test_pipeline.two_chart_doc, 50,
                  "cb0972c605122e3ee474cbeba40724f11c109fde6914906e84ff1e7746cfb258"),
    "multi_step": (lambda: test_pipeline.TestMultiStepScript().doc(), 50,
                   "e692762ff54fd35c3c03dcc2c0cbe87f8d16807150329f738d3fe618e13eb057"),
    "low_cap": (_low_cap_doc, 1,
                "5e56b9b90d15c42cc3e9d3183a41ee989397f11426fe87f094e9e035fcc5fb8c"),
}


PIPELINE_GOLDEN_TRACE2 = {
    "identity": "2f6e0d78aa6469f44b6116a8cb7f0bdecb83c6203dbce71d7c975e09002e5af2",
    "two_chart": "e025a5c662f6dc0b9ca24f316ab6d17a42ca9c1c74bef188fe29e28449fd5914",
    "multi_step": "2eeb1c20eead3fe4253067d4a1bb4cd8850e91c2246f2c0e5aa93f900a5d43d0",
    "low_cap": "3405a93031eb788c93e1bcbebb404016a61e9323bcdc6beb7b6c66746c06c2d5",
}


@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDEN))
def test_pipeline_fixture_trace_digest(name):
    doc_fn, cap, digest = PIPELINE_GOLDEN[name]
    atlas, script = parse_document(doc_fn())
    trace = toroidalize(atlas, script, cap=cap)
    assert _sha(canonical_dumps(trace)) == PIPELINE_GOLDEN_TRACE2[name]
    assert _sha(canonical_dumps(trace1_of(trace))) == digest


TERMINATION_CORPUS_DIGEST = (
    "8d0f986fb9483211412b1bdb28098725ab4d9c331ee8151654d516ff2d51dce0")
TERMINATION_CORPUS_DIGEST_TRACE2 = (
    "06cbc51548c97d9415a81c6ce7b02d33371bff4e69187808aa75ad555b6d4026")


def termination_corpus_documents():
    """Per instance of the acceptance termination corpus: its
    principalization and the record and chart of every lift."""
    for k, (cf, z) in enumerate(test_acceptance._termination_corpus()):
        trace = principalize_chart_family([(f"s{k}", cf, z)], cap=50)
        lifts = []
        for final in trace.final:
            if final.status == EXCEEDED:
                continue
            result = lift_after_principalization(final.chart, final.descriptor)
            lifts.append({"record": lift_record_to_doc(result),
                          "chart": chart_to_doc(result.lifted)})
        yield {"principalization": principalization_to_doc(trace), "lifts": lifts}


def test_termination_corpus_digest():
    """Principalization steps, finals and every lift of the 200-instance
    acceptance termination corpus (seed 60606), one canonical line each;
    the trace/1 digest holds with each lift record given back its trace/1
    fields."""
    lines, lines1 = [], []
    for doc in termination_corpus_documents():
        lines.append(canonical_dumps(doc))
        lines1.append(canonical_dumps(
            {**doc, "lifts": [{**lift, "record": record1_of(lift["record"])}
                              for lift in doc["lifts"]]}))
    assert _sha("\n".join(lines)) == TERMINATION_CORPUS_DIGEST_TRACE2
    assert _sha("\n".join(lines1)) == TERMINATION_CORPUS_DIGEST
