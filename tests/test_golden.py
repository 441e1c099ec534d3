"""Golden traces: sha256 digests of canonical output pinned in the test.

A refactor that must keep traces byte-identical is checked here: the
digests were recorded from the engine and any change to the bytes a
trace serializes to fails the matching test.  A deliberate change to
the output (a new `TRACE_SCHEMA` or engine version) records new ones.

The digests recorded under toroidal-trace/1 and toroidal-trace/2 are
kept: `oracles.trace2_of` puts a trace/3 document back in the heap order
trace/2 followed, `oracles.trace1_of` rebuilds the fields trace/2 leaves
out, and the results must still hash to them.  The trace/3 digests are
pinned next to them, and so are the digests of the benchmark workloads'
traces (`perfbench/workloads.py`, loaded by path and unchanged).
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

import test_acceptance
import test_pipeline
from oracles import principalization2_of, record1_of, trace1_of, trace2_of
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


def _deep_multi_step_doc():
    """The two-step script on a chart whose first principalization takes
    two blowups, so the second step adapts four strata: trace/3 lists
    the adapted strata, steps, finals, lifts and final atlas in another
    order than trace/2 did."""
    doc = test_pipeline.TestMultiStepScript().doc()
    doc["charts"][0]["strata"][0]["chart"]["matrix"] = [[2, 1], [1, 3]]
    return doc


# The deep_multi_step trace/1 digest is `trace1_of` of the trace/2 one,
# which was recorded from the engine at 0.2.0.
PIPELINE_GOLDEN = {
    "identity": (test_pipeline.identity_doc, 50,
                 "8f4ca0b93d427a7a9de1c8ab4e437d8416f14a9d1a175c5b4da3e31a313f600b"),
    "two_chart": (test_pipeline.two_chart_doc, 50,
                  "cb0972c605122e3ee474cbeba40724f11c109fde6914906e84ff1e7746cfb258"),
    "multi_step": (lambda: test_pipeline.TestMultiStepScript().doc(), 50,
                   "e692762ff54fd35c3c03dcc2c0cbe87f8d16807150329f738d3fe618e13eb057"),
    "low_cap": (_low_cap_doc, 1,
                "5e56b9b90d15c42cc3e9d3183a41ee989397f11426fe87f094e9e035fcc5fb8c"),
    "deep_multi_step": (_deep_multi_step_doc, 50,
                        "e162f4a571e580b9a8f8e4654855f54fbf9797bf0df89eb39d96fe01de8ac72d"),
}


PIPELINE_GOLDEN_TRACE2 = {
    "identity": "2f6e0d78aa6469f44b6116a8cb7f0bdecb83c6203dbce71d7c975e09002e5af2",
    "two_chart": "e025a5c662f6dc0b9ca24f316ab6d17a42ca9c1c74bef188fe29e28449fd5914",
    "multi_step": "2eeb1c20eead3fe4253067d4a1bb4cd8850e91c2246f2c0e5aa93f900a5d43d0",
    "low_cap": "3405a93031eb788c93e1bcbebb404016a61e9323bcdc6beb7b6c66746c06c2d5",
    "deep_multi_step": "fcb5fa8dcb72449c557628e6d9847ed110c5a5a1ca9b04eb1f2c0985de17f346",
}


PIPELINE_GOLDEN_TRACE3 = {
    "identity": "208209f807ff1b29db4cd75444b25b9512a37b66e56eb3ef3c98c80fda6e532a",
    "two_chart": "bfb061f69cdd7e658bdba1eb7e728d201b571f98ca2a4acf14b675608aafc94e",
    "multi_step": "847416b5a87e4a19bdab67eb4f76d4b001dd7001773acb7bba81da371b7b7a03",
    "low_cap": "ee05ae1632c4e9fe156401339295f376f7b8d56b1f7b149f26bfc6a5dc3cad00",
    "deep_multi_step": "aa3ec28495614586ce6ddf8c5f6c96569459077dc4d6943ebd65627b346934b6",
}


@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDEN))
def test_pipeline_fixture_trace_digest(name):
    doc_fn, cap, digest = PIPELINE_GOLDEN[name]
    doc = doc_fn()
    atlas, script = parse_document(doc)
    trace = toroidalize(atlas, script, cap=cap)
    trace2 = trace2_of(trace, doc)
    assert _sha(canonical_dumps(trace)) == PIPELINE_GOLDEN_TRACE3[name]
    assert _sha(canonical_dumps(trace2)) == PIPELINE_GOLDEN_TRACE2[name]
    assert _sha(canonical_dumps(trace1_of(trace2))) == digest


TERMINATION_CORPUS_DIGEST = (
    "8d0f986fb9483211412b1bdb28098725ab4d9c331ee8151654d516ff2d51dce0")
TERMINATION_CORPUS_DIGEST_TRACE2 = (
    "06cbc51548c97d9415a81c6ce7b02d33371bff4e69187808aa75ad555b6d4026")
TERMINATION_CORPUS_DIGEST_TRACE3 = (
    "695010897ed71be7d5ea04b2e9408a18f4da18abdab54606827026e81536f232")


def termination_corpus_documents():
    """Per instance of the acceptance termination corpus: its
    principalization and the record and chart of every lift."""
    for k, (cf, z) in enumerate(test_acceptance._termination_corpus()):
        trace = principalize_chart_family([(f"s{k}", cf, z)], cap=50)
        lifts = []
        for final in trace.final:
            if final.status == EXCEEDED:
                continue
            result = lift_after_principalization(final.chart)
            lifts.append({"record": lift_record_to_doc(result),
                          "chart": chart_to_doc(result.lifted)})
        yield {"principalization": principalization_to_doc(trace), "lifts": lifts}


def corpus2_of(k: int, doc: dict) -> dict:
    """Instance `k`'s corpus document in trace/2 order: the lifts follow
    the principal finals, so they are matched to them by position."""
    principalization, order = principalization2_of(doc["principalization"], [f"s{k}"])
    principal = [f["id"] for f in doc["principalization"]["final"]
                 if f["status"] != EXCEEDED]
    lifts = dict(zip(principal, doc["lifts"]))
    return {"principalization": principalization,
            "lifts": [lifts[sid] for sid in order if sid in lifts]}


def test_termination_corpus_digest():
    """Principalization steps, finals and every lift of the 200-instance
    acceptance termination corpus (seed 60606), one canonical line each;
    the trace/2 digest holds with each instance put back in trace/2
    order, and the trace/1 digest with each lift record given back its
    trace/1 fields as well."""
    lines, lines2, lines1 = [], [], []
    for k, doc in enumerate(termination_corpus_documents()):
        doc2 = corpus2_of(k, doc)
        lines.append(canonical_dumps(doc))
        lines2.append(canonical_dumps(doc2))
        lines1.append(canonical_dumps(
            {**doc2, "lifts": [{**lift, "record": record1_of(lift["record"])}
                               for lift in doc2["lifts"]]}))
    assert _sha("\n".join(lines)) == TERMINATION_CORPUS_DIGEST_TRACE3
    assert _sha("\n".join(lines2)) == TERMINATION_CORPUS_DIGEST_TRACE2
    assert _sha("\n".join(lines1)) == TERMINATION_CORPUS_DIGEST


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

# Full sha256 of the canonical traces of a benchmark workload's documents,
# concatenated in order; tier-1 checks seed 1 and CI seed 7.
WORKLOAD_DIGESTS = {
    ("corpus", 1): "64103393215ba9e4c447015f7ce0d81cd236b93948dd88ed547cbb01a0217ba7",
    ("corpus", 7): "fbac6955e6624b4507661f09cf19ba91629bebd30e93d8a4ad39880ccbdc4d82",
    ("deep", 1): "dda3f5ff0757222db8d190bbe3ff84057d99c44f9e24763241cf0e096785c95f",
    ("deep", 7): "10f39be8416d10fa944f8b0ecd4d68baa02c6a0d5d2c4ffda0b898dd6c9f38c1",
    ("wide", 1): "82102268e202a7d7f3a14dc2305628649522b36a3b53123debf06d0faedfc8b8",
    ("wide", 7): "bca5d21fd0c87d3f80c8f99c62b7d5667e861a9898e0d4414de1ab7de9dbaf2a",
}


def workload_digest(name: str, seed: int) -> str:
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    digest = hashlib.sha256()
    for _, text in workloads.build(name, seed):
        trace = toroidalize(*parse_document(json.loads(text)))
        digest.update(canonical_dumps(trace).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", ["corpus", "deep", "wide"])
def test_workload_trace_digest(name):
    assert workload_digest(name, 1) == WORKLOAD_DIGESTS[name, 1]
