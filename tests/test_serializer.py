"""`canonical_dumps` writes what `json.dumps` with sorted keys and no
whitespace writes, for the documents the engine returns (tuples and
shared sub-documents included) and for the trees `json.loads` reads
back; it skips only the cycle check.  A trace is built in the form
`json.loads` gives back, so its `strict_bytes` are those of its parsed
canonical text.  An exact rational is written as `str` writes it."""

import json
from fractions import Fraction

import pytest

import test_pipeline
from test_exactness import workload_slice
from test_golden import PIPELINE_GOLDEN, termination_corpus_documents
from toroidal.documents import canonical_dumps, strict_bytes
from toroidal.pipeline import parse_document, toroidalize


def reference_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def assert_canonical(doc):
    text = canonical_dumps(doc)
    assert text == reference_dumps(doc)
    loaded = json.loads(text)
    assert canonical_dumps(loaded) == reference_dumps(loaded) == text


@pytest.mark.parametrize("name", sorted(PIPELINE_GOLDEN))
def test_golden_traces_match_json_dumps(name):
    doc_fn, cap, _ = PIPELINE_GOLDEN[name]
    atlas, script = parse_document(doc_fn())
    assert_canonical(toroidalize(atlas, script, cap=cap))


def test_acceptance_corpus_documents_match_json_dumps():
    count = 0
    for doc in termination_corpus_documents():
        assert_canonical(doc)
        count += 1
    assert count == 200


def test_non_ascii_labels_escape_as_before():
    assert canonical_dumps({"é": ("ü", "☃"), "a": ((1, 2), [3])}) == \
        '{"a":[[1,2],[3]],"\\u00e9":["\\u00fc","\\u2603"]}'
    doc = test_pipeline.identity_doc()
    renames = {"L1": "Lé", "L2": "L☃"}
    for label in doc["labels"]:
        label["name"] = renames[label["name"]]
    stratum = doc["charts"][0]["strata"][0]
    stratum["row_labels"] = [renames[x] for x in stratum["row_labels"]]
    doc["script"][0]["incidence"] = {
        renames[k]: v for k, v in doc["script"][0]["incidence"].items()}
    for view in doc["script"][0]["views"].values():
        view["contained"] = [renames[x] for x in view["contained"]]
    atlas, script = parse_document(doc)
    trace = toroidalize(atlas, script)
    assert trace["verdicts"]["pass"]
    text = canonical_dumps(trace)
    assert text.isascii() and "L\\u00e9" in text and "L\\u2603" in text
    assert_canonical(trace)


def test_self_containing_document_raises():
    looped: list = [1]
    looped.append(looped)
    with pytest.raises(RecursionError):
        canonical_dumps(looped)
    with pytest.raises(ValueError, match="cyclic"):
        strict_bytes(looped)
    nested: dict = {"a": []}
    nested["a"].append(nested)
    with pytest.raises(RecursionError):
        canonical_dumps(nested)


def _golden_and_workload_traces():
    for name in sorted(PIPELINE_GOLDEN):
        doc_fn, cap, _ = PIPELINE_GOLDEN[name]
        yield name, doc_fn(), cap
    for workload in ("corpus", "deep", "wide"):
        for k, doc in enumerate(workload_slice(workload)):
            yield f"{workload} {k}", doc, 50


def test_traces_are_built_in_parsed_form():
    count = 0
    for name, doc, cap in _golden_and_workload_traces():
        atlas, script = parse_document(doc)
        trace = toroidalize(atlas, script, cap=cap)
        assert strict_bytes(trace) == strict_bytes(json.loads(canonical_dumps(trace))), name
        count += 1
    assert count > 50


def test_strict_bytes_keep_types_and_order():
    assert strict_bytes({"a": [1]}) == strict_bytes(json.loads('{"a":[1]}'))
    distinct = [[1], [1.0], [True], (1,), {"a": 1, "b": 2}, {"b": 2, "a": 1}]
    assert len({strict_bytes(doc) for doc in distinct}) == len(distinct)
    shared = {"x": 1}
    assert strict_bytes([shared, shared]) == strict_bytes([{"x": 1}, {"x": 1}])


def num_den(x) -> str:
    """A rational's document text as the encoders first wrote it."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def test_rationals_are_written_as_str_writes_them():
    # The encoders write an exact rational with `str`: for an `int` and
    # a `Fraction` of either sign, integral or not, and for big integers
    # it is the "num/den" text (the integer alone when den is 1).
    values = [Fraction(p, q) for p in range(-30, 31) for q in range(1, 31)]
    values += list(range(-30, 31)) + [10**30, -10**30, 2**64 + 1,
                                      Fraction(10**30, 7), Fraction(-(10**30))]
    for x in values:
        assert str(x) == num_den(x), x
    assert {type(x) for x in values} == {int, Fraction}
