"""`canonical_dumps` writes what `json.dumps` with sorted keys and no
whitespace writes, for the documents the engine returns (tuples and
shared sub-documents included) and for the float-free trees `json.loads`
reads back; it skips only the cycle check.  orjson writes the text when
it can match those bytes, and every other document (ints past 64 bits,
non-ASCII or DEL, lone surrogates, non-str keys, namedtuples, deep
nesting) takes the stdlib encoder.  A trace is built in the form
`json.loads` gives back, so its `strict_bytes` are those of its parsed
canonical text.  An exact rational is written as `str` writes it, and only
that form is read back."""

import json
from collections import namedtuple
from fractions import Fraction

import orjson
import pytest

import test_pipeline
from test_exactness import workload_slice
from test_golden import PIPELINE_GOLDEN, termination_corpus_documents
from toroidal.cli import main
from toroidal.documents import (
    InvalidDocument,
    canonical_dumps,
    fraction_from_doc,
    stdlib_dumps,
    strict_bytes,
    unit_value_from_doc,
    unit_value_to_doc,
)
from toroidal.pipeline import parse_document, toroidalize
from toroidal.units import UnitValue


def reference_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def assert_canonical(doc):
    text = canonical_dumps(doc)
    assert text == reference_dumps(doc) == stdlib_dumps(doc)
    loaded = json.loads(text)
    assert canonical_dumps(loaded) == reference_dumps(loaded) == text


def orjson_differs(doc) -> bool:
    """orjson raises on `doc` or writes other text than `json.dumps`, so
    `canonical_dumps` must take the stdlib encoder."""
    try:
        text = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS)
    except orjson.JSONEncodeError:
        return True
    return text.decode("utf-8") != reference_dumps(doc)


def nested(depth: int) -> list:
    doc: list = []
    for _ in range(depth - 1):
        doc = [doc]
    return doc


Pair = namedtuple("Pair", "a b")

FALLBACK_DOCUMENTS = {
    "int below 64 bits": {"x": [-2**63 - 1]},
    "int at 2**64": {"x": 2**64},
    "int at 10**30": [10**30, -10**30],
    "DEL in a label": {"labels": ["L\x7f"]},
    "control characters and DEL": {"a\x00\x1f": "\b\t\n\f\r\x01\x7f\"\\/"},
    "lone surrogate": {"name": json.loads('"\\ud800"')},
    "lone surrogate key": json.loads('{"\\udfff": 1, "a": 2}'),
    "300 deep": nested(300),
    "namedtuple": {"p": Pair(1, [2, "x"])},
    "int key": {2: "b", 1: "a"},
    "non-ASCII": {"é": "☃"},
}


@pytest.mark.parametrize("name", sorted(FALLBACK_DOCUMENTS))
def test_fallback_writes_the_json_dumps_bytes(name):
    doc = FALLBACK_DOCUMENTS[name]
    assert orjson_differs(doc)
    assert_canonical(doc)


def test_64_bit_edges_take_orjson():
    doc = {"x": [-2**63, 2**64 - 1, 0, -1], "t": [True, False, None], "s": "\x1f~"}
    assert not orjson_differs(doc)
    assert_canonical(doc)


def test_atlas_past_64_bits_runs_and_verifies(tmp_path, capsys):
    # An ambient dimension past 64 bits is a count the engine never spans,
    # so the run is small, and its trace takes the stdlib encoder.
    doc = test_pipeline.second_center_doc(d=2**64 + 5)
    trace = toroidalize(*parse_document(doc))
    assert trace["verdicts"]["pass"]
    assert orjson_differs(trace)
    assert_canonical(trace)
    text = canonical_dumps(trace)
    assert f'"d":{2**64 + 5}' in text
    atlas_path, trace_path = tmp_path / "atlas.json", tmp_path / "trace.json"
    atlas_path.write_text(json.dumps(doc))
    assert main(["--out", str(trace_path), "toroidalize", str(atlas_path)]) == 0
    assert trace_path.read_text() == text + "\n"
    assert main(["verify-trace", str(atlas_path), str(trace_path)]) == 0
    assert json.loads(capsys.readouterr().out)["replay"] == "identical"


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
        text = canonical_dumps(trace)
        assert text == reference_dumps(trace), name
        assert strict_bytes(trace) == strict_bytes(json.loads(text)), name
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


WRITTEN_RATIONALS = ([Fraction(p, q) for p in range(-30, 31) for q in range(1, 31)]
                     + list(range(-30, 31)) + [10**30, -10**30, 2**64 + 1,
                                               Fraction(10**30, 7), Fraction(-(10**30))])


def test_rationals_are_written_as_str_writes_them():
    # The encoders write an exact rational with `str`: for an `int` and
    # a `Fraction` of either sign, integral or not, and for big integers
    # it is the "num/den" text (the integer alone when den is 1).
    for x in WRITTEN_RATIONALS:
        assert str(x) == num_den(x), x
    assert {type(x) for x in WRITTEN_RATIONALS} == {int, Fraction}


def test_written_rationals_read_back():
    for x in WRITTEN_RATIONALS:
        assert fraction_from_doc(str(x), "x") == x, x
        if x:
            value = UnitValue.of(x)
            assert unit_value_from_doc(unit_value_to_doc(value), "x") == value
    assert fraction_from_doc(-7, "x") == -7


# Text `Fraction` parses but `str` never writes, among them the exponent
# form, whose value the digit limit does not bound; a numeral past the
# limit; and text `Fraction` refuses.
REFUSED_RATIONALS = ["1e5", "1e20000000", "1.5", "1_000", " 7 ", "7\n", "+7", "\u0663",
                     "1/-2", "1 / 2", "/2", "1/", "", "1" * 5000, "1/0", True, 1.5, None]


@pytest.mark.parametrize("text", REFUSED_RATIONALS,
                         ids=lambda t: repr(t)[:12])
def test_other_rational_forms_are_refused(text):
    with pytest.raises(InvalidDocument, match="^coeff must be a rational, found "):
        fraction_from_doc(text, "coeff")
