"""Seeded mutation fuzzer for the command line input boundary.

Every document a subcommand reads (atlas, `ideal`, `principalize`,
`blowup`, `normalize-toric` and trace documents) is mutated by dropping
a field, changing a value's JSON type, turning an object into a list or
inserting a float, and run through `main()`; every node of each
document but the traces is also set to `null` once.  The run must end in
a known exit status with at most one `error:` line and never a traceback.  The
mutations change types and structure, not magnitudes, so every document
the engine accepts finishes quickly under `--cap 3`.
"""

import contextlib
import copy
import io
import json
import random
import traceback

import pytest

from toroidal.blowup import BlowupCenterChart, enumerate_blowup_strata
from toroidal.chart import CenterDescriptor, ChartForm, derive_center_form
from toroidal.cli import _read_json, main
from toroidal.documents import (
    canonical_dumps,
    center_to_doc,
    chart_to_doc,
    choice_to_doc,
    descriptor_to_doc,
)
from toroidal.errors import quoted
from toroidal.pipeline import parse_document, toroidalize
from toroidal.principalize import naming
from toroidal.units import UnitToken, UnitValue

from oracles import rebuilt_chart
import test_pipeline
from test_pipeline import TWO_BLOWUP_FAMILY, identity_doc, second_center_doc, two_chart_doc

KNOWN_EXITS = {0, 1, 2, 3, 4}
SEED = 20240611
CASES_PER_DOCUMENT = 40


def _unit_atlas():
    """`two_chart_doc` with a base constant and a shift factor on chart A."""
    doc = two_chart_doc()
    doc["charts"][0]["strata"][0]["chart"]["units"] = [
        {"base": {"coeff": "3/2", "symbols": [["g", "1/2"]]},
         "factors": [{"var": 2, "shift": {"coeff": "-1"}, "exp": 2}]},
        {}]
    return doc


def _slot_chart():
    """A smooth 3 -> 2 chart adapted to a codimension-2 center: a qtf1
    chart with two zero slot rows."""
    smooth = ChartForm(d=3, m=2, n=0, ell=0, s=0, tag="smooth")
    z = CenterDescriptor(ell_bar=0, c=2)
    return derive_center_form(smooth, z)[0], z


def _blowup_doc():
    chart, _ = _slot_chart()
    center = BlowupCenterChart((), 2)
    choice, _ = enumerate_blowup_strata(chart, center, "t")[0]
    return {"chart": chart_to_doc(chart), "center": center_to_doc(center),
            "choice": choice_to_doc(choice)}


def _principalize_doc():
    chart, z = _slot_chart()
    units = (UnitToken(UnitValue.symbol("u", 2)),) * len(chart.matrix)
    chart = rebuilt_chart(chart, units=units)
    doc = copy.deepcopy(TWO_BLOWUP_FAMILY)
    doc["strata"].append({"id": "y0", "chart": chart_to_doc(chart),
                          "descriptor": descriptor_to_doc(z)})
    return doc


def _trace_doc(atlas_doc):
    atlas, script = parse_document(atlas_doc)
    return json.loads(canonical_dumps(toroidalize(atlas, script, cap=3)))


# command -> base documents; a trace document is fuzzed under both
# `report` and `verify-trace` against the atlas it came from.
BASES = {
    "toroidalize": [identity_doc(), two_chart_doc(), _unit_atlas()],
    "check-atlas": [two_chart_doc()],
    "ideal": [
        {"op": "factor", "generators": [[2, 1], [1, 3]]},
        {"op": "colon", "generators": [[2, 1], [0, 3]], "arg": [1, 1]},
        {"op": "decompose", "generators": [[2, 0], [1, 1]], "dim": 2},
        {"op": "max-order-components", "generators": [[2, 1, 0], [0, 1, 3]]},
    ],
    "normalize-toric": [{"source": [3, 2], "target": [2, 2],
                         "matrix": [[1, 1, 1], [2, 2, 1]]}],
    "blowup": [_blowup_doc()],
    "principalize": [_principalize_doc()],
    "report": [_trace_doc(identity_doc()), _trace_doc(_unit_atlas())],
}


def _nodes(doc, path=()):
    """Every (path, value) in the document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _other_type(value, rng):
    pool = [None, True, 1, 1.5, "x", [], {}, [1], {"x": 1}]
    return rng.choice([v for v in pool if type(v) is not type(value)])


def mutate(doc, rng):
    """One random mutation of a deep copy; returns (description, document)."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    kind = rng.choice(["drop", "retype", "listify", "float"])
    if kind == "drop":
        owners = [(p, v) for p, v in nodes if isinstance(v, dict) and v]
        path, owner = rng.choice(owners)
        key = rng.choice(sorted(owner))
        del owner[key]
        return f"drop {path + (key,)}", doc
    if kind == "listify":
        path, value = rng.choice([(p, v) for p, v in nodes if isinstance(v, dict)])
        return f"listify {path}", _replace(doc, path, list(value.values()))
    if kind == "float":
        ints = [(p, v) for p, v in nodes if type(v) is int] or nodes
        path, value = rng.choice(ints)
        new = value + 0.5 if type(value) is int else 0.5
        return f"float {path}", _replace(doc, path, new)
    path, value = rng.choice(nodes)
    return f"retype {path}", _replace(doc, path, _other_type(value, rng))


def run_main(argv):
    """(exit status, stderr); an escaped exception becomes a failure
    message carrying its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except Exception:
            pytest.fail(f"{argv}: traceback\n{traceback.format_exc()}")
    return status, err.getvalue()


def check_run(argv, label):
    status, err = run_main(argv)
    assert status in KNOWN_EXITS, f"{label}: exit {status}: {err}"
    assert "Traceback" not in err, f"{label}: {err}"
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) <= 1, f"{label}: {err}"
    return status, err


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", sorted(BASES))
def test_mutated_documents_exit_cleanly(command, tmp_path):
    rng = random.Random(f"{SEED}:{command}")
    # Each case gets fresh file names: creating a file is far cheaper than
    # truncating and rewriting one on some file systems.
    for b, base in enumerate(BASES[command]):
        for k in range(CASES_PER_DOCUMENT):
            what, doc = mutate(base, rng)
            label = f"{command} base {b}: {what}"
            path = _write(tmp_path, f"doc-{b}-{k}.json", doc)
            if command == "report":
                check_run(["report", path], label)
                atlas = _write(tmp_path, f"atlas-{b}-{k}.json",
                               identity_doc() if b == 0 else _unit_atlas())
                check_run(["--cap", "3", "verify-trace", atlas, path], label)
            else:
                check_run(["--cap", "3", command, path], label)


def test_each_node_set_to_null_exits_cleanly(tmp_path):
    # Every node of every base but the traces, the root included, is set
    # to null once.
    runs = 0
    for command in sorted(BASES.keys() - {"report"}):
        for b, base in enumerate(BASES[command]):
            for k, (path, _) in enumerate(_nodes(base)):
                doc = _replace(copy.deepcopy(base), path, None)
                doc_path = _write(tmp_path, f"{command}-{b}-{k}.json", doc)
                check_run(["--cap", "3", command, doc_path], f"{command} base {b}: null {path}")
                runs += 1
    assert runs == 413


def _without(doc, *path):
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    del owner[path[-1]]
    return doc


def _with(doc, path, value):
    return _replace(copy.deepcopy(doc), path, value)


IDENTITY_TRACE = _trace_doc(identity_doc())
FIRST_LIFT = ("steps", 0, "charts", "A", "lifts", 0)
FIRST_CHART = ("charts", 0, "strata", 0, "chart")
# The module, not the class, is imported: a test class imported here would
# be collected twice.
MULTI_STEP = test_pipeline.TestMultiStepScript().doc()
SECOND_VIEW = ("script", 1, "views", "A", "strata")


def _unadapted_doc(chart, descriptor):
    """A `principalize` document whose one stratum's chart is not adapted
    to its descriptor."""
    return {"strata": [{"id": "s0", "chart": chart_to_doc(chart),
                        "descriptor": descriptor_to_doc(descriptor)}]}


def _repeated_id_doc():
    """`_principalize_doc` with both strata named x0."""
    doc = _principalize_doc()
    doc["strata"][1]["id"] = "x0"
    return doc


IDENTITY_CHART = ChartForm(d=2, m=2, n=2, ell=2, s=0, tag="toroidal",
                           matrix=((1, 0), (0, 1)), units=(UnitToken(),) * 2)
Z2 = CenterDescriptor(ell_bar=2, c=2, divisor_rows=(0, 1))


# Documents that used to end in a traceback, or in an error line that did
# not name the field or the stratum, or that `report` printed without
# reading: (arguments before the document paths, the document or a tuple
# of documents, text the error line must contain).
PINNED = {
    "ideal list document": ("ideal", [], "must be an object"),
    "ideal colon without arg": (
        "ideal", {"op": "colon", "generators": [[1, 1]]}, "'arg'"),
    "ideal generators a number": (
        "ideal", {"op": "minimal", "generators": 5}, "'generators'"),
    "principalize entry without id": (
        "principalize", _without(TWO_BLOWUP_FAMILY, "strata", 0, "id"), "'id'"),
    "principalize list document": ("principalize", [], "must be an object"),
    "blowup list document": ("blowup", [], "must be an object"),
    "blowup center a number": (
        "blowup", {**_blowup_doc(), "center": 5}, "'center'"),
    "report list document": ("report", [], "expected schema"),
    "report step without id": ("report", _without(IDENTITY_TRACE, "steps", 0, "id"), "'id'"),
    "report lift without stratum": (
        "report", _without(IDENTITY_TRACE, *FIRST_LIFT, "stratum"), "'stratum'"),
    "report commutes a string": (
        "report", _with(IDENTITY_TRACE, FIRST_LIFT + ("commutes",), "yes"), "'commutes'"),
    "report engine a number": ("report", {**IDENTITY_TRACE, "engine": 5}, "'engine'"),
    "zero unit constant": (
        "toroidalize",
        _with(identity_doc(), FIRST_CHART + ("units",), [{"base": {"coeff": "0"}}, {}]),
        "stratum A/p0 chart unit 0"),
    "negative exponent": (
        "toroidalize", _with(identity_doc(), FIRST_CHART + ("matrix",), [[1, -1], [0, 1]]),
        "stratum A/p0 chart"),
    "ideal without generators or dim": (
        "ideal", {"op": "minimal", "generators": []}, "'dim'"),
    "ideal generators of two lengths": (
        "ideal", {"op": "minimal", "generators": [[1, 2], [1]]}, "'generators'"),
    "ideal negative generator entry": (
        "ideal", {"op": "minimal", "generators": [[1, -2]]}, "'generators'"),
    "ideal dim against generator length": (
        "ideal", {"op": "minimal", "generators": [[1, 2]], "dim": 3}, "'dim'"),
    "ideal colon arg length": (
        "ideal", {"op": "colon", "generators": [[1, 1]], "arg": [1]}, "'arg'"),
    "principalize toroidal chart": (
        "principalize", _unadapted_doc(IDENTITY_CHART, Z2),
        "stratum s0: pullback needs a center-adapted chart"),
    "principalize chart adapted to another descriptor": (
        "principalize",
        _unadapted_doc(derive_center_form(IDENTITY_CHART, Z2)[0],
                       CenterDescriptor(ell_bar=1, c=2, divisor_rows=(0,))),
        "stratum s0: chart is not adapted to this descriptor"),
    "principalize repeated stratum id": (
        "principalize", _repeated_id_doc(), "stratum x0: id repeated in the family"),
    "negative cap option": ("--cap -3 toroidalize", identity_doc(), "--cap"),
    "toric source cone above its dimension": (
        "normalize-toric", {"source": [3, 5], "target": [2, 2],
                            "matrix": [[1, 1, 1], [2, 2, 1]]},
        "toric document: field 'source': need 0 <= cone dimension"),
    "toric target negative cone": (
        "normalize-toric", {"source": [3, 2], "target": [2, -1],
                            "matrix": [[1, 1, 1], [2, 2, 1]]},
        "toric document: field 'target': need 0 <= cone dimension"),
    "trace with a negative cap": (
        "verify-trace", (identity_doc(), {**IDENTITY_TRACE, "cap": -3}),
        "trace: field 'cap'"),
    "second center without spare target coordinates": (
        "toroidalize", second_center_doc(d=3, m=2),
        "error: stratum A/p0.e0z^: center needs more spare target coordinates"),
    "view listing an unknown stratum": (
        "toroidalize", _with(MULTI_STEP, SECOND_VIEW, ["zz"]),
        "error: step z2 view A: field 'strata' names no stratum ['A/zz']\n"),
    "blowup choice with a null stratum": (
        "blowup",
        {"chart": {"d": 4, "m": 3, "n": 2, "ell": 2, "s": 0, "tag": "qtf1", "ell_bar": 2,
                   "matrix": [[1, 0], [0, 1]]},
         "center": {"divisor_indices": [0, 1], "slot_count": 0},
         "choice": {"j0": 0, "betas": [[1, None]]}},
        "error: choice beta 1 must be an object\n"),
    "unit constant in exponent notation": (
        "toroidalize",
        _with(identity_doc(), FIRST_CHART + ("units",), [{"base": {"coeff": "1e20000000"}}, {}]),
        "error: stratum A/p0 chart unit 0 base: field 'coeff' must be a rational"),
    "view listing a stratum outside a contained component": (
        "toroidalize", _with(MULTI_STEP, SECOND_VIEW, ["A/p0.e1z^"]),
        "error: step z2 view A: stratum A/p0.e1z^: listed above the center but "
        "missing one of its divisor components\n"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_documents_exit_invalid(name, tmp_path):
    args, docs, text = PINNED[name]
    docs = docs if isinstance(docs, tuple) else (docs,)
    paths = [_write(tmp_path, f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    status, err = check_run(args.split() + paths, name)
    assert status == 2 and err.startswith("error:") and text in err, err


# A value a million characters long, at each site whose error line quotes an
# input value: the line cuts it short and gives its length.
LONG = "x" * 1_000_000
LONG_LABEL = {"name": LONG, "charts": ["A"]}


def _atlas(**changes):
    """`identity_doc` with each (path as "a.0.b", value) change made."""
    doc = identity_doc()
    for path, value in changes.items():
        keys = [int(k) if k.isdigit() else k for k in path.split("__")]
        _replace(doc, tuple(keys), value)
    return doc


def _step(**fields):
    return [{"id": "z1", "views": {"A": {"c": 2, "contained": ["L1", "L2"]}},
             "incidence": {"L1": "in", "L2": "in"}, **fields}]


def _taken_id_doc():
    """A principal root whose lifted id is a kept stratum's."""
    doc = _atlas(charts__0__strata__0__id=LONG,
                 charts__0__strata__0__chart__matrix=[[1, 0], [1, 1]])
    doc["charts"][0]["strata"].append(
        {"id": LONG + "^", "chart": {"d": 2, "m": 2, "n": 0, "ell": 0, "s": 0,
                                     "tag": "smooth", "matrix": []}})
    return doc


# site -> (arguments before the document paths, a function giving the
# document or a tuple of documents, exit status, text the error line holds)
LONG_VALUES = {
    "fraction_from_doc": (
        "toroidalize", lambda: _atlas(**{"charts__0__strata__0__chart__units": [
            {"base": {"coeff": LONG}}, {}]}), 2, "field 'coeff' must be a rational, found 'xxx"),
    "cmd_ideal op": ("ideal", lambda: {"op": LONG, "generators": [[1]]}, 2, "unknown op 'xxx"),
    "parse_document duplicate label": (
        "toroidalize", lambda: _atlas(labels=[LONG_LABEL, LONG_LABEL]), 2, "duplicate label 'xxx"),
    "parse_document duplicate chart id": (
        "toroidalize", lambda: _atlas(charts=[{"id": LONG}, {"id": LONG}]), 2,
        "duplicate chart id 'xxx"),
    "parse_document duplicate stratum id": (
        "toroidalize", lambda: _atlas(charts__0__strata=[
            {**identity_doc()["charts"][0]["strata"][0], "id": LONG}] * 2), 2,
        "duplicate stratum id 'xxx"),
    "check_atlas unregistered label": (
        "toroidalize", lambda: _atlas(charts__0__strata__0__row_labels=["L1", LONG]), 2,
        "A/p0: unregistered label 'xxx"),
    "check_atlas label of another chart": (
        "toroidalize", lambda: _atlas(labels=[{"name": "L1", "charts": ["A"]},
                                              {"name": LONG, "charts": ["B"]}],
                                      charts__0__strata__0__row_labels=["L1", LONG]), 2,
        "A/p0: label 'xxx"),
    "apply_script_step unknown chart": (
        "toroidalize", lambda: _atlas(script=_step(views={
            "A": {"c": 2, "contained": ["L1", "L2"]}, LONG: {"c": 2, "contained": []}})), 2,
        "step z1: unknown chart 'xxx"),
    "apply_script_step unknown incidence label": (
        "toroidalize", lambda: _atlas(script=_step(
            incidence={"L1": "in", "L2": "in", LONG: "out"})), 2, "step z1: unknown label 'xxx"),
    "apply_script_step component met": (
        "toroidalize", lambda: _atlas(labels=[{"name": "L1", "charts": ["A"]},
                                              {"name": "L2", "charts": ["A"]}, LONG_LABEL],
                                      script=_step(incidence={"L1": "in", "L2": "in",
                                                              LONG: "meets"})), 2,
        "center meets but does not contain component 'xxx"),
    "apply_script_step bad incidence": (
        "toroidalize", lambda: _atlas(script=_step(incidence={"L1": "in", "L2": LONG})), 2,
        "step z1: bad incidence 'xxx"),
    "apply_script_step unknown view label": (
        "toroidalize", lambda: _atlas(script=_step(
            views={"A": {"c": 2, "contained": ["L1", "L2", LONG]}})), 2,
        "step z1: unknown label 'xxx"),
    "apply_script_step contained but not in": (
        "toroidalize", lambda: _atlas(labels=[{"name": "L1", "charts": ["A"]},
                                              {"name": "L2", "charts": ["A"]}, LONG_LABEL],
                                      script=_step(views={"A": {"c": 2, "contained": [
                                          "L1", "L2", LONG]}})), 2,
        "step z1: chart A contains 'xxx"),
    "apply_script_step seen but omitted": (
        "toroidalize", lambda: _atlas(labels=[{"name": "L1", "charts": ["A"]},
                                              {"name": "L2", "charts": ["A"]}, LONG_LABEL],
                                      script=_step(incidence={"L1": "in", "L2": "in",
                                                              LONG: "in"})), 2,
        "step z1: chart A sees 'xxx"),
    "apply_script_step duplicate exceptional label": (
        "toroidalize", lambda: _atlas(labels=[{"name": "L1", "charts": ["A"]},
                                              {"name": "L2", "charts": ["A"]},
                                              {"name": "exc." + LONG, "charts": []}],
                                      script=_step(id=LONG)), 2,
        "duplicate exceptional label 'exc.xxx"),
    "_strata_above unknown strata": (
        "toroidalize", lambda: _with(MULTI_STEP, SECOND_VIEW, [LONG]), 2,
        "step z2 view A: field 'strata' names no stratum ['A/xxx"),
    "_run_step taken id": (
        "toroidalize", _taken_id_doc, 2, "step z1 chart A: stratum id 'A/xxx"),
    "replay engine": (
        "verify-trace", lambda: (identity_doc(), {**IDENTITY_TRACE, "engine": LONG}), 1,
        "replay mismatch: trace produced by engine 'xxx"),
    "structural_problems tag": (
        "toroidalize", lambda: _atlas(charts__0__strata__0__chart__tag=LONG), 2,
        "malformed chart: unknown tag 'xxx"),
}


@pytest.mark.parametrize("site", sorted(LONG_VALUES))
def test_long_value_is_quoted_short(site, tmp_path):
    args, make, status, text = LONG_VALUES[site]
    docs = make()
    docs = docs if isinstance(docs, tuple) else (docs,)
    paths = [_write(tmp_path, f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    got, err = check_run(args.split() + paths, site)
    assert got == status and text in err, err[:300]
    assert len(err.encode()) < 1000 and " characters)" in err, err[:300]


def _long_chart_id_doc():
    """`identity_doc` with chart A named `LONG`, whose view contains L2
    although the step's incidence puts L2 out."""
    doc = _atlas(labels=[{"name": "L1", "charts": [LONG]}, {"name": "L2", "charts": [LONG]}],
                 charts__0__id=LONG)
    doc["script"] = _step(views={LONG: {"c": 2, "contained": ["L1", "L2"]}},
                          incidence={"L1": "in", "L2": "out"})
    return doc


def _long_step_id_doc(base, *changes):
    """`base` with its last script step named `LONG` and each (path, value) change made."""
    doc = copy.deepcopy(base)
    doc["script"][-1]["id"] = LONG
    for path, value in changes:
        _replace(doc, path, value)
    return doc


def _taken_lift_id_doc():
    """A principal root whose lifted id is a kept stratum's, under a step named `LONG`."""
    doc = _atlas(charts__0__strata__0__chart__matrix=[[1, 0], [1, 1]], script=_step(id=LONG))
    doc["charts"][0]["strata"].append(
        {"id": "p0^", "chart": {"d": 2, "m": 2, "n": 0, "ell": 0, "s": 0,
                                "tag": "smooth", "matrix": []}})
    return doc


NEGATIVE_ROW = [[1, -1], [0, 1]]

# An id or a name a million characters long, at each site whose error line
# writes one: the line cuts it short, unquoted, and gives its length.
# site -> (arguments before the document path, a function giving the
# document, text the error line holds); each exits 2.
LONG_IDS = {
    "parse_document stratum id": (
        "toroidalize", lambda: _atlas(charts__0__strata__0__id=LONG,
                                      charts__0__strata__0__chart__matrix=NEGATIVE_ROW),
        "stratum A/xxx"),
    "parse_document chart id": (
        "toroidalize", lambda: _atlas(charts__0__id=LONG,
                                      charts__0__strata__0__chart__matrix=NEGATIVE_ROW),
        "stratum xxx"),
    "parse_document label name": (
        "toroidalize", lambda: _atlas(labels=[{**LONG_LABEL, "under_e0": "no"}]), "label xxx"),
    "parse_document step id": (
        "toroidalize", lambda: _atlas(script=_step(id=LONG, views={"A": {"c": "two"}})),
        "step xxx"),
    "parse_document view chart id": (
        "toroidalize", lambda: _atlas(script=_step(views={LONG: {"c": "two"}})),
        "step z1 view xxx"),
    "unit_value_from_doc symbol name": (
        "toroidalize", lambda: _atlas(charts__0__strata__0__chart__units=[
            {"base": {"coeff": 1, "symbols": [[LONG, "1e5"]]}}, {}]),
        "exponent of symbol 'xxx"),
    "check_atlas stratum id": (
        "toroidalize", lambda: _atlas(charts__0__strata__0__id=LONG,
                                      charts__0__strata__0__row_labels=["L1", "L9"]),
        "A/xxx"),
    "apply_script_step step id": (
        "toroidalize", lambda: _atlas(script=_step(id=LONG, views={
            "A": {"c": 3, "contained": ["L1", "L2"]}})), "step xxx"),
    "apply_script_step chart id": ("toroidalize", _long_chart_id_doc, "step z1: chart xxx"),
    "_strata_above step id": (
        "toroidalize", lambda: _long_step_id_doc(MULTI_STEP, (SECOND_VIEW, ["zz"])),
        "step xxx"),
    "_run_step step id": ("toroidalize", _taken_lift_id_doc, "step xxx"),
    "cmd_principalize stratum id": (
        "principalize", lambda: {"strata": [{"id": LONG, "chart": {}, "descriptor": {}}]},
        "stratum xxx"),
    "cmd_report step id": ("report", lambda: {**IDENTITY_TRACE, "steps": [{"id": LONG}]},
                           "step xxx"),
    "naming stratum id": (
        "principalize", lambda: {"strata": [
            {**_unadapted_doc(IDENTITY_CHART, CenterDescriptor(1, 2, (0,)))["strata"][0],
             "id": LONG}]},
        "stratum xxx"),
}


@pytest.mark.parametrize("site", sorted(LONG_IDS))
def test_long_id_is_cut_short(site, tmp_path):
    args, make, text = LONG_IDS[site]
    status, err = check_run(args.split() + [_write(tmp_path, "doc.json", make())], site)
    assert status == 2 and text in err, err[:300]
    assert len(err.encode()) < 1000 and "xxx... (100000" in err, err[:300]


def test_long_root_id_is_cut_short_in_a_parent_path():
    root = "r" * 1_000_000
    with pytest.raises(ValueError) as exc:
        with naming(root + ".e0z.e1g", (root, root + ".e0z")):
            raise ValueError("bad child")
    cut = "r" * 60 + "... (1000000 characters)"
    assert str(exc.value) == (
        f"stratum {cut[:60]}... (1000008 characters) (parent path {cut} > .e0z): bad child")


def test_short_values_are_quoted_whole():
    assert quoted("L1") == "'L1'" and quoted(["A/zz"]) == "['A/zz']"
    assert quoted("x" * 58) == repr("x" * 58)
    assert quoted("x" * 59) == repr("x" * 59)[:60] + "... (59 characters)"
    assert quoted([LONG[:100]]) == repr([LONG[:100]])[:60] + "... (104 characters)"


# Files `json.dumps` cannot write: JSON nested too deep to decode, and
# bytes that are not UTF-8.  Each exits 2 with an error line naming the file.
RAW_FILES = {
    "nested": ("[" * 100000 + "]" * 100000).encode(),
    "not utf-8": b"\xff\xfe",
}


@pytest.mark.parametrize("kind", sorted(RAW_FILES))
@pytest.mark.parametrize("command", ["ideal", "toroidalize", "verify-trace"])
def test_unreadable_files_exit_invalid(command, kind, tmp_path):
    path = tmp_path / "raw.json"
    path.write_bytes(RAW_FILES[kind])
    args = [command, str(path)]
    if command == "verify-trace":
        args.insert(1, _write(tmp_path, "atlas.json", identity_doc()))
    status, err = check_run(args, f"{command} {kind}")
    assert status == 2 and err.startswith(f"error: cannot read {path}: "), err


def _latin1_stdin(monkeypatch, data: bytes):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))


def test_stdin_is_read_as_utf8(monkeypatch):
    _latin1_stdin(monkeypatch, json.dumps({"name": "é"}, ensure_ascii=False).encode())
    assert _read_json("-") == {"name": "é"}


def test_stdin_not_utf8_exits_invalid_like_a_file(monkeypatch, tmp_path):
    path = tmp_path / "raw.json"
    path.write_bytes(RAW_FILES["not utf-8"])
    file_status, file_err = check_run(["ideal", str(path)], "ideal file")
    _latin1_stdin(monkeypatch, RAW_FILES["not utf-8"])
    status, err = check_run(["ideal", "-"], "ideal stdin")
    assert (status, err) == (file_status, file_err.replace(str(path), "-"))
    assert status == 2 and err.startswith("error: cannot read -: 'utf-8' codec"), err
