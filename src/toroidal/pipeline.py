"""Top-level orchestration.

The input is a single document holding the chart atlas of a locally
toroidal morphism together with a target-side resolution script given
by labeled divisor incidences.  Each script step blows up one target
center; the engine adapts every source stratum above the center,
principalizes the pulled-back center ideal by permissible blowups,
builds each principal shape's lift skeleton from its first leaf, lifts
every principal leaf through it and the target blowup, and records
everything in a replayable trace; the verdict certifies that every
stratum is toroidal for the global divisor label count.

The parsed atlas's strata and labels and the script's steps and views
are plain records (`collections.namedtuple`s); the document readers
check every field before one is built.  `MorphismAtlas` is the one
mutable record, a plain slotted class: a step replaces the strata it
lifts.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from contextlib import contextmanager

from . import __version__
from .chart import (
    SMOOTH,
    TOROIDAL,
    CenterDescriptor,
    ValidityReport,
    derive_center_form,
    extend_to_global_form,
    verify_toroidal_form,
)
from .documents import (
    InvalidDocument,
    chart_from_doc,
    chart_to_doc,
    descriptor_to_doc,
    lift_record_to_doc,
    principalization_to_doc,
    read_bool,
    read_field,
    read_integer,
    read_name,
    read_object,
    read_schema,
    read_strings,
    stdlib_dumps,
    strict_bytes,
)
from .errors import cut, quoted
from .lift import lift_after_principalization, lift_skeleton
from .linalg import rank
from .principalize import (
    DEFAULT_CAP,
    EXCEEDED,
    POLICY,
    check_cap,
    naming,
    principalize_chart_family,
)

ATLAS_SCHEMA = "toroidal-atlas/1"
TRACE_SCHEMA = "toroidal-trace/3"


# ---------------------------------------------------------------------------
# Atlas model


# `chart_doc` is a lifted chart's document, from its lift record.
TrackedStratum = namedtuple(
    "TrackedStratum", "stratum_id chart row_labels extra_global_labels chart_doc",
    defaults=(0, None))

# `charts` lists the charts whose open set sees the component, and
# `e_charts` those where it is a divisor component.
LabelInfo = namedtuple("LabelInfo", "name charts e_charts under_e0", defaults=(True,))


class MorphismAtlas:
    """The atlas: its dimensions, its strata by chart id (each chart's in
    document order) and its labels by name."""

    __slots__ = ("d", "m", "strata", "labels")

    def __init__(self, d: int, m: int, strata: dict[str, list[TrackedStratum]],
                 labels: dict[str, LabelInfo]):
        self.d = d
        self.m = m
        self.strata = strata
        self.labels = labels

    def all_strata(self):
        for chart_id, chart_strata in self.strata.items():
            for stratum in chart_strata:
                yield chart_id, stratum


CenterView = namedtuple("CenterView", "c contained strata", defaults=(None,))


ScriptStep = namedtuple("ScriptStep", "step_id views incidence")


ResolutionScript = namedtuple("ResolutionScript", "steps")


# ---------------------------------------------------------------------------
# Parsing and validation


def parse_document(doc) -> tuple[MorphismAtlas, ResolutionScript]:
    """Read an atlas document; a missing or mistyped field raises
    `InvalidDocument` naming the field and where it sits."""
    read_schema(doc, ATLAS_SCHEMA)
    dims = read_field(doc, "dims", dict, "document", {})
    d, m = read_integer(dims, "d", "dims"), read_integer(dims, "m", "dims")

    labels: dict[str, LabelInfo] = {}
    for entry in read_field(doc, "labels", list, "document", []):
        entry = read_object(entry, "each 'labels' entry")
        name = read_name(entry, "name", "label entry")
        if name in labels:
            raise InvalidDocument(f"duplicate label {quoted(name)}")
        where = f"label {cut(name)}"
        charts = read_strings(entry, "charts", where)
        labels[name] = LabelInfo(name=name, charts=charts,
                                 e_charts=read_strings(entry, "e_charts", where, charts),
                                 under_e0=read_bool(entry, "under_e0", where, True))

    strata: dict[str, list[TrackedStratum]] = {}
    for chart_entry in read_field(doc, "charts", list, "document", []):
        chart_entry = read_object(chart_entry, "each 'charts' entry")
        chart_id = read_name(chart_entry, "id", "chart entry")
        if chart_id in strata:
            raise InvalidDocument(f"duplicate chart id {quoted(chart_id)}")
        strata[chart_id] = []
        chart, sids = cut(chart_id), set()
        for stratum_doc in read_field(chart_entry, "strata", list, f"chart {chart}", []):
            stratum_doc = read_object(stratum_doc, f"chart {chart}: each 'strata' entry")
            sid = read_name(stratum_doc, "id", f"stratum in chart {chart}")
            if sid in sids:
                raise InvalidDocument(f"duplicate stratum id {quoted(sid)} in {chart}")
            sids.add(sid)
            where = f"stratum {cut(f'{chart_id}/{sid}')}"
            extra = read_integer(stratum_doc, "extra_global_labels", where, default=0)
            if extra < 0:
                raise InvalidDocument(
                    f"{where}: field 'extra_global_labels' must be >= 0")
            strata[chart_id].append(TrackedStratum(
                stratum_id=f"{chart_id}/{sid}",
                chart=chart_from_doc(read_field(stratum_doc, "chart", dict, where, {}),
                                     f"{where} chart"),
                row_labels=read_strings(stratum_doc, "row_labels", where),
                extra_global_labels=extra))

    steps = []
    for step_doc in read_field(doc, "script", list, "document", []):
        step_doc = read_object(step_doc, "each 'script' entry")
        step_id = read_name(step_doc, "id", "script step")
        where = f"step {cut(step_id)}"
        views = []
        for chart_id, view_doc in sorted(
                read_field(step_doc, "views", dict, where, {}).items()):
            view_where = f"{where} view {cut(chart_id)}"
            view_doc = read_object(view_doc, f"{where}: each 'views' entry")
            views.append((chart_id, CenterView(
                c=read_integer(view_doc, "c", view_where),
                contained=read_strings(view_doc, "contained", view_where),
                strata=None if view_doc.get("strata") is None
                else read_strings(view_doc, "strata", view_where))))
        incidence = tuple(sorted(
            read_field(step_doc, "incidence", dict, where, {}).items()))
        steps.append(ScriptStep(step_id=step_id, views=tuple(views),
                                incidence=incidence))
    return (MorphismAtlas(d=d, m=m, strata=strata, labels=labels),
            ResolutionScript(tuple(steps)))


def check_atlas(atlas: MorphismAtlas) -> ValidityReport:
    """Every stratum is a toroidal or smooth chart of the declared
    dimensions, labeled consistently, with room for its lifts."""
    failures = []
    e_charts = {name: set(info.e_charts) for name, info in atlas.labels.items()}
    for chart_id, stratum in atlas.all_strata():
        cf = stratum.chart
        where = cut(stratum.stratum_id)
        if (cf.d, cf.m) != (atlas.d, atlas.m):
            failures.append(("dims", f"{where}: chart dims differ from the atlas"))
        if cf.tag == SMOOTH:
            if stratum.row_labels:
                failures.append(("labels", f"{where}: smooth strata carry no labels"))
            continue
        if cf.tag != TOROIDAL:
            failures.append(("tag", f"{where}: input strata must be toroidal or smooth"))
            continue
        report = verify_toroidal_form(cf)
        for code, msg in report.failures:
            failures.append((code, f"{where}: {msg}"))
        if len(stratum.row_labels) != cf.ell:
            failures.append(("labels", f"{where}: one label per divisor row required"))
        if len(set(stratum.row_labels)) != len(stratum.row_labels):
            failures.append(("labels", f"{where}: duplicate row labels"))
        for label in stratum.row_labels:
            if label not in e_charts:
                failures.append(("labels", f"{where}: unregistered label {quoted(label)}"))
            elif chart_id not in e_charts[label]:
                failures.append(("labels",
                                 f"{where}: label {quoted(label)} not registered to chart"))
        if cf.ell and cf.d < cf.n + cf.m - rank(cf.matrix):
            failures.append(("capacity",
                             f"{where}: d too small for the chart's rank deficit"))
    return ValidityReport(tuple(failures))


# ---------------------------------------------------------------------------
# Target-side script verification


def apply_script_step(labels: dict[str, LabelInfo], chart_ids: set[str],
                      m: int, step: ScriptStep):
    """Check one step against the divisor rules and the codimension range
    [2, m] of a target center, and register its exceptional label in
    `labels`.

    Returns (failures, exceptional label name or None).
    """
    failures = []
    where = f"step {cut(step.step_id)}"
    if not step.views:
        failures.append(("views", f"{where}: no chart sees the center"))
        return failures, None
    for chart_id, _ in step.views:
        if chart_id not in chart_ids:
            failures.append(("views",
                             f"{where}: unknown chart {quoted(chart_id)}"))

    codims = {view.c for _, view in step.views}
    if len(codims) > 1:
        failures.append(("consistency",
                         f"{where}: chart views disagree on codimension"))
    if min(codims) < 2 or max(codims) > m:
        failures.append(("codim", f"{where}: field 'c' must lie in "
                                  f"[2, {m}], the codimension range of a center"))

    for label, kind in step.incidence:
        if label not in labels:
            failures.append(("labels", f"{where}: unknown label {quoted(label)}"))
        elif kind == "meets":
            failures.append(("dichotomy",
                             f"{where}: center meets but does not contain "
                             f"component {quoted(label)}"))
        elif kind not in ("in", "out"):
            failures.append(("labels", f"{where}: bad incidence {quoted(kind)}"))

    incidence = dict(step.incidence)
    contained_any = set()
    for chart_id, view in step.views:
        for label in view.contained:
            info = labels.get(label)
            if info is None:
                failures.append(("labels",
                                 f"{where}: unknown label {quoted(label)}"))
                continue
            contained_any.add(label)
            if incidence.get(label) != "in":
                failures.append(("consistency",
                                 f"{where}: chart {cut(chart_id)} contains "
                                 f"{quoted(label)} but incidence is not 'in'"))
    for label, kind in step.incidence:
        if kind != "in" or label not in labels:
            continue
        seeing = set(labels[label].charts)
        for chart_id, view in step.views:
            if chart_id in seeing and label not in view.contained:
                failures.append(("consistency",
                                 f"{where}: chart {cut(chart_id)} sees "
                                 f"{quoted(label)} but omits it from the center view"))

    under = any(labels[label].under_e0 for label in contained_any
                if label in labels)
    exc_name = f"exc.{step.step_id}"
    if exc_name in labels:
        failures.append(("labels", f"duplicate exceptional label {quoted(exc_name)}"))
        return failures, None

    viewing = tuple(chart_id for chart_id, _ in step.views)
    divisor_in = {label: set(labels[label].e_charts) for label in contained_any}
    e_charts = tuple(
        chart_id for chart_id, view in step.views
        if any(label in divisor_in and chart_id in divisor_in[label]
               for label in view.contained))
    if e_charts and not under:
        failures.append(("transform",
                         f"{where}: new divisor component lies outside "
                         "the total transform of the initial union divisor"))
    labels[exc_name] = LabelInfo(
        name=exc_name, charts=viewing, e_charts=e_charts, under_e0=under)
    return failures, exc_name


def _apply_script(labels: dict[str, LabelInfo], chart_ids: set[str],
                  m: int, script: ResolutionScript):
    """Apply every step to `labels`; returns the report and each step's
    exceptional label."""
    failures = []
    exc_labels = []
    for step in script.steps:
        step_failures, exc_label = apply_script_step(labels, chart_ids, m, step)
        failures.extend(step_failures)
        exc_labels.append(exc_label)
    return ValidityReport(tuple(failures)), exc_labels


def verify_resolution_script(atlas: MorphismAtlas,
                             script: ResolutionScript) -> ValidityReport:
    report, _ = _apply_script(dict(atlas.labels), set(atlas.strata), atlas.m, script)
    return report


# ---------------------------------------------------------------------------
# The toroidalization loop


class ToroidalizeError(ValueError):
    pass


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, and turn it back on after if it
    was on before.  The engine makes no reference cycles, so reference
    counting frees all it drops; collector passes would only re-scan the
    growing trace.

    Before turning it back on, when no object is frozen (`gc.freeze`), it
    hands every tracked object to the oldest generation unscanned
    (`gc.freeze()` then `gc.unfreeze()`) and so resets the young count: no
    pass walks the finished trace on the way out, and the trace is never
    promoted through the middle generation, which is what starts full
    collections.  The caller's own young objects are handed over too, so
    its cyclic garbage waits for the next full collection.  When objects
    are already frozen, by a host or by the interpreter at startup, it
    only turns the collector back on, so it never thaws what someone else
    froze; counting them walks them once per call.  The switch is per
    process, not per thread."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _strata_above(chart_strata: list[TrackedStratum], view: CenterView,
                  chart_id: str, step_id: str):
    where = f"step {cut(step_id)} view {cut(chart_id)}"
    contained = set(view.contained)
    explicit = None if view.strata is None else {
        sid if "/" in sid else f"{chart_id}/{sid}" for sid in view.strata}
    if explicit is not None:
        unknown = sorted(explicit - {s.stratum_id for s in chart_strata})
        if unknown:
            raise ToroidalizeError(f"{where}: field 'strata' names no stratum {quoted(unknown)}")
    above = []
    for stratum in chart_strata:
        if stratum.chart.tag not in (TOROIDAL, SMOOTH):
            continue  # the cap stopped it: it stays as the cap left it
        if explicit is not None:
            if stratum.stratum_id not in explicit:
                continue
            if not contained <= set(stratum.row_labels):
                raise ToroidalizeError(
                    f"{where}: stratum {cut(stratum.stratum_id)}: listed above the "
                    "center but missing one of its divisor components")
            above.append(stratum)
        elif contained and contained <= set(stratum.row_labels):
            above.append(stratum)
    return above


def _descriptor_for(stratum: TrackedStratum, view: CenterView) -> CenterDescriptor:
    contained = set(view.contained)
    rows = tuple(i for i, label in enumerate(stratum.row_labels) if label in contained)
    return CenterDescriptor(ell_bar=len(rows), c=view.c, divisor_rows=rows)


def _run_step(atlas: MorphismAtlas, step: ScriptStep, exc_label: str, cap: int) -> dict:
    """Run one script step on `atlas` and return its trace record.  Errors
    raised while a stratum is adapted or lifted name it; a new stratum id
    already taken in its chart raises `ToroidalizeError`."""
    charts = {}
    views = dict(step.views)

    for chart_id, chart_strata in atlas.strata.items():
        view = views.get(chart_id)
        if view is None:
            continue
        above = _strata_above(chart_strata, view, chart_id, step.step_id)
        if not above:
            charts[chart_id] = {"adapted": [], "lifts": []}
            continue

        family = []
        adapted_docs = []
        roots: dict[str, TrackedStratum] = {}  # labels in adapted row order
        for stratum in above:
            with naming(stratum.stratum_id, ()):
                z = _descriptor_for(stratum, view)
                adapted, row_order = derive_center_form(stratum.chart, z)
            family.append((stratum.stratum_id, adapted, z))
            roots[stratum.stratum_id] = stratum._replace(
                row_labels=tuple(stratum.row_labels[i] for i in row_order))
            adapted_docs.append({
                "descriptor": descriptor_to_doc(z),
                "row_order": list(row_order),
                "stratum": stratum.stratum_id,
            })

        trace = principalize_chart_family(family, cap=cap)
        skeletons = _shape_skeletons(trace)
        lifts = []
        new_strata = []
        for final in trace.final:
            root = roots[final.parent_path[0] if final.parent_path else final.stratum_id]
            if final.status == EXCEEDED:
                new_strata.append(TrackedStratum(final.stratum_id, final.chart,
                                                 root.row_labels, root.extra_global_labels))
                continue
            # A lift's constants are written here, so a constant too long
            # to write names its stratum.
            with naming(final.stratum_id, final.parent_path):
                result = lift_after_principalization(final.chart, skeletons[final.shape])
                new_labels = _lifted_labels(result, root.row_labels, exc_label)
                chart_doc = chart_to_doc(result.lifted)
                record_doc = lift_record_to_doc(result)
            lifted_id = f"{final.stratum_id}^"
            new_strata.append(TrackedStratum(lifted_id, result.lifted, new_labels,
                                             root.extra_global_labels, chart_doc))
            lifts.append({
                "chart": chart_doc,
                "commutes": True,
                "lifted_id": lifted_id,
                "record": record_doc,
                "row_labels": list(new_labels),
                "stratum": final.stratum_id,
            })

        kept = [s for s in chart_strata if s.stratum_id not in roots]
        taken = {s.stratum_id for s in kept}
        for s in new_strata:
            if s.stratum_id in taken:
                raise ToroidalizeError(f"step {cut(step.step_id)} chart {cut(chart_id)}: "
                                       f"stratum id {quoted(s.stratum_id)} is already taken")
            taken.add(s.stratum_id)
        # Reassigning an existing key keeps its place in the chart order.
        atlas.strata[chart_id] = kept + new_strata
        charts[chart_id] = {
            "adapted": adapted_docs,
            "lifts": lifts,
            "principalization": principalization_to_doc(trace),
        }
    return {"charts": dict(sorted(charts.items())), "exceptional_label": exc_label,
            "id": step.step_id}


def _shape_skeletons(trace) -> dict:
    """Each principal shape's lift skeleton by its first leaf's index, built from that leaf."""
    skeletons = {}
    for k, final in enumerate(trace.final):
        if final.shape == k:
            with naming(final.stratum_id, final.parent_path):
                skeletons[k] = lift_skeleton(final.chart)
    return skeletons


def _lifted_labels(result, old_labels: tuple[str, ...],
                   exc_label: str) -> tuple[str, ...]:
    """One label per lifted row, as the skeleton built its row sources
    with its rows; a step runs only once its script passed, so its
    exceptional label exists."""
    return tuple(exc_label if kind == "gen" else old_labels[src]
                 for kind, src in result.skeleton.row_sources)


def verify_global_toroidal(atlas: MorphismAtlas) -> ValidityReport:
    """The final verdict on an atlas whose strata passed `check_atlas` or
    were built by the engine, so each toroidal chart's shape is already
    checked: every stratum is toroidal or smooth (a smooth one is an
    ell = 0 toroidal chart), and one whose point meets extra global
    components extends by an identity block (`extend_to_global_form`)."""
    failures = []
    for _, stratum in atlas.all_strata():
        cf, where = stratum.chart, stratum.stratum_id
        if cf.tag not in (TOROIDAL, SMOOTH):
            failures.append(("tag", f"{where}: stratum is not toroidal"))
        elif stratum.extra_global_labels:
            try:
                extend_to_global_form(cf, cf.ell + stratum.extra_global_labels)
            except ValueError as exc:
                failures.append(("extend", f"{where}: {exc}"))
    return ValidityReport(tuple(failures))


def atlas_to_doc(atlas: MorphismAtlas) -> dict:
    """The atlas document; a lifted stratum's chart is its lift record's."""
    return {
        "charts": [{
            "id": chart_id,
            "strata": [{
                "chart": chart_to_doc(s.chart) if s.chart_doc is None else s.chart_doc,
                "extra_global_labels": s.extra_global_labels,
                "id": s.stratum_id,
                "row_labels": list(s.row_labels),
            } for s in chart_strata],
        } for chart_id, chart_strata in atlas.strata.items()],
        "dims": {"d": atlas.d, "m": atlas.m},
        "labels": [{
            "charts": list(info.charts),
            "e_charts": list(info.e_charts),
            "name": info.name,
            "under_e0": info.under_e0,
        } for info in sorted(atlas.labels.values(), key=lambda i: i.name)],
        "schema": ATLAS_SCHEMA,
    }


@collector_paused()
def toroidalize(atlas: MorphismAtlas, script: ResolutionScript,
                cap: int = DEFAULT_CAP) -> dict:
    """Run the full pipeline and return the trace document; the cyclic
    collector is paused for the call (`collector_paused`).  The one
    sub-document the trace shares is a lifted chart's: it sits in its lift
    record and, while the stratum survives, in `final_atlas`, so the trace
    is read-only.  No two calls share a document.
    Each verdict is read off the final atlas; `commutes` is always true."""
    check_cap(cap)
    atlas_report = check_atlas(atlas)
    if not atlas_report.ok:
        raise ToroidalizeError(f"invalid atlas: {atlas_report}")
    working = MorphismAtlas(
        d=atlas.d, m=atlas.m,
        strata={cid: list(ss) for cid, ss in atlas.strata.items()},
        labels=dict(atlas.labels))
    script_report, exc_labels = _apply_script(
        working.labels, set(working.strata), working.m, script)
    if not script_report.ok:
        raise ToroidalizeError(f"resolution script rejected: {script_report}")

    steps = [_run_step(working, step, exc_label, cap)
             for step, exc_label in zip(script.steps, exc_labels)]

    # Input strata are toroidal or smooth and lifts are toroidal, so a qtf
    # chart left in the atlas is exactly a stratum the cap stopped (no later
    # center is above it): the global check's `tag` failures.
    global_report = verify_global_toroidal(working)
    verdicts = {
        "cap_exceeded": any(kind == "tag" for kind, _ in global_report.failures),
        "commutes": True,
        "global_failures": [list(f) for f in global_report.failures],
        "pass": global_report.ok,
    }
    return {
        "cap": cap,
        "engine": __version__,
        "final_atlas": atlas_to_doc(working),
        "policy": POLICY.name,
        "schema": TRACE_SCHEMA,
        "steps": steps,
        "verdicts": verdicts,
    }


class ReplayMismatch(ValueError):
    pass


def replay(trace_doc: dict, atlas: MorphismAtlas,
           script: ResolutionScript) -> dict:
    """Re-execute deterministically and compare against the given trace;
    a trace recorded under another center policy is a mismatch.

    The fresh trace is in the form `json.loads` gives back, so a recorded
    trace read from its canonical text has the same `strict_bytes`.
    Anything else (keys in another order, a document pickle cannot write,
    a real mismatch) is decided by the canonical dumps of the stdlib
    encoder, which writes a recorded NaN or Infinity by name where orjson
    would write `null`."""
    read_schema(trace_doc, TRACE_SCHEMA)
    if trace_doc.get("engine") != __version__:
        raise ReplayMismatch(
            f"trace produced by engine {quoted(trace_doc.get('engine'))}, "
            f"this is {__version__}")
    cap = read_integer(trace_doc, "cap", "trace", default=DEFAULT_CAP)
    check_cap(cap, "trace: field 'cap'")
    old_steps = read_field(trace_doc, "steps", list, "trace", [])
    fresh = toroidalize(atlas, script, cap=cap)
    try:
        if strict_bytes(trace_doc) == strict_bytes(fresh):
            return fresh
    except Exception:  # a cycle, too deep, or an object pickle cannot write:
        pass           # the dumps below decide, and raise as they always have
    if stdlib_dumps(trace_doc) == stdlib_dumps(fresh):
        return fresh
    # Only a mismatch pays for locating the first differing step.
    if len(old_steps) != len(fresh["steps"]):
        raise ReplayMismatch("step count differs")
    for k, (old, new) in enumerate(zip(old_steps, fresh["steps"])):
        if stdlib_dumps(old) != stdlib_dumps(new):
            raise ReplayMismatch(f"step {k} differs from the recorded trace")
    raise ReplayMismatch("trace differs outside the step records")
