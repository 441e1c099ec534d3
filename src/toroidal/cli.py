"""Command line interface.

Exit codes: 0 pass, 1 verdict failure, 2 invalid input, 3 cap exceeded,
4 regime limit (valid input the engine does not handle: no permissible
center, the transversal search bound, the runaway guard or a constant
too long to write), 5 internal check failure (an engine bug, such as a
lift that does not commute).
`toroidalize`, `verify-trace` and `report` exit 3 on a capped run, also
when later script steps follow: a stratum the cap stopped is above no
later center.  Errors print one `error:` line, which names the stratum
when one was being adapted, principalized or lifted.  A file that is not
UTF-8, is not JSON or nests too deep to decode exits 2 with an error line
naming it; `-` is standard input, read as UTF-8 like a file.  Output,
on stdout or to `--out`, is UTF-8 whatever the locale.  The `ideal`
op `max-order-components` has no support limit, only the transversal
search bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blowup import blowup_transform, matrix_permissibility
from .documents import (
    InvalidDocument,
    canonical_dumps,
    center_from_doc,
    chart_from_doc,
    chart_to_doc,
    choice_from_doc,
    construct,
    descriptor_from_doc,
    principalization_to_doc,
    read_bool,
    read_field,
    read_integer,
    read_integers,
    read_matrix,
    read_name,
    read_object,
    read_schema,
    unit_value_to_doc,
)
from .errors import InternalCheckError, RegimeLimit
from .monomial import (
    colon_by_monomial,
    gcd_generators,
    irreducible_decomposition,
    max_order_components,
    minimal_generators,
    order_at_origin,
    principal_part_factorization,
    radical,
)
from .pipeline import (
    ReplayMismatch,
    TRACE_SCHEMA,
    check_atlas,
    collector_paused,
    parse_document,
    replay,
    toroidalize,
    verify_resolution_script,
)
from .principalize import DEFAULT_CAP, check_cap, principalize_chart_family

PASS, FAIL, INVALID, CAP, REGIME, INTERNAL = 0, 1, 2, 3, 4, 5


def _read_json(path: str):
    try:
        if path == "-":  # UTF-8 like a file, whatever the locale's encoding
            return json.loads(sys.stdin.buffer.read().decode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError: not UTF-8, not JSON or an overlong integer; RecursionError: too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc


def _emit(doc, out: str | None):
    """Write a document as canonical JSON, or a text as it is, in UTF-8
    whatever the locale's encoding."""
    text = (doc if isinstance(doc, str) else canonical_dumps(doc)) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
    else:  # a text stream with no bytes beneath it, such as io.StringIO
        sys.stdout.write(text)


def cmd_check_atlas(args) -> int:
    atlas, script = parse_document(_read_json(args.file))
    atlas_report = check_atlas(atlas)
    script_report = verify_resolution_script(atlas, script)
    doc = {
        "atlas_ok": atlas_report.ok,
        "atlas_failures": [list(f) for f in atlas_report.failures],
        "script_ok": script_report.ok,
        "script_failures": [list(f) for f in script_report.failures],
    }
    _emit(doc, args.out)
    return PASS if atlas_report.ok and script_report.ok else FAIL


def cmd_ideal(args) -> int:
    where = "ideal document"
    doc = read_object(_read_json(args.file), where)
    op = read_name(doc, "op", where)
    generators = read_matrix(doc, "generators", where)
    # An empty generator set has no exponent length to take the dimension from.
    dim = read_integer(doc, "dim", where) if "dim" in doc or not generators else None
    ideal = construct(f"{where}: field 'generators'" if dim is None
                      else f"{where}: fields 'generators' and 'dim'",
                      minimal_generators, generators, dim)
    if op == "minimal":
        out = {"generators": [list(g) for g in ideal.gens]}
    elif op == "gcd":
        out = {"gcd": list(gcd_generators(ideal))}
    elif op == "colon":
        result = construct(f"{where}: field 'arg'", colon_by_monomial, ideal,
                           read_integers(doc, "arg", where, None))
        out = {"generators": [list(g) for g in result.gens]}
    elif op == "factor":
        f, n = principal_part_factorization(ideal)
        out = {"monomial": list(f), "residual": [list(g) for g in n.gens]}
    elif op == "radical":
        out = {"generators": [list(g) for g in radical(ideal).gens]}
    elif op == "decompose":
        comps = irreducible_decomposition(ideal)
        out = {"components": [[list(g) for g in c.gens] for c in comps]}
    elif op == "order":
        out = {"order": order_at_origin(ideal)}
    elif op == "max-order-components":
        out = {"components": [list(s) for s in max_order_components(ideal)]}
    else:
        raise InvalidDocument(f"{where}: unknown op {op!r}")
    _emit(out, args.out)
    return PASS


def cmd_normalize_toric(args) -> int:
    # Loaded here, so the other commands never import the toric reduction.
    from .toric import (
        LocalModelDims,
        ToricMorphismData,
        normalize_toric_presentation,
        validate_toric_morphism,
    )

    where = "toric document"
    doc = read_object(_read_json(args.file), where)
    source, target = (read_integers(doc, key, where, None) for key in ("source", "target"))
    if len(source) != 2 or len(target) != 2:
        raise InvalidDocument(
            f"{where}: fields 'source' and 'target' must list two integers")
    data = ToricMorphismData(construct(f"{where}: field 'source'", LocalModelDims, *source),
                             construct(f"{where}: field 'target'", LocalModelDims, *target),
                             read_matrix(doc, "matrix", where, None))
    report = validate_toric_morphism(data)
    if not report.ok:
        _emit({"valid": False, "failures": [list(f) for f in report.failures]},
              args.out)
        return FAIL
    pres = normalize_toric_presentation(data)
    _emit({
        "valid": True,
        "r": pres.r,
        "row_perm": list(pres.row_perm),
        "col_perm": list(pres.col_perm),
        "elimination": [list(map(str, row)) for row in pres.elimination],
        "c_block": [list(map(str, row)) for row in pres.c_block],
        "constants": [unit_value_to_doc(v) for v in pres.constants],
        "chart": chart_to_doc(pres.chart),
        "toroidal": True,  # `_tf_chart` checked the chart's shape as it built it
    }, args.out)
    return PASS


def cmd_blowup(args) -> int:
    where = "blowup document"
    doc = read_object(_read_json(args.file), where)
    chart = chart_from_doc(read_field(doc, "chart", dict, where, {}), "chart")
    center = center_from_doc(read_field(doc, "center", dict, where, {}), "center")
    choice = choice_from_doc(read_field(doc, "choice", dict, where, {}), "choice")
    result = blowup_transform(chart, center, choice)
    ok, witness = matrix_permissibility(chart, center)
    _emit({
        "permissible": ok,
        "witness": witness,
        "chart": chart_to_doc(result.chart),
        "var_map": list(result.var_map),
        "row_order": list(result.row_order),
    }, args.out)
    return PASS


def cmd_principalize(args) -> int:
    doc = read_object(_read_json(args.file), "principalize document")
    family = []
    for entry in read_field(doc, "strata", list, "principalize document", []):
        sid = read_name(read_object(entry, "each 'strata' entry"), "id", "strata entry")
        where = f"stratum {sid}"
        chart_doc = read_field(entry, "chart", dict, where, None)
        z_doc = read_field(entry, "descriptor", dict, where, None)
        family.append((sid, chart_from_doc(chart_doc, f"{where} chart"),
                       descriptor_from_doc(z_doc, f"{where} descriptor")))
    if not family:
        raise InvalidDocument("no strata given")
    trace = principalize_chart_family(family, cap=args.cap)
    _emit(principalization_to_doc(trace), args.out)
    return CAP if trace.exceeded else PASS


def _verdict_status(verdicts: dict) -> int:
    """A run's exit status: a capped run exits 3 whatever its verdict."""
    return CAP if verdicts["cap_exceeded"] else PASS if verdicts["pass"] else FAIL


def cmd_toroidalize(args) -> int:
    atlas, script = parse_document(_read_json(args.file))
    trace = toroidalize(atlas, script, cap=args.cap)
    _emit(trace, args.out)
    return _verdict_status(trace["verdicts"])


def cmd_verify_trace(args) -> int:
    atlas, script = parse_document(_read_json(args.atlas))
    trace = _read_json(args.trace)
    try:
        fresh = replay(trace, atlas, script)
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return FAIL
    _emit({"replay": "identical", "verdicts": fresh["verdicts"]}, args.out)
    return _verdict_status(fresh["verdicts"])


def cmd_report(args) -> int:
    trace = read_schema(_read_json(args.trace), TRACE_SCHEMA)
    verdicts = read_field(trace, "verdicts", dict, "trace", None)
    steps = read_field(trace, "steps", list, "trace", [])
    lines = [
        f"engine {read_name(trace, 'engine', 'trace')}  "
        f"policy {read_name(trace, 'policy', 'trace')}  "
        f"cap {read_integer(trace, 'cap', 'trace', default=DEFAULT_CAP)}",
        f"target-side steps: {len(steps)}",
    ]
    for step in steps:
        step_id = read_name(read_object(step, "each 'steps' entry"), "id", "trace step")
        lines.append(f"  step {step_id}  exceptional "
                     f"{read_name(step, 'exceptional_label', f'step {step_id}')}")
        for chart_id, chart_doc in sorted(
                read_field(step, "charts", dict, f"step {step_id}", {}).items()):
            where = f"step {step_id} chart {chart_id}"
            chart_doc = read_object(chart_doc, where)
            principalization = read_field(chart_doc, "principalization", dict, where, {})
            blowups = read_field(principalization, "steps", list,
                                 f"{where} principalization", [])
            adapted = read_field(chart_doc, "adapted", list, where, [])
            lifts = read_field(chart_doc, "lifts", list, where, [])
            lines.append(
                f"    chart {chart_id}: {len(adapted)} strata "
                f"adapted, {len(blowups)} blowups, {len(lifts)} lifts")
            for lift in lifts:
                lift = read_object(lift, f"{where}: each 'lifts' entry")
                lift_where = f"{where} lift"
                rec = read_field(lift, "record", dict, lift_where, None)
                lifted = read_field(lift, "chart", dict, lift_where, None)
                lines.append(
                    f"      {read_name(lift, 'stratum', lift_where)} -> "
                    f"{read_name(lift, 'lifted_id', lift_where)} "
                    f"[{read_name(rec, 'case', f'{lift_where} record')}] "
                    f"ell1={read_integer(lifted, 'ell', f'{lift_where} chart')} "
                    f"commutes={read_bool(lift, 'commutes', lift_where)}")
    final = read_field(trace, "final_atlas", dict, "trace", {})
    count = sum(
        len(read_field(read_object(c, "each 'final_atlas' chart"), "strata", list,
                       "final_atlas chart", []))
        for c in read_field(final, "charts", list, "final_atlas", []))
    lines.append(f"final strata: {count}")
    failures = read_field(verdicts, "global_failures", list, "trace verdicts", None)
    lines.append(f"global_failures: {len(failures)}")
    for key in ("commutes", "cap_exceeded", "pass"):
        lines.append(f"{key}: {read_bool(verdicts, key, 'trace verdicts')}")
    _emit("\n".join(lines), args.out)
    return _verdict_status(verdicts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toroidal",
        description="Construct and certify toroidalizations of locally "
                    "toroidal morphisms given in chart form.")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="blowup step cap per principalization run")
    parser.add_argument("--out", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-atlas", help="validate an atlas+script document")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_atlas)

    p = sub.add_parser("ideal", help="monomial ideal operations")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("normalize-toric", help="reduce toric morphism data")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_normalize_toric)

    p = sub.add_parser("blowup", help="transform one chart through a blowup")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("principalize", help="principalize a chart family")
    p.add_argument("file", nargs="?", default="-")
    p.set_defaults(func=cmd_principalize)

    p = sub.add_parser("toroidalize", help="run the full pipeline")
    p.add_argument("file")
    p.set_defaults(func=cmd_toroidalize)

    p = sub.add_parser("verify-trace", help="replay a trace and compare")
    p.add_argument("atlas")
    p.add_argument("trace")
    p.set_defaults(func=cmd_verify_trace)

    p = sub.add_parser("report", help="summarize a trace")
    p.add_argument("trace")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_cap(args.cap, "option --cap")
        with collector_paused():
            return args.func(args)
    except (ValueError, InternalCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, RegimeLimit):
            return REGIME
        return INTERNAL if isinstance(exc, InternalCheckError) else INVALID


if __name__ == "__main__":
    sys.exit(main())
