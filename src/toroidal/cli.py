"""Command line interface.

Exit codes: 0 pass, 1 verdict failure, 2 invalid input, 3 cap exceeded,
4 regime limit (valid input the engine does not handle: no permissible
center, the transversal search bound or the runaway guard), 5 internal
check failure (an engine bug).  Errors print one `error:` line.  The
`ideal` op `max-order-components` has no support limit, only the
transversal search bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blowup import blowup_transform, matrix_permissibility
from .chart import verify_toroidal_form
from .documents import (
    InvalidDocument,
    canonical_dumps,
    center_from_doc,
    chart_from_doc,
    chart_to_doc,
    choice_from_doc,
    descriptor_from_doc,
    fraction_to_doc,
    principalization_to_doc,
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
    ToroidalizeError,
    check_atlas,
    parse_document,
    replay,
    toroidalize,
    verify_resolution_script,
)
from .principalize import principalize_chart_family
from .toric import (
    LocalModelDims,
    ToricMorphismData,
    normalize_toric_presentation,
    validate_toric_morphism,
)

PASS, FAIL, INVALID, CAP, REGIME, INTERNAL = 0, 1, 2, 3, 4, 5


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidDocument(f"cannot read {path}: {exc}") from exc


def _emit(doc, out: str | None):
    text = canonical_dumps(doc)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


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
    doc = _read_json(args.file)
    op = doc.get("op")
    gens = [tuple(int(x) for x in g) for g in doc.get("generators", [])]
    dim = doc.get("dim")
    ideal = minimal_generators(gens, dim)
    if op == "minimal":
        out = {"generators": [list(g) for g in ideal.gens]}
    elif op == "gcd":
        out = {"gcd": list(gcd_generators(ideal))}
    elif op == "colon":
        result = colon_by_monomial(ideal, tuple(int(x) for x in doc["arg"]))
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
        raise InvalidDocument(f"unknown ideal op {op!r}")
    _emit(out, args.out)
    return PASS


def cmd_normalize_toric(args) -> int:
    doc = _read_json(args.file)
    try:
        data = ToricMorphismData(
            source=LocalModelDims(*[int(x) for x in doc["source"]]),
            target=LocalModelDims(*[int(x) for x in doc["target"]]),
            matrix=tuple(tuple(int(x) for x in row) for row in doc["matrix"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"bad toric document: {exc}") from exc
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
        "elimination": [[fraction_to_doc(x) for x in row]
                        for row in pres.elimination],
        "c_block": [[fraction_to_doc(x) for x in row] for row in pres.c_block],
        "constants": [unit_value_to_doc(v) for v in pres.constants],
        "chart": chart_to_doc(pres.chart),
        "toroidal": verify_toroidal_form(pres.chart).ok or pres.chart.ell == 0,
    }, args.out)
    return PASS


def cmd_blowup(args) -> int:
    doc = _read_json(args.file)
    chart = chart_from_doc(doc.get("chart", {}))
    center = center_from_doc(doc.get("center", {}))
    choice = choice_from_doc(doc.get("choice", {}))
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
    doc = _read_json(args.file)
    family = []
    for entry in doc.get("strata", []):
        family.append((entry["id"], chart_from_doc(entry["chart"]),
                       descriptor_from_doc(entry["descriptor"])))
    if not family:
        raise InvalidDocument("no strata given")
    trace = principalize_chart_family(family, cap=args.cap)
    _emit(principalization_to_doc(trace), args.out)
    return CAP if trace.exceeded else PASS


def cmd_toroidalize(args) -> int:
    atlas, script = parse_document(_read_json(args.file))
    trace = toroidalize(atlas, script, cap=args.cap)
    _emit(trace, args.out)
    verdicts = trace["verdicts"]
    if verdicts["cap_exceeded"]:
        return CAP
    return PASS if verdicts["pass"] else FAIL


def cmd_verify_trace(args) -> int:
    atlas, script = parse_document(_read_json(args.atlas))
    trace = _read_json(args.trace)
    try:
        fresh = replay(trace, atlas, script)
    except ReplayMismatch as exc:
        print(f"replay mismatch: {exc}", file=sys.stderr)
        return FAIL
    _emit({"replay": "identical", "verdicts": fresh["verdicts"]}, args.out)
    return PASS if fresh["verdicts"]["pass"] else FAIL


def cmd_report(args) -> int:
    trace = _read_json(args.trace)
    verdicts = trace.get("verdicts", {})
    lines = [
        f"engine {trace.get('engine')}  policy {trace.get('policy')}  "
        f"cap {trace.get('cap')}",
        f"target-side steps: {len(trace.get('steps', []))}",
    ]
    for step in trace.get("steps", []):
        lines.append(f"  step {step['id']}  exceptional {step['exceptional_label']}")
        for chart_id, chart_doc in sorted(step.get("charts", {}).items()):
            blowups = len(chart_doc.get("principalization", {}).get("steps", []))
            lifts = chart_doc.get("lifts", [])
            lines.append(
                f"    chart {chart_id}: {len(chart_doc.get('adapted', []))} strata "
                f"adapted, {blowups} blowups, {len(lifts)} lifts")
            for lift in lifts:
                rec = lift["record"]
                lines.append(
                    f"      {lift['stratum']} -> {lift['lifted_id']} "
                    f"[{rec['case']}] ell1={rec['target']['ell1']} "
                    f"commutes={lift['commutes']}")
    final = trace.get("final_atlas", {})
    count = sum(len(c.get("strata", [])) for c in final.get("charts", []))
    lines.append(f"final strata: {count}")
    for key in ("resolution_script", "all_strata_toroidal", "global_toroidal",
                "commutes", "cap_exceeded", "pass"):
        lines.append(f"{key}: {verdicts.get(key)}")
    text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return PASS if verdicts.get("pass") else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toroidal",
        description="Construct and certify toroidalizations of locally "
                    "toroidal morphisms given in chart form.")
    parser.add_argument("--cap", type=int, default=50,
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
        return args.func(args)
    except (InvalidDocument, ToroidalizeError, ValueError,
            InternalCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, RegimeLimit):
            return REGIME
        return INTERNAL if isinstance(exc, InternalCheckError) else INVALID


if __name__ == "__main__":
    sys.exit(main())
