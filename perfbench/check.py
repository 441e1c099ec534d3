"""Independent checker for toroidalization traces.

Reads only the atlas document and the trace JSON and shares no code with
the construction: it imports nothing from the `toroidal` package.  Each
check restates a property the construction must have, from the document
format alone:

* every final stratum is toroidal in shape: a nonnegative matrix with
  positive row sums and positive column sums;
* every principalization leaf has a principal pullback, recomputed from
  the leaf chart: one generator divides all the others;
* every blowup's children are exactly the c * 2^(c-1) distinct choices
  j0 x {zero, generic}^(c-1) over the center's c coordinates;
* the blowup records form a tree over the adapted roots whose leaves are
  the final records, so final count = roots + sum(children - 1);
* every lift recomposes the leaf's exponents: the generator row is equal,
  generator + strict row is equal, kept rows are equal, with the dropped
  exceptional column padded back in;
* the replayed trace is byte-identical to the recorded one.

`check_document` returns the failures as (check, message) pairs together
with counts of the records it walked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


def canonical(doc) -> str:
    """Sorted keys, no whitespace: the trace's byte form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class CheckResult:
    failures: list[tuple[str, str]] = field(default_factory=list)
    blowups: int = 0
    final_records: int = 0
    lifts: int = 0
    max_depth: int = 0

    def fail(self, check: str, message: str) -> None:
        self.failures.append((check, message))


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _toroidal_shape_problem(chart) -> str | None:
    matrix = chart.get("matrix", [])
    ell, n = chart.get("ell"), chart.get("n")
    if len(matrix) != ell or any(len(row) != n for row in matrix):
        return f"matrix is not {ell} x {n}"
    if any(x < 0 for row in matrix for x in row):
        return "negative exponent"
    if any(sum(row) <= 0 for row in matrix):
        return "a row sum is zero"
    if any(sum(row[j] for row in matrix) <= 0 for j in range(n)):
        return "a column sum is zero"
    return None


def pullback_generators(chart, descriptor):
    """Generators of the center's pullback on a center-adapted chart.

    Divisor center rows give their monomials; slot row t gives its
    monomial times its translated slot variable when that variable's
    constant is zero.  Slot variables follow the n divisor variables;
    the qtf2 shape has absorbed the first slot into the divisor.
    """
    d, n, ell, s = chart["d"], chart["n"], chart["ell"], chart["s"]
    ell_bar = chart.get("ell_bar", 0)
    if ell_bar != descriptor["ell_bar"] or s != descriptor["c"] - ell_bar:
        raise ValueError("leaf chart is not adapted to its descriptor")
    matrix = chart["matrix"]
    betas = chart.get("betas", [])
    gens = [list(matrix[i]) + [0] * (d - n) for i in range(ell_bar)]
    for t in range(s):
        gen = list(matrix[ell + t]) + [0] * (d - n)
        beta = betas[t]
        if beta is not None and beta.get("kind") == "zero":
            gen[n + t if chart["tag"] == "qtf1" else n + t - 1] += 1
        gens.append(gen)
    return gens


def is_principal(gens) -> bool:
    return any(all(_divides(g, h) for h in gens) for g in gens)


def _check_children(res, where, step, root_n):
    center = step["center"]
    div = set(center["divisor_indices"])
    slots = center["slot_count"]
    c = len(div) + slots
    children = step["children"]
    if len(children) != c * 2 ** (c - 1):
        res.fail("children", f"{where}: {len(children)} children for a "
                             f"codim-{c} center, expected {c * 2 ** (c - 1)}")
        return
    coords = None
    seen = set()
    for child in children:
        choice = child["choice"]
        others = {v: b["kind"] for v, b in choice["betas"]}
        here = {choice["j0"], *others}
        if coords is None:
            coords = here
        if here != coords or len(here) != c or len(others) != c - 1:
            res.fail("children", f"{where}: child {child['id']} does not choose "
                                 "over the center's coordinates")
            return
        if any(kind not in ("zero", "generic") for kind in others.values()):
            res.fail("children", f"{where}: child {child['id']} has a stratum "
                                 "that is neither zero nor generic")
            return
        seen.add((choice["j0"], tuple(sorted(others.items()))))
    if len(seen) != len(children):
        res.fail("children", f"{where}: repeated chart choice")
    slot_coords = sorted(coords - div)
    if len(slot_coords) != slots or not div <= coords:
        res.fail("children", f"{where}: coordinates {sorted(coords)} do not "
                             f"match the center {center}")
    elif slot_coords and (slot_coords != list(range(slot_coords[0],
                                                   slot_coords[0] + slots))
                          or slot_coords[0] <= max(div, default=-1)):
        res.fail("children", f"{where}: slot coordinates {slot_coords} are "
                             "not the block after the divisor variables")
    elif root_n is not None and slot_coords and slot_coords[0] != root_n:
        res.fail("children", f"{where}: slot coordinates start at "
                             f"{slot_coords[0]}, the root chart has n = {root_n}")


def _check_lift(res, where, lift, leaf):
    rec = lift["record"]
    lifted = lift["chart"]["matrix"]
    matrix = leaf["matrix"]
    drop = rec["drop_col"]

    def pad(row):
        return list(row) if drop is None else list(row[:drop]) + [0] + list(row[drop:])

    sources = rec["row_sources"]
    gen_row = rec["gen_row"]
    if len(sources) != len(lifted):
        res.fail("lift", f"{where}: {len(sources)} row sources for "
                         f"{len(lifted)} lifted rows")
        return
    gen = [pad(lifted[k]) for k, (kind, _) in enumerate(sources) if kind == "gen"]
    if gen:
        gen = gen[0]
    elif drop is not None:
        gen = [1 if j == drop else 0 for j in range(leaf["n"])]
    else:
        res.fail("lift", f"{where}: no generator row")
        return
    covered = {gen_row}
    if list(matrix[gen_row]) != gen:
        res.fail("lift", f"{where}: generator row {gen_row} is {matrix[gen_row]}, "
                         f"lifted generator is {gen}")
    for k, (kind, i) in enumerate(sources):
        covered.add(i)
        row = pad(lifted[k])
        if kind == "gen":
            ok = i == gen_row
        elif kind == "strict":
            ok = [a + b for a, b in zip(gen, row)] == list(matrix[i])
        elif kind == "kept":
            ok = row == list(matrix[i])
        else:
            ok = False
        if not ok:
            res.fail("lift", f"{where}: {kind} row {i} does not recompose "
                             f"({matrix[i]} from {row})")
    for param in rec["fresh"]:
        i = param["source"][1]
        covered.add(i)
        if list(matrix[i]) != gen:
            res.fail("lift", f"{where}: fresh parameter row {i} does not share "
                             "the generator exponents")
    if covered != set(range(len(matrix))):
        res.fail("lift", f"{where}: leaf rows {sorted(set(range(len(matrix))) - covered)} "
                         "are not accounted for")
    problem = _toroidal_shape_problem(lift["chart"])
    if problem:
        res.fail("lift", f"{where}: lifted chart: {problem}")


def _check_principalization(res, where, chart_doc, charts_by_id):
    prin = chart_doc["principalization"]
    roots = [a["stratum"] for a in chart_doc["adapted"]]
    depth = {sid: 0 for sid in roots}
    live = set(roots)
    for step in prin["steps"]:
        sid = step["stratum"]
        res.blowups += 1
        if sid not in live:
            res.fail("tree", f"{where}: blowup of {sid}, which is not a live stratum")
            continue
        live.remove(sid)
        root_n = charts_by_id[sid]["n"] if sid in charts_by_id and sid in roots else None
        _check_children(res, f"{where}/{sid}", step, root_n)
        for child in step["children"]:
            cid = child["id"]
            if cid in depth:
                res.fail("tree", f"{where}: stratum id {cid} created twice")
                continue
            depth[cid] = depth[sid] + 1
            live.add(cid)
    finals = prin["final"]
    res.final_records += len(finals)
    expected = len(roots) + sum(len(s["children"]) - 1 for s in prin["steps"])
    if len(finals) != expected:
        res.fail("count", f"{where}: {len(finals)} final strata, roots + "
                          f"sum(children - 1) = {expected}")
    final_ids = [f["id"] for f in finals]
    if set(final_ids) != live or len(set(final_ids)) != len(final_ids):
        res.fail("tree", f"{where}: final records are not the leaves of the "
                         "blowup tree")
    if final_ids:
        res.max_depth = max(res.max_depth, max(depth.get(f, 0) for f in final_ids))

    leaves = {}
    for final in finals:
        leaves[final["id"]] = final["chart"]
        if final["status"] != "principal":
            res.fail("principal", f"{where}: leaf {final['id']} has status "
                                  f"{final['status']!r}")
            continue
        try:
            gens = pullback_generators(final["chart"], final["descriptor"])
        except (KeyError, IndexError, ValueError) as exc:
            res.fail("principal", f"{where}: leaf {final['id']}: {exc}")
            continue
        if not is_principal(gens):
            res.fail("principal", f"{where}: leaf {final['id']} pullback "
                                  f"{gens} is not principal")

    lifted = set()
    for lift in chart_doc["lifts"]:
        res.lifts += 1
        leaf = leaves.get(lift["stratum"])
        if leaf is None:
            res.fail("lift", f"{where}: lift of unknown leaf {lift['stratum']}")
            continue
        lifted.add(lift["stratum"])
        if not lift.get("commutes"):
            res.fail("lift", f"{where}: lift of {lift['stratum']} does not commute")
        try:
            _check_lift(res, f"{where}/{lift['stratum']}", lift, leaf)
        except (KeyError, IndexError, TypeError) as exc:
            res.fail("lift", f"{where}/{lift['stratum']}: malformed record: {exc}")
        charts_by_id[lift["lifted_id"]] = lift["chart"]
    if lifted != set(leaves):
        res.fail("lift", f"{where}: leaves without a lift: "
                         f"{sorted(set(leaves) - lifted)[:3]}")


def check_document(atlas_doc, trace_doc) -> CheckResult:
    """Check one trace against the properties listed in the module doc."""
    res = CheckResult()
    verdicts = trace_doc.get("verdicts", {})
    if not verdicts.get("pass"):
        res.fail("verdict", f"trace verdicts do not pass: {verdicts}")

    charts_by_id = {}
    for chart in atlas_doc["charts"]:
        for stratum in chart["strata"]:
            charts_by_id[f"{chart['id']}/{stratum['id']}"] = stratum["chart"]

    for step in trace_doc["steps"]:
        for chart_id, chart_doc in step["charts"].items():
            where = f"{step['id']}/{chart_id}"
            if "principalization" not in chart_doc:
                if chart_doc["adapted"] or chart_doc["lifts"]:
                    res.fail("tree", f"{where}: records without a principalization")
                continue
            try:
                _check_principalization(res, where, chart_doc, charts_by_id)
            except (KeyError, IndexError, TypeError) as exc:
                res.fail("tree", f"{where}: malformed record: {exc!r}")

    for chart in trace_doc["final_atlas"]["charts"]:
        for stratum in chart["strata"]:
            cf = stratum["chart"]
            if cf["tag"] == "smooth" and not (cf["n"] or cf["ell"]):
                continue
            problem = (f"tag {cf['tag']!r}" if cf["tag"] != "toroidal"
                       else _toroidal_shape_problem(cf))
            if problem:
                res.fail("final-shape", f"final stratum {stratum['id']}: {problem}")
    return res


def check_replay(trace_text: str, replayed_doc) -> bool:
    """The replayed trace is byte-identical to the recorded text."""
    return canonical(replayed_doc) == trace_text
