"""JSON document encoding for charts, traces, and exact constants.

All rationals are serialized as "num/den" strings so round trips stay
exact; canonical dumps sort keys and drop whitespace so equal values
have equal bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .blowup import BlowupCenterChart, BlowupChartChoice
from .chart import CenterDescriptor, ChartForm
from .lift import LiftRecord, TargetPoint
from .principalize import PrincipalizationTrace
from .units import Stratum, UnitFactor, UnitToken, UnitValue


class InvalidDocument(ValueError):
    pass


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fraction_to_doc(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def fraction_from_doc(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidDocument(f"bad rational {s!r}") from exc


def unit_value_to_doc(v: UnitValue):
    doc = {"coeff": fraction_to_doc(v.coeff)}
    if v.symbols:
        doc["symbols"] = [[name, fraction_to_doc(e)] for name, e in v.symbols]
    return doc


def unit_value_from_doc(doc) -> UnitValue:
    if not isinstance(doc, dict) or "coeff" not in doc:
        raise InvalidDocument(f"bad unit value {doc!r}")
    # Multiplying symbol by symbol sorts and merges them, so a document
    # cannot smuggle in a value whose symbols are not canonical.
    value = UnitValue(fraction_from_doc(doc["coeff"]))
    for name, e in doc.get("symbols", []):
        value = value * UnitValue.symbol(name, fraction_from_doc(e))
    return value


def unit_token_to_doc(u: UnitToken):
    doc = {}
    if not u.base.is_one:
        doc["base"] = unit_value_to_doc(u.base)
    if u.factors:
        doc["factors"] = [
            {"var": f.var, "shift": unit_value_to_doc(f.shift), "exp": f.exp}
            for f in u.factors]
    return doc


def unit_token_from_doc(doc) -> UnitToken:
    if doc is None:
        return UnitToken()
    base = unit_value_from_doc(doc["base"]) if "base" in doc else UnitValue()
    factors = tuple(
        UnitFactor(int(f["var"]), unit_value_from_doc(f["shift"]), int(f["exp"]))
        for f in doc.get("factors", []))
    return UnitToken(base, factors)


def stratum_to_doc(s: Stratum | None):
    if s is None:
        return None
    if s.kind == "zero":
        return {"kind": "zero"}
    if s.kind == "generic":
        return {"kind": "generic", "symbol": s.symbol}
    return {"kind": "value", "value": fraction_to_doc(s.value)}


def stratum_from_doc(doc) -> Stratum | None:
    if doc is None:
        return None
    kind = doc.get("kind")
    if kind == "zero":
        return Stratum.zero()
    if kind == "generic":
        return Stratum.generic(doc["symbol"])
    if kind == "value":
        return Stratum.of_value(fraction_from_doc(doc["value"]))
    raise InvalidDocument(f"bad stratum {doc!r}")


def chart_to_doc(cf: ChartForm):
    doc = {
        "d": cf.d, "m": cf.m, "n": cf.n, "ell": cf.ell, "s": cf.s,
        "tag": cf.tag, "matrix": [list(row) for row in cf.matrix],
    }
    if any(not u.is_trivial for u in cf.units):
        doc["units"] = [unit_token_to_doc(u) for u in cf.units]
    if cf.betas:
        doc["betas"] = [stratum_to_doc(b) for b in cf.betas]
    if cf.ell_bar:
        doc["ell_bar"] = cf.ell_bar
    return doc


def chart_from_doc(doc) -> ChartForm:
    try:
        matrix = tuple(tuple(int(x) for x in row) for row in doc.get("matrix", []))
        units_doc = doc.get("units")
        if units_doc is None:
            units = (UnitToken(),) * len(matrix)
        else:
            units = tuple(unit_token_from_doc(u) for u in units_doc)
        betas = tuple(stratum_from_doc(b) for b in doc.get("betas", []))
        return ChartForm(
            d=int(doc["d"]), m=int(doc["m"]), n=int(doc["n"]),
            ell=int(doc["ell"]), s=int(doc.get("s", 0)),
            tag=doc.get("tag", "toroidal"), matrix=matrix, units=units,
            betas=betas, ell_bar=int(doc.get("ell_bar", 0)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"bad chart document: {exc}") from exc


def descriptor_to_doc(z: CenterDescriptor):
    return {"ell_bar": z.ell_bar, "c": z.c, "divisor_rows": list(z.divisor_rows)}


def descriptor_from_doc(doc) -> CenterDescriptor:
    try:
        return CenterDescriptor(
            ell_bar=int(doc["ell_bar"]), c=int(doc["c"]),
            divisor_rows=tuple(int(i) for i in doc.get("divisor_rows", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"bad descriptor document: {exc}") from exc


def center_to_doc(center: BlowupCenterChart):
    return {"divisor_indices": list(center.divisor_indices),
            "slot_count": center.slot_count}


def center_from_doc(doc) -> BlowupCenterChart:
    try:
        return BlowupCenterChart(
            tuple(int(j) for j in doc.get("divisor_indices", [])),
            int(doc.get("slot_count", 0)))
    except (TypeError, ValueError) as exc:
        raise InvalidDocument(f"bad center document: {exc}") from exc


def choice_to_doc(choice: BlowupChartChoice):
    return {"j0": choice.j0,
            "betas": [[v, stratum_to_doc(b)] for v, b in choice.betas]}


def choice_from_doc(doc) -> BlowupChartChoice:
    try:
        return BlowupChartChoice(
            j0=int(doc["j0"]),
            betas=tuple((int(v), stratum_from_doc(b))
                        for v, b in doc.get("betas", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDocument(f"bad chart choice document: {exc}") from exc


def target_to_doc(t: TargetPoint):
    return {
        "denominator_row": t.denominator_row,
        "ell1": t.ell1,
        "exceptional_in_divisor": t.exceptional_in_divisor,
        "values": [[row, None if v is None else unit_value_to_doc(v)]
                   for row, v in t.values],
    }


def lift_record_to_doc(rec: LiftRecord):
    return {
        "case": rec.case,
        "gen_row": rec.gen_row,
        "drop_col": rec.drop_col,
        "row_sources": [list(src) for src in rec.row_sources],
        "fresh": [{
            "source": list(p.source),
            "scale": unit_value_to_doc(p.scale),
            "shift": None if p.shift is None else unit_value_to_doc(p.shift),
        } for p in rec.fresh],
        "t_nonzero": rec.t_nonzero,
        "target": target_to_doc(rec.target),
    }


def principalization_to_doc(trace: PrincipalizationTrace) -> dict:
    return {
        "steps": [{
            "stratum": s.stratum_id,
            "center": center_to_doc(s.center),
            "residual_order": s.residual_order,
            "nonprincipal_count": s.nonprincipal_count,
            "children": [{"choice": choice_to_doc(choice), "id": cid}
                         for choice, cid in s.children],
        } for s in trace.steps],
        "final": [{
            "id": f.stratum_id,
            "status": f.status,
            "descriptor": descriptor_to_doc(f.descriptor),
            "chart": chart_to_doc(f.chart),
        } for f in trace.final],
    }
