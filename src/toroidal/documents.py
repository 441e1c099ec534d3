"""JSON document encoding for charts, traces, and exact constants.

All rationals are serialized as "num/den" strings (the integer alone
when the denominator is 1), which is what `str` writes for an `int` or
a `Fraction`, so round trips stay exact; canonical dumps sort keys and
drop whitespace so equal values have equal bytes.  The constants the
engine computes are written by `unit_value_to_doc`.  One with more
digits than the interpreter converts (`sys.get_int_max_str_digits`)
raises `RegimeLimit`: valid input whose trace could not be written, nor
read back.

Each encoder is a plain function of its object and builds a fresh
document.  The one sub-document a trace shares is a lifted chart's: the
pipeline writes the document of its lift record again in `final_atlas`.

Every encoder builds a document in the form `json.loads` gives back for
its canonical text: each dict inserts its keys in sorted order, and each
array is a list, so the tuples the engine holds (exponent rows, row
indices, labels) are copied.  `strict_bytes` of a trace therefore equal
those of its parsed canonical text, and `pipeline.replay` compares those
before it falls back to the canonical dumps.

`canonical_dumps` is the one JSON serializer.  It skips the cycle check:
a document nests only finished sub-documents, so none contains itself.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .blowup import BlowupCenterChart, BlowupChartChoice
from .chart import TOROIDAL, CenterDescriptor, ChartForm
from .errors import RegimeLimit
from .lift import LiftResult
from .principalize import PrincipalizationTrace
from .units import Stratum, UnitFactor, UnitToken, UnitValue


class InvalidDocument(ValueError):
    pass


# Field readers: the one way an input document is read.  `where` names the
# document or entry being read, so every error names the bad field.


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def read_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidDocument(f"{where} must be an object")
    return value


def read_schema(doc, schema: str) -> dict:
    """A document object whose `schema` field is `schema`."""
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise InvalidDocument(f"expected schema {schema!r}")
    return doc


def read_name(doc: dict, key: str, where: str) -> str:
    value = doc.get(key)
    if not isinstance(value, str) or not value:
        raise InvalidDocument(f"{where}: field {key!r} must be a nonempty string")
    return value


def read_field(doc: dict, key: str, kind, where: str, default):
    """doc[key], or `default` when it is absent; a list or an object."""
    value = doc.get(key, default)
    if not isinstance(value, kind):
        noun = "an object" if kind is dict else "a list"
        raise InvalidDocument(f"{where}: field {key!r} must be {noun}")
    return value


def read_integer(doc: dict, key: str, where: str, default=None) -> int:
    """A JSON integer, never a bool, a float or a numeric string."""
    value = doc.get(key, default)
    if not _is_integer(value):
        raise InvalidDocument(f"{where}: field {key!r} must be an integer")
    return value


def read_bool(doc: dict, key: str, where: str, default=None) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise InvalidDocument(f"{where}: field {key!r} must be true or false")
    return value


def read_strings(doc: dict, key: str, where: str, default=()) -> tuple[str, ...]:
    value = read_field(doc, key, (list, tuple), where, default)
    if not all(isinstance(x, str) for x in value):
        raise InvalidDocument(f"{where}: field {key!r} must list strings")
    return tuple(value)


def read_integers(doc: dict, key: str, where: str, default=()) -> tuple[int, ...]:
    value = read_field(doc, key, (list, tuple), where, default)
    if not all(map(_is_integer, value)):
        raise InvalidDocument(f"{where}: field {key!r} must list integers")
    return tuple(value)


def read_matrix(doc: dict, key: str, where: str, default=()) -> tuple[tuple[int, ...], ...]:
    value = read_field(doc, key, (list, tuple), where, default)
    if not all(isinstance(row, (list, tuple)) and all(map(_is_integer, row))
               for row in value):
        raise InvalidDocument(f"{where}: field {key!r} must list lists of integers")
    return tuple(map(tuple, value))


def _pairs(doc: dict, key: str, where: str, first, noun: str) -> list:
    """doc[key] as a list of two-entry lists whose first entry passes `first`."""
    value = read_field(doc, key, list, where, [])
    if not all(isinstance(p, list) and len(p) == 2 and first(p[0]) for p in value):
        raise InvalidDocument(f"{where}: field {key!r} must list {noun} pairs")
    return value


def construct(where: str, make, *args, **kwargs):
    """make(*args, **kwargs) with a constructor's `ValueError` naming
    `where`; the arguments are read before the call, so a reader's error
    is not prefixed twice."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise InvalidDocument(f"{where}: {exc}") from exc


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_dumps(doc) -> str:
    return _CANONICAL.encode(doc)


def strict_bytes(doc) -> bytes:
    """`doc` pickled without a memo: types and dict order are kept, so 1,
    1.0 and true differ and a list is not a tuple, and a shared
    sub-document is written out in full like its parsed copy.  Equal
    bytes mean equal canonical dumps.  A cyclic document raises
    `ValueError`, one pickle cannot write raises its own error.  Only
    replay calls it, so `pickle` loads on first use."""
    import io
    import pickle

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=5)
    pickler.fast = True
    pickler.dump(doc)
    return buffer.getvalue()


def fraction_from_doc(s, where: str) -> Fraction:
    """An integer or a "num/den" string, exactly."""
    if _is_integer(s) or isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidDocument(f"{where} must be a rational, found {s!r}")


def unit_value_to_doc(v: UnitValue):
    try:
        if v.symbols:
            return {"coeff": str(v.coeff),
                    "symbols": [[name, str(e)] for name, e in v.symbols]}
        return {"coeff": str(v.coeff)}
    except ValueError:  # `str` refuses an integer past the digit limit
        raise RegimeLimit(f"a constant has more than {sys.get_int_max_str_digits()} "
                          "digits, too long to write") from None


def unit_value_from_doc(doc, where: str) -> UnitValue:
    doc = read_object(doc, where)
    # Multiplying symbol by symbol sorts and merges them, so a document
    # cannot smuggle in a value whose symbols are not canonical.
    value = construct(where, UnitValue.of,
                      fraction_from_doc(doc.get("coeff"), f"{where}: field 'coeff'"))
    for name, e in _pairs(doc, "symbols", where, lambda x: isinstance(x, str),
                          "[name, exponent]"):
        value = value * UnitValue.symbol(
            name, fraction_from_doc(e, f"{where}: exponent of symbol {name!r}"))
    return value


def unit_token_to_doc(u: UnitToken):
    """Empty exactly when the token is trivial: no factor and base 1."""
    base = u.base
    doc = {} if base.coeff == 1 and not base.symbols else {"base": unit_value_to_doc(base)}
    if u.factors:
        doc["factors"] = [{"exp": f.exp, "shift": unit_value_to_doc(f.shift), "var": f.var}
                          for f in u.factors]
    return doc


def unit_token_from_doc(doc, where: str) -> UnitToken:
    if doc is None:
        return UnitToken()
    doc = read_object(doc, where)
    base = UnitValue()
    if "base" in doc:
        base = unit_value_from_doc(doc["base"], f"{where} base")
    factors = []
    for i, f in enumerate(read_field(doc, "factors", list, where, [])):
        f_where = f"{where} factor {i}"
        f = read_object(f, f_where)
        factors.append(UnitFactor(
            read_integer(f, "var", f_where),
            unit_value_from_doc(f.get("shift"), f"{f_where} shift"),
            read_integer(f, "exp", f_where)))
    return UnitToken(base, tuple(factors))


def stratum_to_doc(s: Stratum | None):
    if s is None:
        return None
    if s.kind == "zero":
        return {"kind": "zero"}
    if s.kind == "generic":
        return {"kind": "generic", "symbol": s.symbol}
    return {"kind": "value", "value": str(s.value)}


def stratum_from_doc(doc, where: str) -> Stratum | None:
    if doc is None:
        return None
    kind = read_object(doc, where).get("kind")
    if kind == "zero":
        return Stratum.zero()
    if kind == "generic":
        return Stratum.generic(read_name(doc, "symbol", where))
    if kind == "value":
        return construct(where, Stratum.of_value,
                         fraction_from_doc(doc.get("value"), f"{where}: field 'value'"))
    raise InvalidDocument(f"{where}: field 'kind' must be 'zero', 'generic' or 'value'")


def chart_to_doc(cf: ChartForm):
    doc = {}
    if cf.betas:
        doc["betas"] = list(map(stratum_to_doc, cf.betas))
    doc["d"] = cf.d
    doc["ell"] = cf.ell
    if cf.ell_bar:
        doc["ell_bar"] = cf.ell_bar
    doc["m"] = cf.m
    doc["matrix"] = list(map(list, cf.matrix))
    doc["n"] = cf.n
    doc["s"] = cf.s
    doc["tag"] = cf.tag
    # Only a trivial unit's document is empty.
    units = list(map(unit_token_to_doc, cf.units))
    if any(units):
        doc["units"] = units
    return doc


def chart_from_doc(doc: dict, where: str) -> ChartForm:
    matrix = read_matrix(doc, "matrix", where)
    units_doc = read_field(doc, "units", list, where, [None] * len(matrix))
    return construct(
        where, ChartForm,
        d=read_integer(doc, "d", where), m=read_integer(doc, "m", where),
        n=read_integer(doc, "n", where), ell=read_integer(doc, "ell", where),
        s=read_integer(doc, "s", where, default=0),
        tag=read_name(doc, "tag", where) if "tag" in doc else TOROIDAL,
        matrix=matrix,
        units=tuple(unit_token_from_doc(u, f"{where} unit {i}")
                    for i, u in enumerate(units_doc)),
        betas=tuple(stratum_from_doc(b, f"{where} beta {i}")
                    for i, b in enumerate(read_field(doc, "betas", list, where, []))),
        ell_bar=read_integer(doc, "ell_bar", where, default=0))


def descriptor_to_doc(z: CenterDescriptor):
    return {"c": z.c, "divisor_rows": list(z.divisor_rows), "ell_bar": z.ell_bar}


def descriptor_from_doc(doc: dict, where: str) -> CenterDescriptor:
    return construct(
        where, CenterDescriptor,
        ell_bar=read_integer(doc, "ell_bar", where), c=read_integer(doc, "c", where),
        divisor_rows=read_integers(doc, "divisor_rows", where))


def center_to_doc(center: BlowupCenterChart):
    return {"divisor_indices": list(center.divisor_indices),
            "slot_count": center.slot_count}


def center_from_doc(doc: dict, where: str) -> BlowupCenterChart:
    return construct(
        where, BlowupCenterChart, read_integers(doc, "divisor_indices", where),
        read_integer(doc, "slot_count", where, default=0))


def choice_to_doc(choice: BlowupChartChoice):
    return {"betas": [[v, stratum_to_doc(b)] for v, b in choice.betas],
            "j0": choice.j0}


def choice_from_doc(doc: dict, where: str) -> BlowupChartChoice:
    return BlowupChartChoice(
        j0=read_integer(doc, "j0", where),
        betas=tuple((v, stratum_from_doc(b, f"{where} beta {v}"))
                    for v, b in _pairs(doc, "betas", where, _is_integer,
                                       "[variable, stratum]")))


def lift_record_to_doc(result: LiftResult):
    """The lift's case and row bookkeeping from its skeleton, and its fresh
    parameters.  The point of the target blowup chart it lands on is named
    by `gen_row`, the `strict` row sources (ratio zero) and the fresh
    parameters' shifts; the new divisor count is the lifted chart's `ell`."""
    sk = result.skeleton
    return {
        "case": sk.case,
        "drop_col": sk.drop_col,
        "fresh": [{
            "scale": unit_value_to_doc(p.scale),
            "shift": None if p.shift is None else unit_value_to_doc(p.shift),
            "source": list(p.source),
        } for p in result.fresh],
        "gen_row": sk.gen_row,
        "row_sources": [list(source) for source in sk.row_sources],
    }


def principalization_to_doc(trace: PrincipalizationTrace) -> dict:
    return {
        "final": [{
            "chart": chart_to_doc(f.chart),
            "descriptor": descriptor_to_doc(f.descriptor),
            "id": f.stratum_id,
            "status": f.status,
        } for f in trace.final],
        "steps": [{
            "center": center_to_doc(s.center),
            "children": [{"choice": choice_to_doc(choice), "id": cid}
                         for choice, cid in s.children],
            "residual_order": s.residual_order,
            "stratum": s.stratum_id,
        } for s in trace.steps],
    }
