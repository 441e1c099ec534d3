"""The engine computes exactly: no float literal, no float() call and no
math or cmath import anywhere in the package source, and at run time
every unit value the engine builds holds `int`s and fractional
`Fraction`s only."""

import ast
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

import test_golden
import toroidal
from toroidal.pipeline import parse_document, toroidalize
from toroidal.units import UnitValue

SOURCES = sorted(Path(toroidal.__file__).parent.glob("*.py"))
INEXACT_MODULES = {"math", "cmath"}


def inexact_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"{type(node.value).__name__} literal"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float() call"))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, f"import {a.name}") for a in node.names
                         if a.name.split(".")[0] in INEXACT_MODULES)
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] in INEXACT_MODULES):
            found.append((node.lineno, f"from {node.module} import"))
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_floats_in_the_package():
    offenders = [f"{path.name}:{line}: {what}" for path in SOURCES
                 for line, what in inexact_uses(ast.parse(path.read_text()))]
    assert not offenders, offenders


def test_guard_flags_each_pattern():
    bad = "import math\nfrom cmath import sqrt\nx = 0.5\ny = float(3)\nz = 2j\n"
    assert sorted(inexact_uses(ast.parse(bad))) == [
        (1, "import math"), (2, "from cmath import"), (3, "float literal"),
        (4, "float() call"), (5, "complex literal")]


# ---------------------------------------------------------------------------
# At run time: the AST scan above misses a float made by `int ** -1`.

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
WORKLOAD_SLICE = 40


def workload_slice(name: str) -> list[dict]:
    """The first documents of a benchmark workload at seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [json.loads(text) for _, text in workloads.build(name, 1)[:WORKLOAD_SLICE]]


def inexact_parts(value: UnitValue) -> list[str]:
    """The coefficient and exponents of `value` that are not an `int` (an
    integral one, never a bool) or a fractional `Fraction`."""
    parts = [("coeff", value.coeff)] + list(value.symbols)
    return [f"{name} {x!r}" for name, x in parts
            if not (type(x) is int or (type(x) is Fraction and x.denominator != 1))]


@pytest.fixture
def constructed(monkeypatch):
    """Every UnitValue built while the fixture is active."""
    made = []
    real = UnitValue.__init__

    def recording(self, *args):
        real(self, *args)
        made.append(self)

    monkeypatch.setattr(UnitValue, "__init__", recording)
    return made


def test_engine_builds_only_exact_unit_values(constructed):
    docs = [doc_fn() for doc_fn, _, _ in test_golden.PIPELINE_GOLDEN.values()]
    cases = set()
    for doc in docs + workload_slice("corpus"):
        atlas, script = parse_document(doc)
        trace = toroidalize(atlas, script)
        cases.update(lift["record"]["case"] for step in trace["steps"]
                     for chart in step["charts"].values() for lift in chart["lifts"])
    assert cases == {"case1", "case2", "case3", "smooth"}
    assert len(constructed) > 1000
    offenders = [f"{v}: {inexact_parts(v)}" for v in constructed if inexact_parts(v)]
    assert not offenders, offenders[:5]


def test_inverses_and_powers_stay_exact(constructed):
    half = UnitValue.of(2) ** -1
    assert half == UnitValue.of(Fraction(1, 2)) and type(half.coeff) is Fraction
    assert type((half ** -1).coeff) is int and half ** -1 == UnitValue.of(2)
    assert UnitValue.of(-1).inv().coeff == -1
    assert UnitValue.of(Fraction(-1, 3)).inv().coeff == -3
    assert (UnitValue.of(4) ** -2).coeff == Fraction(1, 16)
    root = UnitValue.of(2) ** Fraction(1, 2)
    assert root.coeff == 1 and root.symbols == (("rat:2", Fraction(1, 2)),)
    squared = (UnitValue.symbol("a", Fraction(1, 2)) * UnitValue.of(3)) ** 2
    assert squared.coeff == 9 and squared.symbols == (("a", 1),)
    assert UnitValue.of(True).coeff == 1 and type(UnitValue.of(True).coeff) is int
    offenders = [f"{v}: {inexact_parts(v)}" for v in constructed if inexact_parts(v)]
    assert not offenders, offenders


def test_guard_flags_inexact_parts():
    assert inexact_parts(UnitValue(Fraction(2))) == ["coeff Fraction(2, 1)"]
    assert inexact_parts(UnitValue(True)) == ["coeff True"]
    assert inexact_parts(UnitValue(1, (("a", 0.5),))) == ["a 0.5"]
    assert inexact_parts(UnitValue(Fraction(1, 2), (("a", -1),))) == []
