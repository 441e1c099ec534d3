"""Every public name of the package is read by the package.

A public top-level function or class of a `src/toroidal` module (not
`__init__.py`), and a public method or property of a top-level class,
must be read somewhere in the package outside its own definition: an
AST `Name` or `Attribute` node carries it.  An import, a re-export in
`__init__` or an `__all__` entry is not a read.  A name the benchmark
tracer wraps (`perfbench/tracer.py`'s `WRAPPED`, loaded by path as
`test_tracer_names` loads it) may go unread, and the set of names only
the tracer keeps is pinned: dropping one from `WRAPPED` means deleting
it from the package in the same change.

A name that is also a local variable or another object's attribute
elsewhere reads as used, so the census can miss a dead name (delete it
by hand); a name read only through a string, as `getattr` reads one,
would be reported.
"""

import ast
from collections import Counter
from pathlib import Path

import toroidal
from test_tracer_names import WRAPPED

PACKAGE_DIR = Path(toroidal.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")

TRACER_ONLY = {"check_permissible_center", "classify_form", "pullback_center_ideal",
               "lift_case", "order_along"}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each public top-level function
    or class and each public method or property of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _is_public(node.name):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_public(item.name):
                    yield f"{node.name}.{item.name}", item.name, item


def reads(tree: ast.AST) -> Counter:
    """How often each name is read as a `Name` or an `Attribute` in `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
    return found


def unread_names(sources: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, qualified name) of each public definition that nothing
    outside the definition itself reads."""
    total = sum(map(reads, sources.values()), Counter())
    return {(module, qualified)
            for module, tree in sources.items()
            for qualified, name, node in definitions(tree)
            if total[name] == reads(node)[name]}


def package_sources() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def test_modules_found():
    assert len(MODULES) >= 10


def test_every_public_name_is_read_or_wrapped():
    wrapped = {(module, attr) for module, attr, _ in WRAPPED}
    unread = unread_names(package_sources())
    assert sorted(unread - wrapped) == []
    assert {name for _, name in unread & wrapped} == TRACER_ONLY


def test_census_flags_an_unread_name():
    tree = ast.parse(
        "def used(): pass\n"
        "def unused(): return used()\n"
        "def recursive(): return recursive()\n"
        "class Box:\n"
        "    def read(self): return self.size\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def _private(self): pass\n"
        "__all__ = ['unused']\n")
    assert unread_names({"m": tree}) == {("m", "unused"), ("m", "recursive"),
                                         ("m", "Box"), ("m", "Box.read")}
