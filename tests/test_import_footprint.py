"""Importing the package loads no class factory and no `orjson`, and
only replay loads `pickle`.

Every record is a plain class or a `collections.namedtuple`, so neither
`toroidal`, its command line nor the toric reduction imports
`dataclasses`, `inspect` or `typing`.  `documents.strict_bytes`, which
only replay calls, imports `pickle` on first use, and
`documents.canonical_dumps` imports `orjson` (which loads `datetime`,
`uuid` and more) on its first call, so a command that writes JSON loads
it and an import does not.  Each case runs in a
fresh interpreter and counts only the modules its import adds: a `site`
hook may load some of them before any of ours.
"""

import json

import pytest

from test_lazy_toric import python
from test_pipeline import identity_doc

FACTORIES = {"dataclasses", "inspect", "typing"}


def added_modules(*lines: str) -> set[str]:
    """The modules that running `lines` adds to `sys.modules`."""
    run = python("-c", "\n".join([
        "import sys",
        "before = set(sys.modules)",
        *lines,
        "print(' '.join(sorted(set(sys.modules) - before)))",
    ]))
    return set(run.stdout.split())


def test_package_loads_no_class_factory_and_no_pickle():
    added = added_modules("import toroidal")
    assert "toroidal.pipeline" in added
    assert not added & (FACTORIES | {"pickle", "orjson"})


@pytest.mark.parametrize("module", ["toroidal.cli", "toroidal.toric"])
def test_command_line_and_toric_load_no_class_factory(module):
    added = added_modules(f"import {module}")
    assert module in added
    assert not added & (FACTORIES | {"orjson"})


def test_only_verify_trace_loads_pickle(tmp_path):
    atlas, trace = tmp_path / "atlas.json", tmp_path / "trace.json"
    atlas.write_text(json.dumps(identity_doc()))
    run = ("from toroidal.cli import main",
           "import contextlib, io",
           "with contextlib.redirect_stdout(io.StringIO()):")
    made = added_modules(*run, f"    assert main(['--out', {str(trace)!r}, "
                                f"'toroidalize', {str(atlas)!r}]) == 0")
    verified = added_modules(*run, f"    assert main(['verify-trace', {str(atlas)!r}, "
                                   f"{str(trace)!r}]) == 0")
    assert "pickle" not in made
    assert "pickle" in verified
    assert "orjson" in made
