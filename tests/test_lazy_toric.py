"""The toric reduction loads on first use.

`toroidalize` and `replay` never call `toroidal.toric`, so neither
`import toroidal` nor the command line's other subcommands import it.
Each case runs in a fresh interpreter, where nothing has loaded it yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import toroidal
from test_pipeline import identity_doc

SRC = str(Path(toroidal.__file__).resolve().parent.parent)


def python(*args, stdin=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, *args], input=stdin, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run


def imported(importtime_log: str) -> set[str]:
    """Module names listed by `python -X importtime`."""
    return {line.rsplit("|", 1)[1].strip() for line in importtime_log.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_import_leaves_toric_unloaded():
    run = python("-c", "import sys, toroidal; print('toroidal.toric' in sys.modules)")
    assert run.stdout == "False\n"


def test_toroidalize_command_leaves_toric_unloaded(tmp_path):
    atlas = tmp_path / "atlas.json"
    atlas.write_text(json.dumps(identity_doc()))
    run = python("-X", "importtime", "-m", "toroidal.cli", "toroidalize", str(atlas))
    modules = imported(run.stderr)
    assert "toroidal.pipeline" in modules
    assert "toroidal.toric" not in modules


def test_toric_names_load_on_first_use():
    run = python("-c", "\n".join([
        "import sys, toroidal",
        "before = 'toroidal.toric' in sys.modules",
        "from toroidal import normalize_toric_presentation",
        "after = 'toroidal.toric' in sys.modules",
        "assert normalize_toric_presentation is toroidal.toric.normalize_toric_presentation",
        "assert all(getattr(toroidal, name) is not None for name in toroidal.__all__)",
        "try:",
        "    toroidal.no_such_name",
        "except AttributeError as exc:",
        "    assert 'no_such_name' in str(exc)",
        "else:",
        "    raise SystemExit('no AttributeError')",
        "print(before, after)",
    ]))
    assert run.stdout == "False True\n"


def test_star_import_resolves_every_name():
    run = python("-c", "from toroidal import *; print(ToricMorphismData.__name__)")
    assert run.stdout == "ToricMorphismData\n"


def test_normalize_toric_command_loads_toric():
    doc = {"source": [3, 2], "target": [2, 2], "matrix": [[1, 1, 1], [2, 2, 1]]}
    run = python("-X", "importtime", "-m", "toroidal.cli", "normalize-toric",
                 stdin=json.dumps(doc))
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["valid"] and out["r"] == 1 and out["toroidal"]
    assert "toroidal.toric" in imported(run.stderr)
