"""The demos' output, pinned.

Each `demos/*.py` runs in its own interpreter and the sha256 of its
stdout is compared with the digest recorded from the engine.  A refactor
that must leave the demos' output unchanged is checked here; a
deliberate change to what a demo prints re-records its digest.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_DIGESTS = {
    "01_monomial_ideals.py":
        "0feb6f0186e28386ef8f4c29bc8d1c5529271a1f58000abca4a573f5de7f7fb7",
    "02_toric_normalization.py":
        "7ac07dfee80c03b88d48e5796a1dcc61d0d53e7a2a40b80b91eaf9a6bef17e84",
    "03_blowup_charts.py":
        "edee4e43b54bfc24c10d6fe887c7fb641215a80bf18df17b2a46ced60725da0d",
    "04_principalization_and_lift.py":
        "754b7633eee33d002fe2450dcc9cf755e6d5db3cc4992188f3221b729955cdc7",
    "05_full_toroidalization.py":
        "f51795b880711ce3fed4ce9d74bff39af416d865e996c6425aaabe55bc8888bd",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         capture_output=True, env=env, timeout=60, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_DIGESTS[name]
