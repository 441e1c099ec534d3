"""Self-test of the independent checker: corrupt a real trace and show
that the checker flags each corruption with the check meant to catch it.

Run from the repository root:  python3 perfbench/selftest.py
The benchmark also runs it before every measurement.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

import check
import workloads


def _sample_trace(pipeline, documents):
    """A small single-chart atlas with a few blowups and 2 x 2 leaves."""
    doc = workloads.single_chart_doc(random.Random(0), 3, 2,
                                     ((2, 1), (1, 3)), (0, 1), 2)
    atlas, script = pipeline.parse_document(doc)
    trace = json.loads(documents.canonical_dumps(pipeline.toroidalize(atlas, script)))
    return doc, trace


def _principalization(trace):
    return trace["steps"][0]["charts"]["A"]


def bump_lifted_exponent(trace):
    lift = _principalization(trace)["lifts"][0]
    lift["chart"]["matrix"][0][0] += 1


def drop_blowup_child(trace):
    _principalization(trace)["principalization"]["steps"][0]["children"].pop()


def make_leaf_nonprincipal(trace):
    """Give a leaf with two divisor center rows and two divisor columns
    the center rows e_0 and e_1: neither monomial divides the other."""
    for final in _principalization(trace)["principalization"]["final"]:
        chart = final["chart"]
        if chart.get("ell_bar", 0) >= 2 and chart["n"] >= 2:
            for r in (0, 1):
                chart["matrix"][r] = [1 if j == r else 0 for j in range(chart["n"])]
            return
    raise LookupError("sample trace has no leaf with two center rows")


CORRUPTIONS = [
    (bump_lifted_exponent, "lift"),
    (drop_blowup_child, "children"),
    (make_leaf_nonprincipal, "principal"),
]


def run_selftest(pipeline, documents) -> list[str]:
    """Problems found; empty when the clean trace passes and every
    corruption is flagged by its check."""
    doc, trace = _sample_trace(pipeline, documents)
    problems = []
    clean = check.check_document(doc, trace)
    if clean.failures:
        problems.append(f"clean trace flagged: {clean.failures[:3]}")
    if clean.blowups == 0:
        problems.append("sample trace has no blowup")
    for corrupt, expected in CORRUPTIONS:
        bad = copy.deepcopy(trace)
        corrupt(bad)
        flagged = {name for name, _ in check.check_document(doc, bad).failures}
        if expected not in flagged:
            problems.append(f"{corrupt.__name__}: expected a {expected!r} "
                            f"failure, got {sorted(flagged)}")
    return problems


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from toroidal import documents, pipeline

    problems = run_selftest(pipeline, documents)
    for corrupt, expected in CORRUPTIONS:
        failed = any(p.startswith(corrupt.__name__) for p in problems)
        print(f"{corrupt.__name__}: {'NOT flagged' if failed else 'flagged'} "
              f"({expected})")
    for problem in problems:
        print(f"problem: {problem}")
    print("checker self-test:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
