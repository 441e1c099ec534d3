#!/usr/bin/env python3
"""The full pipeline on a two-chart atlas, plus trace replay.

Chart A is the identity morphism at a 2-point with divisor components
L1, L2; chart B is a smooth chart through the same target center.  One
script step blows up the codimension-2 center contained in both labels.
Chart A runs the translated-chart machinery; chart B runs the smooth
branch where no exceptional joins a divisor.  The trace replays to the
byte.
"""

import json

from toroidal.documents import canonical_dumps
from toroidal.pipeline import parse_document, replay, toroidalize

DOC = {
    "schema": "toroidal-atlas/1",
    "dims": {"d": 3, "m": 2},
    "labels": [{"name": "L1", "charts": ["A"]},
               {"name": "L2", "charts": ["A"]}],
    "charts": [
        {"id": "A", "strata": [{
            "id": "p0",
            "chart": {"d": 3, "m": 2, "n": 2, "ell": 2, "s": 0,
                      "tag": "toroidal", "matrix": [[1, 0], [0, 1]]},
            "row_labels": ["L1", "L2"],
        }]},
        {"id": "B", "strata": [{
            "id": "q0",
            "chart": {"d": 3, "m": 2, "n": 0, "ell": 0, "s": 0,
                      "tag": "smooth", "matrix": []},
            "row_labels": [],
        }]},
    ],
    "script": [{
        "id": "z1",
        "views": {"A": {"c": 2, "contained": ["L1", "L2"]},
                  "B": {"c": 2, "contained": [], "strata": ["q0"]}},
        "incidence": {"L1": "in", "L2": "in"},
    }],
}

atlas, script = parse_document(DOC)
trace = toroidalize(atlas, script)

print("verdicts:", json.dumps(trace["verdicts"], indent=2, sort_keys=True))
for chart_id, chart_doc in sorted(trace["steps"][0]["charts"].items()):
    print(f"chart {chart_id}:")
    for lift in chart_doc["lifts"]:
        print(f"  {lift['stratum']:<24} {lift['record']['case']:<6}"
              f" ell1 = {lift['chart']['ell']}"
              f" labels = {list(lift['row_labels'])}")

# Determinism: replaying from the same document reproduces the trace.
atlas2, script2 = parse_document(DOC)
fresh = replay(trace, atlas2, script2)
print("replay byte-identical:", canonical_dumps(fresh) == canonical_dumps(trace))
