"""Seeded atlas documents for the three benchmark workloads.

Each workload fixes the combinatorial shape of its documents (exponent
matrices, centers, script) and lets `--seed` draw only what leaves the
work unchanged: the exact unit constants, the order of each chart's
rows (labels move with their rows) and the order of the documents.
The blowup trees, and so the work counters, are then the same for
every seed.  Drawing the shapes per seed would measure the draw, not
the code: on the corpus generator five of 200 instances carry 69% of
the time, and in the `deep` family one instance in five runs for more
than six seconds while others finish in milliseconds.

A workload is a list of `(doc_id, json_text)` pairs, the form in which
`toroidal toroidalize FILE` receives its input.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ATLAS_SCHEMA = "toroidal-atlas/1"

# The acceptance termination corpus (tests/test_acceptance.py) draws its
# 200 instances from this seed with n <= 3, m <= 4, d <= 5, exponents <= 4.
CORPUS_SEED = 60606
CORPUS_SIZE = 200

# Three members of the deep family (3x4 matrix, d = 7, m = 3, codim-3
# center through all three rows): draws 9, 10 and 24 of
# deep_family(random.Random(1)), each about a second of principalization.
# The family's best-known member, ((3,1,2,3),(0,3,1,4),(2,2,3,1)) with 202
# blowups, takes six times as long, so a run would hold too few rounds;
# ((5,1,3,5),(0,4,1,6),(3,3,4,1)) does not finish within 300 s.
DEEP_MATRICES = (
    ((1, 3, 4, 2), (4, 2, 3, 2), (4, 4, 0, 3)),
    ((4, 1, 4, 4), (1, 3, 0, 3), (2, 4, 4, 1)),
    ((3, 1, 4, 4), (0, 2, 0, 3), (0, 3, 1, 1)),
)

# `wide` is ten atlases of 10 toroidal and 2 smooth charts each.  One
# atlas of 100 charts is a single 1.2 s call; timed unscaled, as the best
# of rounds, its time spread 0.30 of the median between quartiles over ten
# seeds, since a call that long cannot dodge this machine's slow phases.
WIDE_SEED = 5151
WIDE_ATLASES = 10
WIDE_TOROIDAL_CHARTS = 10
WIDE_SMOOTH_CHARTS = 2


def random_positive_matrix(rng, rows, cols, max_exp):
    """Nonnegative matrix with every row sum and column sum positive
    (the draw order of tests/generators.py, so seeds agree with it)."""
    mat = [[rng.randint(0, max_exp) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        if not any(mat[i]):
            mat[i][rng.randrange(cols)] = rng.randint(1, max_exp)
    for j in range(cols):
        if not any(mat[i][j] for i in range(rows)):
            mat[rng.randrange(rows)][j] = rng.randint(1, max_exp)
    return [tuple(row) for row in mat]


def random_unit_doc(rng):
    """Half trivial, half a rational constant p/q with 1 <= p, q <= 5."""
    if rng.random() < 0.5:
        return {}
    coeff = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    return {"base": {"coeff": str(coeff)}}


def deep_family(rng, max_exp=4):
    """Draw one 3x4 matrix of the deep family: entries in [0, max_exp],
    every row and column nonzero.  Costs range from no blowup to runs
    that do not finish, so a draw must be timed before it joins
    DEEP_MATRICES."""
    while True:
        mat = tuple(tuple(rng.randint(0, max_exp) for _ in range(4))
                    for _ in range(3))
        if all(any(row) for row in mat) and all(
                any(mat[i][j] for i in range(3)) for j in range(4)):
            return mat


def _chart_doc(d, m, matrix, units):
    doc = {"d": d, "m": m, "n": len(matrix[0]), "ell": len(matrix), "s": 0,
           "tag": "toroidal", "matrix": [list(row) for row in matrix]}
    if any(units):
        doc["units"] = units
    return doc


def _smooth_doc(d, m):
    return {"d": d, "m": m, "n": 0, "ell": 0, "s": 0, "tag": "smooth",
            "matrix": []}


def _vary_rows(rng, matrix, labels):
    """Seeded row order and unit constants for one toroidal chart."""
    perm = rng.sample(range(len(matrix)), len(matrix))
    return ([matrix[k] for k in perm], [labels[k] for k in perm],
            [random_unit_doc(rng) for _ in perm])


def single_chart_doc(rng, d, m, matrix, center_rows, c):
    labels = [f"L{i}" for i in range(len(matrix))]
    matrix, row_labels, units = _vary_rows(rng, matrix, labels)
    contained = [labels[i] for i in center_rows]
    return {
        "schema": ATLAS_SCHEMA,
        "dims": {"d": d, "m": m},
        "labels": [{"name": name, "charts": ["A"]} for name in labels],
        "charts": [{"id": "A", "strata": [{
            "id": "p0",
            "chart": _chart_doc(d, m, matrix, units),
            "row_labels": row_labels,
        }]}],
        # The explicit stratum list also covers centers in no divisor
        # component (ell_bar = 0), which no label can select.
        "script": [{
            "id": "z1",
            "views": {"A": {"c": c, "contained": contained,
                            "strata": ["p0"]}},
            "incidence": {name: "in" for name in contained},
        }],
    }


def _corpus_shapes():
    """The acceptance termination corpus: (d, m, matrix, center rows, c).

    Replays the draw sequence of random_adapted_chart in
    tests/generators.py, units included, so the shapes agree with it.
    """
    from toroidal.linalg import rank

    rng = random.Random(CORPUS_SEED)
    shapes = []
    while len(shapes) < CORPUS_SIZE:
        ell = rng.randint(1, 3)
        m = rng.randint(ell, 4)
        n = rng.randint(1, 3)
        matrix = random_positive_matrix(rng, ell, n, 4)
        d_min = n + m - rank(matrix)
        d = rng.randint(d_min, max(5, d_min))
        for _ in range(ell):
            random_unit_doc(rng)
        options = [(ell_bar, c) for ell_bar in range(ell + 1)
                   for c in range(max(2, ell_bar), m + 1)
                   if c - ell_bar <= m - ell]
        if not options:
            continue
        ell_bar, c = rng.choice(options)
        rows = tuple(sorted(rng.sample(range(ell), ell_bar)))
        shapes.append((d, m, matrix, rows, c))
    return shapes


def corpus(seed):
    rng = random.Random(f"corpus:{seed}")
    docs = [(f"c{k:03d}", single_chart_doc(rng, d, m, matrix, rows, c))
            for k, (d, m, matrix, rows, c) in enumerate(_corpus_shapes())]
    rng.shuffle(docs)
    return docs


def deep(seed):
    rng = random.Random(f"deep:{seed}")
    docs = [(f"deep{k}", single_chart_doc(rng, 7, 3, matrix, (0, 1, 2), 3))
            for k, matrix in enumerate(DEEP_MATRICES)]
    rng.shuffle(docs)
    return docs


def _wide_shapes():
    rng = random.Random(WIDE_SEED)
    return [random_positive_matrix(rng, 3, 3, rng.randint(1, 2))
            for _ in range(WIDE_ATLASES * WIDE_TOROIDAL_CHARTS)]


def _wide_atlas(rng, shapes):
    """Toroidal 3x3 charts (d = 5, m = 3) on the global components D1, D2,
    D3, plus smooth charts, under a three-step script.  z1 is cut out by D1
    and D2 and also passes through one point of every smooth chart; z2 lies
    on exc.z1 and D3; z3 on exc.z2 and exc.z1."""
    d, m = 5, 3
    names = ["D1", "D2", "D3"]
    toroidal_ids = [f"T{k:02d}" for k in range(len(shapes))]
    smooth_ids = [f"S{k:02d}" for k in range(WIDE_SMOOTH_CHARTS)]
    charts = []
    for chart_id, matrix in zip(toroidal_ids, shapes):
        matrix, row_labels, units = _vary_rows(rng, matrix, names)
        charts.append({"id": chart_id, "strata": [{
            "id": "p0", "chart": _chart_doc(d, m, matrix, units),
            "row_labels": row_labels}]})
    for chart_id in smooth_ids:
        charts.append({"id": chart_id, "strata": [{
            "id": "p0", "chart": _smooth_doc(d, m), "row_labels": []}]})

    def step(step_id, contained, smooth=False):
        views = {cid: {"c": 2, "contained": contained} for cid in toroidal_ids}
        if smooth:
            views.update({cid: {"c": 2, "contained": [], "strata": ["p0"]}
                          for cid in smooth_ids})
        return {"id": step_id, "views": views,
                "incidence": {name: "in" for name in contained}}

    return {
        "schema": ATLAS_SCHEMA,
        "dims": {"d": d, "m": m},
        "labels": [{"name": name, "charts": toroidal_ids} for name in names],
        "charts": charts,
        "script": [step("z1", ["D1", "D2"], smooth=True),
                   step("z2", ["exc.z1", "D3"]),
                   step("z3", ["exc.z2", "exc.z1"])],
    }


def wide(seed):
    rng = random.Random(f"wide:{seed}")
    shapes = _wide_shapes()
    n = WIDE_TOROIDAL_CHARTS
    docs = [(f"wide{a}", _wide_atlas(rng, shapes[a * n:(a + 1) * n]))
            for a in range(WIDE_ATLASES)]
    rng.shuffle(docs)
    return docs


WORKLOADS = {"corpus": corpus, "deep": deep, "wide": wide}

# Rounds counted in each workload's time metrics, 20 to 30 seconds of
# work on the reference machine.  The count is fixed, not set by
# `--seconds`, so a faster or a slower program is timed over as many
# rounds as its parent.  Rounds after these are checked but not counted.
ROUNDS = {"corpus": 2, "deep": 3, "wide": 5}


def build(name, seed):
    """The workload's documents as (doc_id, canonical JSON text)."""
    return [(doc_id, json.dumps(doc, sort_keys=True, separators=(",", ":")))
            for doc_id, doc in WORKLOADS[name](seed)]
