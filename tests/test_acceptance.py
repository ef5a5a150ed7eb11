"""End-to-end acceptance run: one test per criterion, zero tolerance.

Everything here is exact rational arithmetic, so every comparison is ==.
Each test prints a single pass line on success; a failure shows up as the
usual pytest report naming the criterion.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from glap import cli
from glap.analysis import (
    analyze,
    classify_module,
    degree_zero_action,
    isotropic_split_check,
)
from glap.families import FAMILIES
from glap.gla import check_fundamental, check_gla
from glap.linalg import Mat, signature_of_symmetric
from glap.prolongation import conformal_g0, full_prolongation, scaling_split
from glap.roots import positive_roots, graded_dims, table_expectation
from conftest import diag
from test_prolongation import dense_blocks, dense_commutator, flatten, scaled_form

F = Fraction

# every family at the smallest parameters of its supported range
MINIMAL = {tag: spec.instances[0] for tag, spec in FAMILIES.items()}

TABLE_ELEVEN = [
    ("hc", {"p": 1, "q": 1}), ("hc", {"p": 2, "q": 1}),
    ("hc-split", {"p": 1, "q": 1}), ("hc-split", {"p": 2, "q": 1}),
    ("hh", {"p": 1, "q": 1}), ("hh-split", {"p": 1, "q": 1}),
    ("bi", {"l": 2}), ("bi", {"l": 3}),
    ("ho", {}), ("ho-split", {}), ("g2", {}),
]


def _label(tag, params):
    if not params:
        return tag
    return tag + "(" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"


def test_criterion_1_classification_table(capsys):
    start = time.monotonic()
    code = cli.main(["verify-table"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    by_label = {row["family"]: row for row in doc["rows"]}
    for tag, params in TABLE_ELEVEN:
        row = by_label[_label(tag, params)]
        assert row["pass"], f"{row['family']}: {row['checks']}"
        assert row["checks"]["signature"]
        assert row["checks"]["prolong_dims_match_oracle"]
    assert elapsed < 600, f"verify-table took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"criterion 1 PASS: classification table, "
              f"{len(doc['rows'])} rows in {elapsed:.1f}s")


def test_criterion_2_prolongation_dimensions(get_prolongation, capsys):
    expected = [
        (("hc", {"p": 1, "q": 1}), 8),
        (("hh", {"p": 1, "q": 1}), 21),
        (("ho", {}), 52),
        (("ho-split", {}), 52),
        (("g2", {}), 14),
        (("bi", {"l": 3}), 21),
    ]
    for (tag, params), total in expected:
        prol = get_prolongation(tag, **params)
        assert prol.total_dim() == total, (tag, params)
        assert prol.complete
    with capsys.disabled():
        print("criterion 2 PASS: prolongation totals 8/21/52/52/14/21")


def test_criterion_3_simplicity(get_prolongation, capsys):
    for tag, params in TABLE_ELEVEN:
        rep = analyze(get_prolongation(tag, **params))
        assert rep.semisimple is True, (tag, params)
        assert rep.simple is True, (tag, params)
    counter = analyze(get_prolongation("counterexample"))
    assert counter.semisimple is False
    assert counter.dims[1] >= 2
    with capsys.disabled():
        print("criterion 3 PASS: 11 simple families, counterexample "
              f"non-semisimple with dim g1 = {counter.dims[1]}")


def test_criterion_4_degree_zero_split(get_family, capsys):
    for tag in FAMILIES:
        fam = get_family(tag, **MINIMAL[tag])
        layer = conformal_g0(fam.m, fam.g)
        E, hats = scaling_split(layer)
        assert layer.eta(E) == -2, tag
        assert len(hats) == len(layer) - 1, tag
        assert all(layer.eta(h) == 0 for h in hats), tag
        etas = [layer.eta(v) for v in layer.space.vectors]
        elements = [dense_blocks(layer, v) for v in layer.space.vectors]
        for i, x in enumerate(elements):
            for y in elements[i + 1:]:
                comm = flatten(layer, dense_commutator(x, y), 0)
                coords = layer.space.coords(comm, "commutator")
                assert sum(c * etas[t] for t, c in coords.items()) == 0, tag
    with capsys.disabled():
        print("criterion 4 PASS: g0 = R E + ker(eta) with eta(E) = -2 "
              "and [g0,g0] in ker(eta), all 9 builders")


def test_criterion_5_conformal_invariance(get_family, get_prolongation, capsys):
    lams = [F(2), F(1, 3), F(-1)]
    for tag, params in [("hc", {"p": 1, "q": 1}), ("bi", {"l": 2}), ("g2", {})]:
        fam = get_family(tag, **params)
        base = conformal_g0(fam.m, fam.g)
        for lam in lams:
            scaled = conformal_g0(fam.m, scaled_form(fam.g, lam))
            assert len(scaled) == len(base)
            # the vectors carry the blocks and the eta column
            assert scaled.space.vectors == base.space.vectors
    for tag, params in [("hc-split", {"p": 1, "q": 1}), ("bi", {"l": 2})]:
        fam = get_family(tag, **params)
        flipped = full_prolongation(fam.m, scaled_form(fam.g, F(-1)))
        assert flipped.dims_by_degree() == get_prolongation(
            tag, **params
        ).dims_by_degree()
    with capsys.disabled():
        print("criterion 5 PASS: g0 invariant under lambda in {2, 1/3, -1} "
              "for 3 families; prolongation of -g matches")


def test_criterion_6_isotropic_splits(get_prolongation, capsys):
    siii = [
        ("hc-split", {"p": 1, "q": 1}), ("hc-split", {"p": 2, "q": 1}),
        ("bi", {"l": 2}), ("bi", {"l": 3}), ("g2", {}),
    ]
    for tag, params in siii:
        prol = get_prolongation(tag, **params)
        cls = classify_module(degree_zero_action(prol.algebra), prol.form.matrix)
        assert cls.module_class == "SIII", (tag, params)
        V1, V2 = cls.split
        assert isotropic_split_check(prol.form.matrix, V1, V2) == {"dims": (len(V1), len(V2))}
    # Corollary 5.1 restated: an SIII verdict always comes with r = s
    for tag, params in TABLE_ELEVEN:
        report = analyze(get_prolongation(tag, **params))
        if report.module_class == "SIII":
            r, s = report.signature
            assert r == s, (tag, params)
    with capsys.disabled():
        print("criterion 6 PASS: 5 SIII splits isotropic with nondegenerate "
              "pairing; SIII implies neutral signature")


def test_criterion_7_oracle_self_consistency(get_family, capsys):
    assert len(positive_roots("F", 4)) == 24
    assert len(positive_roots("G", 2)) == 6
    assert graded_dims("F", 4, (4,)).total_dim() == 52
    assert graded_dims("G", 2, (1, 2)).total_dim() == 14
    for series, rank, crossed in [
        ("A", 2, (1, 2)), ("B", 3, (1, 3)), ("C", 3, (2,)),
        ("F", 4, (4,)), ("G", 2, (1, 2)),
    ]:
        dims = graded_dims(series, rank, crossed).dims
        assert all(dims[p] == dims[-p] for p in dims)
    for tag, spec in FAMILIES.items():
        if spec.oracle is None:
            continue
        fam = get_family(tag, **MINIMAL[tag])
        key, params = fam.oracle_key()
        row = table_expectation(key, **params)
        ok, kind = check_fundamental(fam.m)
        assert ok and kind == row.kind, tag
    with capsys.disabled():
        print("criterion 7 PASS: root counts 24/6, dims 52/14, symmetric "
              "gradings, oracle kind matches every family")


def test_criterion_8_core_invariants(get_family, get_prolongation, capsys):
    for tag in FAMILIES:
        fam = get_family(tag, **MINIMAL[tag])
        rep = check_gla(fam.m)
        assert rep["grading_ok"] and rep["jacobi_ok"], tag
        ok, _ = check_fundamental(fam.m)
        assert ok, tag
        if fam.ambient is not None:
            amb = check_gla(fam.ambient)
            assert amb["grading_ok"] and amb["jacobi_ok"], tag
    jacobi_swept = 0
    for tag, params in TABLE_ELEVEN + [("counterexample", {})]:
        prol = get_prolongation(tag, **params)
        rep = check_gla(prol.algebra)
        assert rep["violation_count"] == 0, (tag, params)
        jacobi_swept += 1
    rng = random.Random(816)
    forms_checked = 0
    for tag in FAMILIES:
        G = get_family(tag, **MINIMAL[tag]).g.matrix
        base = signature_of_symmetric(G)
        n = G.n
        for _ in range(20):
            P = diag([1] * n)
            for _ in range(2 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                E = diag([1] * n)
                E.a[i][j] = F(rng.randint(-3, 3))
                P = P * E
            assert signature_of_symmetric(Mat([list(c) for c in zip(*P.a)]) * G * P) == base
        forms_checked += 1
    with capsys.disabled():
        print(f"criterion 8 PASS: builders clean, Jacobi swept on "
              f"{jacobi_swept} prolongations, signature invariance on "
              f"{forms_checked} forms x 20 congruences")
