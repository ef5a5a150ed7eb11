import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from glap import cli
from glap.analysis import (
    _centroid,
    ModuleClassification,
    _determined_by_minus1,
    _extensions,
    _has_characteristic,
    _is_scalar,
    _positive_sqrt,
    _quadratic_relation,
    _residual,
    _simple_from_centroid,
    _table_rows,
    _verify_centroid,
    analyze,
    centroid,
    classify_module,
    commutant,
    degree_zero_action,
    is_semisimple,
    is_simple,
    isotropic_split_check,
    killing_form,
    match_table_row,
)
from glap.cli import DEFAULT_ROWS
from glap.errors import (
    BadParameters,
    DegeneratePairing,
    GlapError,
    NotIsotropic,
    NotSemisimple,
    ParseError,
)
from glap.families import FAMILIES, build, label, oracle_instances
from glap.gla import GradedAlgebra, SymBilinearForm, _scaled_adjacency
from glap.linalg import Echelon, Mat, int_row, signature_of_symmetric, span_basis
from glap.prolongation import full_prolongation
from glap.roots import table_expectation
from conftest import diag
from test_prolongation import _REBASED, _bench_rebase

F = Fraction


def _int_maps(mats):
    """Dense n x n Mats as the flat integer maps ``{c*n + r: x}`` that the
    analysis reads, all scaled by the lcm of their denominators."""
    D = lcm(*(x.denominator for M in mats for row in M.a for x in row))
    return [
        {c * M.n + r: int(x * D) for r, row in enumerate(M.a) for c, x in enumerate(row) if x}
        for M in mats
    ]


def _dense(maps, n, D=1):
    """Flat integer maps ``{c*n + r: x}`` over the denominator D as Mats."""
    return [Mat([[F(phi.get(c * n + r, 0), D) for c in range(n)] for r in range(n)])
            for phi in maps]


def _kernel(rows, ncols):
    """The canonical kernel basis of sparse rows (ints or Fractions) as
    dense rows of Fractions."""
    space = Echelon(ncols).extend(map(int_row, rows)).kernel_space()
    return [[F(v.get(c, 0), space.denominator) for c in range(ncols)] for v in space.basis]


def _sl2():
    # basis (e, h, f), all in degree 0
    return GradedAlgebra(
        "sl2",
        ["e", "h", "f"],
        [0, 0, 0],
        {
            (0, 1): {0: F(-2)},
            (0, 2): {1: F(1)},
            (1, 2): {2: F(-2)},
        },
    )


def _direct_sum(A, B):
    """A + B, the basis of B after that of A, degrees kept."""
    n = A.n
    br = dict(A.brackets)
    for (i, j), cell in B.brackets.items():
        br[(i + n, j + n)] = {k + n: c for k, c in cell.items()}
    return GradedAlgebra(f"{A.name}+{B.name}", A.labels + B.labels, A.degrees + B.degrees, br)


def _complexify(A):
    """A tensor C as a real algebra, basis x_0.., then i x_0..; degrees
    kept, so a graded A gives a graded algebra."""
    n = A.n
    br = {}
    for (i, j), cell in A.brackets.items():
        br[(i, j)] = dict(cell)  # [x, y]
        br[(i, j + n)] = {k + n: c for k, c in cell.items()}  # [x, iy]
        br[(j, i + n)] = {k + n: -c for k, c in cell.items()}  # [y, ix] = -[ix, y]
        br[(i + n, j + n)] = {k: -c for k, c in cell.items()}  # [ix, iy] = -[x, y]
    labels = A.labels + ["i" + x for x in A.labels]
    return GradedAlgebra(f"{A.name}(C)", labels, A.degrees * 2, br)


def _sl2_plus_sl2():
    return _direct_sum(_sl2(), _sl2())


def _sl2_complex_as_real():
    """sl(2,C) with basis e,h,f,ie,ih,if; real structure constants."""
    return _complexify(_sl2())


def test_killing_form_of_sl2():
    # all of sl2 sits in degree 0, so B is the block B_0
    L2, blocks = killing_form(_sl2())
    assert (L2, blocks) == (1, {0: [{2: 4}, {1: 8}, {0: 4}]})
    B = Mat([[row.get(c, 0) for c in range(3)] for row in blocks[0]])
    assert signature_of_symmetric(B) == (2, 1, 0)


def test_nilpotent_algebra_has_zero_killing_form(h3):
    # no degree >= 0, so there is no block
    assert killing_form(h3) == (1, {})
    assert _reference_killing_form(h3) == Mat.zeros(3, 3)
    assert not is_semisimple(h3)


def test_sl2_is_simple():
    A = _sl2()
    assert is_semisimple(A)
    assert len(centroid(A)) == 1
    assert is_simple(A)


def test_direct_sum_is_not_simple():
    A = _sl2_plus_sl2()
    assert is_semisimple(A)
    assert len(centroid(A)) == 2
    assert not is_simple(A)


def test_complex_simple_algebra_stays_simple_over_r():
    A = _sl2_complex_as_real()
    assert is_semisimple(A)
    assert len(centroid(A)) == 2
    assert is_simple(A)


def test_is_simple_guards_against_degenerate_killing(h3):
    with pytest.raises(NotSemisimple):
        is_simple(h3)


def test_commutant_of_a_rotation():
    J = Mat([[0, -1], [1, 0]])
    C = commutant(_int_maps([J]), 2)
    assert len(C) == 2
    for phi in _dense(C.basis, 2, C.denominator):
        assert phi * J == J * phi


def test_classify_rotation_module_as_complex():
    J = Mat([[0, -1], [1, 0]])
    cls = classify_module(_int_maps([J]), diag([1, 1]))
    assert cls.module_class == "SII"
    assert cls.complex_structure is not None
    S = cls.complex_structure
    c = (S * S).a[0][0]
    assert c < 0
    assert S * S == diag([c, c])


@pytest.mark.parametrize(
    "tag,params,expected",
    [
        ("hc", {"p": 1, "q": 1}, "SII"),
        ("hc-split", {"p": 1, "q": 1}, "SIII"),
        ("hh", {"p": 1, "q": 1}, "SI"),
        ("hh-split", {"p": 1, "q": 1}, "SI"),
        ("bi", {"l": 3}, "SIII"),
        ("g2", {}, "SIII"),
    ],
)
def test_module_classes_per_family(get_prolongation, tag, params, expected):
    prol = get_prolongation(tag, **params)
    A = prol.algebra
    maps = degree_zero_action(A)
    cls = classify_module(maps, prol.form.matrix)
    assert cls.module_class == expected
    # the action is L times the one read from the brackets
    L = _scaled_adjacency(A)[0]
    n = prol.form.matrix.n
    assert [M.a for M in _dense(maps, n, L)] == [M.a for M in _reference_action(A)]


def _reference_action(A):
    """ad u on degree -1 for each u of degree 0 as a dense Mat of
    Fractions, from ``bracket_pair``, as degree_zero_action built it before
    it read the scaled adjacency."""
    src = A.by_degree().get(-1, [])
    pos = {g: r for r, g in enumerate(src)}
    out = []
    for u in A.by_degree().get(0, []):
        M = Mat.zeros(len(src), len(src))
        for c, j in enumerate(src):
            for k, x in A.bracket_pair(u, j).items():
                M.a[pos[k]][c] = x
        out.append(M)
    return out


# left multiplication by i, j and k on H, basis (1, i, j, k): the commutant
# is the right multiplications, a quaternion algebra
_LEFT_IJK = (
    Mat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]),
    Mat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]),
    Mat([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]),
)


# the prolongations of test_module_classes_per_family
_CLASSIFIER_FAMILIES = {
    "hc11": ("hc", {"p": 1, "q": 1}),
    "hc-split11": ("hc-split", {"p": 1, "q": 1}),
    "hh11": ("hh", {"p": 1, "q": 1}),
    "hh-split11": ("hh-split", {"p": 1, "q": 1}),
    "bi3": ("bi", {"l": 3}),
    "g2": ("g2", {}),
}


def _classifier_case(get_prolongation, get_rebased, case):
    """(flat integer maps, dimension) of the module of a classifier case."""
    if case in _CLASSIFIER_FAMILIES:
        tag, params = _CLASSIFIER_FAMILIES[case]
        prol = get_prolongation(tag, **params)
        return degree_zero_action(prol.algebra), prol.form.matrix.n
    if case in ("hh11-rebased", "hc21-rebased"):
        tag, p, q = {"hh11-rebased": ("hh", 1, 1), "hc21-rebased": ("hc", 2, 1)}[case]
        prol = full_prolongation(*get_rebased(tag, p=p, q=q))
        return degree_zero_action(prol.algebra), prol.form.matrix.n
    if case == "hc11(C)":
        return degree_zero_action(_complexify(get_prolongation("hc", p=1, q=1).algebra)), 4
    small = {
        "rotation": [Mat([[0, -1], [1, 0]])],
        "swap": [Mat([[0, 1], [1, 0]])],
        "diag123": [diag([1, 2, 3])],
        "zero3": [Mat.zeros(3, 3)],
        "irrational": [Mat([[1, 1], [1, -1]])],
        "nilpotent": [Mat([[0, 1], [0, 0]])],
        "left-ijk": list(_LEFT_IJK),
    }
    return _int_maps(small[case]), small[case][0].n


# sha256 of repr((module_class, commutant_dim, split, complex_structure,
# warnings)), recorded when the classes came from rational eigensplits
_CLASSIFIER_PINS = [
    ("hc11", "SII", "b42a9a4502373048a9ff16d0a97919a4aaf00b9e948f5f274d20b629d5b696a8"),
    ("hc-split11", "SIII", "a563075b1c8a531858914a028edd95dbbde8464bbfafef2588f1c07c6564a88f"),
    ("hh11", "SI", "330ad1157352a84683125dbbf2fbbee49c13b410b852f57146a7c2197cc6672b"),
    ("hh-split11", "SI", "330ad1157352a84683125dbbf2fbbee49c13b410b852f57146a7c2197cc6672b"),
    ("bi3", "SIII", "cb8b0da7acaea53fecbfabaa3e8e20ad8c30e19a735ef10f34e2f55b27029361"),
    ("g2", "SIII", "d1283b058f213c1fdb5c0b1c0baadd2562092727fff920a27ea3ed0ed77af8d6"),
    ("hh11-rebased", "SI", "330ad1157352a84683125dbbf2fbbee49c13b410b852f57146a7c2197cc6672b"),
    ("hc21-rebased", "SII", "a8668b66e6c184e1bb5cbeb6f799a4cb4c7d0fa8dfb3024a2682b655678ab570"),
    ("hc11(C)", "SIII", "afb8da9d921f8a7982afdf6b2d88e8f670360a570ee8df1c24ce689b67766c42"),
    ("rotation", "SII", "b42a9a4502373048a9ff16d0a97919a4aaf00b9e948f5f274d20b629d5b696a8"),
    ("swap", "SIII", "a563075b1c8a531858914a028edd95dbbde8464bbfafef2588f1c07c6564a88f"),
    ("diag123", "SIII", "6442a7cdb992fb9617b964ae6743a796a9e223aaa45bd880920c10164753e162"),
    ("zero3", "SIII", "0337dc2b33cd30b1945032b818bb22054dbc111d9d8058e8bcb01ca098fa7742"),
    ("irrational", "unclassified", "5a5f76aa816fbac6fc72e4497b1bf83bf7c8fe078662379d3ba662574037f29b"),
    ("nilpotent", "unclassified", "5a5f76aa816fbac6fc72e4497b1bf83bf7c8fe078662379d3ba662574037f29b"),
    ("left-ijk", "SI", "ee73df2ad01893ca53c90cae652fd48489df90709db43d650fbaec25f91ef0a6"),
]


@pytest.mark.parametrize(
    "case,module_class,digest",
    _CLASSIFIER_PINS,
    ids=[case for case, _, _ in _CLASSIFIER_PINS],
)
def test_classify_module_is_pinned(get_prolongation, get_rebased, case, module_class, digest):
    maps, n = _classifier_case(get_prolongation, get_rebased, case)
    cls = classify_module(maps, diag([1] * n))
    assert cls.module_class == module_class
    if case == "left-ijk":
        assert cls.commutant_dim == 4 and cls.warnings
    got = repr((cls.module_class, cls.commutant_dim, cls.split, cls.complex_structure, cls.warnings))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


def _full_commutant(mats, n):
    """The commutant of the dense Mats ``mats`` from every row of
    phi M - M phi = 0, in Fractions, as Mats: the reference for commutant,
    which stops at the rank bound n*n - 1 and reads flat integer maps."""
    rows = []
    for M in mats:
        for i in range(n):
            for j in range(n):
                row = {}
                for r in range(n):
                    row[r * n + i] = row.get(r * n + i, 0) + M.a[r][j]
                    row[j * n + r] = row.get(j * n + r, 0) - M.a[i][r]
                rows.append(row)
    return [
        Mat([[v[c * n + r] for c in range(n)] for r in range(n)])
        for v in _kernel(rows, n * n)
    ]


def _reference_quadratic_relation(M):
    """_quadratic_relation as it was on a dense Mat of Fractions: the
    traceless part J = M - tr(M)/n I and (a, b) with J^2 = a I + b J, b
    read at the first nonzero entry of J in row order; None without one."""
    n = M.n
    t = sum(M.a[i][i] for i in range(n)) / n
    J = Mat([[x - t * (r == c) for c, x in enumerate(row)] for r, row in enumerate(M.a)])
    J2 = J * J
    a = sum(J2.a[i][i] for i in range(n)) / n
    r, c = next((r, c) for r in range(n) for c in range(n) if J.a[r][c])
    b = (J2.a[r][c] - a * (r == c)) / J.a[r][c]
    if J2.a != [[a * (r == c) + b * x for c, x in enumerate(row)] for r, row in enumerate(J.a)]:
        return None
    return J, a, b


def _reference_classify(mats, n):
    """classify_module as it was on dense Mats of Fractions: the full-solve
    commutant, the dense quadratic relation and dense eigenspace kernels."""
    C = _full_commutant(mats, n)
    dimC = len(C)
    candidates = list(C) + [
        Mat([[x + y for x, y in zip(r, s)] for r, s in zip(C[i].a, C[j].a)])
        for i in range(dimC) for j in range(i + 1, dimC)
    ]
    found = []
    for phi in candidates:
        if phi.a == [[phi.a[0][0] * (r == c) for c in range(n)] for r in range(n)]:
            continue
        rel = _reference_quadratic_relation(phi)
        if rel is None:
            found.append(None)
            continue
        J, a, b = rel
        disc = b * b + 4 * a
        found.append((J, disc))
        root = _positive_sqrt(disc)
        if root is not None:
            split = tuple(
                _kernel([dict(enumerate(x - (b + s) / 2 * (r == c) for c, x in enumerate(row)))
                         for r, row in enumerate(J.a)], n)
                for s in (-root, root)
            )
            return ModuleClassification("SIII", dimC, split=split)
    complex_ = [f is not None and f[1] < 0 for f in found]
    if dimC == 2 and complex_[0]:
        return ModuleClassification("SII", dimC, complex_structure=found[0][0])
    if dimC == 1:
        return ModuleClassification("SI", dimC)
    if dimC == 4 and all(complex_):
        return ModuleClassification(
            "SI", dimC, warnings=["commutant of dimension 4: accepted as irreducible"])
    return ModuleClassification("unclassified", dimC)


# the 14 rows, both ladder rungs and the benchmark's rebased inputs at
# seeds 0 and 7, by id
_VERDICT_CASES = list(DEFAULT_ROWS) + [("hh", {"p": 1, "q": 3}), ("hc", {"p": 3, "q": 1})]


def _case_id(tag, params):
    return tag + "".join(f"-{k}{v}" for k, v in params.items())


_ALGEBRA_CASES = {_case_id(tag, params): (tag, params, None) for tag, params in _VERDICT_CASES}
_ALGEBRA_CASES.update(
    (f"{_case_id(tag, params)}-rebased{seed}", (tag, params, seed))
    for seed in (0, 7) for tag, params in _REBASED
)


@functools.cache
def _rebased_prolongation(tag, seed, **params):
    rebase = _bench_rebase()
    fam = build(tag, **params)
    return full_prolongation(*rebase.rebase(fam.m, fam.g, rebase.instance_rng(seed, label(tag, params))))


def _algebra_case(get_prolongation, case):
    """The prolongation of an ``_ALGEBRA_CASES`` id."""
    tag, params, seed = _ALGEBRA_CASES[case]
    if seed is None:
        return get_prolongation(tag, **params)
    return _rebased_prolongation(tag, seed, **params)


_MODULE_CASES = [case for case, _, _ in _CLASSIFIER_PINS]


# g2 is both a classifier case and an algebra case, with one prolongation
@pytest.mark.parametrize("case", _MODULE_CASES + [c for c in _ALGEBRA_CASES if c not in _MODULE_CASES])
def test_commutant_stopped_at_the_rank_bound_matches_the_full_solve(
    get_prolongation, get_rebased, case
):
    """The commutant, and the classification read from it, equal their
    dense Fraction references."""
    if case in _ALGEBRA_CASES:
        prol = _algebra_case(get_prolongation, case)
        maps, n = degree_zero_action(prol.algebra), prol.form.matrix.n
    else:
        maps, n = _classifier_case(get_prolongation, get_rebased, case)
    mats = _dense(maps, n)
    C = commutant(maps, n)
    assert _dense(C.basis, n, C.denominator) == _full_commutant(mats, n)
    assert classify_module(maps, diag([1] * n)) == _reference_classify(mats, n)


@st.composite
def _small_modules(draw):
    """(n, Mats): one to three small integer n x n matrices, n <= 5, some
    of them built to commute with an involution or a rotation so that
    every module class shows up, and some with whole rows or columns of
    zeros, which ``commutant``'s row generator skips."""
    n = draw(st.integers(1, 5))
    entries = st.integers(-2, 2)
    mats = draw(st.lists(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=1, max_size=3,
    ))
    if n % 2 == 0 and draw(st.booleans()):
        # blocks [[X, -Y], [Y, X]]: complex-linear maps of C^(n/2)
        h = n // 2
        mats = [
            [X + [-y for y in Y] for X, Y in zip(top, bottom)]
            + [Y + X for X, Y in zip(top, bottom)]
            for top, bottom in (([r[:h] for r in M[:h]], [r[:h] for r in M[h:]]) for M in mats)
        ]
    elif draw(st.booleans()):
        # diagonal blocks: maps that keep a splitting of the module
        k = draw(st.integers(0, n))
        mats = [[[x if (r < k) == (c < k) else 0 for c, x in enumerate(row)]
                 for r, row in enumerate(M)] for M in mats]
    if draw(st.booleans()):
        # each map loses some whole rows and some whole columns
        lines = st.sets(st.integers(0, n - 1))
        mats = [
            [[0 if r in rows or c in cols else x for c, x in enumerate(row)]
             for r, row in enumerate(M)]
            for M, rows, cols in ((M, draw(lines), draw(lines)) for M in mats)
        ]
    return n, [Mat(M) for M in mats]


@settings(max_examples=60, deadline=None)
@given(_small_modules())
def test_classifier_matches_the_dense_reference_on_small_modules(module):
    n, mats = module
    maps = _int_maps(mats)
    C = commutant(maps, n)
    assert _dense(C.basis, n, C.denominator) == _full_commutant(mats, n)
    assert classify_module(maps, diag([1] * n)) == _reference_classify(mats, n)
    for phi, M in zip(C.basis, _full_commutant(mats, n)):
        if not _is_scalar(phi, n):
            rel, ref = _quadratic_relation(phi, n), _reference_quadratic_relation(M)
            assert (rel is None) == (ref is None)
            if rel is not None:
                # J is n*D times the rational traceless part
                s = n * C.denominator
                assert _dense([rel[0]], n, s)[0] == ref[0]
                assert (rel[1], rel[2]) == (s * s * ref[1], s * ref[2])


def test_bi3_split_is_isotropic(get_prolongation):
    prol = get_prolongation("bi", l=3)
    cls = classify_module(degree_zero_action(prol.algebra), prol.form.matrix)
    assert cls.module_class == "SIII" and cls.split is not None
    V1, V2 = cls.split
    assert isotropic_split_check(prol.form.matrix, V1, V2) == {"dims": (2, 2)}


def test_g2_split_is_isotropic(get_prolongation):
    prol = get_prolongation("g2")
    cls = classify_module(degree_zero_action(prol.algebra), prol.form.matrix)
    V1, V2 = cls.split
    assert isotropic_split_check(prol.form.matrix, V1, V2) == {"dims": (1, 1)}


def test_isotropic_check_rejects_definite_forms():
    with pytest.raises(NotIsotropic):
        isotropic_split_check(
            diag([1, 1]), [[F(1), F(0)]], [[F(0), F(1)]]
        )


def test_isotropic_check_rejects_degenerate_pairing():
    G = Mat(
        [[0, 0, 1, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
    )
    V1 = [[F(1), F(0), F(0), F(0)], [F(0), F(1), F(0), F(0)]]
    V2 = [[F(0), F(0), F(1), F(0)], [F(0), F(0), F(0), F(1)]]
    with pytest.raises(DegeneratePairing):
        isotropic_split_check(G, V1, V2)


def test_isotropic_check_rejects_wrong_dimensions():
    with pytest.raises(ValueError):
        isotropic_split_check(diag([1, 1, 1]), [[F(1), F(0), F(0)]], [])


@pytest.mark.parametrize(
    "tag,params,bound_ok",
    [
        ("hc-split", {"p": 1, "q": 1}, True),
        ("bi", {"l": 3}, True),
        ("g2", {}, True),
    ],
)
def test_rank_bound_for_split_families(get_family, tag, params, bound_ok):
    fam = get_family(tag, **params)
    r, s = fam.g.signature()
    assert (fam.cartan <= min(r, s) + 1) is bound_ok


def test_rank_bound_can_fail(monkeypatch):
    spec = FAMILIES["hc-split"]

    def oversized(name, **params):
        m, g, ambient, _ = spec.builder(name, **params)
        return m, g, ambient, 5

    monkeypatch.setitem(FAMILIES, "hc-split", dataclasses.replace(spec, builder=oversized))
    with pytest.raises(GlapError, match="exceeds the rank bound min"):
        build("hc-split", p=1, q=1)


def _h3_pair():
    """m = h3 + h3: [x1, y1] = z1 and [x2, y2] = z2."""
    return GradedAlgebra(
        "h3+h3",
        ["x1", "y1", "x2", "y2", "z1", "z2"],
        [-1, -1, -1, -1, -2, -2],
        {(0, 1): {4: F(1)}, (2, 3): {5: F(1)}},
    )


@pytest.mark.parametrize(
    "entries",
    [(1, 1, -1, -1), (1, -1, 1, -1), (1, 1, 1, 1)],
    ids=["definite-blocks", "indefinite-blocks", "euclidean"],
)
def test_analyze_certifies_the_siii_split(tmp_path, capsys, entries):
    """The commutant of g_0 splits g_{-1} into the degree -1 parts of the
    two h3 summands.  Under these forms neither is totally isotropic
    (g(x1, x1) = 1), so the SIII verdict is not the paper's isotropic
    split.  The two neutral forms passed without a warning before the
    split was certified; the euclidean one carried a signature warning."""
    m = _h3_pair()
    g = SymBilinearForm.for_algebra(m, diag(entries))
    rep = analyze(full_prolongation(m, g))
    assert rep.module_class == "SIII"
    assert len(rep.warnings) == 1
    assert rep.warnings[0].startswith("SIII split not certified: first summand is not totally isotropic")
    paths = {}
    for key, text in (("m", m.serialize()), ("g", g.serialize())):
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text, encoding="utf-8")
    prol_path = str(tmp_path / "prol.json")
    assert cli.main(["prolong", str(paths["m"]), str(paths["g"]), "--out", prol_path]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", prol_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["module_class"] == "SIII"
    assert doc["warnings"] == rep.warnings


def _blocks_match_the_reference(A):
    """Whether the blocks of ``killing_form`` hold, over L**2, the entries
    of the full Fraction reference B(e_i, e_j) with deg e_i >= 0 and
    deg e_i + deg e_j = 0, and B vanishes on every other pair of degrees."""
    L2, blocks = killing_form(A)
    by_deg = A.by_degree()
    got = {
        (i, by_deg[-d][c]): F(x, L2)
        for d, rows in blocks.items() for i, row in zip(by_deg[d], rows) for c, x in row.items()
    }
    B = _reference_killing_form(A).a
    degs = A.degrees
    want = {(i, j): x for i, row in enumerate(B) for j, x in enumerate(row) if x and degs[i] >= 0}
    opposite = all(degs[i] + degs[j] == 0 for i, row in enumerate(B) for j, x in enumerate(row) if x)
    return got == want and opposite


def test_killing_form_pairs_only_opposite_degrees(get_prolongation):
    assert _blocks_match_the_reference(get_prolongation("hc", p=1, q=1).algebra)


def test_analysis_report_fields(get_prolongation):
    rep = analyze(get_prolongation("hc", p=1, q=1))
    d = rep.to_json_dict()
    assert d["kind"] == 2
    assert d["signature"] == [2, 0]
    assert d["semisimple"] and d["simple"]
    assert d["module_class"] == "SII"
    # su(2,1) is central simple over R, so its centroid is just R
    assert d["centroid_dim"] == 1
    assert "AIV" in d["matched_table_row"]
    assert d["total_dim"] == 8


def test_siii_reports_have_neutral_signature(get_prolongation):
    for tag, params in [("hc-split", {"p": 2, "q": 1}), ("bi", {"l": 2}), ("g2", {})]:
        rep = analyze(get_prolongation(tag, **params))
        if rep.module_class == "SIII":
            r, s = rep.signature
            assert r == s


def test_counterexample_report(get_prolongation):
    rep = analyze(get_prolongation("counterexample"))
    assert rep.semisimple is False
    assert rep.simple is False
    assert rep.centroid_dim is None
    assert rep.dims[1] == 2


def test_match_table_row_respects_module_class(get_prolongation):
    prol = get_prolongation("hc", p=1, q=1)
    assert "AIV" in match_table_row(prol, "SII")
    assert match_table_row(prol, "SI") is None


class _OracleStub:
    """What match_table_row reads of a prolongation, from an oracle row."""

    def __init__(self, row):
        self.row = row
        self.mu = row.kind
        self.form = self

    def dims_by_degree(self):
        return dict(self.row.dims)

    def signature(self):
        return self.row.signature


def test_every_supported_instance_matches_its_own_table_row():
    instances = oracle_instances()
    assert len(instances) == 68
    for lab, fam, params in instances:
        row = table_expectation(fam, **params)
        hits = match_table_row(_OracleStub(row), row.module_class)
        assert hits is not None, lab
        assert lab in [hit.split(":")[0] for hit in hits.split(" | ")], (lab, hits)


def test_table_order_is_pinned():
    """match_table_row joins ties in table order, so the order is output."""
    labels = "\n".join(lab for lab, _ in _table_rows())
    assert hashlib.sha256(labels.encode()).hexdigest() == (
        "aabe75aa73fe590a48f80dcf424b86688b0515688ee29b7175d0861fa0e8e218"
    )
    row = table_expectation("HH'", p=1, q=2)
    assert match_table_row(_OracleStub(row), row.module_class) == (
        "HH'(p=1,q=2): (C4, nodes [2]), CI"
        " | HH(p=2,q=0): (C4, nodes [2]), CIIb"
        " | HH'(p=2,q=0): (C4, nodes [2]), CI"
    )


def test_the_table_is_the_registry_range():
    assert [lab for lab, _ in _table_rows()] == [lab for lab, _, _ in oracle_instances()]
    assert len(_table_rows()) == 68


@pytest.mark.parametrize(
    "tag,params",
    [
        ("hc", {"p": 1, "q": 23}),
        ("hc", {"p": 13, "q": 0}),
        ("hc", {"p": 1, "q": 0}),
        ("bi", {"l": 1}),
        ("bi", {"l": 13}),
    ],
)
def test_builders_refuse_what_the_table_lacks(tag, params):
    """Past the top of the scale ladder (2p+q = 24, l = 12), and below the
    smallest instance, the builders refuse; the table lacks all of it."""
    with pytest.raises(BadParameters):
        build(tag, **params)
    labels = [lab for lab, _ in _table_rows()]
    assert label(FAMILIES[tag].oracle, params) not in labels


@pytest.mark.parametrize("tag,params", [("hc", {"p": 1, "q": 7}), ("hh", {"p": 1, "q": 7}),
                                        ("bi", {"l": 7}), ("bi", {"l": 12})])
def test_the_table_stops_below_the_builders_bound(tag, params):
    """The builders reach past the table, which stays at 2p+q <= 8 and
    l <= 6; the oracle predicts the dims of such an instance all the
    same."""
    fam = build(tag, **params)
    labels = [lab for lab, _ in _table_rows()]
    assert label(FAMILIES[tag].oracle, params) not in labels
    row = table_expectation(FAMILIES[tag].oracle, **params)
    assert {d: n for d, n in row.dims.items() if d < 0} == fam.m.dims_by_degree()


def _centroid_case(get_prolongation, get_rebased, case):
    """(algebra, centroid dim, whether the commutant extends) of a case;
    the dimension is None for the algebra cases."""
    if case in _ALGEBRA_CASES:
        return _algebra_case(get_prolongation, case).algebra, None, True
    if case == "hh12":
        return get_prolongation("hh", p=1, q=2).algebra, 1, True
    if case == "hh12-rebased":
        return full_prolongation(*get_rebased("hh", p=1, q=2)).algebra, 1, True
    if case == "hc21":
        return get_prolongation("hc", p=2, q=1).algebra, 1, True
    if case == "bi3":
        return get_prolongation("bi", l=3).algebra, 1, True
    if case == "hc11(C)":
        # graded and transitive: a complex simple algebra, commutant dim 4
        return _complexify(get_prolongation("hc", p=1, q=1).algebra), 2, True
    if case == "hc11+sl2":
        # sl2 in degree 0 kills g_{-1}: not transitive, so the commutant
        # of the adjoint maps
        return _direct_sum(get_prolongation("hc", p=1, q=1).algebra, _sl2()), 2, False
    if case == "h3+rotation":
        # transitive and generated by g_{-1}, but with no characteristic
        # element; R -> z is a centroid map that does not preserve degree
        return _h3_with_rotation(), 2, False
    if case == "sl2+sl2":
        return _sl2_plus_sl2(), 2, False
    return _sl2_complex_as_real(), 2, False


# the algebra cases of dimension at most 24, where the dense solve is cheap
_SMALL_CASES = [
    case for case, (tag, params, _) in _ALGEBRA_CASES.items()
    if tag in ("bi", "g2", "counterexample") and params.get("l", 2) <= 3
    or tag.startswith(("hc", "hh")) and 2 * params["p"] + params["q"] <= 3
]


@pytest.mark.parametrize(
    "case",
    [
        "hh12", "hh12-rebased", "hc21", "bi3", "hc11(C)", "hc11+sl2", "h3+rotation",
        "sl2+sl2", "sl2c",
    ] + _SMALL_CASES,
)
def test_centroid_matches_the_full_solve(get_prolongation, get_rebased, case):
    A, dim, extends = _centroid_case(get_prolongation, get_rebased, case)
    n = A.n
    assert _determined_by_minus1(A) == extends
    want = Echelon(n * n).extend(_dense_system(A)).kernel_space()
    got = centroid(A)
    assert (got.basis, got.denominator, got.free) == (want.basis, want.denominator, want.free)
    assert dim is None or len(got) == dim


def _dense_system(A: GradedAlgebra):
    """The centroid rows phi([e, a_j]) - [e, phi(a_j)] = 0, one per
    coordinate, over every entry of phi, unknown phi[r][c] at column
    c*n + r, with integer entries read from the scaled adjacency of A.
    Refused above dimension 40."""
    n = A.n
    if n > 40:
        raise GlapError("dense centroid solve refused for dim > 40")
    ad = _scaled_adjacency(A)[1]
    for e in range(n):
        ade = ad[e]
        for j in range(n):
            comp: dict[int, dict[int, int]] = {}
            for m, c in ade.get(j, {}).items():
                for k in range(n):
                    comp.setdefault(k, {})[m * n + k] = c
            for r, cell in ade.items():
                for k, c in cell.items():
                    row = comp.setdefault(k, {})
                    row[j * n + r] = row.get(j * n + r, 0) - c
            for row in comp.values():
                row = {c: v for c, v in row.items() if v}
                if row:
                    yield row


def _reference_centroid(A, K):
    """The centroid as ``_centroid`` found it before it read the identity
    off: the residuals of the extension of every basis element of K
    solved together, and every basis map certified, scalar or not."""
    n = A.n
    ad = _scaled_adjacency(A)[1]
    if not _determined_by_minus1(A):
        C = Echelon(n * n).extend(_dense_system(A)).kernel_space("the centroid")
    else:
        maps = _extensions(A, K.basis)
        rows = {}
        for t, phi in enumerate(maps):
            for key, x in _residual(phi, n, ad).items():
                rows.setdefault(key, {})[t] = x
        span = []
        for coeffs in Echelon(len(maps)).extend(rows.values()).kernel_space().basis:
            w = {}
            for t, ct in coeffs.items():
                for k, x in maps[t].items():
                    w[k] = w.get(k, 0) + ct * x
            span.append(w)
        C = span_basis(span, n * n, "the centroid")
    assert not any(_residual(phi, n, ad) for phi in C.basis)
    return C


@pytest.mark.parametrize("case", list(_ALGEBRA_CASES) + ["hc11(C)", "hc11+sl2", "sl2+sl2"])
def test_centroid_matches_the_reference(get_prolongation, get_rebased, case):
    """The identity read off (dim K = 1), solved for the rest of K (hc
    and hc-split, dim K = 2; hc11(C), dim K = 4), and the dense path
    (hc11+sl2, sl2+sl2) against the solve of every element of K."""
    A, _, extends = _centroid_case(get_prolongation, get_rebased, case)
    K = commutant(degree_zero_action(A), len(A.by_degree().get(-1, [])))
    if case.startswith("hc-p2-q1"):
        assert len(K) == 2
    got, want = _centroid(A, K), _reference_centroid(A, K)
    assert (got.basis, got.denominator, got.free) == (want.basis, want.denominator, want.free)
    assert _determined_by_minus1(A) == extends


@pytest.mark.parametrize(
    "tag,params,module_class,built",
    [
        ("hh", {"p": 1, "q": 2}, "SI", 0),
        ("hc", {"p": 2, "q": 1}, "SII", 1),
        ("bi", {"l": 3}, "SIII", 3),
    ],
    ids=["SI", "SII", "SIII"],
)
def test_analyze_builds_only_the_boundary_matrices(
    monkeypatch, get_prolongation, tag, params, module_class, built
):
    """Every invariant of analyze runs on integer maps and rows: the only
    dense Mats it builds are the complex structure of an SII module, and
    for an SIII module the stacked split, its product with G and the cross
    block that isotropic_split_check reads."""
    prol = get_prolongation(tag, **params)
    _table_rows()  # built once per process, before the count
    built_now = []
    init = Mat.__init__

    def counted(self, rows):
        built_now.append(len(rows))
        init(self, rows)

    monkeypatch.setattr(Mat, "__init__", counted)
    assert analyze(prol).module_class == module_class
    assert len(built_now) == built


def _h3_with_rotation():
    """h3 with a degree 0 rotation R of g_{-1} that kills z: transitive and
    generated by g_{-1}, but no degree 0 element acts as -2 on z."""
    br = {(0, 1): {2: F(1)}, (0, 3): {1: F(-1)}, (1, 3): {0: F(1)}}
    return GradedAlgebra("h3+rot", ["x", "y", "z", "R"], [-1, -1, -2, 0], br)


@pytest.mark.parametrize(
    "case,exists",
    [("sl2", True), ("hc11", True), ("hc11-rebased", True), ("h3+rotation", False),
     ("no-degree-0", False)],
)
def test_characteristic_element_exists_exactly_when_the_system_is_consistent(
    get_prolongation, get_rebased, case, exists
):
    A = {
        "sl2": _graded_sl2,  # E = h/2
        "hc11": lambda: get_prolongation("hc", p=1, q=1).algebra,
        "hc11-rebased": lambda: full_prolongation(*get_rebased("hc", p=1, q=1)).algebra,
        "h3+rotation": _h3_with_rotation,
        "no-degree-0": lambda: _abelian([-1, -1]),
    }[case]()
    assert _has_characteristic(A) is exists


def test_complexification_and_direct_sum_verdicts(get_prolongation):
    hc11 = get_prolongation("hc", p=1, q=1).algebra
    AC = _complexify(hc11)
    assert len(commutant(degree_zero_action(AC), 4)) == 4
    assert is_simple(AC)
    B = _direct_sum(hc11, _sl2())
    assert B.n == 11 and is_semisimple(B)
    assert not is_simple(B)


def test_dense_solve_refuses_large_algebras(get_prolongation):
    # ho (dim 52) is graded, so only its sum with sl2, not transitive, is refused
    A = get_prolongation("ho").algebra
    assert len(centroid(A)) == 1
    with pytest.raises(GlapError, match="dim > 40"):
        centroid(_direct_sum(A, _sl2()))


def test_a_degree_zero_map_leaving_g_minus1_is_a_parse_error():
    # [x, u] = z: u in degree 0 sends x in g_{-1} to degree -2
    A = GradedAlgebra(
        "x+y+z+u", ["x", "y", "z", "u"], [-1, -1, -2, 0],
        {(0, 1): {2: F(1)}, (0, 3): {2: F(1)}},
    )
    for fn in (degree_zero_action, centroid):
        with pytest.raises(ParseError, match=r"bracket \[0, 3\] has a term in degree -2"):
            fn(A)


def _rejects(fn, *args):
    try:
        fn(*args)
    except GlapError:
        return True
    return False


def _perturbed_identity_is_rejected():
    """_verify_centroid on the centroid of hh(1,1) after one entry of its
    basis map has been changed."""
    fam = build("hh", p=1, q=1)
    A = full_prolongation(fam.m, fam.g).algebra
    C = centroid(A)
    (phi,) = C.basis
    phi = dict(phi)
    phi[A.n - 1] = phi.get(A.n - 1, 0) + C.denominator  # entry [n - 1][0]
    return _rejects(_verify_centroid, A, [phi])


def _degenerate_centroids_are_rejected():
    """_simple_from_centroid on an empty centroid and on a 2-dimensional
    one made of scalars."""
    return all(
        _rejects(_simple_from_centroid, C, 3)
        for C in ([], _int_maps([diag([1, 1, 1]), diag([2, 2, 2])]))
    )


def _non_extending_commutant_element_is_rejected():
    """_verify_centroid on the extension of each commutant element of
    hc(1,1): the commutant {1, J} has dimension 2 and the centroid 1, so the
    identity passes and J, which does not extend, is rejected."""
    fam = build("hc", p=1, q=1)
    A = full_prolongation(fam.m, fam.g).algebra
    K = commutant(degree_zero_action(A), 2)
    verdicts = []
    for M, phi in zip(K.basis, _extensions(A, K.basis)):
        verdicts.append((_is_scalar(M, 2), _rejects(_verify_centroid, A, [phi])))
    return sorted(verdicts) == [(False, True), (True, False)]


_CORRUPTION_CHECKS = (
    "_perturbed_identity_is_rejected",
    "_degenerate_centroids_are_rejected",
    "_non_extending_commutant_element_is_rejected",
)


def test_corrupted_centroid_is_rejected():
    for name in _CORRUPTION_CHECKS:
        assert globals()[name](), name


def test_corrupted_centroid_is_rejected_without_asserts():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        "import test_analysis\n"
        "for name in test_analysis._CORRUPTION_CHECKS:\n"
        "    if not getattr(test_analysis, name)():\n"
        "        sys.exit(name + ' failed')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_rebased_report_is_unchanged(get_rebased):
    # the report of the full centroid solve, before it came from the commutant
    want = {
        "name": "prol(hh(p=1,q=1).m)",
        "dims": {"-2": 3, "-1": 4, "0": 7, "1": 4, "2": 3},
        "total_dim": 21,
        "kind": 2,
        "max_degree": 2,
        "signature": [4, 0],
        "semisimple": True,
        "simple": True,
        "centroid_dim": 1,
        "module_class": "SI",
        "commutant_dim": 1,
        "matched_table_row": "HH(p=1,q=1): (C3, nodes [2]), CIIa",
        "warnings": [],
    }
    prol = full_prolongation(*get_rebased("hh", p=1, q=1))
    assert analyze(prol).to_json_dict() == want


def _reference_killing_form(A):
    """B(x, y) = tr(ad x ad y) in Fractions from the columns [e_i, e_j] of
    ``bracket_pair``, as killing_form computed it before it read the scaled
    adjacency; kept as the reference for the integer sums."""
    n = A.n
    ads = [{j: cell for j in range(n) if (cell := A.bracket_pair(i, j))} for i in range(n)]
    B = Mat.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            total = F(0)
            for a, cell in ads[j].items():
                for b, c in cell.items():
                    d = ads[i].get(b, {}).get(a)
                    if d:
                        total += c * d
            B.a[i][j] = B.a[j][i] = total
    return B


@pytest.mark.parametrize("case", ["hh11-rebased", "ho"])
def test_killing_form_matches_the_fraction_reference(get_prolongation, get_rebased, case):
    if case == "ho":
        A = get_prolongation("ho").algebra
    else:
        A = full_prolongation(*get_rebased("hh", p=1, q=1)).algebra
    assert _scaled_adjacency(A)[0] > 1  # the scaling is exercised
    assert _blocks_match_the_reference(A)


def test_killing_form_refuses_a_misgraded_algebra():
    """Summing only pairs of opposite degrees is right only on a graded
    algebra: here [x, z] has a term in degree -1 instead of -3, which
    makes B(x, x) = 2 although deg x + deg x = -2."""
    A = GradedAlgebra(
        "misgraded",
        ["x", "y", "z"],
        [-1, -1, -2],
        {(0, 1): {2: F(1)}, (0, 2): {1: F(1)}},
    )
    assert _reference_killing_form(A).a[0][0] == 2
    with pytest.raises(GlapError, match="degree"):
        killing_form(A)


def _pairwise_killing_form(A):
    """``killing_form`` as it summed before the inverted walk: every pair
    (i, c) of a block, each over all of ad e_c, with B_0 mirrored; kept as
    the reference for the integer blocks."""
    L, ads = _scaled_adjacency(A)
    by_deg = A.by_degree()
    blocks = {}
    for d, ix in by_deg.items():
        if d < 0:
            continue
        cols = by_deg.get(-d, [])
        rows = [{} for _ in ix]
        for r, i in enumerate(ix):
            adi = ads[i]
            for c in range(r if d == 0 else 0, len(cols)):
                total = 0
                for a, cell in ads[cols[c]].items():
                    for b, x in cell.items():
                        back = adi.get(b)
                        if back:
                            y = back.get(a)
                            if y:
                                total += x * y
                if total:
                    rows[r][c] = total
                    if d == 0:
                        rows[c][r] = total
        blocks[d] = rows
    return L * L, blocks


@pytest.mark.parametrize("case", [c for c, (_, _, seed) in _ALGEBRA_CASES.items() if seed in (None, 0)])
def test_inverted_killing_form_matches_the_pairwise_sums(get_prolongation, case):
    A = _algebra_case(get_prolongation, case).algebra
    assert killing_form(A) == _pairwise_killing_form(A)


def _reference_is_semisimple(A):
    """Whether the whole Fraction Killing form is nondegenerate, read from
    the zero count of its dense congruence diagonalization, which shares
    no code with ``Echelon``; kept as the reference for the degree blocks."""
    return signature_of_symmetric(_reference_killing_form(A))[2] == 0


@pytest.mark.parametrize("case", list(_ALGEBRA_CASES))
def test_block_determinant_matches_the_full_determinant(get_prolongation, case):
    A = _algebra_case(get_prolongation, case).algebra
    # the counterexample is the only non-semisimple case
    want = not case.startswith("counterexample")
    assert is_semisimple(A) == _reference_is_semisimple(A) == want


_DIGESTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "digests.json")


@pytest.mark.parametrize("tag,params", _VERDICT_CASES, ids=[_case_id(t, p) for t, p in _VERDICT_CASES])
def test_outputs_match_the_bench_digests(get_prolongation, tag, params):
    # the bench's hashes of the serialized prolongation and of the
    # sorted-keys analysis JSON, for the table rows and the ladder rungs
    with open(_DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh)
    want = stored["table" if (tag, params) in DEFAULT_ROWS else "ladder"][label(tag, params)]
    prol = get_prolongation(tag, **params)
    report = json.dumps(analyze(prol).to_json_dict(), sort_keys=True)
    assert {
        "prolongation": hashlib.sha256(prol.serialize().encode()).hexdigest(),
        "analysis": hashlib.sha256(report.encode()).hexdigest(),
    } == want


def _graded_sl2():
    """sl2 graded by ad h: f, h, e in degrees -1, 0, 1."""
    return GradedAlgebra(
        "sl2", ["f", "h", "e"], [-1, 0, 1],
        {(0, 1): {0: F(2)}, (0, 2): {1: F(-1)}, (1, 2): {2: F(2)}},
    )


def _abelian(degrees):
    return GradedAlgebra("ab", [f"a{i}" for i in range(len(degrees))], degrees, {})


@pytest.mark.parametrize(
    "A,verdict",
    [
        (_graded_sl2(), True),
        (_direct_sum(_graded_sl2(), _graded_sl2()), True),
        # dim g_1 = 2 against dim g_{-1} = 1: the cross block is not square
        (_direct_sum(_graded_sl2(), _abelian([1])), False),
        # a central degree 0 element: B_0 = diag(8, 0) is singular, C_1 = (4) is not
        (_direct_sum(_graded_sl2(), _abelian([0])), False),
        # central elements of degrees 1 and -1: C_1 = diag(4, 0) is singular, B_0 = (8) is not
        (_direct_sum(_graded_sl2(), _abelian([1, -1])), False),
    ],
    ids=["sl2", "sl2+sl2", "unequal-opposite-dims", "singular-B0", "singular-C1"],
)
def test_block_determinant_on_synthetic_gradings(A, verdict):
    assert is_semisimple(A) == _reference_is_semisimple(A) == verdict
