import os
import subprocess
import sys
from fractions import Fraction

import pytest

from glap.analysis import (
    _centroid_system,
    _simple_from_centroid,
    _solve_to_identity_bound,
    _verify_centroid,
    analyze,
    centroid,
    classify_module,
    commutant,
    degree_zero_action,
    form_transport,
    is_semisimple,
    is_simple,
    isotropic_split_check,
    killing_form,
    match_table_row,
    rank_bound_check_split,
)
from glap.errors import (
    DegeneratePairing,
    GlapError,
    NoCartanTag,
    NotIsotropic,
    NotSemisimple,
)
from glap.families import build
from glap.gla import GradedAlgebra, _scaled_adjacency
from glap.linalg import Mat, signature_of_symmetric, sparse_kernel
from glap.prolongation import full_prolongation

F = Fraction


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


def _sl2_plus_sl2():
    br = {}
    for off in (0, 3):
        br[(off, off + 1)] = {off: F(-2)}
        br[(off, off + 2)] = {off + 1: F(1)}
        br[(off + 1, off + 2)] = {off + 2: F(-2)}
    return GradedAlgebra("sl2+sl2", list("abcdef"), [0] * 6, br)


def _sl2_complex_as_real():
    """sl(2,C) with basis e,h,f,ie,ih,if; real structure constants."""
    pairs = {(0, 1): (0, F(-2)), (0, 2): (1, F(1)), (1, 2): (2, F(-2))}
    br = {}
    for (i, j), (k, c) in pairs.items():
        br[(i, j)] = {k: c}  # [x, y]
        br[(i, j + 3)] = {k + 3: c}  # [x, iy]
        br[(j, i + 3)] = {k + 3: -c}  # [y, ix] = -[ix, y]
        br[(i + 3, j + 3)] = {k: -c}  # [ix, iy] = -[x, y]
    return GradedAlgebra("sl2c", ["e", "h", "f", "ie", "ih", "if"], [0] * 6, br)


def test_killing_form_of_sl2():
    B = killing_form(_sl2())
    assert B == Mat([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert signature_of_symmetric(B) == (2, 1, 0)


def test_nilpotent_algebra_has_zero_killing_form(h3):
    assert killing_form(h3) == Mat.zeros(3, 3)
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
    C = commutant([J], 2)
    assert len(C) == 2
    for phi in C:
        assert phi * J == J * phi


def test_classify_rotation_module_as_complex():
    J = Mat([[0, -1], [1, 0]])
    cls = classify_module([J], Mat.identity(2))
    assert cls.module_class == "SII"
    assert cls.complex_structure is not None
    S = cls.complex_structure
    c = (S * S).a[0][0]
    assert c < 0
    assert S * S == Mat.diag([c, c])


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
    mats = degree_zero_action(prol.algebra)
    cls = classify_module(mats, prol.form.matrix)
    assert cls.module_class == expected


def test_bi3_split_is_isotropic(get_prolongation):
    prol = get_prolongation("bi", l=3)
    cls = classify_module(degree_zero_action(prol.algebra), prol.form.matrix)
    assert cls.module_class == "SIII" and cls.split is not None
    V1, V2 = cls.split
    rep = isotropic_split_check(prol.form.matrix, V1, V2)
    assert rep["dims"] == (2, 2)
    assert rep["cross_pairing_det"] != 0


def test_g2_split_is_isotropic(get_prolongation):
    prol = get_prolongation("g2")
    cls = classify_module(degree_zero_action(prol.algebra), prol.form.matrix)
    V1, V2 = cls.split
    rep = isotropic_split_check(prol.form.matrix, V1, V2)
    assert rep["dims"] == (1, 1)
    assert rep["cross_pairing_det"] != 0


def test_isotropic_check_rejects_definite_forms():
    with pytest.raises(NotIsotropic):
        isotropic_split_check(
            Mat.identity(2), [[F(1), F(0)]], [[F(0), F(1)]]
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
        isotropic_split_check(Mat.identity(3), [[F(1), F(0), F(0)]], [])


def test_form_transport_verdicts():
    G = Mat.diag([1, 2])
    phi, verdict, lam = form_transport(G, Mat.diag([3, 6]))
    assert (verdict, lam) == ("proportional", 3)
    assert phi == Mat.diag([3, 3])
    _, verdict, lam = form_transport(G, Mat.diag([-1, -2]))
    assert (verdict, lam) == ("proportional", -1)
    _, verdict, lam = form_transport(Mat.identity(2), Mat.diag([1, 2]))
    assert verdict == "general" and lam is None


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
    rep = rank_bound_check_split(fam.cartan.dim, fam.g.signature())
    assert rep["ok"] is bound_ok


def test_rank_bound_requires_cartan_tag():
    with pytest.raises(NoCartanTag):
        rank_bound_check_split(None, (1, 1))


def test_rank_bound_can_fail():
    rep = rank_bound_check_split(5, (1, 1))
    assert not rep["ok"]


def test_killing_form_pairs_only_opposite_degrees(get_prolongation):
    prol = get_prolongation("hc", p=1, q=1)
    A = prol.algebra
    B = killing_form(A)
    for i in range(A.n):
        for j in range(A.n):
            if A.degrees[i] + A.degrees[j] != 0:
                assert B.a[i][j] == 0


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


@pytest.mark.parametrize("case", ["hh12", "hh12-rebased", "ho", "sl2+sl2", "sl2c"])
def test_centroid_matches_the_full_solve(get_prolongation, get_rebased, case):
    if case == "hh12":
        A = get_prolongation("hh", p=1, q=2).algebra
    elif case == "hh12-rebased":
        A = full_prolongation(*get_rebased("hh", p=1, q=2)).algebra
    elif case == "ho":
        A = get_prolongation("ho").algebra
    elif case == "sl2+sl2":
        A = _sl2_plus_sl2()
    else:
        A = _sl2_complex_as_real()
    # every centroid row, with no early stop
    rows, cells = _centroid_system(A, *_scaled_adjacency(A))
    kern = sparse_kernel(list(rows), len(cells))
    got = [[M.a[r][c] for r, c in cells] for M in centroid(A)]
    assert got == kern
    assert len(got) == (2 if case.startswith("sl2") else 1)


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
    (phi,) = centroid(A)
    phi.a[A.n - 1][0] += 1
    return _rejects(_verify_centroid, A, [phi], _scaled_adjacency(A)[1])


def _degenerate_centroids_are_rejected():
    """_simple_from_centroid on an empty centroid and on a 2-dimensional
    one made of scalars."""
    return all(
        _rejects(_simple_from_centroid, C, 3)
        for C in ([], [Mat.identity(3), 2 * Mat.identity(3)])
    )


def _row_the_identity_violates_is_rejected():
    """A centroid row that the identity map does not solve: phi[0][0] = 0."""
    cells = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return _rejects(_solve_to_identity_bound, iter([{0: F(1)}]), cells, 2)


_CORRUPTION_CHECKS = (
    "_perturbed_identity_is_rejected",
    "_degenerate_centroids_are_rejected",
    "_row_the_identity_violates_is_rejected",
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
    # the report of the full solve, before the centroid stopped early
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
    """B(x, y) = tr(ad x ad y) in Fractions from sparse_ad copies, as
    killing_form computed it before it read the scaled adjacency; kept as
    the reference for the integer sums."""
    n = A.n
    ads = [A.sparse_ad(i) for i in range(n)]
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
    assert killing_form(A) == _reference_killing_form(A)
