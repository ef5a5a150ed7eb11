import functools
import json
import os
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from glap import gla
from glap.cli import DEFAULT_ROWS
from glap.errors import (
    DegenerateForm,
    DimensionMismatch,
    GlapError,
    NonNegativeDegreePresent,
    NotSymmetric,
    ParseError,
)
from glap.gla import (
    GradedAlgebra,
    SymBilinearForm,
    _jacobi_residuals,
    _scaled_adjacency,
    check_fundamental,
    check_gla,
    deserialize,
    deserialize_form,
    dumps,
    format_rational,
    parse_rational,
    transitivity_check,
)
from glap.families import FAMILIES, build, label
from glap.linalg import Mat
from glap.prolongation import full_prolongation

from conftest import diag
from test_prolongation import _bench_rebase

F = Fraction


def _reference_check_gla(A, max_violations=100):
    """The plain triple loop over every i < j < k in Fraction arithmetic,
    kept as the reference the integer sweep of ``check_gla`` is compared
    against."""
    violations = []
    count = 0

    def note(v):
        nonlocal count
        count += 1
        if len(violations) < max_violations:
            violations.append(v)

    for (i, j), cell in sorted(A.brackets.items()):
        want = A.degrees[i] + A.degrees[j]
        for k in cell:
            if A.degrees[k] != want:
                note({"type": "grading", "pair": [i, j], "index": k,
                      "degree": A.degrees[k], "expected": want})
    grading_ok = count == 0
    jac_start = count
    n = A.n
    ads = [{j: cell for j in range(n) if (cell := A.bracket_pair(i, j))} for i in range(n)]

    def apply(ad, vec):
        out = {}
        for j, b in vec.items():
            for k, c in ad.get(j, {}).items():
                out[k] = out.get(k, F(0)) + b * c
        return out

    for i in range(n):
        for j in range(i + 1, n):
            bij = A.bracket_pair(i, j)
            for k in range(j + 1, n):
                # [[ei,ej],ek] - [ei,[ej,ek]] + [ej,[ei,ek]] = 0
                acc = {}
                for m, c in bij.items():
                    for t, d in A.bracket_pair(m, k).items():
                        acc[t] = acc.get(t, F(0)) + c * d
                for t, d in apply(ads[i], A.bracket_pair(j, k)).items():
                    acc[t] = acc.get(t, F(0)) - d
                for t, d in apply(ads[j], A.bracket_pair(i, k)).items():
                    acc[t] = acc.get(t, F(0)) + d
                acc = {t: c for t, c in acc.items() if c}
                if acc:
                    note({"type": "jacobi", "triple": [i, j, k],
                          "residual": {t: format_rational(c) for t, c in sorted(acc.items())}})
    return {
        "grading_ok": grading_ok,
        "jacobi_ok": count == jac_start,
        "violations": violations,
        "violation_count": count,
    }


def test_rational_string_convention():
    assert format_rational(F(3, 2)) == "3/2"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-1, 3)) == "-1/3"
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-7") == F(-7)


@pytest.mark.parametrize("bad", ["", "1/0", "x", "1/2/3", "1e10000000", "1.5", " 1"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_bracket_pair_defining_relation(h3):
    assert h3.bracket_pair(0, 1) == {2: F(1)}
    assert h3.bracket_pair(0, 2) == {}


def test_bracket_pair_is_antisymmetric(h3):
    for i in range(3):
        assert h3.bracket_pair(i, i) == {}
        for j in range(3):
            assert h3.bracket_pair(j, i) == {k: -c for k, c in h3.bracket_pair(i, j).items()}


def test_check_gla_clean_on_heisenberg(h3):
    rep = check_gla(h3)
    assert rep["grading_ok"] and rep["jacobi_ok"]
    assert rep["violation_count"] == 0


def test_check_gla_flags_grading_violation():
    # [X, Z] = X has degree -3 on the left and -1 on the right
    A = GradedAlgebra(
        "bogus",
        ["X", "Y", "Z"],
        [-1, -1, -2],
        {(0, 1): {2: F(1)}, (0, 2): {0: F(1)}},
    )
    rep = check_gla(A)
    assert not rep["grading_ok"]
    assert any(v["type"] == "grading" for v in rep["violations"])


def test_check_gla_finds_jacobi_violation_by_triple_scan():
    A = GradedAlgebra(
        "nonjacobi",
        ["a", "b", "c", "d"],
        [-1, -1, -2, -3],
        {(0, 1): {2: F(1)}, (0, 2): {3: F(1)}, (1, 3): {0: F(1)}},
    )
    rep = check_gla(A)
    assert not rep["jacobi_ok"]
    jac = [v for v in rep["violations"] if v["type"] == "jacobi"]
    assert jac and any(tuple(v["triple"]) == (0, 1, 2) for v in jac)


def test_fundamental_heisenberg(h3):
    assert check_fundamental(h3) == (True, 2)


def test_fundamental_rejects_abelian_two_step():
    A = GradedAlgebra("ab", ["x", "z"], [-1, -2], {})
    assert check_fundamental(A) == (False, 2)


def test_fundamental_needs_negative_degrees(h3):
    A = GradedAlgebra("pos", ["x", "e"], [-1, 0], {})
    with pytest.raises(NonNegativeDegreePresent):
        check_fundamental(A)


def test_fundamental_on_bi3_negative_part(get_family):
    m = get_family("bi", l=3).m
    assert check_fundamental(m) == (True, 3)


def test_dims_by_degree(h3, get_family):
    assert h3.dims_by_degree() == {-2: 1, -1: 2}
    ho = get_family("ho")
    assert ho.m.dims_by_degree() == {-2: 7, -1: 8}


def test_round_trip_bi3(get_family):
    m = get_family("bi", l=3).m
    again = deserialize(m.serialize())
    assert again.to_json_dict() == m.to_json_dict()


def test_deserialize_reports_position_on_bad_json():
    with pytest.raises(ParseError) as exc:
        deserialize("{\n  broken")
    assert "line" in str(exc.value)


@pytest.mark.parametrize(
    "doc",
    [
        {"labels": ["x"], "degrees": [-1], "brackets": []},  # missing name
        {"name": "a", "labels": ["x"], "degrees": [-1, -2], "brackets": []},
        {"name": "a", "labels": ["x", "y"], "degrees": [-1, -1],
         "brackets": [[1, 0, [[0, "1"]]]]},  # i >= j
        {"name": "a", "labels": ["x", "y"], "degrees": [-1, -1],
         "brackets": [[0, 1, [[5, "1"]]]]},  # target out of range
        {"name": "a", "labels": ["x", "y"], "degrees": [-1, -1],
         "brackets": [[0, 1, [[0, "1/0"]]]]},
    ],
)
def test_deserialize_rejects_malformed_documents(doc):
    with pytest.raises((ParseError, DimensionMismatch)):
        deserialize(json.dumps(doc))


def test_brackets_never_land_below_the_kind(get_family):
    for tag, params in [("bi", {"l": 3}), ("counterexample", {}), ("g2", {})]:
        m = get_family(tag, **params).m
        mu = -min(m.degrees)
        for (i, j), cell in m.brackets.items():
            d = m.degrees[i] + m.degrees[j]
            if d < -mu:
                assert not cell, f"{tag}: bracket ({i},{j}) lands below degree -{mu}"


def test_form_requires_symmetry_and_nondegeneracy():
    with pytest.raises(NotSymmetric):
        SymBilinearForm("a", [0, 1], Mat([[0, 1], [2, 0]]))
    with pytest.raises(DegenerateForm):
        SymBilinearForm("a", [0, 1], Mat([[1, 0], [0, 0]]))
    # no zero entry, rank 2: the third row is the sum of the first two
    with pytest.raises(DegenerateForm):
        SymBilinearForm("a", [0, 1, 2], Mat([[1, 2, 3], [2, F(1, 2), F(5, 2)], [3, F(5, 2), F(11, 2)]]))


def test_form_keeps_its_own_gram_matrix():
    """An edit of the caller's matrix after construction leaves the form,
    and so the nondegeneracy certified at construction, as it was."""
    G = Mat([[1, 0], [0, 1]])
    g = SymBilinearForm("a", [0, 1], G)
    G.a[1][1] = F(0)
    assert g.matrix == diag([1, 1])
    assert deserialize_form(g.serialize()).matrix == g.matrix


def test_form_round_trip(get_family):
    g = get_family("bi", l=2).g
    again = deserialize_form(g.serialize())
    assert again.to_json_dict() == g.to_json_dict()
    assert again.signature() == g.signature()


def test_json_dicts_are_copies():
    """Editing what ``to_json_dict`` returns leaves the algebra and the
    form as they were."""
    fam = build("hc", p=1, q=1)
    before = (fam.m.serialize(), fam.g.serialize())
    d = fam.m.to_json_dict()
    d["labels"].append("w")
    d["degrees"][0] = 7
    fam.g.to_json_dict()["degree_minus1_indices"].append(99)
    assert (fam.m.serialize(), fam.g.serialize()) == before


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**80, 10**80) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(_JSON_VALUES)
def test_dumps_is_json_dumps_with_indent_1(obj):
    assert dumps(obj) == json.dumps(obj, indent=1)


def test_dumps_pins_the_edge_cases():
    obj = {"": [], "a\u00e9\n\"\\": {}, "k": [[], [{}], [1, "\u2028", -12345678901234567890],
                                         [True, None, 1.5, "x"], {"": None}]}
    assert dumps(obj) == json.dumps(obj, indent=1)
    assert dumps([]) == "[]" and dumps("\u00e9") == '"\\u00e9"' and dumps(-7) == "-7"


def test_dumps_writes_the_registry_as_json_does(get_family, get_prolongation):
    """Every registry instance's m, g and ambient, and the prolongations of
    the table rows and ladder rungs."""
    docs = []
    for tag, spec in FAMILIES.items():
        for params in spec.instances:
            fam = get_family(tag, **params)
            docs += [x.to_json_dict() for x in (fam.m, fam.g, fam.ambient) if x is not None]
    for tag, params in list(DEFAULT_ROWS) + [("hh", {"p": 1, "q": 3}), ("hc", {"p": 3, "q": 1})]:
        docs.append(get_prolongation(tag, **params).to_json_dict())
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, indent=1), doc["name"]


def _doc(*cells):
    return {"name": "a", "labels": ["x", "y", "z", "w"], "degrees": [-1, -1, -2, -2],
            "brackets": [list(cell) for cell in cells]}


def test_each_document_parses_a_rational_string_once(monkeypatch):
    calls = []
    parse = gla.parse_rational

    def counted(s, where=""):
        calls.append(s)
        return parse(s, where)

    monkeypatch.setattr(gla, "parse_rational", counted)
    text = json.dumps(_doc([0, 1, [[2, "2/4"], [3, "1/2"]]], [0, 2, [[3, "1/2"]]],
                           [1, 2, [[3, 1]]], [1, 3, [[2, "2/4"]]]))
    A = deserialize(text)
    assert A.brackets[(0, 1)] == {2: F(1, 2), 3: F(1, 2)}
    assert A.brackets[(0, 2)] == {3: F(1, 2)} and A.brackets[(1, 3)] == {2: F(1, 2)}
    assert calls == ["2/4", "1/2", 1]
    # a second document does not see the strings of the first
    deserialize(text)
    assert calls == ["2/4", "1/2", 1] * 2
    calls.clear()
    g = deserialize_form(json.dumps(
        {"algebra": "a", "degree_minus1_indices": [0, 1], "matrix": [["1/2", "0"], ["0", "1/2"]]}))
    assert g.matrix == diag([F(1, 2), F(1, 2)]) and calls == ["1/2", "0"]


def test_a_repeated_bad_rational_is_reported_at_its_first_position():
    text = json.dumps(_doc([0, 1, [[2, "1"]]], [0, 2, [[3, "1"], [2, "x/2"]]],
                           [1, 2, [[3, "x/2"]]]))
    with pytest.raises(ParseError, match=r"brackets\[1\] term 1"):
        deserialize(text)
    with pytest.raises(ParseError, match=r"matrix\[0\]\[1\]"):
        deserialize_form(json.dumps(
            {"algebra": "a", "degree_minus1_indices": [0, 1], "matrix": [["1", "1e9"], ["1e9", "1"]]}))


def test_form_scaling():
    g = SymBilinearForm("a", [0, 1], diag([1, 1]))
    h = SymBilinearForm(g.algebra_name, g.indices, Mat([[F(-3) * x for x in row] for row in g.matrix.a]))
    assert h.matrix == diag([-3, -3])
    assert h.signature() == (0, 2)


def test_negative_part_keeps_labels(get_family):
    amb = get_family("hc", p=1, q=1).ambient
    neg = amb.negative_part("neg")
    assert neg.n == 3
    assert all(d < 0 for d in neg.degrees)
    assert neg.labels == [amb.labels[i] for i in range(amb.n) if amb.degrees[i] < 0]


def _copy(A):
    return GradedAlgebra(A.name, A.labels, A.degrees,
                         {key: dict(cell) for key, cell in A.brackets.items()})


_RUNGS = [("hh", {"p": 1, "q": 3}), ("hc", {"p": 3, "q": 1})]
_TABLE = list(DEFAULT_ROWS) + _RUNGS


@pytest.mark.parametrize(
    "tag,params", _TABLE,
    ids=[t + "".join(f"-{k}{v}" for k, v in p.items()) for t, p in _TABLE],
)
def test_sweep_matches_the_reference_on_table_algebras(get_family, get_prolongation, tag, params):
    fam = get_family(tag, **params)
    algebras = [fam.m, get_prolongation(tag, **params).algebra]
    if fam.ambient is not None:
        algebras.append(fam.ambient)
    for A in algebras:
        rep = check_gla(A)
        assert rep == _reference_check_gla(A)
        assert rep["jacobi_ok"] and rep["grading_ok"]


def test_sweep_matches_the_reference_with_fractional_constants(get_rebased):
    m, g = get_rebased("hh", p=1, q=1)
    A = full_prolongation(m, g).algebra
    # the lcm of the denominators is not 1, so the sweep scales by L > 1
    assert any(c.denominator > 1 for cell in A.brackets.values() for c in cell.values())
    assert check_gla(A) == _reference_check_gla(A)


def test_sweep_matches_the_reference_on_a_denominator_3_perturbation(get_prolongation):
    A = _copy(get_prolongation("hh", p=1, q=1).algebra)
    key = sorted(A.brackets)[len(A.brackets) // 2]
    k = min(A.brackets[key])
    A.brackets[key][k] += F(1, 3)
    rep = check_gla(A)
    assert rep["grading_ok"] and not rep["jacobi_ok"]
    assert any("/3" in r or "/9" in r for v in rep["violations"] for r in v["residual"].values())
    assert rep == _reference_check_gla(A)


def test_sweep_matches_the_reference_with_an_off_grade_term(get_prolongation):
    A = _copy(get_prolongation("hc", p=2, q=1).algebra)
    (i, j), cell = next((key, cell) for key, cell in sorted(A.brackets.items())
                        if A.degrees[key[0]] + A.degrees[key[1]] == -1)
    off = next(k for k in range(A.n) if A.degrees[k] == 0)
    cell[off] = F(2, 3)
    rep = check_gla(A)
    assert not rep["grading_ok"] and not rep["jacobi_ok"]
    kinds = [v["type"] for v in rep["violations"]]
    assert kinds[0] == "grading" and "jacobi" in kinds
    assert rep == _reference_check_gla(A)


def test_sweep_caps_the_list_and_counts_exactly(get_prolongation):
    A = _copy(get_prolongation("hh", p=1, q=2).algebra)
    for key in sorted(A.brackets)[::7]:
        cell = A.brackets[key]
        k = min(cell)
        cell[k] = 2 * cell[k]
    rep = check_gla(A)
    assert rep["violation_count"] > 100
    assert len(rep["violations"]) == 100
    assert rep == _reference_check_gla(A)
    small = check_gla(A, max_violations=3)
    assert small == _reference_check_gla(A, max_violations=3)
    assert small["violations"] == rep["violations"][:3]


@pytest.mark.parametrize(
    "brackets,residual",
    [
        # [b, c] = d, [a, d] = e: residual -[a, [b, c]] = -e, c adjacent to b only
        ({(1, 2): {3: F(1)}, (0, 3): {4: F(1)}}, {4: "-1"}),
        # [a, c] = d, [b, d] = e: residual [b, [a, c]] = e, c adjacent to a only
        ({(0, 2): {3: F(1)}, (1, 3): {4: F(1)}}, {4: "1"}),
    ],
    ids=["adjacent-to-j", "adjacent-to-i"],
)
def test_sweep_visits_triples_with_a_zero_first_bracket(brackets, residual):
    # [a, b] = 0 in both, so (a, b, c) is swept only through c's adjacency
    A = GradedAlgebra("skip", ["a", "b", "c", "d", "e"], [-1, -1, -1, -2, -3], brackets)
    rep = check_gla(A)
    assert rep == _reference_check_gla(A)
    jac = [v for v in rep["violations"] if v["type"] == "jacobi"]
    assert [v["triple"] for v in jac] == [[0, 1, 2]]
    assert jac[0]["residual"] == residual


def _reduced_clean(A):
    """(transitive, the reduced triple set has no residual)."""
    ad = _scaled_adjacency(A)[1]
    return transitivity_check(A), next(_jacobi_residuals(A, ad, reduced=True), None) is None


def test_default_rows_and_the_ladder_take_the_reduced_sweep(get_family, get_prolongation):
    for tag, params in _TABLE:
        fam = get_family(tag, **params)
        for A in (fam.ambient, get_prolongation(tag, **params).algebra):
            if A is not None:
                assert _reduced_clean(A) == (True, True), (tag, params, A.name)


# one bracket per class, chosen by the degrees of its pair
_PLANT = {
    "minus1-argument": lambda a, b: sorted((a, b)) == [-1, 0],
    "inside-m": lambda a, b: a < 0 and b < 0,
    "degree-0-pair": lambda a, b: a == b == 0,
    "positive-pair": lambda a, b: a > 0 and b > 0,
}


def _planted(A, cls, plants=_PLANT):
    """A copy of A whose bracket [e_i, e_j], for the first pair i < j in
    class ``cls`` of ``plants`` that adds up to a degree of A, gains 1/7 on
    e_k, the first basis element of that degree; the grading still holds."""
    A = _copy(A)
    degs = A.degrees
    i, j = next((i, j) for i in range(A.n) for j in range(i + 1, A.n)
                if plants[cls](degs[i], degs[j]) and degs[i] + degs[j] in degs)
    k = degs.index(degs[i] + degs[j])
    cell = A.brackets.setdefault((i, j), {})
    cell[k] = cell.get(k, 0) + F(1, 7)
    assert cell[k]
    return A


def _outside_reduced_set(A, triple):
    d = [A.degrees[t] for t in triple]
    return -1 not in d and sum(d) >= 0


@pytest.mark.parametrize("cls", list(_PLANT))
@pytest.mark.parametrize("tag,params", [("hc", {"p": 1, "q": 1}), ("bi", {"l": 3})],
                         ids=["hc-p1-q1", "bi-l3"])
def test_planted_violation_is_caught_by_the_reduced_sweep(get_prolongation, tag, params, cls):
    A = _planted(get_prolongation(tag, **params).algebra, cls)
    transitive, clean = _reduced_clean(A)
    assert transitive and not clean
    rep = check_gla(A)
    assert rep["grading_ok"] and not rep["jacobi_ok"]
    assert rep == _reference_check_gla(A)
    if cls in ("degree-0-pair", "positive-pair"):
        # triples of nonnegative degrees fail too, and the reduced set never
        # visits them: the derivation condition of ad e, e in g_{-1}, is what
        # sees them (in hc(1,1), [g_1, g_1] meets no triple of negative
        # total degree at all)
        every = _reference_check_gla(A, max_violations=rep["violation_count"])["violations"]
        assert any(_outside_reduced_set(A, v["triple"]) for v in every)


# brackets whose pair holds no degree -1 element and has negative total
# degree: the triples of negative total degree without a degree -1 element,
# which the reduced set no longer visits, see each of these
_PLANT_BELOW = {
    "minus2-with-0": lambda a, b: sorted((a, b)) == [-2, 0],
    "minus2-with-1": lambda a, b: sorted((a, b)) == [-2, 1],
    "minus3-with-1": lambda a, b: sorted((a, b)) == [-3, 1],
}


@pytest.mark.parametrize("tag,params,cls", [
    ("bi", {"l": 3}, "minus2-with-0"),
    ("bi", {"l": 3}, "minus3-with-1"),
    ("ho", {}, "minus2-with-0"),
    ("ho", {}, "minus2-with-1"),
], ids=["bi-l3-minus2-with-0", "bi-l3-minus3-with-1", "ho-minus2-with-0", "ho-minus2-with-1"])
def test_plant_off_the_degree_minus1_triples_is_caught(get_prolongation, tag, params, cls):
    """The plant keeps A graded, transitive and generated by g_{-1}, so
    check_gla takes the reduced path, which visits triples that hold a
    degree -1 element only; the identity of its theorem makes one of them
    fail, and the report is still the full reference."""
    A = _planted(get_prolongation(tag, **params).algebra, cls, _PLANT_BELOW)
    assert gla._reached_by_minus1(A, lambda d: d != -1)
    ad = _scaled_adjacency(A)[1]
    seen = [(i, j, k) for i, j, k, _ in _jacobi_residuals(A, ad, reduced=True)]
    assert seen and all(-1 in (A.degrees[i], A.degrees[j], A.degrees[k]) for i, j, k in seen)
    rep = check_gla(A)
    assert rep["grading_ok"] and not rep["jacobi_ok"]
    assert rep == _reference_check_gla(A)
    every = _reference_check_gla(A, max_violations=rep["violation_count"])["violations"]
    assert any(-1 not in [A.degrees[t] for t in v["triple"]]
               and sum(A.degrees[t] for t in v["triple"]) < 0 for v in every)


def test_plant_off_the_degree_minus1_triples_is_caught_without_asserts(get_prolongation):
    A = _planted(get_prolongation("bi", l=3).algebra, "minus2-with-0", _PLANT_BELOW)
    script = """
import json, sys
from glap.gla import check_gla, deserialize
print(json.dumps(check_gla(deserialize(sys.stdin.read()))))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=A.serialize(),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert not rep["jacobi_ok"]
    assert rep == json.loads(json.dumps(_reference_check_gla(A)))


def test_fundamental_negative_algebra_takes_the_reduced_sweep(get_family):
    """A fundamental m has no degree >= 0, and the identity alone decides
    it from the triples that hold a degree -1 element."""
    m = get_family("bi", l=3).m
    assert gla._reached_by_minus1(m, lambda d: d != -1)
    assert _reduced_clean(m)[1]
    assert check_gla(m) == _reference_check_gla(m)


@st.composite
def _graded_skew_algebras(draw):
    """A graded skew bracket, Lie or not, with degrees in -3..2 in any
    order and small integer constants, most of them nonzero."""
    degs = draw(st.lists(st.integers(-3, 2), min_size=3, max_size=8))
    n = len(degs)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            ks = [k for k in range(n) if degs[k] == degs[i] + degs[j]]
            cell = {k: F(draw(st.integers(-2, 2))) for k in ks}
            if any(cell.values()):
                brackets[(i, j)] = cell
    return GradedAlgebra("random", [f"e{i}" for i in range(n)], degs, brackets)


@settings(max_examples=100, deadline=None)
@given(_graded_skew_algebras(), st.integers(-4, 3))
def test_the_reduced_sweep_is_the_full_one_on_degree_minus1_triples(A, top):
    """``_jacobi_residuals`` with ``reduced`` yields the residuals of the
    full sweep on the triples that hold a degree -1 element, in order, and
    with ``top`` those of them of total degree at most ``top``."""
    ad = _scaled_adjacency(A)[1]
    degs = A.degrees
    full = [(i, j, k, acc) for i, j, k, acc in _jacobi_residuals(A, ad)
            if -1 in (degs[i], degs[j], degs[k])]
    assert list(_jacobi_residuals(A, ad, reduced=True)) == full
    assert list(_jacobi_residuals(A, ad, reduced=True, top=top)) == [
        r for r in full if degs[r[0]] + degs[r[1]] + degs[r[2]] <= top]


def test_the_m_pair_sweep_is_the_reduced_one_on_pairs_of_m(get_prolongation):
    """On the prolongation of hh(1,2) with one coefficient of an action of
    g_1 on g_-1 changed, ``_jacobi_residuals`` with ``below`` = dim m
    yields the residuals of the reduced sweep whose two lowest-indexed
    elements lie in m: the same triples, and the same coefficients once
    each is decoded at its own slot width."""
    A0 = get_prolongation("hh", p=1, q=2).algebra
    by_deg = A0.by_degree()
    below = sum(len(by_deg[d]) for d in by_deg if d < 0)
    key = (by_deg[-1][0], by_deg[1][0])
    cell = dict(A0.brackets[key])
    cell[min(cell)] += 1
    A = GradedAlgebra(A0.name, A0.labels, A0.degrees, {**A0.brackets, key: cell})
    ad = _scaled_adjacency(A)[1]
    W, Wm = gla._slot_width(ad), gla._slot_width(ad[:below])
    want = [(i, j, k, gla._decode(r, W)) for i, j, k, r in _jacobi_residuals(A, ad, reduced=True)
            if j < below]
    got = [(i, j, k, gla._decode(r, Wm))
           for i, j, k, r in _jacobi_residuals(A, ad, reduced=True, below=below)]
    assert got == want and len(got) > 0


# -- the residual kernel against the dict sweep it replaced ----------------


def _reference_misgraded(A):
    """The misgraded terms, by sorting every cell's pair."""
    for (i, j), cell in sorted(A.brackets.items()):
        for k in cell:
            if A.degrees[k] != A.degrees[i] + A.degrees[j]:
                yield i, j, k


def _reference_jacobi_residuals(A, ad, reduced=False, top=None):
    """The sweep that builds one dict per triple: (i, j, k, acc) with acc
    mapping t to L**2 times the t-th coefficient, zeros kept."""
    n = A.n
    degs = A.degrees
    present = A.by_degree()
    thirds = {}
    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            adj = ad[j]
            bij = adi.get(j)
            if reduced:
                key = degs[i], degs[j]
                if key not in thirds:
                    s = key[0] + key[1]
                    ok = {d for d in present if s + d in present and -1 in (d, *key)
                          and (top is None or s + d <= top)}
                    thirds[key] = ok, [k for k in range(n) if degs[k] in ok]
                ok, allowed = thirds[key]
                if bij:
                    ks = islice(allowed, bisect_right(allowed, j), None)
                else:
                    ks = sorted(k for k in adi.keys() | adj.keys() if k > j and degs[k] in ok)
            elif bij:
                ks = range(j + 1, n)
            else:
                ks = sorted(k for k in adi.keys() | adj.keys() if k > j)
            for k in ks:
                acc = {}
                if bij:
                    for m, c in bij.items():
                        for t, d in ad[m].get(k, {}).items():
                            acc[t] = acc.get(t, 0) + c * d
                for m, c in adj.get(k, {}).items():
                    for t, d in adi.get(m, {}).items():
                        acc[t] = acc.get(t, 0) - c * d
                for m, c in adi.get(k, {}).items():
                    for t, d in adj.get(m, {}).items():
                        acc[t] = acc.get(t, 0) + c * d
                if any(acc.values()):
                    yield i, j, k, acc


def _reference_report(A, L, grading, residuals, max_violations):
    violations = [
        {"type": "grading", "pair": [i, j], "index": k, "degree": A.degrees[k],
         "expected": A.degrees[i] + A.degrees[j]}
        for i, j, k in islice(grading, max_violations)
    ]
    count = jac_start = len(grading)
    for i, j, k, acc in residuals:
        count += 1
        if len(violations) < max_violations:
            residual = {t: format_rational(F(r, L * L)) for t, r in sorted(acc.items()) if r}
            violations.append({"type": "jacobi", "triple": [i, j, k], "residual": residual})
    return {"grading_ok": not grading, "jacobi_ok": count == jac_start,
            "violations": violations, "violation_count": count}


def _reference_check(A, max_violations=100, top=None):
    """``check_gla`` over the dict sweep, with the same choice of sweep."""
    grading = list(_reference_misgraded(A))
    L, ad = _scaled_adjacency(A)
    if top is not None:
        residuals = _reference_jacobi_residuals(A, ad, reduced=True, top=top)
        return _reference_report(A, L, grading, residuals, max_violations)
    if not grading and gla._reached_by_minus1(A, lambda d: d != -1):
        if next(_reference_jacobi_residuals(A, ad, reduced=True), None) is None:
            return _reference_report(A, L, (), (), max_violations)
    return _reference_report(A, L, grading, _reference_jacobi_residuals(A, ad), max_violations)


_DIFF_CASES = {
    "hc-p1-q1": ("hc", {"p": 1, "q": 1}, None),
    "bi-l2": ("bi", {"l": 2}, None),
    "hh-p1-q1": ("hh", {"p": 1, "q": 1}, None),
    "g2": ("g2", {}, None),
    "hh-p1-q1-rebased0": ("hh", {"p": 1, "q": 1}, 0),
}


@functools.cache
def _diff_algebra(case):
    tag, params, seed = _DIFF_CASES[case]
    fam = build(tag, **params)
    m, g = fam.m, fam.g
    if seed is not None:
        rebase = _bench_rebase()
        m, g = rebase.rebase(m, g, rebase.instance_rng(seed, label(tag, params)))
    return full_prolongation(m, g).algebra


_NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


def _corrupt(A, data):
    """A copy of A with one hypothesis-drawn corruption: a coefficient
    changed, a term added (in any degree), a term dropped, or a coefficient
    set near 10**40."""
    brackets = {key: dict(cell) for key, cell in A.brackets.items()}
    kind = data.draw(st.sampled_from(["change", "add", "drop", "huge"]))
    if kind == "add":
        i, j = data.draw(st.sampled_from([(i, j) for i in range(A.n) for j in range(i + 1, A.n)]))
        cell = brackets.setdefault((i, j), {})
        k = data.draw(st.sampled_from([k for k in range(A.n) if k not in cell]))
        cell[k] = data.draw(_NONZERO)
    else:
        key = data.draw(st.sampled_from(sorted(brackets)))
        cell = brackets[key]
        k = data.draw(st.sampled_from(sorted(cell)))
        if kind == "change":
            cell[k] += data.draw(_NONZERO)
        elif kind == "drop":
            del cell[k]
        else:
            cell[k] = F(10**40 + data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(1, 3)))
    return GradedAlgebra(A.name, A.labels, A.degrees, brackets)


def _same_report(got, want):
    """Equal field for field, and in the same order once written."""
    assert got == want
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("case", list(_DIFF_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_packed_sweep_reports_what_the_dict_sweep_did(case, data):
    """Under one corruption of a prolongation, ``check_gla`` returns the
    report of the dict sweep it replaced, whichever sweep it takes and with
    ``top``; so do the full, reduced and ``top`` sweeps one by one, so a
    triple that the pair skip dropped would show as a missing violation.
    The grading list and ``require_graded``'s message are unchanged."""
    A = _corrupt(_diff_algebra(case), data)
    top = data.draw(st.integers(-2, max(A.degrees)))
    for cap in (100, 3):
        _same_report(check_gla(A, max_violations=cap), _reference_check(A, cap))
        _same_report(check_gla(A, max_violations=cap, top=top), _reference_check(A, cap, top))
    L, ad = _scaled_adjacency(A)
    grading = list(_reference_misgraded(A))
    assert gla._misgraded(A) == grading
    for kwargs in ({}, {"reduced": True}, {"reduced": True, "top": top}):
        got = gla._report(A, gla._misgraded(A), _jacobi_residuals(A, ad, **kwargs), 100)
        want = _reference_report(A, L, grading, _reference_jacobi_residuals(A, ad, **kwargs), 100)
        _same_report(got, want)
    if grading:
        i, j, k = grading[0]
        with pytest.raises(ParseError) as e:
            gla.require_graded(A)
        assert str(e.value) == (f"bracket [{i}, {j}] has a term in degree {A.degrees[k]}, "
                                f"expected {A.degrees[i] + A.degrees[j]}")


def test_misgraded_terms_under_top_are_reported_as_the_dict_sweep_did():
    # two misgraded terms in one cell, the higher index first: the report
    # keeps the cell's order
    A = _diff_algebra("hc-p1-q1")
    brackets = {key: dict(cell) for key, cell in A.brackets.items()}
    (i, j), cell = next((key, cell) for key, cell in sorted(brackets.items())
                        if A.degrees[key[0]] + A.degrees[key[1]] == -1)
    low, high = [k for k in range(A.n) if A.degrees[k] == 1][:2]
    cell[high] = F(5, 3)
    cell[low] = F(-1, 2)
    B = GradedAlgebra(A.name, A.labels, A.degrees, brackets)
    for top in (-1, 0, 1):
        rep = check_gla(B, top=top)
        assert [v["index"] for v in rep["violations"][:2]] == [high, low]
        _same_report(rep, _reference_check(B, top=top))
    assert not check_gla(B, top=1)["jacobi_ok"]


@pytest.mark.parametrize("b", [1, 7, 10**20])
def test_a_residual_at_the_slot_bound_is_reported_exactly(b):
    """Each of the three terms of J(x, y, z) adds b**2 to e_t, with one
    term per cell: the coefficient 3 w b**2 that the slot width is set by."""
    x, y, z, u, v, w, t = range(7)
    brackets = {(x, y): {u: F(b)}, (z, u): {t: F(-b)}, (y, z): {v: F(b)},
                (x, v): {t: F(-b)}, (x, z): {w: F(b)}, (y, w): {t: F(b)}}
    A = GradedAlgebra("bound", list("xyzuvwt"), [0] * 7, brackets)
    rep = check_gla(A)
    assert rep["violations"][0] == {"type": "jacobi", "triple": [x, y, z],
                                    "residual": {t: str(3 * b * b)}}
    _same_report(rep, _reference_check(A))
    assert rep == _reference_check_gla(A)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 12), st.integers(-10**30, 10**30), max_size=8),
       st.integers(1, 4))
def test_a_residual_decodes_to_its_coefficients(coeffs, w):
    """Coefficients below 2**(W - 1) in size pack into one integer that is
    0 only when they all are, and decode back, zeros dropped."""
    b = max(map(abs, coeffs.values()), default=0)
    W = (3 * w * b * b).bit_length() + 1
    r = sum(c << (W * t) for t, c in coeffs.items())
    assert (r == 0) == (not any(coeffs.values()))
    assert gla._decode(r, W) == {t: c for t, c in sorted(coeffs.items()) if c}
    assert list(gla._decode(r, W)) == sorted(t for t, c in coeffs.items() if c)


def _skew_brackets(n):
    """Random skew-symmetric brackets on Q^n with Fraction constants, Lie
    or not, as {(i, j): the coordinates of [e_i, e_j]} for i < j."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.lists(st.lists(coeff, min_size=n, max_size=n),
                    min_size=len(pairs), max_size=len(pairs)).map(
        lambda cells: dict(zip(pairs, cells)))


def _bracket(table, n, u, v):
    out = [F(0)] * n
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            if a and b and i != j:
                c, cell = (a * b, table[i, j]) if i < j else (-a * b, table[j, i])
                for k, x in enumerate(cell):
                    out[k] += c * x
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), _skew_brackets(n), st.lists(st.integers(0, n - 1), min_size=4, max_size=4))))
def test_the_jacobiator_identity_holds_for_any_skew_bracket(data):
    """The identity behind ``check_gla``'s theorem needs no Jacobi:
    [w,J(x,y,z)] - [x,J(w,y,z)] + [y,J(w,x,z)] - [z,J(w,x,y)]
    = J([w,x],y,z) - J([w,y],x,z) + J([w,z],x,y) + J([x,y],w,z)
      - J([x,z],w,y) + J([y,z],w,x).
    Both sides are multilinear, so basis elements w, x, y, z suffice."""
    n, table, picks = data
    w, x, y, z = ([F(int(t == p)) for t in range(n)] for p in picks)

    def br(u, v):
        return _bracket(table, n, u, v)

    def J(a, b, c):
        terms = (br(br(a, b), c), br(br(b, c), a), br(br(c, a), b))
        return [sum(t) for t in zip(*terms)]

    def combo(*signed):
        return [sum(s * v[t] for s, v in signed) for t in range(n)]

    lhs = combo((1, br(w, J(x, y, z))), (-1, br(x, J(w, y, z))),
                (1, br(y, J(w, x, z))), (-1, br(z, J(w, x, y))))
    rhs = combo((1, J(br(w, x), y, z)), (-1, J(br(w, y), x, z)), (1, J(br(w, z), x, y)),
                (1, J(br(x, y), w, z)), (-1, J(br(x, z), w, y)), (1, J(br(y, z), w, x)))
    assert lhs == rhs


def test_a_copy_made_after_caching_is_certified_on_its_own_brackets(get_prolongation):
    A = get_prolongation("hc", p=1, q=1).algebra
    cached = _scaled_adjacency(A)
    assert A._adj is cached  # the last step solve of full_prolongation built it
    for cls in _PLANT:
        rep = check_gla(_planted(A, cls))
        assert rep["grading_ok"] and not rep["jacobi_ok"], cls
    assert check_gla(A)["jacobi_ok"] and _scaled_adjacency(A) is cached


def test_degree_zero_algebra_takes_the_full_sweep():
    # no g_{-1}, so not transitive: [x, y] = w, [x, w] = -x breaks Jacobi
    A = GradedAlgebra("g0", ["x", "y", "w"], [0, 0, 0],
                      {(0, 1): {2: F(1)}, (0, 2): {0: F(-1)}})
    assert not transitivity_check(A)
    rep = check_gla(A)
    assert rep == _reference_check_gla(A)
    assert rep["violations"] == [{"type": "jacobi", "triple": [0, 1, 2], "residual": {2: "1"}}]


def test_negative_part_not_generated_by_degree_minus1_is_swept():
    # e in degree -1, a, b, c in degree -2 with [a, b] = u, [u, c] = -v
    # (degrees -4, -6), and the grading element E: transitive, but g_{-2}
    # is not [g_{-1}, g_{-1}], so ad a need not be a derivation and only
    # the triple (a, b, c), which holds no degree -1 element, shows J != 0.
    # The reduced set misses it, so check_gla must sweep every triple.
    degs = [-1, -2, -2, -2, -4, -6, 0]
    brackets = {(1, 2): {4: F(1)}, (3, 4): {5: F(-1)}}
    brackets.update({(x, 6): {x: F(-d)} for x, d in enumerate(degs[:6])})
    A = GradedAlgebra("nonfund", ["e", "a", "b", "c", "u", "v", "E"], degs, brackets)
    assert _reduced_clean(A) == (True, True)
    assert not gla._reached_by_minus1(A, lambda d: d != -1)
    rep = check_gla(A)
    assert rep == _reference_check_gla(A)
    assert [v["triple"] for v in rep["violations"]] == [[1, 2, 3]]


def _sl2_with_a_planted_bracket():
    """sl2 graded by ad h (f, h, e in degrees -1, 0, 1), with z in degree 0
    and e' in degree 1, both central, and then the planted bracket
    [e, z] = e'.  z and e' kill f, so the algebra is not transitive."""
    return GradedAlgebra(
        "sl2+z", ["f", "h", "z", "e", "e'"], [-1, 0, 0, 1, 1],
        {(0, 1): {0: F(2)}, (0, 3): {1: F(-1)}, (1, 3): {3: F(2)}, (2, 3): {4: F(-1)}},
    )


def test_central_degree_zero_element_takes_the_full_sweep():
    A = _sl2_with_a_planted_bracket()
    # every triple holding f is clean and none has negative total degree,
    # so only the full sweep finds J(h, z, e) = -2 e'
    assert _reduced_clean(A) == (False, True)
    rep = check_gla(A)
    assert rep == _reference_check_gla(A)
    assert rep["violations"] == [{"type": "jacobi", "triple": [1, 2, 3], "residual": {4: "-2"}}]


def test_planted_violation_is_caught_without_asserts(get_prolongation):
    A = _planted(get_prolongation("hc", p=1, q=1).algebra, "degree-0-pair")
    script = """
import json, sys
from glap.gla import check_gla, deserialize
print(json.dumps(check_gla(deserialize(sys.stdin.read()))))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=A.serialize(),
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout)
    assert not rep["jacobi_ok"]
    assert rep == json.loads(json.dumps(_reference_check_gla(A)))


def test_signature_of_a_degenerate_matrix_raises():
    g = SymBilinearForm("a", [0, 1], diag([1, 1]))
    g.matrix = Mat([[1, 0], [0, 0]])  # bypasses the check at construction
    with pytest.raises(GlapError, match="zero eigenvalues"):
        g.signature()
