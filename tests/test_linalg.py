import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from glap.errors import GlapError, NotSymmetric
from glap.linalg import (
    _WINDOW,
    Echelon,
    Mat,
    _primitive,
    int_row,
    signature_of_symmetric,
    solve_square,
    span_basis,
    sparse_rank,
)

F = Fraction


def kernel_basis(M):
    """The canonical kernel basis of the dense matrix M as dense rows of
    Fractions, read from ``Echelon.kernel_space``."""
    space = Echelon(M.n).extend(int_row(dict(enumerate(r))) for r in M.a).kernel_space()
    return [[F(v.get(c, 0), space.denominator) for c in range(M.n)] for v in space.basis]


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Mat.diag([1, 1])) == []


def test_kernel_of_zero_matrix():
    vecs = kernel_basis(Mat.zeros(2, 2))
    assert vecs == [[F(1), F(0)], [F(0), F(1)]]


def test_kernel_of_rank_one_matrix():
    M = Mat([[1, 2, 3], [2, 4, 6]])
    assert kernel_basis(M) == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]


def test_kernel_vectors_have_unit_pivot_at_free_columns():
    M = Mat([[1, 2, 3], [2, 4, 6]])
    ech = Echelon(3)
    for row in M.a:
        ech.add(int_row(dict(enumerate(row))))
    free = ech.free_columns()
    for vec, f in zip(kernel_basis(M), free):
        assert vec[f] == 1
        # canonical form: zero at all other free columns
        for other in free:
            if other != f:
                assert vec[other] == 0


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_dim=5):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(
        st.lists(
            st.lists(small_entries, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return Mat(rows)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_exactness_and_rank_nullity(M):
    vecs = kernel_basis(M)
    for v in vecs:
        image = [sum(M.a[i][j] * v[j] for j in range(M.n)) for i in range(M.m)]
        assert all(x == 0 for x in image)
    assert M.rank() + len(vecs) == M.n


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(st.lists(small_entries, min_size=5, max_size=5), max_size=4))
def test_span_basis_is_the_canonical_kernel_basis(M, mix):
    """span_basis of any spanning set of a kernel, here random integer
    combinations of its canonical basis, is that canonical basis."""
    want = Echelon(M.n).extend(int_row(dict(enumerate(r))) for r in M.a).kernel_space()
    spanning = [
        {c: sum(w * v.get(c, 0) for w, v in zip(ws, want.basis)) for c in range(M.n)}
        for ws in mix
    ] + want.basis
    got = span_basis(spanning, M.n, "the span")
    assert (got.basis, got.denominator, got.free) == (want.basis, want.denominator, want.free)


def test_span_basis_scales_the_last_entry_to_one():
    # the kernel of 2x - y = 0 is spanned by (1, 2); y is the free column
    space = span_basis([{0: 1, 1: 2}], 2, "the span")
    assert (space.free, space.denominator) == ([1], 2)
    assert space.vectors == [{0: F(1, 2), 1: F(1)}]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_solve_square_solves_invertible_systems(n, data):
    def block(cols):
        return Mat(data.draw(st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols), min_size=n, max_size=n,
        )))

    P, B = block(n), block(2)
    rows = [
        {c: int(x) for c, x in enumerate(prow + brow) if x} for prow, brow in zip(P.a, B.a)
    ]
    if P.det() == 0:
        with pytest.raises(GlapError):
            solve_square(rows, n)
        return
    D, X = solve_square(rows, n)
    assert P * Mat([[F(X[u].get(c, 0), D) for c in range(2)] for u in range(n)]) == B


@st.composite
def symmetric_matrices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F(draw(small_entries))
            a[i][j] = x
            a[j][i] = x
    return Mat(a)


def test_signature_examples():
    assert signature_of_symmetric(Mat.diag([1, -1])) == (1, 1, 0)
    S11 = Mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert signature_of_symmetric(S11) == (2, 1, 0)


def test_signature_of_sl2_killing_form():
    # trace form of ad in the basis (e, h, f): B(h,h)=8, B(e,f)=4
    B = Mat([[0, 0, 4], [0, 8, 0], [4, 0, 0]])
    assert signature_of_symmetric(B) == (2, 1, 0)


def test_signature_rejects_asymmetric_input():
    with pytest.raises(NotSymmetric):
        signature_of_symmetric(Mat([[0, 1], [2, 0]]))


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices())
def test_signature_negation_swaps_inertia(S):
    r, s, z = signature_of_symmetric(S)
    assert r + s + z == S.n
    minus = Mat([[-x for x in row] for row in S.a])
    assert signature_of_symmetric(minus) == (s, r, z)


def _random_unimodular(rng, n):
    # product of random shears; determinant stays 1
    P = Mat.diag([1] * n)
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        E = Mat.diag([1] * n)
        E.a[i][j] = F(rng.randint(-3, 3))
        P = P * E
    return P


def test_signature_congruence_invariance_twenty_trials():
    import random

    rng = random.Random(20240816)
    S = Mat([[0, 0, 1, 0], [0, 2, 0, -1], [1, 0, 0, 0], [0, -1, 0, -3]])
    base = signature_of_symmetric(S)
    for _ in range(20):
        P = _random_unimodular(rng, 4)
        congruent = Mat([list(col) for col in zip(*P.a)]) * S * P
        assert signature_of_symmetric(congruent) == base


def test_determinant_and_inverse_round_trip():
    M = Mat([[2, 1, 0], [1, -1, 3], [0, 5, 1]])
    assert M.det() == F(-33)

    def minor(i, j):
        return Mat([[x for c, x in enumerate(row) if c != j] for r, row in enumerate(M.a) if r != i])

    # the inverse by cofactors, each a 2 x 2 determinant
    inverse = Mat([[(-1) ** (i + j) * minor(j, i).det() / M.det() for j in range(3)]
                   for i in range(3)])
    assert M * inverse == Mat.diag([1, 1, 1])


def test_sparse_kernel_matches_dense():
    # rational rows, scaled to integers by int_row, keep their kernel
    rows = [{0: F(1, 2), 1: F(1), 2: F(3, 2)}, {0: F(2, 3), 1: F(4, 3), 2: F(2)}]
    space = Echelon(3).extend(map(int_row, rows)).kernel_space()
    dense = [[v.get(c, F(0)) for c in range(3)] for v in space.vectors]
    assert dense == kernel_basis(Mat([[1, 2, 3], [2, 4, 6]])) == [[-2, 1, 0], [-3, 0, 1]]


def test_kernel_space_coords_certify_membership():
    # kernel of x0 + 2 x1 - x2 = 0: free columns 1 and 2
    ech = Echelon(3)
    ech.add({0: 1, 1: 2, 2: -1})
    space = ech.kernel_space("the plane")
    assert space.free == [1, 2]
    assert [dict(v) for v in space.vectors] == [{1: 1, 0: -2}, {2: 1, 0: 1}]
    assert space.coords({0: F(1), 1: F(1), 2: F(3)}) == {0: F(1), 1: F(3)}
    assert space.coords({0: F(-2), 1: F(1), 2: F(0)}) == {0: F(1)}
    assert space.coords({}) == {}
    with pytest.raises(GlapError, match="the plane"):
        space.coords({0: F(1), 1: F(1)})
    with pytest.raises(GlapError):
        space.coords({0: F(-2), 1: F(1), 3: F(1)})  # entry outside every vector


def test_kernel_space_matches_dense_kernel():
    ech = Echelon(4)
    ech.add({0: 1, 1: 1})
    ech.add({2: 3, 3: -6})
    dense = [[v.get(c, F(0)) for c in range(4)] for v in ech.kernel_space().vectors]
    assert dense == [[-1, 1, 0, 0], [0, 0, 2, 1]]


def _reference_add(ech, row):
    """Echelon.add as it was before pivot-time normalization: the row and
    every remainder are made primitive after each elimination step."""
    r = _primitive(row) if row else None
    while r:
        c = min(r)
        p = ech.piv.get(c)
        if p is None:
            ech.piv[c] = r
            return True
        a, b = r[c], p[c]
        g = gcd(a, b)
        nxt = {col: (b // g) * v for col, v in r.items()}
        for col, v in p.items():
            w = nxt.get(col, 0) - (a // g) * v
            if w:
                nxt[col] = w
            elif col in nxt:
                del nxt[col]
        r = _primitive(nxt) if nxt else None
    return False


def _reference_rref(ech):
    """The RREF of the pivot rows of ``ech`` by back-substitution, as the
    engine read it before its pivots were kept reduced: each pivot row,
    last lead first, is eliminated from every earlier row that holds its
    lead, and the result is made primitive at every step."""
    rows = {c: dict(r) for c, r in ech.piv.items()}
    for c in sorted(rows, reverse=True):
        prow = rows[c]
        for c2 in rows:
            if c2 >= c:
                continue
            r2 = rows[c2]
            if c not in r2:
                continue
            a, b = r2[c], prow[c]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            nxt = {col: ma * v for col, v in r2.items()}
            for col, v in prow.items():
                w = nxt.get(col, 0) - mb * v
                if w:
                    nxt[col] = w
                elif col in nxt:
                    del nxt[col]
            rows[c2] = _primitive(nxt)
    return rows


def _reference_vectors(ech):
    """The canonical kernel basis as Fraction vectors, read off the reduced
    rows the way kernel_space did before it stored integer vectors."""
    rows = _reference_rref(ech)
    out = []
    for f in ech.free_columns():
        v = {f: F(1)}
        for c, row in rows.items():
            if f in row:
                v[c] = F(-row[f], row[c])
        out.append(v)
    return out


def _reference_coords(vectors, free, vec):
    """Subspace.coords as it was in Fractions, on the basis ``vectors``."""
    out = [vec.get(f, F(0)) for f in free]
    recon = {}
    for c, v in zip(out, vectors):
        if c:
            for i, x in v.items():
                recon[i] = recon.get(i, F(0)) + c * x
    for i, x in vec.items():
        recon[i] = recon.get(i, F(0)) - x
    if any(recon.values()):
        raise GlapError("not in the span")
    return out


@st.composite
def integer_systems(draw):
    """(ncols, rows): a few sparse integer rows, zero entries dropped."""
    n = draw(st.integers(min_value=1, max_value=7))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), small_entries, max_size=n),
        max_size=7,
    ))
    return n, [{c: x for c, x in row.items() if x} for row in rows]


def _both(n, rows):
    ech, ref = Echelon(n), Echelon(n)
    for row in rows:
        assert ech.add(row) == _reference_add(ref, row)
    return ech, ref


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_lazy_echelon_matches_per_step_normalization(system):
    n, rows = system
    ech, ref = _both(n, rows)
    assert ech.piv == _reference_rref(ref)
    space = ech.kernel_space()
    assert space.free == ref.free_columns()
    assert space.vectors == _reference_vectors(ref)


@settings(max_examples=150, deadline=None)
@given(integer_systems(), st.lists(st.fractions(max_denominator=6), max_size=7))
def test_integer_coords_match_the_fraction_reference(system, weights):
    n, rows = system
    ech, ref = _both(n, rows)
    space = ech.kernel_space("the span")
    vectors = _reference_vectors(ref)
    member = {}
    for w, v in zip(weights, vectors):
        for i, x in v.items():
            member[i] = member.get(i, F(0)) + w * x
    den = 1
    for x in member.values():
        den = den * x.denominator // gcd(den, x.denominator)
    as_ints = {i: int(x * den) for i, x in member.items()}
    for vec in (member, as_ints):
        ref = _reference_coords(vectors, space.free, vec)
        assert space.coords(vec) == {t: c for t, c in enumerate(ref) if c}
    for col in set(range(n)) - set(space.free):
        for vec in (member, as_ints):
            bad = dict(vec)
            bad[col] = bad.get(col, 0) + 1
            with pytest.raises(GlapError, match="the span"):
                space.coords(bad)
            with pytest.raises(GlapError):
                _reference_coords(vectors, space.free, bad)


@st.composite
def tall_systems(draw):
    """(ncols, rows): more than _WINDOW * ncols sparse integer rows, each a
    small integer combination of a few drawn generators, so that the rank
    is often short of ncols and several windows of ``extend`` run."""
    n = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(
        st.dictionaries(st.integers(0, n - 1), small_entries, max_size=n),
        min_size=1, max_size=n,
    ))
    count = draw(st.integers(_WINDOW * n + 1, 3 * _WINDOW * n))
    weights = st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens))
    rows = []
    for _ in range(count):
        row = {}
        for w, gen in zip(draw(weights), gens):
            for c, x in gen.items():
                row[c] = row.get(c, 0) + w * x
        rows.append({c: x for c, x in row.items() if x})
    return n, rows


@settings(max_examples=150, deadline=None)
@given(tall_systems(), st.data())
def test_extend_matches_sequential_add_in_any_row_order(system, data):
    n, rows = system
    before = [dict(row) for row in rows]
    seq = Echelon(n)
    for row in rows:
        seq.add(row)
    ext = Echelon(n).extend(data.draw(st.permutations(rows)))
    assert rows == before  # no input row changes
    want, got = seq.kernel_space(), ext.kernel_space()
    assert (got.basis, got.denominator, got.free) == (want.basis, want.denominator, want.free)
    assert ext.piv == _reference_rref(ext) == _reference_rref(seq) == seq.piv


def _check_reduced(ech):
    """Every pivot row is primitive, positive at its lead, which is its
    smallest column, and holds no other lead; ``holders`` names, for each
    column, exactly the leads whose rows hold it; ``known_zero`` names
    exactly the leads whose row is the unit row."""
    holders = {}
    for c, row in ech.piv.items():
        assert min(row) == c and row[c] > 0
        assert _primitive(row) == row
        assert [c2 for c2 in row if c2 in ech.piv] == [c]
        for col in row:
            if col != c:
                holders.setdefault(col, set()).add(c)
    assert {col: h for col, h in ech.holders.items() if h} == holders
    assert ech.known_zero == {c for c, row in ech.piv.items() if row == {c: 1}}


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_systems(), tall_systems()))
@example((2, [{0: 1, 1: 1}, {1: 1}]))  # installed as it is, then column 1 cleared
@example((3, [{0: 2, 2: 4}, {1: 3, 2: -3}, {2: 5}, {0: 1, 1: 1, 2: 1}]))  # two holders
@example((3, [{0: 3}, {0: 1, 1: 2}, {0: 5, 1: -1}, {1: 1, 2: 1}]))  # refused over known zeros
def test_reduced_pivots_match_the_reference_after_every_add(system):
    """Row by row, ``add`` agrees with the plain echelon reference, its
    pivots are the reference's RREF, and no row handed in changes."""
    n, rows = system
    before = [dict(row) for row in rows]
    ech, ref = Echelon(n), Echelon(n)
    for row in rows:
        assert ech.add(row) == _reference_add(ref, row)
        assert ech.piv == _reference_rref(ref)
        _check_reduced(ech)
        assert rows == before


def test_a_row_over_known_zero_columns_changes_nothing():
    """Unit pivot rows, installed as such or reduced to one, make their
    leads known zeros; a row over those columns only is refused, and
    ``piv`` and ``holders`` stay as they were."""
    ech = Echelon(4)
    for row in ({0: 2, 1: 2}, {1: 3}, {2: 1, 3: 1}):
        assert ech.add(row)
    assert ech.known_zero == {0, 1}
    piv = {c: dict(row) for c, row in ech.piv.items()}
    holders = {c: set(h) for c, h in ech.holders.items()}
    row = {0: 7, 1: -4}
    assert ech.add(row) is False
    assert (ech.piv, ech.holders, ech.known_zero, row) == (piv, holders, {0, 1}, {0: 7, 1: -4})
    _check_reduced(ech)


def _rows_then_raise(rows):
    yield from rows
    raise AssertionError("a row was pulled past full rank")


def test_extend_stops_pulling_at_full_rank():
    n = 3
    window = [{0: 1, 1: 2}, {1: 1}, {2: 5}] + [{0: 1}] * (_WINDOW * n - 3)
    ech = Echelon(n).extend(_rows_then_raise(window))
    assert ech.rank == n and ech.kernel_space().free == []
    halves = [{c: F(1, 2)} for c in range(n)] + [{0: F(1)}] * (_WINDOW * n - n)
    assert sparse_rank(_rows_then_raise(halves), n) == n


def test_extend_with_no_columns():
    ech = Echelon(0).extend(_rows_then_raise([]))
    space = ech.kernel_space()
    assert (ech.rank, space.basis, space.free, space.denominator) == (0, [], [], 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Mat([[1, 2]]).det(),
        lambda: Mat.diag([1, 1]) * Mat.zeros(3, 2),
        lambda: Mat([[1, 2], [3]]),
    ],
    ids=["det", "product", "ragged"],
)
def test_shape_and_argument_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


_CERTIFICATE_CHECKS = """
from fractions import Fraction as F
from glap.composition import ALGEBRAS, CompositionAlgebra, norm_form
from glap.errors import GlapError

C = ALGEBRAS["C"]
# conjugation broken to the identity, so conj(x) * x leaves the real line
broken = CompositionAlgebra("C", C.gammas, C._table, [F(1), F(1)])
calls = (
    lambda: norm_form(broken),
)
held = []
for call in calls:
    try:
        call()
    except GlapError:
        held.append(True)
    else:
        held.append(False)
"""


def test_certificates_raise_glap_error():
    """A norm off the real line raises GlapError."""
    scope = {}
    exec(_CERTIFICATE_CHECKS, scope)
    assert scope["held"] == [True]


def test_certificates_raise_glap_error_without_asserts():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=src)
    script = (
        "import sys\n"
        "if __debug__:\n"
        "    sys.exit('asserts are still on')\n"
        + _CERTIFICATE_CHECKS
        + "sys.exit(0 if held == [True] else f'held: {held}')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
