import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from glap.errors import GlapError, NotSymmetric
from glap.linalg import (
    Echelon,
    Mat,
    kernel_basis,
    signature_of_symmetric,
    solve_affine,
    solve_square,
    span_basis,
    sparse_kernel,
)

F = Fraction


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Mat.identity(2)) == []


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
        ech.add({j: x for j, x in enumerate(row) if x != 0})
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
    kern = [{c: x for c, x in enumerate(v) if x} for v in kernel_basis(M)]
    spanning = [
        {c: sum(w * v.get(c, 0) for w, v in zip(ws, kern)) for c in range(M.n)}
        for ws in mix
    ] + kern
    assert span_basis(spanning, M.n) == kern


def test_span_basis_scales_the_last_entry_to_one():
    # the kernel of 2x - y = 0 is spanned by (1, 2); y is the free column
    assert span_basis([{0: 1, 1: 2}], 2) == [{0: F(1, 2), 1: F(1)}]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_solve_square_solves_invertible_systems(n, data):
    def block(cols):
        return Mat(data.draw(st.lists(
            st.lists(small_entries, min_size=cols, max_size=cols), min_size=n, max_size=n,
        )))

    P, B = block(n), block(2)
    rows = [
        {c: x for c, x in enumerate(prow + brow) if x} for prow, brow in zip(P.a, B.a)
    ]
    if P.det() == 0:
        with pytest.raises(GlapError):
            solve_square(rows, n)
        return
    X = solve_square(rows, n)
    assert P * Mat([[X[u].get(c, 0) for c in range(2)] for u in range(n)]) == B


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
    P = Mat.identity(n)
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        E = Mat.identity(n)
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
        congruent = P.transpose() * S * P
        assert signature_of_symmetric(congruent) == base


def test_determinant_and_inverse_round_trip():
    M = Mat([[2, 1, 0], [1, -1, 3], [0, 5, 1]])
    assert M.det() == F(-33)
    assert M * M.inverse() == Mat.identity(3)


def test_sparse_kernel_matches_dense():
    rows = [{0: F(1), 1: F(2), 2: F(3)}, {0: F(2), 1: F(4), 2: F(6)}]
    assert sparse_kernel(rows, 3) == kernel_basis(Mat([[1, 2, 3], [2, 4, 6]]))


def test_solve_affine_unique_solution():
    # x + y = 3, x - y = 1
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(-1)}]
    assert solve_affine(rows, [F(3), F(1)], 2) == [F(2), F(1)]


def test_solve_affine_inconsistent():
    rows = [{0: F(1), 1: F(1)}, {0: F(1), 1: F(1)}]
    assert solve_affine(rows, [F(0), F(1)], 2) is None


def test_kernel_space_coords_certify_membership():
    # kernel of x0 + 2 x1 - x2 = 0: free columns 1 and 2
    ech = Echelon(3)
    ech.add({0: 1, 1: 2, 2: -1})
    space = ech.kernel_space("the plane")
    assert space.free == [1, 2]
    assert [dict(v) for v in space.vectors] == [{1: 1, 0: -2}, {2: 1, 0: 1}]
    assert space.coords({0: F(1), 1: F(1), 2: F(3)}) == [F(1), F(3)]
    assert space.coords({}) == [F(0), F(0)]
    with pytest.raises(GlapError, match="the plane"):
        space.coords({0: F(1), 1: F(1)})
    with pytest.raises(GlapError):
        space.coords({0: F(-2), 1: F(1), 3: F(1)})  # entry outside every vector


def test_kernel_space_matches_dense_kernel():
    ech = Echelon(4)
    ech.add({0: 1, 1: 1})
    ech.add({2: 3, 3: -6})
    dense = [[v.get(c, F(0)) for c in range(4)] for v in ech.kernel_space().vectors]
    assert dense == ech.kernel()


def test_mat_sum_and_difference_reject_shape_mismatch():
    with pytest.raises(ValueError):
        Mat.identity(2) + Mat.zeros(2, 3)
    with pytest.raises(ValueError):
        Mat.identity(2) - Mat.zeros(3, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Mat([[1, 2]]).trace(),
        lambda: Mat.identity(2).mat_vec([1]),
        lambda: Mat([[1, 2]]).det(),
        lambda: Mat([[1, 2]]).inverse(),
    ],
    ids=["trace", "mat_vec", "det", "inverse"],
)
def test_shape_and_argument_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


_CERTIFICATE_CHECKS = """
from fractions import Fraction as F
from glap.composition import ALGEBRAS, CompositionAlgebra
from glap.errors import GlapError

C = ALGEBRAS["C"]
# conjugation broken to the identity, so conj(x) * x leaves the real line
broken = CompositionAlgebra("C", C.gammas, C._table, [F(1), F(1)])
calls = (
    lambda: broken.element([1, 1]).norm(),
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
