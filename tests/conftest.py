import pytest
from fractions import Fraction

from glap.gla import GradedAlgebra, SymBilinearForm
from glap.linalg import Mat
from glap.families import build
from glap.prolongation import full_prolongation


def diag(entries):
    """The square ``Mat`` with ``entries`` on its diagonal, 0 elsewhere."""
    entries = list(entries)
    return Mat([[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)])


def _key(tag, params):
    return (tag, tuple(sorted(params.items())))


@pytest.fixture(scope="session")
def get_family():
    """Memoized family builder, shared by the whole run."""
    cache = {}

    def get(tag, **params):
        k = _key(tag, params)
        if k not in cache:
            cache[k] = build(tag, **params)
        return cache[k]

    return get


@pytest.fixture(scope="session")
def get_prolongation(get_family):
    """Memoized full prolongation per family instance.

    The F4 instances take a couple of seconds each; computing them once per
    session keeps the acceptance tests honest about the runtime budget
    without paying for every re-use.
    """
    cache = {}

    def get(tag, **params):
        k = _key(tag, params)
        if k not in cache:
            fam = get_family(tag, **params)
            cache[k] = full_prolongation(fam.m, fam.g)
        return cache[k]

    return get


def _rebased(tag, **params):
    """(m, g) of a family after a graded unimodular change of basis: inside
    each degree piece, f_a = e_a + s e_b for the first two consecutive
    pairs (a, b), with s = 1 and then s = -1."""
    fam = build(tag, **params)
    m, g = fam.m, fam.g
    n = m.n
    P = diag([1] * n)  # row i: the new basis vector f_i in the old basis
    Q = diag([1] * n)  # P^-1, through the inverse of each operation
    for ix in m.by_degree().values():
        for t, s in zip(range(len(ix) - 1), (1, -1)):
            a, b = ix[t], ix[t + 1]
            P.a[a] = [x + s * y for x, y in zip(P.a[a], P.a[b])]
            for row in Q.a:
                row[b] -= s * row[a]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            new = [Fraction(0)] * n
            for a in range(n):
                for b in range(n):
                    c = P.a[i][a] * P.a[j][b]
                    if c:
                        for k, x in m.bracket_pair(a, b).items():
                            for l in range(n):
                                new[l] += c * x * Q.a[k][l]
            cell = {l: x for l, x in enumerate(new) if x}
            if cell:
                brackets[(i, j)] = cell
    m2 = GradedAlgebra(m.name, m.labels, m.degrees, brackets)
    minus1 = g.indices
    G = g.matrix.a
    gram = [
        [
            sum(
                (P.a[i][a] * P.a[j][b] * G[u][v]
                 for u, a in enumerate(minus1) for v, b in enumerate(minus1)),
                Fraction(0),
            )
            for j in minus1
        ]
        for i in minus1
    ]
    return m2, SymBilinearForm.for_algebra(m2, Mat(gram))


@pytest.fixture(scope="session")
def get_rebased():
    """(m, g) of a family after a graded unimodular change of basis."""
    return _rebased


@pytest.fixture
def h3():
    """Heisenberg algebra: [X, Y] = Z with X, Y in degree -1."""
    return GradedAlgebra(
        "h3",
        ["X", "Y", "Z"],
        [-1, -1, -2],
        {(0, 1): {2: Fraction(1)}},
    )


@pytest.fixture
def h3_euclidean(h3):
    g = SymBilinearForm("h3", [0, 1], diag([1, 1]))
    return h3, g
