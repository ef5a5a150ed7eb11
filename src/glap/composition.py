"""Composition algebras over the rationals by iterated doubling.

Starting from the reals, each doubling step with parameter gamma glues two
copies of the previous algebra:

    (a, b) * (c, d) = (a c + gamma * conj(d) b,  d a + b conj(c))
    conj((a, b))    = (conj(a), -b)

Taking gamma = -1 at every step yields the complex numbers, the quaternions
and the octonions; flipping the last step to gamma = +1 yields their split
companions.  Basis products of basis elements are always a signed multiple
of a single basis element, so the whole multiplication is stored as a flat
integer-coefficient table.

The doubling stops at dimension 8 on purpose: one more step would leave the
composition property behind, and nothing downstream could use the result.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraMismatch, DimTooLarge, require
from .linalg import Mat


class CompositionAlgebra:
    """A finite-dimensional algebra with unit, conjugation and norm form."""

    def __init__(self, tag, gammas, table, conj_signs):
        self.tag = tag
        self.gammas = tuple(Fraction(g) for g in gammas)
        self.dim = len(conj_signs)
        # table[i][j] = (k, c) meaning e_i * e_j = c * e_k
        self._table = table
        # conj(e_i) = s_i * e_i with s_0 = 1
        self._conj = conj_signs

    def __repr__(self):
        return f"CompositionAlgebra({self.tag}, dim={self.dim})"

    def element(self, coords) -> "CAElement":
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != self.dim:
            raise AlgebraMismatch(
                f"{self.tag} needs {self.dim} coordinates, got {len(coords)}"
            )
        return CAElement(self, coords)

    def basis_element(self, i: int) -> "CAElement":
        coords = [Fraction(0)] * self.dim
        coords[i] = Fraction(1)
        return CAElement(self, tuple(coords))

    @property
    def one(self) -> "CAElement":
        return self.basis_element(0)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]

    def is_associative(self) -> bool:
        """Whether (e_s e_t) e_u == e_s (e_t e_u) on all d^3 basis triples;
        by trilinearity that is associativity of the whole algebra."""
        T = self._table
        for s in range(self.dim):
            for t in range(self.dim):
                k, a = T[s][t]
                for u in range(self.dim):
                    l, b = T[t][u]
                    left, c = T[k][u]
                    right, e = T[s][l]
                    if left != right or a * c != b * e:
                        return False
        return True


class CAElement:
    __slots__ = ("alg", "coords")

    def __init__(self, alg: CompositionAlgebra, coords):
        self.alg = alg
        self.coords = tuple(coords)

    def _check(self, other):
        if self.alg is not other.alg:
            raise AlgebraMismatch(
                f"mixed algebras: {self.alg.tag} and {other.alg.tag}"
            )

    def __add__(self, other):
        self._check(other)
        return CAElement(self.alg, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return CAElement(self.alg, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return CAElement(self.alg, tuple(-a for a in self.coords))

    def scale(self, c) -> "CAElement":
        c = Fraction(c)
        return CAElement(self.alg, tuple(c * a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        table = self.alg._table
        out = [Fraction(0)] * self.alg.dim
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            row = table[i]
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                k, c = row[j]
                out[k] += a * b * c
        return CAElement(self.alg, tuple(out))

    __rmul__ = scale

    def __eq__(self, other):
        return (
            isinstance(other, CAElement)
            and self.alg is other.alg
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.alg), self.coords))

    def conjugate(self) -> "CAElement":
        signs = self.alg._conj
        return CAElement(self.alg, tuple(s * a for s, a in zip(signs, self.coords)))

    def re(self) -> Fraction:
        return self.coords[0]

    def im(self) -> "CAElement":
        coords = (Fraction(0),) + self.coords[1:]
        return CAElement(self.alg, coords)

    def norm(self) -> Fraction:
        """N(x) with conj(x) * x = N(x) * 1; the check that the product is
        real is cheap and raises GlapError when it fails."""
        prod = self.conjugate() * self
        require(all(c == 0 for c in prod.coords[1:]), "norm left the real line")
        return prod.coords[0]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        terms = [
            f"{c}*e{i}" for i, c in enumerate(self.coords) if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def real_algebra() -> CompositionAlgebra:
    return CompositionAlgebra("R", (), [[(0, Fraction(1))]], [Fraction(1)])


def cayley_dickson(base: CompositionAlgebra, gamma) -> CompositionAlgebra:
    """Double a composition algebra; refuses to go past dimension 8."""
    if base.dim >= 8:
        raise DimTooLarge(
            f"doubling {base.tag} (dim {base.dim}) would lose the composition property"
        )
    gamma = Fraction(gamma)
    if gamma == 0:
        raise ValueError("doubling parameter must be nonzero")
    d = base.dim
    bt = base._table
    bc = base._conj
    n = 2 * d
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < d and j < d:
                k, c = bt[i][j]
                table[i][j] = (k, c)
            elif i < d and j >= d:
                # (a,0)(0,d') = (0, d' a)
                k, c = bt[j - d][i]
                table[i][j] = (k + d, c)
            elif i >= d and j < d:
                # (0,b)(c',0) = (0, b conj(c'))
                k, c = bt[i - d][j]
                table[i][j] = (k + d, c * bc[j])
            else:
                # (0,b)(0,d') = (gamma conj(d') b, 0)
                k, c = bt[j - d][i - d]
                table[i][j] = (k, gamma * c * bc[j - d])
    conj = list(bc) + [Fraction(-1)] * d
    tag = f"CD({base.tag},{gamma})"
    return CompositionAlgebra(tag, base.gammas + (gamma,), table, conj)


def _build_registry() -> dict[str, CompositionAlgebra]:
    R = real_algebra()
    C = cayley_dickson(R, -1)
    Cs = cayley_dickson(R, 1)
    H = cayley_dickson(C, -1)
    Hs = cayley_dickson(C, 1)
    O = cayley_dickson(H, -1)
    Os = cayley_dickson(H, 1)
    for alg, tag in (
        (R, "R"),
        (C, "C"),
        (Cs, "C'"),
        (H, "H"),
        (Hs, "H'"),
        (O, "O"),
        (Os, "O'"),
    ):
        alg.tag = tag
    return {a.tag: a for a in (R, C, Cs, H, Hs, O, Os)}


ALGEBRAS = _build_registry()


def algebra_by_tag(tag: str) -> CompositionAlgebra:
    try:
        return ALGEBRAS[tag]
    except KeyError:
        raise AlgebraMismatch(
            f"unknown algebra tag {tag!r}; known: {sorted(ALGEBRAS)}"
        ) from None


def norm_form(alg: CompositionAlgebra) -> Mat:
    """Gram matrix of g(x, y) = Re(conj(x) y) on the standard basis."""
    basis = alg.basis()
    return Mat(
        [[(x.conjugate() * y).re() for y in basis] for x in basis]
    )
