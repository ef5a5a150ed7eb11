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

    def unit_table(self) -> list[list[tuple[int, int]]]:
        """``table[s][t] = (u, c)`` with e_s e_t = c e_u and c a Python int,
        read from ``_table`` on every call; raises GlapError on a
        coefficient that is not an integer."""
        out = []
        for row in self._table:
            out.append([])
            for u, c in row:
                c = Fraction(c)
                require(c.denominator == 1,
                        f"{self.tag}: unit product coefficient {c} is not an integer")
                out[-1].append((u, int(c)))
        return out

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
    """Gram matrix of g(x, y) = Re(conj(x) y) on the standard basis, read
    from the unit table and the conjugation signs.

    g is the polar form of the norm N(x) = conj(x) x, which must be real.
    By bilinearity conj(x) x is the sum of x_s^2 conj(e_s) e_s and of
    x_s x_t (conj(e_s) e_t + conj(e_t) e_s) over s < t, so it is real for
    every x exactly when each of those basis terms lies in R 1; raises
    GlapError unless they do."""
    signs = alg._conj
    # prod[s][t] = (u, c): conj(e_s) e_t = c e_u
    prod = [[(u, signs[s] * c) for u, c in row] for s, row in enumerate(alg.unit_table())]
    for s in range(alg.dim):
        for t in range(s, alg.dim):
            imag: dict[int, Fraction] = {}
            for u, c in [prod[s][t]] if s == t else [prod[s][t], prod[t][s]]:
                if u:
                    imag[u] = imag.get(u, 0) + c
            require(not any(imag.values()),
                    f"{alg.tag}: conj(x) x leaves the real line at e{s}, e{t}")
    return Mat([[c if u == 0 else 0 for u, c in row] for row in prod])
