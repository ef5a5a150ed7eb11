"""Structure analysis of assembled prolongations.

Killing form and (semi)simplicity, the centroid, the module structure of
the degree -1 part under the degree 0 part, and comparison against the
expected classification table.  All decisions are exact and run in
integers on the scaled adjacency (``gla._scaled_adjacency``) and the
integer bases of ``linalg.Subspace``: semisimplicity is the full rank of
the degree blocks of the Killing form (``is_semisimple``), simplicity is
a statement about the centroid, and module classes come from a quadratic
relation of elements of the commutant (``classify_module``), with each
SIII split certified totally isotropic and nondegenerately paired
(``isotropic_split_check``).  A map of an n-dimensional piece is a flat
integer vector ``{c*n + r: x}`` holding a common multiple of phi[r][c];
only the split and complex structure handed out are Fractions.  The
Jacobi identity of the input is trusted; ``glap check`` certifies it.

Simplicity from the centroid: for a semisimple real algebra the centroid
is a product of fields, one factor per simple ideal, each factor R or C.
So centroid dimension 1 means simple; dimension 2 means either one complex
ideal (a field, J^2 a negative scalar: simple as a real algebra) or two
ideals (split, J^2 a positive scalar after removing the trace: not
simple); dimension 3 or more means at least two ideals.

The centroid from the commutant (Tanaka, J. Math. Kyoto Univ. 10, 1970;
Jacobson, *Lie Algebras*, Ch. X).  Let A be a graded Lie algebra that

1. contains its characteristic element E ([E, x] = p x on degree p),
2. has its negative part generated by g_{-1}, and
3. is transitive: no nonzero element of degree >= 0 kills g_{-1}.

A centroid map phi commutes with ad E, so it preserves degree.  It
commutes with ad u for u in g_0, so its restriction to g_{-1} lies in the
commutant of the g_0-module g_{-1}.  And it is determined by that
restriction: below degree -1 by phi([e, y]) = [phi(e), y] and generation,
in degree >= 0 by [phi(u), e] = [u, phi(e)] and transitivity.  So the
centroid is the subspace of that commutant whose elements extend, found
by solving for one coefficient per commutant basis element.  Where E is
missing or a rank shows condition 2 or 3 failing, the centroid is instead
the commutant of the n adjoint maps ad e (``commutant``), over all n*n
entries, refused above dimension 40.  Either way the result is certified
against the definition.

The identity needs no solve.  ``commutant`` certifies that it lies in
the commutant K, and it lies in every centroid.  So when the conditions
hold and K has dimension 1, the centroid is the span of the identity:
every centroid map restricts on g_{-1} to a multiple of it and is
determined by that.  When K is larger, the identity of g_{-1} extends to
a multiple of the identity of A, whose residual is 0, so the residuals
are solved only on the rest of a basis of K through the identity.  The
certificate skips scalar maps and checks every other basis map.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm

from .errors import (
    DegeneratePairing,
    GlapError,
    NotIsotropic,
    NotSemisimple,
    require,
)
from .families import oracle_instances
from .gla import (
    GradedAlgebra,
    _minus1_pivots,
    _minus1_rows,
    _reached_by_minus1,
    _scaled_adjacency,
    require_graded,
)
from .linalg import Echelon, Mat, Subspace, solve_square, span_basis
from .roots import table_expectation


def killing_form(A: GradedAlgebra) -> tuple[int, dict[int, list[dict[int, int]]]]:
    """The degree blocks of B(x, y) = tr(ad x ad y), as (L**2, blocks).

    ad x ad y shifts degrees by deg x + deg y, so once ``gla.require_graded``
    has certified the grading B pairs only opposite degrees, and it is
    determined by B_0 = B on g_0 x g_0 and C_d = B on g_d x g_{-d}, d > 0.
    ``blocks[d]`` holds B_0 (d = 0) or C_d as sparse integer rows, row i
    over the basis of g_d, column j over that of g_{-d}.  The sums run over
    the scaled adjacency: each term is a product of two constants, so each
    integer entry is exactly L**2 times the rational one.

    With [e_c, e_a] = sum_b x e_b, B(e_i, e_c) = sum x y over the entries
    y of ad e_i at the transposed position, [e_i, e_b] = y e_a + ...  So
    each block indexes the entries of ad e_c, c over the column basis, by
    (b, a), and walks each ad e_i once: the work is the number of entry
    pairs that meet, not pairs times entries."""
    require_graded(A)
    L, ads = _scaled_adjacency(A)
    by_deg = A.by_degree()
    blocks = {}
    for d, ix in by_deg.items():
        if d < 0:
            continue
        back: dict[int, dict[int, list[tuple[int, int]]]] = {}
        for c, col in enumerate(by_deg.get(-d, [])):
            for a, cell in ads[col].items():
                for b, x in cell.items():
                    back.setdefault(b, {}).setdefault(a, []).append((c, x))
        rows = []
        for i in ix:
            row: dict[int, int] = {}
            get = row.get
            for b, cell in ads[i].items():
                at = back.get(b)
                if at:
                    for a, y in cell.items():
                        for c, x in at.get(a, ()):
                            row[c] = get(c, 0) + x * y
            rows.append({c: v for c, v in row.items() if v})
        blocks[d] = rows
    return L * L, blocks


def is_semisimple(A: GradedAlgebra) -> bool:
    """Whether the Killing form B is nondegenerate, read by degree blocks.

    Up to the order of the basis B is B_0 on g_0 beside the blocks
    [[0, C_d], [C_d^T, 0]] of ``killing_form``, so det B = +-det B_0 *
    prod det(C_d)**2, which is nonzero exactly when dim g_d = dim g_{-d}
    for every d and each square block has full rank."""
    _, blocks = killing_form(A)
    by_deg = A.by_degree()
    if any(len(ix) != len(by_deg.get(-d, ())) for d, ix in by_deg.items()):
        return False
    return all(Echelon(len(rows)).extend(rows).rank == len(rows) for rows in blocks.values())


# ---------------------------------------------------------------------------
# maps, as flat integer vectors
# ---------------------------------------------------------------------------


def _columns(phi: dict[int, int], n: int) -> list[dict[int, int]]:
    """The columns ``{r: x}`` of the map phi, entry phi[r][c] at c*n + r."""
    cols: list[dict[int, int]] = [{} for _ in range(n)]
    for k, x in phi.items():
        c, r = divmod(k, n)
        cols[c][r] = x
    return cols


def _traceless(phi: dict[int, int], n: int) -> dict[int, int]:
    """n phi - tr(phi) I, n times the traceless part of phi, zero entries
    dropped; empty exactly when phi is scalar."""
    diag = range(0, n * n, n + 1)
    tr = sum(phi.get(k, 0) for k in diag)
    J = {k: n * x for k, x in phi.items()}
    for k in diag:
        J[k] = J.get(k, 0) - tr
    return {k: x for k, x in J.items() if x}


def _is_scalar(phi: dict[int, int], n: int) -> bool:
    return not _traceless(phi, n)


def _quadratic_relation(phi: dict[int, int], n: int):
    """For a non-scalar map phi, J = ``_traceless(phi)`` and the rationals
    (a, b) with J^2 = a I + b J; None when J^2 leaves span{I, J}.

    J is traceless, so a = tr(J^2)/n, and b follows from any nonzero entry
    of J.  The eigenvalues of J are then the roots of x^2 = a + b x, and
    the discriminant b^2 + 4a tells a complex structure (negative; b = 0,
    since the two conjugate roots share the trace evenly) from a split
    into two eigenspaces (positive) or a nilpotent (zero).  J is s > 0
    times the rational traceless part of the rational map, which scales a
    by s**2 and b by s: the discriminant keeps its sign and whether it is
    a rational square, and the eigenspaces stay the same."""
    diag = range(0, n * n, n + 1)
    J = _traceless(phi, n)
    cols = _columns(J, n)
    J2: dict[int, int] = {}
    for k, y in J.items():  # column c of J^2 is sum_m J[m][c] * column m of J
        c, m = divmod(k, n)
        for r, x in cols[m].items():
            J2[c * n + r] = J2.get(c * n + r, 0) + x * y
    a = Fraction(sum(J2.get(k, 0) for k in diag), n)
    k = min(J)
    b = (J2.get(k, 0) - a * (k in diag)) / J[k]
    q = lcm(a.denominator, b.denominator)  # q (J^2 - a I - b J) in integers
    rest = {k: q * x - int(b * q) * J.get(k, 0) for k, x in J2.items()}
    for k, x in J.items():
        rest.setdefault(k, -int(b * q) * x)
    for k in diag:
        rest[k] = rest.get(k, 0) - int(a * q)
    return None if any(rest.values()) else (J, a, b)


# ---------------------------------------------------------------------------
# centroid
# ---------------------------------------------------------------------------


def _has_characteristic(A: GradedAlgebra) -> bool:
    """Whether some element E of degree 0 acts as p on every degree p
    piece: whether the rows (j, k), the k-th coordinate of [E, e_j] on the
    scaled adjacency, reach the right-hand side deg e_j (j == k) in the
    column past E's without raising their rank, so without a pivot there.
    Scaling the coefficients by L scales the solutions by 1/L."""
    ad = _scaled_adjacency(A)[1]
    zero_ix = A.by_degree().get(0, [])
    z = len(zero_ix)
    rows: dict[tuple[int, int], dict[int, int]] = {
        (j, j): {z: d} for j, d in enumerate(A.degrees) if d
    }
    for t, u in enumerate(zero_ix):
        for j, cell in ad[u].items():
            for k, c in cell.items():
                rows.setdefault((j, k), {})[t] = c
    return z not in Echelon(z + 1).extend(rows.values()).piv


def centroid(A: GradedAlgebra) -> Subspace:
    """Canonical basis of {phi : phi o ad x = ad x o phi for all x}, the
    commutant of the adjoint maps, unknown phi[r][c] at column c*n + r.

    If A contains its characteristic element E, has its negative part
    generated by g_{-1}, and is transitive (``_determined_by_minus1``), a
    centroid map is determined by its restriction to g_{-1}, which lies in
    the commutant of the g_0-action (module docstring).  The centroid is
    then the span of the identity and of the extensions of the rest of the
    commutant (``_extensions``) on which the residuals of the centroid
    equations cancel.  Otherwise it is ``commutant`` of the adjoint maps
    ad e of every basis element, refused above dimension 40.  Either way
    each basis map that is not scalar is certified against the definition
    over every ordered pair (``_verify_centroid``).
    """
    K = commutant(degree_zero_action(A), len(A.by_degree().get(-1, [])))
    return _centroid(A, K)


def _centroid(A: GradedAlgebra, K: Subspace) -> Subspace:
    """``centroid`` given the commutant K of the g_0-module g_{-1}.
    The equations read the scaled adjacency of A (every structure constant
    times L, the lcm of their denominators); each is linear in them, so
    scaling keeps its solutions."""
    n = A.n
    if not _determined_by_minus1(A):
        if n > 40:
            raise GlapError("dense centroid solve refused for dim > 40")
        ad = _scaled_adjacency(A)[1]
        C = commutant(
            [{c * n + k: x for c, cell in ad[e].items() for k, x in cell.items()} for e in range(n)],
            n,
        )
    else:
        span = [{c * n + c: 1 for c in range(n)}]
        n1 = len(A.by_degree()[-1])
        t0 = min(K.coords({c * n1 + c: 1 for c in range(n1)}, "the identity"))
        rest = K.basis[:t0] + K.basis[t0 + 1:]
        if rest:
            maps = _extensions(A, rest)
            ad = _scaled_adjacency(A)[1]
            rows: dict[tuple, dict[int, int]] = {}
            for t, phi in enumerate(maps):
                for key, x in _residual(phi, n, ad).items():
                    rows.setdefault(key, {})[t] = x
            for coeffs in Echelon(len(maps)).extend(rows.values()).kernel_space().basis:
                w: dict[int, int] = {}
                for t, ct in coeffs.items():
                    for k, x in maps[t].items():
                        w[k] = w.get(k, 0) + ct * x
                span.append(w)
        C = span_basis(span, n * n, "the centroid")
    _verify_centroid(A, C.basis)
    return C


def _determined_by_minus1(A: GradedAlgebra) -> bool:
    """Whether A meets the conditions of the module docstring, under which
    a centroid map is determined by its restriction to g_{-1}: A has a
    g_{-1}, every other g_d has full rank in ``gla._minus1_rows`` (g_{-1}
    generates the negative part and A is transitive), and A contains its
    characteristic element."""
    return (
        bool(A.by_degree().get(-1))
        and _reached_by_minus1(A, lambda d: d != -1)
        and _has_characteristic(A)
    )


def _extensions(A: GradedAlgebra, K: list[dict[int, int]]):
    """For each K_t of ``K``, flat integer maps of g_{-1} that commute with
    the g_0-action, the map Phi_t of A that restricts to it on g_{-1}, as
    flat integer maps over one common scale, for an A that is
    ``_determined_by_minus1``.

    For d <= -2, Phi([e, y]) = [K e, y] on a basis of g_d picked from
    [g_{-1}, g_{d+1}].  For d >= 0, [Phi(u), e] = [u, K e] on one
    invertible block of the rows of u -> ad u restricted to g_{-1}.  Both
    blocks are the rows of full rank of ``gla._minus1_pivots``.  A
    centroid map extending K satisfies both, so it is Phi_t when it exists;
    whether it does is left to the residual.  Each solve is linear in K,
    so it returns D_d times the block of every Phi_t, and S, the lcm of
    the D_d, brings them all to the one scale S * K."""
    by_deg = A.by_degree()
    minus1 = by_deg[-1]
    n, n1 = A.n, len(minus1)
    kcols = [_columns(M, n1) for M in K]
    solved = []  # (d, D_d, D_d X) of each degree d != -1
    for d, ix in by_deg.items():
        if d == -1:
            continue
        m = len(ix)
        # row (p, z) is linear in e_p, so its right-hand side for K_t is
        # sum_r K_t[r][p] row (r, z)
        rows = _minus1_rows(A, d)
        pivots = _minus1_pivots(A, d)
        require(pivots is not None, f"degree {d} is not determined by g_-1")
        aug = []  # the right-hand side for K_t at columns m + t*m + c
        for p, z in pivots:
            row = dict(rows[p, z])
            for t, cols in enumerate(kcols):
                for r, x in cols[p].items():
                    for c, v in rows.get((r, z), {}).items():
                        row[m + t * m + c] = row.get(m + t * m + c, 0) + x * v
            aug.append({c: v for c, v in row.items() if v})
        solved.append((d, *solve_square(aug, m)))
    S = lcm(*(D for _, D, _ in solved))
    maps = [
        {minus1[c] * n + minus1[r]: S * x for c, col in enumerate(cols) for r, x in col.items()}
        for cols in kcols
    ]
    for d, D, X in solved:
        ix = by_deg[d]
        for u, sol in X.items():
            for tc, x in sol.items():
                t, c = divmod(tc, len(ix))
                if d < -1:  # row u of the solution is Phi(b_u)
                    maps[t][ix[u] * n + ix[c]] = x * (S // D)
                else:  # row u of the solution is row u of Phi on g_d
                    maps[t][ix[c] * n + ix[u]] = x * (S // D)
    return maps


def _residual(phi: dict[int, int], n: int, ad) -> dict[tuple[int, int, int], int]:
    """The nonzero entries (i, j, k) of phi([a_i, a_j]) - [phi(a_i), a_j]
    over every ordered pair, i == j included, for the flat integer map phi
    of A, of dimension n.

    ``ad`` is the scaled adjacency (constants times L), so the residual is
    bilinear in the constants and phi and is exactly L times the rational
    one of phi: it vanishes exactly when the rational one does."""
    cols = _columns(phi, n)
    out = {}
    for i in range(n):
        diff: dict[int, dict[int, int]] = {}
        for j, cell in ad[i].items():
            acc = diff.setdefault(j, {})
            for m, c in cell.items():
                for r, x in cols[m].items():
                    acc[r] = acc.get(r, 0) + c * x
        for r, x in cols[i].items():
            for j, cell in ad[r].items():
                acc = diff.setdefault(j, {})
                for k, c in cell.items():
                    acc[k] = acc.get(k, 0) - x * c
        for j, acc in diff.items():
            for k, v in acc.items():
                if v:
                    out[i, j, k] = v
    return out


def _verify_centroid(A: GradedAlgebra, maps: list[dict[int, int]]):
    """Raise GlapError unless phi([a_i, a_j]) == [phi(a_i), a_j] for every
    flat integer map phi of ``maps`` and every ordered pair (i, j), i == j
    included, read with ``_residual`` on the scaled adjacency of A.  A
    scalar map satisfies it and is skipped."""
    ad = _scaled_adjacency(A)[1]
    for phi in maps:
        if not _is_scalar(phi, A.n):
            require(not _residual(phi, A.n, ad), "centroid candidate fails the definition")


def is_simple(A: GradedAlgebra) -> bool:
    """Simplicity test through the centroid; requires semisimplicity."""
    if not is_semisimple(A):
        raise NotSemisimple(f"{A.name} has degenerate Killing form")
    return _simple_from_centroid(centroid(A).basis, A.n)


def _simple_from_centroid(C: list[dict[int, int]], n: int) -> bool:
    """Simplicity of a semisimple algebra of dimension n from a basis C of
    its centroid, as flat integer maps (see the module docstring)."""
    if not C:
        raise GlapError("empty centroid; the identity always lies in it")
    if len(C) == 1:
        return True
    if len(C) > 2:
        return False
    cand = next((M for M in C if not _is_scalar(M, n)), None)
    require(cand is not None, "2-dimensional centroid of scalars")
    # {I, J} spans the centroid, so J^2 lies in it
    rel = _quadratic_relation(cand, n)
    require(rel is not None, "J^2 escaped the centroid span")
    _, a, b = rel
    disc = b * b + 4 * a
    if disc < 0:
        return True
    if disc > 0:
        return False
    raise GlapError("centroid contains a nilpotent; algebra cannot be semisimple")


# ---------------------------------------------------------------------------
# module structure of the degree -1 part
# ---------------------------------------------------------------------------


def commutant(maps: list[dict[int, int]], n: int) -> Subspace:
    """Canonical basis of {phi : phi M = M phi for every M in maps}, the
    flat integer maps of an n-dimensional module, unknown phi[r][c] at
    column c*n + r: the commutant of the g_0-action on g_{-1}
    (``degree_zero_action``), and the centroid of an algebra that is not
    ``_determined_by_minus1``, over the scaled adjoint maps of all of it.

    The identity always commutes, so the rank is at most n*n - 1, and the
    rows left once it gets there cannot change the solutions.  The identity
    is certified to lie in the result, which at that rank it spans."""
    ech = Echelon(n * n)
    for row in _commutant_rows(maps, n):
        if ech.add(row) and ech.rank == n * n - 1:
            break
    space = ech.kernel_space("the commutant")
    space.coords({c * n + c: 1 for c in range(n)}, "the identity")
    return space


def _commutant_rows(maps: list[dict[int, int]], n: int):
    """Yield the rows (phi M - M phi)[i][j] = 0 for each M in maps, column
    j by column j, reading only the nonzero entries of M; a map scaled by a
    nonzero integer has the same ones.  The two terms meet only at phi[i][j]
    of row i, where they may cancel."""
    for M in maps:
        cols = _columns(M, n)  # cols[j] = {r: M[r][j]}
        nonzero = [(r, col) for r, col in enumerate(cols) if col]
        for j, colj in enumerate(cols):
            # (phi M)[i][j] holds M[r][j] phi[i][r], for every row i
            comp = {i: {r * n + i: x for r, x in colj.items()} for i in range(n)} if colj else {}
            for r, col in nonzero:  # (M phi)[i][j] holds M[i][r] phi[r][j]
                jr = j * n + r
                for i, x in col.items():
                    row = comp.get(i)
                    if row is None:
                        comp[i] = {jr: -x}
                    else:
                        row[jr] = row.get(jr, 0) - x
            for i, row in comp.items():
                if row.get(j * n + i) == 0:
                    del row[j * n + i]
                if row:
                    yield row


@dataclass
class ModuleClassification:
    module_class: str  # "SI" | "SII" | "SIII" | "unclassified"
    commutant_dim: int
    split: tuple[list[list[Fraction]], list[list[Fraction]]] | None = None
    complex_structure: Mat | None = None
    warnings: list[str] = field(default_factory=list)


def classify_module(maps: list[dict[int, int]], G: Mat) -> ModuleClassification:
    """Classify the module on which the flat integer maps ``maps`` act
    (``degree_zero_action``) from the commutant C of the action.  G only
    fixes the size of the module; ``analyze`` certifies an SIII split
    against the form (``isotropic_split_check``).

    The candidates are the basis of C, then the sums of pairs of its
    elements, in that order.  Each non-scalar candidate's traceless part J
    is tested for a relation J^2 = a I + b J (``_quadratic_relation``):

    * SIII: the first candidate whose discriminant b^2 + 4a is a positive
      rational square has two rational eigenvalues, and the module splits
      into their two eigenspaces, the smaller eigenvalue's first;
    * SII: C has dimension 2 and its first non-scalar candidate has a
      negative discriminant; that J is the complex structure;
    * SI: C has dimension 1; dimension 4 (quaternionic commutant) is
      accepted as SI with a warning when every non-scalar candidate has a
      relation with a negative discriminant.

    Anything else is ``unclassified``.  A split is found only through a
    candidate with such a relation.  In a commutant of dimension 3 or more
    a candidate with three or more eigenvalues has none, so it is passed
    over: the split may come from a later candidate, and when no splitting
    candidate satisfies a quadratic relation the module is
    ``unclassified``, not SIII.  The candidates are D times the rational
    ones, D the denominator of C, so the complex structure is J / (n D).
    """
    return _classify_commutant(commutant(maps, G.n), G.n)


def _classify_commutant(C: Subspace, n: int) -> ModuleClassification:
    """``classify_module`` given the commutant C of the module."""
    dimC = len(C)
    candidates = C.basis + [
        {k: u.get(k, 0) + v.get(k, 0) for k in u.keys() | v.keys()}
        for i, u in enumerate(C.basis) for v in C.basis[i + 1:]
    ]
    found = []  # (J, b^2 + 4a) of each non-scalar candidate, None without a relation
    for phi in candidates:
        if _is_scalar(phi, n):
            continue
        rel = _quadratic_relation(phi, n)
        if rel is None:
            found.append(None)
            continue
        J, a, b = rel
        disc = b * b + 4 * a
        found.append((J, disc))
        root = _positive_sqrt(disc)
        if root is not None:
            # the eigenvalues (b -+ root)/2 of J, the smaller first
            split = tuple(_eigenspace(J, (b + s) / 2, n) for s in (-root, root))
            return ModuleClassification("SIII", dimC, split=split)
    complex_ = [f is not None and f[1] < 0 for f in found]
    if dimC == 2 and complex_[0]:
        J, scale = found[0][0], n * C.denominator
        S = Mat([[Fraction(J.get(c * n + r, 0), scale) for c in range(n)] for r in range(n)])
        return ModuleClassification("SII", dimC, complex_structure=S)
    if dimC == 1:
        return ModuleClassification("SI", dimC)
    if dimC == 4 and all(complex_):
        return ModuleClassification(
            "SI",
            dimC,
            warnings=["commutant of dimension 4: accepted as irreducible"],
        )
    return ModuleClassification("unclassified", dimC)


def _eigenspace(J: dict[int, int], lam: Fraction, n: int) -> list[list[Fraction]]:
    """The canonical basis of the kernel of J - lam I, for the flat integer
    map J, as dense rows of Fractions, from the integer rows of
    q (J - lam I), q the denominator of lam."""
    rows = [{r: -lam.numerator} for r in range(n)]
    for k, x in J.items():
        c, r = divmod(k, n)
        rows[r][c] = rows[r].get(c, 0) + lam.denominator * x
    space = Echelon(n).extend({c: x for c, x in row.items() if x} for row in rows).kernel_space()
    return [[Fraction(v.get(c, 0), space.denominator) for c in range(n)] for v in space.basis]


def _positive_sqrt(x: Fraction) -> Fraction | None:
    """The positive rational square root of x, or None when x is not the
    square of a nonzero rational."""
    if x <= 0:
        return None
    p, q = isqrt(x.numerator), isqrt(x.denominator)
    if p * p != x.numerator or q * q != x.denominator:
        return None
    return Fraction(p, q)


def isotropic_split_check(G: Mat, V1, V2) -> dict:
    """Verify that V1, V2 are complementary, totally isotropic, and pair
    nondegenerately with each other under G.

    Every pairing is read off one Gram product P = V G V^T of the stacked
    rows V = [V1; V2]: its two diagonal blocks must vanish and its
    off-diagonal block V1 G V2^T must have full ``Mat.rank`` k = dim V1,
    else DegeneratePairing is raised.  Returns ``{"dims": (k, dim V2)}``."""
    n = G.n
    k = len(V1)
    if k + len(V2) != n:
        raise ValueError(
            f"split dims {k} + {len(V2)} do not add up to {n}"
        )
    V = Mat([*V1, *V2])
    if V.rank() != n:
        raise ValueError("split subspaces are not complementary")
    P = [[sum(x * y for x, y in zip(w, v)) for v in V.a] for w in (V * G).a]
    for name, block in (("first", range(k)), ("second", range(k, n))):
        for i in block:
            for j in range(i, block.stop):
                if P[i][j] != 0:
                    raise NotIsotropic(
                        f"{name} summand is not totally isotropic: g = {P[i][j]}"
                    )
    if k != len(V2):
        raise DegeneratePairing(
            f"summands of dimension {k} and {len(V2)} cannot pair "
            "nondegenerately"
        )
    if Mat([row[k:] for row in P[:k]]).rank() < k:
        raise DegeneratePairing("cross pairing between the summands is singular")
    return {"dims": (k, len(V2))}


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    name: str
    dims: dict[int, int]
    total_dim: int
    mu: int
    nu: int
    signature: tuple[int, int]
    semisimple: bool
    simple: bool
    centroid_dim: int | None
    module_class: str
    commutant_dim: int
    matched_table_row: str | None
    warnings: list[str]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "dims": {str(k): v for k, v in sorted(self.dims.items())},
            "total_dim": self.total_dim,
            "kind": self.mu,
            "max_degree": self.nu,
            "signature": list(self.signature),
            "semisimple": self.semisimple,
            "simple": self.simple,
            "centroid_dim": self.centroid_dim,
            "module_class": self.module_class,
            "commutant_dim": self.commutant_dim,
            "matched_table_row": self.matched_table_row,
            "warnings": self.warnings,
        }


def degree_zero_action(A: GradedAlgebra) -> list[dict[int, int]]:
    """ad u on the degree -1 piece for each u of the degree 0 basis, as flat
    integer maps ``{c*n + r: x}`` (n = dim g_{-1}) read from the scaled
    adjacency, so every entry is L times the structure constant; one scale
    for all of them leaves their commutant unchanged."""
    by_deg = A.by_degree()
    ad = _scaled_adjacency(A)[1]
    minus1 = by_deg.get(-1, [])
    pos = {g: r for r, g in enumerate(minus1)}
    n = len(minus1)
    try:
        return [
            {c * n + pos[k]: x for c, e in enumerate(minus1) for k, x in ad[u].get(e, {}).items()}
            for u in by_deg.get(0, [])
        ]
    except KeyError:  # a term of [u, e] outside g_{-1}: name the bracket
        require_graded(A)
        raise


@functools.cache
def _table_rows() -> tuple:
    """(label, TableRow) for every supported instance the oracle covers, in
    the order of ``families.oracle_instances``, built once per process; the
    rows are read, never modified.  The 68 rows span 19 distinct (series,
    rank) pairs, whose positive roots ``roots.positive_roots`` computes once
    each."""
    return tuple(
        (lab, table_expectation(key, **params)) for lab, key, params in oracle_instances()
    )


def match_table_row(prol, module_class: str | None = None) -> str | None:
    """Search the expected classification table for an instance whose
    oracle data matches the assembled prolongation exactly.

    The comparison uses graded dimensions, form signature, kind, and
    (when supplied) the module class of the degree-zero action.  A few
    instances still tie on all of those, e.g. a quaternionic family at
    q = 0 against its split sibling of the same matrix size; ties are
    reported joined with " | " rather than picking a winner, since the
    invariants computed here genuinely do not separate them.
    """
    dims = prol.dims_by_degree()
    sig = tuple(sorted(prol.form.signature(), reverse=True))
    hits = []
    for label, row in _table_rows():
        if (
            row.dims == dims
            and tuple(sorted(row.signature, reverse=True)) == sig
            and row.kind == prol.mu
            and (module_class is None or row.module_class == module_class)
        ):
            hits.append(f"{label}: ({row.series}{row.rank}, nodes {list(row.crossed)}), {row.satake_label}")
    if not hits:
        return None
    return " | ".join(hits)


# the start of the warning ``analyze`` gives an SIII verdict whose split
# fails ``isotropic_split_check``
SPLIT_NOT_CERTIFIED = "SIII split not certified"


def analyze(prol) -> AnalysisReport:
    """The structure report of a prolongation.  The Jacobi identity of its
    brackets is trusted, not checked: ``gla.check_gla`` (``glap check``)
    certifies it."""
    A = prol.algebra
    warnings: list[str] = []
    semisimple = is_semisimple(A)
    n1 = prol.form.matrix.n
    K = commutant(degree_zero_action(A), n1)
    centroid_dim = None
    simple = False
    if semisimple:
        C = _centroid(A, K)
        centroid_dim = len(C)
        simple = _simple_from_centroid(C.basis, A.n)
    cls = _classify_commutant(K, n1)
    warnings.extend(cls.warnings)
    if not prol.complete:
        warnings.append(f"prolongation truncated at degree {prol.nu}: a partial algebra")
    if cls.module_class == "SIII":
        # the paper's SIII: g_{-1} splits into two totally isotropic,
        # nondegenerately paired summands, which forces a neutral form
        try:
            isotropic_split_check(prol.form.matrix, *cls.split)
        except (NotIsotropic, DegeneratePairing) as e:
            warnings.append(f"{SPLIT_NOT_CERTIFIED}: {e}")
    return AnalysisReport(
        name=A.name,
        dims=prol.dims_by_degree(),
        total_dim=A.n,
        mu=prol.mu,
        nu=prol.nu,
        signature=prol.form.signature(),
        semisimple=semisimple,
        simple=simple,
        centroid_dim=centroid_dim,
        module_class=cls.module_class,
        commutant_dim=cls.commutant_dim,
        matched_table_row=match_table_row(prol, cls.module_class),
        warnings=warnings,
    )
