"""Structure analysis of assembled prolongations.

Killing form and (semi)simplicity, the centroid, the module structure of
the degree -1 part under the degree 0 part, and comparison against the
expected classification table.  All decisions are exact: semisimplicity is
a determinant being nonzero, simplicity is a statement about the centroid,
and module classes come from rational eigenspace splittings of the
commutant.

Simplicity from the centroid: for a semisimple real algebra the centroid
is a product of fields, one factor per simple ideal, each factor R or C.
So centroid dimension 1 means simple; dimension 2 means either one complex
ideal (a field, J^2 a negative scalar: simple as a real algebra) or two
ideals (split, J^2 a positive scalar after removing the trace: not
simple); dimension 3 or more means at least two ideals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import (
    DegeneratePairing,
    GlapError,
    NoCartanTag,
    NotIsotropic,
    NotSemisimple,
)
from .gla import GradedAlgebra, SymBilinearForm, _scaled_adjacency
from .linalg import (
    Echelon,
    Mat,
    rational_eigensplit,
    solve_affine,
    sparse_kernel,
)
from .roots import table_expectation


def killing_form(A: GradedAlgebra) -> Mat:
    """B(x, y) = tr(ad x ad y), computed from the sparse adjoint maps.

    The sums run in integers over the scaled adjacency (every structure
    constant times L, the lcm of their denominators).  Each term is a
    product of two constants, so each integer sum is exactly L**2 times the
    rational entry, which is stored as ``Fraction(total, L*L)``."""
    n = A.n
    L, ads = _scaled_adjacency(A)
    L2 = L * L
    B = Mat.zeros(n, n)
    for i in range(n):
        adi = ads[i]
        for j in range(i, n):
            total = 0
            for a, cell in ads[j].items():
                for b, c in cell.items():
                    back = adi.get(b)
                    if back:
                        d = back.get(a)
                        if d:
                            total += c * d
            if total:
                B.a[i][j] = B.a[j][i] = Fraction(total, L2)
    return B


def is_semisimple(A: GradedAlgebra) -> bool:
    return killing_form(A).det() != 0


# ---------------------------------------------------------------------------
# centroid
# ---------------------------------------------------------------------------


def _find_characteristic(A: GradedAlgebra, L: int, ad):
    """Coordinates (over the degree 0 basis) of an element acting as
    multiplication by p on every degree p piece, or None.  The rows read
    the scaled adjacency ``(L, ad)``, so the right-hand side is scaled by L
    with them."""
    by_deg = A.by_degree()
    zero_ix = by_deg.get(0, [])
    if not zero_ix:
        return None
    rows = []
    rhs = []
    for j in range(A.n):
        want = {j: L * A.degrees[j]}
        touched = set(want)
        cells = []
        for u in zero_ix:
            cell = ad[u].get(j, {})
            cells.append(cell)
            touched.update(cell)
        for k in sorted(touched):
            rows.append({t: cell.get(k, 0) for t, cell in enumerate(cells)})
            rhs.append(want.get(k, 0))
    return solve_affine(rows, rhs, len(zero_ix))


def _generating_indices(A: GradedAlgebra, ad) -> list[int]:
    """Basis indices whose bracket closure spans A; prefers the degree
    +-1 layers, falling back to the full basis.  Brackets are read from
    the scaled adjacency, which rescales each closure vector and so leaves
    every span unchanged."""
    by_deg = A.by_degree()
    cand = by_deg.get(-1, []) + by_deg.get(1, [])
    if not cand:
        return list(range(A.n))
    ech = Echelon(A.n)
    vecs: list[dict[int, int]] = []
    for i in cand:
        v = {i: 1}
        if ech.add(v):
            vecs.append(v)
    frontier = list(vecs)
    while frontier and ech.rank < A.n:
        new = []
        for v in frontier:
            for w in vecs:
                acc: dict[int, int] = {}
                for i, a in v.items():
                    adi = ad[i]
                    for j, b in w.items():
                        cell = adi.get(j)
                        if cell:
                            for k, c in cell.items():
                                acc[k] = acc.get(k, 0) + a * b * c
                acc = {k: x for k, x in acc.items() if x}
                if acc and ech.add(acc):
                    new.append(acc)
        vecs.extend(new)
        frontier = new
    if ech.rank == A.n:
        return cand
    return list(range(A.n))


def centroid(A: GradedAlgebra) -> list[Mat]:
    """Canonical basis of {phi : phi o ad x = ad x o phi for all x}.

    For graded algebras containing a characteristic element the solve is
    restricted to degree-preserving maps constrained against a generating
    set (both reductions are theorems, and the result is re-verified
    against the definition, so they cannot silently go wrong).

    One scaled adjacency (every structure constant times L, the lcm of
    their denominators) is built per call and read by the rows and by the
    verification.  Each centroid row is homogeneous and linear in the
    constants, so scaling them all by L scales the row and keeps its
    solutions.  The verification residual is linear in the constants too,
    so it is L times the rational one and vanishes exactly when it does.

    Identity bound: the rows are reduced one at a time and the solve stops
    as soon as their rank is one less than the number of unknowns.  The
    identity map solves every centroid row (phi = id turns each into
    [e, a_j] - [e, a_j]), and each row is checked against it, so the rows
    span a subspace of the identity's annihilator, which has dimension
    unknowns - 1.  At that rank the rows span all of it, no later row can
    shrink the kernel, and the kernel is the identity alone.  When the
    centroid has dimension 2 or more the bound is never reached and every
    row is reduced.  The canonical kernel basis depends only on the kernel,
    so stopping early changes no output.
    """
    L, ad = _scaled_adjacency(A)
    rows, cells = _centroid_system(A, L, ad)
    basis = _solve_to_identity_bound(rows, cells, A.n)
    _verify_centroid(A, basis, ad)
    return basis


def _centroid_system(A: GradedAlgebra, L: int, ad):
    """The centroid equations as (lazy rows, cells): unknown k of a row is
    the entry phi[r][c] for (r, c) = cells[k].  ``(L, ad)`` is the scaled
    adjacency of A; the rows have integer entries."""
    by_deg = A.by_degree()
    graded = (
        any(d < 0 for d in by_deg)
        and 0 in by_deg
        and _find_characteristic(A, L, ad) is not None
    )
    if graded:
        return _graded_system(A, ad)
    return _dense_system(A, ad)


def _graded_system(A: GradedAlgebra, ad):
    by_deg = A.by_degree()
    local = {d: {g: t for t, g in enumerate(ix)} for d, ix in by_deg.items()}
    offs = {}
    cells = []
    for d in sorted(by_deg):
        ix = by_deg[d]
        offs[d] = len(cells)
        cells.extend((ix[r], ix[c]) for c in range(len(ix)) for r in range(len(ix)))

    def col(d, r, c):
        return offs[d] + c * len(by_deg[d]) + r

    def rows():
        for e in _generating_indices(A, ad):
            de = A.degrees[e]
            ade = ad[e]
            for j in range(A.n):
                dj = A.degrees[j]
                td = de + dj
                tgt = by_deg.get(td, [])
                if not tgt:
                    continue
                comp: dict[int, dict[int, int]] = {}
                cell = ade.get(j, {})
                for mg, c in cell.items():
                    for tg in tgt:
                        cc = col(td, local[td][tg], local[td][mg])
                        row = comp.setdefault(tg, {})
                        row[cc] = row.get(cc, 0) + c
                for rg in by_deg[dj]:
                    move = ade.get(rg)
                    if not move:
                        continue
                    for tg, c in move.items():
                        cc = col(dj, local[dj][rg], local[dj][j])
                        row = comp.setdefault(tg, {})
                        row[cc] = row.get(cc, 0) - c
                for row in comp.values():
                    row = {c: v for c, v in row.items() if v != 0}
                    if row:
                        yield row

    return rows(), cells


def _dense_system(A: GradedAlgebra, ad):
    n = A.n
    if n > 40:
        raise GlapError("dense centroid solve refused for dim > 40")

    def col(r, c):
        return c * n + r

    def rows():
        for e in range(n):
            ade = ad[e]
            for j in range(n):
                # phi([e, a_j]) - [e, phi(a_j)] = 0, row per target component
                cell = ade.get(j, {})
                for tg in range(n):
                    row: dict[int, int] = {}
                    for mg, c in cell.items():
                        cc = col(tg, mg)
                        row[cc] = row.get(cc, 0) + c
                    for rg in range(n):
                        move = ade.get(rg)
                        if move and tg in move:
                            cc = col(rg, j)
                            row[cc] = row.get(cc, 0) - move[tg]
                    row = {c: v for c, v in row.items() if v != 0}
                    if row:
                        yield row

    return rows(), [(r, c) for c in range(n) for r in range(n)]


def _solve_to_identity_bound(rows, cells, n: int) -> list[Mat]:
    """Canonical kernel basis of the centroid rows, as n x n maps, reducing
    rows only until the identity bound (see ``centroid``) is reached."""
    unknowns = len(cells)
    diagonal = {k for k, (r, c) in enumerate(cells) if r == c}
    ech = Echelon(unknowns)
    for row in rows:
        if sum(v for k, v in row.items() if k in diagonal) != 0:
            raise GlapError("a centroid row is not solved by the identity")
        ech.add(row)
        if ech.rank == unknowns - 1:
            break
    out = []
    for vec in ech.kernel_space("the centroid").vectors:
        M = Mat.zeros(n, n)
        for k, v in vec.items():
            r, c = cells[k]
            M.a[r][c] = v
        out.append(M)
    return out


def _verify_centroid(A: GradedAlgebra, basis: list[Mat], ad):
    """Raise GlapError unless phi([a_i, a_j]) == [phi(a_i), a_j] for every
    basis map phi and every ordered pair (i, j), i == j included.

    ``ad`` is the scaled adjacency of A (constants times L) and each phi is
    scaled by the lcm D of its denominators, so the check runs in integers;
    the residual is bilinear in the constants and phi, so it is L * D times
    the rational one and vanishes exactly when it does."""
    n = A.n
    for phi in basis:
        D = 1
        for row in phi.a:
            for x in row:
                if D % x.denominator:
                    D = lcm(D, x.denominator)
        cols: list[dict[int, int]] = [{} for _ in range(n)]
        for r, row in enumerate(phi.a):
            for c, x in enumerate(row):
                if x:
                    cols[c][r] = x.numerator * (D // x.denominator)
        for i in range(n):
            # j -> phi([a_i, a_j]) - [phi(a_i), a_j], as a sparse vector
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
            if any(v for acc in diff.values() for v in acc.values()):
                raise GlapError("centroid candidate fails the definition")


def is_simple(A: GradedAlgebra) -> bool:
    """Simplicity test through the centroid; requires semisimplicity."""
    if not is_semisimple(A):
        raise NotSemisimple(f"{A.name} has degenerate Killing form")
    return _simple_from_centroid(centroid(A), A.n)


def _simple_from_centroid(C: list[Mat], n: int) -> bool:
    """Simplicity of a semisimple algebra of dimension n from a basis C of
    its centroid (see the module docstring)."""
    if not C:
        raise GlapError("empty centroid; the identity always lies in it")
    if len(C) == 1:
        return True
    if len(C) > 2:
        return False
    # pick a non-scalar element and remove its trace
    ident = Mat.identity(n)
    cand = None
    for M in C:
        if not _is_scalar(M):
            cand = M
            break
    if cand is None:
        raise GlapError("2-dimensional centroid of scalars")
    J = cand - (cand.trace() / n) * ident
    # J^2 = a*I + b*J for unique a, b since {I, J} spans the centroid
    J2 = J * J
    a, b = _in_span_id_J(J2, J, n)
    # complete the square: (J - b/2)^2 = a + b^2/4
    disc = a + b * b / 4
    if disc < 0:
        return True
    if disc > 0:
        return False
    raise GlapError("centroid contains a nilpotent; algebra cannot be semisimple")


def _is_scalar(M: Mat) -> bool:
    d = M.a[0][0]
    return M == d * Mat.identity(M.n)


def _in_span_id_J(T: Mat, J: Mat, n: int) -> tuple[Fraction, Fraction]:
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            rows.append({0: Fraction(int(i == j)), 1: J.a[i][j]})
            rhs.append(T.a[i][j])
    sol = solve_affine(rows, rhs, 2)
    if sol is None:
        raise GlapError("J^2 escaped the centroid span")
    return sol[0], sol[1]


# ---------------------------------------------------------------------------
# module structure of the degree -1 part
# ---------------------------------------------------------------------------


def commutant(mats: list[Mat], n: int) -> list[Mat]:
    """Canonical basis of {phi : phi M = M phi for every M in mats}."""

    def col(r, c):
        return c * n + r

    rows = []
    for M in mats:
        for i in range(n):
            for j in range(n):
                row: dict[int, Fraction] = {}
                # (phi M - M phi)[i][j]
                for r in range(n):
                    if M.a[r][j] != 0:
                        cc = col(i, r)
                        row[cc] = row.get(cc, Fraction(0)) + M.a[r][j]
                    if M.a[i][r] != 0:
                        cc = col(r, j)
                        row[cc] = row.get(cc, Fraction(0)) - M.a[i][r]
                row = {c: v for c, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    kern = sparse_kernel(rows, n * n)
    out = []
    for vec in kern:
        M = Mat.zeros(n, n)
        for c in range(n):
            for r in range(n):
                v = vec[col(r, c)]
                if v != 0:
                    M.a[r][c] = v
        out.append(M)
    return out


@dataclass
class ModuleClassification:
    module_class: str  # "SI" | "SII" | "SIII" | "unclassified"
    commutant_dim: int
    split: tuple[list[list[Fraction]], list[list[Fraction]]] | None = None
    complex_structure: Mat | None = None
    warnings: list[str] = field(default_factory=list)


def classify_module(mats: list[Mat], G: Mat) -> ModuleClassification:
    """Classify the module on which ``mats`` act, in the presence of the
    symmetric form G.

    Order of business: a rational eigensplit of a commutant element into
    exactly two invariant pieces means the module is reducible (SIII);
    otherwise a complex structure in a 2-dimensional commutant means
    irreducible with reducible complexification (SII); a commutant of
    dimension 1 means absolutely irreducible (SI); dimension 4 is accepted
    as SI with a warning (quaternionic commutant).
    """
    n = G.n
    C = commutant(mats, n)
    dimC = len(C)
    candidates = list(C)
    for i in range(dimC):
        for j in range(i + 1, dimC):
            candidates.append(C[i] + C[j])
    # SIII: some commutant element splits the module into two invariant parts
    for phi in candidates:
        es = rational_eigensplit(phi)
        parts = [b for _, b in es.eigen if b] + ([es.residual] if es.residual else [])
        if es.complete and len(parts) >= 2:
            v1 = parts[0]
            v2 = [v for part in parts[1:] for v in part]
            return ModuleClassification("SIII", dimC, split=(v1, v2))
    # SII: 2-dimensional commutant containing a complex structure
    if dimC == 2:
        ident = Mat.identity(n)
        for phi in candidates:
            J = phi - (phi.trace() / n) * ident
            if J.is_zero():
                continue
            J2 = J * J
            d = J2.a[0][0]
            if d < 0 and J2 == d * ident:
                return ModuleClassification("SII", dimC, complex_structure=J)
    if dimC == 1:
        return ModuleClassification("SI", dimC)
    if dimC == 4:
        return ModuleClassification(
            "SI",
            dimC,
            warnings=["commutant of dimension 4: accepted as irreducible"],
        )
    return ModuleClassification("unclassified", dimC)


def isotropic_split_check(G: Mat, V1, V2) -> dict:
    """Verify that V1, V2 are complementary, totally isotropic, and pair
    nondegenerately with each other under G."""
    n = G.n
    if len(V1) + len(V2) != n:
        raise ValueError(
            f"split dims {len(V1)} + {len(V2)} do not add up to {n}"
        )
    ech = Echelon(n)
    for v in list(V1) + list(V2):
        ech.add({i: c for i, c in enumerate(v) if c != 0})
    if ech.rank != n:
        raise ValueError("split subspaces are not complementary")
    for name, V in (("first", V1), ("second", V2)):
        for i, v in enumerate(V):
            for w in V[i:]:
                val = _pair(G, v, w)
                if val != 0:
                    raise NotIsotropic(
                        f"{name} summand is not totally isotropic: g = {val}"
                    )
    if len(V1) != len(V2):
        raise DegeneratePairing(
            f"summands of dimension {len(V1)} and {len(V2)} cannot pair "
            "nondegenerately"
        )
    P = Mat([[_pair(G, v, w) for w in V2] for v in V1])
    if P.det() == 0:
        raise DegeneratePairing("cross pairing between the summands is singular")
    return {"dims": (len(V1), len(V2)), "cross_pairing_det": P.det()}


def _pair(G: Mat, v, w) -> Fraction:
    return sum(
        (v[i] * G.a[i][j] * w[j] for i in range(G.n) for j in range(G.n)),
        Fraction(0),
    )


def form_transport(G1: Mat, G2: Mat):
    """The endomorphism phi with G2(x, y) = G1(phi x, y), plus a verdict on
    whether the two forms are proportional."""
    if G1.n != G2.n:
        raise ValueError("forms on spaces of different dimension")
    phi = G1.inverse() * G2
    lam = None
    for i in range(G1.n):
        for j in range(G1.n):
            if G1.a[i][j] != 0:
                lam = G2.a[i][j] / G1.a[i][j]
                break
        if lam is not None:
            break
    if lam is not None and G2 == lam * G1:
        return phi, "proportional", lam
    return phi, "general", None


def rank_bound_check_split(cartan_dim: int | None, signature: tuple[int, int]) -> dict:
    """The split-rank bound: a maximal R-diagonalizable subalgebra through
    E has dimension at most min(r, s) + 1."""
    if cartan_dim is None:
        raise NoCartanTag("no split Cartan data attached to this algebra")
    r, s = signature
    bound = min(r, s) + 1
    return {"cartan_dim": cartan_dim, "bound": bound, "ok": cartan_dim <= bound}


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


def degree_zero_action(A: GradedAlgebra) -> list[Mat]:
    """Matrices of the degree 0 basis acting on the degree -1 piece."""
    by_deg = A.by_degree()
    return [A.restriction_matrix(u, -1) for u in by_deg.get(0, [])]


@functools.cache
def _table_rows() -> tuple:
    """(label, TableRow) for every instance of the expected classification
    table, built once per process; the rows are read, never modified."""
    rows = []
    # every p >= 1, q >= 0 with 3 <= 2p+q <= 8, the range the builders take
    for p in range(1, 8 // 2 + 1):
        for q in range(max(0, 3 - 2 * p), 8 - 2 * p + 1):
            for fam in ("HC", "HC'", "HH", "HH'"):
                rows.append((f"{fam}(p={p},q={q})", table_expectation(fam, p=p, q=q)))
    for l in range(2, 7):
        rows.append((f"BI(l={l})", table_expectation("BI", l=l)))
    rows.append(("HO", table_expectation("HO")))
    rows.append(("HO'", table_expectation("HO'")))
    rows.append(("G", table_expectation("G")))
    return tuple(rows)


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


def analyze(prol) -> AnalysisReport:
    A = prol.algebra
    warnings: list[str] = []
    semisimple = is_semisimple(A)
    centroid_dim = None
    simple = False
    if semisimple:
        C = centroid(A)
        centroid_dim = len(C)
        simple = _simple_from_centroid(C, A.n)
    mats = degree_zero_action(A)
    cls = classify_module(mats, prol.form.matrix)
    warnings.extend(cls.warnings)
    if cls.module_class == "SIII":
        r, s = prol.form.signature()
        if r != s:
            warnings.append(
                f"SIII module with signature ({r},{s}); expected a neutral form"
            )
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
