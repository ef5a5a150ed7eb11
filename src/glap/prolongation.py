"""Conformal derivation algebras and full prolongations.

Given a fundamental graded Lie algebra m (negative degrees only) and a
nondegenerate symmetric bilinear form g on its degree -1 part, the degree 0
layer is the algebra of grading-preserving derivations D of m whose
restriction to degree -1 rescales g infinitesimally:

    g(D x, y) + g(x, D y) = eta(D) * g(x, y).

The factor eta(D) is one extra unknown in a joint homogeneous linear
system, solved exactly over the rationals.  Higher layers follow the usual
prolongation recursion: degree k+1 consists of the degree-(k+1) maps
u : m -> (current algebra) satisfying

    u([x, y]) = [u(x), y] + [x, u(y)]      for all x, y in m,

with [u, x] := u(x).  Brackets between nonnegative layers are forced by
requiring ad to act by derivations: inside degree 0 they are commutators
of maps, formed on sparse columns; above it, ([w, v])(z) = [w, [v, z]] -
[v, [w, z]].  Each such bracket is re-expressed in its layer's canonical
kernel basis by one shared helper, ``linalg.Subspace.coords``, which
rebuilds the bracket from its coordinates and raises GlapError unless the
two agree exactly.  Every assembled algebra is certified afterwards by an
exhaustive Jacobi sweep, so a bug in the incremental bookkeeping cannot
survive to the output.

The hot loops run in Python ints on one scaled adjacency per call
(``gla._scaled_adjacency``: every structure constant times L, the lcm of
their denominators), never on copied bracket dicts.  This is exact for two
reasons.  A derivation row is a sum of signed constants, so it is L times
the rational row and, being homogeneous, has the same kernel.  A forced
bracket is a sum of products of two constants, so its integer map is L**2
times the rational one; ``Subspace.coords`` certifies the integer vector
and each coordinate is then divided by L**2 as a Fraction.

The recursion stops at the first empty layer; for the inputs this package
builds that always happens (the negative part is fundamental and the
derivation algebra of a conformal class is finite), but a runaway input is
cut off after GLAP_STEP_LIMIT steps (default 64).
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    EtaVanishesOnE,
    GlapError,
    NotFundamental,
    ParseError,
    StepLimitExceeded,
)
from .gla import (
    GradedAlgebra,
    SymBilinearForm,
    _load_json,
    _minus1_rows,
    _scaled_adjacency,
    check_fundamental,
    check_gla,
    require_graded,
)
from .linalg import Echelon, Mat, sparse_kernel, sparse_rank


class _Layout:
    """Column layout for block-structured unknowns.

    Each block is a (rows x cols) matrix of unknowns tagged by a key;
    columns are flattened block by block, column-major inside a block.
    """

    def __init__(self):
        self.blocks: dict[object, tuple[int, int, int]] = {}  # key -> (off, rows, cols)
        self.total = 0
        self._starts: list[int] = []
        self._keys: list = []

    def add(self, key, rows: int, cols: int):
        self.blocks[key] = (self.total, rows, cols)
        self._starts.append(self.total)
        self._keys.append(key)
        self.total += rows * cols

    def col(self, key, r: int, c: int) -> int:
        off, rows, cols = self.blocks[key]
        if not (0 <= r < rows and 0 <= c < cols):
            raise GlapError(f"entry ({r}, {c}) outside the {rows}x{cols} block {key!r}")
        return off + c * rows + r

    def columns(self, vec: dict[int, Fraction]) -> dict:
        """Split a sparse flat vector into sparse block columns,
        ``key -> column -> {row: value}`` in increasing order; entries past
        the last block (the eta column) are left out."""
        out: dict = {}
        for i in sorted(vec):
            if i >= self.total:
                continue
            key = self._keys[bisect_right(self._starts, i) - 1]
            off, rows, _ = self.blocks[key]
            c, r = divmod(i - off, rows)
            out.setdefault(key, {}).setdefault(c, {})[r] = vec[i]
        return out

    def unflatten(self, key, vec: dict[int, Fraction]) -> Mat:
        off, rows, cols = self.blocks[key]
        M = Mat.zeros(rows, cols)
        for c in range(cols):
            for r in range(rows):
                x = vec.get(off + c * rows + r)
                if x:
                    M.a[r][c] = x
        return M


@dataclass
class Derivation:
    """A grading-preserving derivation of m together with its conformal
    factor eta; ``blocks[p]`` maps the degree p piece to itself."""

    blocks: dict[int, Mat]
    eta: Fraction

    def commutator(self, other: "Derivation") -> "Derivation":
        blocks = {}
        for p, A in self.blocks.items():
            B = other.blocks[p]
            blocks[p] = A * B - B * A
        return Derivation(blocks, Fraction(0))


class DerivationBasis:
    """Canonical basis of the conformal derivation algebra of (m, g)."""

    def __init__(self, m, g, elements, layout, space, eta_col):
        self.m = m
        self.g = g
        self.elements: list[Derivation] = elements
        self._layout = layout
        self._space = space
        self._eta_col = eta_col

    def __len__(self):
        return len(self.elements)

    def coordinates_of(self, blocks: dict[int, Mat], eta) -> list[Fraction]:
        """Coordinates in this basis; raises GlapError if the map is not in
        the span (certified by exact reconstruction, eta included)."""
        vec = {self._eta_col: Fraction(eta)}
        for p, M in blocks.items():
            off, rows, cols = self._layout.blocks[p]
            for c in range(cols):
                for r in range(rows):
                    if M.a[r][c]:
                        vec[off + c * rows + r] = M.a[r][c]
        return self._space.coords(vec, "map")


def _derivation_rows(A: GradedAlgebra, layout: _Layout, shift: int, ad):
    """Yield the constraint rows of D([x,y]) = [D(x),y] + [x,D(y)] over all
    pairs of negative-degree basis elements, for a degree-``shift`` map D
    whose blocks are indexed by source degree in ``layout``.

    ``ad`` is the scaled adjacency of A (``gla._scaled_adjacency``): every
    structure constant times one common L.  Each row is a sum of signed
    constants, so its entries are L times the rational ones, all ints, and
    it has the same solutions."""
    by_deg = A.by_degree()
    neg = sorted(d for d in by_deg if d < 0)
    local = {
        d: {g: t for t, g in enumerate(by_deg[d])} for d in by_deg
    }
    for p in neg:
        for q in neg:
            if q < p:
                continue
            td = p + q + shift
            tgt = by_deg.get(td, [])
            if not tgt:
                continue
            tpos = local[td]
            for ii, gi in enumerate(by_deg[p]):
                adi = ad[gi]
                js = by_deg[q]
                start = ii + 1 if p == q else 0
                for jj in range(start, len(js)):
                    gj = js[jj]
                    comp: dict[int, dict[int, int]] = {}
                    # D([x, y]) over the (p+q)-block, when it exists
                    cell = adi.get(gj)
                    if cell and (p + q) in layout.blocks:
                        mloc = local[p + q]
                        for mg, c in cell.items():
                            for t_global in tgt:
                                col = layout.col(p + q, tpos[t_global], mloc[mg])
                                row = comp.setdefault(t_global, {})
                                row[col] = row.get(col, 0) + c
                    # -[D(x), y]: D(x) runs over the degree p+shift basis
                    if p in layout.blocks:
                        adj = ad[gj]
                        for r, fr in enumerate(by_deg.get(p + shift, [])):
                            cell = adj.get(fr)
                            if cell:
                                col = layout.col(p, r, ii)
                                for t_global, c in cell.items():
                                    # [fr, gj] = -[gj, fr]
                                    row = comp.setdefault(t_global, {})
                                    row[col] = row.get(col, 0) + c
                    # -[x, D(y)]
                    if q in layout.blocks:
                        for r, fr in enumerate(by_deg.get(q + shift, [])):
                            cell = adi.get(fr)
                            if cell:
                                col = layout.col(q, r, jj)
                                for t_global, c in cell.items():
                                    row = comp.setdefault(t_global, {})
                                    row[col] = row.get(col, 0) - c
                    for row in comp.values():
                        row = {c: v for c, v in row.items() if v}
                        if row:
                            yield row


def conformal_g0(m: GradedAlgebra, g: SymBilinearForm) -> DerivationBasis:
    """Canonical basis of all grading-preserving derivations of m that are
    conformal with respect to g on the degree -1 part."""
    ok, _ = check_fundamental(m)
    if not ok:
        raise NotFundamental(
            f"{m.name}: the degree -1 part does not generate the algebra"
        )
    g.require_on(m)
    layout = _Layout()
    by_deg = m.by_degree()
    for p in sorted(by_deg):
        d = len(by_deg[p])
        layout.add(p, d, d)
    eta_col = layout.total

    rows = list(_derivation_rows(m, layout, 0, _scaled_adjacency(m)[1]))
    # conformal condition: sum_r D[r,a] G[r,b] + sum_r G[a,r] D[r,b] = eta G[a,b]
    G = g.matrix
    nm1 = len(g.indices)
    for a in range(nm1):
        for b in range(a, nm1):
            row: dict[int, Fraction] = {}
            for r in range(nm1):
                if G.a[r][b] != 0:
                    c = layout.col(-1, r, a)
                    row[c] = row.get(c, Fraction(0)) + G.a[r][b]
                if G.a[a][r] != 0:
                    c = layout.col(-1, r, b)
                    row[c] = row.get(c, Fraction(0)) + G.a[a][r]
            if G.a[a][b] != 0:
                row[eta_col] = row.get(eta_col, Fraction(0)) - G.a[a][b]
            row = {c: v for c, v in row.items() if v != 0}
            if row:
                rows.append(row)

    ech = Echelon(layout.total + 1)
    for row in rows:
        ech.add(row)
    space = ech.kernel_space("the conformal derivation algebra")
    elements = []
    for vec in space.vectors:
        blocks = {p: layout.unflatten(p, vec) for p in by_deg}
        elements.append(Derivation(blocks, vec.get(eta_col, Fraction(0))))
    basis = DerivationBasis(m, g, elements, layout, space, eta_col)
    # the grading derivation (p * id on degree p, eta = -2) must be in the
    # span; failing that, something above is broken
    basis.coordinates_of(_grading_blocks(m), Fraction(-2))
    return basis


def _grading_blocks(m: GradedAlgebra) -> dict[int, Mat]:
    by_deg = m.by_degree()
    return {p: Fraction(p) * Mat.identity(len(ix)) for p, ix in by_deg.items()}


def grading_derivation(m: GradedAlgebra) -> Derivation:
    """The characteristic derivation: multiplication by p on degree p."""
    return Derivation(_grading_blocks(m), Fraction(-2))


def scaling_split(basis: DerivationBasis) -> tuple[Derivation, list[Derivation]]:
    """Split the conformal derivation algebra as R E + ker(eta).

    E is the characteristic derivation; eta(E) = -2 pins the normalization.
    Returns (E, basis of the eta-kernel).  Raises EtaVanishesOnE when eta
    vanishes identically on the span, which would contradict E lying in it.
    """
    E = grading_derivation(basis.m)
    etas = [el.eta for el in basis.elements]
    if all(e == 0 for e in etas):
        raise EtaVanishesOnE(
            "eta vanishes on the whole derivation algebra; E cannot be inside"
        )
    coords_E = basis.coordinates_of(E.blocks, E.eta)
    eta_E = sum(c * e for c, e in zip(coords_E, etas))
    if eta_E != -2:
        raise EtaVanishesOnE(f"eta(E) = {eta_E}, expected -2")
    combos = sparse_kernel(
        [{t: e for t, e in enumerate(etas) if e != 0}], len(etas)
    )
    hats = []
    for combo in combos:
        blocks: dict[int, Mat] | None = None
        for c, el in zip(combo, basis.elements):
            if c == 0:
                continue
            scaled = {p: c * M for p, M in el.blocks.items()}
            if blocks is None:
                blocks = scaled
            else:
                blocks = {p: blocks[p] + scaled[p] for p in blocks}
        if blocks is None:
            blocks = {p: Mat.zeros(M.m, M.n) for p, M in E.blocks.items()}
        hats.append(Derivation(blocks, Fraction(0)))
    return E, hats


# ---------------------------------------------------------------------------
# assembling the nonnegative part
# ---------------------------------------------------------------------------


def _sparse_columns(M: Mat) -> dict[int, dict[int, Fraction]]:
    """Nonzero columns of M as ``column -> {row: value}``."""
    out = {}
    for c in range(M.n):
        col = {r: M.a[r][c] for r in range(M.m) if M.a[r][c] != 0}
        if col:
            out[c] = col
    return out


def _sparse_commutator(A: dict, B: dict, layout: _Layout) -> dict[int, Fraction]:
    """[D_a, D_b] flattened in ``layout``, from the sparse block columns of
    D_a and D_b: column c of block p is D_a(D_b e_c) - D_b(D_a e_c)."""
    out: dict[int, Fraction] = {}
    for p, (off, rows, _) in layout.blocks.items():
        Ap, Bp = A[p], B[p]
        for c in Ap.keys() | Bp.keys():
            acc: dict[int, Fraction] = {}
            for r, x in Bp.get(c, {}).items():
                for s, y in Ap.get(r, {}).items():
                    acc[s] = acc.get(s, 0) + x * y
            for r, x in Ap.get(c, {}).items():
                for s, y in Bp.get(r, {}).items():
                    acc[s] = acc.get(s, 0) - x * y
            for s, v in acc.items():
                if v:
                    out[off + c * rows + s] = v
    return out


def assemble_degree0(m: GradedAlgebra, basis: DerivationBasis) -> GradedAlgebra:
    """m extended by its conformal derivation algebra in degree 0.

    Brackets: [D, x] = D(x) for x in m, and [D, D'] the commutator of maps.
    Each commutator is formed in full on sparse columns of the basis
    elements and re-expressed in the canonical derivation basis by the
    basis's ``Subspace``, which certifies over Q that it lies in the span
    (eta column included) and raises GlapError otherwise.
    """
    n = m.n
    t = len(basis)
    labels = list(m.labels) + [f"d0_{i}" for i in range(t)]
    degrees = list(m.degrees) + [0] * t
    brackets = dict(m.brackets)
    by_deg = m.by_degree()
    cols = [
        {p: _sparse_columns(el.blocks[p]) for p in by_deg} for el in basis.elements
    ]
    for a, blocks in enumerate(cols):
        for p, ix in by_deg.items():
            for c_loc, col in blocks[p].items():
                # [x, D] = -D(x)
                brackets[(ix[c_loc], n + a)] = {ix[r]: -v for r, v in col.items()}
    for a in range(t):
        for b in range(a + 1, t):
            comm = _sparse_commutator(cols[a], cols[b], basis._layout)
            coords = basis._space.coords(comm, f"[d0_{a}, d0_{b}]")
            cell = {n + i: c for i, c in enumerate(coords) if c != 0}
            if cell:
                brackets[(n + a, n + b)] = cell
    return GradedAlgebra(f"prol({m.name})", labels, degrees, brackets)


def prolong_step(A: GradedAlgebra, k: int) -> GradedAlgebra:
    """Extend a partial prolongation (degrees -mu..k) by its degree k+1
    layer; returns A unchanged when the layer is empty.

    Besides the new basis elements and their action brackets [u, x] = u(x),
    all brackets between nonnegative degrees summing to k+1 are computed
    (forced by the derivation property of ad on m) and certified by exact
    re-expression in the new layer's canonical basis.
    """
    by_deg = A.by_degree()
    if max(by_deg) != k:
        raise GlapError(f"expected top degree {k}, found {max(by_deg)}")
    neg = sorted(d for d in by_deg if d < 0)
    mu = -neg[0]
    shift = k + 1
    layout = _Layout()
    for p in neg:
        tgt = by_deg.get(p + shift, [])
        if tgt:
            layout.add(p, len(tgt), len(by_deg[p]))
    ech = Echelon(layout.total)
    for row in _derivation_rows(A, layout, shift, _scaled_adjacency(A)[1]):
        ech.add(row)
    space = ech.kernel_space(f"the degree {shift} layer")
    if not space.vectors:
        return A

    n = A.n
    t = len(space)
    labels = list(A.labels) + [f"p{shift}_{i}" for i in range(t)]
    degrees = list(A.degrees) + [shift] * t
    brackets = dict(A.brackets)
    for i, vec in enumerate(space.vectors):
        for p, blk in layout.columns(vec).items():
            src, tgt = by_deg[p], by_deg[p + shift]
            for c_loc, col in blk.items():
                # [x, u] = -u(x)
                brackets[(src[c_loc], n + i)] = {tgt[r]: -v for r, v in col.items()}
    A2 = GradedAlgebra(A.name, labels, degrees, brackets)

    # brackets between nonnegative layers summing to k+1, forced by
    # ([w, v])(z) = [w, [v, z]] - [v, [w, z]] for z in m.  Each term is a
    # product of two constants of A2's scaled adjacency, so the integer
    # map is exactly L**2 times the rational one; its coordinates are
    # certified as integers and divided by L**2 afterwards.
    L, ad = _scaled_adjacency(A2)
    L2 = L * L
    by_deg2 = A2.by_degree()
    # per source degree p: target positions, and (flat offset of column z, z)
    blocks = []
    for p in neg:
        if p not in layout.blocks:
            # the forced map must vanish into this degree; the final
            # Jacobi sweep certifies that it does
            continue
        off, rows_p, _ = layout.blocks[p]
        tpos = {g: r for r, g in enumerate(by_deg[p + shift])}
        zs = [(off + c_loc * rows_p, z) for c_loc, z in enumerate(by_deg[p])]
        blocks.append((tpos, zs))
    extra: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a in range(0, shift // 2 + 1):
        b = shift - a
        for w in by_deg2.get(a, []):
            adw = ad[w]
            for v in by_deg2.get(b, []):
                if a == b and w >= v:
                    continue
                adv = ad[v]
                flat: dict[int, int] = {}
                for tpos, zs in blocks:
                    for base, z in zs:
                        acc: dict[int, int] = {}
                        cell = adv.get(z)
                        if cell:
                            for mgl, c in cell.items():
                                row = adw.get(mgl)
                                if row:
                                    for tg, d in row.items():
                                        acc[tg] = acc.get(tg, 0) + c * d
                        cell = adw.get(z)
                        if cell:
                            for mgl, c in cell.items():
                                row = adv.get(mgl)
                                if row:
                                    for tg, d in row.items():
                                        acc[tg] = acc.get(tg, 0) - c * d
                        for tg, val in acc.items():
                            if val:
                                flat[base + tpos[tg]] = val
                coords = space.coords(flat, f"forced bracket of degrees ({a},{b})")
                cell = {n + i: Fraction(c, L2) for i, c in enumerate(coords) if c}
                if cell:
                    extra[(w, v)] = cell
    if extra:
        A2 = GradedAlgebra(A2.name, labels, degrees, {**A2.brackets, **extra})
    return A2


def transitivity_check(A: GradedAlgebra) -> bool:
    """No nonzero element of a nonnegative layer may kill all of degree -1."""
    ad = _scaled_adjacency(A)[1]
    return all(
        sparse_rank(_minus1_rows(A, ad, d).values(), len(ix)) == len(ix)
        for d, ix in A.by_degree().items()
        if d >= 0
    )


@dataclass
class ProlongationResult:
    algebra: GradedAlgebra
    form: SymBilinearForm
    step_dims: dict[int, int]
    mu: int
    nu: int
    complete: bool

    def dims_by_degree(self) -> dict[int, int]:
        return self.algebra.dims_by_degree()

    def total_dim(self) -> int:
        return self.algebra.n

    def to_json_dict(self) -> dict:
        d = self.algebra.to_json_dict()
        d["step_dims"] = {str(k): v for k, v in sorted(self.step_dims.items())}
        d["form"] = self.form.to_json_dict()
        d["complete"] = self.complete
        return d

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProlongationResult":
        algebra = GradedAlgebra.from_json_dict(d)
        for key in ("step_dims", "form", "complete"):
            if key not in d:
                raise ParseError(f"missing key {key!r} in prolongation object")
        try:
            step_dims = {int(k): int(v) for k, v in d["step_dims"].items()}
        except (ValueError, TypeError, AttributeError) as e:
            raise ParseError(f"bad step_dims: {e}") from e
        form = SymBilinearForm.from_json_dict(d["form"])
        form.require_on(algebra)
        require_graded(algebra)
        degs = algebra.degrees
        if not degs:
            raise ParseError("the prolongation has an empty basis")
        mu = -min(degs)
        nu = max(degs)
        return cls(algebra, form, step_dims, mu, nu, bool(d["complete"]))


def deserialize_prolongation(text: str) -> ProlongationResult:
    return ProlongationResult.from_json_dict(_load_json(text))


def step_limit() -> int:
    raw = os.environ.get("GLAP_STEP_LIMIT", "64")
    try:
        lim = int(raw)
    except ValueError:
        raise GlapError(f"GLAP_STEP_LIMIT={raw!r} is not an integer") from None
    if lim < 1:
        raise GlapError(f"GLAP_STEP_LIMIT={lim} must be at least 1")
    return lim


def full_prolongation(
    m: GradedAlgebra, g: SymBilinearForm, max_degree: int | None = None
) -> ProlongationResult:
    """Iterate prolongation steps until a layer is empty.

    A natural stop certifies the result (exhaustive Jacobi and grading
    check, transitivity, untouched negative part); stopping at max_degree
    instead yields a partial, uncertified algebra with complete=False.
    """
    basis0 = conformal_g0(m, g)
    A = assemble_degree0(m, basis0)
    mu = -min(m.degrees)
    limit = step_limit()
    step_dims: dict[int, int] = {}
    complete = False
    k = 0
    while True:
        if max_degree is not None and k + 1 > max_degree:
            break
        if k + 1 > limit:
            raise StepLimitExceeded(
                f"no termination within {limit} prolongation steps"
            )
        A2 = prolong_step(A, k)
        grew = A2.n - A.n
        step_dims[k + 1] = grew
        A = A2
        if grew == 0:
            complete = True
            break
        k += 1
    if complete:
        if not _same_negative(A, m):
            raise GlapError("prolongation modified the negative part")
        rep = check_gla(A)
        if not (rep["grading_ok"] and rep["jacobi_ok"]):
            raise GlapError(
                f"assembled prolongation failed certification: "
                f"{rep['violation_count']} violations"
            )
        if not transitivity_check(A):
            raise GlapError("assembled prolongation is not transitive")
    nu = max(A.degrees)
    return ProlongationResult(A, g, step_dims, mu, nu, complete)


def _same_negative(A: GradedAlgebra, m: GradedAlgebra) -> bool:
    neg = A.negative_part()
    return (
        neg.labels == m.labels
        and neg.degrees == m.degrees
        and neg.brackets == m.brackets
    )
