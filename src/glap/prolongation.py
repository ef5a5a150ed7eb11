"""Conformal derivation algebras and full prolongations.

Given a fundamental graded Lie algebra m (negative degrees only) and a
nondegenerate symmetric bilinear form g on its degree -1 part, the
prolongation is built one layer at a time by one step engine.  The layer
of degree k >= 0 consists of the degree-k maps u : m -> (current algebra)
satisfying

    u([x, y]) = [u(x), y] + [x, u(y)]      for all x, y in m,

with [u, x] := u(x).  Degree 0 adds one condition: on degree -1 the map
rescales g infinitesimally,

    g(u x, y) + g(x, u y) = eta(u) * g(x, y),

and the factor eta(u) is one extra unknown of the same homogeneous system
(Tanaka, J. Math. Kyoto Univ. 10, 1970).  Every step has two halves.
``_solve`` builds the rows, solves them exactly over the rationals and
returns a ``Layer``: the column layout of the unknowns and their canonical
kernel basis.  At degree 0 it also certifies that the grading element E
(p * id on degree p, eta = -2) lies in the span.  ``_extend`` adds the new
basis elements with their action brackets, and every bracket between
nonnegative layers summing to the new degree, forced by requiring ad to act
by derivations:

    ([w, v])(z) = [w, [v, z]] - [v, [w, z]]      for z in m.

Between two degree 0 elements this is their commutator as maps of m.  A
forced bracket is read at the free columns of its layer only.  The
canonical basis vector v_t is 1 at free column t and 0 at the others, so
the entries of a member of the layer there are its coordinates c_t.  And
every free column lies in the g_{-1} block, or is the eta column at
degree 0: the blocks are laid out by source degree with g_{-1} last and
eta after it, a free column is the last nonzero entry of some member, and
a derivation of the fundamental m that kills g_{-1} is 0.  So [w, v] is
evaluated only at the z in g_{-1} that own a free column; its eta
coordinate is 0, and at degree 0 its eta, sum_t c_t eta(v_t), must be 0.
A free column anywhere else raises GlapError.

The rows of ``_solve`` come only from the pairs (x, y) with y in g_{-1}
(``_derivation_rows``).  Lemma: let
D : m -> A have degree k and satisfy the derivation condition on every
pair that holds an element of g_{-1}.  Then S = {x : it holds on (x, y)
for all y} is closed under [g_{-1}, .], so S = m, which g_{-1} generates.
For e in g_{-1} and x in S, expand D[[e, x], y] by J(e, x, y) = 0 in m;
what is left is J(De, x, y), J(e, Dx, y) and J(e, x, Dy).  When the entry
that D produced lies in m, this is a triple of m, and J vanishes on all of
m once it vanishes on the triples of m that hold a g_{-1} element (the
first half of the proof of ``gla.check_gla``'s theorem, which needs only
generation).  Otherwise it holds an element u of an earlier layer, and it
vanishes because u acts on m by derivations: by induction on the layers,
each is the exact kernel of all the conditions.  So the one outside
hypothesis is that J vanishes on the triples of m that hold a g_{-1}
element, and the final certificate of every run sweeps those triples,
both the full sweep and the ``top`` = K - 1 sweep of a run cut at K >= 0.
A run that returns a result therefore has the layers of the engine that
reads every pair, and a run on an m that is not Lie fails certification.
The rows read are a subset of all of them, so an empty layer is empty
without any hypothesis.

Nothing in a step checks that the forced map is the member of the layer
so read.  The certificates of ``full_prolongation`` decide it, on the
adjacency of the returned algebra, which like every adjacency is built
from the brackets as written.  The Jacobi residual J(z, w, v) with z in
g_{-1} is 0 exactly when [w, v] acts on z as the forced map.  A complete
run passes ``gla.check_gla``, whose reduced sweep holds every such triple
and, by its theorem, decides all the others; with the whole identity, ad
is a homomorphism, so each written bracket acts on m as the forced map.  A run cut at degree K
passes ``gla.check_gla`` with ``top`` K - 1, every triple with an element
of g_{-1} whose other two degrees add up to at most K: each forced bracket
then acts on g_{-1} as it should, and through the triples (z, u, y) on
every bracket of g_{-1} elements, so on all of m, which g_{-1} generates.

The hot loops run in Python ints on the scaled adjacency of each algebra
(``gla._scaled_adjacency``: every structure constant times L, the lcm of
their denominators), built from its brackets on first read and kept: the
step solve over A builds A's, and ``_extend`` reads it.  Fractions appear
only where a result leaves the solver.  This is exact at every degree, 0
included.  Each entry of a derivation row is one signed constant, so the
row is L times the rational row and, being homogeneous, has the same
kernel; the -[D(x), y] and -[x, D(y)] terms of a row are read from term
lists built once per y and once per x (``_derivation_rows``), not once
per pair.  A conformal row is scaled to integers where it is built.  The
layer's basis is kept as integer vectors over one denominator D
(``linalg.Subspace``), and ``_extend`` reads the new elements' action on
m from it.  A forced bracket is a sum of products of two constants, one
from the row of each element of the pair, so its entries, and with them
its coordinates, are L**2, L D or D**2 times the rational ones; each
coordinate is divided by that scale as a Fraction.

The recursion stops at the first empty layer; for the inputs this package
builds that always happens (the negative part is fundamental and the
derivation algebra of a conformal class is finite), but a runaway input is
cut off after GLAP_STEP_LIMIT steps (default 64).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import GlapError, NotFundamental, ParseError, StepLimitExceeded
from .gla import (
    GradedAlgebra,
    SymBilinearForm,
    _is_json_int,
    _load_json,
    _reached_by_minus1,
    _scaled_adjacency,
    check_fundamental,
    check_gla,
    dumps,
    require_graded,
    transitivity_check,
)
from .linalg import ZERO, Echelon, Mat, Subspace, int_row


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

    def columns(self, vec: dict[int, int]) -> dict:
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
        """Block ``key`` of a sparse flat vector as a dense matrix."""
        off, rows, cols = self.blocks[key]
        M = Mat.zeros(rows, cols)
        for c in range(cols):
            for r in range(rows):
                x = vec.get(off + c * rows + r)
                if x:
                    M.a[r][c] = x
        return M


@dataclass
class Layer:
    """One solved layer of the prolongation, of degree ``shift``.

    ``space`` is the canonical basis of the solutions of the derivation
    condition over the unknowns laid out by ``layout``: one block per
    source degree p, of shape dim(p + shift) x dim(p).  At degree 0 the
    column past the last block holds eta, and ``E`` is the grading element
    as a vector of the same layout, certified to lie in the span.
    """

    shift: int
    layout: _Layout
    space: Subspace
    E: dict[int, Fraction] | None = None

    def __len__(self):
        return len(self.space)

    def eta(self, vec: dict[int, Fraction]) -> Fraction:
        """The eta entry of a degree 0 vector."""
        return vec.get(self.layout.total, ZERO)


def _derivation_rows(A: GradedAlgebra, layout: _Layout, shift: int):
    """Yield the constraint rows of D([x,y]) = [D(x),y] + [x,D(y)] over the
    pairs of negative-degree basis elements with y in g_{-1}, for a
    degree-``shift`` map D whose blocks are indexed by source degree in
    ``layout``; by the module docstring's lemma these decide the rest.

    The rows read the scaled adjacency of A (``gla._scaled_adjacency``):
    every structure constant times one common L.  Each entry of a row is
    one signed constant, so it is L times the rational one, an int, and
    the row has the same solutions: the three terms write the blocks
    p - 1, p and -1 of a pair (x, y), x in degree p (x and y own different
    columns of block -1 when p = -1), each at one column per source
    element, so no two terms meet and no entry is 0.

    The -[D(x), y] terms of a pair depend on y alone but for x's column,
    and the -[x, D(y)] terms on x alone but for y's: each list is built
    once per y in a source block, and once per x.

    Source degrees run from -1 down, so the rows of the g_{-1} x g_{-1}
    pairs come first.  Every run ends by proving a layer empty: its rows
    have full rank, and ``Echelon.extend`` pulls no row past full rank.
    The row of a pair (x, y) with x in degree p has the term D([x, y]) on
    block p - 1 = deg [x, y]: it ties D on [g_p, g_{-1}] to D on g_p and
    g_{-1}, and a map of degree >= 0 is fixed by its values on g_{-1},
    which generates m.  So the rows that tie each block to the ones above
    it come in the order in which g_{-1} generates m.  On the final layer
    of every ``verify-table`` row and of hh(1,3) and hc(3,1), full rank
    then comes inside the first window of ``extend``.  From -2 up, the
    g_{-2} x g_{-1} rows fill that window on hh(1,2), ho, hh(1,3) and
    hc(3,1), and two or three windows are pulled (ho: 1,344 rows instead
    of 448).  The kernel is the same in any row order (``linalg``)."""
    by_deg = A.by_degree()
    ad = _scaled_adjacency(A)[1]
    blocks = layout.blocks
    minus1 = by_deg.get(-1, [])
    local = {g: t for ix in by_deg.values() for t, g in enumerate(ix)}
    # -[x, D(y)]: D(y) runs over the degree shift-1 basis, column jj of block -1
    off_y, rows_y, _ = blocks.get(-1, (0, 0, 0))
    dy = list(enumerate(by_deg.get(shift - 1, []))) if -1 in blocks else []
    for p in sorted((d for d in by_deg if d < 0), reverse=True):
        tgt = by_deg.get(p - 1 + shift)
        if not tgt:
            continue
        # D([x, y]) over the (p-1)-block, when it exists
        off_xy = blocks[p - 1][0] if p - 1 in blocks else None
        # -[D(x), y]: D(x) runs over the degree p+shift basis, column ii of
        # block p; its terms (target, row r, constant) per y
        off_x, rows_x, _ = blocks.get(p, (0, 0, 0))
        dx = list(enumerate(by_deg.get(p + shift, []))) if p in blocks else []
        dx_terms = [
            [(t_global, r, c) for r, fr in dx if (cell := ad[gj].get(fr))
             for t_global, c in cell.items()]  # [fr, gj] = -[gj, fr]
            for gj in minus1
        ]
        for ii, gi in enumerate(by_deg[p]):
            adi = ad[gi]
            col_x = off_x + ii * rows_x
            # -[x, D(y)]: its terms per x
            dy_terms = [(t_global, r, -c) for r, fr in dy if (cell := adi.get(fr))
                        for t_global, c in cell.items()]
            for jj in range(ii + 1 if p == -1 else 0, len(minus1)):
                comp: dict[int, dict[int, int]] = {}
                cell = adi.get(minus1[jj])
                if cell and off_xy is not None:
                    cols = [(off_xy + local[mg] * len(tgt), c) for mg, c in cell.items()]
                    comp = {t_global: {col + r: c for col, c in cols}
                            for r, t_global in enumerate(tgt)}
                for col, terms in ((col_x, dx_terms[jj]), (off_y + jj * rows_y, dy_terms)):
                    for t_global, r, c in terms:
                        row = comp.get(t_global)
                        if row is None:
                            row = comp[t_global] = {}
                        row[col + r] = c
                yield from comp.values()


def _conformal_rows(g: SymBilinearForm, layout: _Layout):
    """Yield the rows of g(D x, y) + g(x, D y) = eta g(x, y) over pairs of
    degree -1 basis elements, eta in the column past the last block, each
    scaled to integers by ``int_row``."""
    G = g.matrix.a
    nm1 = len(g.indices)
    eta_col = layout.total
    for a in range(nm1):
        for b in range(a, nm1):
            row: dict[int, Fraction] = {}
            for r in range(nm1):
                if G[r][b] != 0:
                    c = layout.col(-1, r, a)
                    row[c] = row.get(c, ZERO) + G[r][b]
                if G[a][r] != 0:
                    c = layout.col(-1, r, b)
                    row[c] = row.get(c, ZERO) + G[a][r]
            if G[a][b] != 0:
                row[eta_col] = -G[a][b]
            row = int_row(row)
            if row:
                yield row


def _solve(A: GradedAlgebra, shift: int, g: SymBilinearForm | None = None) -> Layer:
    """The degree-``shift`` layer over A.  With a form g (degree 0 only)
    the conformal rows and the eta column join the derivation rows, and
    the grading element E is certified to lie in the span."""
    by_deg = A.by_degree()
    layout = _Layout()
    for p in sorted(d for d in by_deg if d < 0):
        tgt = by_deg.get(p + shift)
        if tgt:
            layout.add(p, len(tgt), len(by_deg[p]))
    rows = _derivation_rows(A, layout, shift)
    if g is None:
        ech = Echelon(layout.total)
        name = f"the degree {shift} layer"
    else:
        rows = chain(rows, _conformal_rows(g, layout))
        ech = Echelon(layout.total + 1)
        name = "the conformal derivation algebra"
    layer = Layer(shift, layout, ech.extend(rows).kernel_space(name))
    if g is not None:
        # E is p * id on degree p with eta = -2; failing to rebuild it
        # from its coordinates means something above is broken
        E = {
            layout.col(p, c, c): Fraction(p)
            for p in layout.blocks
            for c in range(len(by_deg[p]))
        }
        E[layout.total] = Fraction(-2)
        layer.space.coords(E, "the grading element E")
        layer.E = E
    return layer


def _extend(A: GradedAlgebra, layer: Layer, name: str) -> GradedAlgebra:
    """A extended by the basis of ``layer``: the action brackets
    [u, x] = u(x), and every bracket between nonnegative layers summing to
    the layer's degree, forced by ([w, v])(z) = [w, [v, z]] - [v, [w, z]]
    and read at the layer's free columns only (module docstring), with eta
    0 at degree 0.  That the forced map is the member of the layer so read
    is left to the certificates of ``full_prolongation``.  Only the new
    cells are checked as cells of an algebra: A's were when A was built.

    The forced brackets are read from two scaled adjacencies: A's own
    (scale L, built by the ``_solve`` of the layer), and the rows of the
    new elements acting on m, from the layer's integer basis (scale D, its
    denominator).  A pair holds a new element only at degrees (0, shift),
    and then only that element's action on m is read.  Each term of a
    forced bracket is a product of a constant of w's row and one of v's,
    so its coordinates are exactly scale[w] * scale[v] times the rational
    ones.

    Most pairs have no forced bracket, and they are skipped before any
    cell is read.  For each element x, dom(x) is the set of the elements
    that ad x moves, and img(x) the set of the targets of ad x on the
    reads z.  A term read at z is a constant of ad v at (z, y) times one
    of ad w at (y, t), or the same with w and v swapped; the first is
    nonzero only if y lies in img(v) and in dom(w), the second only if y
    lies in img(w) and in dom(v).  So when img(v) & dom(w) and img(w) &
    dom(v) are both empty, every term of (w, v) is 0 and the pair has no
    cell, as it would have had after reading them all."""
    shift, layout, space = layer.shift, layer.layout, layer.space
    by_deg = A.by_degree()
    n = A.n
    t = len(space)
    D = space.denominator
    prefix = "d" if shift == 0 else "p"
    labels = list(A.labels) + [f"{prefix}{shift}_{i}" for i in range(t)]
    degrees = list(A.degrees) + [shift] * t
    cells: dict[tuple[int, int], dict[int, Fraction]] = {}  # the new brackets
    actions: list[dict[int, dict[int, int]]] = []  # D u_i(x) for x in m
    for i, vec in enumerate(space.basis):
        action = {}
        for p, blk in layout.columns(vec).items():
            src, tgt = by_deg[p], by_deg[p + shift]
            for c_loc, col in blk.items():
                action[src[c_loc]] = {tgt[r]: v for r, v in col.items()}
                # [x, u] = -u(x)
                cells[(src[c_loc], n + i)] = {tgt[r]: Fraction(-v, D) for r, v in col.items()}
        actions.append(action)
    reads = _free_reads(layer, by_deg)
    eta = layout.total
    etas = {s: x for s, u in enumerate(space.basis) if (x := u.get(eta))}

    L, ad = _scaled_adjacency(A)
    ad = [*ad, *actions]
    scale = [L] * n + [D] * t
    by_deg2 = {**by_deg, shift: list(range(n, n + t))}
    # dom[x]: the elements ad x moves; img[x]: where ad x sends the reads
    dom: dict[int, int] = {}
    img: dict[int, int] = {}
    for d in range(shift + 1):
        for x in by_deg2.get(d, []):
            adx = ad[x]
            dom[x] = _bits(adx)
            img[x] = _bits(k for z in reads if (cell := adx.get(z)) for k in cell)
    for a in range(0, shift // 2 + 1):
        b = shift - a
        for w in by_deg2.get(a, []):
            adw = ad[w]
            dom_w, img_w = dom[w], img[w]
            for v in by_deg2.get(b, []):
                if a == b and w >= v or not (img[v] & dom_w or img_w & dom[v]):
                    continue
                adv = ad[v]
                coords: dict[int, int] = {}
                for z, targets in reads.items():
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
                    for tg, s in targets:
                        if x := acc.get(tg):
                            coords[s] = x
                if not coords:
                    continue
                if etas and sum(c * etas.get(s, 0) for s, c in coords.items()):
                    raise GlapError(
                        f"forced bracket of degrees ({a},{b}) has a nonzero eta in {space.name}"
                    )
                den = scale[w] * scale[v]
                cells[(w, v)] = {n + i: Fraction(c, den) for i, c in coords.items()}
    B = GradedAlgebra(name, labels, degrees, cells)  # checks the new cells
    B.brackets = {**A.brackets, **B.brackets}
    return B


def _bits(indices) -> int:
    """The bitmask with bit i set for each i in ``indices``."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _free_reads(layer: Layer, by_deg: dict[int, list[int]]) -> dict[int, list[tuple[int, int]]]:
    """Where the forced brackets of ``layer`` are read: z in g_{-1}, in
    order, to (target basis index, t) for each free column t of the layer
    at source z; the free eta column is left out.  Raises
    GlapError when a free column lies elsewhere, which a fundamental
    negative part rules out."""
    layout, space = layer.layout, layer.space
    off, rows, cols = layout.blocks.get(-1, (0, 0, 0))
    reads: dict[int, list[tuple[int, int]]] = {}
    for s, f in enumerate(space.free):
        if f == layout.total:
            continue
        if not off <= f < off + rows * cols:
            raise GlapError(
                f"free column {f} of {space.name} lies outside the degree -1 block: "
                f"the negative part is not fundamental"
            )
        c_loc, r = divmod(f - off, rows)
        reads.setdefault(by_deg[-1][c_loc], []).append((by_deg[layer.shift - 1][r], s))
    return reads


def conformal_g0(m: GradedAlgebra, g: SymBilinearForm) -> Layer:
    """The conformal derivation algebra of (m, g) as the degree 0 layer:
    all grading-preserving derivations of m that are conformal with
    respect to g on the degree -1 part, in canonical basis, with their
    eta column and the certified grading element E."""
    ok, _ = check_fundamental(m)
    if not ok:
        raise NotFundamental(
            f"{m.name}: the degree -1 part does not generate the algebra"
        )
    g.require_on(m)
    return _solve(m, 0, g)


def scaling_split(layer: Layer) -> tuple[dict[int, Fraction], list[dict[int, Fraction]]]:
    """Split the conformal derivation algebra as R E + ker(eta).

    Returns (E, basis of the eta-kernel) as sparse vectors in the degree 0
    layer's layout, eta column included.  E is the grading element that
    ``conformal_g0`` certified in the span with eta(E) = -2, so eta does
    not vanish there and the kernel has codimension 1.
    """
    space = layer.space
    eta_col = layer.layout.total
    etas = {t: e for t, u in enumerate(space.basis) if (e := u.get(eta_col))}
    kernel = Echelon(len(space)).extend([etas]).kernel_space()
    scale = space.denominator * kernel.denominator
    hats = []
    for combo in kernel.basis:
        hat: dict[int, int] = {}
        for t, c in combo.items():
            for i, x in space.basis[t].items():
                hat[i] = hat.get(i, 0) + c * x
        hats.append({i: Fraction(x, scale) for i, x in hat.items() if x})
    return layer.E, hats


def assemble_degree0(m: GradedAlgebra, layer: Layer) -> GradedAlgebra:
    """m extended by its conformal derivation algebra in degree 0: the
    step engine's extension at shift 0, where the forced bracket of two
    degree 0 elements is their commutator as maps of m."""
    return _extend(m, layer, f"prol({m.name})")


def prolong_step(A: GradedAlgebra, k: int) -> GradedAlgebra:
    """Extend a partial prolongation (degrees -mu..k) by its degree k+1
    layer; returns A unchanged when the layer is empty."""
    by_deg = A.by_degree()
    if max(by_deg) != k:
        raise GlapError(f"expected top degree {k}, found {max(by_deg)}")
    layer = _solve(A, k + 1)
    if not len(layer):
        return A
    return _extend(A, layer, A.name)


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
        return dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "ProlongationResult":
        algebra = GradedAlgebra.from_json_dict(d)
        for key in ("step_dims", "form", "complete"):
            if key not in d:
                raise ParseError(f"missing key {key!r} in prolongation object")
        steps = d["step_dims"]
        try:
            if not all(_is_json_int(v) and k.lstrip("-").isdigit() for k, v in steps.items()):
                raise ValueError("expected integer strings mapped to integers")
            step_dims = {int(k): v for k, v in steps.items()}
        except (ValueError, AttributeError) as e:
            raise ParseError(f"bad step_dims: {e}") from e
        if not isinstance(d["complete"], bool):
            raise ParseError("'complete' must be true or false")
        form = SymBilinearForm.from_json_dict(d["form"])
        form.require_on(algebra)
        require_graded(algebra)
        degs = algebra.degrees
        if not degs:
            raise ParseError("the prolongation has an empty basis")
        if -1 not in algebra.by_degree() or not _reached_by_minus1(algebra, lambda d: d < -1):
            raise ParseError("the negative part is not generated by its degree -1 part")
        mu = -min(degs)
        nu = max(degs)
        return cls(algebra, form, step_dims, mu, nu, d["complete"])


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

    The certificates read the adjacency of the returned algebra, built from
    its brackets as written by the last step solve, or by the certificates
    themselves in a run cut at max_degree.  A natural stop certifies the
    result (the grading and Jacobi check of ``gla.check_gla``, whose sweep
    is cut down to the triples that decide the rest; transitivity;
    untouched negative part).  Stopping at max_degree instead yields a
    partial algebra with complete=False, certified on the triples of
    ``gla.check_gla`` below the cut (its ``top``), which hold every forced
    bracket on g_{-1}, and on transitivity, which makes that action decide
    the bracket.
    """
    A = assemble_degree0(m, conformal_g0(m, g))
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
    nu = max(A.degrees)
    if not _same_negative(A, m):
        raise GlapError("prolongation modified the negative part")
    count = check_gla(A, top=None if complete else nu - 1)["violation_count"]
    if count:
        raise GlapError(f"assembled prolongation failed certification: {count} violations")
    if not transitivity_check(A):
        raise GlapError("assembled prolongation is not transitive")
    return ProlongationResult(A, g, step_dims, mu, nu, complete)


def _same_negative(A: GradedAlgebra, m: GradedAlgebra) -> bool:
    neg = A.negative_part()
    return (
        neg.labels == m.labels
        and neg.degrees == m.degrees
        and neg.brackets == m.brackets
    )
