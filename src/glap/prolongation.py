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
evaluated only at the z in g_{-1} that own a free column.  A free column
anywhere else raises GlapError.

At degree 0 the eta column is the last column, and it is free: a pivot
there would be the row eta = 0, yet E lies in the span with eta(E) = -2.
So it is the last free column, and the last basis vector is the only one
with a nonzero eta (1); every other v_t is 0 there.  A forced bracket
never sets that last coordinate, so its eta is 0 with nothing to check,
and the canonical basis less its last vector spans ker eta
(``scaling_split``).

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
element, which certificate (b) below sweeps: a run on an m that is not
Lie fails certification.  The rows read are a subset of all of them, so
an empty layer is empty without any hypothesis.

Nothing in a step checks that a layer is the whole kernel, or that the
forced map is the member of the layer so read.  The certificates decide
both, (e) where a layer is solved and the others on the adjacency of the
returned algebra A, which like every adjacency is built from the
brackets as written.  Each costs little next to a sweep of the Jacobi
identity over A, which ``full_prolongation`` does not run.

(a) The grading holds, the negative part is m, A is transitive, and m is
    fundamental (``conformal_g0``).
(b) The m-pair sweep: J vanishes on every triple that holds a g_{-1}
    element and whose two lowest-indexed elements lie in m
    (``gla._jacobi_residuals`` with ``below``).  These are m's own
    triples and the triples (x, y, u) with u in a layer, and J(x, y, u)
    = 0 is the condition of the pair (x, y) on u, read from A.
(c) Each g_0 element acts on g_{-1} conformally: M^T G + G M = eta G for
    its matrix M and one eta (``gla.conformal_factors``, the one
    covariance certificate: ``families`` holds each ambient to its
    predicted factors by it, and ``glap check`` runs it on a
    prolongation file).
(d) At the free reads of each layer, the written actions of its elements
    form the identity; at degree 0 the last element has eta 1 and the
    others eta 0.  The read of an element is its last nonzero entry in
    the layout's order, the (z in g_{-1}, target) of its free column
    (``_free_reads``) for a canonical basis vector, or eta.  So a member
    of the layer is fixed by its entries at the reads and its eta.
(e) Maximality: the rows that raised ``Echelon``'s rank while it solved a
    layer (its ``witness``) have rank columns - dim g_k modulo a prime
    (``linalg.certify_rank``).  ``prolong_step`` and ``conformal_g0``
    check it where the layer is solved, the empty layer that ends a
    complete run included, and so does ``glap check`` past the top.
(f) The read-check: for every pair (w, v) of nonnegative elements with
    deg w + deg v = k, the written [w, v] has at each free read of g_k
    the entry of [w, [v, z]] - [v, [w, z]] there, computed from A, and no
    other coordinate; a pair whose forced map is 0 at every free read has
    no cell.

Theorem (Tanaka, J. Math. Kyoto Univ. 10, 1970; Yamaguchi, Adv. Stud. Pure
Math. 22, 1993, section 2).  If (a)-(f) hold on a complete run, J = 0 on
A.  On a run cut at K they give J = 0 on every triple that holds a g_{-1}
element and has total degree at most K - 1, the brackets the cut kept:
what ``gla.check_gla`` with ``top`` K - 1 sweeps.

Proof.  Let K_k be the degree-k maps D : m -> A (D x in degree deg x + k,
0 where A has none) with D[x, y] = [D x, y] + [x, D y] for all x, y in m,
read in A, and at degree 0 conformal on g_{-1}.
1. Each written layer spans K_k.  By (b) each of its elements satisfies
   the rows of its system, so by the lemma (the earlier layers act by
   derivations, by induction) all the conditions, and by (c) at degree 0
   it lies in K_k.  The rows read the cells of m and of the actions of
   earlier layers, which every later extension keeps, so the system is
   A's; it holds the witness, so by (e) its kernel, which holds K_k, has
   dimension at most dim g_k.  By (d) the dim g_k written elements are
   independent.
2. Suppose J(y, w', v') = 0 for y in m and all nonnegative w', v' with
   deg w' + deg v' < s.  For nonnegative w, v with deg w + deg v = s, the
   map F(x) = [w, [v, x]] - [v, [w, x]] lies in K_s: expand F[x, y] by
   the derivation property of w and v (step 1); each term [w, [p, y]]
   with p = [v, x] nonnegative is [[w, p], y] + [p, [w, y]] by the
   hypothesis, and the cross terms cancel.  At degree 0, F is the
   commutator of two conformal maps on g_{-1}, conformal with eta 0.
3. For 0 <= s <= nu, F = sum c_t u_t over the layer's elements
   (step 1); by (d) c_t is the entry of F at the free read of t, and at
   degree 0 the eta element's c_t is eta(F) = 0.  By (f) the written
   [w, v] has the same coordinates, so it acts on m as F: J(y, w, v) = 0
   for y in m.  Past the top nu of a complete run F = 0, and so is the
   written [w, v] by the grading: K_{nu+1} = 0 by (e) on the empty layer,
   and for s > nu + 1, F maps g_{-1} to g_{s-1} = 0, so F = 0 on m,
   which g_{-1} generates.  So the hypothesis of step 2 holds for s + 1;
   by induction on s, J(y, w, v) = 0 for y in m and every nonnegative
   pair (of total degree at most K, cut at K).
4. With (b), J vanishes on every triple that holds a g_{-1} element (of
   total degree at most K - 1, cut at K), and on a complete run
   ``gla.check_gla``'s theorem gives J = 0 from (a).  QED

So a complete run is the Tanaka prolongation of (m, g), with each layer
the exact kernel and the Jacobi identity certified.

The hot loops run in Python ints on the scaled adjacency of each algebra
(``gla._scaled_adjacency``: every structure constant times L, the lcm of
their denominators), built on first read and kept, an extension's grown
from its parent's and equal to that of its brackets: the step solve over A
builds A's, and ``_extend`` reads it.  Fractions appear only where a result
leaves the solver.  This is exact at every degree, 0 included.  Each entry
of a derivation row is one signed constant, so the row is L times the
rational row and, being homogeneous, has the same kernel; the -[D(x), y]
and -[x, D(y)] terms of a row are read from term lists built once per y and
once per x (``_derivation_rows``), not once per pair.  A conformal row is
scaled to integers where it is built.  The layer's basis is kept as integer
vectors over one denominator D (``linalg.Subspace``), and ``_extend`` reads
the new elements' action on m from it.  A forced bracket is a sum of
products of two constants, one from the row of each element of the pair, so
its entries, and with them its coordinates, are L**2, L D or D**2 times the
rational ones; each coordinate is divided by that scale as a Fraction.

The recursion stops at the first empty layer; for the inputs this package
builds that always happens (the negative part is fundamental and the
derivation algebra of a conformal class is finite), but a runaway input is
cut off after ``step_limit()`` = 64 steps with StepLimitExceeded; a caller
bounds a run lower with ``max_degree``.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import GlapError, NotFundamental, ParseError, StepLimitExceeded
from .gla import (
    GradedAlgebra,
    SymBilinearForm,
    _extension,
    _is_json_int,
    _jacobi_residuals,
    _load_json,
    _misgraded,
    _scaled_adjacency,
    check_fundamental,
    conformal_factors,
    dumps,
    minus1_generates,
    require_graded,
    transitivity_check,
)
from .linalg import ZERO, Echelon, Mat, Subspace, certify_rank, int_row


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
    ``witness`` holds the rows that raised the rank of the solve, in
    order; ``_certify_maximal`` checks them.
    """

    shift: int
    layout: _Layout
    space: Subspace
    E: dict[int, Fraction] | None = None
    witness: tuple | list = ()

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

    Source degrees run up from -mu, the order of the layout's blocks, so
    the rows of the g_{-1} x g_{-1} pairs come last.  The order is chosen by
    measurement: on the free 2-step algebra with g = I in a random basis
    of g_{-2} (``tools/generic_reach.py``, 2 vCPUs, Python 3.11), the rows
    from -1 down took 0.9 s at 6 generators and 11.6-13.0 s at 7, this
    order 0.2 s and 3.45 s.
    This order pulls more rows into ``Echelon.extend`` on the final layer
    (1,440 against 744 at 6 generators; ho: 1,344 against 448), yet its
    largest pivot entry stays shorter (477 bits against 595), and exact
    elimination pays for the length of its integers.  So a count of rows
    pulled cannot guard the order.  The kernel is the same in any row
    order (``linalg``)."""
    by_deg = A.by_degree()
    ad = _scaled_adjacency(A)[1]
    blocks = layout.blocks
    minus1 = by_deg.get(-1, [])
    local = {g: t for ix in by_deg.values() for t, g in enumerate(ix)}
    # -[x, D(y)]: D(y) runs over the degree shift-1 basis, column jj of block -1
    off_y, rows_y, _ = blocks.get(-1, (0, 0, 0))
    dy = list(enumerate(by_deg.get(shift - 1, []))) if -1 in blocks else []
    for p in sorted(d for d in by_deg if d < 0):
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
    space = ech.extend(rows).kernel_space(name)
    E = None
    if g is not None:
        # E is p * id on degree p with eta = -2; failing to rebuild it
        # from its coordinates means something above is broken
        E = {
            layout.col(p, c, c): Fraction(p)
            for p in layout.blocks
            for c in range(len(by_deg[p]))
        }
        E[layout.total] = Fraction(-2)
        space.coords(E, "the grading element E")
    return Layer(shift, layout, space, E, ech.raised)


def _certify_maximal(layer: Layer) -> None:
    """Certificate (e) of the module docstring: raise GlapError unless the
    witness rows of ``layer`` have rank columns - dim, so that the kernel
    of its system is no larger than the layer.  The columns are the
    layout's, and eta's when the system is conformal (it has E)."""
    columns = layer.layout.total + (layer.E is not None)
    certify_rank(layer.witness, columns - len(layer), f"{layer.space.name} is not certified maximal")


def _extend(A: GradedAlgebra, layer: Layer, name: str) -> GradedAlgebra:
    """A extended by the basis of ``layer`` (``gla._extension``, so its
    adjacency grows from A's): the action brackets [u, x] = u(x), and every
    bracket between nonnegative layers summing to the layer's degree,
    forced by ([w, v])(z) = [w, [v, z]] - [v, [w, z]] and read at the
    layer's free columns only; at degree 0 no read sets the eta column, so
    every forced bracket has eta 0 (module docstring).  That the layer is
    the whole kernel, and the forced map the member of it so read, is left
    to the certificates, on the brackets written here.

    ``_forced`` reads two scaled adjacencies: A's (scale L, built by the
    ``_solve`` of the layer), and the new elements' action on m, from the
    layer's integer basis (scale D, its denominator).  Each term of a
    forced bracket is a product of a constant of w's row and one of v's,
    so its coordinates are scale[w] * scale[v] times the rational ones."""
    shift, layout, space = layer.shift, layer.layout, layer.space
    by_deg, n, t, D = A.by_degree(), A.n, len(space), space.denominator
    labels = list(A.labels) + [f"{'p' if shift else 'd'}{shift}_{i}" for i in range(t)]
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
    L, ad = _scaled_adjacency(A)
    scale = [L] * n + [D] * t
    by_deg2 = {**by_deg, shift: list(range(n, n + t))}
    for w, v, coords in _forced([*ad, *actions], by_deg2, shift, _free_reads(layer, by_deg)):
        den = scale[w] * scale[v]
        cells[(w, v)] = {n + i: Fraction(c, den) for i, c in coords.items()}
    return _extension(A, name, labels, degrees, cells)


def _forced(ad, by_deg: dict[int, list[int]], shift: int, reads):
    """Yield (w, v, coords) for each pair of basis elements of degrees
    0 <= a <= b with a + b = ``shift`` (w < v when a = b) whose forced
    bracket ([w, v])(z) = [w, [v, z]] - [v, [w, z]] is nonzero at a free
    read, in the order of a, w, v: coords maps t to the entry at the read
    (z, target) of free column t, in the order of ``reads``.

    That entry is the sum over m of P(w, v) - P(v, w), P(x, y) = ad y[z][m]
    * ad x[m][target], and the work is the number of nonzero products: per
    z the y are indexed by the m with ad y[z][m] != 0, and per (m, target)
    the x with ad x[m][target] != 0.  The algebra is graded (m is certified
    so, an extension is by construction, and ``_certify`` checks it first),
    so m has degree deg y - 1 and x degree shift - deg y.  Each product goes
    to the pair of x and y, signed by their orientation; a pair whose sums
    all cancel has no cell."""
    elems = [x for d in range(shift + 1) for x in by_deg.get(d, ())]
    deg = [d for d in range(shift + 1) for _ in by_deg.get(d, ())]
    R = len(elems)  # a pair is keyed rank w * R + rank v, by its ranks in elems
    # partners[z][m]: (rank y, rank y * R, c) for each y with c = ad y[z][m] != 0
    partners: dict[int, dict[int, list]] = {z: {} for z in reads}
    reach: dict[int, set[int]] = {}  # deg x -> the m at which ad x is read
    for ry, y in enumerate(elems):
        for z, by_m in partners.items():
            if cell := ad[y].get(z):
                reach.setdefault(shift - deg[ry], set()).update(cell)
                for m, c in cell.items():
                    by_m.setdefault(m, []).append((ry, ry * R, c))
    targets = {tg for read in reads.values() for tg, _ in read}
    # acting[m, target]: (rank x, rank x * R, d) for each x with d = ad x[m][target] != 0
    acting: dict[tuple[int, int], list] = {}
    for rx, x in enumerate(elems):
        adx = ad[x]
        for m in adx.keys() & reach.get(deg[rx], ()):
            for tg, d in adx[m].items():
                if tg in targets:
                    acting.setdefault((m, tg), []).append((rx, rx * R, d))
    cells: dict[int, dict[int, int]] = {}
    for z, read in reads.items():
        for tg, t in read:
            acc: dict[int, int] = {}
            for m, ys in partners[z].items():
                xs = acting.get((m, tg))
                for ry, ryR, c in ys if xs else ():
                    for rx, rxR, d in xs:
                        if rx < ry:  # x is w
                            acc[rxR + ry] = acc.get(rxR + ry, 0) + c * d
                        elif rx > ry:  # x = y is no pair
                            acc[ryR + rx] = acc.get(ryR + rx, 0) - c * d
            for k, s in acc.items():
                if s:
                    cells.setdefault(k, {})[t] = s
    for k in sorted(cells):
        yield elems[k // R], elems[k % R], cells[k]


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
    eta column and the certified grading element E, certified maximal."""
    ok, _ = check_fundamental(m)
    if not ok:
        raise NotFundamental(
            f"{m.name}: the degree -1 part does not generate the algebra"
        )
    g.require_on(m)
    layer = _solve(m, 0, g)
    _certify_maximal(layer)
    return layer


def scaling_split(layer: Layer) -> tuple[dict[int, Fraction], list[dict[int, Fraction]]]:
    """Split the conformal derivation algebra as R E + ker(eta).

    Returns (E, basis of the eta-kernel) as sparse vectors in the degree 0
    layer's layout, eta column included.  E is the grading element that
    ``conformal_g0`` certified in the span with eta(E) = -2, so the eta
    column is the last free column (module docstring): the last basis
    vector is the only one with eta != 0, and the others are a basis of
    the kernel, of codimension 1.
    """
    space = layer.space
    return layer.E, [space.vector(t) for t in range(len(space) - 1)]


def assemble_degree0(m: GradedAlgebra, layer: Layer) -> GradedAlgebra:
    """m extended by its conformal derivation algebra in degree 0: the
    step engine's extension at shift 0, where the forced bracket of two
    degree 0 elements is their commutator as maps of m."""
    return _extend(m, layer, f"prol({m.name})")


def prolong_step(A: GradedAlgebra, k: int) -> GradedAlgebra:
    """Extend a partial prolongation (degrees -mu..k) by its degree k+1
    layer, certified maximal; returns A unchanged when the layer is
    empty."""
    by_deg = A.by_degree()
    if max(by_deg) != k:
        raise GlapError(f"expected top degree {k}, found {max(by_deg)}")
    layer = _solve(A, k + 1)
    _certify_maximal(layer)
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
        if not isinstance(d["complete"], bool):
            raise ParseError("'complete' must be true or false")
        form = SymBilinearForm.from_json_dict(d["form"])
        form.require_on(algebra)
        require_graded(algebra)
        degs = algebra.degrees
        if not degs:
            raise ParseError("the prolongation has an empty basis")
        if not minus1_generates(algebra):
            raise ParseError("the negative part is not generated by its degree -1 part")
        # the file's step_dims must be those its layers and its flag imply
        step_dims = _step_dims(algebra, d["complete"])
        want = {str(k): v for k, v in step_dims.items()}
        steps = d["step_dims"]
        if not (isinstance(steps, dict) and steps == want
                and all(_is_json_int(v) for v in steps.values())):
            raise ParseError(f"step_dims must be {json.dumps(want)}: the dimensions of the layers "
                             "past degree 0, and the empty one that ends a complete run")
        return cls(algebra, form, step_dims, -min(degs), max(degs), d["complete"])


def deserialize_prolongation(text: str) -> ProlongationResult:
    return ProlongationResult.from_json_dict(_load_json(text))


def _step_dims(A: GradedAlgebra, complete: bool) -> dict[int, int]:
    """dim g_k for 1 <= k <= nu, the top degree of A, each solved by one
    step; and nu + 1: 0, the empty layer that ended a complete run."""
    dims = A.dims_by_degree()
    nu = max(A.degrees)
    out = {k: dims.get(k, 0) for k in range(1, nu + 1)}
    if complete:
        out[nu + 1] = 0
    return out


def step_limit() -> int:
    """The most steps ``full_prolongation`` takes before it raises
    StepLimitExceeded: a run on the inputs this package builds ends long
    before, and ``max_degree`` bounds a run lower."""
    return 64


def full_prolongation(
    m: GradedAlgebra, g: SymBilinearForm, max_degree: int | None = None
) -> ProlongationResult:
    """Iterate prolongation steps until a layer is empty.

    Each layer is certified maximal where it is solved, and the returned
    algebra by the certificates (a)-(d) and (f) of the module docstring
    (``_certify``), which read its adjacency, built from its brackets as
    written by the last step solve, or by the certificates themselves in
    a run cut at max_degree.  By the theorem there, a natural stop yields
    a graded Lie algebra; stopping at max_degree yields a partial algebra
    with complete=False, on which J vanishes on the triples that
    ``gla.check_gla`` with ``top`` = max_degree - 1 sweeps: the triples
    with a g_{-1} element whose brackets the cut kept.
    """
    A = assemble_degree0(m, conformal_g0(m, g))
    mu = -min(m.degrees)
    limit = step_limit()
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
        if A2.n == A.n:
            complete = True
            break
        A = A2
        k += 1
    nu = max(A.degrees)
    _certify(A, m, g)
    return ProlongationResult(A, g, _step_dims(A, complete), mu, nu, complete)


def _certify(A: GradedAlgebra, m: GradedAlgebra, g: SymBilinearForm) -> None:
    """The certificates (a)-(d) and (f) of the module docstring on the
    prolongation A of (m, g); GlapError at the first that fails.

    The free reads of each layer are read off its written elements: the
    free column of a canonical basis vector is its last nonzero entry
    (``linalg``), and in the layout's order that is eta at degree 0 when
    eta is not 0, and otherwise the largest target of the action on the
    last z in g_{-1} that the element moves.  Then (d) holds exactly when
    each element is 1 at its own read and 0 at the others'."""
    fail = "assembled prolongation failed certification"
    neg = A.negative_part()
    if (neg.labels, neg.degrees, neg.brackets) != (m.labels, m.degrees, m.brackets):
        raise GlapError("prolongation modified the negative part")
    bad = len(_misgraded(A))
    if bad:
        raise GlapError(f"{fail}: {bad} bracket terms break the grading")
    L, ad = _scaled_adjacency(A)
    count = sum(1 for _ in _jacobi_residuals(A, ad, reduced=True, below=m.n))
    if count:
        raise GlapError(f"{fail}: {count} violations")
    if not transitivity_check(A):
        raise GlapError("assembled prolongation is not transitive")
    by_deg = A.by_degree()
    minus1 = by_deg[-1][::-1]
    etas = conformal_factors(A, g.matrix)
    for u, eta in zip(by_deg[0], etas):
        if eta is None:
            raise GlapError(f"{fail}: {A.labels[u]} does not act conformally on g_-1")
    for k in range(max(A.degrees) + 1):
        elems = by_deg[k]
        reads: dict[int, list[tuple[int, int]]] = {}
        for s, u in enumerate(elems):
            if k == 0 and etas[s]:
                continue
            adu = ad[u]
            z = next(z for z in minus1 if z in adu)  # A is transitive
            reads.setdefault(z, []).append((max(adu[z]), s))
        for i, u in enumerate(elems):
            adu = ad[u]
            for z, targets in reads.items():
                cell = adu.get(z, {})
                for tg, s in targets:
                    if cell.get(tg, 0) != (L if s == i else 0):
                        raise GlapError(f"{fail}: {A.labels[u]} is not the canonical basis "
                                        f"vector of degree {k} at its free reads")
            if k == 0 and etas[i] != int(i == len(elems) - 1):
                raise GlapError(f"{fail}: {A.labels[u]} has eta {etas[i]}, not that of the "
                                "canonical basis vector")
        local = {u: s for s, u in enumerate(elems)}
        forced = 0
        for w, v, coords in _forced(ad, by_deg, k, reads):
            forced += 1
            cell = ad[w].get(v, {})
            if len(cell) != len(coords) or any(
                    coords.get(local[u]) != L * x for u, x in cell.items()):
                raise GlapError(f"{fail}: [{A.labels[w]}, {A.labels[v]}] does not act on g_-1 "
                                "as the commutator of its two elements")
        written = sum(1 for a in range(k // 2 + 1) for w in by_deg.get(a, [])
                      for v in ad[w] if v > w and A.degrees[v] == k - a)
        if forced != written:
            raise GlapError(f"{fail}: {written - forced} brackets of degree {k} where none "
                            "is forced")

