"""Exact linear algebra over the rationals.

No tolerances, no floating point anywhere: the solvers run in Python ints,
and ``fractions.Fraction`` appears only at the boundary.  The engine is a
sparse integer Gauss-Jordan elimination (``Echelon``).  Rows are dicts
mapping column index to a nonzero int; a rational row is scaled once, by
``int_row``, where it is built.  Elimination is fraction-free.  Kernels,
spans, ranks and square solves all go through it.  A small dense ``Mat``
of Fractions holds what is read at the boundary: Gram matrices and other
forms, their signatures and determinants.

The pivot rows are kept in reduced row echelon form at every step: the
row at lead column c is primitive, positive at c, has c as its smallest
column and holds no other lead column.  An incoming row is eliminated
once per lead it holds, and the new pivot is then eliminated from the
rows that hold its lead.  Leads never move, since a row holding the new
lead has its own lead below it, where the new row is zero.  A row space
has one RREF with primitive rows positive at their leads, so the pivot
rows are the same for row-equivalent inputs in any row order.

Kernel bases are canonical: they are read off those rows, with one basis
vector per free column (free columns in increasing order, unit entry at
the free column), so row-equivalent inputs give identical bases in any
row order, which the package relies on for reproducible labeling.  A
``Subspace`` keeps such a basis sparse, as integer vectors over one
common denominator, and is the one place where membership in a solution
space is certified: coordinates are read off at the free columns and the
vector is rebuilt from them exactly, in ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .errors import GlapError, NotSymmetric, require

ZERO = Fraction(0)


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Mat:
    """Dense matrix of Fractions, for the forms read at the boundary: Gram
    matrices, their signatures and determinants."""

    __slots__ = ("m", "n", "a")

    def __init__(self, rows):
        self.a = [[_q(x) for x in row] for row in rows]
        self.m = len(self.a)
        self.n = len(self.a[0]) if self.a else 0
        for row in self.a:
            if len(row) != self.n:
                raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, m, n):
        z = Fraction(0)
        return cls([[z] * n for _ in range(m)])

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        M = cls.zeros(len(entries), len(entries))
        for i, x in enumerate(entries):
            M.a[i][i] = _q(x)
        return M

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.a[i][j] = _q(v)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.a == other.a

    def __mul__(self, other: "Mat") -> "Mat":
        if self.n != other.m:
            raise ValueError("shape mismatch in product")
        bt = list(zip(*other.a))
        return Mat([[sum(x * y for x, y in zip(row, col)) for col in bt] for row in self.a])

    def __repr__(self):
        rows = "; ".join(" ".join(str(x) for x in r) for r in self.a)
        return f"Mat[{rows}]"

    def is_symmetric(self) -> bool:
        if self.m != self.n:
            return False
        return all(
            self.a[i][j] == self.a[j][i] for i in range(self.m) for j in range(i)
        )

    def rank(self) -> int:
        return sparse_rank((dict(enumerate(r)) for r in self.a), self.n)

    def det(self) -> Fraction:
        """Determinant via fraction-free Bareiss elimination."""
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        n = self.n
        if n == 0:
            return Fraction(1)
        # clear denominators row by row, tracking the scale factor
        scale = Fraction(1)
        a = []
        for row in self.a:
            den = lcm(*(x.denominator for x in row))
            scale *= den
            a.append([int(x * den) for x in row])
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for r in range(k + 1, n):
                    if a[r][k] != 0:
                        a[k], a[r] = a[r], a[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return Fraction(sign * a[n - 1][n - 1], 1) / scale

# ---------------------------------------------------------------------------
# sparse integer Gauss-Jordan engine
# ---------------------------------------------------------------------------


def _primitive(row: dict) -> dict:
    """Divide a nonzero integer row by the gcd of its entries and fix the
    sign so the leading (smallest-column) entry is positive."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    lead = min(row)
    if g != 1 or row[lead] < 0:
        if row[lead] < 0:
            g = -g
        row = {c: v // g for c, v in row.items()}
    return row


def int_row(row: dict) -> dict:
    """A Fraction/int sparse row scaled by the lcm of its denominators to
    integers, zero entries dropped; it has the same solutions."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}


def _eliminate(r: dict, p: dict, c: int) -> None:
    """Clear column c of the integer row r in place, using the row p:
    r becomes (p[c]/g) r - (r[c]/g) p with g = gcd(r[c], p[c])."""
    a, b = r[c], p[c]
    g = gcd(a, b)
    ma, mb = b // g, a // g
    if ma != 1:
        for col in r:
            r[col] *= ma
    for col, v in p.items():
        w = r.get(col, 0) - mb * v
        if w:
            r[col] = w
        else:
            del r[col]


# rows per window of ``Echelon.extend``, as a multiple of the column count
_WINDOW = 4


class Echelon:
    """Incremental reduced row echelon form over primitive integer rows.

    ``piv`` maps each lead column c to its pivot row, which is primitive,
    positive at c, has c as its smallest column and holds no other lead
    column; ``holders`` maps a column to the leads whose rows hold it.
    ``known_zero`` holds the leads c whose pivot row is the unit row
    {c: 1}: every solution of the rows is 0 there.  Such a row holds no
    other column, so no later ``add`` changes it, and the set only grows.
    ``add`` keeps all three true after every row, and only ``add`` writes
    them.  So ``piv`` is always the RREF of the rows added so far with
    primitive rows positive at their leads, which is unique: it does not
    depend on row order, and ``kernel_space``, ``span_basis`` and
    ``solve_square`` read it as it is.  ``extend`` adds many rows.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.piv: dict[int, dict] = {}  # lead column -> primitive reduced row
        self.holders: dict[int, set[int]] = {}  # column -> leads whose rows hold it
        self.known_zero: set[int] = set()  # leads whose pivot row is {c: 1}

    @property
    def rank(self) -> int:
        return len(self.piv)

    def add(self, row: dict) -> bool:
        """Reduce ``row`` (dict col -> nonzero int) and install the
        remainder, made primitive, as a pivot row; it may be ``row``
        itself, which must not change afterwards.  Returns True if the rank
        grew.

        A pivot row holds no lead but its own, so clearing one lead of the
        row adds no other: the row is eliminated once per lead it holds,
        in any order, and the remainder holds no lead.  Its lead c is then
        cleared from every pivot row that holds it, found in ``holders``;
        each is replaced by a new primitive dict, never changed in place.
        Leads never move: a row that holds c has its lead below c, where
        the remainder is zero, so its lead entry is only scaled by a
        positive factor.  So the rank and the set of leads are those of
        plain echelon form, and ``piv`` is the unique primitive RREF.

        A row whose columns are all in ``known_zero`` is a combination of
        unit pivot rows, so it reduces to 0: it is refused before any
        elimination, and nothing changes."""
        known_zero = self.known_zero
        if known_zero.issuperset(row):
            return False
        piv = self.piv
        leads = piv.keys() & row.keys()
        r = row
        if leads:
            r = dict(row)
            for c in leads:
                _eliminate(r, piv[c], c)
        if not r:
            return False
        r = _primitive(r)
        c = min(r)
        holders = self.holders
        for h in holders.pop(c, ()):
            old = piv[h]
            new = dict(old)
            _eliminate(new, r, c)
            new = piv[h] = _primitive(new)
            if len(new) == 1:
                known_zero.add(h)
            for col in r:
                if col == c:
                    continue
                if col in new:
                    if col not in old:
                        holders.setdefault(col, set()).add(h)
                elif col in old:
                    holders[col].discard(h)
        piv[c] = r
        if len(r) == 1:
            known_zero.add(c)
        for col in r:
            if col != c:
                holders.setdefault(col, set()).add(c)
        return True

    def extend(self, rows) -> "Echelon":
        """``add`` every row of ``rows`` (an iterable) and return self.
        The result is independent of row order, the cost is not: a sparse
        row meets few pivots and installs a sparse one, where a dense early
        pivot fills in every row after it.  So each window of ``_WINDOW *
        ncols`` rows goes in sorted by length, which keeps fewer rows alive
        than one full sort.  At full rank no further row is pulled."""
        it = iter(rows)
        while self.rank < self.ncols:
            window = sorted(islice(it, _WINDOW * self.ncols), key=len)
            if not window:
                break
            for row in window:
                if self.add(row) and self.rank == self.ncols:
                    break
        return self

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.piv]

    def kernel_space(self, name: str = "the kernel") -> "Subspace":
        """The canonical kernel basis as a ``Subspace``, read off ``piv``,
        the unique RREF.  Past its lead c a pivot row holds no other lead,
        so its entries there are at free columns only, and the vector of
        free column f is 1 at f and -row[f]/row[c] at each such c; D, the
        lcm of those leads, clears every denominator."""
        piv = self.piv
        free = self.free_columns()
        D = lcm(*(row[c] for c, row in piv.items() if len(row) > 1))
        basis = {f: {f: D} for f in free}
        for c, row in piv.items():
            s = D // row[c]
            for f, x in row.items():
                if f != c:
                    basis[f][c] = -x * s
        return Subspace([basis[f] for f in free], D, free, name)


class Subspace:
    """A canonical kernel basis with certified coordinates.

    The vector v_t is 1 at its free column ``free[t]`` and 0 at every other
    free column, so the coordinates of a member of the span are its entries
    there.  It is stored sparse as ``basis[t]`` = D v_t, in ints over one
    common ``denominator`` D.  ``coords`` certifies membership by the
    integer identity sum_t c_t basis[t] == D vec, entry for entry, with a
    rational vec first scaled to ints; scaling changes no entry's
    vanishing, so this is the exact rational check.
    """

    def __init__(self, basis: list[dict], denominator: int, free: list[int], name: str):
        self.basis = basis
        self.denominator = denominator
        self.free = free
        self.name = name

    def __len__(self):
        return len(self.basis)

    def vector(self, t: int) -> dict[int, Fraction]:
        """v_t as a sparse vector of Fractions."""
        D = self.denominator
        return {i: Fraction(x, D) for i, x in self.basis[t].items()}

    @property
    def vectors(self) -> list[dict[int, Fraction]]:
        """Every v_t as a sparse vector of Fractions, built on each call."""
        return [self.vector(t) for t in range(len(self.basis))]

    def coords(self, vec: dict, what: str = "vector") -> dict:
        """The nonzero coordinates ``{t: c_t}`` of the sparse vector ``vec``
        (dict column -> int or Fraction, zero values allowed), its own
        entries at the free columns; raises GlapError unless the rebuilt
        vector equals ``vec`` entry for entry."""
        out = {t: c for t, f in enumerate(self.free) if (c := vec.get(f))}
        den = lcm(*(x.denominator for x in vec.values()))
        if den > 1:
            vec = {i: x.numerator * (den // x.denominator) for i, x in vec.items()}
        recon: dict[int, int] = {}
        for t in out:
            c = vec[self.free[t]]
            for i, y in self.basis[t].items():
                recon[i] = recon.get(i, 0) + c * y
        D = self.denominator
        for i, x in vec.items():
            recon[i] = recon.get(i, 0) - D * x
        if any(recon.values()):
            raise GlapError(f"{what} does not lie in {self.name}")
        return out


def span_basis(vectors, ncols: int, name: str) -> Subspace:
    """The canonical kernel basis, as a ``Subspace``, of any system whose
    kernel is the span of ``vectors`` (sparse integer dicts col -> coeff).

    A column is free exactly when some member of the kernel has its last
    nonzero entry there, so that basis is the reduced echelon basis of the
    span with each pivot at a last nonzero entry, scaled to 1 there.
    Reversing the columns makes those the leading entries ``Echelon``
    pivots on, and its ``piv``, the unique RREF, is that basis up to the
    scale of each row; D, the lcm of the pivot entries, clears every
    denominator."""
    top = ncols - 1
    ech = Echelon(ncols).extend({top - c: x for c, x in v.items() if x} for v in vectors)
    rows = sorted(ech.piv.items(), reverse=True)
    D = lcm(*(row[p] for p, row in rows))
    return Subspace(
        [{top - c: x * (D // row[p]) for c, x in row.items()} for p, row in rows],
        D, [top - p for p, _ in rows], name,
    )


def solve_square(rows, n: int) -> tuple[int, dict[int, dict[int, int]]]:
    """(D, D X) with P X = B for an invertible n x n matrix P.

    ``rows`` are the n rows of the augmented system [P | B] in integers:
    sparse dicts with the entries of P at columns 0..n-1 and the entry of
    column c of B at n + c.  ``Echelon`` keeps the reduced echelon form,
    which for an invertible system is [d | d X] for a diagonal d, so D X is
    read off its ``piv`` row by row as ``DX[u] = {c: x}``, over D, the lcm
    of d.  Raises GlapError when P is singular."""
    ech = Echelon(n).extend(rows)
    require(sorted(ech.piv) == list(range(n)), "singular square system")
    D = lcm(*(row[u] for u, row in ech.piv.items()))
    return D, {
        u: {c - n: x * (D // row[u]) for c, x in row.items() if c >= n}
        for u, row in ech.piv.items()
    }


def sparse_rank(rows, ncols: int) -> int:
    return Echelon(ncols).extend(map(int_row, rows)).rank


# ---------------------------------------------------------------------------
# symmetric forms
# ---------------------------------------------------------------------------


def signature_of_symmetric(M: Mat) -> tuple[int, int, int]:
    """Signature (r, s, z) of a symmetric matrix: the number of positive,
    negative and zero diagonal entries after congruence diagonalization.

    Raises NotSymmetric when the input is not symmetric.  Exact, so there is
    no epsilon anywhere: an entry is positive, negative or zero, period.
    """
    if not M.is_symmetric():
        raise NotSymmetric("signature requires a symmetric matrix")
    a = [row[:] for row in M.a]
    n = M.n

    def add_row_col(i, j):
        # congruence step: row_i += row_j, then col_i += col_j
        for k in range(n):
            a[i][k] += a[j][k]
        for k in range(n):
            a[k][i] += a[k][j]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    for i in range(n):
        if a[i][i] == 0:
            j = next((k for k in range(i + 1, n) if a[k][k] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                j = next((k for k in range(i + 1, n) if a[i][k] != 0), None)
                if j is None:
                    continue  # row and column i vanish from here on
                add_row_col(i, j)  # now a[i][i] = 2*a[i][j] != 0
        d = a[i][i]
        for r in range(i + 1, n):
            if a[r][i] != 0:
                f = a[r][i] / d
                for k in range(n):
                    a[r][k] -= f * a[i][k]
                for k in range(n):
                    a[k][r] -= f * a[k][i]
    pos = sum(1 for i in range(n) if a[i][i] > 0)
    neg = sum(1 for i in range(n) if a[i][i] < 0)
    return pos, neg, n - pos - neg
