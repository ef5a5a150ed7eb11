"""Exact linear algebra over the rationals.

Everything here works with ``fractions.Fraction`` ("Rational" below), so
results are exact: no tolerances, no floating point anywhere.  Two engines
share the work:

* a dense ``Mat`` class for small matrices (products, determinants,
  characteristic polynomials, congruence diagonalization);
* a sparse integer row-echelon engine for the big homogeneous systems that
  the derivation/prolongation solvers produce.  Rows are dicts mapping
  column index to a (primitive) integer coefficient; elimination is
  fraction-free.

Kernel bases are canonical: they come from the reduced row echelon form,
with one basis vector per free column (free columns in increasing order,
unit entry at the free column).  Two calls on row-equivalent inputs return
identical bases, which the rest of the package relies on for reproducible
labeling.  A ``Subspace`` keeps such a basis sparse and is the one place
where membership in a solution space is certified: coordinates are read
off at the free columns and the vector is rebuilt from them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import GlapError, NotSymmetric, require

Rational = Fraction
ZERO = Fraction(0)

__all__ = [
    "Rational",
    "Mat",
    "Subspace",
    "kernel_basis",
    "sparse_kernel",
    "sparse_rank",
    "solve_affine",
    "signature_of_symmetric",
    "char_poly",
    "rational_roots",
    "rational_eigensplit",
    "EigenSplit",
]


def _q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Mat:
    """Dense matrix of Fractions."""

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
    def identity(cls, n):
        M = cls.zeros(n, n)
        for i in range(n):
            M.a[i][i] = Fraction(1)
        return M

    @classmethod
    def diag(cls, entries):
        entries = list(entries)
        M = cls.zeros(len(entries), len(entries))
        for i, x in enumerate(entries):
            M.a[i][i] = _q(x)
        return M

    def copy(self) -> "Mat":
        return Mat([row[:] for row in self.a])

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __setitem__(self, ij, v):
        i, j = ij
        self.a[i][j] = _q(v)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.a == other.a

    def __add__(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in sum")
        return Mat([[x + y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)])

    def __sub__(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch in difference")
        return Mat([[x - y for x, y in zip(r, s)] for r, s in zip(self.a, other.a)])

    def __neg__(self):
        return Mat([[-x for x in r] for r in self.a])

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.n != other.m:
                raise ValueError("shape mismatch in product")
            bt = list(zip(*other.a))
            return Mat(
                [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in self.a]
            )
        c = _q(other)
        return Mat([[c * x for x in r] for r in self.a])

    __rmul__ = __mul__

    def __repr__(self):
        rows = "; ".join(" ".join(str(x) for x in r) for r in self.a)
        return f"Mat[{rows}]"

    def transpose(self) -> "Mat":
        return Mat([list(col) for col in zip(*self.a)] if self.a else [])

    def trace(self) -> Fraction:
        if self.m != self.n:
            raise ValueError("trace of a non-square matrix")
        return sum((self.a[i][i] for i in range(self.n)), Fraction(0))

    def is_symmetric(self) -> bool:
        if self.m != self.n:
            return False
        return all(
            self.a[i][j] == self.a[j][i] for i in range(self.m) for j in range(i)
        )

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.a for x in r)

    def col(self, j):
        return [self.a[i][j] for i in range(self.m)]

    def mat_vec(self, v):
        if len(v) != self.n:
            raise ValueError("shape mismatch in matrix-vector product")
        return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in self.a]

    def rank(self) -> int:
        return sparse_rank(_dense_to_sparse_rows(self), self.n)

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
            den = 1
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
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

    def inverse(self) -> "Mat":
        if self.m != self.n:
            raise ValueError("inverse of a non-square matrix")
        n = self.n
        aug = [self.a[i][:] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for c in range(n):
            piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            aug[c], aug[piv] = aug[piv], aug[c]
            inv = Fraction(1) / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
        return Mat([row[n:] for row in aug])


# ---------------------------------------------------------------------------
# sparse integer echelon engine
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


def _int_row(row: dict) -> dict | None:
    """Convert a Fraction/int sparse row to a primitive integer row.  Ints
    have ``numerator``/``denominator`` too, so both kinds of entry share
    one path and an integer row needs no Fraction arithmetic."""
    den = 1
    for v in row.values():
        d = v.denominator
        if den % d:
            den = den * d // gcd(den, d)
    out = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    return _primitive(out) if out else None


class Echelon:
    """Incremental row echelon form over primitive integer rows.

    ``add`` reduces an incoming row against the current pivots and, if
    anything survives, installs it as a new pivot row.  ``kernel`` finishes
    with back-substitution (rational) and returns the canonical RREF-derived
    kernel basis.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.piv: dict[int, dict] = {}  # lead column -> integer row

    @property
    def rank(self) -> int:
        return len(self.piv)

    def add(self, row: dict) -> bool:
        """Reduce ``row`` (dict col -> int/Fraction) and install the
        remainder as a pivot row.  Returns True if the rank grew."""
        r = _int_row(row)
        while r:
            c = min(r)
            p = self.piv.get(c)
            if p is None:
                self.piv[c] = r
                return True
            a, b = r[c], p[c]
            g = gcd(a, b)
            ma, mb = b // g, a // g
            nxt = {}
            for col, v in r.items():
                nxt[col] = ma * v
            for col, v in p.items():
                w = nxt.get(col, 0) - mb * v
                if w:
                    nxt[col] = w
                elif col in nxt:
                    del nxt[col]
            r = _primitive(nxt) if nxt else None
        return False

    def _rref(self) -> dict[int, dict]:
        """Eliminate pivot columns from the other rows (full reduction)."""
        rows = {c: dict(r) for c, r in self.piv.items()}
        for c in sorted(rows, reverse=True):
            prow = rows[c]
            for c2 in rows:
                if c2 >= c:
                    continue
                r2 = rows[c2]
                if c not in r2:
                    continue
                a, b = r2[c], prow[c]
                g = gcd(a, b)
                ma, mb = b // g, a // g
                nxt = {col: ma * v for col, v in r2.items()}
                for col, v in prow.items():
                    w = nxt.get(col, 0) - mb * v
                    if w:
                        nxt[col] = w
                    elif col in nxt:
                        del nxt[col]
                rows[c2] = _primitive(nxt)
        return rows

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self.piv]

    def kernel_space(self, name: str = "the kernel") -> "Subspace":
        """The canonical kernel basis, stored sparse, as a ``Subspace``."""
        rows = self._rref()
        free = self.free_columns()
        vectors = []
        for f in free:
            v = {f: Fraction(1)}
            for c, row in rows.items():
                if f in row:
                    v[c] = Fraction(-row[f], row[c])
            vectors.append(v)
        return Subspace(vectors, free, name)

    def kernel(self) -> list[list[Fraction]]:
        basis = []
        for v in self.kernel_space().vectors:
            dense = [ZERO] * self.ncols
            for c, x in v.items():
                dense[c] = x
            basis.append(dense)
        return basis


class Subspace:
    """A canonical kernel basis with certified coordinates.

    ``vectors[t]`` is stored sparse (dict column -> nonzero value); it is 1
    at its free column ``free[t]`` and 0 at every other free column, so the
    coordinates of any member of the span are its entries at the free
    columns.  ``coords`` reads them off and certifies membership exactly by
    rebuilding the vector from them.
    """

    def __init__(self, vectors: list[dict], free: list[int], name: str):
        self.vectors = vectors
        self.free = free
        self.name = name

    def __len__(self):
        return len(self.vectors)

    def coords(self, vec: dict, what: str = "vector") -> list[Fraction]:
        """Coordinates of the sparse vector ``vec`` (dict column -> value,
        zero values allowed); raises GlapError unless the rebuilt vector
        equals ``vec`` entry for entry."""
        out = [vec.get(f, ZERO) for f in self.free]
        recon: dict[int, Fraction] = {}
        for c, v in zip(out, self.vectors):
            if c:
                for i, x in v.items():
                    recon[i] = recon.get(i, ZERO) + c * x
        for i, x in vec.items():
            recon[i] = recon.get(i, ZERO) - x
        if any(recon.values()):
            raise GlapError(f"{what} does not lie in {self.name}")
        return out


def _dense_to_sparse_rows(M: Mat):
    for row in M.a:
        yield {j: x for j, x in enumerate(row) if x != 0}


def sparse_kernel(rows, ncols: int) -> list[list[Fraction]]:
    """Canonical kernel basis of a sparse row system (dicts col -> coeff)."""
    e = Echelon(ncols)
    for row in rows:
        e.add(row)
    return e.kernel()


def sparse_rank(rows, ncols: int) -> int:
    e = Echelon(ncols)
    for row in rows:
        e.add(row)
    return e.rank


def kernel_basis(M: Mat) -> list[list[Fraction]]:
    """Canonical basis of the null space of a dense matrix."""
    return sparse_kernel(_dense_to_sparse_rows(M), M.n)


def solve_affine(rows, rhs, ncols: int):
    """One solution of a sparse affine system ``A x = b``, or None.

    ``rows`` iterates dicts (col -> coeff) aligned with ``rhs``.  Solved by
    computing the kernel of the homogenized system [A | -b] and scaling a
    kernel vector with nonzero last coordinate.
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b != 0:
            r[ncols] = -b
        aug.append(r)
    for v in sparse_kernel(aug, ncols + 1):
        if v[ncols] != 0:
            t = Fraction(1) / v[ncols]
            return [x * t for x in v[:ncols]]
    return None


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


# ---------------------------------------------------------------------------
# characteristic polynomial and eigensplitting
# ---------------------------------------------------------------------------


def char_poly(M: Mat) -> list[Fraction]:
    """Coefficients of det(x*I - M), index k holding the x^k coefficient.

    The matrix is first brought to upper Hessenberg form by exact similarity
    transformations; the polynomial then follows from the standard leading
    principal minor recurrence in O(n^3) ring operations.
    """
    if M.m != M.n:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.n
    if n == 0:
        return [Fraction(1)]
    h = [row[:] for row in M.a]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        for i in range(j + 2, n):
            if h[i][j] == 0:
                continue
            f = h[i][j] / h[j + 1][j]
            for k in range(n):
                h[i][k] -= f * h[j + 1][k]
            for k in range(n):
                h[k][j + 1] += f * h[k][i]
    # p[k] = char poly of the leading k x k block, low-to-high coefficients
    polys = [[Fraction(1)]]
    for k in range(1, n + 1):
        d = h[k - 1][k - 1]
        prev = polys[k - 1]
        cur = [Fraction(0)] + prev  # x * p_{k-1}
        for idx, c in enumerate(prev):
            cur[idx] -= d * c
        run = Fraction(1)
        for i in range(k - 1, 0, -1):
            run *= h[i][i - 1]
            coef = h[i - 1][k - 1] * run
            if coef != 0:
                for idx, c in enumerate(polys[i - 1]):
                    cur[idx] -= coef * c
        polys.append(cur)
    return polys[n]


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division plus Pollard rho."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out

    def is_prime(m: int) -> bool:
        if m < 2:
            return False
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            if m % p == 0:
                return m == p
        d, s = m - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        # deterministic witness set for 64-bit and well beyond typical sizes
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, m)
            if x in (1, m - 1):
                continue
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        return True

    def rho(m: int) -> int:
        if m % 2 == 0:
            return 2
        c = 1
        while True:
            x = y = 2
            d = 1
            while d == 1:
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                d = gcd(abs(x - y), m)
            if d != m:
                return d
            c += 1

    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _divisors(n: int) -> list[int]:
    fac = _factorize(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def poly_eval(poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _deflate(poly, root: Fraction):
    """Divide poly by (x - root) via synthetic division; root must be exact."""
    deg = len(poly) - 1
    out = [Fraction(0)] * deg
    carry = poly[deg]
    for k in range(deg - 1, -1, -1):
        out[k] = carry
        carry = poly[k] + root * carry
    require(carry == 0, "deflation by a non-root")
    return out


def rational_roots(poly) -> dict[Fraction, int]:
    """All rational roots of a rational polynomial, with multiplicities.

    Candidates p/q with p | constant term and q | leading term of the
    primitive integer model, each verified by exact evaluation and removed
    by deflation until it stops dividing.
    """
    poly = [_q(c) for c in poly]
    while poly and poly[-1] == 0:
        poly.pop()
    if not poly:
        raise ValueError("zero polynomial has every rational as a root")
    roots: dict[Fraction, int] = {}
    zero = Fraction(0)
    while len(poly) > 1 and poly[0] == 0:
        roots[zero] = roots.get(zero, 0) + 1
        poly = poly[1:]
    if len(poly) <= 1:
        return roots
    den = 1
    for c in poly:
        den = den * c.denominator // gcd(den, c.denominator)
    ipoly = [int(c * den) for c in poly]
    g = 0
    for c in ipoly:
        g = gcd(g, c)
    ipoly = [c // g for c in ipoly]
    cands = set()
    for p in _divisors(abs(ipoly[0])):
        for q in _divisors(abs(ipoly[-1])):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    for cand in sorted(cands):
        while len(poly) > 1 and poly_eval(poly, cand) == 0:
            roots[cand] = roots.get(cand, 0) + 1
            poly = _deflate(poly, cand)
    return roots


@dataclass
class EigenSplit:
    """Rational eigenspace decomposition of a square matrix.

    ``eigen`` maps each rational eigenvalue to the canonical basis of its
    eigenspace; ``residual`` spans the kernel of q(M) where q is the
    characteristic polynomial with all rational linear factors removed.
    ``complete`` records whether the pieces sum to the full dimension
    (true whenever M is diagonalizable over the rationals, possibly after
    discarding the residual's irrational part).
    """

    eigen: list[tuple[Fraction, list[list[Fraction]]]]
    residual: list[list[Fraction]]
    complete: bool

    def total_dim(self) -> int:
        return sum(len(b) for _, b in self.eigen) + len(self.residual)


def _poly_of_matrix(poly, M: Mat) -> Mat:
    n = M.n
    acc = Mat.zeros(n, n)
    for c in reversed(poly):
        acc = acc * M
        if c != 0:
            for i in range(n):
                acc.a[i][i] += c
    return acc


def rational_eigensplit(M: Mat) -> EigenSplit:
    if M.m != M.n:
        raise ValueError("eigensplit of a non-square matrix")
    p = char_poly(M)
    roots = rational_roots(p)
    eigen = []
    for lam in sorted(roots):
        shifted = M.copy()
        for i in range(M.n):
            shifted.a[i][i] -= lam
        eigen.append((lam, kernel_basis(shifted)))
    q = p
    for lam, mult in roots.items():
        for _ in range(mult):
            q = _deflate(q, lam)
    if len(q) == 1:
        residual: list[list[Fraction]] = []
    else:
        residual = kernel_basis(_poly_of_matrix(q, M))
    total = sum(len(b) for _, b in eigen) + len(residual)
    return EigenSplit(eigen=eigen, residual=residual, complete=total == M.n)
