"""Builders for the classified families of conformal fundamental graded algebras.

The classical families live inside matrices over a composition algebra: the
defining reflection equation is solved degree by degree in exact arithmetic,
and the resulting basis matrices are multiplied out to honest structure
constants.  The products run in Python ints: each degree's canonical basis
is kept as integer vectors D v_t over one denominator D, and the unit table
of K has integer coefficients, so the commutator of D_a X_a and D_b X_b is
an integer matrix, exactly D_a D_b [X_a, X_b].  Its coordinates are
certified in ints by exact reconstruction and divided by D_a D_b once.
The form g and the conformal factors eta are read from the same integer
basis and unit table, each entry divided by its denominator once, so
there is one arithmetic over K.
K is required to be associative, which makes these commutators a Lie
bracket; an assembled algebra is certified by re-deriving every returned
bracket from the same integer products (``_certify_matrices``), without a
triple sweep.  A builder assembles and certifies only the brackets of m
and [g_0, g_{-1}] (``_read_by_build``), which is all that m, g, the
covariance check and the Cartan tag read; on its first read
(``Family.ambient``) the ambient adds every other pair, each assembled
and certified once.  The two octonionic models and the exceptional rank-two model are assembled
directly from representation data, and a semidirect-product example with
a non-semisimple prolongation rounds out the list.

Every builder takes the instance name and the family's parameters and
hands back (m, g, ambient, cartan): the fundamental algebra m, a
representative g of the conformal class, a zero-argument callable that
builds the rest of the certified ambient graded algebra where the matrix
picture exists (None where it does not), and the Cartan tag: the
dimension, an int, of a verified abelian, diagonalizable subspace marking
the split rank (None where absent), which ``build`` holds to the
split-rank bound.

``FAMILIES`` at the end of the module is the one registry of families: tag,
root-oracle key, parameters, supported range, ``verify-table`` rows and
builder.  The command line, the expected classification table and the tests
read it, so a new family is one registry record and its builder.

Conformal covariance of g under the degree-zero action is certified in
Python ints on the brackets [g_0, g_{-1}].
"""

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import lcm

from .composition import CompositionAlgebra, algebra_by_tag, norm_form, real_algebra
from .errors import BadParameters, GlapError, require
from .gla import GradedAlgebra, SymBilinearForm, check_fundamental, check_gla
from .linalg import Echelon, Mat, int_row

ZERO = Fraction(0)


class _DegreeSpace:
    """Solution space of the defining equations within one matrix degree.

    Local coordinates run over (cell index, coefficient component); the
    canonical kernel basis of the constraint rows is kept as a ``Subspace``
    so membership is certified by exact reconstruction.  A matrix handed to
    ``coords`` is sparse by entry and component, ``{(i, j, s): x}``.
    """

    def __init__(self, alg, cells, rows):
        self.alg = alg
        self.cells = list(cells)
        self.pos = {c: k for k, c in enumerate(self.cells)}
        ech = Echelon(len(self.cells) * alg.dim).extend(rows)
        self.space = ech.kernel_space("the solutions of the defining equations")

    def dim(self) -> int:
        return len(self.space)

    def int_matrix(self, k: int) -> dict[tuple[int, int, int], int]:
        """D times the k-th basis matrix, D = ``space.denominator``, in ints."""
        d = self.alg.dim
        out = {}
        for c, x in self.space.basis[k].items():
            idx, s = divmod(c, d)
            out[(*self.cells[idx], s)] = x
        return out

    def coords(self, entries: dict) -> list:
        d = self.alg.dim
        local = {}
        for (i, j, s), x in entries.items():
            if x:
                idx = self.pos.get((i, j))
                if idx is None:
                    raise GlapError(f"matrix entry at {(i, j)} escapes the degree block")
                local[idx * d + s] = x
        return self.space.coords(local, "matrix")


def _by_row(X: dict) -> dict[int, list]:
    """The entries of a matrix ``{(i, k, s): x}`` grouped by row:
    ``rows[i] = [(k, s, x), ...]``."""
    rows: dict[int, list] = {}
    for (i, k, s), x in X.items():
        rows.setdefault(i, []).append((k, s, x))
    return rows


def _commutator(X: dict, Y: dict, table) -> dict:
    """XY - YX of two matrices over K given ``_by_row``, as
    ``{(i, j, u): x}`` with zero entries kept."""
    acc: dict[tuple[int, int, int], int] = {}
    get = acc.get
    for left, right, sign in ((X, Y, 1), (Y, X, -1)):
        for i, row in left.items():
            for k, s, x in row:
                products = table[s]
                for j, t, y in right.get(k, ()):
                    u, c = products[t]
                    key = (i, j, u)
                    acc[key] = get(key, 0) + sign * c * x * y
    return acc


def _realize(alg, n, sigma, weights, trace_zero):
    """Graded solution spaces of  conj(X[s(b)][a]) + X[s(a)][b] = 0  for all a, b.

    This is the entrywise form of X*S + SX = 0 for the permutation form S
    with s = sigma.  Both entries of the (a, b) equation sit in the same
    matrix degree, so the system splits degree by degree.  With trace_zero
    the full coefficient-algebra trace is pinned to zero as well (only ever
    needed for two-dimensional coefficients; the real part already vanishes
    by the reflection equation).
    """
    d = alg.dim
    signs = [int(s) for s in alg._conj]
    degree_cells: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(n):
            degree_cells.setdefault(weights[i] - weights[j], []).append((i, j))
    pos_by_degree = {
        delta: {c: k for k, c in enumerate(cells)}
        for delta, cells in degree_cells.items()
    }
    rows_by_degree: dict[int, list[dict]] = {delta: [] for delta in degree_cells}
    for a in range(n):
        for b in range(n):
            delta = -(weights[a] + weights[b])
            pos = pos_by_degree[delta]
            c1 = pos[(sigma[b], a)]
            c2 = pos[(sigma[a], b)]
            for t in range(d):
                row: dict[int, int] = {}
                k1, k2 = c1 * d + t, c2 * d + t
                row[k1] = row.get(k1, 0) + signs[t]
                row[k2] = row.get(k2, 0) + 1
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows_by_degree[delta].append(row)
    if trace_zero:
        pos0 = pos_by_degree[0]
        for t in range(d):
            rows_by_degree[0].append(
                {pos0[(i, i)] * d + t: 1 for i in range(n)}
            )
    return {
        delta: _DegreeSpace(alg, degree_cells[delta], rows_by_degree[delta])
        for delta in degree_cells
    }


def _matrix_basis(spaces) -> tuple[list, list[tuple[int, int, dict]]]:
    """K's integer unit table, required associative, and (degree, D, D X by
    row) for each basis matrix X of ``_assemble``, D its degree's denominator."""
    alg = next(iter(spaces.values())).alg
    table = alg.unit_table()
    require(alg.is_associative(), f"{alg.tag} is not associative")
    return table, [
        (delta, sp.space.denominator, _by_row(sp.int_matrix(k)))
        for delta, sp in sorted(spaces.items())
        for k in range(sp.dim())
    ]


def _read_by_build(di: int, dj: int) -> bool:
    """Whether ``build`` reads the brackets of degrees (di, dj): those of m,
    and [g_0, g_{-1}] for the covariance check."""
    return max(di, dj) < 0 or {di, dj} == {0, -1}


def _assemble(name, spaces, low: GradedAlgebra | None = None) -> GradedAlgebra:
    """Structure constants of the realized algebra via matrix commutators,
    on the pairs that ``build`` reads (``_read_by_build``).  ``low``, when
    given, is the algebra so assembled on the first ``low.n`` basis
    elements: its brackets are kept, and every other pair is multiplied
    out.

    K must be associative: then gl(n, K) is an associative algebra and its
    commutator a Lie bracket, which the structure constants inherit.  Each
    basis element X_a of degree a enters as the integer matrix D_a X_a, D_a
    the denominator of its degree's canonical basis, and every product of
    entries runs through the integer unit table of K.  So the integer
    commutator is exactly D_a D_b [X_a, X_b]; ``coords`` certifies it in
    ints entry for entry and returns D_a D_b times the rational
    coordinates, and each is divided by D_a D_b once.
    """
    table, basis = _matrix_basis(spaces)
    degs = [delta for delta, _, _ in basis]
    offset = {delta: degs.index(delta) for delta in set(degs)}
    labels = [f"g{delta}_{i - offset[delta]}" for i, delta in enumerate(degs)]
    brackets = dict(low.brackets) if low is not None else {}
    for i in range(len(basis)):
        di, Di, Xi = basis[i]
        for j in range(i + 1, len(basis)):
            dj, Dj, Xj = basis[j]
            if _read_by_build(di, dj) == (low is not None):
                continue
            Z = _commutator(Xi, Xj, table)
            if not any(Z.values()):
                continue
            sp = spaces.get(di + dj)
            if sp is None:
                raise GlapError(
                    f"commutator escapes the graded support at degree {di + dj}"
                )
            scale = Di * Dj
            cell = {
                offset[di + dj] + k: Fraction(c, scale)
                for k, c in sp.coords(Z).items()
            }
            if cell:
                brackets[(i, j)] = cell
    return GradedAlgebra(name, labels, degs, brackets)


def _matrix_algebra(name, spaces, expected: int):
    """(low, ambient): the spaces of degree <= 0 with the brackets that
    ``build`` reads (``_read_by_build``), assembled and certified now, and
    a zero-argument callable that extends it to the ambient, every space
    and every bracket.  The ambient's dimension, the sum of the space
    dimensions, must be ``expected``.

    ``_certify_matrices`` proves each bracket of low equal to its matrix
    commutator, so m, all of whose brackets low holds, is a graded Lie
    algebra word for word: e_k -> X_k is injective and bracket-preserving
    into gl(n, K).  ``_assemble`` orders the basis by degree, so low's
    indices and labels are the ambient's first ones, and the ambient keeps
    its certified brackets: only the other pairs are assembled and
    certified, once, so every pair of the ambient is certified."""
    dim = sum(sp.dim() for sp in spaces.values())
    require(dim == expected, f"{name} has dimension {dim}, expected {expected}")
    low = {delta: sp for delta, sp in spaces.items() if delta <= 0}
    A = _assemble(name, low)
    _certify_matrices(A, low)
    return A, partial(_certified_extension, name, spaces, A)


def _certified_extension(name, spaces, low: GradedAlgebra) -> GradedAlgebra:
    A = _assemble(name, spaces, low)
    _certify_matrices(A, spaces, low)
    return A


def _split_unit(alg: CompositionAlgebra):
    """Index of an imaginary basis unit squaring to +1, if any."""
    table = alg.unit_table()
    return next((t for t in range(1, alg.dim) if table[t][t] == (0, 1)), None)


def _certify(A: GradedAlgebra):
    """Raise GlapError unless A passes ``check_gla`` (grading and Jacobi)."""
    _require_certified(A, check_gla(A)["violation_count"])


def _require_certified(A: GradedAlgebra, violations: int):
    require(not violations,
            f"{A.name} fails the grading/Jacobi certificate: {violations} violations")


def _certify_matrices(A: GradedAlgebra, spaces, low: GradedAlgebra | None = None):
    """Raise GlapError unless e_k has the degree of X_k, the k-th basis
    matrix of ``spaces``, and for every pair i < j that ``_assemble``
    multiplies out (with ``low`` as given), bracket or not, the integer
    commutator of D_i X_i and D_j X_j is D_i D_j times [e_i, e_j] of A
    written in the X_k; the violations are the misplaced degrees, or else
    the pairs that fail, or a pair left out on which A does not have the
    bracket of ``low`` (none without it).  With ``low`` the pairs left out
    are low's, certified before on the same basis matrices.  Over all the
    pairs of an algebra this proves its grading and Jacobi identity in
    O(pairs).  phi: e_k -> X_k is injective, as canonical basis vectors
    have units at distinct free columns and distinct degrees hold distinct
    cells; the re-derivation makes phi bracket-preserving; gl(n, K) is Lie
    as K is associative (``is_associative``).  So phi J_A = 0, J_A = 0,
    and [e_i, e_j] has no term outside the degree of [X_i, X_j].
    """
    table, basis = _matrix_basis(spaces)
    _require_certified(A, sum(d != e[0] for d, e in zip(A.degrees, basis)) + abs(A.n - len(basis)))
    kept = low.brackets if low is not None else {}
    bad = 0
    for i, (di, Di, Xi) in enumerate(basis):
        for j in range(i + 1, len(basis)):
            dj, Dj, Xj = basis[j]
            if _read_by_build(di, dj) == (low is not None):
                bad += A.brackets.get((i, j)) != kept.get((i, j))
                continue
            diff = _commutator(Xi, Xj, table)
            # S D_i D_j c_k X_k = (S D_i D_j c_k / D_k)(D_k X_k), in ints
            cell = A.brackets.get((i, j), {})
            S = lcm(*(c.denominator * basis[k][1] for k, c in cell.items()))
            if S > 1:
                diff = {key: S * v for key, v in diff.items()}
            for k, c in cell.items():
                x = Di * Dj * c.numerator * (S // (c.denominator * basis[k][1]))
                for row, entries in basis[k][2].items():
                    for col, s, y in entries:
                        diff[row, col, s] = diff.get((row, col, s), 0) - x * y
            bad += any(diff.values())
    _require_certified(A, bad)


def _require_fundamental(m: GradedAlgebra, want_kind: int):
    fundamental, kind = check_fundamental(m)
    require(fundamental and kind == want_kind,
            f"{m.name}: fundamental={fundamental}, kind {kind}; "
            f"expected fundamental of kind {want_kind}")


def _require_dims(m: GradedAlgebra, want: dict[int, int]):
    got = m.dims_by_degree()
    require(got == want, f"{m.name} has dims {got}, expected {want}")


def _require_signature(g: SymBilinearForm, want: tuple[int, int]):
    got = g.signature()
    require(got == want, f"form on {g.algebra_name} has signature {got}, expected {want}")


def _check_covariance(A: GradedAlgebra, G: Mat, eta_by_index):
    """Require the degree-zero action to scale g by the predicted factor.

    For each (idx, eta) with M = ad(e_idx) restricted to degree -1, the
    identity  M^T G + G M = eta G  is certified entry by entry, in integers.
    The columns of each M are read from the brackets of A and scaled by L,
    the lcm of their denominators, and G is scaled by D, the lcm of its
    denominators.  Each entry

        (M^T G + G M)[r][c] = sum_k M[k][r] G[k][c] + G[r][k] M[k][c]

    is a sum of products of one constant and one entry of G, so the integer
    lhs is exactly L*D times the rational one.  With eta = a/b, the integer
    residual  b*lhs - a*L*(D*G)  is exactly L*D*b times the rational
    residual  lhs - eta*G,  and so is zero exactly when it is.  The
    comparison runs over every entry: the zero entries are the ones missing
    from both sparse sides.
    """
    src = A.by_degree().get(-1, [])
    pos = {g: r for r, g in enumerate(src)}
    D = lcm(*(x.denominator for row in G.a for x in row))
    rows = [
        {c: x.numerator * (D // x.denominator) for c, x in enumerate(row) if x}
        for row in G.a
    ]
    cols: list[dict[int, int]] = [{} for _ in rows]
    entries = {}
    for r, row in enumerate(rows):
        for c, x in row.items():
            cols[c][r] = x
            entries[r, c] = x
    for idx, eta in eta_by_index:
        M = [A.bracket_pair(idx, j) for j in src]
        L = lcm(*(x.denominator for col in M for x in col.values()))
        lhs: dict[tuple[int, int], int] = {}
        get = lhs.get
        for c, col in enumerate(M):
            # column c of M, scaled: m = L * M[pos[k]][c]
            for k, y in col.items():
                m = y.numerator * (L // y.denominator)
                for t, x in rows[pos[k]].items():  # (M^T G)[c][t]
                    lhs[c, t] = get((c, t), 0) + m * x
                for t, x in cols[pos[k]].items():  # (G M)[t][c]
                    lhs[t, c] = get((t, c), 0) + x * m
        a, b = eta.numerator, eta.denominator
        got = {rc: b * v for rc, v in lhs.items() if v}
        want = {rc: a * L * x for rc, x in entries.items()} if a else {}
        require(got == want, f"conformal factor mismatch at {A.labels[idx]}")


def _certify_cartan(spaces, elems):
    """Certify that the tagged matrices ``{(i, j, s): x}`` lie in degree
    zero, are linearly independent and commute pairwise."""
    ech = Echelon(spaces[0].dim())
    for M in elems:
        grew = ech.add(int_row(spaces[0].coords(M)))
        require(grew, "tagged diagonal elements are dependent")
    table = spaces[0].alg.unit_table()
    rows = [_by_row(M) for M in elems]
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            require(not any(_commutator(rows[a], rows[b], table).values()),
                    f"tagged diagonal elements {a} and {b} do not commute")


def _gram(sp: _DegreeSpace, pairs, den: int) -> Mat:
    """G[a][b] = Re sum conj(X_a[x]) X_b[y] / den over the cell pairs (x, y),
    X_a the basis matrices of ``sp``.  Each entry is one integer sum over
    the integer basis D X_a and the terms Re(conj(e_s) e_t) of
    ``norm_form``, divided by den D^2 once."""
    re = [(s, t, int(c)) for s, row in enumerate(norm_form(sp.alg).a)
          for t, c in enumerate(row) if c]
    mats = [sp.int_matrix(k) for k in range(sp.dim())]
    scale = den * sp.space.denominator ** 2
    return Mat([
        [Fraction(sum(c * A.get((*x, s), 0) * B.get((*y, t), 0)
                      for x, y in pairs for s, t, c in re), scale) for B in mats]
        for A in mats
    ])


def _conformal_factors(A: GradedAlgebra, sp0: _DegreeSpace, scale: int):
    """(index in A, eta) per degree-zero basis matrix X: eta = scale Re X[0][0],
    read off the integer basis over its denominator."""
    col = sp0.pos[(0, 0)] * sp0.alg.dim
    idx0 = A.by_degree()[0]
    D = sp0.space.denominator
    return [(idx0[k], Fraction(scale * u.get(col, 0), D)) for k, u in enumerate(sp0.space.basis)]


def build_hk(k_tag: str, name: str, p: int, q: int):
    """Hermitian-form algebra over C, C', H or H' with the two-step grading.

    The Cartan tag is None unless the coefficient algebra is split.
    """
    if k_tag not in ("C", "C'", "H", "H'"):
        raise BadParameters(f"coefficient algebra must be C, C', H or H', got {k_tag!r}")
    n = 2 * p + q
    if p < 1 or q < 0 or n < 3:
        raise BadParameters(f"need p >= 1, q >= 0 and 2p+q >= 3, got p={p}, q={q}")
    if n > BUILD_MAX_N:
        raise BadParameters(f"2p+q <= {BUILD_MAX_N} supported, got {n}")
    alg = algebra_by_tag(k_tag)
    d = alg.dim
    # involution: the first p indices pair with the last p, the middle q stay put
    sigma = [
        (n - 1 - i) if (i < p or i >= p + q) else i
        for i in range(n)
    ]
    weights = [1] + [0] * (n - 2) + [-1]
    spaces = _realize(alg, n, sigma, weights, trace_zero=(d == 2))

    low, ambient = _matrix_algebra(name, spaces, n * n - 1 if d == 2 else n * (2 * n + 1))
    m = low.negative_part(f"{name}.m")
    _require_fundamental(m, 2)
    _require_dims(m, {-1: d * (n - 2), -2: d - 1})

    # g pairs first-column blocks through the middle part of the form
    G = _gram(spaces[-1], [((i, 0), (sigma[i], 0)) for i in range(1, n - 1)], 1)
    g = SymBilinearForm.for_algebra(m, G)
    _check_covariance(low, G, _conformal_factors(low, spaces[0], -2))
    # the weight matrix itself must be a degree-zero solution
    spaces[0].coords({(i, i, 0): w for i, w in enumerate(weights)})

    cartan = None
    u = _split_unit(alg)
    if u is not None:
        elems = [{(i, i, 0): 1, (sigma[i], sigma[i], 0): -1} for i in range(p)]
        modes = [{(i, i, u): 1, (sigma[i], sigma[i], u): 1} for i in range(p)]
        modes += [{(i, i, u): 1} for i in range(p, p + q)]
        if d == 2:
            # the traceless combinations survive inside the realized algebra;
            # every mode is diagonal in component u, so its trace there is
            # the sum of its entries
            last = modes[-1]
            tl = sum(last.values())
            for M in modes[:-1]:
                tr = sum(M.values())
                elems.append({key: tl * M.get(key, 0) - tr * last.get(key, 0)
                              for key in M.keys() | last.keys()})
        else:
            elems += modes
        expected_rank = n - 1 if d == 2 else n
        require(len(elems) == expected_rank,
                f"{len(elems)} tagged diagonal elements, expected {expected_rank}")
        _certify_cartan(spaces, elems)
        cartan = len(elems)
    return m, g, ambient, cartan


def build_bi(name: str, l: int):
    """Odd orthogonal realization with the five-block, kind-three grading."""
    if l < 2:
        raise BadParameters(f"l >= 2 required, got {l}")
    if l > BUILD_MAX_L:
        raise BadParameters(f"l <= {BUILD_MAX_L} supported, got {l}")
    alg = real_algebra()
    n = 2 * l + 1
    sigma = [n - 1 - i for i in range(n)]
    weights = [2] + [1] * (l - 1) + [0] + [-1] * (l - 1) + [-2]
    spaces = _realize(alg, n, sigma, weights, trace_zero=False)

    low, ambient = _matrix_algebra(name, spaces, l * (2 * l + 1))
    m = low.negative_part(f"{name}.m")
    _require_fundamental(m, 3)
    _require_dims(m, {
        -1: 2 * (l - 1),
        -2: 1 + (l - 1) * (l - 2) // 2,
        -3: l - 1,
    })

    # g couples the first-column block with the middle-row block, symmetrized
    pairs = [((l, j), (j, 0)) for j in range(1, l)]
    G = _gram(spaces[-1], pairs + [(y, x) for x, y in pairs], -2)
    g = SymBilinearForm.for_algebra(m, G)
    _check_covariance(low, G, _conformal_factors(low, spaces[0], -1))
    spaces[0].coords({(i, i, 0): w for i, w in enumerate(weights)})

    elems = [{(i, i, 0): 1, (sigma[i], sigma[i], 0): -1} for i in range(l)]
    _certify_cartan(spaces, elems)
    return m, g, ambient, l


def build_octonionic(o_tag: str, name: str):
    """Octonionic model: degree -1 is the algebra, degree -2 its imaginary part.

    Only m and g are constructed; the ambient algebra is recovered by
    prolongation.  The bracket of two degree -1 elements is
    conj(x)y - conj(y)x, which is imaginary and, up to the scale fixed here,
    the only equivariant choice.
    """
    alg = algebra_by_tag(o_tag)
    table = alg.unit_table()
    labels = [f"x{t}" for t in range(8)] + [f"z{t}" for t in range(1, 8)]
    degrees = [-1] * 8 + [-2] * 7
    brackets = {}
    for i in range(8):
        for j in range(i + 1, 8):
            v: dict[int, int] = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):  # conj(e_a) e_b = s_a e_a e_b
                u, c = table[a][b]
                v[u] = v.get(u, 0) + sign * int(alg._conj[a]) * c
            require(not v.get(0), f"bracket of x{i}, x{j} has a real part")
            cell = {8 + k - 1: c for k, c in sorted(v.items()) if k and c}
            if cell:
                brackets[(i, j)] = cell
    m = GradedAlgebra(f"{name}.m", labels, degrees, brackets)
    _certify(m)
    _require_fundamental(m, 2)
    g = SymBilinearForm.for_algebra(m, norm_form(alg))
    _require_signature(g, (8, 0) if _split_unit(alg) is None else (4, 4))
    return m, g, None, None


def build_g2_example(name: str):
    """Rank-two exceptional model of kind five.

    Degree -1 pairs a lowering operator T with the top cubic monomial u0;
    T walks the monomials down, and complementary monomials close into the
    one-dimensional bottom layer through the invariant skew pairing omega,
    [u0, u3] = Z and [u1, u2] = -1/3 Z.  ``_certify`` fixes the second
    constant given the first: the Jacobiator of (T, u0, u2) is
    (3 omega(u1, u2) + omega(u0, u3)) Z.  ``_require_signature`` certifies
    the Gram matrix, and the derivation check the Cartan tag.
    """
    labels = ["T", "u0", "u1", "u2", "u3", "Z"]
    degrees = [-1, -1, -2, -3, -4, -5]
    brackets = {
        (0, 1): {2: Fraction(3)},  # [T, u0] = 3 u1
        (0, 2): {3: Fraction(2)},
        (0, 3): {4: Fraction(1)},
        (1, 4): {5: Fraction(1)},  # [u0, u3] = Z
        (2, 3): {5: Fraction(-1, 3)},  # [u1, u2] = -1/3 Z
    }
    m = GradedAlgebra(f"{name}.m", labels, degrees, brackets)
    _certify(m)
    _require_fundamental(m, 5)

    # cross pairing of T with u0 via the monomial inner product: (3 u1 | u1) = 3
    G = Mat([[ZERO, Fraction(3)], [Fraction(3), ZERO]])
    g = SymBilinearForm.for_algebra(m, G)
    _require_signature(g, (1, 1))

    # the weight operator and the grading operator span a split Cartan
    weight_diag = [Fraction(x) for x in (-2, 3, 1, -1, -3, 0)]
    grading_diag = [Fraction(d) for d in degrees]
    for diag in (weight_diag, grading_diag):
        for (i, j), cell in m.brackets.items():
            for k in cell:
                require(diag[k] == diag[i] + diag[j], "diagonal map is not a derivation")
    return m, g, None, 2


def _sl3():
    """sl(3, R) with the grading by the first diagonal weight, bracketed by
    the integer commutators of its basis matrices."""
    names = ["E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2"]
    units = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    mats = [{(i, j, 0): 1} for i, j in units]
    mats += [{(0, 0, 0): 1, (1, 1, 0): -1}, {(1, 1, 0): 1, (2, 2, 0): -1}]
    rows = [_by_row(X) for X in mats]
    table = real_algebra().unit_table()
    w = (1, 0, 0)
    degrees = [w[i] - w[j] for i, j in units] + [0, 0]
    brackets = {}
    for i in range(8):
        for j in range(i + 1, 8):
            comm = _commutator(rows[i], rows[j], table)
            M = [[comm.get((r, c, 0), 0) for c in range(3)] for r in range(3)]
            require(M[0][0] + M[1][1] + M[2][2] == 0, "sl(3) commutator is not traceless")
            a, b = M[0][0], -M[2][2]
            require(M[1][1] == -a + b, "sl(3) commutator leaves the diagonal basis")
            cell = {k: c for k, c in enumerate([M[r][c] for r, c in units] + [a, b]) if c}
            if cell:
                brackets[(i, j)] = cell
    return GradedAlgebra("sl3.a1", names, degrees, brackets)


def build_counterexample(name: str):
    """Semidirect product of graded sl(3, R) with a shifted copy of itself.

    The adjoint copy s(.) is abelian and placed two degrees below its home,
    making the negative part fundamental of kind three.  g pairs the genuine
    degree -1 part with the shifted one through the Killing form, a neutral
    pairing of two isotropic planes, g(x, s(y)) = B(x, y) = 6 tr(xy),
    certified by ``_require_signature`` and by the ``verify-table`` row.
    The prolongation of this m retains the shifted copy as a nilpotent
    ideal, so it cannot be semisimple, while the positive part of sl(3, R)
    survives in degree one.
    """
    L = _sl3()
    x_part = [2, 4]  # E21, E31
    s_order = [0, 1, 3, 5, 6, 7, 2, 4]  # E12, E13 | E23, E32, H1, H2 | E21, E31
    s_pos = {orig: 2 + k for k, orig in enumerate(s_order)}
    labels = [L.labels[i] for i in x_part]
    labels += [f"s({L.labels[i]})" for i in s_order]
    degrees = [-1, -1] + [L.degrees[i] - 2 for i in s_order]
    brackets = {}
    for a, xi in enumerate(x_part):
        require(not L.bracket_pair(xi, x_part[1]),
                "the degree -1 part of sl(3) is not abelian")
        for orig in s_order:
            cell = L.bracket_pair(xi, orig)
            mapped = {s_pos[k]: c for k, c in cell.items()}
            if mapped:
                brackets[(a, s_pos[orig])] = mapped
    m = GradedAlgebra(f"{name}.m", labels, degrees, brackets)
    _certify(m)
    _require_fundamental(m, 3)
    _require_dims(m, {-1: 4, -2: 4, -3: 2})

    # B(x, s(y)) = 6 tr(xy), the Killing form of sl(3), pairs E21 with E12
    # and E31 with E13
    G = Mat([[0, 0, 6, 0], [0, 0, 0, 6], [6, 0, 0, 0], [0, 6, 0, 0]])
    g = SymBilinearForm.for_algebra(m, G)
    _require_signature(g, (2, 2))
    return m, g, None, None


@dataclass
class Family:
    """One built family instance, ready for prolongation and reporting.

    m, g and the Cartan tag are built and certified by ``build``; the
    ambient is assembled and certified on its first read and then kept,
    since prolongation and analysis read only m and g."""

    tag: str
    params: dict
    m: GradedAlgebra
    g: SymBilinearForm
    make_ambient: Callable[[], GradedAlgebra] | None = None
    cartan: int | None = None

    @cached_property
    def ambient(self) -> GradedAlgebra | None:
        """The certified ambient graded algebra, or None without one."""
        return None if self.make_ambient is None else self.make_ambient()

    def oracle_key(self):
        """Root-oracle family name and parameters, or (None, {}) if none."""
        key = FAMILIES[self.tag].oracle
        return key, dict(self.params) if key else {}


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """One family: its tag, its name in the root oracle (None where the
    classification does not cover it), its parameters with their defaults
    (None: required), every supported parameter set, the ``verify-table``
    rows, and ``builder(name, **params) -> (m, g, ambient, cartan)``.  The
    builder certifies m, g and the Cartan tag before it returns; ambient is
    None or a zero-argument callable that assembles and certifies the
    ambient, which ``Family.ambient`` calls on first read."""

    tag: str
    oracle: str | None
    params: dict
    instances: tuple
    default_rows: tuple
    builder: Callable


MAX_N = 8  # the largest matrix size 2p+q of the hc and hh families in the table
MAX_L = 6  # the largest rank l of bi in the table
# what the builders accept: the top of the scale ladder past the table
# (C24 at hh(1,22)), a bound that refuses a huge parameter at once
BUILD_MAX_N = 24
BUILD_MAX_L = 12

_PQ = {"p": None, "q": 0}
_PQ_RANGE = tuple(
    {"p": p, "q": q}
    for p in range(1, MAX_N // 2 + 1)
    for q in range(max(0, 3 - 2 * p), MAX_N - 2 * p + 1)
)
_L_RANGE = tuple({"l": l} for l in range(2, MAX_L + 1))
_NO_PARAMS = ({},)


def _pq(*pairs) -> tuple:
    return tuple({"p": p, "q": q} for p, q in pairs)


# default_rows: every family at its smallest valid parameters, plus one
# non-minimal instance per parameterized family
FAMILIES = {spec.tag: spec for spec in (
    FamilySpec("hc", "HC", _PQ, _PQ_RANGE, _pq((1, 1), (2, 1)), partial(build_hk, "C")),
    FamilySpec("hc-split", "HC'", _PQ, _PQ_RANGE, _pq((1, 1), (2, 1)), partial(build_hk, "C'")),
    FamilySpec("hh", "HH", _PQ, _PQ_RANGE, _pq((1, 1), (1, 2)), partial(build_hk, "H")),
    FamilySpec("hh-split", "HH'", _PQ, _PQ_RANGE, _pq((1, 1), (1, 2)), partial(build_hk, "H'")),
    FamilySpec("bi", "BI", {"l": None}, _L_RANGE, _L_RANGE[:2], build_bi),
    FamilySpec("ho", "HO", {}, _NO_PARAMS, _NO_PARAMS, partial(build_octonionic, "O")),
    FamilySpec("ho-split", "HO'", {}, _NO_PARAMS, _NO_PARAMS, partial(build_octonionic, "O'")),
    FamilySpec("g2", "G", {}, _NO_PARAMS, _NO_PARAMS, build_g2_example),
    FamilySpec("counterexample", None, {}, _NO_PARAMS, _NO_PARAMS, build_counterexample),
)}


def label(name: str, params: dict) -> str:
    """``name(k=v,...)`` with the keys sorted, or the bare name."""
    if not params:
        return name
    return f"{name}({','.join(f'{k}={params[k]}' for k in sorted(params))})"


def oracle_instances() -> list[tuple[str, str, dict]]:
    """(label, oracle key, params) of every supported instance the oracle
    covers, in table order: parameter sets in registry order, and at each
    set every family that takes it, so the hc/hh families interleave at each
    (p, q).  ``analysis.match_table_row`` joins ties in this order."""
    specs = [spec for spec in FAMILIES.values() if spec.oracle]
    order: list[dict] = []
    for spec in specs:
        order += [params for params in spec.instances if params not in order]
    return [
        (label(spec.oracle, params), spec.oracle, params)
        for params in order
        for spec in specs
        if params in spec.instances
    ]


def build(tag: str, **params) -> Family:
    """Uniform entry point keyed by the command-line family tags.  A Cartan
    tag must respect the split-rank bound min(r, s) + 1 of the form's
    signature (r, s); GlapError otherwise."""
    spec = FAMILIES.get(tag)
    if spec is None:
        raise BadParameters(f"unknown family tag {tag!r} (expected one of {tuple(FAMILIES)})")
    extra = sorted(set(params) - set(spec.params))
    if extra:
        raise BadParameters(f"{tag} takes {', '.join(spec.params) or 'no parameters'}, got {extra}")
    values = {k: params.get(k, default) for k, default in spec.params.items()}
    if None in values.values():
        usage = " ".join(f"--{k}" if d is None else f"[--{k}]" for k, d in spec.params.items())
        raise BadParameters(f"{tag} requires {usage}")
    values = {k: int(v) for k, v in values.items()}
    name = label(tag, values)
    m, g, ambient, cartan = spec.builder(name, **values)
    if cartan is not None:
        # a maximal R-diagonalizable subalgebra through E has dimension at
        # most min(r, s) + 1
        bound = min(g.signature()) + 1
        require(cartan <= bound,
                f"{name}: split Cartan tag of dimension {cartan} exceeds "
                f"the rank bound min(r, s) + 1 = {bound}")
    return Family(tag, values, m, g, ambient, cartan)
