"""Builders for the classified families of conformal fundamental graded algebras.

The classical families live inside matrices over a composition algebra: the
defining reflection equation is solved degree by degree in exact arithmetic,
and the resulting basis matrices are multiplied out to honest structure
constants.  The two octonionic models and the exceptional rank-two model are
assembled directly from representation data, and a semidirect-product example
with a non-semisimple prolongation rounds out the list.

Every builder hands back the fundamental algebra m together with a
representative g of the conformal class; where the matrix picture exists the
ambient graded algebra and a verified diagonal Cartan tag come along too.
"""

from dataclasses import dataclass
from fractions import Fraction

from .analysis import killing_form
from .composition import (
    CAElement,
    CompositionAlgebra,
    algebra_by_tag,
    norm_form,
    real_algebra,
)
from .errors import BadParameters, GlapError
from .gla import GradedAlgebra, SymBilinearForm, check_fundamental, check_gla
from .linalg import Echelon, Mat, sparse_kernel

ZERO = Fraction(0)
ONE = Fraction(1)


def _zero_elem(alg: CompositionAlgebra) -> CAElement:
    return alg.element([ZERO] * alg.dim)


class KMat:
    """Sparse square matrix over a composition algebra."""

    __slots__ = ("alg", "n", "cells")

    def __init__(self, alg, n, cells=None):
        self.alg = alg
        self.n = n
        self.cells = {}
        if cells:
            for key, val in cells.items():
                if not val.is_zero():
                    self.cells[key] = val

    def entry(self, i: int, j: int) -> CAElement:
        v = self.cells.get((i, j))
        return v if v is not None else _zero_elem(self.alg)

    def __add__(self, other: "KMat") -> "KMat":
        assert self.alg is other.alg and self.n == other.n
        out = dict(self.cells)
        for key, val in other.cells.items():
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
        return KMat(self.alg, self.n, out)

    def __sub__(self, other: "KMat") -> "KMat":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "KMat":
        c = Fraction(c)
        return KMat(self.alg, self.n, {k: v.scale(c) for k, v in self.cells.items()})

    def __mul__(self, other: "KMat") -> "KMat":
        assert self.alg is other.alg and self.n == other.n
        by_row: dict[int, list] = {}
        for (k, j), y in other.cells.items():
            by_row.setdefault(k, []).append((j, y))
        acc: dict[tuple[int, int], CAElement] = {}
        for (i, k), x in self.cells.items():
            for j, y in by_row.get(k, ()):
                prod = x * y
                cur = acc.get((i, j))
                acc[(i, j)] = prod if cur is None else cur + prod
        return KMat(self.alg, self.n, acc)

    def commutator(self, other: "KMat") -> "KMat":
        return self * other - other * self

    def trace(self) -> CAElement:
        acc = _zero_elem(self.alg)
        for (i, j), v in self.cells.items():
            if i == j:
                acc = acc + v
        return acc

    def is_zero(self) -> bool:
        return not self.cells


class _DegreeSpace:
    """Solution space of the defining equations within one matrix degree.

    Local coordinates run over (cell index, coefficient component); the
    canonical kernel basis of the constraint rows is kept as a ``Subspace``
    so membership is certified by exact reconstruction.
    """

    def __init__(self, alg, n, cells, rows):
        self.alg = alg
        self.n = n
        self.cells = list(cells)
        self.pos = {c: k for k, c in enumerate(self.cells)}
        ech = Echelon(len(self.cells) * alg.dim)
        for row in rows:
            ech.add(row)
        self.space = ech.kernel_space("the solutions of the defining equations")

    def dim(self) -> int:
        return len(self.space)

    def matrix(self, k: int) -> KMat:
        d = self.alg.dim
        vec = self.space.vectors[k]
        cells = {}
        for idx in sorted({i // d for i in vec}):
            coords = [vec.get(idx * d + t, ZERO) for t in range(d)]
            cells[self.cells[idx]] = self.alg.element(coords)
        return KMat(self.alg, self.n, cells)

    def coords(self, M: KMat) -> list[Fraction]:
        d = self.alg.dim
        local = {}
        for (i, j), v in M.cells.items():
            idx = self.pos.get((i, j))
            if idx is None:
                raise GlapError(f"matrix entry at {(i, j)} escapes the degree block")
            for t, c in enumerate(v.coords):
                if c:
                    local[idx * d + t] = c
        return self.space.coords(local, "matrix")


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
    signs = [alg.basis_element(t).conjugate().coords[t] for t in range(d)]
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
                row: dict[int, Fraction] = {}
                k1, k2 = c1 * d + t, c2 * d + t
                row[k1] = row.get(k1, ZERO) + signs[t]
                row[k2] = row.get(k2, ZERO) + ONE
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows_by_degree[delta].append(row)
    if trace_zero:
        pos0 = pos_by_degree[0]
        for t in range(d):
            rows_by_degree[0].append(
                {pos0[(i, i)] * d + t: ONE for i in range(n)}
            )
    return {
        delta: _DegreeSpace(alg, n, degree_cells[delta], rows_by_degree[delta])
        for delta in degree_cells
    }


def _assemble(name, spaces) -> GradedAlgebra:
    """Structure constants of the realized algebra via matrix commutators."""
    degrees_sorted = sorted(d for d in spaces if spaces[d].dim() > 0)
    basis: list[tuple[int, KMat]] = []
    labels, degs = [], []
    offset = {}
    for delta in degrees_sorted:
        offset[delta] = len(basis)
        for k in range(spaces[delta].dim()):
            basis.append((delta, spaces[delta].matrix(k)))
            labels.append(f"g{delta}_{k}")
            degs.append(delta)
    brackets = {}
    for i in range(len(basis)):
        di, Xi = basis[i]
        for j in range(i + 1, len(basis)):
            dj, Xj = basis[j]
            Z = Xi.commutator(Xj)
            if Z.is_zero():
                continue
            sp = spaces.get(di + dj)
            if sp is None:
                raise GlapError(
                    f"commutator escapes the graded support at degree {di + dj}"
                )
            coords = sp.coords(Z)
            cell = {offset[di + dj] + k: c for k, c in enumerate(coords) if c}
            if cell:
                brackets[(i, j)] = cell
    return GradedAlgebra(name, labels, degs, brackets)


def _split_unit(alg: CompositionAlgebra):
    """Index of an imaginary basis unit squaring to +1, if any."""
    for t in range(1, alg.dim):
        e = alg.basis_element(t)
        if e * e == alg.one:
            return t
    return None


@dataclass
class CartanTag:
    """A verified abelian, diagonalizable subspace marking the split rank.

    ``vectors`` holds coordinates in the ambient algebra's basis when an
    ambient algebra exists; the rank-two exceptional model keeps only the
    dimension since its ambient object is produced by prolongation.
    """

    dim: int
    note: str
    vectors: list | None = None


def _check_covariance(A: GradedAlgebra, G: Mat, eta_by_index):
    """Assert the degree-zero action scales g by the predicted factor."""
    for idx, eta in eta_by_index:
        M = A.restriction_matrix(idx, -1)
        lhs = M.transpose() * G + G * M
        assert lhs == G * eta, f"conformal factor mismatch at {A.labels[idx]}"


def _cartan_vectors(A: GradedAlgebra, spaces, elems):
    """Ambient coordinates for degree-zero matrices, membership certified."""
    idx0 = A.by_degree()[0]
    vectors = []
    ech = Echelon(len(idx0))
    for M in elems:
        local = spaces[0].coords(M)
        grew = ech.add({k: c for k, c in enumerate(local) if c})
        assert grew, "tagged diagonal elements are dependent"
        vec = [ZERO] * A.n
        for k, c in enumerate(local):
            vec[idx0[k]] = c
        vectors.append(vec)
    for a in range(len(elems)):
        for b in range(a + 1, len(elems)):
            assert elems[a].commutator(elems[b]).is_zero()
    return vectors


def build_hk(k_tag: str, p: int, q: int):
    """Hermitian-form algebra over C, C', H or H' with the two-step grading.

    Returns (m, g, ambient, cartan_tag); cartan_tag is None unless the
    coefficient algebra is split.
    """
    if k_tag not in ("C", "C'", "H", "H'"):
        raise BadParameters(f"coefficient algebra must be C, C', H or H', got {k_tag!r}")
    p, q = int(p), int(q)
    n = 2 * p + q
    if p < 1 or q < 0 or n < 3:
        raise BadParameters(f"need p >= 1, q >= 0 and 2p+q >= 3, got p={p}, q={q}")
    if n > 8:
        raise BadParameters(f"2p+q <= 8 supported, got {n}")
    alg = algebra_by_tag(k_tag)
    d = alg.dim
    # involution: the first p indices pair with the last p, the middle q stay put
    sigma = [
        (n - 1 - i) if (i < p or i >= p + q) else i
        for i in range(n)
    ]
    weights = [1] + [0] * (n - 2) + [-1]
    spaces = _realize(alg, n, sigma, weights, trace_zero=(d == 2))

    tag = {"C": "hc", "C'": "hc-split", "H": "hh", "H'": "hh-split"}[k_tag]
    name = f"{tag}(p={p},q={q})"
    ambient = _assemble(name, spaces)
    expected_total = n * n - 1 if d == 2 else n * (2 * n + 1)
    assert ambient.n == expected_total
    res = check_gla(ambient)
    assert res["grading_ok"] and res["jacobi_ok"], res["violations"]

    m = ambient.negative_part(f"{name}.m")
    fundamental, kind = check_fundamental(m)
    assert fundamental and kind == 2
    assert m.dims_by_degree() == {-1: d * (n - 2), -2: d - 1}

    # g pairs first-column blocks through the middle part of the form
    sp1 = spaces[-1]
    mid = range(1, n - 1)
    k1 = sp1.dim()
    mats1 = [sp1.matrix(k) for k in range(k1)]
    G = Mat.zeros(k1, k1)
    for a in range(k1):
        for b in range(k1):
            acc = ZERO
            for i in mid:
                prod = mats1[a].entry(i, 0).conjugate() * mats1[b].entry(sigma[i], 0)
                acc += prod.coords[0]
            G[a, b] = acc
    g = SymBilinearForm.for_algebra(m, G)

    idx0 = ambient.by_degree()[0]
    eta_by_index = []
    for k in range(spaces[0].dim()):
        corner = spaces[0].matrix(k).entry(0, 0)
        eta_by_index.append((idx0[k], Fraction(-2) * corner.coords[0]))
    _check_covariance(ambient, G, eta_by_index)
    # the weight matrix itself must be a degree-zero solution
    E = KMat(alg, n, {(i, i): alg.one.scale(w) for i, w in enumerate(weights) if w})
    spaces[0].coords(E)

    cartan = None
    u = _split_unit(alg)
    if u is not None:
        e_u = alg.basis_element(u)
        elems = [
            KMat(alg, n, {(i, i): alg.one, (sigma[i], sigma[i]): -alg.one})
            for i in range(p)
        ]
        modes = [
            KMat(alg, n, {(i, i): e_u, (sigma[i], sigma[i]): e_u})
            for i in range(p)
        ]
        modes += [KMat(alg, n, {(i, i): e_u}) for i in range(p, p + q)]
        if d == 2:
            # the traceless combinations survive inside the realized algebra
            last = modes[-1]
            tl = last.trace().coords[u]
            for M in modes[:-1]:
                elems.append(M.scale(tl) - last.scale(M.trace().coords[u]))
        else:
            elems += modes
        expected_rank = n - 1 if d == 2 else n
        assert len(elems) == expected_rank
        vectors = _cartan_vectors(ambient, spaces, elems)
        cartan = CartanTag(
            dim=len(elems),
            note="diagonal matrices over the split coefficient algebra",
            vectors=vectors,
        )
    return m, g, ambient, cartan


def build_bi(l: int):
    """Odd orthogonal realization with the five-block, kind-three grading."""
    l = int(l)
    if l < 2:
        raise BadParameters(f"l >= 2 required, got {l}")
    if l > 6:
        raise BadParameters(f"l <= 6 supported, got {l}")
    alg = real_algebra()
    n = 2 * l + 1
    sigma = [n - 1 - i for i in range(n)]
    weights = [2] + [1] * (l - 1) + [0] + [-1] * (l - 1) + [-2]
    spaces = _realize(alg, n, sigma, weights, trace_zero=False)

    name = f"bi(l={l})"
    ambient = _assemble(name, spaces)
    assert ambient.n == l * (2 * l + 1)
    res = check_gla(ambient)
    assert res["grading_ok"] and res["jacobi_ok"], res["violations"]

    m = ambient.negative_part(f"{name}.m")
    fundamental, kind = check_fundamental(m)
    assert fundamental and kind == 3
    assert m.dims_by_degree() == {
        -1: 2 * (l - 1),
        -2: 1 + (l - 1) * (l - 2) // 2,
        -3: l - 1,
    }

    # g couples the first-column block with the middle-row block
    sp1 = spaces[-1]
    k1 = sp1.dim()
    mats1 = [sp1.matrix(k) for k in range(k1)]
    half = Fraction(-1, 2)
    G = Mat.zeros(k1, k1)
    for a in range(k1):
        for b in range(k1):
            acc = ZERO
            for j in range(1, l):
                acc += mats1[a].entry(l, j).coords[0] * mats1[b].entry(j, 0).coords[0]
                acc += mats1[b].entry(l, j).coords[0] * mats1[a].entry(j, 0).coords[0]
            G[a, b] = half * acc
    g = SymBilinearForm.for_algebra(m, G)

    idx0 = ambient.by_degree()[0]
    eta_by_index = []
    for k in range(spaces[0].dim()):
        corner = spaces[0].matrix(k).entry(0, 0)
        eta_by_index.append((idx0[k], -corner.coords[0]))
    _check_covariance(ambient, G, eta_by_index)
    E = KMat(alg, n, {(i, i): alg.one.scale(w) for i, w in enumerate(weights) if w})
    spaces[0].coords(E)

    elems = [
        KMat(alg, n, {(i, i): alg.one, (sigma[i], sigma[i]): -alg.one})
        for i in range(l)
    ]
    vectors = _cartan_vectors(ambient, spaces, elems)
    cartan = CartanTag(dim=l, note="real diagonal matrices", vectors=vectors)
    return m, g, ambient, cartan


def build_octonionic(split: bool):
    """Octonionic model: degree -1 is the algebra, degree -2 its imaginary part.

    Only m and g are constructed; the ambient algebra is recovered by
    prolongation.  The bracket of two degree -1 elements is
    conj(x)y - conj(y)x, which is imaginary and, up to the scale fixed here,
    the only equivariant choice.
    """
    alg = algebra_by_tag("O'" if split else "O")
    tag = "ho-split" if split else "ho"
    labels = [f"x{t}" for t in range(8)] + [f"z{t}" for t in range(1, 8)]
    degrees = [-1] * 8 + [-2] * 7
    brackets = {}
    for i in range(8):
        ei_bar = alg.basis_element(i).conjugate()
        for j in range(i + 1, 8):
            ej = alg.basis_element(j)
            v = ei_bar * ej - alg.basis_element(j).conjugate() * alg.basis_element(i)
            assert v.re() == 0
            cell = {8 + k - 1: c for k, c in enumerate(v.coords) if k >= 1 and c}
            if cell:
                brackets[(i, j)] = cell
    m = GradedAlgebra(f"{tag}.m", labels, degrees, brackets)
    res = check_gla(m)
    assert res["grading_ok"] and res["jacobi_ok"], res["violations"]
    fundamental, kind = check_fundamental(m)
    assert fundamental and kind == 2
    g = SymBilinearForm.for_algebra(m, norm_form(alg))
    assert g.signature() == ((4, 4) if split else (8, 0))
    return m, g


def _symplectic_pairing() -> dict[tuple[int, int], Fraction]:
    """Invariant skew pairing on the four-dimensional irreducible sl2-space.

    Solved from invariance under the lowering, raising and weight operators
    on the cubic monomial basis; the kernel is one-dimensional and gets
    normalized on the outermost pair.
    """
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    pidx = {pr: k for k, pr in enumerate(pairs)}

    def w(a, b):
        # signed unknown index for omega(u_a, u_b)
        if a == b:
            return None
        if a < b:
            return pidx[(a, b)], ONE
        return pidx[(b, a)], -ONE

    ops = []
    low = Mat.zeros(4, 4)
    for k in range(3):
        low[k + 1, k] = Fraction(3 - k)
    ops.append(low)
    high = Mat.zeros(4, 4)
    for k in range(1, 4):
        high[k - 1, k] = Fraction(k)
    ops.append(high)
    ops.append(Mat.diag([Fraction(3 - 2 * k) for k in range(4)]))

    rows = []
    for M in ops:
        for a, b in pairs:
            row: dict[int, Fraction] = {}
            for k in range(4):
                if M[k, a]:
                    hit = w(k, b)
                    if hit:
                        col, s = hit
                        row[col] = row.get(col, ZERO) + s * M[k, a]
                if M[k, b]:
                    hit = w(a, k)
                    if hit:
                        col, s = hit
                        row[col] = row.get(col, ZERO) + s * M[k, b]
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    kernel = sparse_kernel(rows, len(pairs))
    assert len(kernel) == 1, "invariant pairing should be unique up to scale"
    vec = kernel[0]
    scale = vec[pidx[(0, 3)]]
    assert scale != 0
    vec = [c / scale for c in vec]
    return {pr: vec[k] for k, pr in enumerate(pairs)}


def build_g2_example():
    """Rank-two exceptional model of kind five.

    Degree -1 pairs a lowering operator T with the top cubic monomial u0;
    T walks the monomials down, and complementary monomials close into the
    one-dimensional bottom layer through the invariant skew pairing.
    """
    omega = _symplectic_pairing()
    assert omega[(1, 2)] == Fraction(-1, 3)
    labels = ["T", "u0", "u1", "u2", "u3", "Z"]
    degrees = [-1, -1, -2, -3, -4, -5]
    brackets = {
        (0, 1): {2: Fraction(3)},  # [T, u0] = 3 u1
        (0, 2): {3: Fraction(2)},
        (0, 3): {4: Fraction(1)},
        (1, 4): {5: omega[(0, 3)]},
        (2, 3): {5: omega[(1, 2)]},
    }
    m = GradedAlgebra("g2.m", labels, degrees, brackets)
    res = check_gla(m)
    assert res["grading_ok"] and res["jacobi_ok"], res["violations"]
    fundamental, kind = check_fundamental(m)
    assert fundamental and kind == 5

    # cross pairing of T with u0 via the monomial inner product: (3 u1 | u1) = 3
    G = Mat([[ZERO, Fraction(3)], [Fraction(3), ZERO]])
    g = SymBilinearForm.for_algebra(m, G)
    assert g.signature() == (1, 1)

    # the weight operator and the grading operator span a split Cartan
    weight_diag = [Fraction(x) for x in (-2, 3, 1, -1, -3, 0)]
    grading_diag = [Fraction(d) for d in degrees]
    for diag in (weight_diag, grading_diag):
        for (i, j), cell in m.brackets.items():
            for k in cell:
                assert diag[k] == diag[i] + diag[j], "diagonal map is not a derivation"
    cartan = CartanTag(
        dim=2,
        note="weight and grading derivations of m (diagonal on the basis)",
    )
    return m, g, cartan


def _sl3():
    """sl(3, R) with the grading by the first diagonal weight."""
    names = ["E12", "E13", "E21", "E23", "E31", "E32", "H1", "H2"]
    units = {
        "E12": (0, 1),
        "E13": (0, 2),
        "E21": (1, 0),
        "E23": (1, 2),
        "E31": (2, 0),
        "E32": (2, 1),
    }

    def matrix(name):
        M = [[ZERO] * 3 for _ in range(3)]
        if name in units:
            i, j = units[name]
            M[i][j] = ONE
        elif name == "H1":
            M[0][0], M[1][1] = ONE, -ONE
        else:
            M[1][1], M[2][2] = ONE, -ONE
        return M

    def mult(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]

    def coords(M):
        assert M[0][0] + M[1][1] + M[2][2] == 0
        out = [M[0][1], M[0][2], M[1][0], M[1][2], M[2][0], M[2][1]]
        a, b = M[0][0], -M[2][2]
        assert M[1][1] == -a + b
        return out + [a, b]

    mats = [matrix(nm) for nm in names]
    w = (1, 0, 0)
    degrees = [w[i] - w[j] for i, j in (units[nm] for nm in names[:6])] + [0, 0]
    brackets = {}
    for i in range(8):
        for j in range(i + 1, 8):
            C = mult(mats[i], mats[j])
            D = mult(mats[j], mats[i])
            comm = [[C[r][c] - D[r][c] for c in range(3)] for r in range(3)]
            cell = {k: c for k, c in enumerate(coords(comm)) if c}
            if cell:
                brackets[(i, j)] = cell
    return GradedAlgebra("sl3.a1", names, degrees, brackets)


def build_counterexample():
    """Semidirect product of graded sl(3, R) with a shifted copy of itself.

    The adjoint copy s(.) is abelian and placed two degrees below its home,
    making the negative part fundamental of kind three.  g pairs the genuine
    degree -1 part with the shifted one through the Killing form, a neutral
    pairing of two isotropic planes.  The prolongation of this m retains the
    shifted copy as a nilpotent ideal, so it cannot be semisimple, while the
    positive part of sl(3, R) survives in degree one.
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
        assert not L.bracket_pair(xi, x_part[1])
        for orig in s_order:
            cell = L.bracket_pair(xi, orig)
            mapped = {s_pos[k]: c for k, c in cell.items()}
            if mapped:
                brackets[(a, s_pos[orig])] = mapped
    m = GradedAlgebra("counterexample.m", labels, degrees, brackets)
    res = check_gla(m)
    assert res["grading_ok"] and res["jacobi_ok"], res["violations"]
    fundamental, kind = check_fundamental(m)
    assert fundamental and kind == 3
    assert m.dims_by_degree() == {-1: 4, -2: 4, -3: 2}

    B = killing_form(L)
    G = Mat.zeros(4, 4)
    for a, xi in enumerate(x_part):
        for b, orig in enumerate(s_order[:2]):
            G[a, 2 + b] = B[xi, orig]
            G[2 + b, a] = B[xi, orig]
    g = SymBilinearForm.for_algebra(m, G)
    assert g.signature() == (2, 2)
    return m, g


@dataclass
class Family:
    """One built family instance, ready for prolongation and reporting."""

    tag: str
    params: dict
    m: GradedAlgebra
    g: SymBilinearForm
    ambient: GradedAlgebra | None = None
    cartan: CartanTag | None = None

    def oracle_key(self):
        """Root-oracle family name and parameters, or (None, {}) if none."""
        mapping = {
            "hc": "HC",
            "hc-split": "HC'",
            "hh": "HH",
            "hh-split": "HH'",
            "ho": "HO",
            "ho-split": "HO'",
            "bi": "BI",
            "g2": "G",
        }
        key = mapping.get(self.tag)
        return key, dict(self.params) if key else {}


HK_TAGS = {"hc": "C", "hc-split": "C'", "hh": "H", "hh-split": "H'"}
FAMILY_TAGS = tuple(HK_TAGS) + ("ho", "ho-split", "bi", "g2", "counterexample")


def build(tag: str, **params) -> Family:
    """Uniform entry point keyed by the command-line family tags."""
    extra = dict(params)
    if tag in HK_TAGS:
        p = extra.pop("p", None)
        q = extra.pop("q", 0)
        if p is None:
            raise BadParameters(f"{tag} requires --p (and optional --q)")
        if extra:
            raise BadParameters(f"unknown parameters for {tag}: {sorted(extra)}")
        m, g, ambient, cartan = build_hk(HK_TAGS[tag], p, q)
        return Family(tag, {"p": int(p), "q": int(q)}, m, g, ambient, cartan)
    if tag == "bi":
        l = extra.pop("l", None)
        if l is None:
            raise BadParameters("bi requires --l")
        if extra:
            raise BadParameters(f"unknown parameters for bi: {sorted(extra)}")
        m, g, ambient, cartan = build_bi(l)
        return Family(tag, {"l": int(l)}, m, g, ambient, cartan)
    if tag not in FAMILY_TAGS:
        raise BadParameters(f"unknown family tag {tag!r} (expected one of {FAMILY_TAGS})")
    if extra:
        raise BadParameters(f"{tag} takes no parameters, got {sorted(extra)}")
    if tag in ("ho", "ho-split"):
        m, g = build_octonionic(split=(tag == "ho-split"))
        return Family(tag, {}, m, g)
    if tag == "g2":
        m, g, cartan = build_g2_example()
        return Family(tag, {}, m, g, cartan=cartan)
    m, g = build_counterexample()
    return Family(tag, {}, m, g)
