"""Graded Lie algebras with exact rational structure constants.

A ``GradedAlgebra`` is a basis-indexed object: ``labels[i]`` names basis
element i, ``degrees[i]`` is its integer degree, and the bracket tensor is
stored sparsely as ``{(i, j): {k: c}}`` for i < j, meaning

    [e_i, e_j] = sum_k c * e_k.

Brackets with i > j follow by antisymmetry and [e_i, e_i] = 0.  Nothing in
this module assumes the Jacobi identity; ``check_gla`` verifies it (and the
additivity of degrees) exhaustively, and the builders elsewhere run that
check on everything they produce.

The Jacobi sweep runs in integers and still certifies every triple.  With
every structure constant scaled by L, the lcm of their denominators, each
Jacobi term (a product of two constants) and so each residual is exactly
L**2 times the rational one.  And every term contains one of the three
pair brackets of its triple, so a triple whose three pair brackets vanish
is zero without being evaluated.

The JSON layout round-trips losslessly because rationals are serialized as
"p/q" strings (just "p" when q = 1).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    NonNegativeDegreePresent,
    NotSymmetric,
    ParseError,
    require,
)
from .linalg import Echelon, Mat


def format_rational(x: Fraction) -> str:
    return str(x)  # Fraction.__str__ is exactly the "p/q" / "p" layout


def parse_rational(s: str | int, where: str = "") -> Fraction:
    """A rational from JSON: an integer or a "p/q" string.  Floats (and
    booleans) are refused rather than converted, because a JSON float is
    already rounded to binary."""
    at = f" at {where}" if where else ""
    if isinstance(s, (float, bool)):
        raise ParseError(f"bad rational {s!r}{at}: use an integer or a \"p/q\" string")
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r}{at}") from e


class GradedAlgebra:
    def __init__(self, name, labels, degrees, brackets):
        """brackets: {(i, j): {k: Fraction}} with i < j; zero coefficients
        and empty cells may be omitted."""
        self.name = name
        self.labels = list(labels)
        self.degrees = [int(d) for d in degrees]
        if len(self.labels) != len(self.degrees):
            raise DimensionMismatch(
                f"{len(self.labels)} labels vs {len(self.degrees)} degrees"
            )
        n = len(self.labels)
        self.brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), cell in brackets.items():
            if not (0 <= i < j < n):
                raise DimensionMismatch(f"bad bracket key ({i}, {j}) for dim {n}")
            clean = {}
            for k, c in cell.items():
                c = Fraction(c)
                if c == 0:
                    continue
                if not 0 <= int(k) < n:
                    raise DimensionMismatch(f"bracket ({i},{j}) hits index {k}")
                clean[int(k)] = c
            if clean:
                self.brackets[(i, j)] = clean
        self._by_degree: dict[int, list[int]] | None = None

    @property
    def n(self) -> int:
        return len(self.labels)

    def by_degree(self) -> dict[int, list[int]]:
        if self._by_degree is None:
            out: dict[int, list[int]] = {}
            for i, d in enumerate(self.degrees):
                out.setdefault(d, []).append(i)
            self._by_degree = out
        return self._by_degree

    def dims_by_degree(self) -> dict[int, int]:
        return {d: len(ix) for d, ix in sorted(self.by_degree().items())}

    def bracket_pair(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as a sparse vector (fresh dict)."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        cell = self.brackets.get((j, i), {})
        return {k: -c for k, c in cell.items()}

    def bracket_eval(self, x, y):
        """[x, y] for dense coefficient vectors x, y."""
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch(
                f"vectors of length {len(x)}, {len(y)} in algebra of dim {self.n}"
            )
        out = [Fraction(0)] * self.n
        for i, a in enumerate(x):
            if a == 0:
                continue
            for j, b in enumerate(y):
                if b == 0 or i == j:
                    continue
                cell = self.brackets.get((i, j)) if i < j else None
                if i < j:
                    if not cell:
                        continue
                    for k, c in cell.items():
                        out[k] += a * b * c
                else:
                    cell = self.brackets.get((j, i))
                    if not cell:
                        continue
                    for k, c in cell.items():
                        out[k] -= a * b * c
        return out

    def sparse_ad(self, i: int) -> dict[int, dict[int, Fraction]]:
        """ad(e_i) column by column: maps j -> {k: c} with [e_i, e_j] = sum c e_k."""
        out = {}
        for j in range(self.n):
            cell = self.bracket_pair(i, j)
            if cell:
                out[j] = cell
        return out

    def restriction_matrix(self, i: int, src_degree: int) -> Mat:
        """Matrix of ad(e_i) restricted to one homogeneous piece, written in
        the bases of the source and target degrees."""
        src = self.by_degree().get(src_degree, [])
        tgt_degree = src_degree + self.degrees[i]
        tgt = self.by_degree().get(tgt_degree, [])
        pos = {g: r for r, g in enumerate(tgt)}
        M = Mat.zeros(len(tgt), len(src))
        for col, j in enumerate(src):
            for k, c in self.bracket_pair(i, j).items():
                M.a[pos[k]][col] = c
        return M

    def negative_part(self, name=None) -> "GradedAlgebra":
        """The subalgebra spanned by the negative degrees, reindexed."""
        keep = [i for i, d in enumerate(self.degrees) if d < 0]
        old_to_new = {g: t for t, g in enumerate(keep)}
        brackets = {}
        for (i, j), cell in self.brackets.items():
            if i in old_to_new and j in old_to_new:
                brackets[(old_to_new[i], old_to_new[j])] = {
                    old_to_new[k]: c for k, c in cell.items()
                }
        return GradedAlgebra(
            name or f"{self.name}/neg",
            [self.labels[i] for i in keep],
            [self.degrees[i] for i in keep],
            brackets,
        )

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        rows = []
        for (i, j) in sorted(self.brackets):
            cell = self.brackets[(i, j)]
            rows.append([i, j, [[k, format_rational(c)] for k, c in sorted(cell.items())]])
        return {
            "name": self.name,
            "labels": self.labels,
            "degrees": self.degrees,
            "brackets": rows,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GradedAlgebra":
        for key in ("name", "labels", "degrees", "brackets"):
            if key not in d:
                raise ParseError(f"missing key {key!r} in algebra object")
        labels = d["labels"]
        degrees = d["degrees"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError("'labels' must be a list of strings")
        if not isinstance(degrees, list) or not all(_is_json_int(x) for x in degrees):
            raise ParseError("'degrees' must be a list of integers")
        if not isinstance(d["brackets"], list):
            raise ParseError("'brackets' must be a list of [i, j, terms] rows")
        brackets = {}
        for idx, row in enumerate(d["brackets"]):
            where = f"brackets[{idx}]"
            if not (isinstance(row, list) and len(row) == 3):
                raise ParseError(f"{where}: expected [i, j, terms]")
            i, j, terms = row
            if not (_is_json_int(i) and _is_json_int(j) and i < j):
                raise ParseError(f"{where}: indices must be integers with i < j")
            if not isinstance(terms, list):
                raise ParseError(f"{where}: terms must be a list of [k, rational]")
            cell = {}
            for t, term in enumerate(terms):
                if not (isinstance(term, list) and len(term) == 2 and _is_json_int(term[0])):
                    raise ParseError(f"{where} term {t}: expected [k, rational]")
                k, c = term
                cell[k] = parse_rational(c, f"{where} term {t}")
            brackets[(i, j)] = cell
        try:
            return cls(d["name"], labels, degrees, brackets)
        except DimensionMismatch as e:
            raise ParseError(str(e)) from e

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)


def _is_json_int(x) -> bool:
    """A JSON integer; Python counts booleans as ints, JSON does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def deserialize(text: str) -> GradedAlgebra:
    return GradedAlgebra.from_json_dict(_load_json(text))


def _load_json(text: str) -> dict:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(d, dict):
        raise ParseError("top-level JSON value must be an object")
    return d


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def _scaled_adjacency(A: GradedAlgebra) -> tuple[int, list[dict[int, dict[int, int]]]]:
    """(L, ad) with ad[i][j] = {k: L*c} for [e_i, e_j] = sum c e_k, both
    orientations, where L is the lcm of every bracket denominator, so all
    entries are Python ints.  A pair with zero bracket has no key."""
    L = 1
    for cell in A.brackets.values():
        for c in cell.values():
            den = c.denominator
            if L % den:
                L = lcm(L, den)
    ad: list[dict[int, dict[int, int]]] = [{} for _ in range(A.n)]
    for (i, j), cell in A.brackets.items():
        row = {k: c.numerator * (L // c.denominator) for k, c in cell.items()}
        ad[i][j] = row
        ad[j][i] = {k: -x for k, x in row.items()}
    return L, ad


def check_gla(A: GradedAlgebra, max_violations: int = 100) -> dict:
    """Exhaustively verify degree additivity and the Jacobi identity.

    Returns {"grading_ok", "jacobi_ok", "violations", "violation_count"};
    the violations list is capped but the count is exact.  Grading
    violations come first, by pair; Jacobi violations follow by triple
    i < j < k in lexicographic order.

    The Jacobi residual

        [[e_i, e_j], e_k] - [e_i, [e_j, e_k]] + [e_j, [e_i, e_k]]

    is certified for every triple, in integers.  Two facts make that exact:

    - every term is a product of two structure constants, so with all of
      them scaled by L (the lcm of their denominators) each residual is
      exactly L**2 times the rational one, and is zero exactly when it is;
    - every term contains one of the pair brackets [e_i, e_j], [e_j, e_k]
      or [e_i, e_k], so a triple whose three pair brackets vanish has three
      zero terms.  For a pair i < j with [e_i, e_j] = 0 only the k > j
      adjacent to i or to j are swept; every other triple is zero by the
      structure alone.  The skip reads only which brackets are nonzero,
      never the degrees, so it holds whether or not the grading does.
    """
    violations = []
    count = 0
    for (i, j), cell in sorted(A.brackets.items()):
        want = A.degrees[i] + A.degrees[j]
        for k in cell:
            if A.degrees[k] != want:
                count += 1
                if len(violations) < max_violations:
                    violations.append(
                        {
                            "type": "grading",
                            "pair": [i, j],
                            "index": k,
                            "degree": A.degrees[k],
                            "expected": want,
                        }
                    )
    grading_ok = count == 0
    jac_start = count
    n = A.n
    L, ad = _scaled_adjacency(A)
    L2 = L * L

    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            adj = ad[j]
            bij = adi.get(j)
            if bij:
                ks = range(j + 1, n)
            else:
                ks = sorted(k for k in adi.keys() | adj.keys() if k > j)
            for k in ks:
                acc: dict[int, int] = {}
                get = acc.get
                if bij:
                    for m, c in bij.items():
                        row = ad[m].get(k)
                        if row:
                            for t, d in row.items():
                                acc[t] = get(t, 0) + c * d
                cell = adj.get(k)
                if cell:
                    for m, c in cell.items():
                        row = adi.get(m)
                        if row:
                            for t, d in row.items():
                                acc[t] = get(t, 0) - c * d
                cell = adi.get(k)
                if cell:
                    for m, c in cell.items():
                        row = adj.get(m)
                        if row:
                            for t, d in row.items():
                                acc[t] = get(t, 0) + c * d
                if any(acc.values()):
                    count += 1
                    if len(violations) < max_violations:
                        residual = {
                            t: format_rational(Fraction(r, L2))
                            for t, r in sorted(acc.items()) if r
                        }
                        violations.append(
                            {"type": "jacobi", "triple": [i, j, k], "residual": residual}
                        )
    return {
        "grading_ok": grading_ok,
        "jacobi_ok": count == jac_start,
        "violations": violations,
        "violation_count": count,
    }


def check_fundamental(A: GradedAlgebra) -> tuple[bool, int]:
    """Whether a negatively graded algebra is generated by its degree -1
    part; returns (is_fundamental, kind).

    Raises NonNegativeDegreePresent when any degree >= 0 shows up, since the
    question only makes sense for the negative part.
    """
    if A.n == 0:
        raise NonNegativeDegreePresent("empty algebra has no negative part")
    bad = [d for d in A.degrees if d >= 0]
    if bad:
        raise NonNegativeDegreePresent(
            f"degrees {sorted(set(bad))} present; expected all negative"
        )
    by_deg = A.by_degree()
    kind = -min(by_deg)
    if -1 not in by_deg:
        return False, kind
    gen1 = by_deg[-1]
    # scaling every bracket by L leaves the rank of each degree unchanged
    ad = _scaled_adjacency(A)[1]
    for p in range(-2, -kind - 1, -1):
        target = by_deg.get(p, [])
        prev = by_deg.get(p + 1, [])
        dim = len(target)
        if dim == 0:
            # a gap below which something nonzero lives cannot be generated
            if any(d < p for d in by_deg):
                return False, kind
            continue
        pos = {g: r for r, g in enumerate(target)}
        ech = Echelon(dim)
        for i in gen1:
            adi = ad[i]
            for j in prev:
                cell = adi.get(j)
                if cell:
                    ech.add({pos[k]: c for k, c in cell.items()})
        if ech.rank < dim:
            return False, kind
    return True, kind


# ---------------------------------------------------------------------------
# symmetric bilinear forms on the degree -1 part
# ---------------------------------------------------------------------------


class SymBilinearForm:
    """A nondegenerate symmetric form on the degree -1 piece of an algebra.

    ``indices`` lists the algebra's basis indices of degree -1 in order;
    ``matrix`` is the Gram matrix in that basis.
    """

    def __init__(self, algebra_name: str, indices, matrix: Mat):
        self.algebra_name = algebra_name
        self.indices = list(indices)
        if matrix.m != matrix.n or matrix.m != len(self.indices):
            raise DimensionMismatch(
                f"{matrix.m}x{matrix.n} Gram matrix for {len(self.indices)} indices"
            )
        if not matrix.is_symmetric():
            raise NotSymmetric("Gram matrix must be symmetric")
        if matrix.det() == 0:
            raise DegenerateForm("Gram matrix is singular")
        self.matrix = matrix

    @classmethod
    def for_algebra(cls, A: GradedAlgebra, matrix: Mat) -> "SymBilinearForm":
        return cls(A.name, A.by_degree().get(-1, []), matrix)

    def scaled(self, c) -> "SymBilinearForm":
        c = Fraction(c)
        if c == 0:
            raise DegenerateForm("zero is not a conformal rescaling")
        return SymBilinearForm(self.algebra_name, self.indices, c * self.matrix)

    def signature(self) -> tuple[int, int]:
        from .linalg import signature_of_symmetric

        r, s, z = signature_of_symmetric(self.matrix)
        require(z == 0, f"form on {self.algebra_name} has {z} zero eigenvalues")
        return r, s

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra_name,
            "degree_minus1_indices": self.indices,
            "matrix": [[format_rational(x) for x in row] for row in self.matrix.a],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SymBilinearForm":
        for key in ("algebra", "degree_minus1_indices", "matrix"):
            if key not in d:
                raise ParseError(f"missing key {key!r} in form object")
        rows = d["matrix"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError("'matrix' must be a list of rows")
        if len({len(r) for r in rows}) > 1:
            raise ParseError("'matrix' has rows of different lengths")
        mat = Mat(
            [
                [parse_rational(x, f"matrix[{i}][{j}]") for j, x in enumerate(row)]
                for i, row in enumerate(rows)
            ]
        )
        try:
            return cls(d["algebra"], d["degree_minus1_indices"], mat)
        except (DimensionMismatch, NotSymmetric, DegenerateForm) as e:
            raise ParseError(str(e)) from e

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)


def deserialize_form(text: str) -> SymBilinearForm:
    return SymBilinearForm.from_json_dict(_load_json(text))
