"""Graded Lie algebras with exact rational structure constants.

A ``GradedAlgebra`` is a basis-indexed object: ``labels[i]`` names basis
element i, ``degrees[i]`` is its integer degree, and the bracket tensor is
stored sparsely as ``{(i, j): {k: c}}`` for i < j, meaning

    [e_i, e_j] = sum_k c * e_k.

Brackets with i > j follow by antisymmetry and [e_i, e_i] = 0.  Nothing in
this module assumes the Jacobi identity; ``check_gla`` verifies it (and the
additivity of degrees) for every triple.  The prolongation and the
algebras built directly from representation data are certified by it; the
matrix ambients of ``families`` by re-deriving every bracket from their
matrices instead.

The Jacobi sweep runs in integers and still certifies every triple.  With
every structure constant scaled by L, the lcm of their denominators, each
Jacobi term (a product of two constants) and so each residual is exactly
L**2 times the rational one.  A residual is one integer: each cell
{t: x} of the scaled adjacency is packed once per sweep as sum x * 2**(W
t), slot t for basis index t, and a triple's residual is the sum of
constant times packed cell over its three terms.  The slot width W has
3 w b**2 < 2**(W - 1), for w the longest cell and b the largest |entry|,
so every coefficient fits its slot with its sign; an expansion in base
2**W with digits that small is unique, and the residual is 0 exactly when
every coefficient is.  Only a residual that makes the report is decoded
back into coefficients.  Every term contains one of the three pair
brackets of its triple, so a triple whose three pair brackets vanish is
zero without being evaluated.  On a graded algebra that is transitive and
whose negative part g_{-1} generates, the triples that hold a degree -1
element already decide every other (``check_gla``), so only those are
swept unless one of them fails; a pair whose degrees leave no third index
above it is skipped before any cell is read.  A prolongation cut at some
degree is swept on the triples of that set whose brackets the cut kept
(``check_gla``'s ``top``).

The JSON layout round-trips losslessly because rationals are serialized as
"p/q" strings (just "p" when q = 1).  Every file glap writes goes through
one writer, ``dumps``, which writes the bytes of ``json.dumps(obj,
indent=1)`` faster.  A reader parses each distinct rational string of a
document once.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from math import lcm

from .errors import (
    DegenerateForm,
    DimensionMismatch,
    NonNegativeDegreePresent,
    NotSymmetric,
    ParseError,
    require,
)
from .linalg import Echelon, Mat, signature_of_symmetric


def format_rational(x: Fraction) -> str:
    return str(x)  # Fraction.__str__ is exactly the "p/q" / "p" layout


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def dumps(obj) -> str:
    """``json.dumps(obj, indent=1)``, byte for byte, for a JSON value
    (object keys are strings).  An indent sends ``json.dumps`` to its
    pure-Python encoder, which writes the text in many small pieces; this
    writer joins each list and each object in one go, and leaves every
    scalar but a plain int or string to ``json.dumps``."""
    return _dumps(obj, "\n")


def _dumps(obj, nl: str) -> str:
    """The text of obj, nested at the indent that ``nl`` ends with."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return str(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + " "
        return f"[{inner}{(',' + inner).join([_dumps(x, inner) for x in obj])}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + " "
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in obj.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return json.dumps(obj)


def parse_rational(s: str | int, where: str = "") -> Fraction:
    """A rational from JSON: an integer, or a string as ``format_rational``
    writes it, "p" or "p/q" in ASCII digits.  Floats (and booleans) are
    refused rather than converted, because a JSON float is already rounded
    to binary; so are decimal and exponent strings, which ``Fraction``
    would take but may expand to millions of digits."""
    at = f" at {where}" if where else ""
    if _is_json_int(s):
        return Fraction(s)
    match = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if match is None:
        raise ParseError(f"bad rational {s!r}{at}: use an integer or a \"p/q\" string")
    try:
        return Fraction(int(match[1]), int(match[2] or 1))
    except (ValueError, ZeroDivisionError) as e:  # too many digits, or q = 0
        raise ParseError(f"bad rational {s!r}{at}") from e


class GradedAlgebra:
    """A graded algebra.  Its scaled adjacency ``_adj`` is built from
    ``brackets`` on first read by ``_scaled_adjacency``, the only code that
    sets it, and kept; ``_pivots`` keeps the rank verdicts that
    ``_minus1_pivots`` reads from it.  So the brackets are read-only once
    built, and an extension shares A's cells, checked once, when A was
    built."""

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
                if type(c) is not Fraction:
                    c = Fraction(c)
                if not c:
                    continue
                if not 0 <= int(k) < n:
                    raise DimensionMismatch(f"bracket ({i},{j}) hits index {k}")
                clean[int(k)] = c
            if clean:
                self.brackets[(i, j)] = clean
        self._by_degree: dict[int, list[int]] | None = None
        self._adj: tuple[int, list[dict[int, dict[int, int]]]] | None = None
        self._pivots: dict[int, list[tuple[int, int]] | None] = {}

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
        if not isinstance(d["name"], str):
            raise ParseError("'name' must be a string")
        labels = d["labels"]
        degrees = d["degrees"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError("'labels' must be a list of strings")
        if not isinstance(degrees, list) or not all(_is_json_int(x) for x in degrees):
            raise ParseError("'degrees' must be a list of integers")
        if not isinstance(d["brackets"], list):
            raise ParseError("'brackets' must be a list of [i, j, terms] rows")
        brackets = {}
        parsed: dict[str, Fraction] = {}  # each rational string of this document, once
        # a place in the document is formatted only for an error there
        for idx, row in enumerate(d["brackets"]):
            if not (isinstance(row, list) and len(row) == 3):
                raise ParseError(f"brackets[{idx}]: expected [i, j, terms]")
            i, j, terms = row
            if not (_is_json_int(i) and _is_json_int(j) and i < j):
                raise ParseError(f"brackets[{idx}]: indices must be integers with i < j")
            if (i, j) in brackets:
                raise ParseError(f"brackets[{idx}]: a second row for the pair ({i}, {j})")
            if not isinstance(terms, list):
                raise ParseError(f"brackets[{idx}]: terms must be a list of [k, rational]")
            cell = {}
            for t, term in enumerate(terms):
                if not (isinstance(term, list) and len(term) == 2 and _is_json_int(term[0])):
                    raise ParseError(f"brackets[{idx}] term {t}: expected [k, rational]")
                k, c = term
                if k in cell:
                    raise ParseError(f"brackets[{idx}] term {t}: a second term for index {k}")
                cell[k] = _parse_once(parsed, c, "brackets[{}] term {}", idx, t)
            brackets[(i, j)] = cell
        try:
            return cls(d["name"], labels, degrees, brackets)
        except DimensionMismatch as e:
            raise ParseError(str(e)) from e

    def serialize(self) -> str:
        return dumps(self.to_json_dict())


def _parse_once(parsed: dict[str, Fraction], s, place: str, *args) -> Fraction:
    """``parse_rational(s, place.format(*args))``, a string looked up in
    ``parsed`` first and added to it; only strings are kept, since ``True
    == 1``.  The place is formatted only when s is not a rational: its
    error is then raised again, the same but for the place."""
    if type(s) is str:
        x = parsed.get(s)
        if x is not None:
            return x
    try:
        x = parse_rational(s)
    except ParseError:
        parse_rational(s, place.format(*args))
        raise
    if type(s) is str:
        parsed[s] = x
    return x


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
    except (ValueError, RecursionError) as e:  # too many digits, or nested too deeply
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(d, dict):
        raise ParseError("top-level JSON value must be an object")
    return d


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def _scaled_adjacency(A: GradedAlgebra) -> tuple[int, list[dict[int, dict[int, int]]]]:
    """(L, ad) with ad[i][j] = {k: L*c} for [e_i, e_j] = sum c e_k, both
    orientations, where L is the lcm of every bracket denominator, so all
    entries are Python ints.  A pair with zero bracket has no key.  Built
    from ``A.brackets`` on first read and kept on A; callers must not
    modify it."""
    if A._adj is None:
        A._adj = _adjacency(A.n, A.brackets)
    return A._adj


def _adjacency(n: int, brackets) -> tuple[int, list[dict[int, dict[int, int]]]]:
    """``_scaled_adjacency`` of the brackets ``{(i, j): {k: Fraction}}``
    (i < j, no zero coefficient) of an algebra of dimension n.  Equal cells
    share their two rows: rows are read-only, and most of them repeat.
    Each coefficient is read once, as its (numerator, denominator)."""
    distinct: dict[tuple, int] = {}  # ((k, numerator, denominator), ...) -> its index
    index = [distinct.setdefault(tuple((k, *c.as_integer_ratio()) for k, c in cell.items()),
                                 len(distinct)) for cell in brackets.values()]
    L = lcm(*{q for key in distinct for _, _, q in key})
    rows: list[tuple[dict[int, int], dict[int, int]]] = []
    for key in distinct:
        row = {k: p * (L // q) for k, p, q in key}
        rows.append((row, {k: -x for k, x in row.items()}))
    ad: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]
    for (i, j), r in zip(brackets, index):
        ad[i][j], ad[j][i] = rows[r]
    return L, ad


def check_gla(A: GradedAlgebra, max_violations: int = 100, top: int | None = None) -> dict:
    """Verify degree additivity and the Jacobi identity on every triple, or
    with ``top`` on those that hold a degree -1 element and have total
    degree at most ``top``.

    ``top`` is for a transitive prolongation cut at degree K, with top =
    K - 1.  Its triples are (z, x, y) with z in g_{-1} and deg x + deg y
    <= K, so each of their pair brackets has degree at most K and is
    present, and J(z, x, y) = 0 says that [x, y] acts on g_{-1} as the
    commutator of x and y does, which fixes [x, y] by transitivity.  A
    triple with a pair of degree above K reads a bracket that the cut
    dropped, so the full sweep can find residuals there.

    Returns {"grading_ok", "jacobi_ok", "violations", "violation_count"}:
    grading violations by pair, then Jacobi violations by triple i < j < k
    in lexicographic order, the list capped at ``max_violations`` and the
    count exact.  The residual

        J(x, y, z) = [[x, y], z] + [[y, z], x] + [[z, x], y]

    is trilinear and alternating.  It is certified in integers, with the
    skip of zero pair brackets of the module docstring, which reads no
    degree and so holds whether or not the grading does.

    Theorem.  Let A be graded and transitive (for each d >= 0 no nonzero u
    in g_d kills g_{-1}), with g_{-k-1} = [g_{-1}, g_{-k}] for every k >= 1.
    If J vanishes on every basis triple that holds a degree -1 element,
    then J = 0.

    Proof.  For any skew-symmetric bracket, J satisfies

        [w, J(x,y,z)] - [x, J(w,y,z)] + [y, J(w,x,z)] - [z, J(w,x,y)]
          = J([w,x],y,z) - J([w,y],x,z) + J([w,z],x,y)
            + J([x,y],w,z) - J([x,z],w,y) + J([y,z],w,x).

    Suppose J vanishes on every triple that holds an element of degree -1
    to -k, and put w in g_{-1}, x in g_{-k}.  Every term but J([w,x],y,z)
    holds w or x, so J([w,x],y,z) = 0; these [w,x] span g_{-k-1}.  By
    induction J vanishes on every triple that holds a negative element, so
    on every triple of negative total degree.  Then ad e, e in g_{-1}, is a
    derivation, and a derivation D has D J(x, y, z) = J(Dx, y, z) +
    J(x, Dy, z) + J(x, y, Dz).  Induct on the total degree s >= 0: with
    D = ad e every term on the right has total degree s - 1 and vanishes,
    so J(x, y, z), which lies in g_s, kills g_{-1} and is 0 by
    transitivity.  A triple whose total degree is not a degree of A is 0
    by the grading.

    So when the grading holds and every g_d, d != -1, has full rank in
    ``_minus1_rows`` (``_reached_by_minus1``: transitive and generated),
    only the triples that hold a degree -1 element and have a present
    total degree are swept, up to the first nonzero residual; if there is
    none, A is clean.  Otherwise (the grading fails, A has no g_{-1}, is
    not transitive or not generated, or the reduced set has a residual)
    every triple is swept, so the count and the capped, ordered list stay
    exact.
    """
    grading = _misgraded(A)
    ad = _scaled_adjacency(A)[1]
    if top is not None:
        return _report(A, grading, _jacobi_residuals(A, ad, reduced=True, top=top), max_violations)
    if not grading and _reached_by_minus1(A, lambda d: d != -1):
        if next(_jacobi_residuals(A, ad, reduced=True), None) is None:
            return _report(A, grading, (), max_violations)
    return _report(A, grading, _jacobi_residuals(A, ad), max_violations)


def _report(A: GradedAlgebra, grading: list, residuals, max_violations: int) -> dict:
    """``check_gla``'s report on the misgraded terms ``grading`` and the
    Jacobi ``residuals`` that ``_jacobi_residuals`` packed over A's
    adjacency, both in order, each counted; only the residuals that make
    the capped list are decoded."""
    violations = [
        {
            "type": "grading",
            "pair": [i, j],
            "index": k,
            "degree": A.degrees[k],
            "expected": A.degrees[i] + A.degrees[j],
        }
        for i, j, k in islice(grading, max_violations)
    ]
    count = jac_start = len(grading)
    W = None
    for i, j, k, r in residuals:
        count += 1
        if len(violations) < max_violations:
            if W is None:
                L, ad = _scaled_adjacency(A)
                L2, W = L * L, _slot_width(ad)
            residual = {
                t: format_rational(Fraction(x, L2)) for t, x in _decode(r, W).items()
            }
            violations.append({"type": "jacobi", "triple": [i, j, k], "residual": residual})
    return {
        "grading_ok": not grading,
        "jacobi_ok": count == jac_start,
        "violations": violations,
        "violation_count": count,
    }


def _jacobi_residuals(A: GradedAlgebra, ad, reduced: bool = False, top: int | None = None):
    """Yield (i, j, k, r) for each triple i < j < k with a nonzero
    residual, in lexicographic order; r packs L**2 times its coefficients
    into one integer, slot t holding the t-th (``_decode`` reads it back).
    ``reduced`` (for a graded A) visits only the triples of ``check_gla``'s
    theorem, those that hold a degree -1 element and whose total degree is
    a degree of A; with ``top`` as well, only those of total degree at most
    ``top``.

    Each cell ad[m][k] = {t: x} is packed once per sweep as P[m][k] = sum
    x * 2**(W t), with W = ``_slot_width(ad)``.  A residual is the sum of
    c * P[...] over the same three terms as the coefficient-wise sum, so no
    dict is built per triple.  Its t-th coefficient is a sum of at most 3 w
    products of two entries, w the longest cell and b the largest |entry|,
    so |r_t| <= 3 w b**2 < 2**(W - 1).  An integer has at most one
    expansion in base 2**W with digits in that range, so r is 0 exactly
    when every coefficient is, and ``_report`` decodes only the residuals
    it lists.  A pair whose degrees allow no third index above j is
    skipped before any cell is read."""
    n = A.n
    degs = A.degrees
    present = A.by_degree()
    P = _packed(ad, _slot_width(ad))
    thirds: dict = {}  # (deg i, deg j) -> (degrees allowed for k, ascending such k)
    for i in range(n):
        adi, Pi = ad[i], P[i]
        for j in range(i + 1, n):
            if reduced:
                key = degs[i], degs[j]
                if key not in thirds:
                    s = key[0] + key[1]
                    ok = {d for d in present if s + d in present and -1 in (d, *key)
                          and (top is None or s + d <= top)}
                    thirds[key] = ok, [k for k in range(n) if degs[k] in ok]
                ok, allowed = thirds[key]
                if not allowed or allowed[-1] <= j:
                    continue
            adj, Pj = ad[j], P[j]
            bij = adi.get(j)
            if reduced:
                if bij:
                    ks = islice(allowed, bisect_right(allowed, j), None)
                else:  # the skip of ``check_gla``, on allowed degrees
                    ks = sorted(k for k in adi.keys() | adj.keys() if k > j and degs[k] in ok)
            elif bij:
                ks = range(j + 1, n)
            else:
                ks = sorted(k for k in adi.keys() | adj.keys() if k > j)
            first = [(c, P[m]) for m, c in bij.items()] if bij else ()
            for k in ks:
                r = 0
                for c, Pm in first:
                    x = Pm.get(k)
                    if x:
                        r += c * x
                cell = adj.get(k)
                if cell:
                    for m, c in cell.items():
                        x = Pi.get(m)
                        if x:
                            r -= c * x
                cell = adi.get(k)
                if cell:
                    for m, c in cell.items():
                        x = Pj.get(m)
                        if x:
                            r += c * x
                if r:
                    yield i, j, k, r


def _slot_width(ad) -> int:
    """The slot width W of ``_jacobi_residuals``' packing of ad: 3 w b**2
    < 2**(W - 1), w the longest cell and b the largest |entry|."""
    cells = [cell for row in ad for cell in row.values()]
    w = max(map(len, cells), default=0)
    b = max(map(abs, chain.from_iterable(cell.values() for cell in cells)), default=0)
    return (3 * w * b * b).bit_length() + 1


def _packed(ad, W: int) -> list[dict[int, int]]:
    """P[m][k] = sum x * 2**(W t) over the cell ad[m][k] = {t: x}; a cell
    shared by several rows is packed once."""
    memo: dict[int, int] = {}
    P = []
    for row in ad:
        prow = {}
        for k, cell in row.items():
            x = memo.get(id(cell))
            if x is None:
                x = memo[id(cell)] = sum(c << (W * t) for t, c in cell.items())
            prow[k] = x
        P.append(prow)
    return P


def _decode(r: int, W: int) -> dict[int, int]:
    """The nonzero coefficients {t: r_t} of a residual packed at width W,
    read back as signed base-2**W digits."""
    out = {}
    half, mask = 1 << (W - 1), (1 << W) - 1
    t = 0
    while r:
        d = r & mask
        if d >= half:
            d -= 1 << W
        if d:
            out[t] = d
        r = (r - d) >> W
        t += 1
    return out


def _misgraded(A: GradedAlgebra) -> list[tuple[int, int, int]]:
    """(i, j, k) for every term e_k of a bracket [e_i, e_j], i < j, whose
    degree is not deg e_i + deg e_j, by pair and then in the cell's order:
    one pass collects them, and only they are sorted."""
    degs = A.degrees
    bad = []
    for (i, j), cell in A.brackets.items():
        s = degs[i] + degs[j]
        for k in cell:
            if degs[k] != s:
                bad.append((i, j, k))
    bad.sort(key=lambda t: (t[0], t[1]))  # stable: the k order of a cell is kept
    return bad


def require_graded(A: GradedAlgebra) -> None:
    """Raise ParseError unless every bracket term lies in the degree its
    pair adds up to."""
    for i, j, k in _misgraded(A):
        raise ParseError(
            f"bracket [{i}, {j}] has a term in degree {A.degrees[k]}, "
            f"expected {A.degrees[i] + A.degrees[j]}"
        )


def check_fundamental(A: GradedAlgebra) -> tuple[bool, int]:
    """Whether a negatively graded algebra is generated by its degree -1
    part; returns (is_fundamental, kind).

    Raises NonNegativeDegreePresent when any degree >= 0 shows up, since the
    question only makes sense for the negative part, and ParseError when a
    bracket breaks the grading.
    """
    if A.n == 0:
        raise NonNegativeDegreePresent("empty algebra has no negative part")
    bad = [d for d in A.degrees if d >= 0]
    if bad:
        raise NonNegativeDegreePresent(
            f"degrees {sorted(set(bad))} present; expected all negative"
        )
    require_graded(A)
    return _reached_by_minus1(A, lambda d: d < -1), -min(A.by_degree())


def transitivity_check(A: GradedAlgebra) -> bool:
    """Whether A is transitive: no nonzero element of a degree >= 0 kills
    all of g_{-1} (so a nonnegative degree without g_{-1} fails)."""
    return _reached_by_minus1(A, lambda d: d >= 0)


def _reached_by_minus1(A: GradedAlgebra, which) -> bool:
    """Whether ``_minus1_rows`` has full rank dim g_d in every degree d of
    A with ``which(d)``: for d < -1, g_d = [g_{-1}, g_{d+1}]; for d >= 0, no
    nonzero u in g_d kills g_{-1}.  A missing g_{-1} fails every such d;
    scaling every bracket by L leaves each rank unchanged."""
    return all(_minus1_pivots(A, d) is not None for d in A.by_degree() if which(d))


def _minus1_pivots(A: GradedAlgebra, d: int) -> list[tuple[int, int]] | None:
    """The keys of dim g_d rows of ``_minus1_rows(A, d)`` of full rank, or
    None when the rows fall short of it.  Each degree of A is ranked once:
    the verdict is kept in ``A._pivots``."""
    memo = A._pivots
    if d not in memo:
        m = len(A.by_degree()[d])
        ech = Echelon(m)
        keys = []
        for key, row in sorted(_minus1_rows(A, d).items(), key=lambda kv: len(kv[1])):
            if ech.add(row):
                keys.append(key)
                if ech.rank == m:
                    break
        memo[d] = keys if len(keys) == m else None
    return memo[d]


def _minus1_rows(A: GradedAlgebra, d: int) -> dict[tuple[int, int], dict[int, int]]:
    """How g_{-1} reaches g_d: rows over the local basis of g_d, keyed
    (p, z) with e_p the p-th basis vector of g_{-1}, read from the scaled
    adjacency of A.

    For d < -1, row (p, z) holds the coordinates of [e_p, z], z in g_{d+1};
    their rank is dim g_d exactly when [g_{-1}, g_{d+1}] = g_d.  For d >= 0
    it holds the z-th coordinate of [u, e_p] as u runs over g_d; their rank
    is dim g_d exactly when no nonzero u kills g_{-1} (transitivity)."""
    by_deg = A.by_degree()
    ad = _scaled_adjacency(A)[1]
    pos = {g: r for r, g in enumerate(by_deg.get(d, []))}
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for p, e in enumerate(by_deg.get(-1, [])):
        if d < -1:
            for z in by_deg.get(d + 1, []):
                cell = ad[e].get(z)
                if cell:
                    rows[p, z] = {pos[k]: c for k, c in cell.items()}
        else:
            for u in pos:
                for z, c in ad[u].get(e, {}).items():
                    rows.setdefault((p, z), {})[pos[u]] = c
    return rows


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

    def require_on(self, A: GradedAlgebra) -> None:
        """Raise ParseError unless ``indices`` is the degree -1 basis of A."""
        minus1 = A.by_degree().get(-1, [])
        if self.indices != minus1:
            raise ParseError(f"form indexes {self.indices} but degree -1 basis is {minus1}")

    def signature(self) -> tuple[int, int]:
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
        if not isinstance(d, dict):
            raise ParseError("the form must be a JSON object")
        for key in ("algebra", "degree_minus1_indices", "matrix"):
            if key not in d:
                raise ParseError(f"missing key {key!r} in form object")
        indices = d["degree_minus1_indices"]
        if not isinstance(indices, list) or not all(_is_json_int(x) for x in indices):
            raise ParseError("'degree_minus1_indices' must be a list of integers")
        rows = d["matrix"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ParseError("'matrix' must be a list of rows")
        if len({len(r) for r in rows}) > 1:
            raise ParseError("'matrix' has rows of different lengths")
        parsed: dict[str, Fraction] = {}
        mat = Mat(
            [
                [_parse_once(parsed, x, "matrix[{}][{}]", i, j) for j, x in enumerate(row)]
                for i, row in enumerate(rows)
            ]
        )
        try:
            return cls(d["algebra"], indices, mat)
        except (DimensionMismatch, NotSymmetric, DegenerateForm) as e:
            raise ParseError(str(e)) from e

    def serialize(self) -> str:
        return dumps(self.to_json_dict())


def deserialize_form(text: str) -> SymBilinearForm:
    return SymBilinearForm.from_json_dict(_load_json(text))
