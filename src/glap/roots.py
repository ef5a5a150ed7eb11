"""Root system oracle: positive roots, parabolic gradings, expected tables.

This module is deliberately independent of the constructive side of the
package.  It knows nothing about brackets or derivations; it only
enumerates roots from Cartan matrices and counts dimensions.  The
cross-check tests compare its numbers with what the prolongation machinery
actually builds, so the two routes must never share code.

Roots are represented by their coefficient tuples over the simple roots.
Positive roots are generated by the standard closure algorithm: walk up
root strings, using the fact that for a positive root b and simple root
a_i, b + a_i is a root exactly when r - q > 0 where r is the number of
steps you can subtract a_i from b while staying in the root system and
q = <b, a_i^vee> = sum_j b_j A_ji.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import BadParameters, UnsupportedType

# the largest rank the builders reach (C24, at 2p+q = 24, the top of the
# scale ladder; the classification table stops at C8); the positive-root
# closure grows steeply with the rank, so larger ones are refused before
# any root is generated
MAX_RANK = 24

# the root series, each with its least rank; F and G exist in that rank only
SERIES = {"A": 1, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}


def cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix A with A[i][j] = <a_i, a_j^vee>, Bourbaki numbering."""
    if rank < 1:
        raise BadParameters(f"rank must be positive, got {rank}")
    if rank > MAX_RANK:
        raise BadParameters(f"rank <= {MAX_RANK} supported, got {rank}")
    series = series.upper()
    if series not in SERIES:
        raise UnsupportedType(f"unknown series {series!r}")
    least = SERIES[series]
    if series in ("F", "G") and rank != least:
        raise UnsupportedType(f"{series}-series only exists in rank {least}")
    if rank < least:
        raise BadParameters(f"{series}-series needs rank >= {least}")

    n = rank
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = 2
    if series in ("A", "B", "C", "D"):
        chain = n if series != "D" else n - 1
        for i in range(chain - 1):
            A[i][i + 1] = -1
            A[i + 1][i] = -1
        if series == "B":
            # short last root: alpha_{n-1} long, alpha_n short
            A[n - 2][n - 1] = -2
            A[n - 1][n - 2] = -1
        elif series == "C":
            A[n - 2][n - 1] = -1
            A[n - 1][n - 2] = -2
        elif series == "D":
            A[n - 3][n - 1] = -1
            A[n - 1][n - 3] = -1
    elif series == "F":
        A = [
            [2, -1, 0, 0],
            [-1, 2, -2, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ]
    elif series == "G":
        A = [[2, -1], [-3, 2]]
    return A


def _pairing(beta, i, A) -> int:
    """<beta, alpha_i^vee> for beta given by simple-root coefficients."""
    return sum(b * A[j][i] for j, b in enumerate(beta))


@functools.cache
def positive_roots(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """The positive roots as coefficient tuples over the simple roots,
    sorted by height and then lexicographically.

    Computed once per (series, rank) in a process and shared by every
    caller, so the result is a tuple of tuples that no caller can change.
    A refused series or rank raises on every call: no exception is cached.
    """
    A = cartan_matrix(series, rank)
    n = rank
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                q = _pairing(beta, i, A)
                # r = how far the string extends downward from beta
                r = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if min(cur) < 0:
                        break
                    t = tuple(cur)
                    if all(c == 0 for c in t):
                        break
                    if t not in roots:
                        break
                    r += 1
                if r - q > 0:
                    up = list(beta)
                    up[i] += 1
                    t = tuple(up)
                    if t not in roots:
                        roots.add(t)
                        new.append(t)
        frontier = new
    return tuple(sorted(roots, key=lambda t: (sum(t), t)))


@dataclass
class GradedDims:
    """Dimension data of the grading induced by crossing simple roots."""

    series: str
    rank: int
    crossed: tuple[int, ...]
    dims: dict[int, int]  # degree -> dimension of the complex graded piece

    @property
    def kind(self) -> int:
        return -min(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())


def graded_dims(series: str, rank: int, crossed) -> GradedDims:
    """Grading of the complex simple algebra by the crossed-node height.

    A root's degree is the sum of its coefficients over the crossed simple
    roots (negated for negative roots); degree 0 collects the uncrossed
    roots plus the full Cartan subalgebra.
    """
    crossed = tuple(sorted(set(int(c) for c in crossed)))
    pos = positive_roots(series, rank)  # validates the rank first
    if not crossed:
        raise BadParameters("need at least one crossed node")
    if any(c < 1 or c > rank for c in crossed):
        raise BadParameters(f"crossed nodes {crossed} out of range 1..{rank}")
    dims: dict[int, int] = {0: rank}
    for beta in pos:
        deg = sum(beta[c - 1] for c in crossed)
        dims[deg] = dims.get(deg, 0) + 1
        dims[-deg] = dims.get(-deg, 0) + 1
    return GradedDims(series, rank, crossed, dict(sorted(dims.items())))


# ---------------------------------------------------------------------------
# expected classification table
# ---------------------------------------------------------------------------


@dataclass
class TableRow:
    family: str
    params: dict
    series: str
    rank: int
    crossed: tuple[int, ...]
    kind: int
    signature: tuple[int, int]
    module_class: str
    total_dim: int
    dims: dict[int, int]
    satake_label: str


def _hk_satake(kind: str, p: int, q: int) -> str:
    if kind == "HC":
        if p == 1:
            return "AIV"
        return "AIIIb" if q == 0 else "AIIIa"
    if kind == "HH":
        return "CIIb" if q == 0 else "CIIa"
    if kind == "HC'":
        return "AI"
    if kind == "HH'":
        return "CI"
    raise BadParameters(kind)


def table_expectation(family: str, **params) -> TableRow:
    """Expected ambient data for one classified family instance.

    Everything here comes from the root side: series, crossed nodes and the
    graded dimensions are computed by the oracle, while the signature is the
    closed-form count for the family.  The builders never see this module.
    """
    if family in ("HC", "HC'", "HH", "HH'"):
        extra = set(params) - {"p", "q"}
        if extra or "p" not in params:
            raise BadParameters(f"{family} takes p and optional q, got {sorted(params)}")
        p, q = int(params["p"]), int(params.get("q", 0))
        n = 2 * p + q
        if p < 1 or q < 0 or n < 3:
            raise BadParameters(f"need p >= 1, q >= 0, 2p+q >= 3; got p={p}, q={q}")
        if family in ("HC", "HC'"):
            series, rank, crossed = "A", n - 1, (1, n - 1)
            sig = (2 * p + 2 * q - 2, 2 * p - 2) if family == "HC" else (n - 2, n - 2)
            module_class = "SII" if family == "HC" else "SIII"
        else:
            series, rank, crossed = "C", n, (2,)
            sig = (
                (4 * p + 4 * q - 4, 4 * p - 4)
                if family == "HH"
                else (2 * n - 4, 2 * n - 4)
            )
            module_class = "SI"
        label = _hk_satake(family, p, q)
    elif family in ("HO", "HO'"):
        if params:
            raise BadParameters(f"{family} takes no parameters")
        series, rank, crossed = "F", 4, (4,)
        sig = (8, 0) if family == "HO" else (4, 4)
        module_class = "SI"
        label = "FII" if family == "HO" else "FI"
        p = q = None
    elif family == "BI":
        if set(params) != {"l"}:
            raise BadParameters(f"BI takes exactly l, got {sorted(params)}")
        l = int(params["l"])
        if l < 2:
            raise BadParameters(f"BI needs l >= 2, got {l}")
        series, rank, crossed = "B", l, (1, l)
        sig = (l - 1, l - 1)
        module_class = "SIII"
        label = "BI"
    elif family == "G":
        if params:
            raise BadParameters("G takes no parameters")
        series, rank, crossed = "G", 2, (1, 2)
        sig = (1, 1)
        module_class = "SIII"
        label = "G"
    else:
        raise BadParameters(f"unknown family {family!r}")

    gd = graded_dims(series, rank, crossed)
    return TableRow(
        family=family,
        params=dict(params),
        series=series,
        rank=rank,
        crossed=crossed,
        kind=gd.kind,
        signature=sig,
        module_class=module_class,
        total_dim=gd.total_dim(),
        dims=gd.dims,
        satake_label=label,
    )
