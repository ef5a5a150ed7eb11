"""Seeded graded unimodular changes of basis.

``families.build`` hands out (m, g) in a sparse, hand-picked basis.  The
same algebra in a generic basis is a different input for every solver in the
package, so the `rebased` workload moves each instance to a new basis before
the package sees it:

* inside every degree piece of dimension d >= 2, the new basis is the old one
  after the elementary operations f_a <- f_a + s * f_b for the first
  ``OPS_PER_PIECE`` consecutive pairs (a, b), with each sign s = +-1 drawn
  from the seed;
* brackets are rewritten in the new basis, and the Gram matrix of g on the
  degree -1 piece goes to P G P^T (congruence), so its signature is kept.

The positions are fixed and only the signs are seeded.  Random positions
change the fill-in from seed to seed, and with it the run time of a
pass by a factor of two or more, which would drown any change of the
program in seed noise.

Every transformation is integral with an integral inverse, so all structure
constants stay integers.  ``certify`` re-checks the result with the package's
own certificates before the benchmark hands it out.
"""

from __future__ import annotations

import random
from fractions import Fraction

from glap.gla import (
    GradedAlgebra,
    SymBilinearForm,
    check_fundamental,
    check_gla,
)
from glap.linalg import Mat

OPS_PER_PIECE = 2


def instance_rng(seed: int, label: str) -> random.Random:
    """One generator per (seed, instance), independent of instance order."""
    return random.Random(f"glap-rebase/{seed}/{label}")


def rebase(m: GradedAlgebra, g: SymBilinearForm, rng: random.Random):
    """Return (m', g') for the seeded change of basis described above."""
    n = m.n
    # new f_i = sum_a P[i][a] e_a, and e_a = sum_l Q[a][l] f_l with Q = P^-1
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _, ix in sorted(m.by_degree().items()):
        for t in range(min(OPS_PER_PIECE, len(ix) - 1)):
            a, b = ix[t], ix[t + 1]
            s = rng.choice((-1, 1))
            for col in range(n):
                P[a][col] += s * P[b][col]
                Q[col][b] -= s * Q[col][a]
    rows = [{a: v for a, v in enumerate(r) if v} for r in P]
    inv_rows = [{l: v for l, v in enumerate(r) if v} for r in Q]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            old: dict[int, Fraction] = {}
            for a, pa in rows[i].items():
                for b, pb in rows[j].items():
                    for k, c in m.bracket_pair(a, b).items():
                        old[k] = old.get(k, 0) + pa * pb * c
            new: dict[int, Fraction] = {}
            for k, v in old.items():
                if v:
                    for l, q in inv_rows[k].items():
                        new[l] = new.get(l, 0) + v * q
            cell = {l: v for l, v in new.items() if v}
            if cell:
                brackets[(i, j)] = cell
    m2 = GradedAlgebra(m.name, m.labels, m.degrees, brackets)
    minus1 = m.by_degree()[-1]
    pos = {gi: r for r, gi in enumerate(minus1)}
    G = g.matrix.a
    gram = [
        [
            sum(
                (
                    pa * pb * G[pos[a]][pos[b]]
                    for a, pa in rows[i].items()
                    for b, pb in rows[j].items()
                ),
                Fraction(0),
            )
            for j in minus1
        ]
        for i in minus1
    ]
    return m2, SymBilinearForm.for_algebra(m2, Mat(gram))


def certify(m: GradedAlgebra, g: SymBilinearForm, m2: GradedAlgebra, g2: SymBilinearForm):
    """Reasons the rebased pair is not a valid input; empty when it is.

    g2 was already checked to be symmetric and nondegenerate when it was
    constructed.
    """
    bad = []
    rep = check_gla(m2)
    if not (rep["grading_ok"] and rep["jacobi_ok"]):
        bad.append(f"check_gla: {rep['violation_count']} violations")
    fundamental, kind = check_fundamental(m2)
    if not fundamental or kind != check_fundamental(m)[1]:
        bad.append(f"check_fundamental: fundamental={fundamental} kind={kind}")
    if g2.signature() != g.signature():
        bad.append(f"signature {g2.signature()} != {g.signature()}")
    return bad
