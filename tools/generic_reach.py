"""Prolongation time of free 2-step algebras in a random basis.

The free 2-step algebra on n generators is m = V + L2(V), with V = g_-1 of
dimension n and g_-2 = L2(V) of dimension n(n-1)/2, and g = I on V.  Here
the bracket [e_i, e_j] (i < j) is column (i, j) of a random invertible
integer matrix M on L2(V): its entries lie in [-2, 2], drawn row by row from
``random.Random(seed)``, and the whole matrix is drawn again until it is
invertible.  The standard basis (M = I) prolongs in a few hundredths of a
second; a random basis makes every step solve read dense rows.

    python3 tools/generic_reach.py --generators 6 7 8 --seed 0

Run from the root of a source checkout; the package is imported from
``src/``.  It prints one line per instance: the generators, the dimension
of each degree and the seconds of ``full_prolongation``.  It exits 1 unless
every instance has dim g_0 = n(n-1)/2 + 1 (the conformal algebra co(n) of
the form).  Stdlib only; not part of the tests.
"""

import argparse
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from glap.gla import GradedAlgebra, SymBilinearForm  # noqa: E402
from glap.linalg import Mat  # noqa: E402
from glap.prolongation import full_prolongation  # noqa: E402


def free_two_step(n: int, seed: int) -> tuple[GradedAlgebra, SymBilinearForm]:
    """(m, g) of the free 2-step algebra on n generators in the random basis
    of g_-2 described in the module docstring."""
    pairs = list(combinations(range(n), 2))
    N = len(pairs)
    rng = random.Random(seed)
    while True:
        M = [[rng.randint(-2, 2) for _ in range(N)] for _ in range(N)]
        if Mat(M).rank() == N:
            break
    brackets = {
        (i, j): {n + k: Fraction(M[k][c]) for k in range(N) if M[k][c]}
        for c, (i, j) in enumerate(pairs)
    }
    labels = [f"e{i + 1}" for i in range(n)] + [f"f{k + 1}" for k in range(N)]
    m = GradedAlgebra(f"free2({n})", labels, [-1] * n + [-2] * N, brackets)
    identity = Mat([[int(r == c) for c in range(n)] for r in range(n)])
    return m, SymBilinearForm.for_algebra(m, identity)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--generators", type=int, nargs="+", default=[6, 7, 8])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ok = True
    for n in args.generators:
        m, g = free_two_step(n, args.seed)
        start = time.perf_counter()
        prol = full_prolongation(m, g)
        seconds = time.perf_counter() - start
        dims = prol.dims_by_degree()
        want = n * (n - 1) // 2 + 1
        good = dims.get(0) == want
        ok = ok and good
        print(f"generators={n} seed={args.seed} dims={dims} prolong={seconds:.2f} s"
              + ("" if good else f" FAIL: dim g_0 != {want}"), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
