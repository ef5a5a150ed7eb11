"""One digest of glap's outputs over the whole supported range.

For every instance of the family registry (``families.FAMILIES``, 69 of
them) it hashes what ``build`` hands out (m, g, the ambient and the size of
the Cartan tag), the serialized prolongation and the analysis report.  For
the benchmark's rebased inputs at seeds 0 and 7 (``bench/rebase.py``, read
and left as it is) it hashes the prolongation and the report.  The SHA-256
over all of them is compared with ``EXPECTED``: a change that should leave
every output byte-identical must leave it equal.

    python3 tools/range_digest.py

Run from the root of a source checkout.  It prints one digest per instance
and the total, and exits 0 when the total matches and 1 when it does not.
It takes about 6 s on 2 vCPUs (Python 3.11) and is not part of the tests.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from glap.analysis import analyze  # noqa: E402
from glap.cli import DEFAULT_ROWS  # noqa: E402
from glap.families import FAMILIES, build, label  # noqa: E402
from glap.prolongation import full_prolongation  # noqa: E402
from rebase import instance_rng, rebase  # noqa: E402

EXPECTED = "7f3ee9536db3c0b28def466f1aa30a723e6840f7c12821b0407c2e5eaf1e8746"

# the instances the benchmark's rebased workload moves to a new basis
REBASED = [(tag, params) for tag, params in DEFAULT_ROWS
           if tag in ("hc", "hc-split", "hh", "hh-split")]
REBASED += [("bi", {"l": 3}), ("bi", {"l": 4}), ("g2", {}), ("counterexample", {})]
SEEDS = (0, 7)


def _outputs(m, g) -> list[str]:
    """The prolongation of (m, g) and its analysis report, as text."""
    prol = full_prolongation(m, g)
    return [prol.serialize(), json.dumps(analyze(prol).to_json_dict(), sort_keys=True)]


def digests():
    """(name, digest) of every instance, in a fixed order."""
    for spec in FAMILIES.values():
        for params in spec.instances:
            fam = build(spec.tag, **params)
            ambient = fam.ambient.serialize() if fam.ambient is not None else "none"
            cartan = str(fam.cartan.dim) if fam.cartan is not None else "none"
            texts = [fam.m.serialize(), fam.g.serialize(), ambient, cartan]
            yield label(spec.tag, params), texts + _outputs(fam.m, fam.g)
    for seed in SEEDS:
        for tag, params in REBASED:
            fam = build(tag, **params)
            name = label(tag, params)
            m, g = rebase(fam.m, fam.g, instance_rng(seed, name))
            yield f"{name} rebased {seed}", _outputs(m, g)


def main() -> int:
    total = hashlib.sha256()
    count = 0
    for name, texts in digests():
        h = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        print(f"{h}  {name}", flush=True)
        total.update(f"{name}\0{h}\n".encode())
        count += 1
    got = total.hexdigest()
    ok = got == EXPECTED
    print(f"{got}  total over {count} instances: {'match' if ok else 'MISMATCH, expected ' + EXPECTED}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
