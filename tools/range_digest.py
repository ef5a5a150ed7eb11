"""One digest of glap's outputs over the whole supported range.

For every instance of the family registry (``families.FAMILIES``, 69 of
them) it hashes what ``build`` hands out (m, g, the ambient and the Cartan
tag, an int), the serialized prolongation and the analysis report.  For
the benchmark's rebased inputs at seeds 0 and 7 (``bench/rebase.py``, read
and left as it is) it hashes the prolongation and the report.  The SHA-256
over all of them is compared with ``EXPECTED``: a change that should leave
every output byte-identical must leave it equal.

    python3 tools/range_digest.py

Run from the root of a source checkout.  It prints one digest per instance,
each followed by the seconds that instance spent in ``build`` (for a
rebased instance: ``build`` and the change of basis), ``full_prolongation``
and ``analyze``; then the total digest, and last the seconds of each stage
summed over all instances and of the whole run.  It exits 0 when the total
matches and 1 when it does not.  It takes about 4.9 s on 2 vCPUs (Python
3.11) and is not part of the tests.
"""

import hashlib
import json
import os
import sys
import time

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


def _outputs(m, g) -> tuple[list[str], float, float]:
    """The prolongation of (m, g) and its analysis report, as text, and the
    seconds of ``full_prolongation`` and of ``analyze``."""
    t0 = time.perf_counter()
    prol = full_prolongation(m, g)
    t1 = time.perf_counter()
    report = analyze(prol)
    t2 = time.perf_counter()
    texts = [prol.serialize(), json.dumps(report.to_json_dict(), sort_keys=True)]
    return texts, t1 - t0, t2 - t1


def digests():
    """(name, texts, seconds of build, prolong and analyze) of every
    instance, in a fixed order."""
    for spec in FAMILIES.values():
        for params in spec.instances:
            t0 = time.perf_counter()
            fam = build(spec.tag, **params)
            built = time.perf_counter() - t0
            ambient = fam.ambient.serialize() if fam.ambient is not None else "none"
            cartan = str(fam.cartan) if fam.cartan is not None else "none"
            texts = [fam.m.serialize(), fam.g.serialize(), ambient, cartan]
            out, prolonged, analyzed = _outputs(fam.m, fam.g)
            yield label(spec.tag, params), texts + out, (built, prolonged, analyzed)
    for seed in SEEDS:
        for tag, params in REBASED:
            t0 = time.perf_counter()
            fam = build(tag, **params)
            name = label(tag, params)
            m, g = rebase(fam.m, fam.g, instance_rng(seed, name))
            built = time.perf_counter() - t0
            out, prolonged, analyzed = _outputs(m, g)
            yield f"{name} rebased {seed}", out, (built, prolonged, analyzed)


STAGES = ("build", "prolong", "analyze")


def main() -> int:
    start = time.perf_counter()
    total = hashlib.sha256()
    count = 0
    sums = [0.0] * len(STAGES)
    for name, texts, seconds in digests():
        h = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        print(f"{h}  {name}", flush=True)
        print("    " + "  ".join(f"{s} {t:.3f} s" for s, t in zip(STAGES, seconds)))
        total.update(f"{name}\0{h}\n".encode())
        count += 1
        sums = [a + t for a, t in zip(sums, seconds)]
    got = total.hexdigest()
    ok = got == EXPECTED
    print(f"{got}  total over {count} instances: {'match' if ok else 'MISMATCH, expected ' + EXPECTED}")
    stages = "  ".join(f"{s} {t:.2f} s" for s, t in zip(STAGES, sums))
    print(f"seconds over all instances: {stages}; whole run {time.perf_counter() - start:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
