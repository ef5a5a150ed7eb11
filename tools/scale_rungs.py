"""Seconds and peak memory of glap on the rungs past the classification table.

Each rung is one registry instance past the table's range (2p+q <= 8,
l <= 6), run through ``build``, ``full_prolongation`` and ``analyze`` in a
fresh Python process, one process at a time.  For each it records the
seconds of the three stages, the peak resident set size of that process,
the dimension, and whether the graded dimensions match
``roots.table_expectation`` of its own oracle key and parameters.  The
record goes to a JSON file, by default ``BENCH_range.json`` at the root of
the checkout, with the machine, the Python version, the commit (``git
describe --always --dirty``: "-dirty" when the tree has uncommitted
changes; null outside a git checkout) and host-speed reference
samples of ``bench/hostspeed.py`` (read, never changed) taken before and
after the rungs.

    python3 tools/scale_rungs.py [--out PATH]

Run from a source checkout; it times the package under its own ``src``.
The rungs are hh(1,14) (C16, dim 528) and hh(1,18) (C20, dim 820); one
rung alone, written ``TAG:k=v,...``, is timed in this process and
printed by ``--measure hh:p=1,q=22``.  It exits 1 when a rung's dims do not match the oracle or its process
fails, and 0 otherwise.  It is stdlib only and not part of the tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import hostspeed  # noqa: E402
from glap.analysis import analyze  # noqa: E402
from glap.families import FAMILIES, build, label  # noqa: E402
from glap.prolongation import full_prolongation  # noqa: E402
from glap.roots import table_expectation  # noqa: E402

RUNGS = ("hh:p=1,q=14", "hh:p=1,q=18")
STAGES = ("build", "prolong", "analyze")


def parse_rung(text: str) -> tuple[str, dict[str, int]]:
    """``TAG:k=v,...`` as (tag, params)."""
    tag, _, rest = text.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        params[key] = int(value)
    return tag, params


def measure(tag: str, params: dict[str, int]) -> dict:
    """One rung in this process: stage seconds, dims, the oracle's verdict
    and the peak RSS so far, in MB."""
    seconds = {}
    t0 = time.perf_counter()
    fam = build(tag, **params)
    seconds["build"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    prol = full_prolongation(fam.m, fam.g)
    seconds["prolong"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    analyze(prol)
    seconds["analyze"] = time.perf_counter() - t0
    dims = prol.dims_by_degree()
    expected = table_expectation(FAMILIES[tag].oracle, **params).dims
    return {
        "instance": label(tag, params),
        "dim": prol.algebra.n,
        "dims": {str(d): n for d, n in dims.items()},
        "dims_match_oracle": dims == expected,
        "seconds": {s: round(seconds[s], 3) for s in STAGES},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def run_rung(text: str) -> dict:
    """``measure`` of one rung in a fresh process."""
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", text],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return {"instance": text, "error": done.stderr.strip().splitlines()[-1:]}
    return json.loads(done.stdout)


def reference_sample() -> float:
    """One ``bench/hostspeed.py`` reference sample, in seconds."""
    return round(hostspeed.reference_seconds(), 5)


def commit() -> str | None:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_range.json"))
    ap.add_argument("--measure", metavar="TAG:k=v,...", help="time one rung in this process")
    args = ap.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(*parse_rung(args.measure))))
        return 0
    before = reference_sample()
    rungs = []
    for text in RUNGS:
        rec = run_rung(text)
        rungs.append(rec)
        print(json.dumps(rec), flush=True)
    doc = {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "commit": commit(),
        "hostspeed": {"reference_seconds": [before, reference_sample()],
                      "REF_SECONDS": hostspeed.REF_SECONDS},
        "rungs": rungs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    ok = all(rec.get("dims_match_oracle") for rec in rungs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
