"""Rewrite ``digests.json`` from the current package.

    python3 bench/record_digests.py

Run this only for a change that is meant to alter the output of
``prolong`` or ``analyze``, and say why in that change.  Each operation
must still pass the root oracle, or nothing is written.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
from run import _workdir  # noqa: E402


def record(name: str, workdir: str) -> dict:
    workload = harness.make_workload(name, harness.DIGEST_SEED, workdir, None)
    for op in workload.ops:
        out = op.run(None)
        if out.problems:
            sys.exit(f"{op.label}: {out.problems}; digests not written")
        op.gate(out, None)
        yield op.label, {
            "prolongation": harness.sha256(out.prolongation_text),
            "analysis": harness.analysis_digest(out.report),
        }
    if name == "rebased":
        yield "inputs", workload.inputs_digest


def main():
    workdir = _workdir()
    try:
        doc = {"table": dict(record("table", workdir)), "ladder": dict(record("ladder", workdir))}
        rebased = dict(record("rebased", workdir))
        doc["rebased"] = {"seed": harness.DIGEST_SEED, "inputs": rebased.pop("inputs"), "ops": rebased}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(harness.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
