"""Reach report: the top of the supported parameter range, once each.

    python3 bench/reach.py [--timeout SECONDS]

Not part of the gated benchmark.  Each rung (build, prolong, analyze,
oracle check) runs once in its own process under a per-rung timeout; a rung
that runs out of time is reported as a timeout, never dropped.  The report
is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

RUNGS = (
    [("hh", {"p": 1, "q": q}) for q in (4, 5, 6)]
    + [("hh-split", {"p": 1, "q": q}) for q in (4, 5, 6)]
    + [("hc", {"p": p, "q": 8 - 2 * p}) for p in (1, 2, 3, 4)]
    + [("bi", {"l": 6})]
)


def parse_rung(text: str):
    tag, _, rest = text.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        k, _, v = item.partition("=")
        params[k] = int(v)
    return tag, params


def rung_text(tag: str, params: dict) -> str:
    return tag + ":" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def run_child(text: str) -> dict:
    """Run one rung in this process and return its stage times."""
    sys.path.insert(0, SRC)
    import harness
    from glap.analysis import analyze
    from glap.families import build
    from glap.prolongation import full_prolongation

    tag, params = parse_rung(text)
    stages = {}
    t = time.perf_counter()
    fam = build(tag, **params)
    stages["build_s"] = time.perf_counter() - t
    t = time.perf_counter()
    prol = full_prolongation(fam.m, fam.g)
    stages["prolong_s"] = time.perf_counter() - t
    t = time.perf_counter()
    rep = analyze(prol).to_json_dict()
    stages["analyze_s"] = time.perf_counter() - t
    bad = harness.oracle_mismatches(fam.oracle_key(), rep, None)
    return {"dim": prol.total_dim(), "stages": stages, "oracle_mismatches": bad}


def run_rung(tag: str, params: dict, timeout: float) -> dict:
    text = rung_text(tag, params)
    entry = {"rung": text, "timeout_s": timeout}
    cmd = [sys.executable, os.path.abspath(__file__), "--child", text]
    t = time.perf_counter()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        entry.update(status="timeout", seconds=time.perf_counter() - t)
        return entry
    entry["seconds"] = time.perf_counter() - t
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        entry.update(status="error", exit_code=done.returncode, error=tail[0])
        return entry
    child = json.loads(lines[-1])
    entry.update(child)
    entry["status"] = "mismatch" if child["oracle_mismatches"] else "ok"
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="reach report for the top of the ladder")
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds per rung")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(args.child)))
        return 0
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rungs": [],
    }
    for tag, params in RUNGS:
        entry = run_rung(tag, params, args.timeout)
        print(f"{entry['rung']}: {entry['status']} {entry['seconds']:.1f} s", file=sys.stderr)
        report["rungs"].append(entry)
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
