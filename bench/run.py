"""The glap benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload table|ladder|rebased [--seed N]
                         [--seconds S] [--trace 0|1] [--trace-out PATH]
    python3 bench/run.py --workload all      # each workload in a fresh process

Run it from the root of a source checkout; it imports the package from
``src/`` there and exits with code 2 when there is none.

Workloads (a closed loop in one single-threaded process, one operation
after another):

* ``table``: the 14 rows of ``glap verify-table`` in the native basis of
  ``families.build``.
* ``ladder``: larger native-basis rungs, where the dense degree-0
  commutators do most of the work.
* ``rebased``: verify-table's matrix families, bi(3), bi(4), g2 and the
  counterexample after a seeded unimodular change of basis (see
  ``rebase.py``), run through ``glap prolong`` and ``glap analyze`` on files.

The seed only changes the inputs of ``rebased``; the other two are fixed.

With ``--trace 0`` the run repeats whole passes over the workload for about
``--seconds`` and reports, by name and unit:

* ``wall_s``: one pass, as the sum over operations of each operation's
  lower median time over the passes made;
* ``op_max_s``: the slowest operation, by the same per-operation time;
* ``setup_s``: import plus input generation, scaled by one reference
  sample taken after it, the median of this process and
  ``SETUP_SAMPLES - 1`` fresh processes doing the same;
* ``peak_rss_mb``: this process's ``ru_maxrss``.

Times are seconds at reference speed: each is measured next to a fixed
reference computation and scaled by how much slower or faster than usual
the host ran that meanwhile (see ``hostspeed.py``).  The measured times
are printed too.

With ``--trace 1`` it alternates plain and staged passes, with spans around
each call into the package (see ``harness.py``), and reports the per-layer
metrics as the lower median over the staged passes, plus
``trace.overhead_s``: the staged minus the plain ``wall_s``.

Every pass checks every operation (root oracle, output digests, counts);
the last line of output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("table", "ladder", "rebased")
SETUP_SAMPLES = 5
PER_LAYER_UNITS = {"algebra.max_coeff_bits": "bits"}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="write the spans of the staged passes here (JSON)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "glap", "__init__.py")):
        print(f"error: no glap package under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import harness

    return harness


def _workdir() -> str:
    base = os.path.join(ROOT, ".bench_build")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="glap-bench-", dir=base)


def _setup_sample(args) -> dict:
    """One more fresh process doing this run's set-up; returns its time and
    the digest of the inputs it generated."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-only",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _write_trace(path, traced, workload, seed):
    doc = {"workload": workload, "seed": seed, "passes": []}
    for p in traced:
        doc["passes"].append({"spans": p.tracer.spans, "counts": p.tracer.counts})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def run_workload(args) -> int:
    harness = _import_package()
    workdir = _workdir()
    try:
        workload = harness.make_workload(args.workload, args.seed, workdir, harness.load_digests())
        setup_main = hostspeed.at_reference_speed(
            time.perf_counter() - T_START, hostspeed.reference_seconds()
        )
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main, "inputs": workload.inputs_digest}))
            return 0
        samples = [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        if any(s["inputs"] != workload.inputs_digest for s in samples):
            for op in workload.ops:
                op.setup_problems.append(f"inputs differ between set-ups of seed {args.seed}")
        setup_s = statistics.median([setup_main] + [s["setup_s"] for s in samples])

        plain, traced = [], []
        t0 = time.perf_counter()
        while True:
            plain.append(harness.run_pass(workload, traced=False))
            if args.trace:
                traced.append(harness.run_pass(workload, traced=True))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(plain) > args.seconds:
                break

        passes = plain + traced
        harness.check_counts(passes)
        attempted = sum(len(p.records) for p in passes)
        failed = 0
        for p in passes:
            for rec in p.records:
                if rec.problems:
                    failed += 1
                    print(f"FAIL {rec.label}: {'; '.join(rec.problems)}", file=sys.stderr)

        if args.trace:
            metrics = {}
            layers = [harness.per_layer(p) for p in traced]
            for name in layers[0]:
                unit = PER_LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")
                metrics[name] = {"value": statistics.median_low(l[name] for l in layers), "unit": unit}
            overhead = sum(harness.op_times(traced)) - sum(harness.op_times(plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
            if args.trace_out:
                _write_trace(args.trace_out, traced, args.workload, args.seed)
        else:
            per_op = harness.op_times(plain)
            metrics = {
                "wall_s": {"value": sum(per_op), "unit": "s"},
                "op_max_s": {"value": max(per_op), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes: {len(plain)} plain, {len(traced)} staged"
    )
    print(f"ops_failed_frac = {failed / attempted} ({failed} of {attempted} operations)")
    refs = [r.ref for p in passes for r in p.records]
    print(
        f"reference sample: median {statistics.median(refs)} s, "
        f"{hostspeed.REF_SECONDS} s at reference speed"
    )
    measured = harness.op_times(plain, scaled=False)
    print(f"measured wall_s = {sum(measured)} s, op_max_s = {max(measured)} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
