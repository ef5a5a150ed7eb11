"""Seconds-long self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that a wrong output digest fails an operation instead of passing
or crashing, that the rebased inputs are byte-identical for a seed and
change with it, that each rebased input passes its certificates, that
a staged (traced) pass reproduces the plain pass's outputs and counts, and
that reference samples are taken during a timed stretch and kept out of
its time.
Exits 0 when every check holds, 1 otherwise.
"""

import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import harness  # noqa: E402
import hostspeed  # noqa: E402
from run import _workdir  # noqa: E402

SMALL_ROWS = ("hc(p=1,q=1)", "bi(l=2)", "g2", "counterexample")
SMALL_REBASED = ("hc(p=1,q=1)", "hh-split(p=1,q=1)", "bi(l=3)", "counterexample")


def _only(workload, labels):
    return harness.Workload(
        workload.name, [op for op in workload.ops if op.label in labels], workload.inputs_digest
    )


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _failures(p):
    return [(r.label, r.problems) for r in p.records if r.problems]


def _host_checks():
    """Reference samples every PERIOD seconds, none of it on work_clock."""
    busy = 4 * hostspeed.PERIOD
    t0, w0 = time.perf_counter(), hostspeed.work_clock()
    with hostspeed.Sampler() as host:
        end = hostspeed.work_clock() + busy
        while hostspeed.work_clock() < end:
            pass
    wall = time.perf_counter() - t0
    work = hostspeed.work_clock() - w0
    return [
        ("the sampler samples during a stretch", len(host.samples) >= 4),
        ("reference samples are kept out of the time", abs(work - busy) < 0.02 < wall - work),
    ]


def main() -> int:
    digests = harness.load_digests()
    checks = _host_checks()
    dirs = [_workdir() for _ in range(3)]
    try:
        table = _only(harness.make_workload("table", 0, dirs[0], digests), SMALL_ROWS)
        plain = harness.run_pass(table, traced=False)
        checks.append(("table rows pass", not _failures(plain)))
        staged = [harness.run_pass(table, traced=True) for _ in range(2)]
        checks.append(("staged passes pass", not any(_failures(p) for p in staged)))
        harness.check_counts([plain] + staged)
        checks.append(("counts repeat exactly", not any(_failures(p) for p in [plain] + staged)))
        checks.append(
            (
                "staged counts are recorded",
                all(staged[0].tracer.counts.get(lab) for lab in SMALL_ROWS),
            )
        )

        table.ops[0].digests = {"prolongation": "0" * 64, "analysis": "0" * 64}
        wrong = harness.run_pass(table, traced=False)
        checks.append(
            (
                "a wrong digest fails exactly its operation",
                [lab for lab, _ in _failures(wrong)] == [table.ops[0].label],
            )
        )

        a = harness.make_workload("rebased", 5, dirs[1], digests)
        b = harness.make_workload("rebased", 5, dirs[2], digests)
        same_bytes = all(
            _read(x.m_path) == _read(y.m_path) and _read(x.g_path) == _read(y.g_path)
            for x, y in zip(a.ops, b.ops)
        )
        checks.append(("rebase is deterministic per seed", same_bytes and a.inputs_digest == b.inputs_digest))
        checks.append(("rebased inputs are certified", not any(op.setup_problems for op in a.ops)))
        shutil.rmtree(dirs[2], ignore_errors=True)
        os.makedirs(dirs[2])
        c = harness.make_workload("rebased", 6, dirs[2], digests)
        checks.append(("another seed gives other inputs", c.inputs_digest != a.inputs_digest))

        small = _only(a, SMALL_REBASED)
        plain = harness.run_pass(small, traced=False)
        staged = harness.run_pass(small, traced=True)
        checks.append(("rebased plain pass passes", not _failures(plain)))
        checks.append(("rebased staged pass matches the command", not _failures(staged)))
        harness.check_counts([plain, staged])
        checks.append(("rebased counts repeat exactly", not _failures(plain) + _failures(staged)))
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)

    for name, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
