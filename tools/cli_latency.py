"""Wall time of one-shot glap commands, each in a fresh process.

It times three commands, each started as ``python -m glap`` in a new
interpreter, so every run pays the import and every per-process set-up:

- ``verify-table --summary``: the whole classification table;
- ``analyze --summary`` on the prolongation of ``hh(1,2)``, which it
  writes to a temporary directory first (untimed);
- ``oracle --family HH --p 1 --q 2``: one root-side table row.

    python3 tools/cli_latency.py --runs 8

Run from the root of a source checkout; the package is imported from
``src/``.  The commands alternate within each run, so a drift of the
machine spreads over all three.  It prints each command's median and
quartiles over ``--runs`` in seconds, as measured and at reference speed,
and exits 1 if any command fails.  The second scales each run by the
benchmark's host-speed reference (``bench/hostspeed.py``): a reference
sample is timed in this process right before and right after the run,
and the run's seconds are scaled by ``REF_SECONDS`` over their mean.  On
a shared host whose speed drifts, compare those.
The environment is handed on as it is: under ``PYTHONDONTWRITEBYTECODE=1``
every run byte-compiles the package again, which is most of the import.
Stdlib only; not part of the tests.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from hostspeed import at_reference_speed, reference_seconds  # noqa: E402


def _glap(argv, cwd) -> tuple[float, subprocess.CompletedProcess]:
    """Seconds and result of ``python -m glap argv`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "glap", *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, proc


def _quartiles(xs) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=8, help="timed runs of each command")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "hh12")
        prol = prefix + ".prol.json"
        for setup in (["build", "--family", "hh", "--p", "1", "--q", "2", "--out", prefix],
                      ["prolong", prefix + ".m.json", prefix + ".g.json", "--out", prol]):
            _, proc = _glap(setup, tmp)
            if proc.returncode:
                print(f"set-up {setup[0]} exited {proc.returncode}: {proc.stderr.strip()}")
                return 1
        commands = {
            "verify-table": ["verify-table", "--summary"],
            "analyze": ["analyze", "--summary", prol],
            "oracle": ["oracle", "--family", "HH", "--p", "1", "--q", "2"],
        }
        times = {name: [] for name in commands}
        scaled = {name: [] for name in commands}
        failed = set()
        for _ in range(args.runs):
            for name, cmd in commands.items():
                before = reference_seconds()
                seconds, proc = _glap(cmd, tmp)
                ref = (before + reference_seconds()) / 2
                times[name].append(seconds)
                scaled[name].append(at_reference_speed(seconds, ref))
                if proc.returncode:
                    failed.add(name)
                    print(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
    for name, xs in times.items():
        q1, med, q3 = _quartiles(xs)
        r1, rmed, r3 = _quartiles(scaled[name])
        print(f"{name}: median {med:.3f} s [{q1:.3f}, {q3:.3f}], at reference speed "
              f"{rmed:.3f} s [{r1:.3f}, {r3:.3f}] over {len(xs)} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
