"""Benchmark of the cohcert command line, driven in-process.

Usage, from the root of a source checkout:

    python3 cohbench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 cohbench/run.py --selfcheck

One process with one BLAS thread calls `cohcert.cli.main(argv)` in a closed
loop, one operation at a time, repeating whole rounds of the workload's
operations until the run length has passed.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are end to end; with --trace 1 the run is traced
and the metrics are per layer.  A fuller record of the run, with the
machine, library versions and source revision, goes to
cohbench/out/result-<workload>-trace<0|1>.json.  See README.md.
"""

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "drift", "tables", "approx")
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true",
                   help="run every workload at a small size with all output checks")
    args = p.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        p.error("--workload is required unless --selfcheck is given")
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Thread counts and hash seed must be fixed before the interpreter and
    # numpy start, so re-execute once with them pinned.
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {**os.environ, **PINNED_ENV}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if not (SRC / "cohcert" / "cli.py").is_file():
        print(f"error: no cohcert source tree at {SRC / 'cohcert'}", file=sys.stderr)
        return 2
    import harness

    if args.selfcheck:
        return harness.selfcheck()
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
