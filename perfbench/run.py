"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: construction-sweep, tiny-cells,
serve-memo, batch-population (see README.md beside this file).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 332, "failed": 0,
     "metrics": {"cells_per_s": {"value": 29.1, "unit": "1/s"}, ...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced pass, whose spans are also written
to ``.perfbench-traces/<workload>-seed<N>.jsonl``.  The exit code is 0 only
when every output was right; it is 2, with no JSON line, when the repository
sources are missing.  Temporary caches and run directories live under
``.perfbench-work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from workloads import WORKLOADS, Context, run_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2

    # One BLAS thread per process, set before numpy is first imported; the
    # server and set-up subprocesses inherit it.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    sys.path.insert(0, SRC)

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        src_dir=SRC,
    )
    try:
        result = run_workload(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is still using it

    if result.recorder is not None:
        trace_dir = os.path.join(ROOT, ".perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        result.recorder.write(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    for line in result.details:
        print(line)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
