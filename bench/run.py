"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's ``src`` directory, never from an installed copy; without it the
command fails before printing a result.  Human-readable lines start with
``#``; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).
"""

import argparse
import json
import os
import signal
import sys

# One BLAS thread: the hot kernels are small matmuls, sorts and Python loops
# that gain nothing from a second thread, and a free core steadies timings.
# Set before numpy is first imported; it has no effect afterwards.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def main(argv=None):
    # SIGTERM unwinds like Ctrl-C, so a set-up interpreter that is running
    # is killed and waited for, and the run's output directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "retrodiff", "__init__.py")):
        print(f"error: no retrodiff sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, root]
    import retrodiff

    if os.path.dirname(os.path.abspath(retrodiff.__file__)) != \
            os.path.join(src, "retrodiff"):
        print(f"error: retrodiff imported from {retrodiff.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    from bench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), root)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
