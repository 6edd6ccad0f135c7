#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload tsp-jit --seed 1 --seconds 15 --trace 0

Prints every metric by name with its unit, then, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, the
``per_layer`` ones with ``--trace 1``).  Exits 1 when an output was
incorrect, 2 when the program sources are missing or the arguments are
bad.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall seconds of ops to measure (every panel "
                        "member runs at least once)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if "PYTHONHASHSEED" not in os.environ:
        # String-hash randomization alone moves raytracer-interp's run_s
        # by up to 1.6x between processes (dict layouts in the
        # interpreter's hot path); fix it so runs differ only by input.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from measure import measure, report_lines, write_trace
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    # The proc backend makes (and removes) its socket directory with
    # tempfile; keep it inside the checkout.  A relative path keeps unix
    # socket paths short whatever the checkout's location.
    tmp = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp, exist_ok=True)
    tempfile.tempdir = os.path.relpath(tmp)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    finally:
        tempfile.tempdir = None
        try:
            os.rmdir(tmp)
        except OSError:
            pass  # another run in this checkout still uses it
    for line in report_lines(result):
        print(line)
    if args.trace:
        path = write_trace(result, os.path.join(ROOT, ".perfbench_out"))
        print(f"# trace aggregates written to {os.path.relpath(path)}")
    print(result.line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
