"""One benchmark pass, in a fresh interpreter started by ``run.py``.

The pass imports permotzkin from the checkout's ``src/``, builds the inputs
of one operation, runs it through ``permotzkin.cli.main`` with stdout
captured, checks every output, and prints one JSON line.  ``--started`` is
the CLOCK_MONOTONIC reading taken just before the interpreter was launched,
so ``setup_s`` covers interpreter start, imports and input generation.
With ``--trace 1`` the operation runs under ``tracing.Tracer``; with
``--setup-only`` the pass reports ``setup_s`` and stops before the operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop once set up")
    args = parser.parse_args()

    from permotzkin import cli

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.index)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    try:
        outputs = workload.run(cli.main, inputs)
    except Exception:
        traceback.print_exc()
        outputs = None
    op_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "setup_s": setup_s,
        "op_s": op_s,
        "peak_rss_mb": peak_rss_mb,
        "problem": "the operation raised" if outputs is None else workload.check(inputs, outputs),
        "stdout_sha256": hashlib.sha256(
            "\0".join(out for _, out in outputs or []).encode()
        ).hexdigest(),
    }
    if tracer:
        report["layers"] = tracer.metrics(op_s)
        report["spans"] = tracer.span_table()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
