"""The permotzkin benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Every operation runs in a fresh interpreter (``one_pass.py``) and goes
through ``permotzkin.cli.main`` as a user's command would.  Passes run one
after another, in a closed loop, until the next one could end past
``--seconds`` (judged by the slowest so far); at least one always runs.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes on the same inputs,
reports the per-layer metrics, fails any traced pass whose stdout differs
from its untraced twin, and writes the span tables to ``perfbench/out/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_PASS = HERE / "one_pass.py"
OUT = HERE / "out"

#: A run must end within 180 s; passes are cut off a little before that.
RUN_DEADLINE_S = 170.0

#: Set-up-only passes at the start of an untraced run, so that ``setup_s`` is
#: a median of several samples even when operations are long.
SETUP_PROBES = 5


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(
    workload: str, seed: int, index: int, trace: int, timeout: float, setup_only: bool = False
) -> dict:
    """One operation in a fresh interpreter; a report with ``problem`` set on failure."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [
        sys.executable, "-I", str(ONE_PASS),
        "--workload", workload, "--seed", str(seed), "--index", str(index),
        "--trace", str(trace), "--started", repr(started),
    ] + ["--setup-only"] * setup_only  # fmt: skip
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"problem": f"pass timed out after {timeout:.0f} s", "timed_out": True}
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return {"problem": f"pass exited with code {proc.returncode}"}
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"problem": "pass printed no report"}


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest of the 99th, 95th, 90th, 75th and 50th percentiles (nearest
    rank) with at least 10 samples above it, or None for too few samples."""
    ordered = sorted(values)
    for percentile in (99, 95, 90, 75, 50):
        rank = math.ceil(percentile / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return percentile, ordered[rank - 1]
    return None


def run_workload(
    workload: str, seed: int, seconds: float, trace: int
) -> tuple[list[float], list[dict], list[dict]]:
    """Run passes for ``seconds``; returns (set-up probe times, plain reports,
    traced reports)."""
    begin = time.perf_counter()
    deadline = begin + RUN_DEADLINE_S
    probes = [
        run_pass(workload, seed, index, 0, deadline - time.perf_counter(), setup_only=True)
        for index in range(0 if trace else SETUP_PROBES)
    ]
    plain: list[dict] = []
    traced: list[dict] = []
    unit_s: list[float] = []
    while True:
        unit_start = time.perf_counter()
        index = len(plain)
        plain.append(run_pass(workload, seed, index, 0, deadline - unit_start))
        if trace:
            traced.append(run_pass(workload, seed, index, 1, deadline - time.perf_counter()))
            if not traced[-1]["problem"] and traced[-1].get("stdout_sha256") != plain[-1].get(
                "stdout_sha256"
            ):
                traced[-1]["problem"] = "traced stdout differs from untraced stdout"
        unit_s.append(time.perf_counter() - unit_start)
        if any(report.get("timed_out") for report in plain[-1:] + traced[-1:]):
            break
        if time.perf_counter() - begin + max(unit_s) > seconds:
            break
    return [probe["setup_s"] for probe in probes if "setup_s" in probe], plain, traced


def summarize(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """Run one workload, print what it measured, and return the result object."""
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}[workload]
    env = {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "why": why,
    }
    print("env " + json.dumps(env))
    setup_probes, plain, traced = run_workload(workload, seed, seconds, trace)
    reports = plain + traced
    failed = [report for report in reports if report.get("problem")]
    for report in failed:
        print(f"failed: {report['problem']}")
    print(f"fail_ratio = {len(failed)}/{len(reports)} = {len(failed) / len(reports):.4f}")

    timed = [report for report in plain if "op_s" in report]
    if not timed:
        raise BenchmarkError(f"{workload}: no pass produced a timing")
    values: dict[str, float] = {
        name: statistics.median(report[name] for report in timed) for name in ("op_s", "peak_rss_mb")
    }
    values["setup_s"] = statistics.median(setup_probes + [report["setup_s"] for report in timed])
    op_times = [report["op_s"] for report in timed]
    percentile = tail(op_times)
    if percentile:
        print(f"op_s_tail = p{percentile[0]} {percentile[1]:.6f} s of {len(op_times)} operations")
    else:
        print(f"op_s_tail not reported: {len(op_times)} operations, at least 20 needed")

    layer_reports = [report for report in traced if "layers" in report]
    if trace:
        if not layer_reports:
            raise BenchmarkError(f"{workload}: no traced pass produced a report")
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(
            json.dumps([report["spans"] for report in layer_reports], indent=1)
        )
        print(f"span tables written to {trace_file.relative_to(ROOT)}")
        traced_op_s = statistics.median(report["op_s"] for report in layer_reports)
        values["trace_overhead_s"] = traced_op_s - values["op_s"]
        for name in layer_reports[0]["layers"]:
            values[name] = statistics.median(report["layers"][name] for report in layer_reports)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in values:
            raise BenchmarkError(f"metric {entry['name']} is not measured")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        if not trace:
            print(f"{entry['name']} = {values[entry['name']]:.6f} {entry['unit']}")
    return {
        "correct": not failed,
        "attempted": len(reports),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all", file=sys.stderr)
        return 2
    src = ROOT / "src" / "permotzkin"
    if not (src / "cli.py").is_file():
        print(f"error: {src.relative_to(ROOT)} is missing; run from a permotzkin checkout", file=sys.stderr)
        return 2
    # Byte-compile once, as an installed package is, so no pass pays for it.
    compileall.compile_dir(src, quiet=1)

    selected = names if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in selected:
            results[workload] = summarize(workload, args.seed, args.seconds, args.trace, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(selected) == 1:
        result = results[selected[0]]
    else:
        for workload, result in results.items():
            print(f"result {workload} {json.dumps(result)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}.{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
