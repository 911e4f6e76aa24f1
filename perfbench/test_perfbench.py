"""Tests of the benchmark itself: its gates, its reference digest, its tracer
and its command.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

from permotzkin import cli  # noqa: E402
from permotzkin.jfraction import brute_force_gf  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def value_at_ones(text: str) -> int:
    """A polynomial printed by MultiPoly, evaluated at q = p = s = t = 1."""
    total = 0
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        head = term.lstrip("-").split("*")[0]
        total += sign * (int(head) if head.isdigit() else 1)
    return total


def test_expand_digest_is_the_true_series():
    code, out = workloads.call_cli(cli.main, workloads.EXPAND_ARGV)
    assert code == 0
    assert workloads.check_expand([(code, out)]) == ""
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(range(15))
    for row in rows:
        assert value_at_ones(row["coefficient"]) == math.factorial(row["n"])
    for row in rows[:9]:
        assert row["coefficient"] == str(brute_force_gf(row["n"]))


def test_value_at_ones_reads_signs_and_coefficients():
    assert value_at_ones("3*q^2*p - s + 2 - 7*t") == -3
    assert value_at_ones("-q + 1") == 0


def test_expand_gate_rejects_other_output():
    assert workloads.check_expand([(0, "[]\n")]) != ""
    assert workloads.check_expand([(2, "")]) != ""


def verify_output(records: list[dict]) -> list[tuple[int, str]]:
    return [(0, json.dumps(records))]


def passing_records() -> list[dict]:
    return [
        {"check": check, "n": n, "expected": "x", "computed": "x", "status": "pass"}
        for check, n in sorted(workloads.VERIFY_RECORDS)
    ]


def test_verify_gate_accepts_the_seed_records():
    assert len(workloads.VERIFY_RECORDS) == 103
    assert workloads.check_verify(verify_output(passing_records())) == ""


@pytest.mark.parametrize(
    "tamper",
    [
        lambda records: records[5].update(status="fail"),
        lambda records: records[7].update(computed="y"),
        lambda records: records.pop(),
    ],
    ids=["failed-record", "mismatched-texts", "missing-record"],
)
def test_verify_gate_rejects_tampered_records(tamper):
    records = passing_records()
    tamper(records)
    assert workloads.check_verify(verify_output(records)) != ""


def test_verify_gate_rejects_bad_exit_and_bad_json():
    assert workloads.check_verify([(1, json.dumps(passing_records()))]) != ""
    assert workloads.check_verify([(0, "not json")]) != ""
    assert workloads.check_verify([(0, "[1, 2]")]) != ""


def naive_stats(images: list[int]) -> tuple[int, int, int, int]:
    n = len(images)
    inv = sum(1 for i, j in itertools.combinations(range(n), 2) if images[i] > images[j])
    fix = sum(1 for i, v in enumerate(images, 1) if v == i)
    exc = sum(1 for i, v in enumerate(images, 1) if v > i)
    dep = sum(v - i for i, v in enumerate(images, 1) if v > i)
    return inv, fix, exc, dep


def test_reference_stats_match_a_naive_count():
    rng = random.Random(7)
    for n in (0, 1, 2, 5, 31, 200):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        assert workloads.reference_stats(images) == naive_stats(images)


def test_large_perm_inputs_depend_only_on_seed_and_index():
    assert workloads.random_images(4, 2) == workloads.random_images(4, 2)
    assert workloads.random_images(4, 2) != workloads.random_images(5, 2)
    assert sorted(workloads.random_images(4, 2)[0]) == list(range(1, workloads.LARGE_N + 1))


def test_large_perm_gate_checks_stats_and_round_trip():
    inputs = workloads.random_images(1, 0, n=300)
    outputs = workloads.run_large(cli.main, inputs[1])
    assert workloads.check_large(inputs, outputs) == ""
    wrong_stats = [(0, outputs[0][1].replace("inv=", "inv=1")), *outputs[1:]]
    assert workloads.check_large(inputs, wrong_stats) != ""
    swapped = inputs[1].split()
    swapped[0], swapped[1] = swapped[1], swapped[0]
    wrong_decode = [*outputs[:2], (0, " ".join(swapped) + "\n")]
    assert workloads.check_large(inputs, wrong_decode) != ""


def cli_stdout(argvs: list[list[str]]) -> list[str]:
    return [workloads.call_cli(cli.main, argv)[1] for argv in argvs]


def test_traced_stdout_is_identical_and_every_layer_metric_is_measured():
    text = workloads.random_images(2, 0, n=60)[1]
    path = workloads.call_cli(cli.main, ["encode", text])[1].strip()
    argvs = [
        ["verify", "--max-n", "6", "--format", "json"],
        ["expand", "--preset", "refined", "--order", "8", "--format", "json"],
        ["stats", text],
        ["encode", text],
        ["decode", path],
    ]
    original_main = cli.main
    plain = cli_stdout(argvs)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original_main
        traced = cli_stdout(argvs)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert traced == plain

    values = tracer.metrics(op_s=100.0)
    wanted = {entry["name"] for entry in SPEC["per_layer"]} - {"trace_overhead_s"}
    assert wanted <= set(values)
    assert values["permutations.iter_group.items"] > 0
    assert values["algebra.MultiPoly.mul.peak_terms"] > 0
    assert values["motzkin.WeightedMotzkinPath.from_text.self_s"] > 0
    assert 0 < values["unattributed_s"] < 100.0
    for name, span in tracer.spans.items():
        assert span.self_s <= span.total_s + 1e-9, name


def run_main(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_reports_every_metric_of_its_mode(trace):
    result = run_main("--workload", "large-perm", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in section]
    for entry in section:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail([1.0] * 19) is None
    assert run.tail([float(i) for i in range(1, 21)]) == (50, 10.0)
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)


def test_benchmark_json_matches_the_harness():
    assert [entry["name"] for entry in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    readme = (HERE / "README.md").read_text()
    for entry in SPEC["per_layer"]:
        assert f"`{entry['name']}`" in readme, entry["name"]
