"""The benchmark's workloads: inputs, the operation run through the CLI, and
the correctness gate each operation must pass.

A workload has three parts, all pure functions of their arguments:

* ``prepare(seed, index)`` builds the inputs of operation ``index`` of a run
  seeded with ``seed`` (the same pair always gives the same inputs);
* ``run(main, inputs)`` calls ``permotzkin.cli.main`` one or more times with
  stdout captured and returns the ``(exit code, stdout)`` of each call;
* ``check(inputs, outputs)`` returns ``""`` when every output is exactly
  right, or a one-line description of the first thing that is wrong.

The gates share no code with ``src/permotzkin``: ``verify`` records are read
back from JSON, the refined expansion is compared with a digest justified by
``test_perfbench.py``, and the statistics of a large permutation are
recomputed here by merge sort and a direct scan.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

Outputs = list[tuple[int, str]]


def call_cli(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str]:
    """One CLI call with stdout and stderr captured; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _exit_problem(outputs: Outputs) -> str:
    for index, (code, _) in enumerate(outputs, start=1):
        if code != 0:
            return f"call {index} exited with code {code}"
    return ""


# -- verify ---------------------------------------------------------------

VERIFY_ARGV = ["verify", "--max-n", "9", "--format", "json"]

#: The (check, n) records ``verify --max-n 9`` printed at the seed commit,
#: 103 in all.  A later version may add records but must keep these.
VERIFY_RECORDS = frozenset(
    (check, n)
    for check, ns in {
        "bijection": range(0, 9),
        "cardinality": range(0, 9),
        "refined-cf": range(0, 9),
        "depth-cf": range(0, 10),
        "imbalance-depth": range(1, 10),
        "imbalance-exc": range(1, 10),
        "involution": range(1, 9),
        "signed-gf": range(1, 10),
        "derangement-series": range(1, 10),
        "derangement-table": range(2, 10),
        "level-weights": range(0, 7),
        "depth-min-cost": range(0, 7),
    }.items()
    for n in ns
)


def check_verify(outputs: Outputs) -> str:
    """Every record passes, with identical texts, and none of the 103 is missing."""
    problem = _exit_problem(outputs)
    if problem:
        return problem
    try:
        records = json.loads(outputs[0][1])
        seen = {(record["check"], record["n"]) for record in records}
    except (ValueError, TypeError, KeyError):
        return "verify output is not a JSON array of records"
    for record in records:
        if record.get("status") != "pass" or record.get("expected") != record.get("computed"):
            return f"record {record['check']} n={record['n']} does not pass"
    missing = sorted(VERIFY_RECORDS - seen)
    if missing:
        return f"{len(missing)} records missing, first {missing[0]}"
    return ""


# -- expand-refined -------------------------------------------------------

EXPAND_ARGV = ["expand", "--preset", "refined", "--order", "14", "--format", "json"]

#: sha256 of the stdout of ``EXPAND_ARGV`` at the seed commit.  The tests
#: justify it: the series agrees with brute force through n = 8 and every
#: coefficient sums to n!.
EXPAND_SHA256 = "87a87e2dd19449698cf3c073c4d167cb60624da33106b98be4ae594e8e7284c1"


def check_expand(outputs: Outputs) -> str:
    problem = _exit_problem(outputs)
    if problem:
        return problem
    digest = hashlib.sha256(outputs[0][1].encode()).hexdigest()
    if digest != EXPAND_SHA256:
        return f"expand output digest {digest[:12]} differs from the reference"
    return ""


# -- large-perm -----------------------------------------------------------

LARGE_N = 4000


def random_images(seed: int, index: int, n: int = LARGE_N) -> tuple[list[int], str]:
    """A uniform random permutation of 1..n, fixed by (seed, index), with its
    one-line text."""
    images = list(range(1, n + 1))
    random.Random(f"large-perm:{seed}:{index}").shuffle(images)
    return images, " ".join(map(str, images))


def _merge_count(values: list[int]) -> tuple[list[int], int]:
    """Sort ``values`` by merging and count the inversions it undoes."""
    if len(values) <= 1:
        return values, 0
    middle = len(values) // 2
    left, left_inv = _merge_count(values[:middle])
    right, right_inv = _merge_count(values[middle:])
    merged: list[int] = []
    inv = left_inv + right_inv
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            inv += len(left) - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inv


def reference_stats(images: list[int]) -> tuple[int, int, int, int]:
    """(inv, fix, exc, depth), by merge sort and a direct scan."""
    inv = _merge_count(list(images))[1]
    fix = exc = dep = 0
    for position, value in enumerate(images, start=1):
        if value == position:
            fix += 1
        elif value > position:
            exc += 1
            dep += value - position
    return inv, fix, exc, dep


def run_large(main: Callable[[list[str]], int], text: str) -> Outputs:
    """stats, then encode, then decode of the encoded path."""
    outputs = [call_cli(main, ["stats", text])]
    outputs.append(call_cli(main, ["encode", text]))
    if outputs[-1][0] == 0:
        outputs.append(call_cli(main, ["decode", outputs[-1][1].strip()]))
    return outputs


def check_large(inputs: tuple[list[int], str], outputs: Outputs) -> str:
    images, text = inputs
    problem = _exit_problem(outputs)
    if problem:
        return problem
    inv, fix, exc, dep = reference_stats(images)
    expected = f"inv={inv}  fix={fix}  exc={exc}  depth={dep}\n"
    if outputs[0][1] != expected:
        return f"stats printed {outputs[0][1].strip()[:80]!r}, expected {expected.strip()!r}"
    if len(outputs) < 3 or outputs[2][1] != text + "\n":
        return "decode(encode(sigma)) differs from sigma"
    return ""


# -- registry -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, int], object]
    run: Callable[[Callable[[list[str]], int], object], Outputs]
    check: Callable[[object, Outputs], str]


WORKLOADS = {
    "verify": Workload(
        prepare=lambda seed, index: None,
        run=lambda main, _: [call_cli(main, VERIFY_ARGV)],
        check=lambda _, outputs: check_verify(outputs),
    ),
    "expand-refined": Workload(
        prepare=lambda seed, index: None,
        run=lambda main, _: [call_cli(main, EXPAND_ARGV)],
        check=lambda _, outputs: check_expand(outputs),
    ),
    "large-perm": Workload(
        prepare=random_images,
        run=lambda main, inputs: run_large(main, inputs[1]),
        check=check_large,
    ),
}
