import subprocess
import sys
from pathlib import Path

import pytest

from permotzkin import identities, verify
from permotzkin.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

# check -> (first n, last n): what each check covers when --max-n allows it.
# Written out here rather than read from verify, so a changed range shows.
SPANS = {
    "bijection": (0, 8),
    "cardinality": (0, 8),
    "refined-cf": (0, 8),
    "depth-cf": (0, 9),
    "imbalance-depth": (1, 9),
    "imbalance-exc": (1, 9),
    "involution": (1, 8),
    "signed-gf": (1, 9),
    "derangement-series": (1, 9),
    "level-weights": (0, 6),
    "depth-min-cost": (0, 6),
}


def expected_keys(max_n: int) -> set[tuple[str, int]]:
    keys = {
        (check, n)
        for check, (first, last) in SPANS.items()
        for n in range(first, min(last, max_n) + 1)
    }
    # the anchor table always has its rows 2..9, whatever max_n is
    return keys | {("derangement-table", n) for n in range(2, 10)}


@pytest.mark.parametrize("max_n", range(10))  # every max_n verify accepts
def test_record_set_follows_the_declared_ranges(max_n):
    records = verify.run_checks(max_n=max_n)
    keys = [(record.check, record.n) for record in records]
    assert len(keys) == len(set(keys))
    assert set(keys) == expected_keys(max_n)
    assert all(record.passed for record in records)


def test_runner_fails_exactly_the_record_whose_texts_differ(capsys, monkeypatch):
    check, covers = verify.CHECK_TABLE["signed-gf"]

    def broken(n):
        expected, computed = check(n)
        return (expected, computed + " + 1") if n == 3 else (expected, computed)

    monkeypatch.setitem(verify.CHECK_TABLE, "signed-gf", (broken, covers))
    records = verify.run_checks(["signed-gf", "cardinality"], 5)
    failed = [(record.check, record.n) for record in records if record.status == "fail"]
    assert failed == [("signed-gf", 3)]
    assert len(records) == 11

    code = main(["verify", "--max-n", "5", "--check", "signed-gf"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("[FAIL]") == 1
    assert (
        "[FAIL] signed-gf n=3 expected='s^2*t^2 - 2*s*t + 1'"
        " computed='s^2*t^2 - 2*s*t + 1 + 1'\n" in out
    )
    assert out.endswith("4/5 checks passed\n")


def test_derangement_table_computes_each_row_once(monkeypatch):
    requested = []
    signed_gf = identities.derangement_signed_gf

    def counting(n):
        requested.append(n)
        return signed_gf(n)

    monkeypatch.setattr(identities, "derangement_signed_gf", counting)
    records = verify.run_checks(["derangement-table"], 0)
    assert [record.n for record in records] == list(identities.TABLE_RANGE)
    assert all(record.passed for record in records)
    assert requested == list(identities.TABLE_RANGE)


def test_verify_output_is_the_same_under_python_O():
    # Every check must be a real comparison, not an assert that -O strips.
    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "permotzkin.cli"]
            + ["verify", "--max-n", "5", "--format", "json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
        )

    plain, optimised = run(), run("-O")
    assert plain.returncode == optimised.returncode == 0
    assert optimised.stdout == plain.stdout
    assert plain.stdout.startswith("[")
