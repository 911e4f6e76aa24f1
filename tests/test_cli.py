import csv
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permotzkin import cli, verify
from permotzkin.cli import main
from permotzkin.errors import LIMITS
from permotzkin.permutations import Permutation, image_stats

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_text(capsys):
    code, out, _ = run(capsys, "stats", "3 2 1")
    assert code == 0
    assert out.strip() == "inv=3  fix=1  exc=1  depth=2"


def test_stats_json_and_csv_agree(capsys):
    code, out_json, _ = run(capsys, "stats", "3 2 1", "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, "stats", "3 2 1", "--format", "csv")
    assert code == 0
    [json_row] = json.loads(out_json)
    [csv_row] = list(csv.DictReader(io.StringIO(out_csv)))
    assert {k: str(v) for k, v in json_row.items()} == csv_row


def test_stats_identity(capsys):
    code, out, _ = run(capsys, "stats", "1 2 3")
    assert code == 0
    assert out.strip() == "inv=0  fix=3  exc=0  depth=0"


def test_stats_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "stats", "2 2 1")
    assert code == 2
    assert out == ""
    assert "position 2: value 2 repeated" in err


def test_encode_decode_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "2 1")
    assert code == 0
    assert out.strip() == "U(1,0) D(1,0)"
    code, out, _ = run(capsys, "decode", "U(1,0) D(1,0)")
    assert code == 0
    assert out.strip() == "2 1"


def test_encode_empty_permutation(capsys):
    code, out, _ = run(capsys, "encode", "")
    assert code == 0
    assert out.strip() == ""


def test_decode_json_records(capsys):
    code, out, _ = run(capsys, "encode", "3 2 1", "--format", "json")
    assert code == 0
    code, decoded, _ = run(capsys, "decode", out)
    assert code == 0
    assert decoded.strip() == "3 2 1"


def test_decode_rejects_invalid_path(capsys):
    code, _, err = run(capsys, "decode", "U(1,0)")
    assert code == 2
    assert "height" in err


@pytest.mark.parametrize("perm", ["", "1", "2 1", "3 1 2", "2 4 1 3", "5 3 1 2 4"])
def test_cli_round_trip_corpus(capsys, perm):
    code, path_text, _ = run(capsys, "encode", perm)
    assert code == 0
    code, decoded, _ = run(capsys, "decode", path_text.strip())
    assert code == 0
    assert decoded.strip() == perm


def test_expand_json(capsys):
    code, out, _ = run(capsys, "expand", "--preset", "refined", "--order", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"n": 0, "coefficient": "1"}
    assert rows[1] == {"n": 1, "coefficient": "p"}
    assert len(rows) == 4


def test_expand_guard_exit_code(capsys):
    code, _, err = run(capsys, "expand", "--preset", "depth", "--order", "40")
    assert code == 2
    assert "limited" in err


def test_expand_refined_guard_exit_code(capsys):
    order = str(LIMITS["refined-expansion"].bound + 1)
    code, out, err = run(capsys, "expand", "--preset", "refined", "--order", order)
    assert code == 2
    assert out == ""
    assert "limited" in err


def test_expand_refined_order_14_bytes(capsys):
    # The digest is perfbench/workloads.py::EXPAND_SHA256, the output of the
    # same command at the commit that defined the benchmark.
    code, out, _ = run(
        capsys, "expand", "--preset", "refined", "--order", "14", "--format", "json"
    )
    assert code == 0
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "87a87e2dd19449698cf3c073c4d167cb60624da33106b98be4ae594e8e7284c1"
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The digests below were taken from the same commands before paths were stored
# as flat int tuples, so the representation change is pinned to the old bytes.


def test_verify_max_n_8_bytes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "8")
    assert code == 0
    assert sha256(out) == "de19a6bd4986c0cd7e15dda308059ff20c65e7b425dfb9b83bd370f1bbc3d7f8"


# These digests were taken at the commit before verify ran from one check
# table, so that rewrite is pinned to the old bytes.


def test_verify_max_n_9_json_bytes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "9", "--format", "json")
    assert code == 0
    assert sha256(out) == "21e87608cf2d15bd766bf457c7e893b96996a7bcdbb1be88e48033b4a24e0667"


def test_verify_max_n_5_csv_bytes(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "5", "--format", "csv")
    assert code == 0
    assert sha256(out) == "69c2c9a6ae05bd6d6cb89e9a534ca198eef3cbe3c51b164681742184db319bf7"


def test_encode_and_decode_bytes_at_n_300(capsys):
    images = list(range(1, 301))
    random.Random(300).shuffle(images)
    perm = " ".join(map(str, images))
    code, text, _ = run(capsys, "encode", perm)
    assert code == 0
    assert sha256(text) == "19f346746dae9d88ef4a98b7bb73a0d24f9b1a7dbdddf4571971bb05d6e37064"
    code, records, _ = run(capsys, "encode", perm, "--format", "json")
    assert code == 0
    assert sha256(records) == "1f8aff286a88f847553ba712bf16287c0295714f18276954b58b58a167d878a2"
    for path in (text, records):
        code, decoded, _ = run(capsys, "decode", path)
        assert code == 0
        assert sha256(decoded) == "f6e99bb8283da5d9b7adc703a2bcd1980f6cf2ba10dfb931aefa7b4198548870"
        assert decoded == perm + "\n"


# Linux refuses one argv string over 128 KiB; "-" reads the operand from stdin.
ARGV_CAP = 128 * 1024


def test_stdin_takes_inputs_past_the_argv_cap(capsys, monkeypatch):
    images = list(range(1, 30001))
    random.Random(30000).shuffle(images)
    perm = " ".join(map(str, images))
    assert len(perm.encode()) > ARGV_CAP

    result = subprocess.run(
        [sys.executable, "-m", "permotzkin.cli", "stats", "-", "--format", "json"],
        input=perm + "\n",
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    inv, fix, exc, dep = image_stats(tuple(images))
    assert json.loads(result.stdout) == [{"inv": inv, "fix": fix, "exc": exc, "depth": dep}]

    monkeypatch.setattr(sys, "stdin", io.StringIO(perm))
    code, path, _ = run(capsys, "encode", "-")
    assert code == 0
    assert len(path.encode()) > ARGV_CAP
    monkeypatch.setattr(sys, "stdin", io.StringIO(path))
    code, decoded, _ = run(capsys, "decode", "-")
    assert code == 0
    assert decoded == perm + "\n"


@pytest.mark.parametrize(
    "argv, stdin, message",
    [
        (["stats", "-"], "3 1 x\n", "position 3: 'x' is not an integer"),
        (["encode", "-"], "2 2 1", "position 2: value 2 repeated"),
        (["decode", "-"], "U(1,0) Q(1,0) D(1,0)\n", "step 2: cannot parse 'Q(1,0)'"),
        (["involution", "--perm", "-"], "1 x 2\n", "position 2: 'x' is not an integer"),
        (["involution", "--perm", "-"], "1 3\n", "position 2: value 3 out of range 1..2"),
    ],
)
def test_bad_stdin_is_a_positioned_parse_error(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stats", "2 1_0 1 3 4 5 6 7 8 9"], "position 2: '1_0' is not an integer"),
        (["stats", "\uff12 1"], "position 1: '\uff12' is not an integer"),
        (["encode", "1 \u0662"], "position 2: '\u0662' is not an integer"),
        (["stats", "+-1"], "position 1: '+-1' is not an integer"),
        (["decode", "U(\u0661,0) D(1,0)"], "step 1: cannot parse 'U(\u0661,0)'"),
        (["decode", "U(1,0) D(1,\u0660)"], "step 2: cannot parse 'D(1,\u0660)'"),
    ],
)
def test_integer_tokens_are_ascii_digits_only(capsys, argv, message):
    # int() alone would read 1_0 as 10 and take digits of any script
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, out, err",
    [
        (["stats", "+2 1"], "inv=1  fix=0  exc=1  depth=1\n", ""),
        (["stats", "-1 2"], "", "error: position 1: value -1 out of range 1..2\n"),
        (["stats", "0 1"], "", "error: position 1: value 0 out of range 1..2\n"),
        (["stats", "-0"], "", "error: position 1: value 0 out of range 1..1\n"),
        (["stats", "1.0"], "", "error: position 1: '1.0' is not an integer\n"),
        (["decode", "U(+1,0) D(1,0)"], "", "error: step 1: cannot parse 'U(+1,0)'\n"),
    ],
)
def test_signed_ascii_tokens_keep_their_diagnostics(capsys, argv, out, err):
    code = 0 if out else 2
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "records, bad",
    [
        ('{"kind":"U","height":1.9,"choice":0},{"kind":"D","height":true,"choice":"0"}', 1),
        ('{"kind":"U","height":1,"choice":0},{"kind":"D","height":true,"choice":0}', 2),
        ('{"kind":"U","height":1,"choice":false},{"kind":"D","height":1,"choice":0}', 1),
        ('{"kind":"U","height":1,"choice":0},{"kind":"D","height":1,"choice":"0"}', 2),
        ('{"kind":"U","height":1.0,"choice":0},{"kind":"D","height":1,"choice":0}', 1),
    ],
)
def test_decode_refuses_records_whose_fields_are_not_ints(capsys, records, bad):
    text = f"[{records}]"
    record = json.loads(text)[bad - 1]
    code, out, err = run(capsys, "decode", text)
    assert (code, out, err) == (2, "", f"error: step {bad}: bad record {record!r}\n")


LONG = "9" * 5000  # past the interpreter's default limit of 4300 digits for int()


@pytest.mark.parametrize(
    "argv, operand, message",
    [
        (["decode"], f"U({LONG},0) D(1,0)", "step 1: height of 5000 digits is out of range"),
        (["decode"], f"U(1,0) D(1,{LONG})", "step 2: choice of 5000 digits is out of range"),
        (
            ["decode"],
            f'[{{"kind":"U","height":1,"choice":0}},{{"kind":"D","height":-{LONG},"choice":0}}]',
            "step 2: bad record {'kind': 'D', 'height': <number of 5000 digits>, 'choice': 0}",
        ),
        (["stats"], f"2 1 {LONG}", "position 3: value of 5000 digits out of range 1..3"),
        (
            ["involution", "--perm"],
            f"-{LONG} 1",
            "position 1: value of 5000 digits out of range 1..2",
        ),
    ],
    ids=["height", "choice", "json", "stats", "involution"],
)
def test_numbers_past_the_digit_limit_are_positioned_errors(
    capsys, monkeypatch, argv, operand, message
):
    expected = (2, "", f"error: {message}\n")
    assert run(capsys, *argv, operand) == expected
    monkeypatch.setattr(sys, "stdin", io.StringIO(operand))
    assert run(capsys, *argv, "-") == expected


@pytest.mark.parametrize(
    "text", ["[" * 100_000, "[" * 5_000 + "]" * 5_000], ids=["unclosed", "closed"]
)
def test_decode_refuses_json_nested_too_deeply(capsys, monkeypatch, text):
    # json.loads raises RecursionError here, which is no ValueError
    expected = (2, "", "error: JSON path is nested too deeply\n")
    assert run(capsys, "decode", text) == expected
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, "decode", "-") == expected


def test_optimized_interpreter_prints_the_same_bytes():
    # No invariant is an assert, so python -O must verify and refuse alike.
    def cli(*flags_and_argv):
        result = subprocess.run(
            [sys.executable, *flags_and_argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        return result.returncode, result.stdout, result.stderr

    for argv, code in (
        (["verify", "--max-n", "6"], 0),
        (["expand", "--preset", "refined", "--order", "23"], 2),
        (["stats", "2 1 2"], 2),
    ):
        plain = cli("-m", "permotzkin.cli", *argv)
        assert plain[0] == code and (plain[1] if code == 0 else plain[2])
        assert cli("-O", "-m", "permotzkin.cli", *argv) == plain


def test_imbalance(capsys):
    code, out, _ = run(capsys, "imbalance", "--stat", "depth", "--n", "5")
    assert code == 0
    assert out.strip() == "16"
    code, out, _ = run(capsys, "imbalance", "--stat", "exc", "--n", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"stat": "exc", "n": 3, "value": -2}]


def test_involution_command(capsys):
    code, out, _ = run(capsys, "involution", "--perm", "1 2", "--format", "json")
    assert code == 0
    [row] = json.loads(out)
    assert row == {"partner": "2 1", "delta": 1, "fixed": False}


def test_involution_reads_the_permutation_from_stdin(capsys, monkeypatch):
    code, expected, _ = run(capsys, "involution", "--perm", "3 1 4 2 5", "--format", "json")
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 1 4 2 5\n"))
    code, out, err = run(capsys, "involution", "--perm", "-", "--format", "json")
    assert (code, out, err) == (0, expected, "")


def test_involution_command_rejects_a_partner_breaking_the_delta_law(capsys, monkeypatch):
    # 3 2 1 against 1 2 3 changes inv by 3, exc by 1 and depth by 2
    reversed_three = Permutation.from_text("3 2 1")
    monkeypatch.setattr(cli, "parity_reversing_involution", lambda perm: reversed_three)
    code, out, err = run(capsys, "involution", "--perm", "1 2 3")
    assert code == 1
    assert out == ""
    assert err == "error: partner '3 2 1' breaks the delta law\n"


def test_verify_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "verify", "--max-n", "4", "--format", "json")
    assert code == 0
    assert first == second
    records = json.loads(first)
    assert all(record["status"] == "pass" for record in records)
    assert "elapsed_ms" not in records[0]
    keys = [(record["check"], record["n"]) for record in records]
    assert keys == sorted(keys)


def test_verify_report_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "3", "--check", "signed-gf", "--format", "json", "--timings"
    )
    assert code == 0
    records = json.loads(out)
    assert {record["check"] for record in records} == {"signed-gf"}
    assert set(records[0]) == {"check", "n", "expected", "computed", "status", "elapsed_ms"}


def test_verify_csv_matches_json(capsys):
    code, out_json, _ = run(capsys, "verify", "--max-n", "3", "--check", "cardinality", "--format", "json")
    assert code == 0
    code, out_csv, _ = run(capsys, "verify", "--max-n", "3", "--check", "cardinality", "--format", "csv")
    assert code == 0
    json_rows = json.loads(out_json)
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert [{k: str(v) for k, v in row.items()} for row in json_rows] == csv_rows


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def failing_check(max_n):
        del max_n
        return [
            verify.ReportRecord(
                check="broken", n=1, expected="x", computed="y", status="fail", elapsed_ms=0.0
            )
        ]

    monkeypatch.setitem(verify.CHECKS, "broken", failing_check)
    code, out, _ = run(capsys, "verify", "--check", "broken")
    assert code == 1
    assert "[FAIL] broken n=1" in out


def test_verify_guard(capsys):
    code, _, err = run(capsys, "verify", "--max-n", "10")
    assert code == 2
    assert "limited" in err


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 2
    capsys.readouterr()


def test_console_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "permotzkin.cli", "stats", "2 1"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "inv=1  fix=0  exc=1  depth=1"
