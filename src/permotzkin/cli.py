"""Command-line front end.

Subcommands: stats, encode, decode, expand, imbalance, involution, verify.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 when a verification check fails, 2 on usage or parse errors.  Output is
deterministic for fixed inputs and flags (timing fields are opt-in).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import verify as verify_mod
from .bijection import decode as decode_path
from .bijection import encode as encode_perm
from .errors import ParseError
from .involution import parity_reversing_involution, sign_imbalance_depth, sign_imbalance_exc
from .jfraction import expand, preset_depth, preset_refined
from .motzkin import WeightedMotzkinPath
from .permutations import Permutation, image_stats


def _emit_table(rows: list[dict], fmt: str) -> str:
    """Render a list of uniform records as json, csv or aligned text."""
    if fmt == "json":
        return json.dumps(rows, indent=2)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]) if rows else [])
        writer.writeheader()
        writer.writerows(rows)
        return buffer.getvalue().rstrip("\n")
    lines = []
    for row in rows:
        lines.append("  ".join(f"{key}={value}" for key, value in row.items()))
    return "\n".join(lines)


def _operand(text: str) -> str:
    """``text``, or all of stdin when it is ``-`` (no argv size cap)."""
    return sys.stdin.read() if text == "-" else text


def _cmd_stats(args: argparse.Namespace) -> int:
    perm = Permutation.from_text(_operand(args.perm))
    inv, fix, exc, dep = image_stats(perm.images)
    row = {"inv": inv, "fix": fix, "exc": exc, "depth": dep}
    print(_emit_table([row], args.format))
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    path = encode_perm(Permutation.from_text(_operand(args.perm)))
    if args.format == "json":
        print(json.dumps(path.to_records(), indent=2))
    else:
        print(path.to_text())
    return 0


class _LongNumber(str):
    """A JSON number past the interpreter's limit on digits: ``from_records``
    refuses it, as it is no ``int``, and its repr names only its length."""

    def __repr__(self) -> str:
        return f"<number of {len(self.lstrip('-'))} digits>"


def _json_int(token: str) -> int | str:
    try:
        return int(token)
    except ValueError:  # past the interpreter's limit on digits
        return _LongNumber(token)


def _cmd_decode(args: argparse.Namespace) -> int:
    text = _operand(args.path).strip()
    if text.startswith("["):
        try:
            records = json.loads(text, parse_int=_json_int)
        except RecursionError:  # not a ValueError, so main would not catch it
            raise ParseError("JSON path is nested too deeply") from None
        path = WeightedMotzkinPath.from_records(records)
    else:
        path = WeightedMotzkinPath.from_text(text)
    print(decode_path(path).to_text())
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    spec = preset_depth() if args.preset == "depth" else preset_refined()
    series = expand(spec, args.order)
    rows = [{"n": n, "coefficient": str(series[n])} for n in range(len(series))]
    print(_emit_table(rows, args.format))
    return 0


def _cmd_imbalance(args: argparse.Namespace) -> int:
    value = sign_imbalance_depth(args.n) if args.stat == "depth" else sign_imbalance_exc(args.n)
    if args.format == "text":
        print(value)
    else:
        print(_emit_table([{"stat": args.stat, "n": args.n, "value": value}], args.format))
    return 0


def _cmd_involution(args: argparse.Namespace) -> int:
    perm = Permutation.from_text(_operand(args.perm))
    partner = parity_reversing_involution(perm)
    inv, _, exc, dep = image_stats(perm.images)
    pinv, _, pexc, pdep = image_stats(partner.images)
    delta = pinv - inv
    if not delta == pexc - exc == pdep - dep:
        print(f"error: partner {partner.to_text()!r} breaks the delta law", file=sys.stderr)
        return 1
    row = {
        "partner": partner.to_text(),
        "delta": delta,
        "fixed": partner == perm,
    }
    print(_emit_table([row], args.format))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    records = verify_mod.run_checks(args.check or None, args.max_n)
    rows = [record.as_record(timings=args.timings) for record in records]
    if args.format == "text":
        for record in records:
            marker = "PASS" if record.passed else "FAIL"
            line = f"[{marker}] {record.check} n={record.n}"
            if not record.passed:
                line += f" expected={record.expected!r} computed={record.computed!r}"
            print(line)
        failed = sum(1 for record in records if not record.passed)
        print(f"{len(records) - failed}/{len(records)} checks passed")
    else:
        print(_emit_table(rows, args.format))
    return 0 if all(record.passed for record in records) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permotzkin",
        description="Exact permutation statistics, weighted Motzkin paths, "
        "continued fractions, and identity verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("stats", help="inv/fix/exc/depth of a permutation")
    p.add_argument("perm", help='one-line notation, e.g. "3 2 1", or - to read stdin')
    add_format(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("encode", help="permutation -> weighted Motzkin path")
    p.add_argument("perm", help="as for stats; - reads stdin")
    add_format(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="weighted Motzkin path -> permutation")
    p.add_argument("path", help='e.g. "U(1,0) H3(1,0) D(1,0)", a JSON array, or - to read stdin')
    add_format(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("expand", help="continued-fraction series coefficients")
    p.add_argument("--preset", choices=("depth", "refined"), required=True)
    p.add_argument("--order", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("imbalance", help="signed sum over S_n")
    p.add_argument("--stat", choices=("depth", "exc"), required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_imbalance)

    p = sub.add_parser("involution", help="parity-reversing partner of a permutation")
    p.add_argument("--perm", required=True, help="as for stats; - reads stdin")
    add_format(p)
    p.set_defaults(func=_cmd_involution)

    p = sub.add_parser("verify", help="run the identity verification battery")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument(
        "--check",
        action="append",
        choices=sorted(verify_mod.CHECKS),
        help="restrict to one or more named checks (default: all)",
    )
    p.add_argument("--timings", action="store_true", help="include elapsed_ms fields")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
