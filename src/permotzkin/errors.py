"""Exception types, every size bound, the one size guard, and how diagnostics echo input."""

from typing import NamedTuple


class SizeLimitError(ValueError):
    """An enumeration or expansion was requested beyond its cost guard."""


class ParseError(ValueError):
    """Malformed text input; the message names the offending position."""


class InvalidPathError(ValueError):
    """A weighted Motzkin path violates one of its structural invariants."""


class Limit(NamedTuple):
    """A size bound and the words of its refusal."""

    bound: int
    what: str = ""  # the refusal's subject and verb; "" for a cap that refuses nothing
    name: str = "n"  # the bounded variable, as the refusal names it


#: Every bound that refuses or caps an input, with the measured cost behind
#: it (CPython 3.11.7, 2 vCPUs, in-process after import unless marked CLI).
#: Costs marked "slow guest" were taken on days the guest ran 3-4x slower than
#: on the unmarked ones.
LIMITS: dict[str, Limit] = {
    # iter_group, iter_derangements (S_n filtered): S_10 3.3 s, D_10 3.1 s, ~n times more per n
    "enumeration": Limit(12, "enumeration is"),
    # depth_via_factorization: the search over S_7 takes 0.07 s, over S_8 1.0 s
    "factorization-search": Limit(7, "factorization search is"),
    # enumerate_weighted: the 9! paths of length 9 take 0.5 s (slow guest)
    "path-enumeration": Limit(10, "path enumeration is"),
    # expand of preset_depth and of custom specs: preset_depth to 30 takes 0.02 s
    "expansion": Limit(30, "expansion is", "order"),
    # expand of preset_refined, CLI, stdout to a pipe, each coefficient rendered from the
    # packed DP state and each row written straight to stdout: order 20/22 take 1.4-1.5/
    # 6.6-8.6 s and 87/184 MB in JSON, 92/193 MB in text; order 24 took ~30 s and ~900 MB
    # when the CLI held the whole series
    "refined-expansion": Limit(22, "expansion is", "order"),
    # brute_force_gf: n = 12/13 take 1.1/3.7 s and 53/129 MB (1.4-1.9/7.0 s on a slow guest)
    "brute-force": Limit(12, "brute force is"),
    # sign_imbalance_depth and _exc: one signed count per set of values, CLI: n = 18/19
    # take 1.3-1.4/3.1-4.1 s and 71/127 MB (n = 12 took 0.96 s and 54 MB as brute_force_gf)
    "sign-imbalance": Limit(18, "sign imbalance is"),
    # _pairing(n) with the permutations._stats_by_rank(n) it reads, 2 x 161 KB at
    # n = 8 and 2 x 1.4 MB at 9: 0.04 s at 8, 0.35-0.38 s at 9, ~10x at 10 (slow guest)
    "involution": Limit(9, "involution tables are"),
    # euler_numbers(limit), E_0 .. E_limit: limit = 500/1000/2000 take 0.014-0.016/
    # 0.11-0.12/0.9-1.3 s, about 8x per doubling
    "euler": Limit(1000, "Euler table is", "limit"),
    # derangement_series_rhs: order 30 takes 0.035 s
    "series-assembly": Limit(30, "series assembly is", "order"),
    # verify --max-n 9, CLI: 0.69-0.87 s and 18 MB (brute_force_gf(12) took 1.2 s that day)
    "verify": Limit(9, "verify is", "max_n"),
    # the last n of verify's bijection/cardinality/involution: 3.0-3.7/0.25/0.34 s more
    # at n = 9 (on a guest where verify --max-n 9 takes 0.5 s in-process);
    # and of refined-cf, which would take 0.9 s more for n = 9 .. 12
    "verify-walks": Limit(8),
    # the last n of verify's depth-min-cost: 0.07 s more at n = 7
    "verify-small": Limit(6),
    # the last row of verify's derangement table, from row 2 whatever --max-n: 4 ms
    "derangement-table": Limit(9),
}


#: Diagnostics echo an input token, number or record up to this many characters long.
ECHO_LIMIT = 100


def _echo(value: object, noun: str = "") -> str:
    """``repr(value)``, or past ``ECHO_LIMIT`` characters ``noun`` and its length.

    An int is measured by ``_digits``, as ``repr`` refuses one past 4,300 digits;
    a container that holds such an int is named by ``noun`` and that fact.

    >>> _echo("x"), _echo(-(10**200)), _echo("x" * 300, "a token"), _echo(10**5000)
    ("'x'", 'of 201 digits', 'a token of 300 characters', 'of 5001 digits')
    """
    if isinstance(value, int) and (digits := _digits(abs(value))) + (value < 0) > ECHO_LIMIT:
        return f"{noun} of {digits} digits".lstrip()
    try:
        text = repr(value)
    except ValueError:  # it holds an int past that limit
        return f"{noun} holding a number past the interpreter's limit on digits".lstrip()
    if len(text) <= ECHO_LIMIT:
        return text
    return f"{noun} of {len(value if isinstance(value, str) else text)} characters".lstrip()


def _digits(value: int) -> int:
    """The number of decimal digits of ``value`` >= 0, counted from its bit length."""
    power = max(value.bit_length() - 1, 0) * 30102 // 100000  # 10^power <= value, or 1
    while 10 ** (power + 1) <= value:
        power += 1
    return power + 1


def check_size(value: int, limit: str, bound: int | None = None) -> None:
    """Refuse a negative ``value`` and one above ``bound``, by default that of ``LIMITS[limit]``.

    >>> check_size(10, "involution")
    Traceback (most recent call last):
    ...
    permotzkin.errors.SizeLimitError: involution tables are limited to n <= 9
    """
    entry_bound, what, name = LIMITS[limit]
    if bound is None:
        bound = entry_bound
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {_echo(value, 'a number')}")
    if value > bound:
        raise SizeLimitError(f"{what} limited to {name} <= {bound}")
