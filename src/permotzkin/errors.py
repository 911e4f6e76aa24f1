"""Exception types shared across the package, every size bound, and the one size guard."""

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
LIMITS: dict[str, Limit] = {
    # iter_group, iter_derangements (S_n filtered): S_10 3.3 s, D_10 3.1 s, ~n times more per n
    "enumeration": Limit(12, "enumeration is"),
    # depth_via_factorization: the search over S_7 takes 0.07 s, over S_8 1.0 s
    "factorization-search": Limit(7, "factorization search is"),
    # enumerate_weighted: the 9! paths of length 9 take 0.9 s
    "path-enumeration": Limit(10, "path enumeration is"),
    # expand of preset_depth and of custom specs: preset_depth to 30 takes 0.02 s
    "expansion": Limit(30, "expansion is", "order"),
    # expand of preset_refined, CLI, JSON: order 20/22/24 take 2.2/8.0/~30 s, 206/430/~900 MB
    "refined-expansion": Limit(22, "expansion is", "order"),
    # brute_force_gf: n = 12 takes 0.59 s and 90 MB, n = 13 2.3 s and 239 MB
    "brute-force": Limit(12, "brute force is"),
    # sign_imbalance_depth and _exc: one brute_force_gf(n) and a substitution
    "sign-imbalance": Limit(12, "sign imbalance is"),
    # _pairing(n): 0.04 s for 161 KB at n = 8, 0.40 s for 1.4 MB at 9, ~10x at 10
    "involution": Limit(9, "involution tables are"),
    # euler_numbers, which words its refusal in entries: E_0 .. E_50 take 0.2 ms
    "euler": Limit(50, "Euler table is", "limit"),
    # derangement_series_rhs: order 30 takes 0.035 s
    "series-assembly": Limit(30, "series assembly is", "order"),
    # verify --max-n 9, CLI: 0.43 s and 22 MB
    "verify": Limit(9, "verify is", "max_n"),
    # the last n of verify's bijection/cardinality/involution: 1.9/0.36/0.8 s more at n = 9;
    # and of refined-cf, which would take 0.9 s more for n = 9 .. 12
    "verify-walks": Limit(8),
    # the last n of verify's level-weights (1.5 ms at h = 22) and depth-min-cost (0.07 s at 7)
    "verify-small": Limit(6),
    # the last row of verify's derangement table, from row 2 whatever --max-n: 4 ms
    "derangement-table": Limit(9),
}


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
        raise ValueError(f"{name} must be non-negative, got {value}")
    if value > bound:
        raise SizeLimitError(f"{what} limited to {name} <= {bound}")
