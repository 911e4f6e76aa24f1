"""Exact exception types and messages of every size guard, in the library
and on the command line."""

import functools

import pytest

from permotzkin import identities, involution, jfraction, motzkin, permutations, verify
from permotzkin.cli import main
from permotzkin.errors import LIMITS, SizeLimitError, check_size
from permotzkin.permutations import Permutation

NEGATIVE_N = (ValueError, "n must be non-negative, got -1")
NEGATIVE_ORDER = (ValueError, "order must be non-negative, got -1")
DEPTH, REFINED = jfraction.preset_depth(), jfraction.preset_refined()

# id -> (the guarded call, exception type, message)
GUARDS = {
    "iter_group-neg": (lambda: list(permutations.iter_group(-1)), *NEGATIVE_N),
    "iter_group-over": (
        lambda: list(permutations.iter_group(13)),
        SizeLimitError,
        "enumeration is limited to n <= 12",
    ),
    "iter_derangements-neg": (lambda: list(permutations.iter_derangements(-1)), *NEGATIVE_N),
    "iter_derangements-over": (
        lambda: list(permutations.iter_derangements(13)),
        SizeLimitError,
        "enumeration is limited to n <= 12",
    ),
    "depth_via_factorization-over": (
        lambda: permutations.depth_via_factorization(Permutation.identity(8)),
        SizeLimitError,
        "factorization search is limited to n <= 7",
    ),
    "enumerate_weighted-neg": (lambda: list(motzkin.enumerate_weighted(-1)), *NEGATIVE_N),
    "enumerate_weighted-over": (
        lambda: list(motzkin.enumerate_weighted(11)),
        SizeLimitError,
        "path enumeration is limited to n <= 10",
    ),
    "expand-neg": (lambda: jfraction.expand(DEPTH, -1), *NEGATIVE_ORDER),
    "expand-depth-over": (
        lambda: jfraction.expand(DEPTH, 31),
        SizeLimitError,
        "expansion is limited to order <= 30",
    ),
    "expand-refined-over": (
        lambda: jfraction.expand(REFINED, 23),
        SizeLimitError,
        "expansion is limited to order <= 22",
    ),
    "brute_force_gf-neg": (lambda: jfraction.brute_force_gf(-1), *NEGATIVE_N),
    "brute_force_gf-over": (
        lambda: jfraction.brute_force_gf(13),
        SizeLimitError,
        "brute force is limited to n <= 12",
    ),
    "sign_imbalance_depth-neg": (lambda: involution.sign_imbalance_depth(-1), *NEGATIVE_N),
    "sign_imbalance_depth-over": (
        lambda: involution.sign_imbalance_depth(13),
        SizeLimitError,
        "sign imbalance is limited to n <= 12",
    ),
    "sign_imbalance_exc-neg": (lambda: involution.sign_imbalance_exc(-1), *NEGATIVE_N),
    "sign_imbalance_exc-over": (
        lambda: involution.sign_imbalance_exc(13),
        SizeLimitError,
        "sign imbalance is limited to n <= 12",
    ),
    "parity_reversing_involution-over": (
        lambda: involution.parity_reversing_involution(Permutation.identity(10)),
        SizeLimitError,
        "involution tables are limited to n <= 9",
    ),
    "euler_numbers-neg": (
        lambda: involution.euler_numbers(-1),
        ValueError,
        "limit must be non-negative, got -1",
    ),
    "euler_numbers-over": (
        lambda: involution.euler_numbers(51),
        SizeLimitError,
        "Euler table is limited to 50 entries",
    ),
    "derangement_series_rhs-neg": (
        lambda: identities.derangement_series_rhs(-1),
        *NEGATIVE_ORDER,
    ),
    "derangement_series_rhs-over": (
        lambda: identities.derangement_series_rhs(31),
        SizeLimitError,
        "series assembly is limited to order <= 30",
    ),
    "run_checks-neg": (
        lambda: verify.run_checks(max_n=-1),
        ValueError,
        "max_n must be non-negative, got -1",
    ),
    "run_checks-over": (
        lambda: verify.run_checks(max_n=10),
        SizeLimitError,
        "verify is limited to max_n <= 9",
    ),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_size_guard_type_and_message(guard):
    call, error, message = GUARDS[guard]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def refusal_at_bound_plus_one(key):
    """The message with which entry ``key`` refuses its bound + 1, having
    accepted the bound itself."""
    if key == "euler":  # the one guard that words its own refusal
        guard = involution.euler_numbers
    else:
        guard = functools.partial(check_size, limit=key)
    bound = LIMITS[key].bound
    guard(bound)
    with pytest.raises(SizeLimitError) as info:
        guard(bound + 1)
    return str(info.value)


def test_every_enforced_bound_has_its_refusal_pinned_and_every_pin_an_entry():
    # A bound can then appear or move only with a rejection test beside it.
    enforced = [key for key, entry in LIMITS.items() if entry.what]
    refusals = {refusal_at_bound_plus_one(key): key for key in enforced}
    assert len(refusals) == len(enforced)
    pinned = {message for _, error, message in GUARDS.values() if error is SizeLimitError}
    assert set(refusals) == pinned


# command line -> the message printed after "error: " on stderr, exit code 2
CLI_GUARDS = {
    ("verify", "--max-n", "10"): "verify is limited to max_n <= 9",
    ("verify", "--max-n", "-1"): "max_n must be non-negative, got -1",
    ("expand", "--preset", "depth", "--order", "31"): "expansion is limited to order <= 30",
    ("expand", "--preset", "depth", "--order", "-1"): NEGATIVE_ORDER[1],
    ("expand", "--preset", "refined", "--order", "23"): "expansion is limited to order <= 22",
    ("imbalance", "--stat", "depth", "--n", "13"): "sign imbalance is limited to n <= 12",
    ("imbalance", "--stat", "exc", "--n", "-1"): NEGATIVE_N[1],
    ("involution", "--perm", "1 2 3 4 5 6 7 8 9 10"): "involution tables are limited to n <= 9",
}


@pytest.mark.parametrize("argv", CLI_GUARDS, ids=" ".join)
def test_cli_guard_stderr(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {CLI_GUARDS[argv]}\n"
