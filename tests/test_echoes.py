"""Library refusals echo a long input by its length, not whole.

A number of 5,000 digits is past the interpreter's limit of 4,300 digits
for ``repr``, so ``errors._echo`` measures ints without it.
"""

import pytest

from permotzkin import identities, involution, verify
from permotzkin.algebra import MultiPoly, Q, q_integer
from permotzkin.permutations import Permutation
from permotzkin.errors import _digits

# site -> (the call on one input, the refusal's type, a short input, its refusal,
# the refusal of a long input with {} for its length); a long input is a
# negative number of that many digits or a text of that many characters
SITES = {
    "q_integer": (
        q_integer,
        ValueError,
        -1,
        "q_integer expects a non-negative integer, got -1",
        "q_integer expects a non-negative integer, got a value of {} digits",
    ),
    "pow": (
        Q.__pow__,
        ValueError,
        -1,
        "exponent must be a non-negative integer, got -1",
        "exponent must be a non-negative integer, got a value of {} digits",
    ),
    "signed_gf_permutations": (
        identities.signed_gf_permutations,
        ValueError,
        0,
        "defined for n >= 1, got 0",
        "defined for n >= 1, got a number of {} digits",
    ),
    "derangement_signed_gf": (
        identities.derangement_signed_gf,
        ValueError,
        0,
        "defined for n >= 1, got 0",
        "defined for n >= 1, got a number of {} digits",
    ),
    "euler_numbers": (
        involution.euler_numbers,
        ValueError,
        -1,
        "limit must be non-negative, got -1",
        "limit must be non-negative, got a number of {} digits",
    ),
    "substitute": (
        lambda value: Q.substitute({"q": value}),
        TypeError,
        "x",
        "substitution value 'x' is not an integer",
        "substitution value a value of {} characters is not an integer",
    ),
    "coefficient": (
        lambda value: MultiPoly({(0, 0, 0, 0): value}),
        TypeError,
        "x",
        "coefficient 'x' is not an integer",
        "coefficient a value of {} characters is not an integer",
    ),
    "variable": (
        Q.split_by_exponent,
        ValueError,
        "x",
        "unknown variable 'x'",
        "unknown variable a name of {} characters",
    ),
    "run_checks": (
        lambda name: verify.run_checks([name]),
        ValueError,
        "x",
        "unknown checks: x",
        "unknown checks: a name of {} characters",
    ),
}


def refusal(call, value):
    with pytest.raises((TypeError, ValueError)) as info:
        call(value)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("length", [4000, 5000])
@pytest.mark.parametrize("site", SITES)
def test_a_long_input_is_refused_by_its_length(site, length):
    call, error, short, short_message, long_message = SITES[site]
    assert refusal(call, short) == (error, short_message)
    value = 1 - 10**length if isinstance(short, int) else "x" * length
    message = long_message.format(length)
    assert refusal(call, value) == (error, message) and len(message) < 200


# a container holding one int: its refusal at 4,000 digits, and past the
# interpreter's limit, where ``repr`` of the container raises
CONTAINERS = {
    "permutation": (
        lambda value: Permutation((value,)),
        "a tuple of 4004 characters is not a permutation of 1..1",
        "a tuple holding a number past the interpreter's limit on digits"
        " is not a permutation of 1..1",
    ),
    "exponent": (
        lambda value: MultiPoly({(value, 0, 0, 0): 1}),
        "exponent tuple of 4012 characters has an exponent >= 8388608",
        "exponent tuple holding a number past the interpreter's limit on digits"
        " has an exponent >= 8388608",
    ),
}


@pytest.mark.parametrize("site", CONTAINERS)
def test_a_container_holding_a_huge_int_is_refused_by_that_fact(site):
    call, message, huge_message = CONTAINERS[site]
    assert refusal(call, 10**4000) == (ValueError, message)
    assert refusal(call, 10**5000) == (ValueError, huge_message) and len(huge_message) < 200


def test_digits_counts_past_the_repr_limit():
    values = [0, 9, 10, 10**99 - 1, 10**99, 10**4299, 10**5000 - 1, 10**5000]
    assert [_digits(value) for value in values] == [1, 1, 2, 99, 100, 4300, 5000, 5001]
