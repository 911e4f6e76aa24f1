import math
from collections import Counter

import pytest

from permotzkin.algebra import MultiPoly, S, T
from permotzkin.errors import SizeLimitError
from permotzkin.identities import (
    derangement_series_rhs,
    derangement_signed_gf,
    derangement_table_report,
    signed_gf_permutations,
)
from permotzkin.jfraction import brute_force_gf
from permotzkin.permutations import image_stats, iter_derangements


@pytest.mark.parametrize("n", range(1, 8))
def test_signed_gf_collapses_to_binomial_power(n):
    assert signed_gf_permutations(n) == (1 - S * T) ** (n - 1)


def test_signed_gf_examples():
    assert signed_gf_permutations(1) == MultiPoly.constant(1)
    assert signed_gf_permutations(2) == 1 - S * T
    assert signed_gf_permutations(3) == 1 - 2 * S * T + S**2 * T**2


def test_signed_gf_rejects_zero():
    for signed_gf in (signed_gf_permutations, derangement_signed_gf):
        with pytest.raises(ValueError, match="^defined for n >= 1, got 0$"):
            signed_gf(0)
    with pytest.raises(SizeLimitError):
        signed_gf_permutations(13)


def test_derangement_gf_initial_values():
    assert derangement_signed_gf(1) == MultiPoly()
    assert derangement_signed_gf(2) == -(S * T)
    assert derangement_signed_gf(3) == S * (1 + S) * T**2
    assert derangement_signed_gf(4) == S**2 * T**2 - S * (1 + S) ** 2 * T**3
    assert derangement_signed_gf(5) == -2 * S**2 * (1 + S) * T**3 + S * (1 + S) ** 3 * T**4


def test_derangement_gf_specializes_the_full_distribution():
    # setting p = 0 keeps exactly the fixed-point-free permutations
    for n in range(1, 8):
        walked = MultiPoly(Counter(image_stats(perm.images) for perm in iter_derangements(n)))
        assert brute_force_gf(n).substitute({"p": 0}) == walked
        assert derangement_signed_gf(n) == walked.substitute({"q": -1})


def test_series_rhs_low_coefficients():
    series = derangement_series_rhs(9)
    assert series[0] == MultiPoly()
    assert series[1] == MultiPoly()
    assert series[2] == -(S * T)
    assert series[3] == S * (1 + S) * T**2


def test_series_rhs_top_layer_of_order_nine():
    layers = derangement_series_rhs(9)[9].split_by_exponent("t")
    assert layers[5] == -4 * S**4 * (1 + S)


def test_series_matches_enumeration():
    series = derangement_series_rhs(8)
    for n in range(1, 9):
        assert derangement_signed_gf(n) == series[n]


def test_series_guard():
    with pytest.raises(SizeLimitError):
        derangement_series_rhs(31)


def test_series_cells_are_the_brute_force_t_layers():
    # the cell of t^k in row n is the series term with k + 1 + i = n
    cells = 0
    for n in range(2, 10):
        layers = derangement_signed_gf(n).split_by_exponent("t")
        formula = {}
        for k in range(1, n):
            i = n - 1 - k
            if i <= k - 1:
                formula[k] = (-1) ** k * math.comb(k - 1, i) * S ** (1 + i) * (1 + S) ** (k - 1 - i)
        assert layers == formula
        cells += len(formula)
    assert cells == 20
    assert derangement_signed_gf(6).split_by_exponent("t")[4] == 3 * S**2 * (1 + S) ** 2


def test_table_report_matches_everywhere():
    cells = derangement_table_report()
    assert all(expected == computed for _, _, expected, computed in cells)
    assert {n for n, *_ in cells} == set(range(2, 10))


def test_table_staircase_shape():
    # lowest t-power of row n is ceil(n/2), highest is n - 1
    for n in range(2, 10):
        powers = sorted(derangement_signed_gf(n).split_by_exponent("t"))
        assert powers[0] == (n + 1) // 2
        assert powers[-1] == n - 1
