import itertools
import math
from collections import Counter

import pytest

from permotzkin.algebra import MultiPoly, P, Q, S, T
from permotzkin.errors import SizeLimitError
from permotzkin.jfraction import (
    JFractionSpec,
    brute_force_depth_gf,
    brute_force_gf,
    expand,
    preset_depth,
    preset_refined,
)
from permotzkin.permutations import image_stats


def reference_tally(n):
    """sum over S_n of q^inv p^fix s^exc t^depth, one permutation at a time."""
    return MultiPoly(Counter(map(image_stats, itertools.permutations(range(1, n + 1)))))


def test_depth_preset_coefficients():
    spec = preset_depth()
    assert spec.gamma(0) == MultiPoly.one()
    assert spec.gamma(1) == 3 * T
    assert spec.lam(1) == T
    assert spec.lam(2) == 4 * T**3


def test_refined_preset_coefficients():
    spec = preset_refined()
    assert spec.gamma(0) == P
    assert spec.lam(1) == S * Q * T
    assert spec.gamma(1) == (1 + S) * Q * T + P * Q**2 * T


def test_expansion_head_is_generic():
    gamma0 = 7 * Q + P
    spec = JFractionSpec(gamma=lambda h: gamma0 if h == 0 else MultiPoly.one(), lam=lambda h: S)
    series = expand(spec, 2)
    assert series[0] == MultiPoly.one()
    assert series[1] == gamma0
    assert series[2] == gamma0 * gamma0 + S


def test_depth_preset_order_three():
    series = expand(preset_depth(), 3)
    assert series[3] == 1 + 2 * T + 3 * T**2


def test_depth_preset_matches_brute_force():
    series = expand(preset_depth(), 7)
    for n in range(8):
        assert series[n] == brute_force_depth_gf(n)


def test_refined_preset_matches_brute_force():
    series = expand(preset_refined(), 5)
    for n in range(6):
        assert series[n] == brute_force_gf(n)


def test_refined_series_counts_permutations_at_ones():
    series = expand(preset_refined(), 7)
    ones = {"q": 1, "p": 1, "s": 1, "t": 1}
    for n in range(8):
        assert series[n].substitute(ones) == math.factorial(n)


def test_truncation_is_monotone():
    short = expand(preset_refined(), 4)
    long = expand(preset_refined(), 7)
    for n in range(5):
        assert short[n] == long[n]


def test_expand_guard():
    with pytest.raises(SizeLimitError):
        expand(preset_depth(), 31)
    with pytest.raises(ValueError):
        expand(preset_depth(), -1)


def test_brute_force_examples():
    assert brute_force_gf(0) == MultiPoly.one()
    assert brute_force_gf(2) == P**2 + Q * S * T
    assert brute_force_gf(2).substitute({"p": 1, "s": 1, "q": 1}) == 1 + T


def test_brute_force_matches_reference_tally():
    for n in range(8):
        assert brute_force_gf(n) == reference_tally(n)


def test_brute_force_depth_agrees_with_full_sum():
    ones = {"q": 1, "p": 1, "s": 1}
    for n in range(8):
        assert brute_force_depth_gf(n) == reference_tally(n).substitute(ones)


def test_brute_force_guards():
    with pytest.raises(SizeLimitError):
        brute_force_gf(11)
    with pytest.raises(SizeLimitError):
        brute_force_depth_gf(11)
