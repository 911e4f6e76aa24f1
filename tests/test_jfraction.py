import itertools
import math
from collections import Counter

import pytest

from permotzkin.algebra import MultiPoly, P, Q, S, T
from permotzkin.errors import SizeLimitError
from permotzkin.jfraction import (
    EXPANSION_ORDER_LIMIT,
    REFINED_ORDER_LIMIT,
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


def motzkin_paths(n, height=0):
    """Every path of n steps from ``height`` to height 0 that never goes
    below 0, as a tuple of (kind, height before the step)."""
    if n == 0:
        if height == 0:
            yield ()
        return
    for kind, after in (("H", height), ("U", height + 1), ("D", height - 1)):
        if after >= 0:
            for rest in motzkin_paths(n - 1, after):
                yield ((kind, height),) + rest


def path_sum(spec, n):
    """The z^n coefficient of the continued fraction, one path at a time."""
    total = MultiPoly.zero()
    for path in motzkin_paths(n):
        weight = MultiPoly.one()
        for kind, height in path:
            if kind == "H":
                weight = weight * spec.gamma(height)
            elif kind == "D":
                weight = weight * spec.lam(height)
        total = total + weight
    return total


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


def test_expansion_only_multiplies_at_heights_that_can_return(monkeypatch):
    order = 9
    gammas = [(h + 2) * Q**h + P for h in range(order)]
    lams = [MultiPoly.zero()] + [(2 * h + 1) * S * T**h for h in range(1, order)]
    spec = JFractionSpec(gamma=gammas.__getitem__, lam=lams.__getitem__)
    products = []
    kernel = MultiPoly.sum_of_products

    def counting_kernel(pairs):
        pairs = list(pairs)
        products.extend(b for _, b in pairs if b is not None)
        return kernel(pairs)

    monkeypatch.setattr(MultiPoly, "sum_of_products", staticmethod(counting_kernel))
    expand(spec, order)
    # Before step k the path is at a height h <= min(k - 1, order - k + 1).
    # With order - k steps left after it, the step may stay at h only when
    # h <= order - k, and may go down from any h >= 1.
    expected = sum(
        (min(k - 1, order - k) + 1) + min(k - 1, order - k + 1) for k in range(1, order + 1)
    )
    assert len(products) == expected


def naive_expand(spec, order):
    """The continued fraction's series by a DP over every height, with plain
    ``*`` and ``+``: no height is ever pruned."""
    coeffs = [MultiPoly.one()]
    state = {0: MultiPoly.one()}
    for _ in range(order):
        nxt = {}
        for height, poly in state.items():
            moves = [(height, poly * spec.gamma(height)), (height + 1, poly)]
            if height:
                moves.append((height - 1, poly * spec.lam(height)))
            for target, weight in moves:
                nxt[target] = nxt.get(target, MultiPoly.zero()) + weight
        state = nxt
        coeffs.append(state[0])
    return coeffs


def test_expansion_with_cancelling_coefficients_matches_a_naive_dp():
    # every level and down step carries a factor 1 - q, so the products
    # have terms of both signs, and at q = 1 every path but the empty one
    # weighs 0
    spec = JFractionSpec(
        gamma=lambda h: (1 - Q) * (P + h * T**h),
        lam=lambda h: (1 - Q**h) * S * T ** (2 * h - 1) - h * (Q - 1) * P,
    )
    series = expand(spec, 10)
    naive = naive_expand(spec, 10)
    for n in range(11):
        assert series[n] == naive[n]
        assert 0 not in series[n].terms().values()
        assert series[n].substitute({"q": 1}) == (1 if n == 0 else 0)
    assert any(coeff < 0 for coeff in series[10].terms().values())


def test_depth_preset_order_three():
    series = expand(preset_depth(), 3)
    assert series[3] == 1 + 2 * T + 3 * T**2


def test_depth_preset_matches_brute_force():
    series = expand(preset_depth(), 7)
    for n in range(8):
        assert series[n] == brute_force_depth_gf(n)


def test_refined_preset_matches_brute_force():
    series = expand(preset_refined(), 10)
    for n in range(11):
        assert series[n] == brute_force_gf(n)


def test_expansion_matches_the_path_sum_of_a_generic_spec():
    # distinct nonzero coefficients at every height, so that a product taken
    # at the wrong height, or a path dropped or counted twice, shows
    spec = JFractionSpec(
        gamma=lambda h: (h + 2) * Q**h + P,
        lam=lambda h: (2 * h + 1) * S * T**h,
    )
    series = expand(spec, 9)
    assert len(series) == 10
    for n in range(10):
        assert series[n] == path_sum(spec, n)


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
    with pytest.raises(SizeLimitError):
        expand(preset_refined(), REFINED_ORDER_LIMIT + 1)
    custom = JFractionSpec(gamma=lambda h: MultiPoly.one(), lam=lambda h: MultiPoly.one())
    assert custom.max_order == preset_depth().max_order == EXPANSION_ORDER_LIMIT == 30
    with pytest.raises(SizeLimitError):
        expand(custom, 31)
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


def test_brute_force_is_computed_once_per_n():
    assert brute_force_gf(6) is brute_force_gf(6)


def test_brute_force_guards():
    with pytest.raises(SizeLimitError):
        brute_force_gf(13)
    with pytest.raises(SizeLimitError):
        brute_force_depth_gf(13)
