import itertools
import math
from collections import Counter

import pytest

from permotzkin import jfraction
from permotzkin.algebra import EXPONENT_LIMIT, MultiPoly, P, Q, S, T, q_integer
from permotzkin.errors import LIMITS, SizeLimitError
from permotzkin.identities import derangement_series_rhs
from permotzkin.involution import euler_numbers
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


@pytest.fixture
def unpacked_widths(monkeypatch):
    """The slot width of every packed DP state that ``expand`` unpacks: empty
    when it runs the plain DP."""
    widths = []
    unpack = MultiPoly.unpack_q

    def spy(poly, width):
        widths.append(width)
        return unpack(poly, width)

    monkeypatch.setattr(MultiPoly, "unpack_q", spy)
    return widths


def test_expansion_only_multiplies_at_heights_that_can_return(monkeypatch, unpacked_widths):
    order = 9
    # Before step k the path is at a height h <= min(k - 1, order - k + 1).
    # With order - k steps left after it, the step may stay at h only when
    # h <= order - k, and may go down from any h >= 1.
    expected = sum(
        (min(k - 1, order - k) + 1) + min(k - 1, order - k + 1) for k in range(1, order + 1)
    )
    kernel = MultiPoly.sum_of_products
    # a q gap of 2^16 puts the same products on the plain side of the cut
    for gap, packed in ((1, True), (2**16, False)):
        gammas = [(h + 2) * Q ** (h * gap) + P for h in range(order)]
        lams = [MultiPoly.zero()] + [(2 * h + 1) * S * T**h for h in range(1, order)]
        spec = JFractionSpec(gamma=gammas.__getitem__, lam=lams.__getitem__)
        products = []

        def counting_kernel(pairs):
            pairs = list(pairs)
            products.extend(b for _, b in pairs if b is not None)
            return kernel(pairs)

        unpacked_widths.clear()
        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "sum_of_products", staticmethod(counting_kernel))
            series = expand(spec, order)
        assert bool(unpacked_widths) == packed
        assert len(products) == expected
        assert list(series) == naive_expand(spec, order)


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


def test_multi_word_slots_with_mixed_signs_match_a_naive_dp(unpacked_widths):
    spec = JFractionSpec(
        gamma=lambda h: 2**70 * (1 - Q) * P + h * T**h,
        lam=lambda h: (1 - Q**h) * S * T ** (2 * h - 1) - 2**70 * h * (Q - 1) * P,
    )
    series = expand(spec, 10)
    assert unpacked_widths and min(unpacked_widths) > 64
    assert list(series) == naive_expand(spec, 10)
    coeffs = series[10].terms().values()
    assert min(coeffs) < -(2**64) and max(coeffs) > 2**64


def test_a_q_gapped_spec_takes_the_plain_dp(unpacked_widths):
    # Every q-exponent is a multiple of the gap, so at most one slot in gap
    # could ever hold a term.  At 2^16 a packed class would also span over a
    # million slots; at 2 and 16 it would fit below PACKED_WORDS_LIMIT.
    for gap in (2, 16, 2**16):
        spec = JFractionSpec(
            gamma=lambda h: 1 + Q**gap * P + h * T, lam=lambda h: S * Q ** (h * gap) + T
        )
        series = expand(spec, 12)
        assert unpacked_widths == []
        assert list(series) == naive_expand(spec, 12)
        assert series[12].coefficient((6 * gap, 0, 6, 0)) == 1  # (UD)^6 alone


def test_a_spec_that_packs_wider_than_the_cut_takes_the_plain_dp(monkeypatch, unpacked_widths):
    # each factor has q-degree 64, well below the cut, but after 9 steps a
    # state reaches q^576: 577 one-word slots, all of which can hold a term
    spec = JFractionSpec(gamma=lambda h: q_integer(65) + P, lam=lambda h: S * T)
    plain = expand(spec, 9)
    assert unpacked_widths == []
    monkeypatch.setattr(jfraction, "PACKED_WORDS_LIMIT", 577)
    assert expand(spec, 9) == plain
    assert unpacked_widths == [64] * 9


def test_exponent_overflow_raises_on_both_sides_of_the_cut(unpacked_widths):
    overflowing = MultiPoly.monomial((0, 0, 0, EXPONENT_LIMIT // 2))
    packed = JFractionSpec(gamma=lambda h: P + overflowing, lam=lambda h: S)
    with pytest.raises(ValueError):
        expand(packed, 2)
    assert unpacked_widths == [64]  # step 1 unpacked, step 2 overflows t
    plain = JFractionSpec(gamma=lambda h: P + Q ** (EXPONENT_LIMIT // 2), lam=lambda h: S)
    with pytest.raises(ValueError):
        expand(plain, 2)
    assert unpacked_widths == [64]


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
        expand(preset_refined(), 23)
    custom = JFractionSpec(gamma=lambda h: MultiPoly.one(), lam=lambda h: MultiPoly.one())
    assert custom.max_order == preset_depth().max_order == LIMITS["expansion"].bound == 30
    assert preset_refined().max_order == LIMITS["refined-expansion"].bound == 22
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


def test_series_and_euler_numbers_are_plain_tuples():
    assert type(expand(preset_depth(), 4)) is tuple
    assert type(derangement_series_rhs(4)) is tuple
    assert euler_numbers(4) == (1, 1, 1, 2, 5)
