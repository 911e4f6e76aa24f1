import itertools
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permotzkin import involution, jfraction, permutations
from permotzkin.errors import SizeLimitError
from permotzkin.involution import (
    euler_numbers,
    parity_reversing_involution,
    sign_imbalance_depth,
    sign_imbalance_exc,
)
from permotzkin.permutations import (
    Permutation,
    image_stats,
    iter_group,
)
from oracles import is_alternating

perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


def test_euler_table_values():
    assert euler_numbers(8) == (1, 1, 1, 2, 5, 16, 61, 272, 1385)
    assert euler_numbers(8)[4] == 5
    assert euler_numbers(8)[7] == 272


def test_euler_numbers_count_alternating_permutations():
    table = euler_numbers(8)
    for n in range(9):
        count = sum(1 for perm in iter_group(n) if is_alternating(perm))
        assert count == table[n]


def test_euler_guard():
    with pytest.raises(SizeLimitError, match="limit <= 1000"):
        euler_numbers(1001)


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 0), (3, 2), (4, 0), (7, 272)])
def test_sign_imbalance_depth_values(n, expected):
    assert sign_imbalance_depth(n) == expected


@pytest.mark.parametrize("n, expected", [(1, 1), (3, -2), (4, 0), (5, 16), (7, -272)])
def test_sign_imbalance_exc_values(n, expected):
    assert sign_imbalance_exc(n) == expected


def test_sign_imbalance_guard():
    with pytest.raises(SizeLimitError):
        sign_imbalance_depth(19)


def euler_imbalances(n):
    """(sum (-1)^depth, sum (-1)^exc) over S_n, n >= 1, as the paper states them."""
    euler = euler_numbers(n)[n] if n % 2 else 0
    return euler, (-1) ** ((n - 1) // 2) * euler


@pytest.mark.parametrize("n", range(9))
def test_sign_imbalances_match_a_walk_over_s_n(n):
    # image_stats over iter_group shares no code with the subset fold
    stats = [image_stats(perm.images) for perm in iter_group(n)]
    assert sign_imbalance_depth(n) == sum((-1) ** depth for *_, depth in stats)
    assert sign_imbalance_exc(n) == sum((-1) ** exc for _, _, exc, _ in stats)


@pytest.mark.parametrize("n", [13, 16, 17])
def test_sign_imbalances_past_the_brute_force_bound(n):
    assert (sign_imbalance_depth(n), sign_imbalance_exc(n)) == euler_imbalances(n)


def test_sign_imbalances_do_not_build_the_polynomial(monkeypatch):
    def refuse(n):
        raise AssertionError(f"brute_force_gf({n}) was built")

    monkeypatch.setattr(jfraction, "_brute_force_gf", refuse)
    for n in range(1, 13):
        assert (sign_imbalance_depth(n), sign_imbalance_exc(n)) == euler_imbalances(n)


def test_involution_on_singleton():
    one = Permutation((1,))
    assert parity_reversing_involution(one) == one


def test_involution_pairs_s2():
    a = Permutation.from_text("1 2")
    b = Permutation.from_text("2 1")
    assert parity_reversing_involution(a) == b
    assert parity_reversing_involution(b) == a


def test_involution_fixed_point_count_s3():
    fixed = [
        perm
        for perm in iter_group(3)
        if parity_reversing_involution(perm) == perm
    ]
    assert len(fixed) == 2
    for perm in fixed:
        _, _, exc, dep = image_stats(perm.images)
        assert dep % 2 == 0
        assert exc % 2 == 1


def test_involution_contract_exhaustively():
    table = euler_numbers(7)
    for n in range(1, 8):
        fixed = 0
        for perm in iter_group(n):
            partner = parity_reversing_involution(perm)
            assert parity_reversing_involution(partner) == perm
            pi, _, pe, pd = image_stats(perm.images)
            qi, _, qe, qd = image_stats(partner.images)
            delta = qi - pi
            assert delta == qe - pe == qd - pd
            assert delta in (-1, 0, 1)
            assert (delta == 0) == (partner == perm)
            if partner == perm:
                fixed += 1
        assert fixed == (table[n] if n % 2 else 0)


def test_involution_guard():
    with pytest.raises(SizeLimitError):
        parity_reversing_involution(Permutation(tuple(range(1, 11))))


@settings(deadline=None)
@given(perms)
def test_involution_delta_law(perm):
    partner = parity_reversing_involution(perm)
    pi, _, pe, pd = image_stats(perm.images)
    qi, _, qe, qd = image_stats(partner.images)
    delta = qi - pi
    assert delta == qe - pe == qd - pd
    assert delta in (-1, 0, 1)
    assert parity_reversing_involution(partner) == perm


def tuple_keyed_pairing(n):
    """The greedy matching keyed by image tuples, with layers sorted explicitly."""
    groups = {}
    for images in itertools.permutations(range(1, n + 1)):
        inv, _, exc, dep = image_stats(images)
        groups.setdefault((inv - dep, exc - dep), {}).setdefault(dep, []).append(images)
    pairing = {}
    for layers in groups.values():
        carry, previous_depth = [], None
        for dep in sorted(layers):
            layer = sorted(layers[dep])
            if previous_depth is not None and dep == previous_depth + 1:
                matched = min(len(carry), len(layer))
                for low, high in zip(carry[:matched], layer[:matched]):
                    pairing[low], pairing[high] = high, low
                carry = layer[matched:]
            else:
                carry = layer
            previous_depth = dep
    return pairing


@pytest.mark.parametrize("n", range(9))
def test_rank_table_matches_the_tuple_keyed_greedy(n):
    group = list(itertools.permutations(range(1, n + 1)))
    rank = {images: r for r, images in enumerate(group)}
    pairing = tuple_keyed_pairing(n)
    expected = [rank[pairing.get(images, images)] for images in group]
    assert list(involution._pairing(n)) == expected


@pytest.mark.parametrize("n", range(8))
def test_rank_and_unrank_follow_itertools_order(n):
    for r, images in enumerate(itertools.permutations(range(1, n + 1))):
        assert involution._rank(images) == r
        assert involution._unrank(r, n) == images


def packed_stats(images):
    inv, fix, exc, dep = image_stats(images)
    return inv | fix << 8 | exc << 16 | dep << 24


@pytest.mark.parametrize("n", range(9))
def test_statistics_table_matches_image_stats(n):
    table = permutations._stats_by_rank(n)
    group = itertools.permutations(range(1, n + 1))
    assert table == array("I", map(packed_stats, group))
    for r, packed in enumerate(table):
        assert packed == packed_stats(involution._unrank(r, n))


def test_statistics_table_of_s0_is_one_zero_entry():
    assert permutations._stats_by_rank(0) == array("I", [0])


def test_statistics_table_guard():
    with pytest.raises(SizeLimitError):
        permutations._stats_by_rank(10)
