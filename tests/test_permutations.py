import dataclasses
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permotzkin.errors import ParseError, SizeLimitError
from permotzkin.permutations import (
    Permutation,
    _fold_values_left,
    _pack,
    depth_via_factorization,
    image_stats,
    iter_derangements,
    iter_group,
)
from oracles import inverse, is_alternating

perms = st.integers(min_value=0, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


def P(text: str) -> Permutation:
    return Permutation.from_text(text)


def merge_inversions(values: list[int]) -> tuple[list[int], int]:
    """``values`` sorted by merging, and the number of inversions it removed."""
    if len(values) < 2:
        return values, 0
    middle = len(values) // 2
    left, left_inv = merge_inversions(values[:middle])
    right, right_inv = merge_inversions(values[middle:])
    merged: list[int] = []
    i = j = 0
    inv = left_inv + right_inv
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            inv += len(left) - i
    return merged + left[i:] + right[j:], inv


def reference_stats(images: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(inv, fix, exc, depth) by merge sort and a direct scan of the positions."""
    pairs = list(enumerate(images, start=1))
    fix = sum(1 for i, v in pairs if v == i)
    exc = sum(1 for i, v in pairs if v > i)
    dep = sum(v - i for i, v in pairs if v > i)
    return merge_inversions(list(images))[1], fix, exc, dep


def random_images(n: int, seed: str) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    random.Random(seed).shuffle(images)
    return tuple(images)


@pytest.mark.parametrize(
    "text, inv, fix, exc, dep",
    [
        ("1 2 3 4 5", 0, 5, 0, 0),
        ("3 2 1", 3, 1, 1, 2),
        ("2 3 1", 2, 0, 2, 2),
        ("3 1 2", 2, 0, 1, 2),
        ("2 1", 1, 0, 1, 1),
        ("", 0, 0, 0, 0),
    ],
)
def test_statistics(text, inv, fix, exc, dep):
    assert image_stats(P(text).images) == (inv, fix, exc, dep)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 100, 1000, 3000])
def test_image_stats_matches_a_merge_sort_reference(n):
    for seed in range(3):
        images = random_images(n, f"stats:{n}:{seed}")
        assert image_stats(images) == reference_stats(images)


def test_image_stats_of_the_identity_and_the_reversal_at_n_5000():
    n = 5000
    identity = tuple(range(1, n + 1))
    assert image_stats(identity) == reference_stats(identity) == (0, n, 0, 0)
    reversal = identity[::-1]
    half = n // 2
    expected = (n * (n - 1) // 2, 0, half, half * half)
    assert image_stats(reversal) == reference_stats(reversal) == expected


def test_image_stats_counts_strictly_greater_earlier_values():
    # Not a permutation: a repeated value is no inversion, as for a pairwise count.
    assert image_stats((2, 2, 1)) == (2, 1, 1, 1)
    assert image_stats((3, 1, 3, 1)) == (3, 1, 1, 2)


def test_derangements_have_no_fixed_points():
    for n in range(7):
        for perm in iter_derangements(n):
            assert image_stats(perm.images)[1] == 0


def test_inverse_examples():
    assert inverse(P("2 3 1")) == P("3 1 2")
    assert inverse(Permutation((1, 2, 3, 4))) == Permutation((1, 2, 3, 4))


def test_len():
    assert len(P("2 3 1")) == 3
    assert len(P("")) == 0


def test_inverse_is_involutive_exhaustively():
    for perm in iter_group(6):
        assert inverse(inverse(perm)) == perm


def test_statistics_of_inverse():
    # depth is half the total displacement, hence inverse-invariant; so is inv
    for perm in iter_group(6):
        inv, _, _, dep = image_stats(perm.images)
        other_inv, _, _, other_dep = image_stats(inverse(perm).images)
        assert (other_inv, other_dep) == (inv, dep)


def test_statistic_sandwich():
    for n in range(7):
        for perm in iter_group(n):
            inv, _, exc, dep = image_stats(perm.images)
            assert exc <= dep <= inv


def test_depth_distribution_total():
    for n in range(7):
        assert sum(1 for _ in iter_group(n)) == math.factorial(n)
    with pytest.raises(dataclasses.FrozenInstanceError):
        next(iter_group(2)).images = (2, 1)


@pytest.mark.parametrize("text, expected", [("1 2", 0), ("2 1", 1), ("", 0)])
def test_factorization_depth_small(text, expected):
    assert depth_via_factorization(P(text)) == expected


def test_factorization_depth_matches_formula_exhaustively():
    for n in range(6):
        for perm in iter_group(n):
            assert depth_via_factorization(perm) == image_stats(perm.images)[3]


def test_factorization_depth_guard():
    with pytest.raises(SizeLimitError):
        depth_via_factorization(Permutation(tuple(range(1, 9))))


def test_group_enumeration_counts_and_order():
    listing = [perm.images for perm in iter_group(3)]
    assert listing == sorted(listing)
    assert len(listing) == 6
    assert next(iter_group(0)) == Permutation(())


def test_derangement_listing():
    assert [perm.to_text() for perm in iter_derangements(3)] == ["2 3 1", "3 1 2"]
    # derangement numbers 1, 0, 1, 2, 9, 44, 265
    counts = [sum(1 for _ in iter_derangements(n)) for n in range(7)]
    assert counts == [1, 0, 1, 2, 9, 44, 265]


def test_derangements_are_the_fixed_point_free_subsequence_of_the_group():
    # a generator function, so the stream is lazy and perfbench counts its items
    assert inspect.isgeneratorfunction(iter_derangements)
    for n in range(9):
        expected = [perm for perm in iter_group(n) if image_stats(perm.images)[1] == 0]
        assert list(iter_derangements(n)) == expected


def test_enumeration_guard():
    with pytest.raises(SizeLimitError):
        next(iter_group(13))
    with pytest.raises(SizeLimitError):
        next(iter_derangements(13))


def test_alternating_counts_match_euler_numbers():
    counts = [
        sum(1 for perm in iter_group(n) if is_alternating(perm)) for n in range(7)
    ]
    assert counts == [1, 1, 1, 2, 5, 16, 61]


def test_alternating_examples():
    assert is_alternating(P("2 1 4 3"))
    assert not is_alternating(P("1 2"))


@given(perms)
def test_inverse_roundtrip(perm):
    assert inverse(inverse(perm)) == perm
    assert image_stats(perm.images)[3] == image_stats(inverse(perm).images)[3]


def test_text_roundtrip():
    assert P("3 1 2").to_text() == "3 1 2"
    assert P("").to_text() == ""


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2 2 1", "position 2: value 2 repeated"),
        ("1 x 3", "position 2"),
        ("5 1 2", "position 1: value 5 out of range"),
        ("0 1", "position 1: value 0 out of range"),
    ],
)
def test_parse_errors_carry_positions(text, fragment):
    with pytest.raises(ParseError, match=fragment.replace("(", "\\(")):
        Permutation.from_text(text)


def test_constructor_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1))


def test_constructor_echoes_a_long_tuple_by_its_length():
    images = tuple(range(2, 10**4))
    with pytest.raises(ValueError) as info:
        Permutation(images)
    message = f"a tuple of {len(repr(images))} characters is not a permutation of 1..9998"
    assert str(info.value) == message and len(message) < 200
    with pytest.raises(ValueError, match=r"^\(2,\) is not a permutation of 1\.\.1$"):
        Permutation((2,))


# 1.0 and True compare equal to 1, so only a type test refuses the last four
@pytest.mark.parametrize(
    "images", [(2, 3), (0,), (1, 2, 2), (1.0, 2.0), (True,), (2, True), (1, 2.0, 3)]
)
def test_constructor_still_checks_its_input(images):
    with pytest.raises(ValueError, match="is not a permutation of"):
        Permutation(images)


def test_group_items_are_permutations_like_the_constructors():
    # iter_group skips the constructor's check; its items must not tell
    for n in range(7):
        for perm, images in zip(iter_group(n), itertools.permutations(range(1, n + 1))):
            built = Permutation(images)
            assert type(perm) is Permutation
            assert perm == built and hash(perm) == hash(built) and {perm, built} == {built}
            assert perm.images == images and repr(perm) == repr(built)
        assert sum(1 for _ in iter_group(n)) == math.factorial(n)
    with pytest.raises(dataclasses.FrozenInstanceError):
        next(iter_group(2)).images = (2, 1)


@given(st.integers(min_value=0, max_value=40).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_parsed_permutations_are_like_the_constructors(images):
    # from_text checks every token itself and skips the constructor's check
    perm = Permutation.from_text(" ".join(map(str, images)))
    built = Permutation(tuple(images))
    assert type(perm) is Permutation and type(perm.images) is tuple
    assert perm == built and hash(perm) == hash(built) and repr(perm) == repr(built)
    with pytest.raises(dataclasses.FrozenInstanceError):
        perm.images = ()


@pytest.mark.parametrize("n", range(7))
def test_the_subset_fold_combines_each_set_once_from_its_parts_in_value_order(n):
    calls = []  # the parts of each combine call; the block it returns is its index

    def combine(parts):
        calls.append(parts)
        return len(calls) - 1

    top = _fold_values_left(n, -1, combine)  # -1 is the block of the empty set
    assert len(calls) == 2**n - 1
    # Name each block by its set from the top down: the block of R - {v} in
    # R's parts, which must then be the one every other superset sees.
    sets = {-1: frozenset(), top: frozenset(range(1, n + 1))}
    for block in reversed(range(len(calls))):  # a set's call comes after its subsets'
        parts, values = calls[block], sorted(sets[block])
        position = n - len(values) + 1
        steps = [
            _pack((smaller, v == position, v > position, max(v - position, 0)))
            for smaller, v in enumerate(values)
        ]
        assert [step for step, _ in parts] == steps
        subsets = [sets[block] - {v} for v in values]
        named = [sets.setdefault(part, subset) for (_, part), subset in zip(parts, subsets)]
        assert named == subsets
    assert len(set(sets.values())) == len(sets) == 2**n
