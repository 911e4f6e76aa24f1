import itertools
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permotzkin.algebra import MultiPoly
from permotzkin.bijection import decode, encode
from permotzkin.errors import InvalidPathError
from permotzkin.jfraction import brute_force_gf
from permotzkin.motzkin import (
    KIND_D,
    KIND_H1,
    KIND_H2,
    KIND_H3,
    KIND_U,
    WeightedMotzkinPath,
    enumerate_weighted,
    path_exponents,
    path_weight,
)
from permotzkin.permutations import Permutation, image_stats, iter_group
from test_motzkin import reference_validate, step_sequences

perms = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
).map(lambda images: Permutation(tuple(images)))


def reference_encode(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(kinds, heights, choices) of the path, each rank counted by a scan.

    A closing step's choice is the number of open arcs nested inside the one
    it closes, counted over every earlier position: O(n^2), and sharing
    nothing with the sorted open-arc lists of ``encode``.
    """
    n = len(images)
    inverse = [0] * (n + 1)
    for i, v in enumerate(images, start=1):
        inverse[v] = i
    kinds: list[int] = []
    heights: list[int] = []
    choices = [0] * n
    stack: list[int] = []
    running = 0
    for m in range(1, n + 1):
        v = images[m - 1]
        w = inverse[m]
        if v == m:
            kinds.append(KIND_H3)
            heights.append(running)
            continue
        if v > m and w > m:
            running += 1
            kinds.append(KIND_U)
            heights.append(running)
            stack.append(m - 1)
            continue
        if v < m and w < m:
            kinds.append(KIND_D)
            heights.append(running)
            running -= 1
        else:
            kinds.append(KIND_H1 if v > m else KIND_H2)
            heights.append(running)
        if w < m:
            choices[m - 1] = sum(1 for k in range(1, w) if images[k - 1] > m)
        if v < m:
            in_rank = sum(1 for c in range(1, v) if inverse[c] > m)
            if w < m:
                choices[stack.pop()] = in_rank
            else:
                choices[m - 1] = in_rank
    return tuple(kinds), tuple(heights), tuple(choices)


def bisecting_encode(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """(kinds, heights, choices) by bisecting sorted open-arc lists, reading
    sigma^-1 from a table built before the walk and appending each step."""
    n = len(images)
    inverse = [0] * (n + 1)
    for i, v in enumerate(images, start=1):
        inverse[v] = i
    kinds: list[int] = []
    heights: list[int] = []
    choices = [0] * n
    stack: list[int] = []
    open_out: list[int] = []
    open_in: list[int] = []
    running = 0
    for m in range(1, n + 1):
        v = images[m - 1]
        w = inverse[m]
        if v == m:
            kinds.append(KIND_H3)
            heights.append(running)
            continue
        if v > m and w > m:
            running += 1
            kinds.append(KIND_U)
            heights.append(running)
            stack.append(m - 1)
        elif v < m and w < m:
            kinds.append(KIND_D)
            heights.append(running)
            running -= 1
        else:
            kinds.append(KIND_H1 if v > m else KIND_H2)
            heights.append(running)
        if w < m:
            choices[m - 1] = rank = bisect_left(open_out, w)
            del open_out[rank]
        if v < m:
            rank = bisect_left(open_in, v)
            del open_in[rank]
            choices[stack.pop() if w < m else m - 1] = rank
        if v > m:
            open_out.append(m)
        if w > m:
            open_in.append(m)
    return tuple(kinds), tuple(heights), tuple(choices)


def flat(path: WeightedMotzkinPath) -> tuple[tuple[int, ...], ...]:
    return path.kinds, path.heights, path.choices


def random_perm(n: int, seed: str) -> Permutation:
    images = list(range(1, n + 1))
    random.Random(seed).shuffle(images)
    return Permutation(tuple(images))


def test_encode_matches_the_scanning_reference_exhaustively():
    for n in range(8):
        for images in itertools.permutations(range(1, n + 1)):
            assert flat(encode(Permutation(images))) == reference_encode(images)


@pytest.mark.parametrize("n", [8, 9, 20, 100, 300, 600])
def test_encode_matches_the_scanning_reference_on_random_permutations(n):
    for seed in range(5):
        perm = random_perm(n, f"encode:{n}:{seed}")
        assert flat(encode(perm)) == reference_encode(perm.images)


def test_encode_matches_the_bisecting_reference():
    for n in range(9):
        for images in itertools.permutations(range(1, n + 1)):
            assert flat(encode(Permutation(images))) == bisecting_encode(images)
    for seed in range(3):
        perm = random_perm(4000, f"encode:4000:{seed}")
        assert flat(encode(perm)) == bisecting_encode(perm.images)


def test_large_permutation_round_trips_with_its_weight():
    perm = random_perm(10**5, "encode:100000")
    path = encode(perm)
    assert decode(path) == perm
    # inv reached twice: as the q-exponent of the path, and by image_stats
    assert path_exponents(path) == image_stats(perm.images)


def test_identity_maps_to_ground_path():
    for n in (0, 1, 4, 7):
        path = encode(Permutation(tuple(range(1, n + 1))))
        assert path.to_text() == " ".join(["H3(0,0)"] * n)
        assert path_weight(path) == MultiPoly({(0, n, 0, 0): 1})


@pytest.mark.parametrize(
    "perm_text, path_text",
    [
        ("3 2 1", "U(1,0) H3(1,0) D(1,0)"),
        ("2 3 1", "U(1,0) H1(1,0) D(1,0)"),
        ("3 1 2", "U(1,0) H2(1,0) D(1,0)"),
        ("2 1", "U(1,0) D(1,0)"),
        ("", ""),
    ],
)
def test_encode_examples(perm_text, path_text):
    perm = Permutation.from_text(perm_text)
    assert encode(perm).to_text() == path_text
    assert decode(WeightedMotzkinPath.from_text(path_text)) == perm


def test_weights_track_the_four_statistics():
    for n in range(7):
        for perm in iter_group(n):
            assert path_weight(encode(perm)) == MultiPoly({image_stats(perm.images): 1})


def test_encode_is_a_bijection_onto_the_weighted_paths():
    for n in range(7):
        image = {encode(perm) for perm in iter_group(n)}
        assert len(image) == math.factorial(n)
        assert image == set(enumerate_weighted(n))


def test_round_trip_exhaustively():
    for n in range(7):
        for perm in iter_group(n):
            assert decode(encode(perm)) == perm


def test_step_count_identities():
    for perm in iter_group(6):
        _, fix, exc, _ = image_stats(perm.images)
        kinds = encode(perm).kinds
        assert kinds.count(KIND_H3) == fix
        assert kinds.count(KIND_U) + kinds.count(KIND_H1) == exc
        assert kinds.count(KIND_U) == kinds.count(KIND_D)


def test_aggregate_weights_match_brute_force():
    for n in range(6):
        total = MultiPoly()
        for perm in iter_group(n):
            total = total + path_weight(encode(perm))
        assert total == brute_force_gf(n)


@settings(deadline=None)
@given(perms)
def test_round_trip_property(perm):
    path = encode(perm)
    assert decode(path) == perm
    assert path_weight(path) == MultiPoly({image_stats(perm.images): 1})


@settings(max_examples=300)
@given(step_sequences())
def test_decode_reports_the_reference_diagnostic(records):
    path = WeightedMotzkinPath.from_records(records)
    ok, message = reference_validate(records)
    if ok:
        assert encode(decode(path)) == path
        return
    with pytest.raises(InvalidPathError) as error:
        decode(path)
    assert str(error.value) == message


# decode builds its result unchecked, so these hold that a valid path's images are a permutation
def test_every_valid_path_decodes_to_a_permutation():
    for n in range(9):
        for path in enumerate_weighted(n):
            assert sorted(decode(path).images) == list(range(1, n + 1))


@st.composite
def valid_paths(draw) -> WeightedMotzkinPath:
    """A valid path of length at most 40, step by step from the menu in the
    ``motzkin`` module doc: any step whose end height leaves room to come back down."""
    n = draw(st.integers(min_value=0, max_value=40))
    records = []
    running = 0
    for left in range(n - 1, -1, -1):  # steps still to come after this one
        moves = [("U", running + 1, running + 1)] if running < left else []
        if running:
            moves += [("D", running, running - 1)]
            if running <= left:
                moves += [("H1", running, running), ("H2", running, running)]
        if running <= left:
            moves += [("H3", running, running)]
        kind, height, running = draw(st.sampled_from(moves))
        choice = 0 if kind == "H3" else draw(st.integers(0, height - 1))
        records.append({"kind": kind, "height": height, "choice": choice})
    return WeightedMotzkinPath.from_records(records)


@settings(deadline=None)
@given(valid_paths())
def test_valid_paths_up_to_length_40_decode_to_permutations(path):
    assert sorted(decode(path).images) == list(range(1, len(path) + 1))
    assert encode(decode(path)) == path


def test_decode_rejects_invalid_paths():
    with pytest.raises(InvalidPathError):
        decode(WeightedMotzkinPath.from_text("U(1,0)"))
    with pytest.raises(InvalidPathError):
        decode(WeightedMotzkinPath.from_text("U(1,0) H1(1,1) D(1,0)"))
