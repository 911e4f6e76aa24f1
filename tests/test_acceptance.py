"""Acceptance battery: every criterion exact (tolerance zero), one printed
pass/fail line per criterion (run with ``pytest -s`` to see them live)."""

import functools
import math
import time

from permotzkin.algebra import MultiPoly, P, Q, S, T, q_integer
from permotzkin.bijection import decode, encode
from permotzkin.identities import (
    derangement_series_rhs,
    derangement_signed_gf,
    derangement_table_report,
)
from permotzkin.involution import (
    euler_numbers,
    parity_reversing_involution,
    sign_imbalance_depth,
    sign_imbalance_exc,
)
from permotzkin.jfraction import (
    brute_force_depth_gf,
    brute_force_gf,
    expand,
    preset_depth,
    preset_refined,
)
from permotzkin.motzkin import (
    StepKind,
    enumerate_weighted,
    path_weight,
    step_weight,
)
from permotzkin.permutations import (
    depth_via_factorization,
    image_stats,
    iter_group,
)

EULER = (1, 1, 1, 2, 5, 16, 61, 272, 1385)  # E_0 .. E_8


def criterion(label):
    def wrap(test):
        @functools.wraps(test)
        def runner():
            try:
                test()
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return runner

    return wrap


@criterion("1 bijection onto weighted paths, n <= 8")
def test_criterion_1_bijection():
    started = time.perf_counter()
    for n in range(9):
        image = set()
        for perm in iter_group(n):
            path = encode(perm)
            assert path_weight(path) == MultiPoly({image_stats(perm.images): 1})
            assert decode(path) == perm
            image.add(path)
        assert len(image) == math.factorial(n)
        assert image == set(enumerate_weighted(n))
    assert time.perf_counter() - started < 30.0


@criterion("2 refined continued fraction, n <= 8")
def test_criterion_2_refined_continued_fraction():
    series = expand(preset_refined(), 8)
    for n in range(9):
        assert series[n] == brute_force_gf(n)


@criterion("3 depth continued fraction, n <= 9")
def test_criterion_3_depth_continued_fraction():
    series = expand(preset_depth(), 9)
    for n in range(10):
        assert series[n] == brute_force_depth_gf(n)
    assert series[3] == 1 + 2 * T + 3 * T**2


@criterion("4 sign-imbalance identities, n <= 8")
def test_criterion_4_sign_imbalances():
    assert euler_numbers(8) == EULER
    started = time.perf_counter()
    depth_values = tuple(sign_imbalance_depth(n) for n in range(1, 9))
    exc_values = tuple(sign_imbalance_exc(n) for n in range(1, 9))
    assert depth_values == (1, 0, 2, 0, 16, 0, 272, 0)
    assert exc_values == (1, 0, -2, 0, 16, 0, -272, 0)
    assert time.perf_counter() - started < 60.0


@criterion("5 involution contract, n <= 8")
def test_criterion_5_involution_contract():
    for n in range(1, 9):
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
        assert fixed == (EULER[n] if n % 2 else 0)


@criterion("6 signed permutation sum collapses, 1 <= n <= 8")
def test_criterion_6_signed_gf():
    from permotzkin.identities import signed_gf_permutations

    for n in range(1, 9):
        assert signed_gf_permutations(n) == (1 - S * T) ** (n - 1)


@criterion("7 signed derangement series and coefficient table, n <= 9")
def test_criterion_7_derangement_series_and_table():
    series = derangement_series_rhs(9)
    for n in range(1, 10):
        assert derangement_signed_gf(n) == series[n]
    cells = derangement_table_report()
    assert cells and all(expected == computed for _, _, expected, computed in cells)
    nine = derangement_signed_gf(9).split_by_exponent("t")
    assert nine[5] == -4 * S**4 * (1 + S) == series[9].split_by_exponent("t")[5]
    eight = derangement_signed_gf(8).split_by_exponent("t")
    assert eight[4] == S**4 == series[8].split_by_exponent("t")[4]


@criterion("8 cardinality, level weights, and depth cross-checks")
def test_criterion_8_consistency():
    for n in range(9):
        assert sum(1 for _ in enumerate_weighted(n)) == math.factorial(n)
    qt = Q * T
    for h in range(1, 7):
        up = sum((step_weight(StepKind.U, h, d) for d in range(h)), MultiPoly())
        down = sum((step_weight(StepKind.D, h, d) for d in range(h)), MultiPoly())
        assert up * down == S * q_integer(h) ** 2 * qt ** (2 * h - 1)
        horiz = sum(
            (step_weight(kind, h, d) for kind in (StepKind.H1, StepKind.H2) for d in range(h)),
            step_weight(StepKind.H3, h, 0),
        )
        assert horiz == ((1 + S) * q_integer(h) + P * Q**h) * qt**h
    assert step_weight(StepKind.H3, 0, 0) == P
    for n in range(7):
        for perm in iter_group(n):
            assert depth_via_factorization(perm) == image_stats(perm.images)[3]
