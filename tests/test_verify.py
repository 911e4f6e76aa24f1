import dataclasses
import functools
import itertools
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from permotzkin import bijection, identities, involution, jfraction, motzkin, permutations, verify
from permotzkin.algebra import MultiPoly, Q, S, T
from permotzkin.cli import main
from permotzkin.permutations import Permutation, image_stats

SRC = str(Path(__file__).resolve().parent.parent / "src")

# check -> (first n, last n): what each check covers when --max-n allows it.
# Written out here rather than read from verify, so a changed range shows.
SPANS = {
    "bijection": (0, 8),
    "cardinality": (0, 8),
    "refined-cf": (0, 8),
    "depth-cf": (0, 9),
    "imbalance-depth": (1, 9),
    "imbalance-exc": (1, 9),
    "involution": (1, 8),
    "signed-gf": (1, 9),
    "derangement-series": (1, 9),
    "level-weights": (0, 9),
    "depth-min-cost": (0, 6),
}


def expected_keys(max_n: int) -> set[tuple[str, int]]:
    keys = {
        (check, n)
        for check, (first, last) in SPANS.items()
        for n in range(first, min(last, max_n) + 1)
    }
    # the anchor table always has its rows 2..9, whatever max_n is
    return keys | {("derangement-table", n) for n in range(2, 10)}


@pytest.mark.parametrize("max_n", range(10))  # every max_n verify accepts
def test_record_set_follows_the_declared_ranges(max_n):
    records = verify.run_checks(max_n=max_n)
    keys = [(record.check, record.n) for record in records]
    assert len(keys) == len(set(keys))
    assert set(keys) == expected_keys(max_n)
    assert all(record.passed for record in records)


def test_runner_fails_exactly_the_record_whose_texts_differ(capsys, monkeypatch):
    check, covers = verify.CHECK_TABLE["signed-gf"]

    def broken(n):
        expected, computed = check(n)
        return (expected, computed + " + 1") if n == 3 else (expected, computed)

    monkeypatch.setitem(verify.CHECK_TABLE, "signed-gf", (broken, covers))
    records = verify.run_checks(["signed-gf", "cardinality"], 5)
    failed = [(record.check, record.n) for record in records if record.status == "fail"]
    assert failed == [("signed-gf", 3)]
    assert len(records) == 11

    code = main(["verify", "--max-n", "5", "--check", "signed-gf"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.count("[FAIL]") == 1
    assert (
        "[FAIL] signed-gf n=3 expected='s^2*t^2 - 2*s*t + 1'"
        " computed='s^2*t^2 - 2*s*t + 1 + 1'\n" in out
    )
    assert out.endswith("4/5 checks passed\n")


def test_a_check_named_twice_runs_once(capsys):
    twice = verify.run_checks(["signed-gf", "cardinality", "signed-gf"], 2)
    once = verify.run_checks(["signed-gf", "cardinality"], 2)
    assert [r.as_record() for r in twice] == [r.as_record() for r in once]
    assert len(once) == 5

    argv = ["verify", "--check", "signed-gf", "--max-n", "2"]
    assert main(argv) == 0
    single = capsys.readouterr().out
    assert main(argv + ["--check", "signed-gf"]) == 0
    assert capsys.readouterr().out == single == (
        "[PASS] signed-gf n=1\n[PASS] signed-gf n=2\n2/2 checks passed\n"
    )
    with pytest.raises(ValueError, match="^unknown checks: nope, nope$"):
        verify.run_checks(["signed-gf", "nope", "nope"], 2)


def test_derangement_table_computes_each_row_once(monkeypatch):
    requested = []
    signed_gf = identities.derangement_signed_gf

    def counting(n):
        requested.append(n)
        return signed_gf(n)

    monkeypatch.setattr(identities, "derangement_signed_gf", counting)
    records = verify.run_checks(["derangement-table"], 0)
    assert [record.n for record in records] == list(range(2, 10))
    assert all(record.passed for record in records)
    assert requested == list(range(2, 10))


@pytest.mark.parametrize("extra, k", [(S * T**3, 3), (T**9, 9)])
def test_derangement_table_check_names_the_first_cell_that_differs(monkeypatch, extra, k):
    signed_gf = identities.derangement_signed_gf

    def broken(n):
        return signed_gf(n) + extra if n == 5 else signed_gf(n)

    monkeypatch.setattr(identities, "derangement_signed_gf", broken)
    records = verify.run_checks(["derangement-table"], 0)
    layer = identities._rhs_coefficient(5).split_by_exponent("t").get(k, MultiPoly())
    got = layer + extra.split_by_exponent("t")[k]
    assert [(record.n, record.computed) for record in records if not record.passed] == [
        (5, f"t^{k}: expected {layer}, got {got}")
    ]


def test_depth_min_cost_check_names_the_permutation_whose_cost_differs(monkeypatch):
    depth = verify.depth_via_factorization
    monkeypatch.setattr(
        verify, "depth_via_factorization", lambda perm: depth(perm) + (perm.images == (2, 1, 3))
    )
    assert failed_records() == [("depth-min-cost", 3, "mismatch at '2 1 3'")]


def test_verify_output_is_the_same_under_python_O():
    # Every check must be a real comparison, not an assert that -O strips.
    def run(*flags):
        return subprocess.run(
            [sys.executable, *flags, "-m", "permotzkin.cli"]
            + ["verify", "--max-n", "5", "--format", "json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
        )

    plain, optimised = run(), run("-O")
    assert plain.returncode == optimised.returncode == 0
    assert optimised.stdout == plain.stdout
    assert plain.stdout.startswith("[")


def failed_records(max_n=6):
    """(check, n, computed) of every failing record, after checking the record set."""
    records = verify.run_checks(max_n=max_n)
    assert {(record.check, record.n) for record in records} == expected_keys(max_n)
    return [(record.check, record.n, record.computed) for record in records if not record.passed]


def same_stats_pair(n, skip=()):
    """The lexicographically first two permutations of S_n with equal statistics.

    Permutations whose lexicographic rank is in ``skip`` are passed over.
    """
    first = {}
    for rank, images in enumerate(itertools.permutations(range(1, n + 1))):
        if rank in skip:
            continue
        stats = image_stats(images)
        if stats in first:
            return first[stats], images
        first[stats] = images
    raise AssertionError(f"all statistics differ on S_{n}")


def rank(images):
    """Position of images in the lexicographic walk of its S_n."""
    return list(itertools.permutations(range(1, len(images) + 1))).index(images)


def test_round_trip_catches_encode_sending_two_permutations_to_one_path(monkeypatch):
    # Equal statistics, so the weight check passes and only the round trip can tell.
    kept, lost = (Permutation(images) for images in same_stats_pair(4))
    encode = bijection.encode
    monkeypatch.setattr(bijection, "encode", lambda perm: encode(kept if perm == lost else perm))
    assert failed_records() == [("bijection", 4, f"round trip failed at {lost.to_text()!r}")]


def patch_walk(monkeypatch, mutate):
    """Serve the walk's (exponents, images) through ``mutate`` on every path."""
    walk = motzkin._walk
    monkeypatch.setattr(motzkin, "_walk", lambda path: mutate(*walk(path)))


def test_round_trip_catches_a_decode_kernel_swapping_two_images(monkeypatch):
    # The check compares the walk's images with the permutation's, so a
    # walk wrong on one permutation of S_4 fails that record and no other.
    def swapping(exponents, images):
        if images == (2, 4, 1, 3):
            images = (4, 2, 1, 3)
        return exponents, images

    patch_walk(monkeypatch, swapping)
    assert failed_records() == [("bijection", 4, "round trip failed at '2 4 1 3'")]


def test_weight_check_catches_a_walk_summing_wrong_exponents(monkeypatch):
    # One more inversion on one permutation of S_4 fails that record and no other.
    def shifted(exponents, images):
        if images == (2, 4, 1, 3):
            exponents = (exponents[0] + 1, *exponents[1:])
        return exponents, images

    patch_walk(monkeypatch, shifted)
    assert failed_records() == [("bijection", 4, "weight mismatch at '2 4 1 3'")]


def test_bijection_check_validates_each_path_once(monkeypatch):
    walks = []
    walk = motzkin._walk

    def counted(path):
        walks.append(path)
        return walk(path)

    def refuse(path):
        raise AssertionError("the bijection check called a public walk")

    monkeypatch.setattr(motzkin, "_walk", counted)
    monkeypatch.setattr(motzkin, "path_exponents", refuse)
    monkeypatch.setattr(bijection, "decode", refuse)
    records = verify.run_checks(["bijection"], 6)
    assert [record.n for record in records if record.passed] == list(range(7))
    assert len(set(walks)) == len(walks)
    assert Counter(map(len, walks)) == {n: math.factorial(n) for n in range(7)}


def test_weight_check_catches_a_path_of_other_statistics(monkeypatch):
    identity, swap = Permutation((1, 2, 3, 4)), Permutation((2, 1, 3, 4))
    encode = bijection.encode
    monkeypatch.setattr(bijection, "encode", lambda perm: encode(identity if perm == swap else perm))
    assert failed_records() == [("bijection", 4, "weight mismatch at '2 1 3 4'")]


def patch_pairing(monkeypatch, n, mutate):
    """Serve a mutated copy of the partner ranks of S_n, the true table otherwise."""
    pairing = involution._pairing
    table = pairing(n)[:]
    mutate(table)
    monkeypatch.setattr(involution, "_pairing", lambda m: table if m == n else pairing(m))


def pair(table, a, b):
    table[a], table[b] = b, a


def test_involution_check_catches_a_three_cycle_of_partners(monkeypatch):
    def mutate(table):
        a, b, c = range(3)  # the ranks of 1 2 3 4, 1 2 4 3 and 1 3 2 4
        table[a], table[b], table[c] = b, c, a

    patch_pairing(monkeypatch, 4, mutate)
    assert failed_records() == [("involution", 4, "not involutive at '1 2 3 4'")]


# Each shift moves the partner rank out of 0..23, the ranks of S_4; by -24 = -4!
# a negative index would wrap around onto the true partner and pass unnoticed.
@pytest.mark.parametrize("shift", [24, 10**6, -24])
def test_involution_check_reports_a_partner_rank_out_of_range(monkeypatch, shift):
    at = (1, 3, 2, 4)

    def mutate(table):
        table[rank(at)] += shift

    patch_pairing(monkeypatch, 4, mutate)
    assert failed_records() == [("involution", 4, "not involutive at '1 3 2 4'")]


# (inv, exc, depth) move by (6, 2, 4), by (2, 2, 2) outside {1, 0, -1}, by
# (1, 1, 2) and by (1, 0, 1); the first of each pair is the first record to break
@pytest.mark.parametrize(
    "first, other",
    [
        ((1, 2, 3, 4), (4, 3, 2, 1)),
        ((1, 2, 3, 4), (2, 1, 4, 3)),
        ((1, 4, 3, 2), (3, 4, 1, 2)),
        ((1, 3, 2, 4), (1, 4, 2, 3)),
    ],
)
def test_involution_check_catches_partners_breaking_the_delta_law(monkeypatch, first, other):
    def mutate(table):
        pair(table, table[rank(first)], table[rank(other)])
        pair(table, rank(first), rank(other))

    patch_pairing(monkeypatch, 4, mutate)
    at = Permutation(first).to_text()
    assert failed_records() == [("involution", 4, f"delta law broken at {at!r}")]


def test_involution_check_catches_partners_with_delta_zero(monkeypatch):
    # two fixed points of S_5 with equal statistics, paired with each other
    matched = {r for r, other in enumerate(involution._pairing(5)) if other != r}
    first, second = same_stats_pair(5, skip=matched)
    patch_pairing(monkeypatch, 5, lambda table: pair(table, rank(first), rank(second)))
    at = Permutation(first).to_text()
    assert failed_records() == [("involution", 5, f"delta/fixed mismatch at {at!r}")]


def test_bijection_check_never_enumerates_paths(monkeypatch):
    def refuse(n):
        raise AssertionError("the bijection check enumerated the paths")

    monkeypatch.setattr(motzkin, "enumerate_weighted", refuse)
    for n in range(7):
        expected, computed = verify._bijection(n)
        assert computed == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_check_does_each_permutations_work_once(monkeypatch, n):
    # bijection, involution and the pairing read one statistics table, built
    # once for n; neither walk computes a permutation's statistics itself.
    builds = {"_stats_by_rank": [], "_pairing": []}

    def counted(name, function):
        @functools.lru_cache(maxsize=None)
        def build(m):
            builds[name].append(m)
            return function(m)

        return build

    def refuse(images):
        raise AssertionError("an S_n walk called image_stats")

    for module, name in ((permutations, "_stats_by_rank"), (involution, "_pairing")):
        fresh = counted(name, getattr(module, name).__wrapped__)
        monkeypatch.setattr(module, name, fresh)
    monkeypatch.setattr(verify, "image_stats", refuse)
    monkeypatch.setattr(permutations, "image_stats", refuse)
    for check in (verify._bijection, verify._involution):
        expected, computed = check(n)
        assert computed == expected
    assert builds == {"_stats_by_rank": [n], "_pairing": [n]}


def test_bijection_check_catches_a_corrupt_statistics_table(monkeypatch):
    # Only the bijection check reads the fixed points from the shared table,
    # so a wrong fix byte fails its record and no other: the table is checked
    # against the paths' weights, never trusted as it stands.
    stats = permutations._stats_by_rank
    table = stats(5)[:]
    table[rank((2, 1, 3, 4, 5))] ^= 1 << 8  # 3 fixed points read as 2
    monkeypatch.setattr(permutations, "_stats_by_rank", lambda m: table if m == 5 else stats(m))
    assert failed_records() == [("bijection", 5, "weight mismatch at '2 1 3 4 5'")]


def test_involution_check_names_no_permutation_when_it_passes(monkeypatch):
    # The check reads the statistics table; it unranks only to name a failure.
    def refuse(rank, n):
        raise AssertionError("the passing involution check unranked a permutation")

    monkeypatch.setattr(involution, "_unrank", refuse)
    for n in range(1, 9):
        expected, computed = verify._involution(n)
        assert computed == expected


@pytest.mark.parametrize("field, h", [("gamma", 5), ("lam", 6)])
def test_level_weights_hold_the_menus_to_the_preset_expand_uses(monkeypatch, field, h):
    # A wrong coefficient in the preset, which expand reads, must fail the
    # level-weights record of its height and no other record.
    preset = jfraction.preset_refined

    def wrong_preset():
        spec = preset()
        right = getattr(spec, field)
        return dataclasses.replace(spec, **{field: lambda k: right(k) + (Q**9 if k == h else 0)})

    monkeypatch.setattr(jfraction, "preset_refined", wrong_preset)
    assert failed_records() == [("level-weights", h, f"mismatch at height {h}")]
