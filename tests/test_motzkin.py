import math
from typing import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permotzkin import motzkin
from permotzkin.algebra import MultiPoly, P, Q, S, T, q_integer
from permotzkin.bijection import decode, encode
from permotzkin.errors import InvalidPathError, ParseError, SizeLimitError
from permotzkin.motzkin import (
    STEP_KINDS,
    StepKind,
    WeightedMotzkinPath,
    enumerate_weighted,
    path_exponents,
    path_weight,
    step_weight,
    validate,
)
from permotzkin.permutations import Permutation, iter_group


def path_of(text: str) -> WeightedMotzkinPath:
    return WeightedMotzkinPath.from_text(text)


def test_validate_ground_path():
    ok, message = validate(path_of("H3(0,0) H3(0,0)"))
    assert ok and message == "valid"


def test_validate_peak():
    ok, _ = validate(path_of("U(1,0) D(1,0)"))
    assert ok


def test_validate_rejects_out_of_range_choice():
    ok, message = validate(path_of("U(1,0) H1(1,1) D(1,0)"))
    assert not ok
    assert message == "step 2: H1 choice 1 out of range 0..0"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("D(1,0)", "below the x-axis"),
        ("U(2,0)", "does not match running height"),
        ("H1(0,0)", "not allowed at height 0"),
        ("U(1,0)", "ends at height 1"),
        ("U(1,0) H3(1,1) D(1,0)", "H3 choice must be 0"),
    ],
)
def test_validate_diagnostics(text, fragment):
    ok, message = validate(path_of(text))
    assert not ok
    assert fragment in message


def test_colored_horizontals_need_positive_height():
    ok, message = validate(path_of("H2(0,0)"))
    assert not ok


@pytest.mark.parametrize(
    "step, expected",
    [
        ((StepKind.H3, 0, 0), P),
        ((StepKind.U, 1, 0), S * T),
        ((StepKind.H3, 2, 0), P * T**2 * Q**4),
        ((StepKind.D, 2, 1), Q**4),
        ((StepKind.H1, 2, 1), S * T**2 * Q**3),
        ((StepKind.H2, 3, 0), T**3 * Q**3),
    ],
)
def test_step_weights(step, expected):
    assert step_weight(*step) == expected


def test_step_weight_rejects_bad_steps():
    with pytest.raises(InvalidPathError, match=r"^U choice 1 out of range 0\.\.0$"):
        step_weight(StepKind.U, 1, 1)
    with pytest.raises(InvalidPathError, match="^H1 is not allowed at height 0$"):
        step_weight(StepKind.H1, 0, 0)
    with pytest.raises(InvalidPathError, match=r"^H3 needs height >= 0 and choice 0, got \(1,1\)$"):
        step_weight(StepKind.H3, 1, 1)


@pytest.mark.parametrize(
    "h, d, message",
    [
        (1, 10**3000, "U choice of 3001 digits out of range 0..0"),
        (10**3000, 0, "exponent tuple of 3012 characters has an exponent >= 8388608"),
        (10**3000, -1, "U choice -1 out of range 0..a number of 3000 digits"),
    ],
    ids=["choice", "height", "range"],
)
def test_step_weight_echoes_long_numbers_by_their_length(h, d, message):
    with pytest.raises(ValueError) as info:
        step_weight(StepKind.U, h, d)
    assert str(info.value) == message and len(message) < 200


def test_path_weight_examples():
    assert path_weight(path_of("U(1,0) H3(1,0) D(1,0)")) == P * S * T**2 * Q**3
    assert path_weight(path_of("")) == MultiPoly.constant(1)
    assert path_weight(path_of("H3(0,0) H3(0,0) H3(0,0)")) == P**3


def test_path_weight_rejects_invalid():
    with pytest.raises(InvalidPathError):
        path_weight(path_of("D(1,0) U(1,0)"))


def test_area_examples():
    # the t exponent of the weight is the area under the path
    assert path_exponents(path_of("U(1,0) H3(1,0) D(1,0)"))[3] == 2
    assert path_exponents(path_of("H3(0,0) H3(0,0)"))[3] == 0
    # each UD peak encloses two half-unit triangles, so two peaks give 2
    assert path_exponents(path_of("U(1,0) D(1,0) U(1,0) D(1,0)"))[3] == 2


def test_area_equals_depth_exponent():
    # the t-exponent of the weight telescopes to the enclosed area, so the
    # trapezoid sum (twice each step's mean height) checks both walks' t
    for n in range(6):
        for path in enumerate_weighted(n):
            records = path.to_records()
            doubled = sum(2 * step["height"] - (step["kind"] in ("U", "D")) for step in records)
            assert 2 * path_exponents(path)[3] == doubled
            assert path_weight(path).terms().popitem()[0][3] == path_exponents(path)[3]
    with pytest.raises(InvalidPathError, match="path ends at height 1, not 0"):
        path_exponents(path_of("U(1,0)"))


def test_enumeration_counts_are_factorials():
    for n in range(7):
        assert sum(1 for _ in enumerate_weighted(n)) == math.factorial(n)


def test_enumeration_small_cases():
    assert {p.to_text() for p in enumerate_weighted(2)} == {
        "H3(0,0) H3(0,0)",
        "U(1,0) D(1,0)",
    }
    assert sum(1 for _ in enumerate_weighted(3)) == 6
    assert list(enumerate_weighted(0)) == [WeightedMotzkinPath.from_text("")]


def test_enumeration_yields_valid_unique_paths():
    seen = set()
    for path in enumerate_weighted(5):
        ok, message = validate(path)
        assert ok, message
        seen.add(path)
    assert len(seen) == math.factorial(5)


def recursive_enumeration(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """(kinds, heights, choices) of every path of length n, depth-first by
    position, each step trying U, D, H1, H2, H3 with ascending choices."""
    kinds = [step.value for step in StepKind]
    paths = []

    def extend(prefix: list, height: int) -> None:
        left = n - len(prefix)
        if not left:
            paths.append(tuple(map(tuple, zip(*prefix))) if prefix else ((), (), ()))
            return
        menu = [("U", height + 1, d, height + 1) for d in range(height + 1)]
        menu += [("D", height, d, height - 1) for d in range(height)]
        menu += [(kind, height, d, height) for kind in ("H1", "H2") for d in range(height)]
        menu += [("H3", height, 0, height)]
        for kind, h, d, after in menu:
            if after <= left - 1:
                extend(prefix + [(kinds.index(kind), h, d)], after)

    extend([], 0)
    return paths


@pytest.mark.parametrize("n", range(9))
def test_enumeration_order_matches_the_recursive_reference(n):
    paths = [(p.kinds, p.heights, p.choices) for p in enumerate_weighted(n)]
    assert paths == recursive_enumeration(n)


def test_enumeration_is_lazy(monkeypatch):
    built = []
    flat_path = motzkin._flat_path

    def counted(*flat):
        built.append(flat)
        return flat_path(*flat)

    monkeypatch.setattr(motzkin, "_flat_path", counted)
    first = next(enumerate_weighted(10))  # 10! paths in all
    ups = [f"U({h},0)" for h in range(1, 6)]
    downs = [f"D({h},0)" for h in range(5, 0, -1)]
    assert first.to_text() == " ".join(ups + downs)
    assert len(built) == 1


def test_enumeration_guard():
    with pytest.raises(SizeLimitError):
        next(enumerate_weighted(11))


def test_total_weight_at_ones_is_factorial():
    for n in range(6):
        total = MultiPoly()
        for path in enumerate_weighted(n):
            total = total + path_weight(path)
        value = total.substitute({"q": 1, "p": 1, "s": 1, "t": 1})
        assert value == MultiPoly.constant(math.factorial(n))


def test_horizontal_weights_are_distinguishable():
    for h in range(1, 7):
        menu = [step_weight(StepKind.H2, h, d) for d in range(h)]
        menu.append(step_weight(StepKind.H3, h, 0))
        assert len({str(w) for w in menu}) == len(menu)
        # injectivity over (color, choice) for all horizontals at height h
        menu += [step_weight(StepKind.H1, h, d) for d in range(h)]
        assert len({str(w) for w in menu}) == len(menu)


def test_level_sums_match_continued_fraction_coefficients():
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


def test_text_roundtrip():
    text = "U(1,0) U(2,1) H2(2,0) D(2,1) D(1,0)"
    assert path_of(text).to_text() == text
    assert path_of("").to_text() == ""


def test_records_roundtrip():
    path = path_of("U(1,0) H3(1,0) D(1,0)")
    assert WeightedMotzkinPath.from_records(path.to_records()) == path


@pytest.mark.parametrize("text", ["X(1,0)", "U(1)", "U(1,0) bogus"])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        WeightedMotzkinPath.from_text(text)


def reference_validate(records: list[dict]) -> tuple[bool, str]:
    """Step-by-step validation of path records, written against the menu in the module doc."""
    running = 0
    for index, record in enumerate(records, start=1):
        kind, h, choice = record["kind"], record["height"], record["choice"]
        if kind == "U":
            if h != running + 1:
                return False, f"step {index}: U height {h} does not match running height {running}"
            running += 1
        elif kind == "D":
            if running <= 0:
                return False, f"step {index}: D step below the x-axis"
            if h != running:
                return False, f"step {index}: D height {h} does not match running height {running}"
            running -= 1
        elif h != running:
            return False, f"step {index}: {kind} height {h} does not match running height {running}"
        if kind == "H3":
            if choice != 0:
                return False, f"step {index}: H3 choice must be 0, got {choice}"
            continue
        if kind in ("H1", "H2") and h < 1:
            return False, f"step {index}: {kind} is not allowed at height 0"
        if not 0 <= choice <= h - 1:
            return False, f"step {index}: {kind} choice {choice} out of range 0..{h - 1}"
    if running != 0:
        return False, f"path ends at height {running}, not 0"
    return True, "valid"


def record(kind: str, height: int, choice: int) -> dict:
    return {"kind": kind, "height": height, "choice": choice}


@st.composite
def step_sequences(draw) -> list[dict]:
    """Records of well-formed steps, each replaced by an arbitrary one with
    probability 1/4, optionally closed by D steps, so that valid paths occur
    and the first bad step can fall anywhere.  An arbitrary step has any
    kind, the consistent height or any in -1..4, and any choice in -1..4."""
    records = []
    running = 0
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            kind = draw(st.sampled_from(["U", "D", "H1", "H2", "H3"]))
            consistent = running + 1 if kind == "U" else running
            height = draw(st.one_of(st.just(consistent), st.integers(min_value=-1, max_value=4)))
            choice = draw(st.integers(min_value=-1, max_value=4))
        else:
            kind = draw(st.sampled_from(["U", "D", "H1", "H2", "H3"] if running else ["U", "H3"]))
            height = running + 1 if kind == "U" else running
            choice = 0 if kind == "H3" else draw(st.integers(0, height - 1))
        records.append(record(kind, height, choice))
        running = max(running + {"U": 1, "D": -1}.get(kind, 0), 0)
    if draw(st.booleans()):
        for height in range(running, 0, -1):
            records.append(record("D", height, draw(st.integers(0, height - 1))))
    return records


def menu_exponents(records: Iterable[dict]) -> tuple[int, int, int, int]:
    """The weight's exponents, summed step by step from ``step_weight``."""
    total = [0, 0, 0, 0]
    for step in records:
        weight = step_weight(StepKind(step["kind"]), step["height"], step["choice"])
        for i, e in enumerate(weight.terms().popitem()[0]):
            total[i] += e
    return tuple(total)


@settings(max_examples=300)
@given(step_sequences())
@example([record("H3", 0, -1)])
@example([record("U", 1, 0), record("D", 1, -1)])
@example([record("U", 1, 0), record("H1", 1, -1)])
def test_validate_matches_the_step_by_step_reference(records):
    # every entry point to the validating walk reports the reference's text
    path = WeightedMotzkinPath.from_records(records)
    ok, message = reference_validate(records)
    assert validate(path) == (ok, message)
    if ok:
        assert path_exponents(path) == menu_exponents(records)
        decode(path)
        return
    for walk in (path_exponents, path_weight, decode):
        with pytest.raises(InvalidPathError) as error:
            walk(path)
        assert str(error.value) == message


@given(step_sequences())
def test_steps_and_records_round_trip_exactly(records):
    path = WeightedMotzkinPath.from_records(records)
    assert path.to_records() == records
    assert len(path) == len(records)
    assert [STEP_KINDS[kind].value for kind in path.kinds] == [step["kind"] for step in records]
    assert list(path.heights) == [step["height"] for step in records]
    assert list(path.choices) == [step["choice"] for step in records]
    again = WeightedMotzkinPath.from_records(path.to_records())
    assert again == path and hash(again) == hash(path)
    if all(step["height"] >= 0 and step["choice"] >= 0 for step in records):
        assert WeightedMotzkinPath.from_text(path.to_text()) == path


def test_text_round_trip_over_all_paths():
    for n in range(7):
        for path in enumerate_weighted(n):
            text = path.to_text()
            assert WeightedMotzkinPath.from_text(text) == path
            assert WeightedMotzkinPath.from_text(text).to_text() == text
            assert WeightedMotzkinPath.from_records(path.to_records()) == path


def test_path_from_steps_equals_the_encoded_path():
    records = [record("U", 1, 0), record("H3", 1, 0), record("D", 1, 0)]
    encoded = encode(Permutation.from_text("3 2 1"))
    assert WeightedMotzkinPath.from_records(records) == encoded
    assert hash(WeightedMotzkinPath.from_records(records)) == hash(encoded)
    for perm in iter_group(6):
        encoded = encode(perm)
        built = WeightedMotzkinPath.from_records(encoded.to_records())
        assert built == encoded
        assert hash(built) == hash(encoded)
        assert {built, encoded} == {encoded}


def test_steps_view_is_read_only():
    path = path_of("U(1,0) D(1,0)")
    for view in ("kinds", "heights", "choices"):
        with pytest.raises(AttributeError):
            setattr(path, view, ())
    assert path != "U(1,0) D(1,0)"
    assert repr(path) == "WeightedMotzkinPath.from_text('U(1,0) D(1,0)')"


@pytest.mark.parametrize("args", [(), ([],), ([record("U", True, 0), record("D", 1, 0)],)])
def test_the_class_is_built_only_by_its_parsers(args):
    # a constructor checked nothing: it let in U(True,0), which decode then refused as text
    with pytest.raises(TypeError, match="from_text or .from_records"):
        WeightedMotzkinPath(*args)


def test_path_exponents_is_the_weight_monomial():
    for n in range(6):
        for path in enumerate_weighted(n):
            assert path_exponents(path) == menu_exponents(path.to_records())
    with pytest.raises(InvalidPathError):
        path_exponents(path_of("U(1,0)"))
