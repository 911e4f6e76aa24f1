"""Weighted 3-colored Motzkin paths.

A path of length n runs from (0, 0) to (n, 0) using up steps ``U``, down
steps ``D`` and horizontal steps in three colors ``H1``/``H2``/``H3``,
never dipping below the x-axis.  The height of a step is the larger of its
two endpoint heights.  Each step carries a choice index ``d`` selecting one
monomial from its weight menu:

    ============  =================  ============
    step          weight             choice range
    ============  =================  ============
    U  height h   s * t^(2h-1) * q^d    0 .. h-1
    D  height h   q^(2h-1+d)            0 .. h-1
    H1 height h   s * t^h * q^(h+d)     0 .. h-1   (h >= 1 only)
    H2 height h   t^h * q^(h+d)         0 .. h-1   (h >= 1 only)
    H3 height h   p * t^h * q^(2h)      d = 0      (h >= 0)
    ============  =================  ============

so the only ground-level horizontal step is ``H3`` with weight p.  The path
weight is the product of its step weights; there are exactly n! weighted
paths of length n.

Text format: steps separated by spaces, each as ``KIND(height,choice)``,
e.g. ``U(1,0) H3(1,0) D(1,0)``.  A JSON array of records with fields
``kind``/``height``/``choice`` is accepted and produced as well.

Storage: a ``WeightedMotzkinPath`` holds three parallel tuples of ints,
``kinds`` (codes indexing ``STEP_KINDS``), ``heights`` and ``choices``, so
equality and hashing compare int tuples.  ``path.steps`` is a read-only view
that builds ``WeightedStep`` objects on demand; enumeration and the
bijection read and write the tuples directly.  Heights are stored rather
than derived, so a wrong height in user input is reported as such.  One
walk, ``path_exponents``, validates a path and sums its weight in the same
pass; ``validate``, ``path_weight`` and ``bijection.decode`` run it.
Heights and choices are ASCII digits in text and ``int``s in JSON records;
nothing else (``1_0``, other digits, floats, bools, strings) is coerced.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import Monomial, MultiPoly
from .errors import InvalidPathError, ParseError, check_size


class StepKind(enum.Enum):
    U = "U"
    D = "D"
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: ``WeightedMotzkinPath.kinds`` stores indexes into this table.
STEP_KINDS: tuple[StepKind, ...] = tuple(StepKind)
KIND_U, KIND_D, KIND_H1, KIND_H2, KIND_H3 = range(len(STEP_KINDS))
_CODES = {kind: code for code, kind in enumerate(STEP_KINDS)}
_NAMES = tuple(kind.value for kind in STEP_KINDS)
_TOKEN = re.compile(r"(U|D|H1|H2|H3)\(([0-9]+),([0-9]+)\)")


@dataclass(frozen=True)
class WeightedStep:
    kind: StepKind
    height: int
    choice: int


class WeightedMotzkinPath:
    """An immutable path: parallel tuples of kind codes, heights and choices."""

    __slots__ = ("_flat",)

    def __init__(self, steps: Iterable[WeightedStep]) -> None:
        steps = tuple(steps)
        self._flat = (
            tuple(_CODES[step.kind] for step in steps),
            tuple(step.height for step in steps),
            tuple(step.choice for step in steps),
        )

    @property
    def kinds(self) -> tuple[int, ...]:
        """Kind codes, indexes into ``STEP_KINDS``."""
        return self._flat[0]

    @property
    def heights(self) -> tuple[int, ...]:
        return self._flat[1]

    @property
    def choices(self) -> tuple[int, ...]:
        return self._flat[2]

    @property
    def steps(self) -> tuple[WeightedStep, ...]:
        """The steps as ``WeightedStep`` objects, built on each access."""
        return tuple(
            WeightedStep(STEP_KINDS[kind], height, choice)
            for kind, height, choice in zip(*self._flat)
        )

    def __len__(self) -> int:
        return len(self._flat[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedMotzkinPath):
            return NotImplemented
        return self._flat == other._flat

    def __hash__(self) -> int:
        return hash(self._flat)

    def __repr__(self) -> str:
        return f"WeightedMotzkinPath.from_text({self.to_text()!r})"

    @classmethod
    def from_text(cls, text: str) -> "WeightedMotzkinPath":
        kinds, heights, choices = [], [], []
        for index, token in enumerate(text.split(), start=1):
            match = _TOKEN.fullmatch(token)
            if match is None:
                raise ParseError(f"step {index}: cannot parse {token!r}")
            kinds.append(_NAMES.index(match.group(1)))
            heights.append(int(match.group(2)))
            choices.append(int(match.group(3)))
        return _flat_path(tuple(kinds), tuple(heights), tuple(choices))

    def to_text(self) -> str:
        return " ".join(
            f"{_NAMES[kind]}({height},{choice})" for kind, height, choice in zip(*self._flat)
        )

    @classmethod
    def from_records(cls, records: list[dict]) -> "WeightedMotzkinPath":
        kinds, heights, choices = [], [], []
        for index, record in enumerate(records, start=1):
            try:
                kind = StepKind(record["kind"])
                height, choice = record["height"], record["choice"]
                if type(height) is not int or type(choice) is not int:  # bools too
                    raise TypeError
            except (KeyError, ValueError, TypeError):
                raise ParseError(f"step {index}: bad record {record!r}") from None
            kinds.append(_CODES[kind])
            heights.append(height)
            choices.append(choice)
        return _flat_path(tuple(kinds), tuple(heights), tuple(choices))

    def to_records(self) -> list[dict]:
        return [
            {"kind": _NAMES[kind], "height": height, "choice": choice}
            for kind, height, choice in zip(*self._flat)
        ]


def _flat_path(
    kinds: tuple[int, ...], heights: tuple[int, ...], choices: tuple[int, ...]
) -> WeightedMotzkinPath:
    """A path owning three equally long tuples; ``kinds`` holds valid codes."""
    path = object.__new__(WeightedMotzkinPath)
    path._flat = (kinds, heights, choices)
    return path


def step_weight(step: WeightedStep) -> MultiPoly:
    """The weight monomial of a single step (see the menu in the module doc):
    an oracle apart from ``path_exponents``, which the tests sum along paths
    and ``verify``'s ``level-weights`` sums over each menu."""
    kind, h, d = step.kind, step.height, step.choice
    if kind is StepKind.H3:
        if h < 0 or d != 0:
            raise InvalidPathError(f"bad H3 step {step}")
        return MultiPoly.monomial((2 * h, 1, 0, h))
    if h < 1:
        raise InvalidPathError(
            f"{kind.value} height must be >= 1"
            if kind in (StepKind.U, StepKind.D)
            else f"{kind.value} is not allowed at height 0"
        )
    if not 0 <= d <= h - 1:
        raise InvalidPathError(f"{kind.value} choice {d} out of range 0..{h - 1}")
    if kind is StepKind.U:
        return MultiPoly.monomial((d, 0, 1, 2 * h - 1))
    if kind is StepKind.D:
        return MultiPoly.monomial((2 * h - 1 + d, 0, 0, 0))
    return MultiPoly.monomial((h + d, 0, int(kind is StepKind.H1), h))


def path_exponents(path: WeightedMotzkinPath) -> Monomial:
    """Exponents (eq, ep, es, et) of the path weight, summed over the flat
    tuples in the one validating walk; rejects invalid paths.

    The t exponent is the area between the path and the x-axis: a step at
    height h is a trapezoid of area h, or h - 1/2 for U and D, and U and D
    steps pair up level by level.
    """
    kinds, heights, choices = path._flat
    running = eq = es = et = 0
    for index, kind, h, d in zip(itertools.count(1), kinds, heights, choices):
        if kind == KIND_U:
            if h != running + 1:
                raise _bad(index, f"U height {h} does not match running height {running}")
            running += 1
            eq += d
            es += 1
            et += 2 * h - 1
        elif kind == KIND_D:
            if running <= 0:
                raise _bad(index, "D step below the x-axis")
            if h != running:
                raise _bad(index, f"D height {h} does not match running height {running}")
            running -= 1
            eq += 2 * h - 1 + d
        elif h != running:
            raise _bad(index, f"{_NAMES[kind]} height {h} does not match running height {running}")
        elif kind == KIND_H3:
            if d != 0:
                raise _bad(index, f"H3 choice must be 0, got {d}")
            eq += 2 * h
            et += h
            continue
        elif h < 1:
            raise _bad(index, f"{_NAMES[kind]} is not allowed at height 0")
        else:
            eq += h + d
            et += h
            es += kind == KIND_H1  # H1 carries s, H2 does not
        if not 0 <= d <= h - 1:  # U, D, H1 or H2, with h >= 1 by now
            raise _bad(index, f"{_NAMES[kind]} choice {d} out of range 0..{h - 1}")
    if running != 0:
        raise InvalidPathError(f"path ends at height {running}, not 0")
    return (eq, kinds.count(KIND_H3), es, et)


def _bad(index: int, problem: str) -> InvalidPathError:
    return InvalidPathError(f"step {index}: {problem}")


def validate(path: WeightedMotzkinPath) -> tuple[bool, str]:
    """``(True, "valid")``, or ``False`` with the diagnostic of ``path_exponents``.
    No command calls it; the tests and a perfbench metric name it."""
    try:
        path_exponents(path)
    except InvalidPathError as error:
        return False, str(error)
    return True, "valid"


def path_weight(path: WeightedMotzkinPath) -> MultiPoly:
    """Product of the step weights, always a single monomial.  No command calls
    it; it is the tests' weight oracle, and a perfbench metric names it."""
    return MultiPoly.monomial(path_exponents(path))


def enumerate_weighted(n: int) -> Iterator[WeightedMotzkinPath]:
    """Every weighted path of length n exactly once (n! of them).

    Deterministic order: depth-first by position, trying U, D, H1, H2, H3
    with ascending choice indices.
    """
    check_size(n, "path-enumeration")
    if n == 0:
        yield _flat_path((), (), ())
        return

    # moves[h]: each (kind, height, choice) step open at running height h,
    # with the running height after it, in enumeration order.
    moves = [
        [((KIND_U, h + 1, d), h + 1) for d in range(h + 1)]
        + [((KIND_D, h, d), h - 1) for d in range(h)]
        + [((kind, h, d), h) for kind in (KIND_H1, KIND_H2) for d in range(h)]
        + [((KIND_H3, h, 0), h)]
        for h in range(n // 2 + 1)
    ]
    prefix: list[tuple[int, int, int]] = []

    def extend(remaining: int, height: int) -> Iterator[WeightedMotzkinPath]:
        # A step may end at height h only if the h steps back down still fit.
        left = remaining - 1
        for step, after in moves[height]:
            if after <= left:
                prefix.append(step)
                if left:
                    yield from extend(left, after)
                else:
                    yield _flat_path(*zip(*prefix))
                prefix.pop()

    yield from extend(n, 0)
