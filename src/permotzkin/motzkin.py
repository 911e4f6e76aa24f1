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
that builds ``WeightedStep`` objects on demand; validation, weights, area,
enumeration and the bijection read and write the tuples directly.  Heights
are stored rather than derived, so a wrong height in user input is reported
as such.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .algebra import Monomial, MultiPoly
from .errors import InvalidPathError, ParseError, SizeLimitError

#: Exhaustive path enumeration is refused beyond this length.
PATH_ENUMERATION_LIMIT = 10


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
_TOKEN = re.compile(r"(U|D|H1|H2|H3)\((\d+),(\d+)\)")


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
                height, choice = int(record["height"]), int(record["choice"])
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


def validate(path: WeightedMotzkinPath) -> tuple[bool, str]:
    """Check all invariants; the diagnostic names the first bad step (1-based)."""
    kinds, heights, choices = path._flat
    running = 0
    for index, (kind, h, choice) in enumerate(zip(kinds, heights, choices), start=1):
        if kind == KIND_U:
            if h != running + 1:
                return False, f"step {index}: U height {h} does not match running height {running}"
            running += 1
        elif kind == KIND_D:
            if running <= 0:
                return False, f"step {index}: D step below the x-axis"
            if h != running:
                return False, f"step {index}: D height {h} does not match running height {running}"
            running -= 1
        elif h != running:
            return (
                False,
                f"step {index}: {_NAMES[kind]} height {h} does not match running height {running}",
            )
        if kind == KIND_H3:
            if choice != 0:
                return False, f"step {index}: H3 choice must be 0, got {choice}"
        elif h < 1:  # U and D heights are >= 1 by now: an H1 or H2 on the axis
            return False, f"step {index}: {_NAMES[kind]} is not allowed at height 0"
        elif not 0 <= choice <= h - 1:
            return False, f"step {index}: {_NAMES[kind]} choice {choice} out of range 0..{h - 1}"
    if running != 0:
        return False, f"path ends at height {running}, not 0"
    return True, "valid"


def ensure_valid(path: WeightedMotzkinPath) -> None:
    ok, diagnostic = validate(path)
    if not ok:
        raise InvalidPathError(diagnostic)


def step_exponents(step: WeightedStep) -> Monomial:
    """Exponents (eq, ep, es, et) of the step's weight monomial."""
    kind, h, d = step.kind, step.height, step.choice
    if kind is StepKind.U:
        return (d, 0, 1, 2 * h - 1)
    if kind is StepKind.D:
        return (2 * h - 1 + d, 0, 0, 0)
    if kind is StepKind.H1:
        return (h + d, 0, 1, h)
    if kind is StepKind.H2:
        return (h + d, 0, 0, h)
    return (2 * h, 1, 0, h)


def step_weight(step: WeightedStep) -> MultiPoly:
    """The weight monomial of a single step (see the menu in the module doc)."""
    if step.kind in (StepKind.U, StepKind.D):
        if step.height < 1:
            raise InvalidPathError(f"{step.kind.value} height must be >= 1")
        if not 0 <= step.choice <= step.height - 1:
            raise InvalidPathError(
                f"{step.kind.value} choice {step.choice} out of range 0..{step.height - 1}"
            )
    elif step.kind in (StepKind.H1, StepKind.H2):
        if step.height < 1:
            raise InvalidPathError(f"{step.kind.value} is not allowed at height 0")
        if not 0 <= step.choice <= step.height - 1:
            raise InvalidPathError(
                f"{step.kind.value} choice {step.choice} out of range 0..{step.height - 1}"
            )
    else:
        if step.height < 0 or step.choice != 0:
            raise InvalidPathError(f"bad H3 step {step}")
    return MultiPoly.monomial(step_exponents(step))


def path_exponents(path: WeightedMotzkinPath) -> Monomial:
    """Exponents (eq, ep, es, et) of the path weight; rejects invalid paths.

    Sums the menu of ``step_exponents`` over the flat tuples, building no
    per-step objects.
    """
    ensure_valid(path)
    kinds, heights, choices = path._flat
    eq = es = et = 0
    for kind, h, d in zip(kinds, heights, choices):
        if kind == KIND_U:
            eq += d
            es += 1
            et += 2 * h - 1
        elif kind == KIND_D:
            eq += 2 * h - 1 + d
        elif kind == KIND_H3:
            eq += 2 * h
            et += h
        else:
            eq += h + d
            et += h
            if kind == KIND_H1:
                es += 1
    return (eq, kinds.count(KIND_H3), es, et)


def path_weight(path: WeightedMotzkinPath) -> MultiPoly:
    """Product of the step weights, always a single monomial."""
    return MultiPoly.monomial(path_exponents(path))


def area(path: WeightedMotzkinPath) -> int:
    """Area between the path and the x-axis, as an exact integer.

    Each step is a trapezoid of area (height_before + height_after) / 2; the
    doubled sum is always even for a closed path.
    """
    ensure_valid(path)
    kinds, heights, _ = path._flat
    doubled = 0
    for kind, h in zip(kinds, heights):
        if kind == KIND_U or kind == KIND_D:
            doubled += 2 * h - 1
        else:
            doubled += 2 * h
    if doubled % 2:  # unreachable for a validated closed path
        raise InvalidPathError("doubled area is odd")
    return doubled // 2


def enumerate_weighted(n: int) -> Iterator[WeightedMotzkinPath]:
    """Every weighted path of length n exactly once (n! of them).

    Deterministic order: depth-first by position, trying U, D, H1, H2, H3
    with ascending choice indices.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > PATH_ENUMERATION_LIMIT:
        raise SizeLimitError(f"path enumeration is limited to n <= {PATH_ENUMERATION_LIMIT}")
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
