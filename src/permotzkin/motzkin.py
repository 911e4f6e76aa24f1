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
``kinds`` (codes indexing ``STEP_KINDS``), ``heights`` and ``choices``, which
every kernel reads, so equality and hashing compare int tuples.  A path is
built only by ``from_text``, ``from_records``, ``bijection.encode`` and
``enumerate_weighted``; it is read through the tuples, ``to_text`` and
``to_records``.  Heights are stored rather than derived, so a wrong height
in user input is reported as such.  One walk, ``path_exponents``, validates
a path and sums its weight in the same pass; ``validate``, ``path_weight``
and ``bijection.decode`` run it.  Heights and choices are ASCII digits in
text and ``int``s in JSON records; nothing else (``1_0``, other digits,
floats, bools, strings) is coerced.
"""

from __future__ import annotations

import enum
import itertools
import re
from typing import Iterator

from .algebra import Monomial, MultiPoly
from .errors import InvalidPathError, ParseError, check_size


class StepKind(enum.Enum):
    U = "U"
    D = "D"
    H1 = "H1"
    H2 = "H2"
    H3 = "H3"


#: ``WeightedMotzkinPath.kinds`` stores indexes into this table.
STEP_KINDS: tuple[StepKind, ...] = tuple(StepKind)
KIND_U, KIND_D, KIND_H1, KIND_H2, KIND_H3 = range(len(STEP_KINDS))
_CODES = {kind: code for code, kind in enumerate(STEP_KINDS)}
_NAMES = tuple(kind.value for kind in STEP_KINDS)
_TOKEN = re.compile(r"(U|D|H1|H2|H3)\(([0-9]+),([0-9]+)\)")


class WeightedMotzkinPath:
    """An immutable path: parallel tuples of kind codes, heights and choices."""

    __slots__ = ("_flat",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        raise TypeError("build a path with WeightedMotzkinPath.from_text or .from_records")

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
            kind, height, choice = match.groups()
            kinds.append(_NAMES.index(kind))
            try:
                heights.append(int(height))
                choices.append(int(choice))
            except ValueError:  # the longer number is past the interpreter's limit on digits
                digits, field = max((len(height), "height"), (len(choice), "choice"))
                problem = f"step {index}: {field} of {digits} digits is out of range"
                raise ParseError(problem) from None
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


def step_weight(kind: StepKind, h: int, d: int) -> MultiPoly:
    """The weight monomial of one step of ``kind`` at height ``h`` with choice
    ``d`` (see the menu in the module doc): an oracle apart from
    ``path_exponents``, which the tests sum along paths and ``verify``'s
    ``level-weights`` sums over each menu."""
    if kind is StepKind.H3:
        if h < 0 or d != 0:
            raise InvalidPathError(f"H3 needs height >= 0 and choice 0, got ({h},{d})")
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
        [(KIND_U, h + 1, d, h + 1) for d in range(h + 1)]
        + [(KIND_D, h, d, h - 1) for d in range(h)]
        + [(kind, h, d, h) for kind in (KIND_H1, KIND_H2) for d in range(h)]
        + [(KIND_H3, h, 0, h)]
        for h in range(n // 2 + 1)
    ]
    # menus[left][h]: the moves[h] that end low enough for ``left`` more steps to come back down
    menus = [[[move for move in menu if move[3] <= left] for menu in moves] for left in range(n)]
    kinds, heights, choices = [0] * n, [0] * n, [0] * n
    last = n - 1
    todo = [iter(menus[last][0])] + [iter(())] * last  # the moves left to try at each position
    i = 0
    while i >= 0:
        for kinds[i], heights[i], choices[i], after in todo[i]:
            if i == last:
                yield _flat_path(tuple(kinds), tuple(heights), tuple(choices))
            else:
                i += 1
                todo[i] = iter(menus[last - i][after])
                break
        else:  # every move at position i is spent
            i -= 1
