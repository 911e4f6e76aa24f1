"""Permutations in one-line notation and the four statistics used everywhere.

A permutation of [n] = {1, ..., n} is stored as the tuple of its images
(1-based), and ``len(perm)`` is n.  ``image_stats(perm.images)`` returns the
four statistics, in the order of the weight variables (q, p, s, t):

* inv   -- inversions: pairs i < j with sigma(i) > sigma(j);
* fix   -- fixed points;
* exc   -- excedances: positions with sigma(i) > i;
* depth -- sum of sigma(i) - i over excedances, which equals the
  minimum of sum (j_r - i_r) over all ways of writing sigma as a product of
  transpositions (i_r j_r); ``depth_via_factorization`` recomputes it that
  way by a shortest-path search and is kept as an independent cross-check.

It inserts each value into the sorted list of those before it:
O(n log n) comparisons plus C-level list shifts, 0.01 / 0.34 / 35 s for a
random permutation at n = 10^4 / 10^5 / 10^6 (Python 3.11, 2 vCPUs).

Text format: space-separated images, e.g. ``"3 2 1"``, each ASCII digits
with an optional sign (``[+-]?[0-9]+``; ``1_0`` and other digits are not
integers); the empty string is the unique permutation of n = 0.
``iter_group`` streams S_n and ``iter_derangements`` filters it.
``_stats_by_rank``, ``jfraction.brute_force_gf`` and ``_signed_count`` hold
the statistics of all of S_n, or one signed count of them, each folded by
``_fold_values_left`` over sets of values, not S_n.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import ne
from typing import Callable, Iterable, Iterator

from .errors import ParseError, _echo, check_size


@dataclass(frozen=True)
class Permutation:
    """A bijection on [n], n >= 0, in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        # the type test comes first: 1.0 and True sort and compare as 1 does
        if not {*map(type, self.images)} <= {int} or sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{_echo(self.images, 'a tuple')} is not a permutation of 1..{n}")

    def __len__(self) -> int:
        return len(self.images)

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse one-line notation, reporting the first bad token.

        >>> Permutation.from_text("3 2 1").images
        (3, 2, 1)
        """
        tokens = text.split()
        n = len(tokens)
        values: list[int] = []
        seen: set[int] = set()
        for index, token in enumerate(tokens, start=1):
            try:
                if not token.isascii() or "_" in token:  # leaves int() only [+-]?[0-9]+
                    raise ValueError
                value = int(token)
            except ValueError:
                digits = token[token[0] in "+-" :]
                if token.isascii() and digits.isdigit():  # past the interpreter's limit on digits
                    problem = f"value of {len(digits)} digits out of range 1..{n}"
                else:
                    problem = f"{_echo(token, 'a token')} is not an integer"
                raise ParseError(f"position {index}: {problem}") from None
            if not 1 <= value <= n:
                raise ParseError(f"position {index}: value {_echo(value)} out of range 1..{n}")
            if value in seen:
                raise ParseError(f"position {index}: value {value} repeated")
            seen.add(value)
            values.append(value)
        return _trusted(tuple(values))  # the loop has checked every value

    def to_text(self) -> str:
        return " ".join(str(v) for v in self.images)


def image_stats(images: tuple[int, ...]) -> tuple[int, int, int, int]:
    """(inversions, fixed points, excedances, depth) of a raw image tuple.

    The order matches the weight variables (q, p, s, t).  Exposed for bulk
    enumeration loops that avoid building Permutation objects.
    """
    inv = 0
    fix = 0
    exc = 0
    dep = 0
    seen: list[int] = []  # the values at positions before i, sorted
    for i, v in enumerate(images):
        rank = bisect_right(seen, v)
        inv += i - rank  # earlier values above v
        seen.insert(rank, v)
        pos = i + 1
        if v > pos:
            exc += 1
            dep += v - pos
        elif v == pos:
            fix += 1
    return inv, fix, exc, dep


def _pack(stats: Iterable[int]) -> int:
    """(inv, fix, exc, depth) packed one byte per field from the low end;
    every field must be below 256.

    >>> hex(_pack((1, 0, 1, 1)))
    '0x1010001'
    """
    return int.from_bytes(bytes(stats), "little")


#: The bits of a packed (inv, fix, exc, depth) that hold inv, exc and depth.
_TRIPLE = _pack((255, 0, 255, 255))
#: A rise of 1 in each of inv, exc and depth.  No byte borrows when it is
#: taken off a permutation of positive depth, whose inv and exc are positive too.
_UNIT = _pack((1, 0, 1, 1))


def _fold_values_left(n: int, empty, combine: Callable[[list[tuple[int, object]]], object]):
    """The block of S_n, folded over the sets R of values still to place.

    The block of R is ``combine`` of one (step, block of R - {v}) pair per v
    in R ascending; step packs what v adds at position n - |R| + 1: one
    inversion per smaller value of R, and its fix, exc and depth.  inv, the
    largest field, reaches n(n - 1)/2, which fits its byte, <= 255, for n <= 23.
    Each size's sets are built by extending the held sets of the size before.
    """
    blocks = {0: empty}  # by the bit mask of R
    for position in range(n, 0, -1):
        held = defaultdict(list)  # the (step, block) pairs of each R of size n - position + 1
        for v in range(1, n + 1):
            bit, step = 1 << v, _pack((0, v == position, v > position, max(v - position, 0)))
            for mask, block in blocks.items():
                if not mask & bit:  # R = mask + v, whose values below v are mask's
                    held[mask | bit].append((step + (mask & bit - 1).bit_count(), block))
        del blocks  # so each block is freed once its last superset is combined
        blocks = {mask: combine(held.pop(mask)) for mask in [*held]}
    return blocks.popitem()[1]


def _concatenate(parts: list[tuple[int, array]]) -> array:
    """Each block raised by its step, one after another."""
    raised = (map(step.__add__, block) for step, block in parts)
    return array("I", itertools.chain.from_iterable(raised))


def _signed_count(n: int, field: int) -> int:
    """sum over S_n of (-1)^stat, stat the field whose lowest bit ``field`` is.

    Each block is one signed count, negated where its step adds an odd stat.

    >>> _signed_count(3, _pack((0, 0, 0, 1))), _signed_count(3, _pack((0, 0, 1, 0)))
    (2, -2)
    """
    return _fold_values_left(n, 1, lambda parts: sum(-b if s & field else b for s, b in parts))


@lru_cache(maxsize=None)
def _stats_by_rank(n: int) -> array:
    """The packed statistics of S_n by lexicographic rank.

    >>> [hex(packed) for packed in _stats_by_rank(2)]
    ['0x200', '0x1010001']
    """
    check_size(n, "involution")
    return _fold_values_left(n, array("I", [0]), _concatenate)


@lru_cache(maxsize=None)
def _min_transposition_cost(n: int) -> dict[tuple[int, ...], int]:
    """Cheapest factorization cost from the identity to every sigma in S_n.

    Dijkstra over the Cayley graph whose moves multiply by a transposition
    (i j) at cost j - i.  Minimal-cost factorizations have unbounded length,
    so a weighted shortest path is the faithful computation.
    """
    moves = [(i, j, j - i) for i in range(n) for j in range(i + 1, n)]
    start = tuple(range(1, n + 1))
    dist: dict[tuple[int, ...], int] = {start: 0}
    queue: list[tuple[int, tuple[int, ...]]] = [(0, start)]
    while queue:
        cost, state = heapq.heappop(queue)
        if cost > dist[state]:
            continue
        for i, j, step in moves:
            swapped = list(state)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            nxt = tuple(swapped)
            total = cost + step
            if total < dist.get(nxt, total + 1):
                dist[nxt] = total
                heapq.heappush(queue, (total, nxt))
    return dist


def depth_via_factorization(perm: Permutation) -> int:
    """depth recomputed as the minimum total span of a transposition product."""
    check_size(len(perm), "factorization-search")
    return _min_transposition_cost(len(perm))[perm.images]


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` of ``images``, which must already be a permutation."""
    perm = object.__new__(Permutation)
    object.__setattr__(perm, "images", images)
    return perm


def iter_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order."""
    check_size(n, "enumeration")
    yield from map(_trusted, itertools.permutations(range(1, n + 1)))


def iter_derangements(n: int) -> Iterator[Permutation]:
    """All fixed-point-free permutations of [n], lexicographically: S_n
    filtered, faster in CPython than backtracking.  No command calls it; it
    stays as the tests' derangement oracle, and a perfbench metric names it."""
    check_size(n, "enumeration")
    positions = range(1, n + 1)
    for images in itertools.permutations(positions):
        if all(map(ne, images, positions)):
            yield _trusted(images)
