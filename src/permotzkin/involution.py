"""Euler numbers, sign imbalances, and a parity-reversing involution on S_n.

``sign_imbalance_depth`` and ``sign_imbalance_exc`` evaluate the signed sums
sum (-1)^depth and sum (-1)^exc over S_n as one integer per set of values,
folded by ``permutations._signed_count`` over the subset DP that also tallies
``jfraction.brute_force_gf``, without building that polynomial.  Both vanish
for even n; for odd n they equal E_n and (-1)^((n-1)/2) E_n respectively,
where E_n are the Euler (secant/tangent) numbers computed here by the
boustrophedon recurrence, which shares no code with the fold.

``parity_reversing_involution`` realizes the cancellation behind those
identities as an explicit involution.  Permutations are partners only when
their (inv, exc, depth) triples differ by exactly (1, 1, 1), so the map
changes all three parities at once.  Construction:

1. group S_n by the chain key (inv - depth, exc - depth), which is constant
   along admissible partner steps, and layer each group by depth;
2. inside each group, walk the depth layers in increasing order and match
   greedily: pair the carried-over unmatched permutations of the previous
   layer with the head of the current layer index by index, each in
   lexicographic order, and carry the tail forward (a gap in the depth
   values resets the carry).

Any cross-layer pair is admissible, so the greedy sweep is a maximum
matching; the pairing is deterministic and self-inverse by construction,
and the permutations left unmatched (the fixed points, delta = 0) number
exactly E_n for odd n and 0 for even n, all with even depth -- the test
suite verifies the census exhaustively through n = 8.

The table holds no permutation.  A permutation is named by its
lexicographic rank, the position at which ``itertools.permutations`` yields
it (its Lehmer code read in the factorial base), and ``_pairing(n)`` is a
flat ``array`` of n! partner ranks with ``partner[r] == r`` on fixed points.
It reads ``permutations._stats_by_rank(n)``, the packed statistics of S_n
in that order, built by the recurrence that also tallies ``brute_force_gf``;
``verify``'s S_n walks read the same table.  Ranks arrive ascending, so
every depth layer is already sorted.
``parity_reversing_involution`` ranks its argument, reads the partner and
unranks it.
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from functools import lru_cache, partial

from . import permutations
from .errors import check_size
from .permutations import _TRIPLE, _UNIT, Permutation, _pack


def euler_numbers(limit: int) -> tuple[int, ...]:
    """E_0 .. E_limit, entry n being E_n = n! * [z^n] (tan z + sec z), by the
    boustrophedon (zigzag triangle) recurrence.

    >>> euler_numbers(8)
    (1, 1, 1, 2, 5, 16, 61, 272, 1385)
    """
    check_size(limit, "euler")
    values = [1]
    row = [1]
    for n in range(1, limit + 1):
        prev = row
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = row[k - 1] + prev[n - k]
        values.append(row[n])
    return tuple(values)


def sign_imbalance_depth(n: int) -> int:
    """sum over S_n of (-1)^depth: E_n for odd n, 0 for even n."""
    check_size(n, "sign-imbalance")
    return permutations._signed_count(n, _pack((0, 0, 0, 1)))


def sign_imbalance_exc(n: int) -> int:
    """sum over S_n of (-1)^exc: (-1)^((n-1)/2) E_n for odd n, 0 for even n."""
    check_size(n, "sign-imbalance")
    return permutations._signed_count(n, _pack((0, 0, 1, 0)))


def _rank(images: tuple[int, ...]) -> int:
    """Position of ``images`` in ``itertools.permutations(range(1, n + 1))``.

    >>> _rank((1, 2, 3)), _rank((2, 1, 3)), _rank((3, 2, 1))
    (0, 2, 5)
    """
    rank = 0
    for i, v in enumerate(images):
        # Lehmer digit: later values below v, weighted by (n - 1 - i)!
        rank = rank * (len(images) - i) + sum(w < v for w in images[i + 1 :])
    return rank


def _unrank(rank: int, n: int) -> tuple[int, ...]:
    """The permutation of [n] at lexicographic position ``rank``.

    >>> _unrank(2, 3)
    (2, 1, 3)
    """
    unused = list(range(1, n + 1))
    images = []
    for i in range(n - 1, -1, -1):
        digit, rank = divmod(rank, math.factorial(i))
        images.append(unused.pop(digit))
    return tuple(images)


@lru_cache(maxsize=None)
def _pairing(n: int) -> array:
    """Partner ranks of S_n by lexicographic rank; fixed points map to themselves."""
    stats = permutations._stats_by_rank(n)
    layers: defaultdict[int, array] = defaultdict(partial(array, "i"))
    for rank, packed in enumerate(stats):  # ascending, so every layer is sorted
        layers[packed & _TRIPLE].append(rank)

    partner = array("i", range(len(stats)))
    carry: dict[int, array] = {}  # the unmatched tail of each layer seen
    for key in sorted(layers):  # depth, the top byte, ascending
        layer = layers[key]
        below = carry.pop(key - _UNIT, None)  # the chain's layer one depth down
        if below:
            for low, high in zip(below, layer):
                partner[low] = high
                partner[high] = low
            layer = layer[len(below) :]
        carry[key] = layer
    return partner


def parity_reversing_involution(perm: Permutation) -> Permutation:
    """The partner of perm, or perm itself when it is a fixed point.

    inv, exc and depth all change by the same delta in {+1, 0, -1}, and
    delta = 0 exactly on fixed points.
    """
    check_size(len(perm), "involution")
    return Permutation(_unrank(_pairing(len(perm))[_rank(perm.images)], len(perm)))
