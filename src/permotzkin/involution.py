"""Euler numbers, sign imbalances, and a parity-reversing involution on S_n.

``sign_imbalance_depth`` and ``sign_imbalance_exc`` evaluate the signed sums
sum (-1)^depth and sum (-1)^exc over S_n by substituting into the joint
distribution ``jfraction.brute_force_gf``.  Both vanish
for even n; for odd n they equal E_n and (-1)^((n-1)/2) E_n respectively,
where E_n are the Euler (secant/tangent) numbers computed here by the
boustrophedon recurrence.

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
One walk in that order builds it: ranks arrive ascending, so every depth
layer is already sorted.  ``parity_reversing_involution`` ranks its
argument, reads the partner and unranks it.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache

from .errors import LIMITS, SizeLimitError, check_size
from .jfraction import brute_force_gf
from .permutations import Permutation, image_stats


def euler_numbers(limit: int) -> tuple[int, ...]:
    """E_0 .. E_limit, entry n being E_n = n! * [z^n] (tan z + sec z), by the
    boustrophedon (zigzag triangle) recurrence.

    >>> euler_numbers(8)
    (1, 1, 1, 2, 5, 16, 61, 272, 1385)
    """
    bound, what, name = LIMITS["euler"]
    if limit < 0:
        raise ValueError(f"{name} must be non-negative, got {limit}")
    if limit > bound:
        raise SizeLimitError(f"{what} limited to {bound} entries")
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
    return brute_force_gf(n).substitute({"q": 1, "p": 1, "s": 1, "t": -1}).constant_value()


def sign_imbalance_exc(n: int) -> int:
    """sum over S_n of (-1)^exc: (-1)^((n-1)/2) E_n for odd n, 0 for even n."""
    check_size(n, "sign-imbalance")
    return brute_force_gf(n).substitute({"q": 1, "p": 1, "s": -1, "t": 1}).constant_value()


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
    groups: dict[tuple[int, int], dict[int, array]] = {}
    for rank, images in enumerate(itertools.permutations(range(1, n + 1))):
        inv, _, exc, dep = image_stats(images)
        layers = groups.setdefault((inv - dep, exc - dep), {})
        layers.setdefault(dep, array("i")).append(rank)

    partner = array("i", range(math.factorial(n)))
    for layers in groups.values():
        carry = array("i")
        previous_depth: int | None = None
        for dep in sorted(layers):
            layer = layers[dep]
            if previous_depth is not None and dep == previous_depth + 1:
                matched = min(len(carry), len(layer))
                for low, high in zip(carry[:matched], layer[:matched]):
                    partner[low] = high
                    partner[high] = low
                carry = layer[matched:]
            else:
                carry = layer
            previous_depth = dep
    return partner


def parity_reversing_involution(perm: Permutation) -> Permutation:
    """The partner of perm, or perm itself when it is a fixed point.

    inv, exc and depth all change by the same delta in {+1, 0, -1}, and
    delta = 0 exactly on fixed points.
    """
    check_size(perm.n, "involution")
    return Permutation(_unrank(_pairing(perm.n)[_rank(perm.images)], perm.n))
