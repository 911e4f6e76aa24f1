"""Signed generating functions over permutations and derangements.

Everything here is about the signed joint distribution of excedances and
depth, weighted by (-1)^inv:

* over all of S_n the distribution collapses:
  sum (-1)^inv s^exc t^depth = (1 - st)^(n-1) for n >= 1;
* over derangements it stays rich; ``derangement_signed_gf`` computes it
  while ``derangement_series_rhs`` assembles the closed series

      sum_{k>=1} (-1)^k ( sum_{i=0}^{k-1} C(k-1,i) s^(1+i) (1+s)^(k-1-i)
      z^(k+1+i) ) t^k

  whose z^n coefficients must agree with it.  ``derangement_table_row``
  pairs them t-layer by t-layer, as (k, expected, computed) tuples: the
  expected cell of t^k in row n is the one term with k + 1 + i = n,
  (-1)^k C(k-1, i) s^(1+i) (1+s)^(k-1-i).

Both signed sums are substitutions into the joint distribution
``jfraction.brute_force_gf``: q -> -1 turns q^inv into the sign, p -> 1 sums
over all of S_n, and p -> 0 keeps exactly the fixed-point-free permutations.
"""

from __future__ import annotations

import math

from .algebra import MultiPoly, S, T
from .errors import LIMITS, check_size
from .jfraction import brute_force_gf


def signed_gf_permutations(n: int) -> MultiPoly:
    """sum over S_n of (-1)^inv s^exc t^depth; equals (1 - st)^(n-1)."""
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return brute_force_gf(n).substitute({"q": -1, "p": 1})


def derangement_signed_gf(n: int) -> MultiPoly:
    """sum over fixed-point-free sigma of (-1)^inv s^exc t^depth."""
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return brute_force_gf(n).substitute({"q": -1, "p": 0})


def _rhs_coefficient(n: int) -> MultiPoly:
    """The z^n coefficient of the closed signed derangement series.

    Only the pairs (k, i) with k + 1 + i = n and 0 <= i <= k - 1 contribute,
    so it is a finite exact sum; i <= k - 1 = n - 2 - i holds exactly for i < n // 2.
    """

    def cell(k: int, i: int) -> MultiPoly:
        return (-1) ** k * math.comb(k - 1, i) * S ** (1 + i) * (1 + S) ** (k - 1 - i) * T**k

    return MultiPoly.sum(cell(n - 1 - i, i) for i in range(n // 2))


def derangement_series_rhs(order: int) -> tuple[MultiPoly, ...]:
    """z^n coefficients of the closed signed derangement series, n <= order."""
    check_size(order, "series-assembly")
    return tuple(map(_rhs_coefficient, range(order + 1)))


def derangement_table_row(n: int) -> list[tuple[int, MultiPoly, MultiPoly]]:
    """The cells (k, expected, computed) of row n: the t^k layers of the closed
    series' z^n coefficient and of the signed derangement polynomial of n."""
    computed = derangement_signed_gf(n).split_by_exponent("t")
    expected = _rhs_coefficient(n).split_by_exponent("t")
    zero = MultiPoly.zero()
    return [
        (k, expected.get(k, zero), computed.get(k, zero))
        for k in sorted(computed.keys() | expected.keys())
    ]


def derangement_table_report() -> list[tuple[int, int, MultiPoly, MultiPoly]]:
    """The cells (n, k, expected, computed) of rows 2 .. ``LIMITS["derangement-table"]``.
    No command calls it; it stays because perfbench's metrics name it."""
    last = LIMITS["derangement-table"].bound
    return [(n, *cell) for n in range(2, last + 1) for cell in derangement_table_row(n)]
