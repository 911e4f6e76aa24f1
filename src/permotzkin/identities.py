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
  compares the t-layers of one computed polynomial against a row of frozen
  anchor cells, each of the factored form c * s^a * (1+s)^b.

Both signed sums are substitutions into the joint distribution
``jfraction.brute_force_gf``: q -> -1 turns q^inv into the sign, p -> 1 sums
over all of S_n, and p -> 0 keeps exactly the fixed-point-free permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MultiPoly, S, T, binomial
from .errors import check_size
from .jfraction import SeriesTable, brute_force_gf

#: Series assembly is refused beyond this order.
SERIES_ORDER_LIMIT = 30

#: Rows covered by the anchor table.
TABLE_RANGE = range(2, 10)

# Anchor cells (n, t_power) -> (c, a, b) meaning c * s^a * (1+s)^b.  Each is
# cross-checked in the tests against both the enumerated polynomials and the
# closed series.
_ANCHOR_CELLS: dict[tuple[int, int], tuple[int, int, int]] = {
    (2, 1): (-1, 1, 0),
    (3, 2): (1, 1, 1),
    (4, 2): (1, 2, 0),
    (4, 3): (-1, 1, 2),
    (5, 3): (-2, 2, 1),
    (5, 4): (1, 1, 3),
    (6, 3): (-1, 3, 0),
    (6, 4): (3, 2, 2),
    (6, 5): (-1, 1, 4),
    (7, 4): (3, 3, 1),
    (7, 5): (-4, 2, 3),
    (7, 6): (1, 1, 5),
    (8, 4): (1, 4, 0),
    (8, 5): (-6, 3, 2),
    (8, 6): (5, 2, 4),
    (8, 7): (-1, 1, 6),
    (9, 5): (-4, 4, 1),
    (9, 6): (10, 3, 3),
    (9, 7): (-6, 2, 5),
    (9, 8): (1, 1, 7),
}


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


def derangement_series_rhs(order: int) -> SeriesTable:
    """z^n coefficients of the closed signed derangement series, n <= order.

    Only the pairs (k, i) with k + 1 + i = n and 0 <= i <= k - 1 contribute
    to the coefficient of z^n, so each entry is a finite exact sum.
    """
    check_size(order, SERIES_ORDER_LIMIT, "series assembly is", name="order")

    def cell(k: int, i: int) -> MultiPoly:
        return (-1) ** k * binomial(k - 1, i) * S ** (1 + i) * (1 + S) ** (k - 1 - i) * T**k

    # i <= k - 1 = n - 2 - i holds exactly for i < n // 2
    coeffs = (MultiPoly.sum(cell(n - 1 - i, i) for i in range(n // 2)) for n in range(order + 1))
    return SeriesTable(tuple(coeffs))


def anchor_cell(n: int, t_power: int) -> MultiPoly:
    """The anchor cell for (n, t_power), expanded; zero for blank cells."""
    entry = _ANCHOR_CELLS.get((n, t_power))
    if entry is None:
        return MultiPoly.zero()
    c, a, b = entry
    return c * S**a * (1 + S) ** b


def anchor_cell_text(n: int, t_power: int) -> str:
    """The anchor cell in its factored form, e.g. ``-4*s^4*(1+s)``."""
    entry = _ANCHOR_CELLS.get((n, t_power))
    if entry is None:
        return "0"
    c, a, b = entry
    parts = []
    if c == -1:
        head = "-"
    elif c == 1:
        head = ""
    else:
        head = str(c) + "*"
    parts.append(f"s^{a}" if a > 1 else "s")
    if b == 1:
        parts.append("(1+s)")
    elif b > 1:
        parts.append(f"(1+s)^{b}")
    return head + "*".join(parts)


@dataclass(frozen=True)
class TableCell:
    n: int
    t_power: int
    expected: MultiPoly
    computed: MultiPoly

    @property
    def matches(self) -> bool:
        return self.expected == self.computed


def derangement_table_row(n: int) -> list[TableCell]:
    """Compare the t-layers of the signed derangement polynomial of n
    against row n of the anchor table, cell for cell."""
    layers = derangement_signed_gf(n).split_by_exponent("t")
    powers = sorted(set(layers) | {k for (m, k) in _ANCHOR_CELLS if m == n})
    return [TableCell(n, k, anchor_cell(n, k), layers.get(k, MultiPoly.zero())) for k in powers]


def derangement_table_report() -> list[TableCell]:
    """Every row of the anchor table, for n in 2..9."""
    return [cell for n in TABLE_RANGE for cell in derangement_table_row(n)]
