"""Jacobi-type continued fractions expanded as exact power series in z.

A coefficient pair (gamma_h)_{h>=0}, (lambda_h)_{h>=1} defines the continued
fraction

    1 / (1 - gamma_0 z - lambda_1 z^2 / (1 - gamma_1 z - lambda_2 z^2 / ...))

whose z^n coefficient is the sum, over plain Motzkin paths of length n, of
the product of gamma_h per horizontal step at height h and lambda_h per
down step from height h.  ``expand`` computes the truncation by dynamic
programming over (length, running height) with exact polynomial arithmetic.
A path at height h with fewer than h steps left can never return to 0, so
after step k only the heights h <= order - k are kept: the gamma_h product is
skipped when h exceeds the steps left, and so is the up step when h + 1
does.  After step k the DP therefore holds at most min(k, order - k) + 1
heights, and every coefficient is exactly the full path sum.  Each spec
carries its own ``max_order``, set from the measured cost of its expansion.

Two coefficient presets are built in:

* ``preset_depth``:    gamma_h = (2h+1) t^h,           lambda_h = h^2 t^(2h-1)
  generating sum_{sigma in S_n} t^depth(sigma);
* ``preset_refined``:  gamma_h = ((1+s)[h]_q + p q^h) (qt)^h,
                       lambda_h = s [h]_q^2 (qt)^(2h-1)
  generating sum_{sigma in S_n} q^inv p^fix s^exc t^depth, i.e. the total
  weight of the weighted 3-colored Motzkin paths of length n.

``brute_force_gf`` recomputes the refined series coefficient without any
Motzkin structure, by a dynamic program over the set of values already
placed, and serves as the independent oracle for ``expand``.  Every other
signed or specialised sum over S_n in the package is a substitution into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .algebra import MultiPoly, P, Q, S, T, q_integer
from .errors import SizeLimitError

#: Series expansion of a spec without its own bound is refused beyond this
#: order.
EXPANSION_ORDER_LIMIT = 30

#: ``preset_refined`` is refused beyond this order.  ``expand --preset
#: refined --order 22`` takes 21 s and 450 MB peak on a 2-vCPU guest under
#: CPython 3.11; each +2 orders costs about 3x the time and 2x the memory,
#: so order 24 would take over a minute.  ``preset_depth`` reaches the
#: default bound in 0.1 s.
REFINED_ORDER_LIMIT = 22

#: Sums over S_n are refused beyond this size.
BRUTE_FORCE_LIMIT = 12


@dataclass(frozen=True)
class JFractionSpec:
    """Coefficient sequences, supplied as closed-form generators."""

    gamma: Callable[[int], MultiPoly]
    lam: Callable[[int], MultiPoly]
    #: ``expand`` refuses orders beyond this.
    max_order: int = EXPANSION_ORDER_LIMIT


@dataclass(frozen=True)
class SeriesTable:
    """Entry n is the exact coefficient of z^n."""

    coeffs: tuple[MultiPoly, ...]

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> MultiPoly:
        return self.coeffs[n]


def expand(spec: JFractionSpec, order: int) -> SeriesTable:
    """Series coefficients of the continued fraction through z^order."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")
    if order > spec.max_order:
        raise SizeLimitError(f"expansion is limited to order <= {spec.max_order}")
    max_height = order // 2
    gamma = [spec.gamma(h) for h in range(max_height + 1)]
    lam = [MultiPoly.zero()] + [spec.lam(h) for h in range(1, max_height + 1)]

    coeffs = [MultiPoly.one()]
    state = {0: MultiPoly.one()}  # running height -> sum of prefix products
    for left in reversed(range(order)):  # steps left after this one
        parts: dict[int, list[MultiPoly]] = {}  # height -> contributions
        for height, poly in state.items():
            if height <= left:
                parts.setdefault(height, []).append(poly * gamma[height])
            if height + 1 <= left:
                parts.setdefault(height + 1, []).append(poly)
            if height >= 1:
                parts.setdefault(height - 1, []).append(poly * lam[height])
        state = {h: poly for h, polys in parts.items() if (poly := MultiPoly.sum(polys))}
        coeffs.append(state.get(0, MultiPoly.zero()))
    return SeriesTable(tuple(coeffs))


def preset_depth() -> JFractionSpec:
    """Coefficients generating the depth distribution over S_n."""
    return JFractionSpec(
        gamma=lambda h: MultiPoly.constant(2 * h + 1) * T**h,
        lam=lambda h: MultiPoly.constant(h * h) * T ** (2 * h - 1),
    )


def preset_refined() -> JFractionSpec:
    """Coefficients generating the joint (inv, fix, exc, depth) distribution."""
    qt = Q * T
    return JFractionSpec(
        gamma=lambda h: ((1 + S) * q_integer(h) + P * Q**h) * qt**h,
        lam=lambda h: S * q_integer(h) ** 2 * qt ** (2 * h - 1),
        max_order=REFINED_ORDER_LIMIT,
    )


def brute_force_gf(n: int) -> MultiPoly:
    """sum over S_n of q^inv p^fix s^exc t^depth, tallied by a subset DP.

    Values are placed at positions 1..n in turn; a state is the set of values
    used so far, and it maps packed exponent keys (``MultiPoly.packed_key``)
    to counts.  Placing v at position i adds the number of used values above
    v to inv, [v = i] to fix, [v > i] to exc and max(v - i, 0) to depth, one
    key addition per term.  These increments depend only on the set and on v
    (i is one more than the set's size), so all prefixes with the same set
    of values can share one state.  Each n is tallied once per process; the
    result is immutable and shared by every caller.

    >>> str(brute_force_gf(2))
    'q*s*t + p^2'
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n > BRUTE_FORCE_LIMIT:
        raise SizeLimitError(f"brute force is limited to n <= {BRUTE_FORCE_LIMIT}")
    return _subset_tally(n)


@lru_cache(maxsize=None)
def _subset_tally(n: int) -> MultiPoly:
    states: dict[int, dict[int, int]] = {0: {0: 1}}  # used set -> packed key -> count
    for i in range(1, n + 1):
        nxt: dict[int, dict[int, int]] = {}
        for used, tally in states.items():
            for v in range(1, n + 1):
                bit = 1 << (v - 1)
                if used & bit:
                    continue
                step = MultiPoly.packed_key(
                    ((used >> v).bit_count(), int(v == i), int(v > i), max(v - i, 0))
                )
                target = nxt.setdefault(used | bit, {})
                for key, count in tally.items():
                    key += step
                    target[key] = target.get(key, 0) + count
        states = nxt
    return MultiPoly.from_packed(states[(1 << n) - 1])


def brute_force_depth_gf(n: int) -> MultiPoly:
    """sum over S_n of t^depth."""
    return brute_force_gf(n).substitute({"q": 1, "p": 1, "s": 1})
