"""Jacobi-type continued fractions expanded as exact power series in z.

A coefficient pair (gamma_h)_{h>=0}, (lambda_h)_{h>=1} defines the continued
fraction

    1 / (1 - gamma_0 z - lambda_1 z^2 / (1 - gamma_1 z - lambda_2 z^2 / ...))

whose z^n coefficient is the sum, over plain Motzkin paths of length n, of
the product of gamma_h per horizontal step at height h and lambda_h per
down step from height h.  ``expand`` returns the truncation, a tuple indexed
by n, computed by dynamic programming over (length, running height), with
one call of ``MultiPoly.sum_of_products`` per height and step.  A path at
height h with fewer than h steps left can never return to 0, so after step k
only the heights h <= order - k are kept: the gamma_h product is skipped
when h exceeds the steps left, and so is the up step when h + 1 does.  After
step k the DP therefore holds at most min(k, order - k) + 1 heights, and
every coefficient is exactly the full path sum.  Each spec carries its own
``max_order``; its values, with their measured costs, are in ``errors.LIMITS``.

The DP packs q (Kronecker substitution): it runs on gamma_h and lambda_h
with q = 2^w substituted, so each state holds one integer per (p, s, t)
class, and a product costs one C-level integer multiplication per pair of
classes instead of one dict update per pair of terms.  Each z^n coefficient
is unpacked with ``MultiPoly.unpack_q``.  A scalar run of the same DP bounds
every coefficient and the q-exponents each state can hold first, which fixes
w in whole 64-bit words.  A packed product costs in proportion to the width
of its classes however few terms they hold, so a spec whose classes would
span more than ``PACKED_WORDS_LIMIT`` words, or whose q-exponents leave a
third or more of the slots empty, runs the DP on plain polynomials.

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
from functools import lru_cache, reduce
from operator import or_
from typing import Callable

from .algebra import MultiPoly, P, Q, S, T, q_integer
from .errors import LIMITS, check_size

#: ``expand`` packs q only while one packed (p, s, t) class spans at most
#: this many 64-bit words: one slot per power of q up to the top q-degree,
#: each of whole words.  ``preset_refined`` needs 92 words at order 14 and
#: 464 at order 22.  A packed product costs in proportion to the width
#: however few terms a class holds, so a spec whose classes each hold one
#: power of q loses more the wider it packs: with gamma_h = P + sum_{i<m}
#: q^i s^i and lambda_h = t (gamma_h - P) at order 12, packing takes 0.29 s
#: against 0.065 s plain at m = 11 (121 words), 3.1 s against 0.18 s at
#: m = 22 (253 words), and 46 s against 0.73 s at m = 43 (1,010 words).
PACKED_WORDS_LIMIT = 512


@dataclass(frozen=True)
class JFractionSpec:
    """Coefficient sequences, supplied as closed-form generators."""

    gamma: Callable[[int], MultiPoly]
    lam: Callable[[int], MultiPoly]
    #: ``expand`` refuses orders beyond this.
    max_order: int = LIMITS["expansion"].bound


def expand(spec: JFractionSpec, order: int) -> tuple[MultiPoly, ...]:
    """Series coefficients of the continued fraction through z^order, z^n at entry n.

    The DP runs on packed q-polynomials when ``_slot_width`` finds a width
    within ``PACKED_WORDS_LIMIT``, and on plain ones otherwise; the
    coefficients are the same either way.
    """
    check_size(order, "expansion", spec.max_order)
    max_height = order // 2
    gamma = [spec.gamma(h) for h in range(max_height + 1)]
    lam = [MultiPoly.zero()] + [spec.lam(h) for h in range(1, max_height + 1)]
    width = _slot_width(gamma, lam, order)
    if width:
        packing = {"q": 1 << width}
        gamma = [poly.substitute(packing) for poly in gamma]
        lam = [poly.substitute(packing) for poly in lam]

    coeffs = [MultiPoly.one()]
    for state in _steps(MultiPoly.one(), gamma, lam, order, MultiPoly.sum_of_products):
        coeffs.append(state[0].unpack_q(width) if width else state[0])
    return tuple(coeffs)


def _steps(start, gamma, lam, order, combine):
    """Yield the DP's state, running height -> value, after each step.

    ``combine`` takes one height's (value, factor) pairs, where a factor of
    ``None`` is the up step, and returns their sum of products.
    """
    state = [start]
    for left in reversed(range(order)):  # steps left after this one
        pairs: list[list] = [[] for _ in range(min(len(state), left) + 1)]  # by height
        for height, value in enumerate(state):
            if height <= left:
                pairs[height].append((value, gamma[height]))
            if height + 1 <= left:
                pairs[height + 1].append((value, None))
            if height >= 1:
                pairs[height - 1].append((value, lam[height]))
        state = [combine(contributions) for contributions in pairs]
        yield state


def _slot_width(gamma: list[MultiPoly], lam: list[MultiPoly], order: int) -> int | None:
    """The q-slot width in bits that packs ``expand``'s DP exactly, or
    ``None`` when packing would not pay.

    A scalar run of the same pruned DP carries, for each state, a bound on
    its L1 norm (the sum of |coeff|) and the set of q-exponents its terms can
    have, as a bit mask.  The largest norm, with those of gamma_h and
    lambda_h, bounds every coefficient of every partial sum, so one slot of
    that many bits plus a sign never carries into the next.  Packing is
    refused when a class would span more than ``PACKED_WORDS_LIMIT`` words,
    or when a third or more of the slots below the top q-degree can never
    hold a term, as in a spec whose q-exponents are all multiples of 2.
    """
    bounds = []
    for poly in gamma + lam:
        terms = poly.terms()
        if any(eq >= PACKED_WORDS_LIMIT for eq, *_ in terms):
            return None  # past the cut already, and its mask could be huge
        exponents = reduce(or_, (1 << eq for eq, *_ in terms), 0)
        bounds.append((sum(map(abs, terms.values())), exponents))
    factors = bounds[: len(gamma)], bounds[len(gamma) :]
    for state in _steps((1, 1), *factors, order, _bound_sum):
        bounds += state
        if max(exponents for _, exponents in state).bit_length() > PACKED_WORDS_LIMIT:
            return None
    words = max(norm for norm, _ in bounds).bit_length() // 64 + 1
    occupied = reduce(or_, (exponents for _, exponents in bounds))
    slots = occupied.bit_length()
    if slots * words > PACKED_WORDS_LIMIT or 3 * occupied.bit_count() <= 2 * slots:
        return None
    return 64 * words


def _bound_sum(pairs: list[tuple[tuple[int, int], tuple[int, int] | None]]) -> tuple[int, int]:
    """The norm bound and the q-exponent mask of a sum of products, from
    those of its factors."""
    norm = exponents = 0
    for (a_norm, a_exponents), factor in pairs:
        b_norm, b_exponents = factor or (1, 1)
        norm += a_norm * b_norm
        while b_exponents:  # one shifted copy of a's mask per exponent of b
            lowest = b_exponents & -b_exponents
            exponents |= a_exponents * lowest
            b_exponents ^= lowest
    return norm, exponents


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
        max_order=LIMITS["refined-expansion"].bound,
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
    check_size(n, "brute-force")
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
