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
classes instead of one dict update per pair of terms.  ``_series`` yields
each z^n coefficient's packed state as the DP reaches it, and ``expand``
unpacks each with ``algebra._unpack_q``.  The CLI never unpacks: it renders
each coefficient's text straight from the packed state, running
``algebra._text``, the builder behind ``str``, over the classes that
``algebra._classes`` decodes, and drops the state, so ``expand --preset
refined`` peaks at 87 MB at order 20 and 184 MB at order 22 in JSON, 92 and
193 MB in text (2-vCPU guest, stdout to a pipe), against 141 and 281 MB when
it unpacked each coefficient and rendered it with ``str``.  A scalar run of the same DP
first bounds every coefficient and q-degree, which fixes w in whole 64-bit
words and the slot count.  A packed product costs in proportion to the
width of its classes however few terms they hold, so three kinds of spec
run the DP on plain polynomials: one whose classes would span more than
``PACKED_WORDS_LIMIT`` words, one whose q-exponents are all multiples of one
g > 1, and one with no q at all, such as ``preset_depth``, where packing
buys nothing.

Two coefficient presets are built in:

* ``preset_depth``:    gamma_h = (2h+1) t^h,           lambda_h = h^2 t^(2h-1)
  generating sum_{sigma in S_n} t^depth(sigma);
* ``preset_refined``:  gamma_h = ((1+s)[h]_q + p q^h) (qt)^h,
                       lambda_h = s [h]_q^2 (qt)^(2h-1)
  generating sum_{sigma in S_n} q^inv p^fix s^exc t^depth, i.e. the total
  weight of the weighted 3-colored Motzkin paths of length n.

``brute_force_gf`` recomputes the refined series coefficient without any
Motzkin structure, by a dynamic program over the set of values still to
place, and serves as the independent oracle for ``expand``.  The signed and
specialised polynomials over S_n (``brute_force_depth_gf`` and the signed
sums of ``identities``) are substitutions into it; the two sign imbalances,
which are integers, fold the same DP directly (``involution``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .algebra import MultiPoly, P, Q, S, T, _unpack_q, q_integer
from .errors import LIMITS, check_size
from .permutations import _fold_values_left

#: ``expand`` packs q only while one packed (p, s, t) class spans at most
#: this many 64-bit words: one slot per power of q up to the top q-degree,
#: each of whole words.  ``preset_refined`` needs 92 words at order 14 and
#: 464 at order 22.  A packed product costs in proportion to the width
#: however few terms a class holds, so a spec whose classes each hold one
#: power of q loses more the wider it packs: with gamma_h = P + sum_{i<m}
#: q^i s^i and lambda_h = t (gamma_h - P) at order 12, packing takes 0.29 s
#: against 0.065 s plain at m = 11 (121 words), 3.1 s against 0.18 s at
#: m = 22 (253 words), and 46 s against 0.73 s at m = 43 (1,010 words).
#: Dense classes lose past the cut: q_integer(65) + P with lambda_h = st at
#: order 9 needs 577 words and runs plain in 0.31 s, against 0.029 s packed.
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
    return tuple(_unpack_q(poly, width) if width else poly for poly, width in _series(spec, order))


def _series(spec: JFractionSpec, order: int) -> Iterator[tuple[MultiPoly, int | None]]:
    """The DP's state at height 0, z^n's coefficient, one n at a time as the
    DP reaches it, with the slot width it is packed in, or ``None`` when it
    is not packed: at n = 0, and at every n when the DP runs plain.

    ``expand`` unpacks each with ``_unpack_q``.  The CLI renders each
    straight from the packed state with ``_text(_classes(...))`` and drops
    it, so it never holds an unpacked coefficient.  Refusals raise at the first
    ``next``, before any coefficient is yielded.
    """
    check_size(order, "expansion", spec.max_order)
    max_height = order // 2
    gamma = [spec.gamma(h) for h in range(max_height + 1)]
    lam = [MultiPoly()] + [spec.lam(h) for h in range(1, max_height + 1)]
    width = _slot_width(gamma, lam, order)
    if width:
        packing = {"q": 1 << width}
        gamma = [poly.substitute(packing) for poly in gamma]
        lam = [poly.substitute(packing) for poly in lam]

    yield MultiPoly.constant(1), None
    for state in _steps(MultiPoly.constant(1), gamma, lam, order, MultiPoly.sum_of_products):
        yield state[0], width


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
        del pairs, value  # free the old state before the caller takes the new one
        yield state


def _slot_width(gamma: list[MultiPoly], lam: list[MultiPoly], order: int) -> int | None:
    """The q-slot width in bits that packs ``expand``'s DP exactly, or
    ``None`` when packing would not pay.

    A scalar run of the same pruned DP bounds each state's L1 norm (the sum
    of |coeff|) and top q-degree.  The largest norm, with those of gamma_h and
    lambda_h, bounds every coefficient of every partial sum, so a slot of that
    many bits plus a sign never carries into the next.  Packing is refused
    when a class of (top degree + 1) slots would span more than
    ``PACKED_WORDS_LIMIT`` words, when one g > 1 divides every q-exponent
    of gamma_h and lambda_h, leaving all but one slot in g empty, and when
    their gcd is 0: no q at all, so every class holds one slot.
    """
    terms = [poly.terms() for poly in gamma + lam]
    if math.gcd(*(eq for part in terms for eq, *_ in part)) != 1:
        return None
    bounds = [(sum(map(abs, part.values())), max(part, default=(0,))[0]) for part in terms]
    factors = bounds[: len(gamma)], bounds[len(gamma) :]
    for state in _steps((1, 0), *factors, order, _bound_sum):
        bounds += state
    words = max(norm for norm, _ in bounds).bit_length() // 64 + 1
    slots = max(degree for _, degree in bounds) + 1
    if slots * words > PACKED_WORDS_LIMIT:
        return None
    return 64 * words


def _bound_sum(pairs: list[tuple[tuple[int, int], tuple[int, int] | None]]) -> tuple[int, int]:
    """The norm bound and top q-degree of a sum of products; the up step's ``None`` is (1, 0).

    >>> _bound_sum([((2, 3), (5, 1)), ((1, 7), None)])
    (11, 7)
    """
    norm = degree = 0
    for (a_norm, a_degree), factor in pairs:
        b_norm, b_degree = factor or (1, 0)
        norm += a_norm * b_norm
        degree = max(degree, a_degree + b_degree)
    return norm, degree


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

    ``permutations._fold_values_left`` folds maps from packed statistics, whose
    bytes are the exponents of q, p, s, t, to counts.  Each n is tallied once
    per process; the result is immutable and shared by every caller.

    >>> str(brute_force_gf(2))
    'q*s*t + p^2'
    """
    check_size(n, "brute-force")
    return _brute_force_gf(n)


def _add_keys(parts: list[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """The sum of the tallies, each with its keys raised by its step."""
    tally: dict[int, int] = {}
    get = tally.get
    for step, part in parts:
        for key, count in part.items():
            key += step
            tally[key] = get(key, 0) + count
    return tally


@lru_cache(maxsize=None)
def _brute_force_gf(n: int) -> MultiPoly:
    tally = _fold_values_left(n, {0: 1}, _add_keys)
    return MultiPoly({tuple(key.to_bytes(4, "little")): count for key, count in tally.items()})


def brute_force_depth_gf(n: int) -> MultiPoly:
    """sum over S_n of t^depth."""
    return brute_force_gf(n).substitute({"q": 1, "p": 1, "s": 1})
