"""Exact multivariate polynomials in the variables q, p, s, t.

Coefficients are plain Python integers (arbitrary precision).  Each term is
keyed by one packed int: the exponents (eq, ep, es, et) sit in fixed-width
fields of ``FIELD_BITS`` bits, eq in the most significant one, so that
multiplying two monomials is a single integer addition.  Every exponent must
be below ``EXPONENT_LIMIT``; the top bit of each field is a guard that stays
clear in every stored key, so the sum of two keys never carries into the
next field, and a product whose exponent reaches the limit sets a guard bit
and raises ``ValueError`` instead.  The public API speaks in exponent tuples
throughout; only ``packed_key`` and ``from_packed`` expose the packing.

The zero polynomial stores no terms and every stored coefficient is nonzero,
so each value has exactly one representation and ``==`` is exact.  Values
are never mutated after construction; all operations return fresh
polynomials and are safe to share across threads or enumeration workers.

Serialization lists terms in descending lexicographic exponent order, which
is descending packed-key order:

>>> str((MultiPoly.one() - S * T) ** 2)
's^2*t^2 - 2*s*t + 1'
>>> str(S * T**4 - 2 * S**2 * T**3)
'-2*s^2*t^3 + s*t^4'
>>> ((MultiPoly.one() - S * T) ** 2).substitute({"s": 1, "t": 1})
MultiPoly('0')
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import reduce
from operator import itemgetter, or_
from typing import Iterable, Iterator, Mapping

#: Variable order used everywhere: exponent tuples are (eq, ep, es, et).
VARIABLES = ("q", "p", "s", "t")

Monomial = tuple[int, int, int, int]

#: Width of one exponent field in a packed key, guard bit included.
FIELD_BITS = 24

#: Every exponent of a stored term is below this bound.
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)

_FIELD_MASK = (1 << FIELD_BITS) - 1
_SHIFT_Q, _SHIFT_P, _SHIFT_S, _SHIFT_T = _SHIFTS = tuple(
    FIELD_BITS * i for i in reversed(range(len(VARIABLES)))
)
_KEY_LIMIT = 1 << (FIELD_BITS * len(VARIABLES))
_GUARDS = sum(EXPONENT_LIMIT << shift for shift in _SHIFTS)
_LOW_FIELDS = (1 << _SHIFT_Q) - 1  # the p, s and t fields of a key


def _check_shape(mono: Monomial) -> None:
    if len(mono) != len(VARIABLES) or any(not isinstance(e, int) or e < 0 for e in mono):
        raise ValueError(f"bad exponent tuple {mono!r}")


def _shift(name: str) -> int:
    """The bit offset of one variable's field in a packed key."""
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}")
    return _SHIFTS[VARIABLES.index(name)]


def _pack(mono: Monomial) -> int:
    _check_shape(mono)
    if max(mono) >= EXPONENT_LIMIT:
        raise ValueError(f"exponent tuple {mono!r} has an exponent >= {EXPONENT_LIMIT}")
    eq, ep, es, et = mono
    return eq << _SHIFT_Q | ep << _SHIFT_P | es << _SHIFT_S | et << _SHIFT_T


def _unpack(key: int) -> Monomial:
    return (
        key >> _SHIFT_Q & _FIELD_MASK,
        key >> _SHIFT_P & _FIELD_MASK,
        key >> _SHIFT_S & _FIELD_MASK,
        key >> _SHIFT_T & _FIELD_MASK,
    )


def _wrap(terms: dict[int, int]) -> "MultiPoly":
    """A polynomial owning ``terms``: valid keys, no zero coefficients."""
    poly = MultiPoly.__new__(MultiPoly)
    poly._terms = terms
    return poly


def _checked(terms: dict[int, int]) -> "MultiPoly":
    """A polynomial owning ``terms``, which has no zero coefficients, once
    every key has been checked."""
    if terms and (min(terms) < 0 or max(terms) >= _KEY_LIMIT or reduce(or_, terms) & _GUARDS):
        raise ValueError(f"an exponent does not fit below {EXPONENT_LIMIT}")
    return _wrap(terms)


class MultiPoly:
    """An immutable polynomial in q, p, s, t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an integer")
                key = _pack(mono)
                if coeff:
                    cleaned[key] = coeff
        self._terms = cleaned

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls()

    @classmethod
    def one(cls) -> "MultiPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value: int) -> "MultiPoly":
        return cls({(0, 0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls.monomial(_unpack(1 << _shift(name)))

    @classmethod
    def monomial(cls, exponents: Monomial, coeff: int = 1) -> "MultiPoly":
        return cls({tuple(exponents): coeff})

    @staticmethod
    def packed_key(exponents: Monomial) -> int:
        """The packed key of an exponent tuple.

        Keys add as their exponents do, so a tally can shift a whole term
        map by one monomial with one integer addition per term:

        >>> key = MultiPoly.packed_key((1, 0, 2, 0)) + MultiPoly.packed_key((0, 1, 0, 3))
        >>> MultiPoly.from_packed({key: 5})
        MultiPoly('5*q*p*s^2*t^3')
        """
        return _pack(exponents)

    @classmethod
    def from_packed(cls, terms: Mapping[int, int]) -> "MultiPoly":
        """The polynomial with the given packed-key -> coefficient map."""
        return _checked({key: coeff for key, coeff in terms.items() if coeff})

    # -- inspection ----------------------------------------------------

    def terms(self) -> dict[Monomial, int]:
        """A copy of the term map (monomial -> coefficient)."""
        return {_unpack(key): coeff for key, coeff in self._terms.items()}

    def coefficient(self, exponents: Monomial) -> int:
        _check_shape(exponents)
        if max(exponents) >= EXPONENT_LIMIT:
            return 0  # no stored term has such an exponent
        return self._terms.get(_pack(exponents), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def constant_value(self) -> int:
        """The value of a constant polynomial.

        >>> (q_integer(3).substitute({"q": 2})).constant_value()
        7
        """
        if not self._terms:
            return 0
        if set(self._terms) != {0}:
            raise ValueError(f"{self} is not constant")
        return self._terms[0]

    def split_by_exponent(self, name: str) -> dict[int, "MultiPoly"]:
        """Group terms by the exponent of one variable, removing it.

        Returns a map exponent -> polynomial in the remaining variables.
        """
        shift = _shift(name)
        keep = ~(_FIELD_MASK << shift)
        layers: dict[int, dict[int, int]] = {}
        for key, coeff in self._terms.items():
            layers.setdefault(key >> shift & _FIELD_MASK, {})[key & keep] = coeff
        return {power: _wrap(t) for power, t in sorted(layers.items())}

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(value: "MultiPoly | int") -> "MultiPoly | None":
        if isinstance(value, MultiPoly):
            return value
        if isinstance(value, int):
            return MultiPoly.constant(value)
        return None

    @staticmethod
    def sum_of_products(pairs: Iterable[tuple["MultiPoly", "MultiPoly | None"]]) -> "MultiPoly":
        """The sum of a * b over ``pairs``, where a factor b of ``None`` adds a.

        Every term lands in one packed-key map, which starts as a copy of the
        largest unmultiplied operand.  A factor coefficient of 1 adds without
        multiplying.  Zero totals and the exponent bound are settled at the end.

        >>> MultiPoly.sum_of_products([(S, T), (Q, None), (-T, S)])
        MultiPoly('q')
        """
        plain, products = [], []
        for a, b in pairs:
            if b is None:
                plain.append(a._terms)
            else:  # the longer operand in the inner loop: fewer loop set-ups
                products.append(sorted((a._terms, b._terms), key=len))
        plain.sort(key=len)
        result = dict(plain.pop()) if plain else {}
        work = products + [({0: 1}, terms) for terms in plain] if plain else products
        get = result.get
        for small, big in work:
            for kb, cb in small.items():
                scaled = big.items() if cb == 1 else zip(big, map(cb.__mul__, big.values()))
                for ka, ca in scaled:
                    key = ka + kb
                    result[key] = get(key, 0) + ca
        if 0 in result.values():
            result = {key: coeff for key, coeff in result.items() if coeff}
        # Operand fields are below EXPONENT_LIMIT, so each field of a sum
        # stays below twice that: it sets its guard bit, never the next field.
        if products and result and reduce(or_, result) & _GUARDS:
            raise ValueError(f"a product exponent does not fit below {EXPONENT_LIMIT}")
        return _wrap(result)

    @staticmethod
    def sum(polys: Iterable["MultiPoly"]) -> "MultiPoly":
        """The sum of any number of polynomials, merged into one term map.

        >>> MultiPoly.sum([S, T, -S])
        MultiPoly('t')
        """
        return MultiPoly.sum_of_products((poly, None) for poly in polys)

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return MultiPoly.sum_of_products(((self, None), (rhs, None)))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _wrap({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "MultiPoly | int") -> "MultiPoly":
        return (-self).__add__(other)  # NotImplemented unless other is an int

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return MultiPoly.sum_of_products(((self, rhs),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = MultiPoly.one()
        for bit in f"{exponent:b}":  # binary powering, from the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def substitute(self, assignment: Mapping[str, int]) -> "MultiPoly":
        """Substitute integers for some variables, leaving the rest symbolic.

        The empty assignment is the identity.

        >>> str((Q**3 * P * S * T**2).substitute({"q": -1}))
        '-p*s*t^2'
        """
        fields = []
        keep = -1
        for name, value in assignment.items():
            shift = _shift(name)
            if not isinstance(value, int):
                raise TypeError(f"substitution value {value!r} is not an integer")
            fields.append((shift, value))
            keep &= ~(_FIELD_MASK << shift)
        result: dict[int, int] = {}
        for key, coeff in self._terms.items():
            factor = coeff
            for shift, value in fields:
                factor *= value ** (key >> shift & _FIELD_MASK)
            reduced = key & keep
            total = result.get(reduced, 0) + factor
            if total:
                result[reduced] = total
            else:
                result.pop(reduced, None)
        return _wrap(result)

    def unpack_q(self, width: int) -> "MultiPoly":
        """The polynomial f with ``f.substitute({"q": 1 << width}) == self``.

        That substitution packs the q-polynomial of each (p, s, t) class into
        one integer, with one ``width``-bit slot per power of q, and sums and
        products of packed polynomials stay packed.  This is its inverse,
        exact whenever ``self`` has no q and every coefficient of f is below
        2^(width - 1) in absolute value.  ``width`` is a multiple of 64.

        >>> poly = 3 * Q**2 * S - Q * S + 5
        >>> poly.substitute({"q": 1 << 64}).unpack_q(64) == poly
        True
        """
        if width <= 0 or width % 64:
            raise ValueError(f"slot width must be a positive multiple of 64, got {width!r}")
        size = width // 8  # bytes per slot
        half = 1 << (width - 1)  # biases each slot from [-half, half) to [0, 2 * half)
        half_slot = half.to_bytes(size, "little")
        terms: dict[int, int] = {}
        for low, packed in self._terms.items():
            if low >> _SHIFT_Q:
                raise ValueError(f"{_monomial_text(low)} has a power of q")
            zeros = ((packed & -packed).bit_length() - 1) // width  # empty low slots
            packed >>= zeros * width
            if -half <= packed < half:  # a single power of q
                terms[zeros << _SHIFT_Q | low] = packed
                continue
            count = packed.bit_length() // width + 1
            raw = (packed + int.from_bytes(half_slot * count, "little")).to_bytes(
                count * size, "little"
            )
            if size == 8:
                slots = array("Q", raw)
                if sys.byteorder == "big":
                    slots.byteswap()
            else:
                slots = [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
            keys = range(zeros << _SHIFT_Q | low, (zeros + count) << _SHIFT_Q, 1 << _SHIFT_Q)
            terms.update(filter(itemgetter(1), zip(keys, map(half.__rsub__, slots))))
        return _checked(terms)

    # -- comparison and rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        for key, coeff in sorted(self._terms.items(), reverse=True):
            yield _unpack(key), coeff

    def __str__(self) -> str:
        terms = self._terms
        if not terms:
            return "0"
        q_texts: dict[int, str] = {}  # eq -> "q^eq"
        low_texts: dict[int, str] = {}  # the p, s and t fields -> "p^ep*s^es*t^et"
        chunks = []
        for key in sorted(terms, reverse=True):
            q = q_texts.get(eq := key >> _SHIFT_Q)
            if q is None:
                q = q_texts[eq] = _monomial_text(eq << _SHIFT_Q)
            rest = low_texts.get(low := key & _LOW_FIELDS)
            if rest is None:
                rest = low_texts[low] = _monomial_text(low)
            mono = f"{q}*{rest}" if q and rest else q or rest
            coeff = terms[key]
            body = f"{abs(coeff)}*{mono}" if abs(coeff) != 1 and mono else mono or str(abs(coeff))
            chunks.append(f"- {body}" if coeff < 0 else f"+ {body}")
        text = " ".join(chunks)
        return text[2:] if text[0] == "+" else f"-{text[2:]}"

    def __repr__(self) -> str:
        return f"MultiPoly('{self}')"


def _monomial_text(key: int) -> str:
    """The monomial of a packed key as text, such as "q*s^2"; "" for 1."""
    parts = []
    for name, shift in zip(VARIABLES, _SHIFTS):
        if exponent := key >> shift & _FIELD_MASK:
            parts.append(f"{name}^{exponent}" if exponent > 1 else name)
    return "*".join(parts)


Q = MultiPoly.variable("q")
P = MultiPoly.variable("p")
S = MultiPoly.variable("s")
T = MultiPoly.variable("t")


def q_integer(k: int) -> MultiPoly:
    """The q-integer 1 + q + ... + q^(k-1); zero when k = 0.

    >>> str(q_integer(3))
    'q^2 + q + 1'
    >>> q_integer(0)
    MultiPoly('0')
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"q_integer expects a non-negative integer, got {k!r}")
    return MultiPoly({(i, 0, 0, 0): 1 for i in range(k)})


def binomial(n: int, k: int) -> int:
    """Binomial coefficient as an exact integer; zero when k > n."""
    if not isinstance(n, int) or not isinstance(k, int) or n < 0 or k < 0:
        raise ValueError(f"binomial expects non-negative integers, got {n!r}, {k!r}")
    return math.comb(n, k)
