"""Exact multivariate polynomials in the variables q, p, s, t.

Coefficients are plain Python integers (arbitrary precision).  Each term is
keyed by one packed int: the exponents (eq, ep, es, et) sit in fixed-width
fields of ``FIELD_BITS`` bits, eq in the most significant one, so that
multiplying two monomials is a single integer addition.  Every exponent must
be below ``EXPONENT_LIMIT``; the top bit of each field is a guard that stays
clear in every stored key, so the sum of two keys never carries into the
next field, and a product whose exponent reaches the limit sets a guard bit
and raises ``ValueError`` instead.  The public API speaks in exponent tuples
throughout; no public name exposes the packing.

The zero polynomial stores no terms and every stored coefficient is nonzero,
so each value has exactly one representation and ``==`` is exact.  Values
are never mutated after construction; all operations return fresh
polynomials and are safe to share across threads or enumeration workers.

Serialization lists terms in descending lexicographic exponent order, which
is descending packed-key order.  ``str`` and the CLI's packed path share
one text builder, ``_text``; ``_unpack_q`` and that path share one decoder
of packed q-polynomials, ``_classes``, which holds their exponent check:

>>> str((1 - S * T) ** 2)
's^2*t^2 - 2*s*t + 1'
>>> str(S * T**4 - 2 * S**2 * T**3)
'-2*s^2*t^3 + s*t^4'
>>> ((1 - S * T) ** 2).substitute({"s": 1, "t": 1})
MultiPoly('0')
"""

from __future__ import annotations

import struct
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, Mapping

from .errors import _echo

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
_GUARDS = sum(EXPONENT_LIMIT << shift for shift in _SHIFTS)
_LOW_FIELDS = (1 << _SHIFT_Q) - 1  # the p, s and t fields of a key


def _shift(name: str) -> int:
    """The bit offset of one variable's field in a packed key."""
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {_echo(name, 'a name')}")
    return _SHIFTS[VARIABLES.index(name)]


def _pack(mono: Monomial) -> int:
    if len(mono) != len(VARIABLES) or any(not isinstance(e, int) or e < 0 for e in mono):
        raise ValueError(f"bad exponent tuple {_echo(mono)}")
    if max(mono) >= EXPONENT_LIMIT:
        raise ValueError(f"exponent tuple {_echo(mono)} has an exponent >= {EXPONENT_LIMIT}")
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


class MultiPoly:
    """An immutable polynomial in q, p, s, t with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {_echo(coeff, 'a value')} is not an integer")
                key = _pack(mono)
                if coeff:
                    cleaned[key] = coeff
        self._terms = cleaned

    @classmethod
    def constant(cls, value: int) -> "MultiPoly":
        return cls({(0, 0, 0, 0): value})

    # -- inspection ----------------------------------------------------

    def terms(self) -> dict[Monomial, int]:
        """A copy of the term map (monomial -> coefficient)."""
        return {_unpack(key): coeff for key, coeff in self._terms.items()}

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
            raise ValueError(
                f"exponent must be a non-negative integer, got {_echo(exponent, 'a value')}"
            )
        result = MultiPoly.constant(1)
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
                raise TypeError(f"substitution value {_echo(value, 'a value')} is not an integer")
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

    # -- comparison and rendering ---------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        terms = self._terms
        classes: dict[int, list[int]] = {}  # the p, s and t fields -> their keys
        for key in terms:
            classes.setdefault(key & _LOW_FIELDS, []).append(key)
        return _text(
            (low, ((key >> _SHIFT_Q, terms[key]) for key in keys))
            for low, keys in sorted(classes.items(), reverse=True)
        )

    def __repr__(self) -> str:
        return f"MultiPoly('{self}')"


def _monomial_text(key: int) -> str:
    """The monomial of a packed key as text, such as "q*s^2"; "" for 1."""
    parts = []
    for name, shift in zip(VARIABLES, _SHIFTS):
        if exponent := key >> shift & _FIELD_MASK:
            parts.append(f"{name}^{exponent}" if exponent > 1 else name)
    return "*".join(parts)


def _classes(poly: MultiPoly, width: int) -> Iterator[tuple[int, Iterator[tuple[int, int]]]]:
    """Each (p, s, t) class of a packed polynomial with its nonzero terms.

    ``poly`` is what ``substitute({"q": 1 << width})`` makes of a polynomial
    f: one integer per class, with one signed ``width``-bit slot per power of
    q.  Yields the classes in descending order, each with its (q-exponent,
    coefficient) terms of f.  Raises ``ValueError`` when an exponent of f
    reaches ``EXPONENT_LIMIT``.
    """
    size = width // 8  # bytes per slot
    for low in sorted(poly._terms, reverse=True):
        packed = poly._terms[low]
        zeros = ((packed & -packed).bit_length() - 1) // width  # empty low slots
        packed >>= zeros * width
        count = packed.bit_length() // width + 1  # the top slot is never empty
        if zeros + count > EXPONENT_LIMIT or low & _GUARDS:
            raise ValueError(f"an exponent does not fit below {EXPONENT_LIMIT}")
        # Adding half to each slot carries every borrow out of the packed
        # integer; XOR with half then leaves each slot in two's complement.
        bias = int.from_bytes((1 << (width - 1)).to_bytes(size, "little") * count, "little")
        raw = ((packed + bias) ^ bias).to_bytes(count * size, "little")
        if size == 8:
            slots = struct.unpack(f"<{count}q", raw)
        else:
            slots = [
                int.from_bytes(raw[i : i + size], "little", signed=True)
                for i in range(0, len(raw), size)
            ]
        yield low, compress(enumerate(slots, zeros), slots)


def _unpack_q(poly: MultiPoly, width: int) -> MultiPoly:
    """The polynomial f with ``f.substitute({"q": 1 << width}) == poly``.

    That substitution packs the q-polynomial of each (p, s, t) class into
    one integer, with one ``width``-bit slot per power of q, and sums and
    products of packed polynomials stay packed.  This is its inverse, exact
    whenever ``poly`` has no q, ``width`` is a positive multiple of 64 and
    every coefficient of f is below 2^(width - 1) in absolute value.

    >>> f = 3 * Q**2 * S - Q * S + 5
    >>> _unpack_q(f.substitute({"q": 1 << 64}), 64) == f
    True
    >>> f = -(2**100) * Q**3 * P + 7 * Q * P - Q**2 + 1
    >>> _unpack_q(f.substitute({"q": 1 << 128}), 128) == f
    True
    """
    return _wrap(
        {eq << _SHIFT_Q | low: coeff for low, terms in _classes(poly, width) for eq, coeff in terms}
    )


def _text(classes: Iterable[tuple[int, Iterable[tuple[int, int]]]]) -> str:
    """The text of a polynomial given as its (p, s, t) classes in descending
    order, each with its (q-exponent, coefficient) terms in any order.

    Terms are listed by descending key: by descending q-exponent, and within
    one by descending class.  So the parts of each term's text go to the
    bucket of its q-exponent, and the buckets are joined and dropped from
    the top one down.  ``str`` and the CLI's packed path,
    ``_text(_classes(poly, width))``, both render here.

    >>> f = -(2**100) * Q**3 * P + 7 * Q * P * S - Q**2 * T - 1 + Q * S
    >>> _text(_classes(f.substitute({"q": 1 << 128}), 128))
    '-1267650600228229401496703205376*q^3*p - q^2*t + 7*q*p*s + q*s - 1'
    """
    buckets: dict[int, list[str]] = {}  # eq -> its terms' text parts: " - ", "3*", "q^eq", "*p*s"
    q_texts: dict[int, str] = {}  # eq -> "q^eq"
    for low, terms in classes:
        rest = _monomial_text(low)
        tail = f"*{rest}" if rest else ""
        for eq, coeff in terms:
            parts = buckets.get(eq)
            if parts is None:
                parts = buckets[eq] = []
                q_texts[eq] = _monomial_text(eq << _SHIFT_Q)
            q = q_texts[eq]
            sign = " - " if coeff < 0 else " + "
            size = abs(coeff)
            if q or rest:
                parts += sign, f"{size}*" if size != 1 else "", q, tail if q else rest
            else:  # the constant term
                parts += sign, str(size)
    if not buckets:
        return "0"
    order = sorted(buckets, reverse=True)
    top = buckets[order[0]]
    top[0] = "" if top[0] == " + " else "-"  # the leading term's sign
    # one bucket's parts at a time, so they are never all in one list
    return "".join(["".join(buckets.pop(eq)) for eq in order])


Q = MultiPoly({(1, 0, 0, 0): 1})
P = MultiPoly({(0, 1, 0, 0): 1})
S = MultiPoly({(0, 0, 1, 0): 1})
T = MultiPoly({(0, 0, 0, 1): 1})


def q_integer(k: int) -> MultiPoly:
    """The q-integer 1 + q + ... + q^(k-1); zero when k = 0.

    >>> str(q_integer(3))
    'q^2 + q + 1'
    >>> q_integer(0)
    MultiPoly('0')
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"q_integer expects a non-negative integer, got {_echo(k, 'a value')}")
    return MultiPoly({(i, 0, 0, 0): 1 for i in range(k)})
