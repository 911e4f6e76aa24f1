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
from functools import reduce
from operator import or_
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


def _pack(mono: Monomial) -> int:
    if len(mono) != len(VARIABLES) or any(not isinstance(e, int) or e < 0 for e in mono):
        raise ValueError(f"bad exponent tuple {mono!r}")
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
        index = VARIABLES.index(name)
        mono = tuple(1 if i == index else 0 for i in range(len(VARIABLES)))
        return cls({mono: 1})

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
        cleaned = {key: coeff for key, coeff in terms.items() if coeff}
        if cleaned and (
            min(cleaned) < 0 or max(cleaned) >= _KEY_LIMIT or reduce(or_, cleaned) & _GUARDS
        ):
            raise ValueError(f"an exponent does not fit below {EXPONENT_LIMIT}")
        return _wrap(cleaned)

    # -- inspection ----------------------------------------------------

    def terms(self) -> dict[Monomial, int]:
        """A copy of the term map (monomial -> coefficient)."""
        return {_unpack(key): coeff for key, coeff in self._terms.items()}

    def coefficient(self, exponents: Monomial) -> int:
        try:
            key = _pack(exponents)
        except ValueError:
            return 0  # no stored term has such an exponent tuple
        return self._terms.get(key, 0)

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
        shift = _SHIFTS[VARIABLES.index(name)]
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
    def sum(polys: Iterable["MultiPoly"]) -> "MultiPoly":
        """The sum of any number of polynomials, merged into one term map.

        The largest operand's map is copied once and the others are added
        into the copy, so k operands cost one copy rather than k - 1.

        >>> MultiPoly.sum([S, T, -S])
        MultiPoly('t')
        """
        maps = sorted((poly._terms for poly in polys), key=len)
        if not maps:
            return MultiPoly.zero()
        result = dict(maps.pop())
        for terms in maps:
            for key, coeff in terms.items():
                total = result.get(key, 0) + coeff
                if total:
                    result[key] = total
                else:
                    del result[key]
        return _wrap(result)

    def __add__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return MultiPoly.sum((self, rhs))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _wrap({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: "MultiPoly | int") -> "MultiPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # the longer operand in the inner loop: fewer loop set-ups
        small, big = sorted((self._terms, rhs._terms), key=len)
        big_items = big.items()
        result: dict[int, int] = {}
        for kb, cb in small.items():
            for ka, ca in big_items:
                key = ka + kb
                total = result.get(key, 0) + ca * cb
                if total:
                    result[key] = total
                else:
                    del result[key]
        # Operand fields are below EXPONENT_LIMIT, so each field of a sum
        # stays below twice that: it sets its guard bit, never the next field.
        if result and reduce(or_, result) & _GUARDS:
            raise ValueError(f"a product exponent does not fit below {EXPONENT_LIMIT}")
        return _wrap(result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = MultiPoly.one()
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
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
            if name not in VARIABLES:
                raise ValueError(f"unknown variable {name!r}")
            if not isinstance(value, int):
                raise TypeError(f"substitution value {value!r} is not an integer")
            shift = _SHIFTS[VARIABLES.index(name)]
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

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        for key, coeff in sorted(self._terms.items(), reverse=True):
            yield _unpack(key), coeff

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for mono, coeff in self:
            body = _term_text(mono, abs(coeff))
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"MultiPoly('{self}')"


def _term_text(mono: Monomial, coeff: int) -> str:
    parts = []
    for name, exponent in zip(VARIABLES, mono):
        if exponent == 1:
            parts.append(name)
        elif exponent > 1:
            parts.append(f"{name}^{exponent}")
    if not parts:
        return str(coeff)
    if coeff != 1:
        parts.insert(0, str(coeff))
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
