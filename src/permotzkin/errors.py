"""Exception types shared across the package, and the one size guard."""


class SizeLimitError(ValueError):
    """An enumeration or expansion was requested beyond its cost guard."""


class ParseError(ValueError):
    """Malformed text input; the message names the offending position."""


class InvalidPathError(ValueError):
    """A weighted Motzkin path violates one of its structural invariants."""


def check_size(value: int, limit: int, what: str, name: str = "n") -> None:
    """Refuse a negative ``value`` and one above ``limit``.

    ``what`` is the subject of the refusal together with its verb, so that
    the message reads ``"<what> limited to <name> <= <limit>"``.

    >>> check_size(10, 9, "involution tables are")
    Traceback (most recent call last):
    ...
    permotzkin.errors.SizeLimitError: involution tables are limited to n <= 9
    """
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    if value > limit:
        raise SizeLimitError(f"{what} limited to {name} <= {limit}")
