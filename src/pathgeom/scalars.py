"""Scalar backends, and the one reader for every number and index in JSON input.

Two representations coexist: :class:`fractions.Fraction` for the exact path
and ``float`` for the numerical path.  ``Fraction`` keeps values in lowest
terms with positive denominator, which makes equality of exact results
bit-for-bit reproducible.  Mixing the two representations in an arithmetic
operation promotes the result to ``float``; the promotion is visible in the
result's type (and in ``is_exact`` of any container built from it).

Every ``from_json`` reads its numbers here.  A number is an int that is not a
bool, a ``"p/q"`` or decimal string, or a finite float, read as the decimal it
prints as (0.1 is 1/10); only :func:`scalar_from_json` keeps a float a float.
A text of more than :data:`MAX_DIGITS` characters, or a decimal exponent
beyond ±:data:`MAX_DIGITS`, is refused before ``Fraction`` sees it.  An index
is a number with an integral value: 4.0 is 4, and bools, strings and 1.5 are
refused.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

#: the most characters, and the largest decimal exponent, of a number that is
#: read: CPython's own limit for int <-> str conversion
MAX_DIGITS = 4300


def to_scalar(value) -> Scalar:
    """Coerce a number (or a ``"p/q"`` string) to a Scalar: a Fraction or float stays as it is."""
    return value if isinstance(value, (Fraction, float)) else scalar_from_json(value)


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def scalar_to_json(value: Scalar):
    """Exact rationals serialize as "p/q" strings, floats as JSON numbers."""
    if is_exact(value):
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return float(value)


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refused before the conversion where its digits would be unbounded."""
    _, e, exponent = text.lower().partition("e")
    try:
        exponent = abs(int(exponent)) if e else 0
    except ValueError:
        exponent = 0  # not a decimal exponent: Fraction refuses the text
    if len(text) > MAX_DIGITS or exponent > MAX_DIGITS:
        raise ValueError(f"numbers are read to {MAX_DIGITS} characters and decimal exponents to ±{MAX_DIGITS}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def scalar_from_json(value) -> Scalar:
    """A JSON number as a Scalar: exact, except that a finite float stays a float."""
    if isinstance(value, str):
        return _fraction(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r}")
        return value
    raise TypeError(f"cannot parse scalar from {value!r}")


def rational_from_json(value) -> Fraction:
    """The exact value of a JSON number; a float is read as the decimal it prints as."""
    x = scalar_from_json(value)
    return _fraction(repr(x)) if isinstance(x, float) else x


def index_from_json(value) -> int:
    """A dimension, degree, index or exponent: a JSON number with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"dimensions, degrees, indices and exponents must be integers, not {value!r}")
