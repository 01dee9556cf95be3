"""The one scalar, :class:`fractions.Fraction`, and the one reader for every number and index.

Every coefficient, matrix entry, pairing and curvature value of the library is
a ``Fraction``, kept in lowest terms with a positive denominator, so every
test that needs no square root (ellipticity, orthogonality, degree², equality
of planes) is decided exactly and reproducibly.  Values a square root away,
such as κ, the degree and the coframes built from them, are floats.

A number becomes a ``Fraction`` by one of two rules, because it comes in one
of two forms:

* **JSON input** (:func:`rational_from_json`) is decimal text, so a number is
  read as the decimal it prints as: ``0.1`` is 1/10.  A number is an int that
  is not a bool, a ``"p/q"`` or decimal string, or a finite float.  A text of
  more than :data:`MAX_DIGITS` characters, or a decimal exponent beyond
  ±:data:`MAX_DIGITS`, is refused before ``Fraction`` sees it.
* **A library caller's Python float** (:func:`to_scalar`) is a binary
  fraction, so it becomes its exact binary value, ``Fraction(x)``: ``0.1`` is
  3602879701896397/36028797018963968.  A non-finite float is refused.

An index is a number with an integral value: 4.0 is 4, and bools, strings and
1.5 are refused.  The readers of JSON objects and arrays check each value's
shape with :func:`json_of_shape`, whose errors name the shape expected or the
missing key.  :func:`scalar_to_json` writes a ``Fraction`` as ``"p/q"`` and
refuses one whose numerator or denominator has more than :data:`MAX_DIGITS`
digits, the most that CPython converts to text.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: the most characters, and the largest decimal exponent, of a number that is
#: read, and the most digits of a numerator or denominator that is written:
#: CPython's own limit for int <-> str conversion
MAX_DIGITS = 4300

_TOO_LONG = 10 ** MAX_DIGITS

#: the one default allowance of a float check: a reconstruction residual over the largest coefficient (``--tol``)
DEFAULT_TOL = 1e-9


def to_scalar(value) -> Fraction:
    """A number or a ``"p/q"`` string as a Fraction; a float is its exact binary value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    return rational_from_json(value)  # which refuses a non-finite float


def scalar_to_json(value: Fraction) -> str:
    """``"p/q"``; a numerator or denominator past :data:`MAX_DIGITS` digits is refused."""
    if abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
        raise ValueError(f"an exact value with more than {MAX_DIGITS} digits in its numerator or denominator "
                         "cannot be written")
    return f"{value.numerator}/{value.denominator}"


def sqrt_of(q: Fraction) -> float:
    """√q as the float nearest it, also where ``float(q)`` would overflow or underflow.

    For x = q·4ˢ between 2¹¹³ and 2¹¹⁶, r = ⌊√x⌋ has 57 or 58 bits and √q lies
    in [r, r + 1)·2⁻ˢ.  When √x is not r, r's last bit is set, so r and √x
    round alike to the 53 bits of a float, or to fewer for a subnormal one,
    and ``float(r / 2**s)`` rounds once, correctly.  A root beyond the float
    range raises OverflowError.
    """
    n, d = q.numerator, q.denominator
    if n <= 0:
        return math.sqrt(n)  # 0.0, or the ValueError of a negative value
    k = (n.bit_length() - d.bit_length()) // 2
    x = q * Fraction(4) ** (57 - k)
    r = math.isqrt(x.numerator // x.denominator)
    if r * r != x:
        r |= 1
    try:
        return float(r / Fraction(2) ** (57 - k))
    except OverflowError:
        raise OverflowError(f"a square root near 2**{k} is beyond the float range") from None


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


def rational_from_json(value) -> Fraction:
    """The exact value of a JSON number; a float is read as the decimal it prints as."""
    if isinstance(value, str):
        return _fraction(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r}")
        return _fraction(repr(value))
    raise TypeError(f"cannot parse scalar from {value!r}")


def json_of_shape(value, shape: type, what: str, *keys: str):
    """``value``, once it is a JSON object (``shape`` dict) holding ``keys``, or a JSON array (``shape`` list).

    Otherwise a TypeError names ``what`` and the shape expected, or a ValueError the missing key.
    """
    if not isinstance(value, shape):
        got = "null" if value is None else "object" if isinstance(value, dict) else type(value).__name__
        raise TypeError(f"{what} must be a JSON {'object' if shape is dict else 'array'}, not {got}")
    for key in keys:
        if key not in value:
            raise ValueError(f"{what} has no key {key!r}")
    return value


def index_from_json(value) -> int:
    """A dimension, degree, index or exponent: a JSON number with an integral value."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"dimensions, degrees, indices and exponents must be integers, not {value!r}")
