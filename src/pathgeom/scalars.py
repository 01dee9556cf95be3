"""Scalar backends: exact rationals and binary floats behind one coercion layer.

Two representations coexist: :class:`fractions.Fraction` for the exact path
and ``float`` for the numerical path.  ``Fraction`` keeps values in lowest
terms with positive denominator, which makes equality of exact results
bit-for-bit reproducible.  Mixing the two representations in an arithmetic
operation promotes the result to ``float``; the promotion is visible in the
result's type (and in ``is_exact`` of any container built from it).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]


def to_scalar(value) -> Scalar:
    """Coerce a number (or a ``"p/q"`` string) to a Scalar.

    ints and Fractions map to exact rationals, floats stay floating.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def is_exact(value: Scalar) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def scalar_to_json(value: Scalar):
    """Exact rationals serialize as "p/q" strings, floats as JSON numbers."""
    if is_exact(value):
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return float(value)


def scalar_from_json(value) -> Scalar:
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number {value!r}")
        return value
    raise TypeError(f"cannot parse scalar from {value!r}")
