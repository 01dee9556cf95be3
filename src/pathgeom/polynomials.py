"""Sparse multivariate polynomials and rational functions over ℚ.

Exact derivative oracle for the hypersurface pipeline: polynomials carry
Fraction coefficients keyed by exponent tuples, read each Taylor coefficient
∂ᵉp/e!, a partial derivative among them, off the terms (:meth:`Poly.taylor`)
and evaluate exactly at rational points.  :class:`RatFunc` extends the same
protocol (arithmetic, ``diff``, call) to quotients, which is what makes
rational parametrizations like the Cayley sphere chart computable without
floating point.  Quotients are not reduced to lowest terms; evaluation only
requires a nonvanishing denominator at the query point.

Evaluation runs in integers, in one way.  A :class:`RationalPoint` writes
the point over one common denominator and computes each power of a
coordinate at most once; :func:`over_one_denominator` writes polynomials as
:class:`IntPoly` over one shared denominator, so that their values at a point
are plain ints times one shared factor, which cancels from their ratios.  A
polynomial's value is its ratio to the constant 1, a quotient's the ratio of
its numerator to its denominator, and ``hypersurface.CompiledMap`` builds on
the same to evaluate exact jets of many functions at many points.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm, prod
from operator import ge, sub
from typing import Dict, List, Mapping, Sequence, Tuple

from .scalars import index_from_json, rational_from_json, scalar_to_json, to_scalar

Exponent = Tuple[int, ...]

#: the largest exponent :meth:`Poly.from_json` reads; x^(10^30) at 3/2 would
#: be a number of 10^29 digits
MAX_EXPONENT = 100


class Poly:
    """Polynomial in ``nvars`` variables with Fraction coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Fraction] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: Dict[Exponent, Fraction] = {}
        for exp, c in (terms or {}).items():
            ints = tuple(int(e) for e in exp)
            if ints != tuple(exp):
                raise ValueError(f"exponents must be integers, not {tuple(exp)}")
            exp = ints
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp}")
            c = to_scalar(c)
            if c != 0:
                clean[exp] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, value, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: to_scalar(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "Poly":
        """The variable x_{index}, 0-based."""
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exp: Fraction(1)})

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return Poly.constant(other, self.nvars)

    # a RatFunc operand hands the operation to RatFunc's reflected method
    def __add__(self, other) -> "Poly":
        if isinstance(other, RatFunc):
            return NotImplemented
        other = self._coerce(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, Fraction(0)) + c
        return Poly(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if isinstance(other, RatFunc):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        if isinstance(other, RatFunc):
            return NotImplemented
        other = self._coerce(other)
        acc: Dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.constant(1, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ---------------------------------------------------------

    def taylor(self, e: Sequence[int]) -> "Poly":
        """The Taylor coefficient ∂ᵉp/e!: each term c·xᵃ with a ≥ e gives c·∏ C(aᵢ, eᵢ)·x^(a−e)."""
        e = tuple(e)
        if len(e) != self.nvars or any(k < 0 for k in e):
            raise ValueError(f"bad exponent tuple {e}")
        return Poly(self.nvars, {tuple(map(sub, a, e)): c * prod(map(comb, a, e))
                                 for a, c in self.terms.items() if all(map(ge, a, e))})

    def diff(self, var: int) -> "Poly":
        """Formal partial derivative with respect to x_{var} (0-based): the Taylor coefficient of xᵥₐᵣ."""
        if not 0 <= var < self.nvars:
            raise ValueError("variable index out of range")
        return self.taylor([int(i == var) for i in range(self.nvars)])

    def __call__(self, point: Sequence) -> Fraction:
        return RatFunc(self)(point)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Poly.constant(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return "Poly(0)"
        def mono(e):
            parts = [f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(e) if k]
            return "*".join(parts) or "1"
        return "Poly(" + " + ".join(f"{c}*{mono(e)}" for e, c in sorted(self.terms.items())) + ")"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> list:
        return [{"exp": list(e), "c": scalar_to_json(c)} for e, c in sorted(self.terms.items())]

    @classmethod
    def from_json(cls, data, nvars: int) -> "Poly":
        """The polynomial of a list of terms {"exp", "c"}; terms of one exponent are summed."""
        terms: Dict[Exponent, Fraction] = {}
        for t in data:
            exp = tuple(map(index_from_json, t["exp"]))
            terms[exp] = terms.get(exp, 0) + rational_from_json(t["c"])
        p = cls(nvars, terms)
        for exp in p.terms:
            if any(e > MAX_EXPONENT for e in exp):
                raise ValueError(f"exponents above {MAX_EXPONENT} are not read, got {exp}")
        return p


class RatFunc:
    """Quotient of two polynomials; exact arithmetic, quotient-rule derivative."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.constant(1, num.nvars)
        if num.nvars != den.nvars:
            raise ValueError("variable count mismatch")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator polynomial")
        if num.is_zero:
            den = Poly.constant(1, num.nvars)
        self.num = num
        self.den = den

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, Poly):
            return RatFunc(other)
        return RatFunc(Poly.constant(other, self.nvars))

    def __add__(self, other) -> "RatFunc":
        o = self._coerce(other)
        # shared denominators are the common case in pullback pipelines;
        # skipping the cross-multiplication keeps degrees from exploding
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RatFunc":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RatFunc":
        o = self._coerce(other)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def diff(self, var: int) -> "RatFunc":
        return RatFunc(self.num.diff(var) * self.den - self.num * self.den.diff(var), self.den * self.den)

    def __call__(self, point: Sequence) -> Fraction:
        """num/den at a rational point: over one denominator, the shared factor cancels from their ratio."""
        pt = RationalPoint(point, self.nvars)
        num, den = (p.numerator(pt) for p in over_one_denominator((self.num, self.den)))
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at the query point")
        return Fraction(num, den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, (RatFunc, Poly, int, Fraction)) and not isinstance(other, bool):
            o = self._coerce(other)
            return (self.num * o.den - o.num * self.den).is_zero
        return NotImplemented

    def __hash__(self):
        raise TypeError("RatFunc is unhashable (no canonical form)")

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"


# -- integer evaluation ------------------------------------------------------


class RationalPoint:
    """A rational point xᵢ = aᵢ/d over one common denominator d.

    Powers aᵢᵏ and dᵏ are computed on first use and cached, so each distinct
    power is computed once however many polynomials are evaluated here.
    """

    __slots__ = ("coords", "nums", "den", "_powers", "_den_powers")

    def __init__(self, point: Sequence, nvars: int):
        if len(point) != nvars:
            raise ValueError("point has wrong dimension")
        coords = self.coords = tuple(to_scalar(x) for x in point)
        den = lcm(*(x.denominator for x in coords))
        self.nums = tuple(x.numerator * (den // x.denominator) for x in coords)
        self.den = den
        self._powers: List[Dict[int, int]] = [{} for _ in coords]
        self._den_powers: Dict[int, int] = {}

    def power(self, var: int, k: int) -> int:
        """aᵥₐᵣᵏ."""
        cache = self._powers[var]
        v = cache.get(k)
        if v is None:
            v = cache[k] = self.nums[var] ** k
        return v

    def den_power(self, k: int) -> int:
        """dᵏ."""
        v = self._den_powers.get(k)
        if v is None:
            v = self._den_powers[k] = self.den**k
        return v


class IntPoly:
    """A :class:`Poly` as (Σ nₑ·xᵉ)/scale with integer nₑ, for evaluation.

    At x = a/d the value is (Σ nₑ·aᵉ·d^(D−|e|)) / (scale·d^D), for a common
    multiple ``scale`` of the coefficient denominators and a ``degree`` D at
    least the total degree, so the sum is a Python int.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, p: Poly, scale: int, degree: int):
        self.degree = degree
        self.terms = tuple(
            (c.numerator * (scale // c.denominator), degree - sum(e), tuple((i, k) for i, k in enumerate(e) if k))
            for e, c in p.terms.items()
        )

    def numerator(self, pt: RationalPoint) -> int:
        """The value at the point times scale·d^D."""
        total = 0
        for c, dk, powers in self.terms:
            v = c * pt.den_power(dk)
            for i, k in powers:
                v *= pt.power(i, k)
            total += v
        return total


def over_one_denominator(polys: Sequence[Poly]) -> List[IntPoly]:
    """The polynomials as :class:`IntPoly` of one scale and one degree.

    At any point their :meth:`IntPoly.numerator` values are then the values
    times one shared positive integer, which cancels from any ratio of two
    expressions of equal degree in them.
    """
    scale = lcm(*(c.denominator for p in polys for c in p.terms.values()))
    degree = max((p.total_degree() for p in polys), default=0)
    return [IntPoly(p, scale, degree) for p in polys]
