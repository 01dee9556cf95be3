"""Parametrized hypersurfaces of ℝ⁴ ≅ ℂ² and the structures they inherit.

A map u : ℝ³ → ℝ⁴ is one :class:`ParamMap` with four rational-function
components (a polynomial is stored over the denominator 1).  With a rank-3
Jacobian it pulls the canonical spanning pair (ω₀, φ₀) back to two
2-forms β₁, β₂ on parameter space, encoded as β = b·⋆dx with
⋆dx = (dx²∧dx³, dx³∧dx¹, dx¹∧dx²).  Everything downstream is cross-product
arithmetic on the coefficient vectors b₁, b₂:

* adapted coframe  η₁ = (b₁×e)·dx, η₂ = e·dx, η₃ = (b₂×e)·dx with
  e = (b₁×b₂)/|b₁×b₂|, so that β₁ = η₂∧η₁ and β₂ = η₂∧η₃;
* line fields      P₁ ∥ b₁, P₂ ∥ b₂ (the kernels of {η₁,η₂} and {η₂,η₃});
* contact test     μ = (b₁×b₂)·dx, nondegenerate iff μ∧dμ ≠ 0, computed
  exactly as (b₁×b₂)·curl(b₁×b₂);
* CR structure     D = T ∩ J₀T = du(ker μ) for T = im du, and I, the
  restriction of J₀, solved in ℝ⁴ on D's own basis.

μ is the one covector of a point: μ = −n·J₀du for T's normal covector n, so
μ ≠ 0 exactly where du has rank 3, and μ is the immersion test, the contact
form and the kernel behind D.  The line fields and the contact predicate are
exact rational computations; only the coframe normalization needs floating
point.  The compatibility theorem, proved in :func:`compatibility_check`:
wherever du has rank 3, J₀ maps the P₁ line onto the P₂ line, so a point
record prints ``independent`` and ``compatible`` without computing them.

All of it is pointwise: b₁, b₂ are the 2×2 minors of du, the contact test
needs their first derivatives and so the second derivatives of u, and the CR
structure is linear algebra on du.  :class:`CompiledMap` is the one evaluator
of exact jets.  When it is built, it takes the Taylor coefficients ∂ᵉp/e! of
each distinct numerator and denominator from :meth:`Poly.taylor` and writes
them over one shared denominator with ``over_one_denominator``, which also
evaluates a Poly or RatFunc; at a point, N = f·D gives f's Taylor
coefficients by one integer recurrence, order by order.  A :class:`ParamMap`
keeps its jets to second order from when it is built, which give Ĵ = Δ·du
and ∂ₖĴ up to one positive factor each, and every test runs on Python ints:
each is homogeneous in du and in ∂du, so the factors do not change its
verdict.  ``Fraction``s are built only for the printed fields.
:func:`pullback_splitting` keeps the formal pullback in rational functions,
and a :class:`PolyForm3` keeps the first-order jets of its three coefficients
for exact values and gradients.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from operator import add, ge, sub
from typing import Dict, Sequence, Tuple, Union

from .polynomials import Poly, RatFunc, RationalPoint, over_one_denominator
from .scalars import MAX_DIGITS, scalar_to_json as _rational, to_scalar

Coefficient = Union[Poly, RatFunc]
NVARS = 3
#: twice the digits of a written value: the most digits of a polynomial's value at a point, and of that value
#: over the lcm of the denominators.  An entry of ``CompiledMap.at`` of order |e| is a sum of products of |e|+1
#: such values: about 12 750 digits at the 4250-digit point (1…1, 2…2, 3…3) of the sphere chart.
MAX_JET_DIGITS = 2 * MAX_DIGITS
_MAX_JET_BITS = math.ceil(MAX_JET_DIGITS * math.log2(10))


def _cross(a: Sequence, b: Sequence):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Sequence, b: Sequence):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


class ParamMap:
    """Hypersurface parametrization u : ℝ³ → ℝ⁴ with four rational-function components.

    A :class:`Poly` component is stored as ``RatFunc(p)``, and ``jets`` is the
    :class:`CompiledMap` of the components to second order.  ``to_json``
    writes the polynomial form when every denominator is the constant 1 and
    the ``"type": "rational"`` form otherwise; ``from_json`` reads both.
    """

    __slots__ = ("components", "jets")

    def __init__(self, components: Sequence[Coefficient]):
        comps = tuple(RatFunc(c) if isinstance(c, Poly) else c for c in components)
        if len(comps) != 4 or any(not isinstance(c, RatFunc) for c in comps):
            raise ValueError("ParamMap needs exactly four polynomial or rational-function components")
        if any(c.nvars != NVARS for c in comps):
            raise ValueError("components must be functions of three variables")
        self.components = comps
        self.jets = CompiledMap(comps)

    def jacobian(self):
        """4×3 matrix of coefficient functions ∂uⁱ/∂xʲ."""
        return [[comp.diff(j) for j in range(NVARS)] for comp in self.components]

    def jacobian_at(self, point: Sequence) -> list:
        """Exact Jacobian at a rational point; raises on rank drop."""
        _, jac, scale, _, _, _ = _immersion_jets(self, point)
        return [[Fraction(x, scale) for x in row] for row in jac]

    def to_json(self) -> dict:
        if all(c.den == 1 for c in self.components):
            return {"vars": ["x1", "x2", "x3"], "components": [c.num.to_json() for c in self.components]}
        return {
            "vars": ["x1", "x2", "x3"],
            "type": "rational",
            "components": [{"num": c.num.to_json(), "den": c.den.to_json()} for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "ParamMap":
        if not isinstance(data, dict):
            raise TypeError(f"map must be a JSON object, not {type(data).__name__}")
        if data.get("type") == "rational":
            return cls(tuple(
                RatFunc(Poly.from_json(c["num"], NVARS), Poly.from_json(c["den"], NVARS)) for c in data["components"]
            ))
        return cls(tuple(Poly.from_json(c, NVARS) for c in data["components"]))


# ``perfbench/layers.py`` wraps ``_ParamMap.jacobian_at`` by this name; the
# line goes when the tracer reads the library's own stage collector (ROADMAP item 1)
_ParamMap = ParamMap


def _star(coeffs, zero) -> tuple:
    """(b₂₃, −b₁₃, b₁₂) from coefficients keyed (i,j) on dxⁱ∧dxʲ, in either order."""

    def get(i, j):
        if (i, j) in coeffs:
            return coeffs[(i, j)]
        if (j, i) in coeffs:
            return -coeffs[(j, i)]
        return zero

    return get(2, 3), -get(1, 3), get(1, 2)


class PolyForm3:
    """2-form on ℝ³ with function coefficients, stored as β = b·⋆dx, and the first-order ``jets`` of b."""

    __slots__ = ("b", "jets")

    def __init__(self, b: Tuple[Coefficient, Coefficient, Coefficient]):
        self.b = b
        self.jets = CompiledMap(b, order=1)


def star_coefficients(beta) -> tuple:
    """Coefficient vector b of β = b·⋆dx.

    Accepts a :class:`PolyForm3` or a mapping from index pairs (i,j) to
    coefficients, numbers or coefficient functions; a number becomes a
    constant :class:`Poly`, so the three entries are always functions.
    """
    if isinstance(beta, PolyForm3):
        return beta.b
    coeffs = {k: v if isinstance(v, (Poly, RatFunc)) else Poly.constant(v, NVARS) for k, v in dict(beta).items()}
    return _star(coeffs, Poly.zero(NVARS))


def pullback_splitting(u: ParamMap) -> Tuple[PolyForm3, PolyForm3]:
    """β₁ = u*ω₀, β₂ = u*φ₀ by formal differentiation (exact)."""
    jac = u.jacobian()
    b = _minors(jac, jac)
    return PolyForm3(b[:3]), PolyForm3(b[3:])


def _minors(a, c) -> tuple:
    """b₁ + b₂ (six entries) from the 2×2 minors a[i₁][j₁]·c[i₂][j₂] − a[i₁][j₂]·c[i₂][j₁].

    With a = c = du these are u*ω₀ = du¹∧du³ − du²∧du⁴ and
    u*φ₀ = du¹∧du⁴ + du²∧du³ in ⋆dx coordinates, where the ⋆ of rows x∧y is
    x×y: b₁ = a₀×c₂ − a₁×c₃ and b₂ = a₀×c₃ + a₁×c₂.  The product rule gives
    ∂ₖb = _minors(∂ₖdu, du) + _minors(du, ∂ₖdu).
    """
    (a00, a01, a02), (a10, a11, a12) = a[0], a[1]
    (c20, c21, c22), (c30, c31, c32) = c[2], c[3]
    return (
        a01 * c22 - a02 * c21 - (a11 * c32 - a12 * c31),
        a02 * c20 - a00 * c22 - (a12 * c30 - a10 * c32),
        a00 * c21 - a01 * c20 - (a10 * c31 - a11 * c30),
        a01 * c32 - a02 * c31 + (a11 * c22 - a12 * c21),
        a02 * c30 - a00 * c32 + (a12 * c20 - a10 * c22),
        a00 * c31 - a01 * c30 + (a10 * c21 - a11 * c20),
    )


def _num_den(f: Coefficient) -> Tuple[Poly, Poly]:
    """f's numerator and denominator, or (c, 1) when f = c·den/den; a Poly is over 1.

    Such a component has a zero formal derivative over the denominator 1, so
    the zeros of den are not poles of the map.
    """
    if isinstance(f, Poly):
        return f, Poly.constant(1, NVARS)
    (e, c0), *_ = f.den.terms.items()
    c = f.num.terms.get(e, 0) / c0
    if f.num.terms == {k: c * v for k, v in f.den.terms.items()}:
        return Poly.constant(c, NVARS), Poly.constant(1, NVARS)
    return f.num, f.den


class CompiledMap:
    """The Taylor series of rational functions of three variables, built once for many points.

    Each of the Polys and RatFuncs Nᵢ/Dᵢ keeps the Taylor coefficients
    ∂ᵉp/e! up to ``order`` (2 for a map, 1 for a pair) of Nᵢ and Dᵢ, e in graded
    order (1; h₁, h₂, h₃; then h₁², h₁h₂, … h₃²); identical polynomials are
    stored once, and all of them over one shared denominator, which cancels in
    every quotient taken at a point.  No product of functions is multiplied out.
    """

    def __init__(self, functions: Sequence[Coefficient], order: int = 2):
        exps = [tuple(map(c.count, range(NVARS)))
                for n in range(order + 1) for c in combinations_with_replacement(range(NVARS), n)]
        index = {e: m for m, e in enumerate(exps)}
        # each distinct polynomial gets its Taylor coefficients once, and each distinct one of those a slot
        slots: Dict[Poly, int] = {}
        jet = functools.cache(lambda p: tuple(slots.setdefault(p.taylor(e), len(slots)) for e in exps))
        self._order = order
        self._functions = [tuple(jet(p) for p in _num_den(f)) for f in functions]
        self._polys = over_one_denominator(list(slots))
        # nₑ is taken times d₀^|e| and d_f times d₀^(|f|−1); the recurrence's terms as index triples
        # (e, f, e − f), 0 < f ≤ e, in graded order of e, so that q′ₑ₋f is complete when it is read
        self._orders = [sum(e) for e in exps]
        self._weights = [max(sum(f) - 1, 0) for f in exps]
        self._terms = [(index[e], index[f], index[tuple(map(sub, e, f))])
                       for e in exps for f in exps[1:] if all(map(ge, e, f))]
        # the index of hⱼhₖ, for every j and k
        self._hessian = [[index.get(tuple(map(add, a, b))) for a in exps[1:1 + NVARS]] for b in exps[1:1 + NVARS]]
        # at a point a/d every term is c·dᵏ·∏aᵢ^eᵢ with k + Σeᵢ = D, so a value has fewer
        # bits than the largest c and the term count together, plus D times those of max(d, |aᵢ|)
        self._degree = self._polys[0].degree
        self._size = (max((c.bit_length() for p in self._polys for c, _, _ in p.terms), default=0)
                      + max(len(p.terms) for p in self._polys).bit_length())

    def _series(self, pt: RationalPoint) -> list:
        """Per function (d₀, q′) in ints, where f's coefficient of hᵉ is q′ₑ/d₀^(|e|+1).

        N = f·D gives q′ₑ = nₑ·d₀^|e| − Σ_{0<f≤e} d_f·d₀^(|f|−1)·q′ₑ₋f.  Raises where a polynomial's value
        at the point, or that value over the lcm of the |d₀|, could have more than :data:`MAX_JET_DIGITS`
        digits; q′ₑ and an entry of :meth:`at` are sums of products of |e|+1 such values, and can be longer.
        """
        bits = self._size + self._degree * max(x.bit_length() for x in (pt.den, *pt.nums))
        if bits <= _MAX_JET_BITS:
            vals = [p.numerator(pt) for p in self._polys]
            d0s = [vals[den[0]] for _, den in self._functions]
            if not all(d0s):
                raise ZeroDivisionError("denominator vanishes at the query point")
            # an output of `at` is q′ₑ·(L/|d₀|)^(|e|+1), L the lcm of the |d₀|: a sum of products of
            # |e|+1 values, each over L, and L/|d₀| is less than the product of the other distinct |d₀|
            sizes = [x.bit_length() for x in set(map(abs, d0s))]
            bits = max(map(int.bit_length, vals)) + sum(sizes) - min(sizes)
        if bits > _MAX_JET_BITS:
            raise ValueError(f"exact jets at {_point_text(pt.coords)} would need integers "
                             f"of more than {MAX_JET_DIGITS} digits")
        series = []
        for (num, den), d0 in zip(self._functions, d0s):
            powers = [d0**k for k in range(self._order + 1)]
            q = [vals[i] * powers[k] for i, k in zip(num, self._orders)]
            d = [vals[i] * powers[w] for i, w in zip(den, self._weights)]
            for e, f, g in self._terms:
                q[e] -= d[f] * q[g]
            series.append((d0, q))
        return series

    def at(self, pt: RationalPoint) -> Tuple[list, int, list]:
        """(Ĵ, Δ, ∂Ĵ) of a map compiled to order 2, in ints.

        du = Ĵ/Δ with Δ > 0, and ∂Ĵ[k] = Δ′·∂ₖdu for one Δ′ > 0; Δ and Δ′ are
        the lcm of the d₀² and of the |d₀|³ over the components, and ∂ⱼ∂ₖf is
        (1 + δⱼₖ) times the coefficient of hⱼhₖ.
        """
        series = self._series(pt)
        scale = math.lcm(*(d0 * d0 for d0, _ in series))
        jac = [[x * (scale // (d0 * d0)) for x in q[1:1 + NVARS]] for d0, q in series]
        g = math.gcd(scale, *(x for row in jac for x in row))
        dscale = math.lcm(*(abs(d0) ** 3 for d0, _ in series))
        rows = [(q, dscale // d0**3) for d0, q in series]
        djac = [[[q[s] * t << (j == k) for j, s in enumerate(hk)] for q, t in rows]
                for k, hk in enumerate(self._hessian)]
        return [[x // g for x in row] for row in jac], scale // g, djac

    def gradients(self, pt: RationalPoint) -> Tuple[tuple, list]:
        """The exact value of each function at the point, and its gradient."""
        series = self._series(pt)
        return (tuple(Fraction(q[0], d0) for d0, q in series),
                [tuple(Fraction(x, d0 * d0) for x in q[1:1 + NVARS]) for d0, q in series])


def _point_text(coords: Sequence[Fraction]) -> str:
    """A point in an error message, written as a record's ``point`` field writes it."""
    return "(" + ", ".join(map(_rational, coords)) + ")"


def _immersion_jets(u: ParamMap, point: Sequence) -> tuple:
    """(coords, Ĵ, Δ, ∂Ĵ, b̂, μ̂) of ``u.jets`` at a rational point; raises where du has rank < 3.

    b̂ = _minors(Ĵ, Ĵ) = Δ²·(b₁ + b₂) and μ̂ = b̂₁×b̂₂.  μ = −n·J₀du for T's
    normal covector n, n·v = det[v | du], so μ = 0 where du has rank < 3 and
    n = 0.  Where du has rank 3, μ = 0 would put J₀T in ker n = T, and no
    3-space is J₀-invariant: μ ≠ 0 is the immersion test.
    """
    pt = RationalPoint(point, NVARS)
    jac, scale, djac = u.jets.at(pt)
    b = _minors(jac, jac)
    mu = _cross(b[:3], b[3:])
    if not any(mu):
        raise ValueError(f"map is not an immersion at {_point_text(pt.coords)}: Jacobian rank < 3")
    return pt.coords, jac, scale, djac, b, mu


def _beta_jets(beta1: PolyForm3, beta2: PolyForm3, point: Sequence, what: str) -> tuple:
    """(coords, b₁ + b₂, the six gradients, b₁×b₂) at a rational point; raises "<what> are dependent at …"."""
    pt = RationalPoint(point, NVARS)
    (b1, g1), (b2, g2) = beta1.jets.gradients(pt), beta2.jets.gradients(pt)
    c = _cross(b1, b2)
    if not any(c):
        raise ValueError(f"{what} are dependent at {_point_text(pt.coords)}")
    return pt.coords, b1 + b2, g1 + g2, c


def _b_gradients(jac: list, djac: list) -> list:
    """∇b₁ + ∇b₂ from du and ∂ₖdu, as scaled as they are: the gradient of each of the six components."""
    db = [[x + y for x, y in zip(_minors(dk, jac), _minors(jac, dk))] for dk in djac]
    return [tuple(dbk[c] for dbk in db) for c in range(6)]


class AdaptedCoframe:
    """Pointwise coframe (η₁, η₂, η₃) with β₁ = η₂∧η₁ and β₂ = η₂∧η₃."""

    __slots__ = ("point", "eta1", "eta2", "eta3")

    def __init__(self, point: Tuple[Fraction, ...], eta1: Tuple[float, float, float],
                 eta2: Tuple[float, float, float], eta3: Tuple[float, float, float]):
        self.point, self.eta1, self.eta2, self.eta3 = point, eta1, eta2, eta3

    def volume(self) -> float:
        """η₁∧η₂∧η₃ coefficient: the triple product of the three covectors, in floats."""
        return _dot(self.eta1, _cross(self.eta2, self.eta3))


def _floats_near_one(xs, den: int) -> Tuple[tuple, int]:
    """(each exact x/den times 2ᵏ, rounded once to a float; k), with 2ᵏ·max|x/den| in (1/2, 2)."""
    fracs = [(x.numerator, x.denominator * den) for x in xs]
    k = -max(abs(n).bit_length() - d.bit_length() for n, d in fracs if n)
    if k >= 0:
        return tuple((n << k) / d for n, d in fracs), k
    return tuple(n / (d << -k) for n, d in fracs), k


def _coframe(coords: Tuple[Fraction, ...], b: Sequence, c: Sequence, den: int, tol: float) -> AdaptedCoframe:
    """The coframe of b₁ + b₂ = b/den, for exact b, c = b[:3]×b[3:] ≠ 0 and an integer den > 0."""
    # b₁, b₂ become floats times 2ᵏ and b₁×b₂ times its own power of two, each
    # near 1: far out on a chart the b's shrink and b₁×b₂ would underflow.  A
    # power of two scales a float exactly, so e, η and the residual are those
    # of the unscaled values wherever these are finite; the volume test
    # compares two quantities that scale alike.
    bs, k = _floats_near_one(b, den)
    b1s, b2s = bs[:3], bs[3:]
    cs, _ = _floats_near_one(c, den * den)
    norm = math.sqrt(_dot(cs, cs))
    e = tuple(x / norm for x in cs)
    scaled = AdaptedCoframe(coords, _cross(b1s, e), e, _cross(b2s, e))
    # scaling back is exact unless a value leaves the normal floats: one
    # beyond them raises OverflowError, one below them keeps too few bits
    try:
        res = math.ldexp(coframe_residual(scaled, b1s, b2s), -k)
        size = math.ldexp(max(abs(x) for x in bs), -k)
        eta1, eta3 = (tuple(math.ldexp(x, -k) for x in eta) for eta in (scaled.eta1, scaled.eta3))
    except OverflowError:
        raise ValueError(f"adapted coframe overflows at {_point_text(coords)}") from None
    if res > tol * max(1.0, size):
        raise ValueError(f"adapted coframe reconstruction residual {res:.3e}")
    # the volume is −|b₁×b₂|, so compare it with |b₁|·|b₂|: the b's shrink
    # far out on a chart while the frame stays as far from degenerate
    if abs(scaled.volume()) <= tol * math.hypot(*b1s) * math.hypot(*b2s):
        raise ValueError("adapted coframe is degenerate")
    tiny = sys.float_info.min
    if any(abs(y) < tiny <= abs(x) for x, y in zip(scaled.eta1 + scaled.eta3, eta1 + eta3)):
        raise ValueError(f"adapted coframe underflows at {_point_text(coords)}")
    return AdaptedCoframe(coords, eta1, e, eta3)


def adapted_coframe_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence, tol: float = 1e-10) -> AdaptedCoframe:
    """Cross-product coframe at a point where β₁, β₂ are independent."""
    coords, b, _, c = _beta_jets(beta1, beta2, point, "beta forms")
    return _coframe(coords, b, c, 1, tol)


def coframe_residual(frame: AdaptedCoframe, b1: Sequence, b2: Sequence) -> float:
    """max |η₂∧η₁ − β₁|, |η₂∧η₃ − β₂| componentwise, in ⋆dx coordinates."""
    rec1 = _cross(frame.eta2, frame.eta1)
    rec2 = _cross(frame.eta2, frame.eta3)
    return max(
        max(abs(r - float(x)) for r, x in zip(rec1, b1)),
        max(abs(r - float(x)) for r, x in zip(rec2, b2)),
    )


class PathGeometrySample:
    """The two line-field directions at a point, plus the contact flag."""

    __slots__ = ("point", "p1", "p2", "contact")

    def __init__(self, point: Tuple[Fraction, ...], p1: Tuple[Fraction, Fraction, Fraction],
                 p2: Tuple[Fraction, Fraction, Fraction], contact: bool):
        self.point, self.p1, self.p2, self.contact = point, p1, p2, contact


def _contact_value(b: Sequence, grads: Sequence, m: Sequence) -> Fraction:
    """m·curl(m) for m = b₁×b₂, from b = b₁ + b₂, the six gradients and m."""
    v1, v2, g1, g2 = b[:3], b[3:], grads[:3], grads[3:]
    dm = []
    for i in range(NVARS):
        d1 = tuple(g[i] for g in g1)
        d2 = tuple(g[i] for g in g2)
        a = _cross(d1, v2)
        b = _cross(v1, d2)
        dm.append(tuple(x + y for x, y in zip(a, b)))
    curl = (dm[1][2] - dm[2][1], dm[2][0] - dm[0][2], dm[0][1] - dm[1][0])
    return _dot(m, curl)


def contact_value_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence) -> Fraction:
    """(μ∧dμ)/(dx¹∧dx²∧dx³) at the point, μ = (b₁×b₂)·dx; exact.

    Built from values and first derivatives of b₁, b₂ at the point only:
    ∂ᵢ(b₁×b₂) = ∂ᵢb₁×b₂ + b₁×∂ᵢb₂, then m·curl(m).
    """
    _, b, grads, m = _beta_jets(beta1, beta2, point, "beta forms")
    return _contact_value(b, grads, m)


def is_nondegenerate_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence) -> bool:
    """Exact contact test: μ∧dμ ≠ 0 at the point, μ = (b₁×b₂)·dx.

    Invariant under rescaling β₁, β₂ by nonvanishing functions (the contact
    scalar picks up an even power of the factor).
    """
    return contact_value_at(beta1, beta2, point) != 0


def line_fields_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence) -> PathGeometrySample:
    """P₁ ∥ b₁(point), P₂ ∥ b₂(point); exact on rational inputs."""
    coords, b, grads, m = _beta_jets(beta1, beta2, point, "line fields")
    return PathGeometrySample(coords, b[:3], b[3:], _contact_value(b, grads, m) != 0)


class CRSample:
    """D = T ∩ J₀T with the restriction I of J₀ in the stored basis of D."""

    __slots__ = ("point", "d_basis", "param_basis", "i_matrix")

    def __init__(self, point: Tuple[Fraction, ...], d_basis: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]],
                 param_basis: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]],
                 i_matrix: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]):
        self.point, self.d_basis, self.param_basis, self.i_matrix = point, d_basis, param_basis, i_matrix


def _J0(v: Sequence[Fraction]) -> list:
    """J₀v = (−v₂, v₁, −v₄, v₃): the standard complex structure is a signed permutation."""
    return [-v[1], v[0], -v[3], v[2]]


def _cr_structure(jac: list, mu: tuple, scale: int) -> tuple:
    """(D's basis, I in it, q₁, q₂) where du = jac/scale has rank 3 and μ̂ = b̂₁×b̂₂ ≠ 0.

    D = T ∩ J₀T = du(ker μ): μ = −n·J₀du (see :func:`_immersion_jets`), so
    μ·q = 0 iff J₀(du·q) lies in ker n = T, iff du·q lies in J₀T.  Nothing
    here can fail.  D is a plane because ker μ is one and du is injective; D
    is J₀-invariant, and I = J₀|_D squares to −Id because J₀ does.
    """
    # for the first μ_p ≠ 0, q = μ_p·e_f − μ_f·e_p over the other two columns f
    # spans ker μ, and w = J₀(du·q) gives w₁, w₂: a basis of J₀D = D
    pivot = next(j for j in range(NVARS) if mu[j])
    mp = mu[pivot]
    qs = [[mp if k == f else -mu[f] if k == pivot else 0 for k in range(NVARS)] for f in range(NVARS) if f != pivot]
    vs = [[_dot(row, q) for row in jac] for q in qs]
    w1, w2 = ws = [_J0(v) for v in vs]
    # J₀w_k = −du·q_k = Σⱼ I_jk wⱼ, by Cramer's rule on the first rows a, b of
    # (w₁ w₂) with a nonzero minor, which exist since w₁, w₂ are independent
    a, b, det = next((a, b, m) for a, b in combinations(range(4), 2) if (m := w1[a] * w2[b] - w1[b] * w2[a]))
    columns = [(Fraction(w2[a] * v[b] - v[a] * w2[b], det), Fraction(v[a] * w1[b] - w1[a] * v[b], det)) for v in vs]
    return tuple(tuple(Fraction(x, mp * scale) for x in w) for w in ws), tuple(zip(*columns)), qs


def cr_structure_at(u: ParamMap, point: Sequence) -> CRSample:
    """Exact CR data of the parametrized hypersurface at a rational point."""
    coords, jac, scale, _, _, mu = _immersion_jets(u, point)
    d_basis, i_matrix, qs = _cr_structure(jac, mu, scale)
    # J₀W = −Ĵ·Q for W = (w₁ w₂) and Q = (q₁ q₂), and J₀W = W·I, so W = Ĵ·Q·I as
    # I² = −Id: D's vector wⱼ/(μ_p·Δ) is du·Σₖ qₖ·I_kj/μ_p
    mp = next(x for x in mu if x)
    param_basis = tuple(tuple((x * i0 + y * i1) / mp for x, y in zip(*qs)) for i0, i1 in zip(*i_matrix))
    return CRSample(coords, d_basis, param_basis, i_matrix)


def compatibility_check(u: ParamMap, point: Sequence) -> bool:
    """Whether the CR structure maps the P₁ line onto the P₂ line: always, at a contact point.

    P₁ ∥ b₁ and P₂ ∥ b₂ lie in ker μ, μ = b₁×b₂, so v = du·P₁ lies in the
    J₀-invariant plane D = du(ker μ) (see :func:`_cr_structure`), and J₀v lies
    in T = im du.  φ₀(v, w) = −ω₀(J₀v, w) because dz¹∧dz² is complex
    bilinear, so for w ∈ T, φ₀(J₀v, w) = ω₀(v, w) = 0, as v spans the kernel
    of ω₀ on T: J₀v spans du·P₂, and du·P₁ ⊕ du·P₂ = span(v, J₀v) = D.
    Raises where u has a pole, where du has rank < 3, and where the
    hypersurface is not contact.
    """
    coords, jac, _, djac, b, mu = _immersion_jets(u, point)
    if not _contact_value(b, _b_gradients(jac, djac), mu):
        raise ValueError(f"hypersurface is degenerate (not contact) at {_point_text(coords)}")
    return True


# -- per-point reports -------------------------------------------------------


def point_record(u: ParamMap, point: Sequence, tol: float = 1e-9) -> dict:
    """One JSON-ready record per query point; degeneracies are flagged, not fatal."""
    # the record shows the point whatever its dimension, which the jets check,
    # and null if it has too many digits to be written
    coords = tuple(to_scalar(x) for x in point)
    rec: dict = {"point": None}
    try:
        rec["point"] = [_rational(x) for x in coords]
        _, jac, scale, djac, bh, mu = _immersion_jets(u, coords)
        # b̂ = Δ²·b, μ̂ = b̂₁×b̂₂ and ∇b̂: the coframe and the contact test read them as they are
        b1, b2 = (tuple(Fraction(x, scale * scale) for x in bh[i:i + 3]) for i in (0, 3))
        rec["b1"] = b1_text = [_rational(x) for x in b1]
        rec["b2"] = b2_text = [_rational(x) for x in b2]
        # μ̂ ≠ 0 is the immersion test
        rec["independent"] = True
        frame = _coframe(coords, bh, mu, scale * scale, max(tol, 1e-10))
        rec["coframe"] = {
            "eta1": list(frame.eta1),
            "eta2": list(frame.eta2),
            "eta3": list(frame.eta3),
        }
        rec["P1"], rec["P2"] = b1_text, b2_text
        rec["contact"] = contact = _contact_value(bh, _b_gradients(jac, djac), mu) != 0
        d_basis, i_matrix, _ = _cr_structure(jac, mu, scale)
        rec["cr"] = {
            "D": [[_rational(x) for x in b] for b in d_basis],
            "I": [[_rational(x) for x in row] for row in i_matrix],
        }
        # the compatibility theorem gives J₀(du·P₁) ∥ du·P₂; the field is asked only of a contact point
        rec["compatible"] = True if contact else None
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        rec["error"] = str(exc)
    return rec


def sample_report(u: ParamMap, points: Sequence[Sequence], tol: float = 1e-9) -> list:
    return [point_record(u, p, tol) for p in points]


# -- named models ------------------------------------------------------------


def heisenberg_model() -> ParamMap:
    """u(t,w₁,w₂) = (w₁, w₂, t, w₁²+w₂²) with variables ordered (t,w₁,w₂)."""
    t = Poly.variable(0, NVARS)
    w1 = Poly.variable(1, NVARS)
    w2 = Poly.variable(2, NVARS)
    return ParamMap((w1, w2, t, w1 * w1 + w2 * w2))


def affine_plane_model() -> ParamMap:
    """u(x) = (x¹, x², x³, 0): everywhere contact-degenerate."""
    x1 = Poly.variable(0, NVARS)
    x2 = Poly.variable(1, NVARS)
    x3 = Poly.variable(2, NVARS)
    return ParamMap((x1, x2, x3, Poly.zero(NVARS)))


def sphere_chart_model() -> ParamMap:
    """Rational chart of the unit sphere S³ ⊂ ℝ⁴ via the Cayley transform.

    u = ((1−q)/(1+q), 2x¹/(1+q), 2x²/(1+q), 2x³/(1+q)) with q = |x|²;
    |u| = 1 identically and the chart covers S³ minus one point.
    """
    xs = [Poly.variable(i, NVARS) for i in range(NVARS)]
    q = sum((x * x for x in xs), Poly.zero(NVARS))
    den = Poly.constant(1, NVARS) + q
    num0 = Poly.constant(1, NVARS) - q
    comps = (RatFunc(num0, den),) + tuple(RatFunc(2 * x, den) for x in xs)
    return ParamMap(comps)
