"""Hypersurface points from second-order jets, against the formal pullback.

``point_record`` evaluates each point from the jets of the map's numerators
and denominators, in integers.  Its b₁, b₂, contact flag, D, I and
compatibility verdict are checked here against the formal route:
``pullback_splitting`` in rational functions, ``oracles.b_at``,
``contact_value_at``, and the CR references of ``tests/oracles.py``.  The
gradients of b₁, b₂ are checked against the jets of the formal pair and
against the reference evaluator of ``tests/oracles.py``.
A map and a pair get their Taylor coefficients once, when they are built, and
never per point.  The compile itself multiplies no polynomials, so a map with
four distinct denominators costs about what a polynomial map does.  The
series at a point is checked against sympy's Taylor coefficients of N/D up to
order 3, and ``at``'s Ĵ and ∂Ĵ against the formal derivatives of
``u.jacobian()``; the size checks against the integers they bound.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeom import hypersurface
from pathgeom.hypersurface import (
    MAX_JET_DIGITS,
    CompiledMap,
    ParamMap,
    PolyForm3,
    _b_gradients,
    adapted_coframe_at,
    compatibility_check,
    contact_value_at,
    cr_structure_at,
    heisenberg_model,
    is_nondegenerate_at,
    line_fields_at,
    point_record,
    pullback_splitting,
    sample_report,
    sphere_chart_model,
)
from pathgeom.linalg import rank
from pathgeom.polynomials import IntPoly, Poly, RatFunc, RationalPoint, over_one_denominator

from cli_digest import CUBIC_OVER_FOUR, SHARED_DENOMINATOR_POINTS
from oracles import CompiledFunctions, b_at, compatible_oracle, cr_structure_oracle, poly_value_oracle

X = tuple(Poly.variable(i, 3) for i in range(3))


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def formal_fields(u: ParamMap, point) -> dict:
    """The record fields that the formal route gives at the point, or its error."""
    try:
        jac = [[f(point) for f in row] for row in u.jacobian()]
    except ZeroDivisionError as exc:
        return {"error": str(exc)}
    if rank(jac) != 3:
        return {"error": "not an immersion"}
    beta1, beta2 = pullback_splitting(u)
    b1, b2 = b_at(beta1, point), b_at(beta2, point)
    contact = contact_value_at(beta1, beta2, point) != 0
    d_basis, _, i_matrix = cr_structure_oracle(jac)
    return {
        "b1": [_rational(x) for x in b1],
        "b2": [_rational(x) for x in b2],
        "contact": contact,
        "cr": {"D": [[_rational(x) for x in d] for d in d_basis], "I": [[_rational(x) for x in r] for r in i_matrix]},
        "compatible": compatible_oracle(jac, b1, b2) if contact else None,
    }


def assert_positive_multiple(a, b):
    """a = λ·b for one λ > 0; a zero b needs a zero a."""
    i = next((i for i, x in enumerate(b) if x), None)
    ratio = Fraction(a[i]) / b[i] if i is not None else Fraction(1)
    assert ratio > 0 and all(x == ratio * y for x, y in zip(a, b))


def assert_matches_formal(u: ParamMap, points):
    for point in points:
        rec = point_record(u, point)
        want = formal_fields(u, point)
        if want.get("error") == "not an immersion":
            assert rec["error"].startswith("map is not an immersion at")
            continue
        if "error" in want:
            assert rec["error"] == want["error"]
            continue
        if "error" in rec:  # a float coframe check; the exact fields before it still hold
            assert rec["error"].startswith("adapted coframe")
            assert (rec["b1"], rec["b2"]) == (want["b1"], want["b2"])
        else:
            assert {k: rec[k] for k in want} == want
        # the contact flag reads only a zero; the jet gradients of b₁, b₂ are the formal ones times one λ > 0
        pt = RationalPoint(point, 3)
        jac, _, djac = u.jets.at(pt)
        beta1, beta2 = pullback_splitting(u)
        (v1, g1), (v2, g2) = beta1.jets.gradients(pt), beta2.jets.gradients(pt)
        formal = v1 + v2, g1 + g2
        assert (list(formal[0]), formal[1]) == CompiledFunctions(beta1.b + beta2.b, 3).at(pt)
        assert_positive_multiple(*([x for g in grads for x in g] for grads in (_b_gradients(jac, djac), formal[1])))


# -- strategies --------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
points = st.lists(st.tuples(small, small, small).map(list), min_size=1, max_size=3)


@st.composite
def polys(draw, max_degree: int, max_terms: int, constant=None) -> Poly:
    exps = st.tuples(*(st.integers(0, max_degree),) * 3).filter(lambda e: sum(e) <= max_degree)
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), max_size=max_terms))
    if constant is not None:
        terms[(0, 0, 0)] = constant
    return Poly(3, terms)


@st.composite
def graphs(draw) -> ParamMap:
    """(x₁, x₂, x₃, f) in a drawn order, f of degree ≤ 3."""
    comps = list(X) + [draw(polys(3, 5))]
    return ParamMap(tuple(draw(st.permutations(comps))))


@st.composite
def rational_maps(draw) -> ParamMap:
    """Four quotients with small denominators, distinct unless drawn equal; poles may fall on the points.

    Three numerators start from x₁, x₂, x₃, so that most points are immersion points.
    """
    comps = []
    for i in range(4):
        den = draw(polys(1, 2, constant=draw(st.integers(1, 3))))
        num = draw(polys(2, 3)) + (X[i] if i < 3 else 0)
        comps.append(RatFunc(num, den))
    return ParamMap(tuple(draw(st.permutations(comps))))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(graphs(), points)
def test_graphs_match_formal_pullback(u, pts):
    assert_matches_formal(u, pts)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(rational_maps(), points)
def test_rational_maps_match_formal_pullback(u, pts):
    assert_matches_formal(u, pts)


def test_sphere_chart_matches_formal_pullback(rng):
    pts = [[Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(3)] for _ in range(8)]
    assert_matches_formal(sphere_chart_model(), pts)


def test_constant_quotient_has_no_pole():
    """A component c·D/D has a zero formal derivative over 1, so D = 0 is no pole of the map."""
    one_minus_x1 = 1 - X[0]
    u = ParamMap(X + (RatFunc(2 * one_minus_x1, one_minus_x1),))
    point = [Fraction(1), Fraction(1, 2), Fraction(-2)]
    rec = point_record(u, point)
    assert "error" not in rec
    assert {k: rec[k] for k in ("b1", "b2", "contact", "cr", "compatible")} == formal_fields(u, point)


def test_constant_quotient_coefficient_has_no_pole():
    """A pair reads a coefficient c·D/D as c at every point, D = 0 included, in each per-point function."""
    one_minus_x1 = 1 - X[0]
    beta1 = PolyForm3((RatFunc(2 * one_minus_x1, one_minus_x1), Poly.zero(3), Poly.zero(3)))
    beta2 = PolyForm3((Poly.zero(3), Poly.zero(3), Poly.constant(1, 3)))
    point = [1, Fraction(1, 2), -2]
    assert b_at(beta1, point) == (2, 0, 0)
    assert adapted_coframe_at(beta1, beta2, point).eta2 == (0.0, -1.0, 0.0)
    assert contact_value_at(beta1, beta2, point) == 0
    assert line_fields_at(beta1, beta2, point).p1 == (2, 0, 0)


def test_values_over_one_denominator(rng):
    """Each numerator is the value times one shared positive integer: the numerator of the constant 1."""
    polys = [Poly(3, {tuple(rng.randint(0, 3) for _ in range(3)): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(rng.randint(0, 4))}) for _ in range(6)] + [Poly.constant(1, 3)]
    ints = over_one_denominator(polys)
    for _ in range(10):
        point = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
        pt = RationalPoint(point, 3)
        shared = ints[-1].numerator(pt)
        assert type(shared) is int and shared > 0
        assert [p.numerator(pt) for p in ints] == [shared * poly_value_oracle(p, point) for p in polys]


def test_compile_multiplies_no_polynomials(monkeypatch):
    components = sphere_chart_model().components
    calls = Counter()

    def counted(cls, name):
        fn = getattr(cls, name)

        def wrapper(*args):
            calls[f"{cls.__name__}.{name}"] += 1
            return fn(*args)

        monkeypatch.setattr(cls, name, wrapper)

    for cls in (Poly, RatFunc):
        counted(cls, "__mul__")
        counted(cls, "__rmul__")
    ParamMap(components)
    assert sum(calls.values()) == 0


def count_calls(monkeypatch, **targets) -> Counter:
    """Counts of calls from now on, per key, of each (owner, name) in ``targets``."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key, (owner, name) in targets.items():
        monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
    return calls


def count_calculus(monkeypatch) -> Counter:
    """Counts of ``Poly.diff``, ``Poly.taylor`` and ``CompiledMap.__init__`` calls from now on."""
    return count_calls(monkeypatch, diff=(Poly, "diff"), taylor=(Poly, "taylor"),
                       compile=(CompiledMap, "__init__"))


def test_compatibility_check_differentiates_once_per_jet(monkeypatch):
    """Building the map reads each distinct numerator's and denominator's Taylor coefficients once; a call, nothing."""
    calls = count_calculus(monkeypatch)
    u = sphere_chart_model()
    # 1−q, 1+q and the three 2xᵢ: ten coefficients each, to second order, and no Poly.diff
    assert calls == {"taylor": 5 * 10, "compile": 1}
    calls.clear()
    assert compatibility_check(u, [Fraction(1, 2), Fraction(-1, 3), 2])
    assert sum(calls.values()) == 0


def test_a_map_and_a_pair_are_differentiated_when_built(monkeypatch, rng):
    """100 calls of each per-point function on the sphere chart and its pullback pair make no diff and no compile."""
    calls = count_calculus(monkeypatch)
    u = sphere_chart_model()
    assert calls == {"taylor": 50, "compile": 1}
    points = [[Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)] for _ in range(100)]
    calls.clear()
    for f in (u.jacobian_at, lambda p: cr_structure_at(u, p), lambda p: compatibility_check(u, p),
              lambda p: point_record(u, p)):
        for p in points:
            f(p)
    assert sum(calls.values()) == 0
    beta1, beta2 = pullback_splitting(u)
    assert calls["compile"] == 2
    calls.clear()
    for f in (contact_value_at, is_nondegenerate_at, line_fields_at, adapted_coframe_at):
        for p in points:
            f(beta1, beta2, p)
    for p in points:
        b_at(beta1, p), b_at(beta2, p)
    assert sum(calls.values()) == 0


def distinct_denominator_map(seed: int) -> ParamMap:
    """Four components of 4-term numerators of degree ≤ 2 over 13-term denominators.

    The denominators are distinct, with exponents in [0, 3]³ and coefficients
    1..5; multiplied out, each minor of the formal pullback sits over Dᵢ²Dⱼ².
    """
    rng = random.Random(seed)
    low = [e for e in ((i, j, k) for i in range(3) for j in range(3) for k in range(3)) if sum(e) <= 2]
    cube = [(i, j, k) for i in range(4) for j in range(4) for k in range(4)]
    comps = []
    for _ in range(4):
        num = Poly(3, {e: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]) for e in rng.sample(low, 4)})
        den = Poly(3, {e: rng.randint(1, 5) for e in rng.sample(cube, 13)})
        comps.append(RatFunc(num, den))
    return ParamMap(tuple(comps))


def test_distinct_denominators_are_cheap():
    u = distinct_denominator_map(2012)
    # positive points: every denominator has positive coefficients there
    pts = [[Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)], [Fraction(5, 2), Fraction(1, 7), Fraction(4, 3)]]
    start = time.perf_counter()
    records = sample_report(u, pts)
    assert time.perf_counter() - start < 2.0
    assert all("cr" in r for r in records)


# -- the size of the jets ----------------------------------------------------


def nines_map(digits: int, exponent: int) -> ParamMap:
    """9…9 (``digits`` nines) times x₁ᵉ, x₂ᵉ, x₃ᵉ and x₁ᵉx₂ᵉx₃ᵉ, plus x₁, x₂, x₃ and x₁."""
    nines = 10**digits - 1
    monomials = [x**exponent for x in X] + [(X[0] * X[1] * X[2]) ** exponent]
    return ParamMap(tuple(nines * m + x for m, x in zip(monomials, X + X[:1])))


def test_jets_past_the_digit_limit_are_not_evaluated(monkeypatch):
    """Degree 90 and 1000-digit coefficients at 100-digit coordinates: a record error, and no polynomial is summed.

    Every value would be a sum of terms near 10⁹⁰⁰⁰·10¹⁰⁰⁰, and the products and
    gcds after it grow with the square of that; a 28 KB request of this kind
    did not end.
    """
    calls = Counter()
    numerator = IntPoly.numerator

    def counted(self, pt):
        calls["numerator"] += 1
        return numerator(self, pt)

    u = nines_map(1000, 30)
    point = [Fraction(10**99 + i, 10**100 + 7) for i in (1, 3, 5)]
    monkeypatch.setattr(IntPoly, "numerator", counted)
    rec = point_record(u, point)
    text = ", ".join(_rational(x) for x in point)
    assert rec["error"] == f"exact jets at ({text}) would need integers of more than {MAX_JET_DIGITS} digits"
    assert calls["numerator"] == 0
    # the same map at a small point is evaluated
    assert "b1" in point_record(u, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
    assert calls["numerator"] > 0


big = st.one_of(small, st.integers(-10**40, 10**40).map(Fraction), st.fractions(max_denominator=10**30))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(rational_maps(), st.lists(big, min_size=3, max_size=3))
def test_size_bound_holds(u, point):
    """No evaluated numerator is longer than the bound the jets check before evaluating, and no output of ``at``
    longer than |e| + 1 values written over the lcm of the |d₀|, the size they check before the recurrence."""
    pt = RationalPoint(point, 3)
    jets = u.jets
    bound = jets._size + jets._degree * max(x.bit_length() for x in (pt.den, *pt.nums))
    values = [p.numerator(pt) for p in jets._polys]
    assert all(v.bit_length() <= bound for v in values)
    try:
        jac, scale, djac = jets.at(RationalPoint(point, 3))
    except ZeroDivisionError:
        return
    sizes = [d0.bit_length() for d0 in {abs(d0) for d0, _ in jets._series(pt)}]
    over_lcm = max(v.bit_length() for v in values) + sum(sizes) - min(sizes)
    # a coefficient of order |e| sums at most 6 products of |e| + 1 of them, and ∂ⱼ∂ⱼ doubles it
    assert scale.bit_length() <= 2 * over_lcm and all(x.bit_length() <= 2 * over_lcm + 2 for r in jac for x in r)
    assert all(x.bit_length() <= 3 * over_lcm + 4 for dk in djac for r in dk for x in r)


def test_values_past_the_digit_limit_over_their_lcm_are_refused(monkeypatch):
    """A cubic map over four distinct denominators, at a point of one 2861-digit denominator: a record error.

    Each value fits the limit, so they are evaluated; over the lcm of the four
    denominators they would not.  Unrefused, ``at`` built integers of
    152 015 bits there, and the record ended after 3 s in the error that a
    printed value has more than 4300 digits.
    """
    u = ParamMap.from_json(CUBIC_OVER_FOUR)
    calls = count_calls(monkeypatch, numerator=(IntPoly, "numerator"), minors=(hypersurface, "_minors"))
    point = [Fraction(x) for x in SHARED_DENOMINATOR_POINTS[0]]
    rec = point_record(u, point)
    text = ", ".join(_rational(x) for x in point)
    assert rec["error"] == f"exact jets at ({text}) would need integers of more than {MAX_JET_DIGITS} digits"
    assert calls["numerator"] > 0 and calls["minors"] == 0
    assert "cr" in point_record(u, [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])


# -- the Taylor series -------------------------------------------------------

SX = sympy.symbols("x1:4")


def exponents(order: int) -> list:
    """The exponents e with |e| ≤ order, in the graded order of ``CompiledMap``'s series."""
    return [tuple(c.count(i) for i in range(3)) for n in range(order + 1) for c in combinations_with_replacement(range(3), n)]


def sympy_of(f) -> sympy.Expr:
    def poly(p: Poly):
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(x**k for x, k in zip(SX, e)))
                    for e, c in p.terms.items()), sympy.Integer(0))

    return poly(f.num) / poly(f.den) if isinstance(f, RatFunc) else poly(f)


def assert_series_is_sympys(functions, points, order: int):
    """The coefficient of hᵉ in ``CompiledMap``'s series at each point is sympy's ∂ᵉ(N/D)/e! there."""
    jets = CompiledMap(functions, order)
    coefficients = [[(e, sympy.diff(f, *((x, k) for x, k in zip(SX, e) if k)) / math.prod(map(math.factorial, e))
                      if any(e) else f) for e in exponents(order)] for f in map(sympy_of, functions)]
    for point in points:
        at = dict(zip(SX, (sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, point))))
        if any(f.den(point) == 0 for f in functions if isinstance(f, RatFunc)):
            continue
        series = jets._series(RationalPoint(point, 3))
        for (d0, q), want in zip(series, coefficients):
            for m, (e, c) in enumerate(want):
                value = c.subs(at)
                assert Fraction(q[m], d0 ** (sum(e) + 1)) == Fraction(int(value.p), int(value.q)), (point, e)


@st.composite
def four_denominator_quotients(draw) -> list:
    """Four quotients, each numerator with a mixed monomial, over the distinct denominators c + …, c = 1, 2, 3, 5."""
    return [RatFunc(draw(polys(3, 3)) + X[i % 3] * X[(i + 1) % 3] ** (1 + i % 2), draw(polys(2, 3, constant=c)))
            for i, c in enumerate((1, 2, 3, 5))]


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(four_denominator_quotients(), points, st.sampled_from([1, 2]))
def test_series_of_random_quotients_is_sympys(functions, pts, order):
    assert_series_is_sympys(functions, pts, order)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("model", [sphere_chart_model, heisenberg_model])
def test_series_of_the_models_is_sympys(model, order, rng):
    pts = [[Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(3)] for _ in range(3)]
    assert_series_is_sympys(model().components, pts + [[0, 0, 0], [Fraction(1, 2), -1, 3]], order)


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.one_of(rational_maps(), four_denominator_quotients().map(ParamMap), st.just(sphere_chart_model())), points)
def test_jets_are_the_formal_derivatives_scaled(u, pts):
    """Ĵ = Δ·du and ∂Ĵ[k] = Δ′·∂ₖdu entry by entry, Δ′ the lcm of the |d₀|³, against ``u.jacobian()`` differentiated."""
    jacobian = u.jacobian()
    hessian = [[[f.diff(k) for f in row] for row in jacobian] for k in range(3)]
    for point in pts:
        pt = RationalPoint(point, 3)
        try:
            want = [[f(point) for f in row] for row in jacobian], [[[f(point) for f in r] for r in hk] for hk in hessian]
        except ZeroDivisionError:
            continue
        jac, scale, djac = u.jets.at(pt)
        dscale = math.lcm(*(abs(d0) ** 3 for d0, _ in u.jets._series(pt)))
        assert jac == [[scale * x for x in row] for row in want[0]]
        assert djac == [[[dscale * x for x in r] for r in hk] for hk in want[1]]
