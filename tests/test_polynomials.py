import time
from fractions import Fraction

import pytest
import sympy

from pathgeom import Poly, RatFunc
from pathgeom.hypersurface import CompiledMap
from pathgeom.polynomials import RationalPoint

from oracles import CompiledFunctions, poly_value_oracle

X = sympy.symbols("x1 x2 x3")


def to_sympy(p: Poly):
    expr = sympy.Integer(0)
    for exp, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, k in zip(X, exp):
            term *= x**k
        expr += term
    return sympy.expand(expr)


def rand_poly(rng, max_deg=3, nterms=4) -> Poly:
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, max_deg) for _ in range(3))
        terms[exp] = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
    return Poly(3, terms)


class TestPoly:
    def test_ring_axioms_random(self, rng):
        for _ in range(15):
            p, q, r = (rand_poly(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p - p).is_zero

    def test_pow_matches_repeated_product(self, rng):
        p = rand_poly(rng, max_deg=2, nterms=3)
        assert p**3 == p * p * p
        assert p**0 == Poly.constant(1, 3)

    def test_diff_matches_sympy(self, rng):
        for _ in range(15):
            p = rand_poly(rng)
            for i in range(3):
                assert to_sympy(p.diff(i)) == sympy.expand(sympy.diff(to_sympy(p), X[i]))

    def test_product_rule(self, rng):
        p, q = rand_poly(rng), rand_poly(rng)
        for i in range(3):
            assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)

    def test_evaluation_exact(self, rng):
        for _ in range(10):
            p = rand_poly(rng)
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
            expected = to_sympy(p).subs({x: sympy.Rational(v.numerator, v.denominator) for x, v in zip(X, pt)})
            got = p(pt)
            assert sympy.Rational(got.numerator, got.denominator) == expected

    def test_evaluation_matches_naive_oracle(self, rng):
        for _ in range(40):
            p = rand_poly(rng, max_deg=6, nterms=6)
            pt = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(3)]
            assert p(pt) == poly_value_oracle(p, pt)
        assert Poly.zero(3)([Fraction(1, 3), 2, 5]) == 0

    def test_huge_exponent_is_fast_and_exact(self):
        p = Poly(3, {(50000, 0, 0): Fraction(1)})
        start = time.perf_counter()
        value = p([Fraction(3, 2), 0, 0])
        assert time.perf_counter() - start < 0.5
        assert value == Fraction(3, 2) ** 50000

    def test_variable_and_constant(self):
        x2 = Poly.variable(1, 3)
        assert x2([0, Fraction(5), 0]) == 5
        assert Poly.constant(Fraction(2, 3), 3)([1, 2, 3]) == Fraction(2, 3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly(3, {(-1, 0, 0): Fraction(1)})

    @pytest.mark.parametrize("e", [1.5, Fraction(1, 2), 0.999])
    def test_non_integral_exponent_rejected(self, e):
        with pytest.raises(ValueError, match="integers"):
            Poly(3, {(e, 0, 0): Fraction(1)})

    def test_integral_float_exponent_accepted(self):
        assert Poly(3, {(2.0, 0, 0): Fraction(1)}) == Poly.variable(0, 3) * Poly.variable(0, 3)

    def test_mixed_arithmetic_with_ratfunc(self, rng):
        p, q = rand_poly(rng), rand_poly(rng) + 1
        f = RatFunc(q, q * q + 1)
        pt = [Fraction(1, 3), 2, Fraction(-5, 7)]
        for value, expected in ((p + f, p(pt) + f(pt)), (p - f, p(pt) - f(pt)), (p * f, p(pt) * f(pt))):
            assert isinstance(value, RatFunc) and value(pt) == expected

    def test_json_round_trip(self, rng):
        p = rand_poly(rng)
        assert Poly.from_json(p.to_json(), 3) == p

    def test_json_coefficients_use_the_one_writer(self):
        p = Poly(3, {(1, 0, 0): Fraction(-3, 7), (0, 0, 0): Fraction(2)})
        assert p.to_json() == [{"exp": [0, 0, 0], "c": "2/1"}, {"exp": [1, 0, 0], "c": "-3/7"}]
        # past CPython's int-to-text limit the library's own message, not CPython's
        with pytest.raises(ValueError, match="more than 4300 digits in its numerator or denominator"):
            Poly(3, {(0, 0, 0): Fraction(10**4400)}).to_json()


class TestRatFunc:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(Poly.constant(1, 3), Poly.zero(3))

    def test_quotient_rule_matches_sympy(self, rng):
        for _ in range(4):
            num, den = rand_poly(rng, max_deg=2, nterms=3), rand_poly(rng, max_deg=1, nterms=2)
            if den.is_zero:
                continue
            f = RatFunc(num, den)
            expr = to_sympy(num) / to_sympy(den)
            for i in range(3):
                got = f.diff(i)
                want = sympy.together(sympy.diff(expr, X[i]))
                diff = sympy.simplify(to_sympy(got.num) / to_sympy(got.den) - want)
                assert diff == 0

    def test_arithmetic_equalities(self, rng):
        den = rand_poly(rng, max_deg=1, nterms=2) + Poly.constant(3, 3)
        f = RatFunc(rand_poly(rng), den)
        g = RatFunc(rand_poly(rng), den)
        h = f + g
        assert h.den == den  # shared denominators are not multiplied out
        assert (f - f).is_zero
        assert f * RatFunc(Poly.constant(1, 3)) == f

    def test_evaluation_and_poles(self):
        x1 = Poly.variable(0, 3)
        f = RatFunc(Poly.constant(1, 3), x1)
        assert f([Fraction(1, 2), 0, 0]) == 2
        with pytest.raises(ZeroDivisionError):
            f([0, 1, 1])

    def test_evaluation_matches_naive_oracle(self, rng):
        for _ in range(20):
            num, den = rand_poly(rng, max_deg=5, nterms=5), rand_poly(rng, max_deg=4, nterms=4)
            pt = [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(3)]
            d = poly_value_oracle(den, pt)
            if den.is_zero or d == 0:
                continue
            assert RatFunc(num, den)(pt) == poly_value_oracle(num, pt) / d

    def test_cross_type_arithmetic(self, rng):
        p = rand_poly(rng)
        f = RatFunc(p, Poly.constant(2, 3))
        assert (f + f) == RatFunc(p)
        assert (3 * f).num == 3 * p


class TestCompiledFunctions:
    def test_values_and_gradients_match_formal_calculus(self, rng):
        den = rand_poly(rng, max_deg=2, nterms=3) + Poly.constant(40, 3)
        # two quotients share a denominator, as the pullback coefficients do
        functions = [RatFunc(rand_poly(rng), den), RatFunc(rand_poly(rng), den), rand_poly(rng)]
        compiled, reference = CompiledMap(functions, order=1), CompiledFunctions(functions, 3)
        for _ in range(10):
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
            if den(pt) == 0:
                continue
            values, grads = compiled.gradients(RationalPoint(pt, 3))
            assert all(type(x) is Fraction for x in values + sum(grads, ()))
            assert list(values) == [f(pt) for f in functions]
            assert grads == [tuple(f.diff(i)(pt) for i in range(3)) for f in functions]
            assert (list(values), grads) == reference.at(RationalPoint(pt, 3))

    def test_denominators_of_either_sign(self, rng):
        x1 = Poly.variable(0, 3)
        functions = [RatFunc(rand_poly(rng), x1 - Fraction(1, 3)), RatFunc(rand_poly(rng), x1 * x1 - 2 * x1 - 1)]
        compiled, reference = CompiledMap(functions, order=1), CompiledFunctions(functions, 3)
        signs = set()
        for _ in range(20):
            pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(3)]
            dens = [f.den(pt) for f in functions]
            if 0 in dens:
                continue
            signs.update(d > 0 for d in dens)
            values, grads = compiled.gradients(RationalPoint(pt, 3))
            assert (list(values), grads) == reference.at(RationalPoint(pt, 3))
            assert grads == [tuple(f.diff(i)(pt) for i in range(3)) for f in functions]
        assert signs == {True, False}
