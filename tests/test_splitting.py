import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pathgeom import (
    DEFAULT_VOLUME,
    J0,
    J0_MATRIX,
    OMEGA0,
    PHI0,
    ComplexStructure,
    EllipticPair,
    MultiVector,
    OrientedPositivePlane,
    Splitting,
    VolumeForm,
    act,
    canonical_model,
    degree,
    degree_squared,
    equivalent,
    j_of_plane,
    plane_of,
    pullback,
)
from pathgeom import linalg
from pathgeom.scalars import sqrt_of

from conftest import count_calls_everywhere, rand_invertible
from oracles import conjugate, degree_by_normalization, lines_parallel, spans_same_oriented_plane

E = MultiVector.basis


def random_splitting(rng):
    a = rand_invertible(rng)
    alpha = Fraction(rng.randint(0, 40), 10)
    return act(a, canonical_model(alpha)), alpha


class TestComplexStructure:
    def test_j0_valid(self):
        assert J0.tol == 0 and all(type(x) is Fraction for row in J0.matrix for x in row)

    def test_square_violation_rejected(self):
        with pytest.raises(ValueError):
            ComplexStructure(tuple(tuple(row) for row in np.eye(4, dtype=int).tolist()))

    def test_orientation_reversing_rejected(self):
        bad = (
            (0, -1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 1),
            (0, 0, -1, 0),
        )
        with pytest.raises(ValueError, match="orientation"):
            ComplexStructure(bad)

    def test_float_matrix_with_tolerance(self):
        rows = tuple(tuple(row) for row in (np.array(J0_MATRIX, dtype=float) + 1e-13).tolist())
        with pytest.raises(ValueError, match="J\\^2 != -Id"):
            ComplexStructure(rows)
        cs = ComplexStructure(rows, tol=1e-9)
        assert cs.matrix[0][0] == Fraction(1e-13)


class TestPlaneOf:
    def test_standard_structure(self):
        p = plane_of(J0)
        assert p.omega == OMEGA0 and p.phi == PHI0

    def test_negated_structure_reverses_orientation(self):
        # -J0 is conjugate to J0 by an orientation-preserving map, so it is
        # still admissible; its plane is the same with opposite orientation
        minus = ComplexStructure(tuple(tuple(-x for x in row) for row in J0_MATRIX))
        p = plane_of(minus)
        assert p.omega == OMEGA0 and p.phi == -PHI0
        assert not spans_same_oriented_plane(p, plane_of(J0))

    def test_float_structure_needs_no_rank(self, rng, monkeypatch):
        def no_rank(rows):
            raise AssertionError("plane_of took a rank")

        monkeypatch.setattr(linalg, "rank", no_rank)
        for _ in range(5):
            conj = conjugate(J0, rand_invertible(rng))
            as_float = ComplexStructure(tuple(tuple(float(x) for x in row) for row in conj.matrix), tol=1e-9)
            assert spans_same_oriented_plane(plane_of(as_float), plane_of(conj), tol=1e-9)

    def test_equivariance_exact(self, rng):
        for _ in range(25):
            a = rand_invertible(rng)
            conj = conjugate(J0, a)
            lhs = plane_of(conj)
            rhs = OrientedPositivePlane(pullback(OMEGA0, a), pullback(PHI0, a))
            assert spans_same_oriented_plane(lhs, rhs)


class TestPlaneKeptOnce:
    def test_plane_of_reads_the_kept_plane(self, rng):
        for j in (J0, conjugate(J0, rand_invertible(rng))):
            assert plane_of(j) is j.plane
            assert j.plane.eps == DEFAULT_VOLUME

    def test_round_trip_builds_each_plane_once(self, monkeypatch):
        """Criterion 7's round trip, from its seed for 20 iterations, builds each Λ_J once.

        Each of the three complex structures of an iteration (the conjugate of
        J0 and the two that ``j_of_plane`` returns) builds its plane when it is
        built, and ``plane_of`` builds none.  A plane takes 17 wedges: 12 for
        the six projections ρ, 2 for σ and 3 for its Gram.  ``j_of_plane``
        reads φ₁ and ⟨φ₁,φ₁⟩ off the plane's Gram and wedges nothing itself;
        the pulled-back plane's Gram (3) and the two span comparisons (4 each)
        make 62 wedges an iteration.  The test's own ``OrientedPositivePlane``
        is not counted.
        """
        planes = count_calls_everywhere(monkeypatch, "splitting", "OrientedPositivePlane")
        wedges = count_calls_everywhere(monkeypatch, "exterior", "wedge")
        rng = random.Random(7)
        for _ in range(20):
            a = rand_invertible(rng)
            conj = conjugate(J0, a)
            plane = plane_of(conj)
            j_of_plane(plane)
            plane2 = OrientedPositivePlane(pullback(OMEGA0, a), pullback(PHI0, a))
            assert spans_same_oriented_plane(plane_of(j_of_plane(plane2)), plane2, tol=1e-9)
            assert spans_same_oriented_plane(plane, plane2)
        assert planes["calls"] <= 3 * 20 and wedges["calls"] <= 62 * 20, (planes, wedges)


class TestJOfPlane:
    def test_model_plane_gives_j0(self):
        j = j_of_plane(OrientedPositivePlane(OMEGA0, PHI0))
        res = np.max(np.abs(np.array(j.matrix, dtype=float) - np.array(J0_MATRIX, dtype=float)))
        assert res <= 1e-9

    def test_rational_root_gives_the_exact_structure(self, rng):
        """⟨ω,ω⟩/⟨φ₁,φ₁⟩ a rational square: J is exact; otherwise the float root is checked to tolerance."""
        assert j_of_plane(OrientedPositivePlane(OMEGA0, PHI0)).matrix == J0.matrix
        assert j_of_plane(OrientedPositivePlane(OMEGA0 * 3, PHI0 * Fraction(1, 2))).matrix == J0.matrix
        for _ in range(10):
            conj = conjugate(J0, rand_invertible(rng))
            assert j_of_plane(plane_of(conj)).matrix == conj.matrix
        # ⟨ω,ω⟩/⟨φ,φ⟩ = 2
        plane = OrientedPositivePlane(OMEGA0 + E(4, (1, 2)) + E(4, (3, 4)), PHI0)
        j = j_of_plane(plane)
        assert spans_same_oriented_plane(plane_of(j), plane, tol=1e-9)
        with pytest.raises(ValueError, match="J\\^2 != -Id"):
            ComplexStructure(j.matrix)

    def test_reversed_orientation_round_trip(self):
        p = OrientedPositivePlane(PHI0, OMEGA0)
        j = j_of_plane(p)
        back = plane_of(j)
        assert spans_same_oriented_plane(back, p, tol=1e-8)
        assert not spans_same_oriented_plane(back, OrientedPositivePlane(OMEGA0, PHI0), tol=1e-8)

    def test_round_trips_random(self, rng):
        for _ in range(40):
            a = rand_invertible(rng)
            plane = OrientedPositivePlane(pullback(OMEGA0, a), pullback(PHI0, a))
            j = j_of_plane(plane)
            assert spans_same_oriented_plane(plane_of(j), plane, tol=1e-8)

            conj = conjugate(J0, a)
            j2 = j_of_plane(plane_of(conj))
            res = np.max(np.abs(np.array(j2.matrix, dtype=float) - np.array(conj.matrix, dtype=float)))
            assert res <= 1e-9

    def test_indefinite_span_rejected(self):
        with pytest.raises(ValueError, match="not elliptic"):
            OrientedPositivePlane(E(4, (1, 2)), E(4, (3, 4)))

    def test_plane_is_an_elliptic_pair_with_a_positive_gram(self):
        plane = OrientedPositivePlane(OMEGA0, PHI0)
        assert isinstance(plane, EllipticPair) and plane.gram == ((2, 0), (0, 2))
        with pytest.raises(ValueError, match="opposite orientation"):
            OrientedPositivePlane(OMEGA0, PHI0, DEFAULT_VOLUME.flipped())


class TestSpansSameOrientedPlane:
    @pytest.mark.parametrize("scalar", [Fraction(1), 1.0], ids=["exact", "float"])
    def test_different_span(self, scalar):
        # (ω₀, e¹²+e³⁴) is positive definite and meets span(ω₀, φ₀) only in ω₀
        other = OrientedPositivePlane(OMEGA0 * scalar, (E(4, (1, 2)) + E(4, (3, 4))) * scalar)
        assert not spans_same_oriented_plane(other, plane_of(J0))
        assert not spans_same_oriented_plane(plane_of(J0), other)


class TestSplittingInvariants:
    def test_indefinite_span_rejected(self):
        with pytest.raises(ValueError):
            Splitting(E(4, (1, 2)), E(4, (3, 4)))

    def test_parallel_lines_rejected(self):
        with pytest.raises(ValueError):
            Splitting(OMEGA0, OMEGA0 * Fraction(2))

    def test_negative_definite_flips_epsilon(self):
        s = Splitting(OMEGA0, PHI0, VolumeForm(Fraction(-1)))
        assert s.epsilon_flipped
        assert degree_squared(s) == 0

    def test_only_the_constructor_records_a_flip(self):
        """``epsilon_flipped`` says whether ``__init__`` negated ε; a caller cannot set it."""
        with pytest.raises(TypeError):
            Splitting(OMEGA0, PHI0, DEFAULT_VOLUME, True)
        assert not Splitting(OMEGA0, PHI0).epsilon_flipped

    @pytest.mark.parametrize("seed", range(4))
    def test_flipped_gram_is_the_gram_under_the_opposite_epsilon(self, seed):
        # float lines whose Gram is negative definite under the standard ε
        rng = random.Random(seed)
        a = [[1, 0, 0, 0]] * 4
        while linalg.det(a) >= 0:
            a = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
        l1, l2 = pullback(OMEGA0 * 0.7, a), pullback(OMEGA0 * rng.uniform(0, 3) + PHI0, a)
        flipped = Splitting(l1, l2)
        direct = Splitting(l1, l2, VolumeForm(-1))
        assert flipped.epsilon_flipped and not direct.epsilon_flipped
        assert flipped.eps == direct.eps and flipped.gram == direct.gram
        assert degree_squared(flipped) == degree_squared(direct)

    def test_overflowing_gram_rejected(self):
        """No longer rejected: the Gram is exact, so no product of pairings leaves the floats."""
        for scale in (1e-100, 1e100):
            s = Splitting(OMEGA0 * scale, (OMEGA0 + PHI0) * scale)
            assert not s.epsilon_flipped
            assert degree_squared(s) == 1

    def test_json_round_trip(self):
        s = canonical_model(Fraction(5, 4))
        back = Splitting.from_json(s.to_json())
        assert back.line1 == s.line1 and back.line2 == s.line2


class TestDegree:
    @pytest.mark.parametrize("alpha", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10)])
    def test_model_degrees_exact(self, alpha):
        s = canonical_model(alpha)
        assert degree_squared(s) == alpha * alpha
        assert degree(s) == pytest.approx(float(alpha), abs=1e-12)

    def test_orthogonal_is_degree_zero(self):
        assert degree_squared(canonical_model(0)) == 0

    def test_model_generators(self):
        assert canonical_model(0).line1 == OMEGA0
        assert canonical_model(0).line2 == PHI0
        assert canonical_model(1).line2 == OMEGA0 + PHI0

    def test_float_round_trip(self):
        assert degree(canonical_model(3.25)) == pytest.approx(3.25, abs=1e-12)

    def test_invariance_under_action_exact(self, rng):
        for _ in range(40):
            s, alpha = random_splitting(rng)
            assert degree_squared(s) == alpha * alpha
            assert abs(degree(s) - float(alpha)) <= 1e-9

    def test_agrees_with_normalization_oracle(self, rng):
        for _ in range(40):
            s, _ = random_splitting(rng)
            assert abs(degree(s) - degree_by_normalization(s)) <= 1e-9

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            canonical_model(-1)

    @pytest.mark.parametrize("alpha, expected", [(10**200, 1e200), (Fraction(1, 10**200), 1e-200)])
    def test_degree_beyond_the_float_range(self, alpha, expected):
        """degree² = 10^±400 has no float, and its root is still the nearest float to 10^±200."""
        assert degree(canonical_model(alpha)) == expected

    def test_root_beyond_the_float_range_overflows(self):
        with pytest.raises(OverflowError, match="float range"):
            degree(canonical_model(10**400))


class TestSqrtOf:
    """``sqrt_of(q)`` is the float nearest √q, also where q has no float."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(1, 10**40), st.integers(1, 10**40), st.integers(-700, 570))
    def test_is_the_float_nearest_the_root(self, num, den, exponent):
        """Exactly: √q lies between the midpoints from the result to the floats on either side of it."""
        q = Fraction(num, den) * Fraction(10) ** exponent
        x = sqrt_of(q)
        below, above = ((Fraction(x) + Fraction(math.nextafter(x, toward))) / 2 for toward in (0, math.inf))
        assert below * below <= q <= above * above

    @pytest.mark.parametrize("q, expected", [
        (Fraction(1e300) ** 2, 1e300), (Fraction(1e-300) ** 2, 1e-300), (Fraction(2**1500), 2.0**750),
        (Fraction(10**600), 1e300), (Fraction(0), 0.0),
    ], ids=["1e300", "1e-300", "2^750", "10^600", "zero"])
    def test_roots_of_squares_past_the_float_range(self, q, expected):
        assert sqrt_of(q) == expected

    def test_negative_value_refused(self):
        with pytest.raises(ValueError):
            sqrt_of(Fraction(-1, 3))


class TestEquivalence:
    def test_action_preserves_class(self, rng):
        s = canonical_model(2)
        assert equivalent(s, act(rand_invertible(rng), s))

    def test_distinct_degrees_differ(self):
        assert not equivalent(canonical_model(0), canonical_model(1))

    def test_reflexive(self, rng):
        s, _ = random_splitting(rng)
        assert equivalent(s, s)

    def test_exact_splittings_compare_exactly(self):
        assert not equivalent(canonical_model(1), canonical_model(1 + Fraction(1, 10**12)))
        assert equivalent(canonical_model(1), canonical_model(Fraction(3, 3)))

    def test_degree_beyond_the_float_range_compares_exactly(self):
        big = canonical_model(10**200)
        assert equivalent(big, canonical_model(10**200))
        assert not equivalent(big, canonical_model(10**200 + 1))

    def test_float_splittings_compare_within_tolerance(self):
        assert equivalent(canonical_model(1.0), canonical_model(1.0 + 1e-12), tol=1e-9)
        assert not equivalent(canonical_model(1.0), canonical_model(1.0 + 1e-12))
        assert not equivalent(canonical_model(1.0), canonical_model(1.001), tol=1e-9)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=16, max_size=16),
           st.fractions(0, 5, max_denominator=7))
    def test_float_action_keeps_the_exact_degree(self, entries, alpha):
        a = [entries[i:i + 4] for i in range(0, 16, 4)]
        assume(linalg.det(a) > 0)
        s = canonical_model(alpha)
        assert degree_squared(act(a, s)) == degree_squared(s) == alpha * alpha


class TestAct:
    def test_identity(self):
        s = canonical_model(Fraction(3, 2))
        t = act(linalg.identity(4), s)
        assert t.line1 == s.line1 and t.line2 == s.line2

    def test_contravariance(self, rng):
        s = canonical_model(Fraction(1, 3))
        for _ in range(10):
            a = rand_invertible(rng)
            b = rand_invertible(rng)
            lhs = act(b, act(a, s))
            rhs = act(linalg.matmul(a, b), s)
            assert lhs.line1 == rhs.line1 and lhs.line2 == rhs.line2

    def test_orientation_reversal_rejected(self, rng):
        a = rand_invertible(rng, positive=False)
        with pytest.raises(ValueError):
            act(a, canonical_model(1))

    def test_lines_parallel_helper(self):
        assert lines_parallel(OMEGA0, OMEGA0 * Fraction(-7, 2))
        assert not lines_parallel(OMEGA0, PHI0)
