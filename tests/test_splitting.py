from fractions import Fraction

import numpy as np
import pytest

from pathgeom import (
    J0,
    J0_MATRIX,
    OMEGA0,
    PHI0,
    ComplexStructure,
    LinearMap,
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
from pathgeom.splitting import lines_parallel

from conftest import rand_invertible
from oracles import degree_by_normalization

E = MultiVector.basis


def random_splitting(rng):
    a = rand_invertible(rng)
    alpha = Fraction(rng.randint(0, 40), 10)
    return act(a, canonical_model(alpha)), alpha


class TestComplexStructure:
    def test_j0_valid(self):
        assert J0.is_exact

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
        j = np.array(J0_MATRIX, dtype=float) + 1e-13
        cs = ComplexStructure(tuple(tuple(row) for row in j.tolist()))
        assert not cs.is_exact


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
        assert not p.spans_same_oriented_plane(plane_of(J0))

    def test_seed_covectors_do_not_matter(self):
        p13 = plane_of(J0, seed_covectors=(1, 3))
        p24 = plane_of(J0, seed_covectors=(2, 4))
        assert p13.spans_same_oriented_plane(p24)

    def test_equivariance_exact(self, rng):
        for _ in range(25):
            a = rand_invertible(rng)
            conj = J0.conjugate(a)
            lhs = plane_of(conj)
            rhs = OrientedPositivePlane(pullback(OMEGA0, a), pullback(PHI0, a))
            assert lhs.spans_same_oriented_plane(rhs)


class TestJOfPlane:
    def test_model_plane_gives_j0(self):
        j = j_of_plane(OrientedPositivePlane(OMEGA0, PHI0))
        res = np.max(np.abs(np.array(j.matrix, dtype=float) - np.array(J0_MATRIX, dtype=float)))
        assert res <= 1e-9

    def test_reversed_orientation_round_trip(self):
        p = OrientedPositivePlane(PHI0, OMEGA0)
        j = j_of_plane(p)
        back = plane_of(j)
        assert back.spans_same_oriented_plane(p, tol=1e-8)
        assert not back.spans_same_oriented_plane(OrientedPositivePlane(OMEGA0, PHI0), tol=1e-8)

    def test_round_trips_random(self, rng):
        for _ in range(40):
            a = rand_invertible(rng)
            plane = OrientedPositivePlane(pullback(OMEGA0, a), pullback(PHI0, a))
            j = j_of_plane(plane)
            assert plane_of(j).spans_same_oriented_plane(plane, tol=1e-8)

            conj = J0.conjugate(a)
            j2 = j_of_plane(plane_of(conj))
            res = np.max(np.abs(np.array(j2.matrix, dtype=float) - np.array(conj.matrix, dtype=float)))
            assert res <= 1e-9

    def test_indefinite_span_rejected(self):
        with pytest.raises(ValueError):
            OrientedPositivePlane(E(4, (1, 2)), E(4, (3, 4)))


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

    def test_overflowing_gram_rejected(self):
        # the pairings are finite (1e200) but the Gram determinant is inf - inf
        with pytest.raises(ValueError, match="overflow"):
            Splitting(OMEGA0 * 1e100, (OMEGA0 + PHI0) * 1e100)

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

    def test_float_splittings_compare_within_tolerance(self):
        assert equivalent(canonical_model(1.0), canonical_model(1.0 + 1e-12))
        assert not equivalent(canonical_model(1.0), canonical_model(1.001))


class TestAct:
    def test_identity(self):
        s = canonical_model(Fraction(3, 2))
        t = act(LinearMap.identity(4), s)
        assert t.line1 == s.line1 and t.line2 == s.line2

    def test_contravariance(self, rng):
        s = canonical_model(Fraction(1, 3))
        for _ in range(10):
            a = rand_invertible(rng)
            b = rand_invertible(rng)
            lhs = act(b, act(a, s))
            rhs = act(a.compose(b), s)
            assert lhs.line1 == rhs.line1 and lhs.line2 == rhs.line2

    def test_orientation_reversal_rejected(self, rng):
        a = rand_invertible(rng, positive=False)
        with pytest.raises(ValueError):
            act(a, canonical_model(1))

    def test_lines_parallel_helper(self):
        assert lines_parallel(OMEGA0, OMEGA0 * Fraction(-7, 2))
        assert not lines_parallel(OMEGA0, PHI0)
