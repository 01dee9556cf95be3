from fractions import Fraction

import pytest

from pathgeom import (
    J0_MATRIX,
    ParamMap,
    Poly,
    PolyForm3,
    adapted_coframe_at,
    affine_plane_model,
    compatibility_check,
    cr_structure_at,
    heisenberg_model,
    is_nondegenerate_at,
    line_fields_at,
    pullback_splitting,
    sphere_chart_model,
    star_coefficients,
)
from pathgeom.hypersurface import (
    contact_value_at,
    coframe_residual,
    point_record,
    sample_report,
)
from pathgeom.linalg import matvec, rank, span_equal

from conftest import rand_fraction
from oracles import contact_scalar


def rand_point(rng, lo=-5, hi=5, den=7):
    return [rand_fraction(rng, lo, hi, den) for _ in range(3)]


def constant_form(b):
    return PolyForm3(tuple(Poly.constant(Fraction(x), 3) for x in b))


X1, X2, X3 = (Poly.variable(i, 3) for i in range(3))


class TestPullbackSplitting:
    def test_heisenberg_betas(self):
        beta1, beta2 = pullback_splitting(heisenberg_model())
        assert beta1.b == (2 * X2, Poly.zero(3), Poly.constant(-1, 3))
        assert beta2.b == (2 * X3, Poly.constant(1, 3), Poly.zero(3))

    def test_affine_plane_betas(self):
        beta1, beta2 = pullback_splitting(affine_plane_model())
        # beta1 = dx1^dx3, beta2 = dx2^dx3 in star coordinates
        assert beta1.b == (Poly.zero(3), Poly.constant(-1, 3), Poly.zero(3))
        assert beta2.b == (Poly.constant(1, 3), Poly.zero(3), Poly.zero(3))

    def test_translation_invariance(self):
        u = heisenberg_model()
        shifted = ParamMap(tuple(c + Fraction(k + 1, 3) for k, c in enumerate(u.components)))
        b = pullback_splitting(u)
        bs = pullback_splitting(shifted)
        assert b[0].b == bs[0].b and b[1].b == bs[1].b

    def test_independence_at_immersion_points(self, rng):
        # rank-3 Jacobian forces independent pullbacks (exact cross product)
        for _ in range(10):
            graph = ParamMap((X1, X2, X3, X1 * X2 + X3 * X3 * X2))
            beta1, beta2 = pullback_splitting(graph)
            pt = rand_point(rng)
            from pathgeom.hypersurface import _cross

            assert any(x != 0 for x in _cross(beta1.b_at(pt), beta2.b_at(pt)))


class TestStarCoefficients:
    def test_basis_slots(self):
        assert star_coefficients({(2, 3): 1}) == (1, 0, 0)
        assert star_coefficients({(1, 2): 1}) == (0, 0, 1)
        assert star_coefficients({(3, 1): 1}) == (0, 1, 0)

    def test_heisenberg_beta1_encoding(self):
        # beta1 = dw1^dt + 2 w1 dw1^dw2 with (x1,x2,x3) = (t,w1,w2)
        coeffs = {(1, 2): Poly.constant(-1, 3), (2, 3): 2 * X2}
        b = star_coefficients(coeffs)
        assert b == (2 * X2, Poly.zero(3), Poly.constant(-1, 3))

    def test_polyform_accessor(self):
        pf = constant_form((3, -2, 5))
        assert star_coefficients(pf) == pf.b


class TestAdaptedCoframe:
    def test_worked_example(self):
        beta1 = constant_form((0, 0, 1))
        beta2 = constant_form((1, 0, 0))
        frame = adapted_coframe_at(beta1, beta2, [0, 0, 0])
        assert frame.eta1 == pytest.approx((-1, 0, 0))
        assert frame.eta2 == pytest.approx((0, 1, 0))
        assert frame.eta3 == pytest.approx((0, 0, 1))

    def test_dependent_forms_rejected(self):
        b = constant_form((2, -1, 3))
        with pytest.raises(ValueError):
            adapted_coframe_at(b, b, [0, 0, 0])

    def test_random_reconstruction(self, rng):
        for _ in range(100):
            b1 = [rand_fraction(rng) for _ in range(3)]
            b2 = [rand_fraction(rng) for _ in range(3)]
            from pathgeom.hypersurface import _cross

            if all(x == 0 for x in _cross(b1, b2)):
                continue
            frame = adapted_coframe_at(constant_form(b1), constant_form(b2), [0, 0, 0])
            assert coframe_residual(frame, b1, b2) <= 1e-10
            assert abs(frame.volume()) > 1e-10


class TestLineFields:
    def test_worked_example(self):
        beta1 = constant_form((0, 0, 1))
        beta2 = constant_form((1, 0, 0))
        s = line_fields_at(beta1, beta2, [0, 0, 0])
        assert s.p1 == (0, 0, 1)  # parallel to the third coordinate direction
        assert s.p2 == (1, 0, 0)

    def test_heisenberg_origin_exact_directions(self):
        beta1, beta2 = pullback_splitting(heisenberg_model())
        s = line_fields_at(beta1, beta2, [0, 0, 0])
        assert s.p1 == (0, 0, -1)  # the w2 coordinate line
        assert s.p2 == (0, 1, 0)  # the w1 coordinate line
        assert all(isinstance(x, Fraction) for x in s.p1 + s.p2)  # exact path
        assert s.contact

    def test_scaling_leaves_lines_unchanged(self, rng):
        beta1, beta2 = pullback_splitting(heisenberg_model())
        pt = rand_point(rng)
        s = line_fields_at(beta1, beta2, pt)
        t = line_fields_at(beta1.scaled(Fraction(-7, 3)), beta2.scaled(Fraction(5)), pt)
        assert rank([list(s.p1), list(t.p1)]) == 1
        assert rank([list(s.p2), list(t.p2)]) == 1
        assert s.contact == t.contact

    def test_degenerate_point_rejected(self):
        b = constant_form((1, 0, 0))
        with pytest.raises(ValueError):
            line_fields_at(b, b, [0, 0, 0])


class TestContact:
    def test_heisenberg_contact_everywhere(self, rng):
        beta1, beta2 = pullback_splitting(heisenberg_model())
        assert contact_scalar(beta1, beta2) == Poly.constant(4, 3)
        for _ in range(25):
            assert is_nondegenerate_at(beta1, beta2, rand_point(rng))

    def test_affine_plane_never_contact(self, rng):
        beta1, beta2 = pullback_splitting(affine_plane_model())
        assert contact_scalar(beta1, beta2).is_zero
        for _ in range(10):
            assert not is_nondegenerate_at(beta1, beta2, rand_point(rng))

    def test_pointwise_matches_symbolic(self, rng):
        u = ParamMap((X1, X2, X3, X1 * X1 * X2 + X3 * X3))
        beta1, beta2 = pullback_splitting(u)
        symbolic = contact_scalar(beta1, beta2)
        for _ in range(20):
            pt = rand_point(rng)
            assert contact_value_at(beta1, beta2, pt) == symbolic(pt)

    def test_scaling_invariance(self, rng):
        beta1, beta2 = pullback_splitting(heisenberg_model())
        pt = rand_point(rng)
        scaled = (beta1.scaled(Fraction(3, 7)), beta2.scaled(Fraction(-2)))
        assert is_nondegenerate_at(*scaled, pt) == is_nondegenerate_at(beta1, beta2, pt)

    def test_sphere_chart_contact(self, rng):
        beta1, beta2 = pullback_splitting(sphere_chart_model())
        for _ in range(10):
            assert is_nondegenerate_at(beta1, beta2, rand_point(rng, -2, 2, 5))


class TestCRStructure:
    def test_heisenberg_origin(self):
        cr = cr_structure_at(heisenberg_model(), [0, 0, 0])
        expected = [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0]]
        assert span_equal([list(b) for b in cr.d_basis], expected)
        i = cr.i_matrix
        assert i[0][0] + i[1][1] == 0  # trace zero
        assert i[0][0] * i[1][1] - i[0][1] * i[1][0] == 1  # det one

    def test_affine_plane_cr_is_valid(self):
        cr = cr_structure_at(affine_plane_model(), [Fraction(1, 2), 0, Fraction(1, 3)])
        assert span_equal([list(b) for b in cr.d_basis], [[Fraction(1), 0, 0, 0], [0, Fraction(1), 0, 0]])

    def test_i_matrix_is_restriction_of_j0(self, rng):
        u = heisenberg_model()
        for _ in range(10):
            cr = cr_structure_at(u, rand_point(rng))
            d1, d2 = (list(b) for b in cr.d_basis)
            j0 = [[Fraction(x) for x in row] for row in J0_MATRIX]
            for k, d in enumerate((d1, d2)):
                image = matvec(j0, d)
                combo = [
                    cr.i_matrix[0][k] * a + cr.i_matrix[1][k] * b for a, b in zip(d1, d2)
                ]
                assert image == combo

    def test_param_basis_maps_to_d(self, rng):
        u = sphere_chart_model()
        pt = rand_point(rng, -2, 2, 5)
        cr = cr_structure_at(u, pt)
        jac = u.jacobian_at(pt)
        for w, d in zip(cr.param_basis, cr.d_basis):
            assert matvec(jac, list(w)) == list(d)

    def test_commuting_postcomposition(self, rng):
        # L = 2 Id + 3 J0 commutes with J0: D transforms by L, I conjugates
        u = heisenberg_model()
        l_rows = [
            [2 * Fraction(int(i == j)) + 3 * Fraction(J0_MATRIX[i][j]) for j in range(4)]
            for i in range(4)
        ]
        composed = ParamMap(tuple(
            sum((l_rows[i][j] * u.components[j] for j in range(4)), Poly.zero(3))
            for i in range(4)
        ))
        for _ in range(5):
            pt = rand_point(rng)
            cr = cr_structure_at(u, pt)
            cr2 = cr_structure_at(composed, pt)
            mapped = [matvec(l_rows, list(d)) for d in cr.d_basis]
            assert span_equal(mapped, [list(d) for d in cr2.d_basis])
            tr2 = cr2.i_matrix[0][0] + cr2.i_matrix[1][1]
            det2 = cr2.i_matrix[0][0] * cr2.i_matrix[1][1] - cr2.i_matrix[0][1] * cr2.i_matrix[1][0]
            assert (tr2, det2) == (0, 1)  # conjugacy class of the rotation

    def test_rank_drop_detected(self):
        degenerate = ParamMap((X1, X1, X1, X1))
        with pytest.raises(ValueError, match="immersion"):
            cr_structure_at(degenerate, [1, 1, 1])


class TestCompatibility:
    def test_heisenberg_random_points(self, rng):
        u = heisenberg_model()
        betas = pullback_splitting(u)
        for _ in range(20):
            assert compatibility_check(u, rand_point(rng), betas=betas)

    def test_sphere_chart_points(self, rng):
        u = sphere_chart_model()
        betas = pullback_splitting(u)
        for _ in range(5):
            assert compatibility_check(u, rand_point(rng, -2, 2, 5), betas=betas)

    def test_affine_plane_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            compatibility_check(affine_plane_model(), [0, Fraction(1, 2), 0])


class TestSphereChart:
    def test_lands_on_unit_sphere(self, rng):
        u = sphere_chart_model()
        for _ in range(10):
            pt = rand_point(rng)
            v = [c(pt) for c in u.components]
            assert sum(x * x for x in v) == 1

    def test_is_immersion(self, rng):
        u = sphere_chart_model()
        u.jacobian_at(rand_point(rng))  # raises on rank drop


class TestReports:
    def test_heisenberg_record_shape(self):
        rec = point_record(heisenberg_model(), [0, Fraction(1, 2), Fraction(1, 3)])
        assert rec["contact"] is True and rec["compatible"] is True
        assert "error" not in rec
        assert set(rec) >= {"point", "b1", "b2", "coframe", "P1", "P2", "cr"}

    def test_far_sphere_chart_point_is_complete(self):
        # |b| ~ 1e-5 here, so an absolute bound on the coframe volume called it degenerate
        rec = point_record(sphere_chart_model(), [-19, 14, 1])
        assert "error" not in rec
        assert rec["contact"] is True and rec["compatible"] is True
        assert set(rec) >= {"point", "b1", "b2", "coframe", "P1", "P2", "cr"}

    def test_affine_plane_flagged_not_fatal(self):
        rec = point_record(affine_plane_model(), [0, 0, 0])
        assert rec["contact"] is False and rec["compatible"] is None
        assert "error" not in rec

    def test_rank_drop_flagged(self):
        rec = point_record(ParamMap((X1, X1, X1, X1)), [1, 2, 3])
        assert "error" in rec

    def test_sample_report_order(self, rng):
        pts = [rand_point(rng) for _ in range(3)]
        recs = sample_report(heisenberg_model(), pts)
        assert [r["point"] for r in recs] == [
            [f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in p] for p in pts
        ]


class TestSerialization:
    def test_polymap_round_trip(self):
        u = heisenberg_model()
        data = u.to_json()
        assert data["vars"] == ["x1", "x2", "x3"] and "type" not in data
        back = ParamMap.from_json(data)
        assert back.components == u.components
        assert back.to_json() == data

    def test_rational_map_round_trip(self):
        u = sphere_chart_model()
        data = u.to_json()
        assert data["type"] == "rational"
        back = ParamMap.from_json(data)
        for a, b in zip(back.components, u.components):
            assert a == b
        assert back.to_json() == data
