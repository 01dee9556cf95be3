import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeom import (
    OMEGA0,
    PHI0,
    MultiVector,
    VolumeForm,
    act,
    canonical_model,
    conformal_pairing,
    evaluate,
    linalg,
    pairing_signature,
    pullback,
    pullback_pair_independent,
    wedge,
)
from pathgeom.exterior import _normalize_indices
from pathgeom.linalg import rank as exact_rank
from pathgeom.pairs import EllipticPair

from conftest import rand_form, rand_injective_3to4, rand_invertible, rand_vector
from oracles import evaluate_oracle, perm_sign, pullback_oracle, wedge_oracle

E = MultiVector.basis


class TestMultiVector:
    def test_sign_normalization_at_construction(self):
        a = MultiVector.from_terms(4, [((3, 1), Fraction(5))], degree=2)
        assert a.coefficient((1, 3)) == -5
        assert a.coefficient((3, 1)) == 5

    def test_repeated_index_vanishes(self):
        a = MultiVector.from_terms(4, [((2, 2), Fraction(7))], degree=2)
        assert a.is_zero

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.one_of(st.lists(st.integers(1, 12), max_size=12), st.lists(st.integers(1, 12), max_size=12, unique=True)),
           st.integers(-9, 9))
    def test_sign_rule_is_the_sign_of_the_sorting_permutation(self, indices, c):
        """A monomial's sign is that of its sorting permutation, 0 on a repeated index, and ``from_terms`` applies it."""
        repeated = len(set(indices)) < len(indices)
        sign = 0 if repeated else perm_sign(sorted(range(len(indices)), key=indices.__getitem__))
        idx = tuple(sorted(indices))
        got_idx, got_sign = _normalize_indices(indices)
        assert got_sign == sign and (repeated or got_idx == idx)
        expected = MultiVector(12, len(indices), {} if repeated else {idx: c * sign})
        assert MultiVector.from_terms(12, [(indices, c)], degree=len(indices)) == expected

    def test_coefficient_of_another_length_is_zero_at_once(self):
        """A tuple of another length than the degree names no term, and is answered without sorting it."""
        start = time.perf_counter()
        assert OMEGA0.coefficient(tuple(range(5000, 0, -1))) == 0
        assert time.perf_counter() - start < 0.5
        assert OMEGA0.coefficient((3,)) == 0

    def test_zero_coefficients_dropped(self):
        a = MultiVector(4, 2, {(1, 2): Fraction(0)})
        assert a.is_zero and a.terms == {}

    def test_degree_and_range_validation(self):
        with pytest.raises(ValueError):
            MultiVector(4, 2, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ValueError):
            MultiVector(4, 2, {(0, 2): Fraction(1)})
        with pytest.raises(ValueError):
            MultiVector(4, 2, {(3, 5): Fraction(1)})
        with pytest.raises(ValueError):
            MultiVector(13, 2, {})

    def test_unsorted_index_tuple_refused_at_construction(self):
        """The constructor takes sorted tuples only; ``from_terms`` is the door for unsorted ones."""
        with pytest.raises(ValueError, match=r"index tuple \(3, 1\) is not strictly increasing"):
            MultiVector(4, 2, {(3, 1): 1})

    def test_float_coefficient_is_its_binary_value(self):
        a = MultiVector(4, 2, {(1, 2): Fraction(1)})
        b = MultiVector(4, 2, {(1, 2): 0.5, (3, 4): 0.1})
        assert b.terms == {(1, 2): Fraction(1, 2), (3, 4): Fraction(3602879701896397, 36028797018963968)}
        assert (a + b).coefficient((1, 2)) == Fraction(3, 2)
        assert all(type(c) is Fraction for c in (a + b * 0.25).terms.values())
        # JSON text is decimal: the same 0.1 read from a payload is 1/10
        read = MultiVector.from_json({"dim": 4, "degree": 2, "terms": [{"idx": [3, 4], "c": 0.1}]})
        assert read.terms == {(3, 4): Fraction(1, 10)}

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_refused(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            MultiVector(4, 2, {(1, 2): value})
        with pytest.raises(ValueError, match="non-finite"):
            OMEGA0 * value

    def test_json_round_trip(self):
        a = MultiVector(4, 2, {(1, 3): Fraction(-7, 3), (2, 4): 1.25})
        data = a.to_json()
        assert {"idx": [1, 3], "c": "-7/3"} in data["terms"]
        assert MultiVector.from_json(data) == a

    def test_arithmetic_dim_mismatch(self):
        with pytest.raises(ValueError):
            MultiVector.basis(4, (1, 2)) + MultiVector.basis(5, (1, 2))


class TestWedge:
    def test_model_pair_squares(self):
        sq = wedge(OMEGA0, OMEGA0)
        expected = MultiVector(4, 4, {(1, 2, 3, 4): Fraction(2)})
        assert sq == expected
        assert wedge_oracle(OMEGA0, OMEGA0) == expected

    def test_repeated_factor_vanishes(self):
        assert wedge(E(4, (1,)), E(4, (1,))).is_zero

    def test_model_pair_orthogonal(self):
        assert wedge(OMEGA0, PHI0).is_zero
        assert wedge_oracle(OMEGA0, PHI0).is_zero

    def test_against_oracle_random(self, rng):
        for _ in range(30):
            dim = rng.randint(3, 6)
            p = rng.randint(1, 2)
            q = rng.randint(1, min(2, dim - p))
            a = rand_form(rng, dim, p, nterms=3)
            b = rand_form(rng, dim, q, nterms=3)
            assert wedge(a, b) == wedge_oracle(a, b)

    def test_graded_anticommutativity(self, rng):
        for _ in range(30):
            dim = rng.randint(3, 6)
            p = rng.randint(1, dim - 1)
            q = rng.randint(1, dim - p)
            a = rand_form(rng, dim, p, nterms=4)
            b = rand_form(rng, dim, q, nterms=4)
            lhs = wedge(a, b)
            rhs = wedge(b, a) * Fraction((-1) ** (p * q))
            assert lhs == rhs

    def test_associativity_and_bilinearity(self, rng):
        for _ in range(20):
            dim = rng.randint(4, 6)
            a = rand_form(rng, dim, 1, nterms=3)
            b = rand_form(rng, dim, 1, nterms=3)
            c = rand_form(rng, dim, 2, nterms=3)
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            s = Fraction(3, 7)
            assert wedge(a * s + b, c) == wedge(a, c) * s + wedge(b, c)

    def test_degree_overflow_rejected(self):
        a = MultiVector.basis(3, (1, 2))
        with pytest.raises(ValueError):
            wedge(a, a)

    def test_degree_sum_equal_dim_allowed(self):
        out = wedge(E(4, (1, 2)), E(4, (1, 2)))
        assert out.degree == 4 and out.is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(E(4, (1,)), E(5, (1,)))


class TestEvaluate:
    def test_dual_pairing(self):
        assert evaluate(OMEGA0, [[1, 0, 0, 0], [0, 0, 1, 0]]) == 1
        assert evaluate(OMEGA0, [[0, 1, 0, 0], [0, 0, 0, 1]]) == -1

    def test_combined_components(self):
        # the vector pair used by the flag integrality check downstream
        v1 = [0, 0, 0, 1]
        v2 = [1, 1, 0, 0]
        assert evaluate(PHI0, [v1, v2]) == -1
        assert evaluate_oracle(PHI0, [v1, v2]) == -1

    def test_against_oracle_random(self, rng):
        for _ in range(30):
            dim = rng.randint(3, 6)
            k = rng.randint(1, 3)
            form = rand_form(rng, dim, k, nterms=4)
            vecs = [rand_vector(rng, dim) for _ in range(k)]
            assert evaluate(form, vecs) == evaluate_oracle(form, vecs)

    def test_antisymmetry(self, rng):
        form = rand_form(rng, 5, 2, nterms=4)
        v, w = rand_vector(rng, 5), rand_vector(rng, 5)
        assert evaluate(form, [v, w]) == -evaluate(form, [w, v])

    def test_wedge_evaluation_shuffle_identity(self, rng):
        # degree (2,1): (α∧β)(v1,v2,v3) expands into the three shuffles
        for _ in range(10):
            alpha = rand_form(rng, 4, 2, nterms=3)
            beta = rand_form(rng, 4, 1, nterms=3)
            v1, v2, v3 = (rand_vector(rng, 4) for _ in range(3))
            lhs = evaluate(wedge(alpha, beta), [v1, v2, v3])
            rhs = (
                evaluate(alpha, [v1, v2]) * evaluate(beta, [v3])
                - evaluate(alpha, [v1, v3]) * evaluate(beta, [v2])
                + evaluate(alpha, [v2, v3]) * evaluate(beta, [v1])
            )
            assert lhs == rhs

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(OMEGA0, [[1, 0, 0, 0]])

    @pytest.mark.parametrize("c", [Fraction(-7, 3), Fraction(0), Fraction(5)])
    def test_degree_zero_is_its_constant(self, c):
        """A 0-form on no vectors: the 0×0 minor is 1."""
        assert evaluate(MultiVector(4, 0, {(): c}), []) == c
        with pytest.raises(ValueError):
            evaluate(MultiVector(4, 0, {(): c}), [[1, 0, 0, 0]])


def int_matrices(rows: int, cols: int):
    """rows×cols integer matrices with entries in [−3, 3], as lists of rows."""
    row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows)


class TestPullback:
    def test_identity(self, rng):
        form = rand_form(rng, 4, 2)
        assert pullback(form, linalg.identity(4)) == form

    def test_basis_swap_flips_sign(self):
        swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert pullback(E(4, (1, 2)), swap) == E(4, (1, 2)) * Fraction(-1)

    def test_rank_two_map_can_kill_a_form(self):
        # image spans a Lagrangian plane of omega0
        a = ((1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0))
        assert pullback(OMEGA0, a).is_zero

    def test_injective_pullback_of_model_pair_independent(self, rng):
        for _ in range(25):
            a = rand_injective_3to4(rng)
            b1 = pullback(OMEGA0, a)
            b2 = pullback(PHI0, a)
            assert exact_rank([b1.components(), b2.components()]) == 2

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(a=int_matrices(4, 4), b=st.sampled_from((4, 3)).flatmap(lambda m: int_matrices(4, m)),
           degree=st.integers(0, 3), coeffs=st.lists(st.fractions(-5, 5, max_denominator=6), min_size=6, max_size=6))
    def test_functoriality(self, a, b, degree, coeffs):
        """(AB)* = B*A*, exactly, for integer A (4×4) and B (4×4 or 4×3), singular ones included."""
        form = MultiVector(4, degree, dict(zip(combinations(range(1, 5), degree), coeffs)))
        assert pullback(pullback(form, a), b) == pullback(form, linalg.matmul(a, b))

    def test_naturality_with_wedge(self, rng):
        for _ in range(10):
            a = rand_invertible(rng)
            f = rand_form(rng, 4, 1, nterms=3)
            g = rand_form(rng, 4, 2, nterms=3)
            assert pullback(wedge(f, g), a) == wedge(pullback(f, a), pullback(g, a))

    def test_against_oracle(self, rng):
        for _ in range(15):
            a = rand_injective_3to4(rng)
            form = rand_form(rng, 4, 2, nterms=4)
            assert pullback(form, a) == pullback_oracle(form, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pullback(MultiVector.basis(5, (1, 2)), linalg.identity(4))

    @pytest.mark.parametrize("c", [Fraction(-7, 3), Fraction(0), Fraction(5)])
    def test_degree_zero_keeps_its_constant(self, rng, c):
        """A 0-form pulls back to the same constant on the source space: the 0×0 minor is 1."""
        a = rand_injective_3to4(rng)
        assert pullback(MultiVector(4, 0, {(): c}), a) == MultiVector(3, 0, {(): c})
        assert pullback(MultiVector(4, 0, {(): c}), a) == pullback_oracle(MultiVector(4, 0, {(): c}), a)


ID4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
RAGGED = ((1, 0, 0, 0), (0, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
HUGE = (("1e5000", 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
MODEL_PAIR = EllipticPair(OMEGA0, PHI0)


@pytest.mark.parametrize("call, message", [
    (lambda: pullback(OMEGA0, RAGGED), "ragged"),
    (lambda: act(RAGGED, canonical_model(1)), "ragged"),
    (lambda: pullback_pair_independent(MODEL_PAIR, ((1, 0, 0), (0, 1), (0, 0, 1), (0, 0, 0))), "ragged"),
    (lambda: pullback(OMEGA0, []), "map targets dim 0"),
    (lambda: act([], canonical_model(1)), "endomorphism"),
    (lambda: pullback_pair_independent(MODEL_PAIR, []), "3-space into the 4-space"),
    (lambda: pullback(OMEGA0, HUGE), "decimal exponents"),
    (lambda: act(HUGE, canonical_model(1)), "decimal exponents"),
    (lambda: pullback_pair_independent(MODEL_PAIR, [row[:3] for row in HUGE]), "decimal exponents"),
    (lambda: pullback(MultiVector.basis(5, (1, 2)), ID4), "map targets dim 4"),
    (lambda: act(ID4[:3], canonical_model(1)), "endomorphism"),
    (lambda: act(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), canonical_model(1)), "orientation"),
    (lambda: act(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)), canonical_model(1)), "orientation"),
    (lambda: pullback_pair_independent(MODEL_PAIR, ID4), "3-space into the 4-space"),
    (lambda: pullback_pair_independent(MODEL_PAIR, ((1, 0, 0), (0, 1, 0), (0, 0, 0), (2, 3, 0))), "not injective"),
], ids=["ragged-pullback", "ragged-act", "ragged-pair", "empty-pullback", "empty-act", "empty-pair",
        "huge-pullback", "huge-act", "huge-pair", "dim-mismatch-pullback", "3x4-act", "det-negative-act",
        "det-zero-act", "4x4-pair", "rank-2-pair"])
def test_matrix_takers_refuse(call, message):
    """Each refusal of the three functions that take a map's matrix of rows."""
    with pytest.raises(ValueError, match=message):
        call()


class TestConformalPairing:
    def test_model_values(self):
        assert conformal_pairing(OMEGA0, OMEGA0) == 2
        assert conformal_pairing(OMEGA0, PHI0) == 0
        assert conformal_pairing(PHI0, PHI0) == 2

    def test_decomposable_is_null(self):
        assert conformal_pairing(E(4, (1, 2)), E(4, (1, 2))) == 0

    def test_symmetry_and_bilinearity(self, rng):
        for _ in range(20):
            a = rand_form(rng, 4, 2, nterms=4)
            b = rand_form(rng, 4, 2, nterms=4)
            c = rand_form(rng, 4, 2, nterms=4)
            assert conformal_pairing(a, b) == conformal_pairing(b, a)
            s = Fraction(-5, 3)
            assert conformal_pairing(a * s + b, c) == s * conformal_pairing(a, c) + conformal_pairing(b, c)

    def test_epsilon_scaling(self):
        assert conformal_pairing(OMEGA0, OMEGA0, VolumeForm(Fraction(2))) == 1

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            VolumeForm(0)

    def test_gram_matrix_rank_six(self):
        from itertools import combinations

        basis = [E(4, idx) for idx in combinations(range(1, 5), 2)]
        g = [[conformal_pairing(x, y) for y in basis] for x in basis]
        assert exact_rank(g) == 6


class TestPairingSignature:
    def test_default_volume(self):
        assert pairing_signature() == (3, 3)

    def test_scaled_volume(self):
        assert pairing_signature(VolumeForm(Fraction(7))) == (3, 3)

    def test_negated_volume_swaps_families(self):
        assert pairing_signature(VolumeForm(Fraction(-1))) == (3, 3)
        # the eigenspace families swap: self-pairings change sign
        assert conformal_pairing(OMEGA0, OMEGA0, VolumeForm(Fraction(-1))) == -2


def test_exact_operations_are_reproducible(rng):
    a = rand_form(rng, 4, 2)
    b = rand_form(rng, 4, 2)
    first = wedge(a, b)
    second = wedge(a, b)
    assert first == second and all(type(c) is Fraction for c in first.terms.values())
    assert conformal_pairing(a, b) == conformal_pairing(a, b)
