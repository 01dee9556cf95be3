import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathgeom import (
    DEFAULT_VOLUME,
    OMEGA0,
    PHI0,
    EllipticPair,
    MultiVector,
    NormalForm,
    VolumeForm,
    conformal_pairing,
    is_elliptic,
    is_symplectic,
    kappa_invariant,
    kappa_invariant_squared,
    normal_form,
    orthogonalize,
    pullback,
    pullback_pair_independent,
)
from pathgeom.linalg import det
from pathgeom.pairs import DEFAULT_TOL, reconstruction_residual

from conftest import rand_form, rand_injective_3to4, rand_orthogonal_elliptic_pair
from oracles import gram_definiteness_oracle, sampled_symplectic_probe, wedge_oracle

E = MultiVector.basis


class TestSymplectic:
    def test_model(self):
        assert is_symplectic(OMEGA0)

    def test_decomposable(self):
        assert not is_symplectic(E(4, (1, 2)))

    def test_sum_of_model_pair(self):
        tau = OMEGA0 + PHI0
        assert conformal_pairing(tau, tau) == 4
        assert is_symplectic(tau)


class TestElliptic:
    def test_model_pair(self):
        assert is_elliptic(OMEGA0, PHI0)

    def test_equal_forms_fail(self):
        assert not is_elliptic(OMEGA0, OMEGA0)

    def test_null_pair_fails(self):
        assert not is_elliptic(E(4, (1, 2)), E(4, (3, 4)))

    def test_matches_gram_definiteness_oracle(self, rng):
        hits = 0
        for _ in range(120):
            a = rand_form(rng, 4, 2, nterms=4)
            b = rand_form(rng, 4, 2, nterms=4)
            if a.is_zero or b.is_zero:
                continue
            verdict = is_elliptic(a, b)
            assert verdict == gram_definiteness_oracle(a, b, DEFAULT_VOLUME)
            if verdict:
                hits += 1
                # sampled probe: every nonzero combination symplectic
                assert sampled_symplectic_probe(a, b, DEFAULT_VOLUME)
        assert hits > 0  # the sample actually explored both branches

    def test_nonelliptic_controls_covered(self, rng):
        assert not is_elliptic(E(4, (1, 2)), E(4, (1, 3)))


@pytest.mark.parametrize("bad", [E(4, (1, 2, 3)), E(5, (1, 2)) + E(5, (3, 4))], ids=["3-form", "dim-5"])
@pytest.mark.parametrize("call", [
    lambda f: is_symplectic(f),
    lambda f: is_elliptic(f, PHI0),
    lambda f: is_elliptic(OMEGA0, f),
    lambda f: orthogonalize(f, PHI0),
    lambda f: orthogonalize(OMEGA0, f),
    lambda f: EllipticPair(f, PHI0),
    lambda f: EllipticPair(OMEGA0, f),
], ids=["is_symplectic", "is_elliptic-omega", "is_elliptic-phi", "orthogonalize-omega", "orthogonalize-phi",
        "EllipticPair-omega", "EllipticPair-phi"])
def test_entry_points_refuse_what_is_not_a_2_form_on_the_4_space(call, bad):
    """The wedge pairing each entry point takes first refuses the form."""
    with pytest.raises(ValueError, match="2-forms on a 4-space"):
        call(bad)


class TestOrthogonalize:
    def test_already_orthogonal(self):
        assert orthogonalize(OMEGA0, PHI0) == PHI0

    def test_self_projection(self):
        assert orthogonalize(OMEGA0, OMEGA0).is_zero

    def test_oblique_combination(self):
        assert orthogonalize(OMEGA0, OMEGA0 * Fraction(3) + PHI0) == PHI0

    def test_idempotent_exact(self, rng):
        for _ in range(20):
            a = rand_form(rng, 4, 2, nterms=4)
            if conformal_pairing(a, a) == 0:
                continue
            b = rand_form(rng, 4, 2, nterms=4)
            once = orthogonalize(a, b)
            assert orthogonalize(a, once) == once
            assert conformal_pairing(a, once) == 0

    def test_nonsymplectic_rejected(self):
        with pytest.raises(ValueError):
            orthogonalize(E(4, (1, 2)), PHI0)


class TestKappa:
    def test_model(self):
        pair = EllipticPair(OMEGA0, PHI0)
        assert kappa_invariant_squared(pair) == 1
        assert kappa_invariant(pair) == 1.0

    def test_scaled_phi(self):
        pair = EllipticPair(OMEGA0, PHI0 * Fraction(2))
        assert kappa_invariant_squared(pair) == 4
        assert kappa_invariant(pair) == 2.0

    def test_joint_scaling_cancels(self):
        pair = EllipticPair(OMEGA0 * Fraction(5), PHI0 * Fraction(5))
        assert kappa_invariant_squared(pair) == 1

    def test_invariance_under_pullback(self, rng):
        for _ in range(40):
            pair, kappa, a = rand_orthogonal_elliptic_pair(rng)
            assert kappa_invariant_squared(pair) == kappa * kappa
            assert abs(kappa_invariant(pair) - float(kappa)) <= 1e-9

    def test_nonorthogonal_rejected(self):
        pair = EllipticPair(OMEGA0, OMEGA0 * Fraction(1, 3) + PHI0)
        with pytest.raises(ValueError):
            kappa_invariant(pair)

    def test_nonelliptic_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EllipticPair(OMEGA0, OMEGA0)


class TestNormalForm:
    def test_model_pair_gives_identity_coframe(self):
        nf = normal_form(EllipticPair(OMEGA0, PHI0))
        assert nf.kappa == pytest.approx(1.0, abs=1e-12)
        assert not nf.epsilon_flipped
        for i in range(4):
            for j in range(4):
                assert nf.basis[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_scaled_phi_kappa_two(self):
        nf = normal_form(EllipticPair(OMEGA0, PHI0 * Fraction(2)))
        assert nf.kappa == pytest.approx(2.0, abs=1e-12)

    def test_random_pairs_reconstruct(self, rng):
        worst = 0.0
        for _ in range(60):
            pair, kappa, _ = rand_orthogonal_elliptic_pair(rng)
            nf = normal_form(pair)
            worst = max(worst, reconstruction_residual(pair, nf))
            assert abs(nf.kappa - float(kappa)) <= 1e-9 * max(1.0, float(kappa))
        assert worst <= 1e-9

    def test_negative_pairings_flip_epsilon(self, rng):
        for _ in range(20):
            pair, _, a = rand_orthogonal_elliptic_pair(rng, allow_flip=True)
            ww = conformal_pairing(pair.omega, pair.omega)
            nf = normal_form(pair)
            assert nf.epsilon_flipped == (ww < 0)
            assert reconstruction_residual(pair, nf) <= 1e-9

    def test_nonorthogonal_rejected(self):
        with pytest.raises(ValueError):
            normal_form(EllipticPair(OMEGA0, OMEGA0 * Fraction(1, 2) + PHI0))

    def test_json_round_trip(self):
        nf = normal_form(EllipticPair(OMEGA0, PHI0 * Fraction(3)))
        data = nf.to_json()
        assert set(data) == {"kappa", "basis", "epsilon_flipped"}
        back = NormalForm.from_json(data)
        assert back == nf

    def test_parallel_contractions_are_refused(self):
        # φ's e¹-row is exactly ½ω's, so ∂₁ is a real eigenvector of A and the
        # pair is not elliptic; its exact Gram says so, where a float Gram rounded to elliptic
        omega = MultiVector(4, 2, {
            (1, 2): 0.08282494558699316, (1, 3): 0.8782983255570211, (1, 4): -0.23759152462357513,
            (2, 3): -0.5668012057387732, (2, 4): -0.15576684883456537, (3, 4): -0.9419184248502641})
        phi = MultiVector(4, 2, {
            (1, 2): 0.04141247279349658, (1, 3): 0.43914916277851057, (1, 4): -0.11879576231178757,
            (2, 3): -0.2834006028068198, (2, 4): -0.07788342431308401, (3, 4): -0.47095921241259037})
        with pytest.raises(ValueError, match="not elliptic"):
            EllipticPair(omega, phi)

    def test_keeps_the_residual_it_checked(self):
        pair = EllipticPair(OMEGA0 * 2, PHI0 * Fraction(3))
        nf = normal_form(pair)
        assert nf.residual == reconstruction_residual(pair, nf)
        assert "residual" not in nf.to_json()
        assert NormalForm.from_json(nf.to_json()).residual is None

    @pytest.mark.parametrize("scale", [Fraction(10) ** 155, Fraction(10) ** -300], ids=["1e155", "1e-300"])
    def test_basis_in_floats_whose_rows_over_kappa_squared_are_not(self, scale):
        """ω = sω₀, φ = φ₀ has κ = 1/s and the basis diag(1, 1, s, s); rows 2 and 4 over κ² are s²-sized."""
        pair = EllipticPair(OMEGA0 * scale, PHI0)
        nf = normal_form(pair)
        s = float(scale)
        assert nf.kappa == float(1 / scale)
        assert nf.basis == ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, s, 0.0), (0.0, 0.0, 0.0, s))
        assert nf.residual <= DEFAULT_TOL * max(pair.omega.norm_inf(), pair.phi.norm_inf())

    @pytest.mark.parametrize("omega, phi", [
        (OMEGA0 * Fraction(10) ** 2000, PHI0),
        (OMEGA0, PHI0 * Fraction(10) ** -2000),
        (OMEGA0 * Fraction(10) ** 400, PHI0 * Fraction(10) ** 400),
    ], ids=["kappa-1e-2000-large-omega", "kappa-1e-2000-small-phi", "basis-entry-1e400"])
    def test_beyond_the_float_range_is_named(self, omega, phi):
        with pytest.raises(ValueError, match="float range"):
            normal_form(EllipticPair(omega, phi))


def _orient(entries) -> list:
    rows = [list(entries[i:i + 4]) for i in range(0, 16, 4)]
    if det(rows) < 0:
        rows[0] = [-x for x in rows[0]]
    return rows


GL_PLUS = st.lists(st.integers(-3, 3), min_size=16, max_size=16).filter(
    lambda e: det([e[i:i + 4] for i in range(0, 16, 4)]) != 0).map(_orient)
EPSILON_COEFFICIENTS = [Fraction(s * n, d) for s in (1, -1) for n, d in ((1, 2), (1, 1), (3, 1))]


class TestAnyVolumeForm:
    """ε = c·e¹²³⁴ of either sign: the same κ as under c = 1, and the flip recorded iff c < 0."""

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(a=GL_PLUS, kappa=st.fractions(Fraction(1, 4), 6, max_denominator=4), c=st.sampled_from(EPSILON_COEFFICIENTS))
    def test_normal_form_under_scaled_epsilon(self, a, kappa, c):
        omega, phi = pullback(OMEGA0, a), pullback(PHI0 * kappa, a)
        unit = normal_form(EllipticPair(omega, phi))
        nf = normal_form(EllipticPair(omega, phi, VolumeForm(c)))
        assert nf.epsilon_flipped == (c < 0)
        assert nf.kappa == pytest.approx(unit.kappa, rel=1e-15)
        assert nf.residual <= 1e-9 * max(omega.norm_inf(), phi.norm_inf())


def ill_conditioned_float_pair(seed: int) -> EllipticPair:
    """Float GL⁺ pullback of (ω₀, κφ₀): first-row entries scaled by up to 1e7, κ in 10^[−9, 9]."""
    rng = random.Random(seed)
    a = [[1, 0, 0, 0]] * 4
    while det(a) <= 0:
        a = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
        a[0] = [x * 10 ** rng.uniform(0, 7) for x in a[0]]
    return EllipticPair(pullback(OMEGA0, a), pullback(PHI0 * 10 ** rng.uniform(-9, 9), a))


class TestIllConditionedFloatPairs:
    """The seeds below 60 on which a construction through A = W_ω⁻¹W_φ, in floats, raised.

    Each pullback is exactly orthogonal, since its coefficients are read as
    their binary values, so every seed reaches the construction.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 5, 8, 9, 11, 12, 13, 15, 17, 19, 22, 24, 25, 26, 27, 28, 29,
                                      30, 31, 36, 42, 51, 57, 58])
    def test_reconstructs_within_tolerance(self, seed):
        pair = ill_conditioned_float_pair(seed)
        nf = normal_form(pair)
        c = [MultiVector.one_form(row) for row in nf.basis]
        omega = wedge_oracle(c[0], c[2]) - wedge_oracle(c[1], c[3])
        phi = (wedge_oracle(c[0], c[3]) + wedge_oracle(c[1], c[2])) * nf.kappa
        residual = max((omega - pair.omega).norm_inf(), (phi - pair.phi).norm_inf())
        assert residual <= DEFAULT_TOL * max(pair.omega.norm_inf(), pair.phi.norm_inf())


class TestPullbackPair:
    def test_coordinate_inclusion(self):
        incl = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
        b1, b2, independent = pullback_pair_independent(EllipticPair(OMEGA0, PHI0), incl)
        assert b1 == MultiVector.basis(3, (1, 3))
        assert b2 == MultiVector.basis(3, (2, 3))
        assert independent

    def test_random_injective_always_independent(self, rng):
        for _ in range(50):
            pair, _, _ = rand_orthogonal_elliptic_pair(rng)
            a = rand_injective_3to4(rng)
            _, _, independent = pullback_pair_independent(pair, a)
            assert independent

    def test_nonelliptic_probe_can_lose_independence(self):
        from pathgeom.pairs import _independent_two_forms

        # not elliptic, so independence of the pullbacks is not guaranteed
        omega, phi = E(4, (1, 2)), E(4, (1, 3))
        assert not is_elliptic(omega, phi)
        a = ((1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1))
        b1, b2 = pullback(omega, a), pullback(phi, a)
        flag = _independent_two_forms(b1, b2)
        assert isinstance(flag, bool)
        assert not flag  # the first pullback survives, the second dies

    def test_noninjective_rejected(self):
        rank2 = ((1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 0))
        with pytest.raises(ValueError):
            pullback_pair_independent(EllipticPair(OMEGA0, PHI0), rank2)
