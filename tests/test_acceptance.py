"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible with -s, and
on failures).  Exact claims use zero tolerance; floating claims use the
tolerances pinned here and nowhere else.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from pathgeom import (
    DEFAULT_VOLUME,
    J0,
    OMEGA0,
    PHI0,
    MultiVector,
    OrientedPositivePlane,
    Poly,
    act,
    affine_plane_model,
    canonical_model,
    compatibility_check,
    adapted_coframe_at,
    degree,
    degree_squared,
    heisenberg_model,
    is_elliptic,
    is_nondegenerate_at,
    j_of_plane,
    kappa_invariant,
    normal_form,
    pairing_signature,
    plane_of,
    pullback,
    pullback_pair_independent,
    pullback_splitting,
)
from pathgeom.cli import main as cli_main
from pathgeom.hypersurface import PolyForm3, coframe_residual
from pathgeom.pairs import reconstruction_residual

import conftest as helpers
from oracles import conjugate, degree_by_normalization, gram_definiteness_oracle, spans_same_oriented_plane


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL - {description}")
        raise
    print(f"[criterion {number:02d}] PASS - {description}")


@pytest.fixture(scope="module")
def eds_cli_report(tmp_path_factory):
    """One `eds --samples 200` run shared by criteria 1-3, with its runtime."""
    out = tmp_path_factory.mktemp("acceptance") / "eds.json"
    start = time.perf_counter()
    code = cli_main(["--out", str(out), "eds", "--samples", "200"])
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text())
    return code, report, elapsed


def test_criterion_1_cartan_characters(eds_cli_report):
    code, report, elapsed = eds_cli_report
    with criterion(1, f"characters (0,2,4,3) on 200 samples in {elapsed:.2f}s"):
        assert code == 0
        assert len(report["samples"]) == 200
        assert all(e["characters"] == [0, 2, 4, 3] for e in report["samples"])
        assert elapsed < 10.0


def test_criterion_2_codimension(eds_cli_report):
    _, report, _ = eds_cli_report
    with criterion(2, "codimension 8 = bound, involutive, on 200 samples"):
        assert all(e["codim"] == 8 for e in report["samples"])
        assert all(e["codim_bound"] == 8 for e in report["samples"])
        assert all(e["involutive"] is True for e in report["samples"])
        assert report["all_pass"] is True


def test_criterion_3_flag_integrality_and_independence(eds_cli_report):
    _, report, _ = eds_cli_report
    with criterion(3, "flag integral and zeta nonzero on 200 samples"):
        assert all(e["integral"] is True for e in report["samples"])
        assert all(e["zeta_nonzero"] is True for e in report["samples"])


def test_criterion_4_signature():
    with criterion(4, "wedge pairing signature is exactly (3,3)"):
        assert pairing_signature() == (3, 3)


def test_criterion_5_normal_form():
    rng = random.Random(5)
    start = time.perf_counter()
    worst_residual = 0.0
    worst_kappa = 0.0
    for _ in range(1000):
        pair, kappa, _ = helpers.rand_orthogonal_elliptic_pair(rng, allow_flip=True)
        nf = normal_form(pair)
        worst_residual = max(worst_residual, reconstruction_residual(pair, nf))
        expected = math.sqrt(float(kappa * kappa))
        worst_kappa = max(worst_kappa, abs(nf.kappa - expected))
        assert abs(kappa_invariant(pair) - expected) <= 1e-9
    elapsed = time.perf_counter() - start
    with criterion(5, f"1000 normal forms: residual {worst_residual:.2e}, kappa err {worst_kappa:.2e}, {elapsed:.2f}s"):
        assert worst_residual <= 1e-9
        assert worst_kappa <= 1e-9
        assert elapsed < 5.0


def test_criterion_6_degree():
    rng = random.Random(6)
    with criterion(6, "exact model degrees; 500 invariance actions; 500 oracle agreements"):
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(10)):
            assert degree_squared(canonical_model(alpha)) == alpha * alpha
        for _ in range(500):
            a = helpers.rand_invertible(rng)
            alpha = Fraction(rng.randint(0, 30), 10)
            s = act(a, canonical_model(alpha))
            assert abs(degree(s) - float(alpha)) <= 1e-9
            assert abs(degree(s) - degree_by_normalization(s)) <= 1e-9


def test_criterion_7_round_trips():
    rng = random.Random(7)
    worst_j = 0.0
    with criterion(7, "500 psi round trips within 1e-9; exact equivariance"):
        for _ in range(500):
            a = helpers.rand_invertible(rng)
            conj = conjugate(J0, a)

            # plane_of then j_of_plane returns the complex structure
            plane = plane_of(conj)
            back = j_of_plane(plane)
            worst_j = max(
                worst_j,
                float(np.max(np.abs(np.array(back.matrix, float) - np.array(conj.matrix, float)))),
            )
            assert worst_j <= 1e-9

            # j_of_plane then plane_of returns the oriented plane
            plane2 = OrientedPositivePlane(pullback(OMEGA0, a), pullback(PHI0, a))
            j2 = j_of_plane(plane2)
            assert spans_same_oriented_plane(plane_of(j2), plane2, tol=1e-9)

            # equivariance: exact span + orientation agreement on rationals
            assert spans_same_oriented_plane(plane, plane2)


def test_criterion_8_adapted_coframes():
    rng = random.Random(8)
    worst = 0.0
    with criterion(8, "1000 adapted coframes: reconstruction <= 1e-10, volume nonzero"):
        count = 0
        while count < 1000:
            b1 = [helpers.rand_fraction(rng) for _ in range(3)]
            b2 = [helpers.rand_fraction(rng) for _ in range(3)]
            from pathgeom.hypersurface import _cross

            if all(x == 0 for x in _cross(b1, b2)):
                continue
            count += 1
            beta1 = PolyForm3(tuple(Poly.constant(x, 3) for x in b1))
            beta2 = PolyForm3(tuple(Poly.constant(x, 3) for x in b2))
            frame = adapted_coframe_at(beta1, beta2, [0, 0, 0])
            worst = max(worst, coframe_residual(frame, b1, b2))
            assert frame.volume() != 0.0
        assert worst <= 1e-10


def test_criterion_9_pullback_independence_and_ellipticity():
    rng = random.Random(9)
    with criterion(9, "500 elliptic pullbacks independent; 500 predicate/oracle agreements"):
        for _ in range(500):
            pair, _, _ = helpers.rand_orthogonal_elliptic_pair(rng)
            a = helpers.rand_injective_3to4(rng)
            _, _, independent = pullback_pair_independent(pair, a)
            assert independent

        elliptic_seen = nonelliptic_seen = 0
        for k in range(500):
            if k % 5 == 0:
                # guaranteed non-elliptic controls
                omega = MultiVector.basis(4, (1, 2))
                phi = helpers.rand_form(rng, 4, 2, nterms=3)
            else:
                omega = helpers.rand_form(rng, 4, 2, nterms=4)
                phi = helpers.rand_form(rng, 4, 2, nterms=4)
            if omega.is_zero or phi.is_zero:
                continue
            verdict = is_elliptic(omega, phi)
            assert verdict == gram_definiteness_oracle(omega, phi, DEFAULT_VOLUME)
            elliptic_seen += verdict
            nonelliptic_seen += not verdict
        assert elliptic_seen > 0 and nonelliptic_seen > 0


def test_criterion_10_end_to_end_hypersurfaces():
    rng = random.Random(10)
    with criterion(10, "Heisenberg: contact+compatible at 100 points; plane: never contact"):
        u = heisenberg_model()
        betas = pullback_splitting(u)
        for _ in range(100):
            pt = [helpers.rand_fraction(rng) for _ in range(3)]
            assert is_nondegenerate_at(*betas, pt)
            assert compatibility_check(u, pt)

        flat = affine_plane_model()
        flat_betas = pullback_splitting(flat)
        for _ in range(100):
            pt = [helpers.rand_fraction(rng) for _ in range(3)]
            assert not is_nondegenerate_at(*flat_betas, pt)
