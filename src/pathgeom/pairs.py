"""Pairs of 2-forms on an oriented 4-space: ellipticity and the κ-normal form.

A pair (ω,φ) is elliptic when ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩², equivalently when every
nonzero linear combination is symplectic.  An elliptic orthogonal pair admits
a basis in which ω = e¹∧e³ − e²∧e⁴ and φ = κ(e¹∧e⁴ + e²∧e³) for a unique
κ > 0; :func:`normal_form` constructs such a basis.

The construction contracts the two forms with two vectors.  With e₁ = ∂₁
and e₃ the minimum-norm solution of ω(e₁,e₃) = 1, φ(e₁,e₃) = 0, the coframe
is e¹ = −ω(e₃,·), e² = −φ(e₃,·)/κ, e³ = ω(e₁,·), e⁴ = φ(e₁,·)/κ with
κ² = ⟨φ,φ⟩/⟨ω,ω⟩; then ω + iφ/κ = (e¹ + ie²)∧(e³ + ie⁴).  No matrix is
inverted.  Ellipticity and orthogonality are exact tests on the wedge Gram,
and the coframe is computed in Fractions, so the only roundings are κ's
square root and the storing of the basis as floats.  The result is certified
by its reconstruction of (ω, φ), in floats, before it is returned.

An :class:`EllipticPair`, defined in :mod:`pathgeom.exterior`, computes its wedge
Gram once, when built, and keeps it as ``pair.gram``; the functions below that
take a pair read it from there.
:func:`is_symplectic`, :func:`is_elliptic` and :func:`orthogonalize` take no
volume form: ε ↦ cε divides every pairing by c, which moves no zero test, no
sign of ⟨ω,ω⟩⟨φ,φ⟩ − ⟨ω,φ⟩² and no ratio of two pairings.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations
from typing import Sequence, Tuple

from . import linalg
from .exterior import (
    EllipticPair,
    MultiVector,
    _form_matrix,
    _gram_definite_sign,
    conformal_pairing,
    gram_matrix,
    pullback,
)
from .scalars import DEFAULT_TOL, json_of_shape, sqrt_of


def is_symplectic(omega: MultiVector) -> bool:
    """True iff ω∧ω ≠ 0, i.e. ω is nondegenerate."""
    return conformal_pairing(omega, omega) != 0


def is_elliptic(omega: MultiVector, phi: MultiVector) -> bool:
    """Strict inequality ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩², exactly."""
    return _gram_definite_sign(gram_matrix(omega, phi)) != 0


def orthogonalize(omega: MultiVector, phi: MultiVector) -> MultiVector:
    """φ′ = φ − (⟨ω,φ⟩/⟨ω,ω⟩)ω, so that ⟨ω,φ′⟩ = 0 exactly."""
    ww = conformal_pairing(omega, omega)
    if ww == 0:
        raise ValueError("omega is not symplectic; cannot orthogonalize against it")
    wp = conformal_pairing(omega, phi)
    return phi - omega * (wp / ww)


def _require_orthogonal(pair: EllipticPair) -> Tuple[Fraction, Fraction]:
    """The pair's self-pairings (⟨ω,ω⟩, ⟨φ,φ⟩), once ⟨ω,φ⟩ = 0 is checked."""
    (ww, wp), (_, pp) = pair.gram
    if wp != 0:
        raise ValueError("pair is not orthogonal")
    return ww, pp


def kappa_invariant_squared(pair: EllipticPair) -> Fraction:
    """κ² = ⟨φ,φ⟩/⟨ω,ω⟩, exactly."""
    ww, pp = _require_orthogonal(pair)
    return pp / ww


def kappa_invariant(pair: EllipticPair) -> float:
    """κ = sqrt(⟨φ,φ⟩/⟨ω,ω⟩), the complete invariant of an orthogonal elliptic pair."""
    return sqrt_of(kappa_invariant_squared(pair))


class NormalForm:
    """Coframe rows and κ realizing ω = e¹∧e³−e²∧e⁴, φ = κ(e¹∧e⁴+e²∧e³).

    ``basis`` holds the coframe covectors e¹..e⁴ as rows, expressed in the
    input coordinates.  ``epsilon_flipped`` records whether the volume form
    was negated to make ⟨ω,ω⟩ positive.  ``residual`` is the reconstruction
    residual that :func:`normal_form` checked, and None on a normal form
    built any other way; equality ignores it.
    """

    __slots__ = ("kappa", "basis", "epsilon_flipped", "residual")

    def __init__(self, kappa: float, basis: Tuple[Tuple[float, ...], ...], epsilon_flipped: bool = False):
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        if len(basis) != 4 or any(len(r) != 4 for r in basis):
            raise ValueError("basis must be a 4x4 coframe matrix")
        self.kappa, self.basis, self.epsilon_flipped = kappa, basis, epsilon_flipped
        self.residual = None

    def _key(self) -> tuple:
        return self.kappa, self.basis, self.epsilon_flipped

    def __eq__(self, other) -> bool:
        if not isinstance(other, NormalForm):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_json(self) -> dict:
        return {
            "kappa": float(self.kappa),
            "basis": [[float(x) for x in row] for row in self.basis],
            "epsilon_flipped": self.epsilon_flipped,
        }

    @classmethod
    def from_json(cls, data) -> "NormalForm":
        data = json_of_shape(data, dict, "a normal form", "kappa", "basis", "epsilon_flipped")
        return cls(
            kappa=float(data["kappa"]),
            basis=tuple(tuple(map(float, json_of_shape(r, list, "a basis row"))) for r in json_of_shape(data["basis"], list, "the basis")),
            epsilon_flipped=bool(data["epsilon_flipped"]),
        )


def normal_form(pair: EllipticPair, tol: float = DEFAULT_TOL) -> NormalForm:
    """Normalizing coframe of an orthogonal elliptic pair, exact up to κ.

    Raises for a pair that is not orthogonal, exactly, and for a float
    reconstruction residual beyond ``tol`` times the largest coefficient.  If
    both self-pairings are negative the volume form is flipped and the flip
    recorded.  The returned form keeps the reconstruction residual it was
    checked on.  A nonzero κ, basis entry or coefficient outside the range of
    normal floats is refused with an error that says so.
    """
    ww, pp = _require_orthogonal(pair)
    # elliptic + orthogonal forces sign(<w,w>) == sign(<p,p>)
    flipped = ww < 0
    k2 = pp / ww
    kappa = sqrt_of(k2)
    if kappa < sys.float_info.min:
        raise ValueError("kappa is below the float range")

    # exact, so the basis is rounded once, when it is stored.  e3 is the
    # minimum-norm solution of m0·e3 = 1, m1·e3 = 0 for m0 = ω(e1,·),
    # m1 = φ(e1,·), e1 = ∂₁; an elliptic pair has no real eigenvector of A
    # (φ(u,v) = ω(Au,v)), so m0 ∦ m1 and d > 0
    w_omega, w_phi = _form_matrix(pair.omega), _form_matrix(pair.phi)
    m0, m1 = w_omega[0], w_phi[0]
    g00, g01, g11 = (sum(x * y for x, y in zip(u, v)) for u, v in ((m0, m0), (m0, m1), (m1, m1)))
    d = g00 * g11 - g01 * g01
    e3 = [(g11 * x - g01 * y) / d for x, y in zip(m0, m1)]
    # the coframe dual to (e1, −Ae1, e3, −Ae3), before the (1, κ, 1, κ) scaling:
    # −ω(e3,·) = W_ω·e3, −φ(e3,·)/κ², m0, m1/κ²
    rows = (linalg.matvec(w_omega, e3), [x / k2 for x in linalg.matvec(w_phi, e3)], m0, [x / k2 for x in m1])

    # ω∧ω = 2e¹∧e²∧e³∧e⁴ in the normal form and c·<w,w>·e¹²³⁴ for ε = c·e¹²³⁴,
    # so r = 1: the rows are independent and positive on ε exactly when
    # <w,w> > 0, as epsilon_flipped records
    if linalg.det(rows) * 2 * k2 != pair.eps.coefficient * ww:
        raise ValueError("constructed basis is singular or inconsistently oriented; input violates invariants")
    try:
        basis = tuple(tuple(_times_float(x, f) for x in row) for row, f in zip(rows, (1.0, kappa, 1.0, kappa)))
        nf = NormalForm(kappa=kappa, basis=basis, epsilon_flipped=flipped)
        res = reconstruction_residual(pair, nf)
        bound = tol * max(pair.omega.norm_inf(), pair.phi.norm_inf())
    except OverflowError:
        raise ValueError("a basis entry or a coefficient of the pair is beyond the float range") from None
    if res > bound:
        raise ValueError(f"normal-form reconstruction residual {res:.3e} exceeds tolerance")
    nf.residual = res
    return nf


def _times_float(x: Fraction, f: float) -> float:
    """float(x)·f, also where float(x) alone would leave the float range; OverflowError where a nonzero one is not a normal float.

    With x = y·2ˢ and f = g·2ᵗ for y, g near 1, y·g rounds as float(x)·f does,
    scaled by 2⁻ˢ⁻ᵗ, wherever that product is a normal float, and a power of two
    scales a float exactly.
    """
    n, d = x.numerator, x.denominator
    s = n.bit_length() - d.bit_length()
    g, t = math.frexp(f)
    y = math.ldexp((n / (d << s) if s >= 0 else (n << -s) / d) * g, s + t)
    if n and abs(y) < sys.float_info.min:
        raise OverflowError("a nonzero value below the normal floats")
    return y


def reconstruction_residual(pair: EllipticPair, nf: NormalForm) -> float:
    """The largest coefficient of (ω, φ) rebuilt from the float basis and κ, minus (ω, φ).

    In floats: the coefficient of e¹∧e³ − e²∧e⁴ and of κ(e¹∧e⁴ + e²∧e³) on
    dxⁱ∧dxʲ is a sum of 2×2 minors of the basis rows; OverflowError for a
    nonzero coefficient of (ω, φ) outside the normal floats.
    """
    e1, e2, e3, e4 = nf.basis

    def minor(a, b, i, j):
        return a[i] * b[j] - a[j] * b[i]

    res = 0.0
    for i, j in combinations(range(4), 2):
        omega = _times_float(pair.omega.coefficient((i + 1, j + 1)), 1.0)
        phi = _times_float(pair.phi.coefficient((i + 1, j + 1)), 1.0)
        res = max(res, abs(minor(e1, e3, i, j) - minor(e2, e4, i, j) - omega),
                  abs((minor(e1, e4, i, j) + minor(e2, e3, i, j)) * nf.kappa - phi))
    return res


def pullback_pair_independent(pair: EllipticPair, a: Sequence[Sequence[Fraction]]) -> Tuple[MultiVector, MultiVector, bool]:
    """Pull an elliptic pair back along an injective map ℝ³ → ℝ⁴, ``a`` its 4×3 matrix of rows.

    Returns (β₁, β₂, independent).  For elliptic pairs independence always
    holds; the flag exists so non-elliptic probes can observe failures.
    """
    a = linalg.mat(a)
    if len(a) != 4 or len(a[0]) != 3:
        raise ValueError("expected a linear map from a 3-space into the 4-space")
    if linalg.rank(a) < 3:
        raise ValueError("map is not injective")
    beta1 = pullback(pair.omega, a)
    beta2 = pullback(pair.phi, a)
    return beta1, beta2, _independent_two_forms(beta1, beta2)


def _independent_two_forms(beta1: MultiVector, beta2: MultiVector) -> bool:
    return linalg.rank([beta1.components(), beta2.components()]) == 2
