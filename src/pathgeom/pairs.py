"""Pairs of 2-forms on an oriented 4-space: ellipticity and the κ-normal form.

A pair (ω,φ) is elliptic when ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩², equivalently when every
nonzero linear combination is symplectic.  An elliptic orthogonal pair admits
a basis in which ω = e¹∧e³ − e²∧e⁴ and φ = κ(e¹∧e⁴ + e²∧e³) for a unique
κ > 0; :func:`normal_form` constructs such a basis.

The construction goes through the endomorphism A defined by
φ(u,v) = ω(Au,v).  For an elliptic orthogonal pair, A² = −κ²·Id with
κ² = ⟨φ,φ⟩/⟨ω,ω⟩, and J = −A/κ is the complex structure whose coordinates
realize the normal form.  A = W_ω⁻¹W_φ and the basis are computed through
:mod:`pathgeom.linalg` in the input's own scalars, so on exact input
everything but κ itself is exact, with no floating linear algebra at all.
Each step is independently checkable and the result is verified by
reconstruction before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from . import linalg
from .exterior import (
    DEFAULT_VOLUME,
    LinearMap,
    MultiVector,
    VolumeForm,
    conformal_pairing,
    pullback,
    wedge,
)
from .scalars import Scalar, is_exact

DEFAULT_TOL = 1e-9


def _check_two_form(form: MultiVector, name: str):
    if form.dim != 4 or form.degree != 2:
        raise ValueError(f"{name} must be a 2-form on a 4-space")


def is_symplectic(omega: MultiVector, eps: VolumeForm = DEFAULT_VOLUME) -> bool:
    """True iff ω∧ω ≠ 0, i.e. ω is nondegenerate."""
    _check_two_form(omega, "omega")
    return conformal_pairing(omega, omega, eps) != 0


def is_elliptic(omega: MultiVector, phi: MultiVector, eps: VolumeForm = DEFAULT_VOLUME) -> bool:
    """Strict inequality ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩², exact on rational inputs."""
    _check_two_form(omega, "omega")
    _check_two_form(phi, "phi")
    ww = conformal_pairing(omega, omega, eps)
    wp = conformal_pairing(omega, phi, eps)
    pp = conformal_pairing(phi, phi, eps)
    return ww * pp > wp * wp


def orthogonalize(omega: MultiVector, phi: MultiVector, eps: VolumeForm = DEFAULT_VOLUME) -> MultiVector:
    """φ′ = φ − (⟨ω,φ⟩/⟨ω,ω⟩)ω, so that ⟨ω,φ′⟩ = 0 (exactly, on exact inputs)."""
    _check_two_form(omega, "omega")
    _check_two_form(phi, "phi")
    ww = conformal_pairing(omega, omega, eps)
    if ww == 0:
        raise ValueError("omega is not symplectic; cannot orthogonalize against it")
    wp = conformal_pairing(omega, phi, eps)
    return phi - omega * (wp / ww)


@dataclass(frozen=True)
class EllipticPair:
    """An elliptic pair of 2-forms with the volume form its pairings refer to."""

    omega: MultiVector
    phi: MultiVector
    eps: VolumeForm = DEFAULT_VOLUME

    def __post_init__(self):
        _check_two_form(self.omega, "omega")
        _check_two_form(self.phi, "phi")
        if not is_elliptic(self.omega, self.phi, self.eps):
            raise ValueError("pair is not elliptic: <w,w><p,p> <= <w,p>^2")

    def pairings(self) -> Tuple[Scalar, Scalar, Scalar]:
        """(⟨ω,ω⟩, ⟨ω,φ⟩, ⟨φ,φ⟩)."""
        return (
            conformal_pairing(self.omega, self.omega, self.eps),
            conformal_pairing(self.omega, self.phi, self.eps),
            conformal_pairing(self.phi, self.phi, self.eps),
        )


def _require_orthogonal(pair: EllipticPair, tol: float) -> Tuple[Scalar, Scalar, Scalar]:
    """The pair's pairings, once it is checked to be orthogonal."""
    ww, wp, pp = pair.pairings()
    if is_exact(wp) and pair.omega.is_exact and pair.phi.is_exact:
        if wp != 0:
            raise ValueError("pair is not orthogonal (exact check)")
    else:
        if abs(float(wp)) > tol * math.sqrt(abs(float(ww))) * math.sqrt(abs(float(pp))):
            raise ValueError("pair is not orthogonal beyond tolerance")
    return ww, wp, pp


def kappa_invariant_squared(pair: EllipticPair, tol: float = DEFAULT_TOL) -> Scalar:
    """κ² = ⟨φ,φ⟩/⟨ω,ω⟩ (exact on exact inputs)."""
    ww, _, pp = _require_orthogonal(pair, tol)
    return pp / ww


def kappa_invariant(pair: EllipticPair, tol: float = DEFAULT_TOL) -> float:
    """κ = sqrt(⟨φ,φ⟩/⟨ω,ω⟩), the complete invariant of an orthogonal elliptic pair."""
    return math.sqrt(float(kappa_invariant_squared(pair, tol)))


@dataclass(frozen=True)
class NormalForm:
    """Coframe rows and κ realizing ω = e¹∧e³−e²∧e⁴, φ = κ(e¹∧e⁴+e²∧e³).

    ``basis`` holds the coframe covectors e¹..e⁴ as rows, expressed in the
    input coordinates.  ``epsilon_flipped`` records whether the volume form
    was negated to make ⟨ω,ω⟩ positive.
    """

    kappa: float
    basis: Tuple[Tuple[float, ...], ...]
    epsilon_flipped: bool = False

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if len(self.basis) != 4 or any(len(r) != 4 for r in self.basis):
            raise ValueError("basis must be a 4x4 coframe matrix")

    def coframe(self) -> list:
        return [MultiVector.one_form(row) for row in self.basis]

    def reconstruct(self) -> Tuple[MultiVector, MultiVector]:
        """Rebuild (ω, φ) from the stored coframe and κ."""
        c = self.coframe()
        omega = wedge(c[0], c[2]) - wedge(c[1], c[3])
        phi = (wedge(c[0], c[3]) + wedge(c[1], c[2])) * self.kappa
        return omega, phi

    def to_json(self) -> dict:
        return {
            "kappa": float(self.kappa),
            "basis": [[float(x) for x in row] for row in self.basis],
            "epsilon_flipped": self.epsilon_flipped,
        }

    @classmethod
    def from_json(cls, data) -> "NormalForm":
        return cls(
            kappa=float(data["kappa"]),
            basis=tuple(tuple(float(x) for x in row) for row in data["basis"]),
            epsilon_flipped=bool(data["epsilon_flipped"]),
        )


def _form_matrix(form: MultiVector) -> linalg.Matrix:
    """The skew matrix W with form(u, v) = uᵀWv, in the coefficients' own scalars."""
    w = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), c in form.terms.items():
        w[i - 1][j - 1] = c
        w[j - 1][i - 1] = -c
    return w


def normal_form(pair: EllipticPair, tol: float = DEFAULT_TOL) -> NormalForm:
    """Normalizing coframe of an orthogonal elliptic pair, exact up to κ.

    Exact input gets exact checks; float input the tolerances below.  Raises
    for non-elliptic or non-orthogonal input.  If both self-pairings are
    negative the volume form is flipped and the flip recorded.
    """
    ww, _, pp = _require_orthogonal(pair, tol)
    # elliptic + orthogonal forces sign(<w,w>) == sign(<p,p>)
    flipped = ww < 0
    k2 = pp / ww
    kappa = math.sqrt(float(pp) / float(ww))
    exact = is_exact(k2) and pair.omega.is_exact and pair.phi.is_exact

    w_omega = _form_matrix(pair.omega)
    a = linalg.matmul(linalg.inverse(w_omega), _form_matrix(pair.phi))
    sq = linalg.matmul(a, a)
    residual = max(abs(sq[i][j] + (k2 if i == j else 0)) for i in range(4) for j in range(4))
    if residual > (0 if exact else math.sqrt(max(tol, 1e-15)) * k2):
        raise ValueError(f"endomorphism square residual {float(residual):.3e}; pair violates ellipticity numerically")

    # A² = −κ²·Id makes A invertible, so any nonzero e1 will do
    e1 = linalg.identity(4)[0]
    ae1 = linalg.matvec(a, e1)
    # e3 from ω(e1,e3) = 1 and ω(Ae1,e3) = 0, the minimum-norm solution
    # Mᵀ(MMᵀ)⁻¹(1,0)ᵀ; φ(e1,e3) = 0 is the second row again, as W_φ = AᵀW_ω
    m = linalg.matmul([e1, ae1], w_omega)
    mt = linalg.transpose(m)
    gram_inv = linalg.inverse(linalg.matmul(m, mt))
    e3 = linalg.matvec(mt, [gram_inv[0][0], gram_inv[1][0]])
    ae3 = linalg.matvec(a, e3)
    b = linalg.transpose([e1, [-x for x in ae1], e3, [-x for x in ae3]])

    # the basis [e1, e2, e3, e4] = B·diag(1, 1/κ, 1, 1/κ) has determinant
    # det B/κ²; in the constructed coframe omega^omega = 2 e1^e2^e3^e4, so
    # det = 2/<w,w> relative to the original volume form: the basis is
    # positively oriented exactly with respect to the recorded epsilon, and a
    # float det is singular when det·<w,w> is small next to 2
    det = linalg.det(b) / k2
    if det == 0 or (not exact and abs(det * ww) < tol):
        raise ValueError("constructed basis is singular")
    if (det < 0) != flipped:
        raise ValueError("constructed basis orientation is inconsistent; input violates invariants")

    nf = NormalForm(
        kappa=kappa,
        basis=tuple(tuple(float(x) * s for x in row) for row, s in zip(linalg.inverse(b), (1.0, kappa, 1.0, kappa))),
        epsilon_flipped=flipped,
    )
    rec_omega, rec_phi = nf.reconstruct()
    res = max((rec_omega - pair.omega).norm_inf(), (rec_phi - pair.phi).norm_inf())
    if res > tol * max(pair.omega.norm_inf(), pair.phi.norm_inf()):
        raise ValueError(f"normal-form reconstruction residual {res:.3e} exceeds tolerance")
    # automatic identities of the construction, ω(e1,e2) = ω(e3,e4) = 0 and
    # ω(e2,e4) = −1, stated for e2 = −Ae1/κ and e4 = −Ae3/κ; a float uᵀW_ωv is
    # measured against |u|·|W_ω|·|v|, so that the check does not see the input's scale
    w_size = max(abs(x) for row in w_omega for x in row)
    for u, v, want in ((e1, ae1, 0), (e3, ae3, 0), (ae1, ae3, -k2)):
        got = sum((x * y for x, y in zip(u, linalg.matvec(w_omega, v))), Fraction(0))
        size = max(map(abs, u)) * w_size * max(map(abs, v))
        if abs(got - want) > (0 if exact else math.sqrt(tol) * size):
            raise ValueError("normal-form identity violated; inconsistent input")
    return nf


def reconstruction_residual(pair: EllipticPair, nf: NormalForm) -> float:
    rec_omega, rec_phi = nf.reconstruct()
    return max((rec_omega - pair.omega).norm_inf(), (rec_phi - pair.phi).norm_inf())


def pullback_pair_independent(pair: EllipticPair, a: LinearMap) -> Tuple[MultiVector, MultiVector, bool]:
    """Pull an elliptic pair back along an injective map ℝ³ → ℝ⁴.

    Returns (β₁, β₂, independent).  For elliptic pairs independence always
    holds; the flag exists so non-elliptic probes can observe failures.
    """
    if a.source_dim != 3 or a.target_dim != 4:
        raise ValueError("expected a linear map from a 3-space into the 4-space")
    if not a.is_injective():
        raise ValueError("map is not injective")
    beta1 = pullback(pair.omega, a)
    beta2 = pullback(pair.phi, a)
    return beta1, beta2, _independent_two_forms(beta1, beta2)


def _independent_two_forms(beta1: MultiVector, beta2: MultiVector) -> bool:
    return linalg.rank([beta1.components(), beta2.components()]) == 2
