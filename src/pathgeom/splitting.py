"""Splittings of complex structures on ℝ⁴ and the degree invariant.

A complex structure J compatible with the orientation corresponds to an
oriented 2-plane Λ_J ⊂ Λ²(ℝ⁴)* on which the wedge pairing is positive
definite: Λ_J is spanned by the real and imaginary parts of any (2,0)-form.
A splitting is a pair of lines L₁, L₂ with Λ_J = L₁ ⊕ L₂; its complete
invariant under pullback equivalence is a single number, the degree

    degree = |⟨ω,ω′⟩| / sqrt(⟨ω,ω⟩⟨ω′,ω′⟩ − ⟨ω,ω′⟩²)

for any generators ω of L₁ and ω′ of L₂.  The model of degree α has
L₁ = {ω₀} and L₂ = {αω₀ + φ₀}.  Spans, orientations and degree² are exact;
only the degree and :func:`j_of_plane` take a square root, and J is exact
when that root is rational.  The checks that take an allowance ``tol``
(J² = −Id, equal spans, equal degrees) default to 0, which makes them exact.
Every matrix computation goes through :mod:`pathgeom.linalg`.

An :class:`OrientedPositivePlane` or :class:`Splitting` computes the wedge
Gram of its generators once, when built, checks it for definiteness there and
keeps it as ``gram``; the functions below read their pairings from it.  In
the same way a :class:`ComplexStructure` builds Λ_J once, which checks J's
orientation, and keeps it as ``plane``: :func:`plane_of` reads it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import linalg
from .exterior import (
    DEFAULT_VOLUME,
    J0_MATRIX,
    OMEGA0,
    PHI0,
    MultiVector,
    VolumeForm,
    _form_matrix,
    _gram_definite_sign,
    gram_matrix,
    pullback,
    wedge,
)
from .scalars import DEFAULT_TOL, sqrt_of, to_scalar


class OrientedPositivePlane:
    """Ordered spanning pair (ω, φ); the order is the orientation.

    ``gram`` is the wedge Gram of (ω, φ) under ``eps``, computed once here.
    """

    __slots__ = ("omega", "phi", "eps", "gram")

    def __init__(self, omega: MultiVector, phi: MultiVector, eps: VolumeForm = DEFAULT_VOLUME):
        g = gram_matrix(omega, phi, eps)
        sign = _gram_definite_sign(g)
        if sign == 0:
            raise ValueError("wedge pairing is not definite on the span")
        if sign < 0:
            raise ValueError("wedge pairing is negative definite on the span: the plane belongs to the opposite orientation")
        self.omega, self.phi, self.eps, self.gram = omega, phi, eps, g


#: the basis 2-forms eᵃ∧eᵇ in the order Λ_J's real part is tried on
_PLANE_SEEDS = ((1, 3), (1, 4), (1, 2), (2, 3), (2, 4), (3, 4))


class ComplexStructure:
    """Orientation-compatible complex structure J on ℝ⁴: J² = −Id to within ``tol``, exactly by default.

    ``plane`` is Λ_J, the oriented plane (Re α, Im α) of a (2,0)-form α, built
    once here.  For a basis 2-form β = ξ∧η, α = (ξ − iξ∘J)∧(η − iη∘J) has real
    part ρ = β − J*β, the projection of β onto Λ_J, and imaginary part
    −ρ(J·, ·).  The β of largest |ρ|², the first in ``_PLANE_SEEDS`` on a tie,
    gives ρ ≠ 0.  J is refused when the plane's wedge Gram is negative
    definite, i.e. when J is incompatible with the orientation.
    """

    __slots__ = ("matrix", "tol", "plane")

    def __init__(self, matrix: Sequence[Sequence[Fraction]], tol: float = 0):
        rows = linalg.mat(matrix)
        if len(rows) != 4 or len(rows[0]) != 4:
            raise ValueError("J must be a 4x4 matrix")
        self.matrix, self.tol = rows, tol
        self._check_square()
        e = {i: MultiVector.basis(4, (i,)) for i in range(1, 5)}
        ej = {i: MultiVector.one_form(rows[i - 1]) for i in range(1, 5)}  # eⁱ∘J is row i of J
        projections = [(wedge(e[a], e[b]) - wedge(ej[a], ej[b]), a, b) for a, b in _PLANE_SEEDS]
        rho, a, b = max(projections, key=lambda p: sum(c * c for c in p[0].terms.values()))
        self.plane = OrientedPositivePlane(rho, -(wedge(e[a], ej[b]) + wedge(ej[a], e[b])))

    def _check_square(self):
        sq = linalg.matmul(self.matrix, self.matrix)
        residual = max(abs(sq[i][j] + (1 if i == j else 0)) for i in range(4) for j in range(4))
        if residual > self.tol:
            raise ValueError(f"J^2 != -Id to within {self.tol}")


class Splitting:
    """Two lines in Λ²(ℝ⁴)*, each held by a generator, with a volume form.

    The wedge pairing must be definite on the span; if it is negative
    definite the volume form is flipped and the flip recorded.  ``gram`` is
    the wedge Gram of the two generators under the final ``eps``, computed
    once here.
    """

    __slots__ = ("line1", "line2", "eps", "epsilon_flipped", "gram")

    def __init__(self, line1: MultiVector, line2: MultiVector, eps: VolumeForm = DEFAULT_VOLUME):
        for f, name in ((line1, "line1"), (line2, "line2")):
            if f.dim != 4 or f.degree != 2 or f.is_zero:
                raise ValueError(f"{name} must be a nonzero 2-form on the 4-space")
        g = gram_matrix(line1, line2, eps)
        sign = _gram_definite_sign(g)
        if sign == 0:
            raise ValueError("wedge pairing is indefinite on the span of the two lines")
        if sign < 0:
            # negated pairings: the Gram under −ε
            g = tuple(tuple(-x for x in row) for row in g)
            eps = eps.flipped()
        self.line1, self.line2, self.eps, self.epsilon_flipped, self.gram = line1, line2, eps, sign < 0, g

    def to_json(self) -> dict:
        return {
            "L1": self.line1.to_json(),
            "L2": self.line2.to_json(),
            "epsilon": self.eps.as_form().to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "Splitting":
        eps = DEFAULT_VOLUME
        if data.get("epsilon") is not None:
            eps = VolumeForm.from_form(MultiVector.from_json(data["epsilon"]))
        return cls(MultiVector.from_json(data["L1"]), MultiVector.from_json(data["L2"]), eps)


# -- the correspondence J <-> Lambda_J --------------------------------------


def plane_of(j: ComplexStructure) -> OrientedPositivePlane:
    """Λ_J as J built it, under the default volume form; under ε it is ``OrientedPositivePlane(j.plane.omega, j.plane.phi, ε)``."""
    return j.plane


def j_of_plane(p: OrientedPositivePlane) -> ComplexStructure:
    """Inverse of :func:`plane_of`, exact when ⟨ω,ω⟩/⟨φ₁,φ₁⟩ is the square of a rational.

    With φ₁ = φ orthogonalized against ω, the pair (ω, √(⟨ω,ω⟩/⟨φ₁,φ₁⟩)·φ₁)
    has κ = 1, so J = −A for the A with φ(u,v) = ω(Au,v) of that pair, A² = −Id:
    J = −√(⟨ω,ω⟩/⟨φ₁,φ₁⟩)·W_ω⁻¹W_φ₁, with ⟨φ₁,φ₁⟩ = ⟨φ,φ⟩ − ⟨ω,φ⟩²/⟨ω,ω⟩ read
    from the plane's Gram.  An irrational root is a float, and J² = −Id is then
    checked to within 100·``DEFAULT_TOL``.
    """
    (ww, wp), (_, pp) = p.gram
    phi1 = p.phi - p.omega * (wp / ww)
    q = ww / (pp - wp * wp / ww)
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    s = -(Fraction(num, den) if num * num == q.numerator and den * den == q.denominator else sqrt_of(q))
    a = linalg.matmul(linalg.inverse(_form_matrix(p.omega)), _form_matrix(phi1))
    return ComplexStructure(tuple(tuple(s * x for x in row) for row in a), tol=100 * DEFAULT_TOL)


# -- degree and canonical models --------------------------------------------


def degree_squared(s: Splitting) -> Fraction:
    """degree² = ⟨ω,ω′⟩² / (⟨ω,ω⟩⟨ω′,ω′⟩ − ⟨ω,ω′⟩²), exactly."""
    (ww, wp), (_, pp) = s.gram
    denom = ww * pp - wp * wp
    if denom <= 0:
        raise ValueError("splitting invariant violated: nonpositive Gram determinant")
    return (wp * wp) / denom


def degree(s: Splitting) -> float:
    """The degree invariant; 0 for orthogonal splittings."""
    return sqrt_of(degree_squared(s))


def canonical_model(alpha, eps: VolumeForm = DEFAULT_VOLUME) -> Splitting:
    """The model splitting of degree α: L₁ = {ω₀}, L₂ = {αω₀ + φ₀}."""
    a = to_scalar(alpha)
    if a < 0:
        raise ValueError("degree must be nonnegative")
    return Splitting(OMEGA0, OMEGA0 * a + PHI0, eps)


def equivalent(s1: Splitting, s2: Splitting, tol: float = 0) -> bool:
    """Splittings are equivalent iff their degrees agree (complete invariant).

    The degrees δ₁, δ₂ agree to within ``tol`` iff |δ₁² − δ₂²| ≤ tol·(δ₁ + δ₂),
    which at the default ``tol`` = 0 compares the exact degree² values and
    takes no square root.
    """
    d1, d2 = degree_squared(s1), degree_squared(s2)
    return d1 == d2 or (tol > 0 and abs(d1 - d2) <= tol * (sqrt_of(d1) + sqrt_of(d2)))


def act(a: Sequence[Sequence[Fraction]], s: Splitting) -> Splitting:
    """Pull both generator lines back along an orientation-preserving map, ``a`` its 4×4 matrix of rows."""
    a = linalg.mat(a)
    if len(a) != 4 or len(a[0]) != 4:
        raise ValueError("expected an endomorphism of the 4-space")
    if linalg.det(a) <= 0:
        raise ValueError("orientation-reversing maps are not modeled")
    return Splitting(pullback(s.line1, a), pullback(s.line2, a), s.eps)


#: standard complex structure as a validated ComplexStructure
J0 = ComplexStructure(J0_MATRIX)
