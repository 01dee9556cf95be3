"""Splittings of complex structures on ℝ⁴ and the degree invariant.

A complex structure J compatible with the orientation corresponds to an
oriented 2-plane Λ_J ⊂ Λ²(ℝ⁴)* on which the wedge pairing is positive
definite: Λ_J is spanned by the real and imaginary parts of any (2,0)-form.
A splitting is a pair of lines L₁, L₂ with Λ_J = L₁ ⊕ L₂; its complete
invariant under pullback equivalence is a single number, the degree

    degree = |⟨ω,ω′⟩| / sqrt(⟨ω,ω⟩⟨ω′,ω′⟩ − ⟨ω,ω′⟩²)

for any generators ω of L₁ and ω′ of L₂.  The model of degree α has
L₁ = {ω₀} and L₂ = {αω₀ + φ₀}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import linalg
from .exterior import (
    DEFAULT_VOLUME,
    J0_MATRIX,
    OMEGA0,
    PHI0,
    LinearMap,
    MultiVector,
    VolumeForm,
    conformal_pairing,
    gram_matrix,
    pullback,
    wedge,
)
from .pairs import DEFAULT_TOL, EllipticPair, normal_form, orthogonalize
from .scalars import Scalar, is_exact, to_scalar


def _gram_definite_sign(g) -> int:
    """+1 / −1 for a definite 2×2 symmetric matrix, 0 otherwise (exact if exact).

    Raises when a float determinant overflows: inf − inf is nan, and
    ``nan <= 0`` would let the matrix pass as definite.
    """
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    if isinstance(det, float) and not math.isfinite(det):
        raise ValueError(f"wedge Gram determinant overflowed to {det}")
    if det <= 0:
        return 0
    return 1 if g[0][0] > 0 else -1


@dataclass(frozen=True)
class ComplexStructure:
    """Orientation-compatible complex structure J on ℝ⁴ (J² = −Id)."""

    matrix: Tuple[Tuple[Scalar, ...], ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        rows = tuple(tuple(to_scalar(x) for x in row) for row in self.matrix)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("J must be a 4x4 matrix")
        object.__setattr__(self, "matrix", rows)
        self._check_square()
        # orientation compatibility is certified by positive definiteness of
        # the wedge Gram on Λ_J; plane_of raises for the negative component
        plane_of(self)

    def _check_square(self):
        sq = linalg.matmul(self.matrix, self.matrix)
        residual = max(abs(sq[i][j] + (1 if i == j else 0)) for i in range(4) for j in range(4))
        if residual > (0 if self.is_exact else self.tol):
            raise ValueError("J^2 != -Id" + (" (exact check)" if self.is_exact else " beyond tolerance"))

    @property
    def is_exact(self) -> bool:
        return all(is_exact(x) for row in self.matrix for x in row)

    def as_map(self) -> LinearMap:
        return LinearMap(self.matrix)

    def conjugate(self, a: LinearMap) -> "ComplexStructure":
        """A⁻¹JA: the pullback action of GL⁺ on complex structures."""
        m = a.inverse().compose(self.as_map()).compose(a)
        return ComplexStructure(m.matrix, tol=self.tol)


@dataclass(frozen=True)
class OrientedPositivePlane:
    """Ordered spanning pair (ω, φ); the order is the orientation."""

    omega: MultiVector
    phi: MultiVector
    eps: VolumeForm = DEFAULT_VOLUME

    def __post_init__(self):
        g = gram_matrix(self.omega, self.phi, self.eps)
        if _gram_definite_sign(g) != 1:
            raise ValueError("wedge pairing is not positive definite on the span")

    def spans_same_oriented_plane(self, other: "OrientedPositivePlane", tol: float = DEFAULT_TOL) -> bool:
        """Equal spans and consistent orientation (exact when inputs are exact)."""
        mine = [self.omega.components(), self.phi.components()]
        theirs = [other.omega.components(), other.phi.components()]
        exact = all(is_exact(x) for row in mine + theirs for x in row)
        if exact:
            if linalg.rank(mine + theirs) != 2:
                return False
            # change of basis: solve [omega phi]^T c = other
            cols = linalg.transpose(mine)
            c1 = linalg.solve(cols, theirs[0])
            c2 = linalg.solve(cols, theirs[1])
            if c1 is None or c2 is None:
                return False
            return linalg.det([c1, c2]) > 0
        amat = np.array(mine, dtype=float).T
        sol, res, rank_, _ = np.linalg.lstsq(amat, np.array(theirs, dtype=float).T, rcond=None)
        resid = np.max(np.abs(amat @ sol - np.array(theirs, dtype=float).T))
        scale = max(1.0, np.max(np.abs(theirs)))
        if resid > tol * scale:
            return False
        return linalg.det(sol.tolist()) > 0


@dataclass(frozen=True)
class Splitting:
    """Two lines in Λ²(ℝ⁴)*, each held by a generator, with a volume form.

    The wedge pairing must be definite on the span; if it is negative
    definite the volume form is flipped and the flip recorded.
    """

    line1: MultiVector
    line2: MultiVector
    eps: VolumeForm = DEFAULT_VOLUME
    epsilon_flipped: bool = field(default=False, compare=False)

    def __post_init__(self):
        for f, name in ((self.line1, "line1"), (self.line2, "line2")):
            if f.dim != 4 or f.degree != 2 or f.is_zero:
                raise ValueError(f"{name} must be a nonzero 2-form on the 4-space")
        g = gram_matrix(self.line1, self.line2, self.eps)
        sign = _gram_definite_sign(g)
        if sign == 0:
            raise ValueError("wedge pairing is indefinite on the span of the two lines")
        if sign < 0:
            object.__setattr__(self, "eps", self.eps.flipped())
            object.__setattr__(self, "epsilon_flipped", True)

    def pairings(self) -> Tuple[Scalar, Scalar, Scalar]:
        return (
            conformal_pairing(self.line1, self.line1, self.eps),
            conformal_pairing(self.line1, self.line2, self.eps),
            conformal_pairing(self.line2, self.line2, self.eps),
        )

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


def lines_parallel(a: MultiVector, b: MultiVector) -> bool:
    """Whether two 2-forms span the same line (exact when inputs are exact)."""
    return linalg.rank([a.components(), b.components()]) <= 1


# -- the correspondence J <-> Lambda_J --------------------------------------


def plane_of(j: ComplexStructure, eps: VolumeForm = DEFAULT_VOLUME, seed_covectors: Optional[Tuple[int, int]] = None) -> OrientedPositivePlane:
    """Λ_J as the oriented plane (Re α, Im α) of a (2,0)-form α.

    α is built from a complex coframe (η¹, η²) with η = ξ − i(ξ∘J); the span
    and orientation do not depend on the seed covectors ξ (testable via
    ``seed_covectors``).  Raises when J is incompatible with the orientation,
    i.e. when the wedge Gram on Λ_J comes out negative definite.
    """
    jt = [list(col) for col in zip(*j.matrix)]  # action on covectors: xi o J

    def pull(xi):
        return [sum(jt[r][c] * xi[c] for c in range(4)) for r in range(4)]

    def covector(i):
        return [to_scalar(1) if k == i else to_scalar(0) for k in range(4)]

    if seed_covectors is not None:
        i1, i2 = seed_covectors
        xi1, xi2 = covector(i1 - 1), covector(i2 - 1)
        if linalg.rank([xi1, pull(xi1), xi2, pull(xi2)]) != 4:
            raise ValueError("seed covectors do not give a complex coframe")
    else:
        xi1 = covector(0)
        xi2 = None
        for i in range(1, 4):
            cand = covector(i)
            if linalg.rank([xi1, pull(xi1), cand, pull(cand)]) == 4:
                xi2 = cand
                break
        if xi2 is None:
            raise ValueError("could not complete a complex coframe; J is degenerate")

    j1, j2 = pull(xi1), pull(xi2)
    w1 = MultiVector.one_form(xi1)
    w2 = MultiVector.one_form(xi2)
    jw1 = MultiVector.one_form(j1)
    jw2 = MultiVector.one_form(j2)
    # alpha = (xi1 - i J*xi1) ^ (xi2 - i J*xi2)
    re = wedge(w1, w2) - wedge(jw1, jw2)
    im = -(wedge(w1, jw2) + wedge(jw1, w2))
    g = gram_matrix(re, im, eps)
    sign = _gram_definite_sign(g)
    if sign == 0:
        raise ValueError("degenerate wedge Gram; J violates its invariants")
    if sign < 0:
        raise ValueError("J is incompatible with the orientation (negative-definite wedge Gram)")
    return OrientedPositivePlane(re, im, eps)


def j_of_plane(p: OrientedPositivePlane, tol: float = DEFAULT_TOL) -> ComplexStructure:
    """Inverse of :func:`plane_of` up to tolerance.

    Orthogonalizes and rescales the spanning pair to the κ = 1 normal form,
    then applies J(v) = −e²(v)e₁ + e¹(v)e₂ − e⁴(v)e₃ + e³(v)e₄ in the
    normalizing basis.
    """
    omega = p.omega
    phi1 = orthogonalize(omega, p.phi, p.eps)
    ww = conformal_pairing(omega, omega, p.eps)
    pp = conformal_pairing(phi1, phi1, p.eps)
    if float(pp) <= 0 or float(ww) <= 0:
        raise ValueError("plane is not positive; cannot build a complex structure")
    phi2 = phi1 * math.sqrt(float(ww) / float(pp))
    nf = normal_form(EllipticPair(omega, phi2, p.eps), tol=tol)
    coframe = np.array(nf.basis, dtype=float)
    basis_cols = np.linalg.inv(coframe)
    j_block = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    j = basis_cols @ j_block @ coframe
    return ComplexStructure(tuple(tuple(float(x) for x in row) for row in j), tol=max(tol, 1e-12) * 100)


# -- degree and canonical models --------------------------------------------


def degree_squared(s: Splitting) -> Scalar:
    """degree² = ⟨ω,ω′⟩² / (⟨ω,ω⟩⟨ω′,ω′⟩ − ⟨ω,ω′⟩²); exact on exact inputs."""
    ww, wp, pp = s.pairings()
    denom = ww * pp - wp * wp
    if denom <= 0:
        raise ValueError("splitting invariant violated: nonpositive Gram determinant")
    return (wp * wp) / denom


def degree(s: Splitting) -> float:
    """The degree invariant; 0 for orthogonal splittings."""
    return math.sqrt(float(degree_squared(s)))


def canonical_model(alpha, eps: VolumeForm = DEFAULT_VOLUME) -> Splitting:
    """The model splitting of degree α: L₁ = {ω₀}, L₂ = {αω₀ + φ₀}."""
    a = to_scalar(alpha)
    if a < 0:
        raise ValueError("degree must be nonnegative")
    return Splitting(OMEGA0, OMEGA0 * a + PHI0, eps)


def equivalent(s1: Splitting, s2: Splitting, tol: float = DEFAULT_TOL) -> bool:
    """Splittings are equivalent iff their degrees agree (complete invariant).

    Exact splittings compare degree² exactly; otherwise degrees agree to ``tol``.
    """
    d1, d2 = degree_squared(s1), degree_squared(s2)
    if is_exact(d1) and is_exact(d2):
        return d1 == d2
    return abs(math.sqrt(float(d1)) - math.sqrt(float(d2))) <= tol


def act(a: LinearMap, s: Splitting) -> Splitting:
    """Pull both generator lines back along an orientation-preserving map."""
    if a.source_dim != 4 or a.target_dim != 4:
        raise ValueError("expected an endomorphism of the 4-space")
    if a.det() <= 0:
        raise ValueError("orientation-reversing maps are not modeled")
    return Splitting(pullback(s.line1, a), pullback(s.line2, a), s.eps)


#: standard complex structure as a validated ComplexStructure
J0 = ComplexStructure(J0_MATRIX)
