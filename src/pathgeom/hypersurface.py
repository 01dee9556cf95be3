"""Parametrized hypersurfaces of ℝ⁴ ≅ ℂ² and the structures they inherit.

A map u : ℝ³ → ℝ⁴ is one :class:`ParamMap` with four rational-function
components (a polynomial is stored over the denominator 1).  With a rank-3
Jacobian it pulls the canonical spanning pair (ω₀, φ₀) back to two
2-forms β₁, β₂ on parameter space, encoded as β = b·⋆dx with
⋆dx = (dx²∧dx³, dx³∧dx¹, dx¹∧dx²).  Everything downstream is cross-product
arithmetic on the coefficient vectors b₁, b₂:

* adapted coframe  η₁ = (b₁×e)·dx, η₂ = e·dx, η₃ = (b₂×e)·dx with
  e = (b₁×b₂)/|b₁×b₂|, so that β₁ = η₂∧η₁ and β₂ = η₂∧η₃;
* line fields      P₁ ∥ b₁, P₂ ∥ b₂ (the kernels of {η₁,η₂} and {η₂,η₃});
* contact test     μ = (b₁×b₂)·dx, nondegenerate iff μ∧dμ ≠ 0, computed
  exactly as (b₁×b₂)·curl(b₁×b₂);
* CR structure     D = T ∩ J₀T with I the restriction of J₀, computed by
  exact intersection of column spans.

The line fields and the contact predicate are exact rational computations;
only the coframe normalization needs floating point.

A map is compiled once per request (:class:`CompiledMap`): its Jacobian
entries, b₁, b₂ and the first partials of their numerators and denominators
are differentiated once.  Each point is then evaluated in integers over the
point's common denominator, every per-point quantity is computed once, and
the public per-point functions are thin wrappers over the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from . import linalg
from .exterior import J0_MATRIX
from .polynomials import CompiledFunctions, Poly, RatFunc, RationalPoint

Coefficient = Union[Poly, RatFunc]
NVARS = 3


def _cross(a: Sequence, b: Sequence):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: Sequence, b: Sequence):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@dataclass(frozen=True)
class ParamMap:
    """Hypersurface parametrization u : ℝ³ → ℝ⁴ with four rational-function components.

    A :class:`Poly` component is stored as ``RatFunc(p)``.  ``to_json`` writes
    the polynomial form when every denominator is the constant 1 and the
    ``"type": "rational"`` form otherwise; ``from_json`` reads both.
    """

    components: Tuple[RatFunc, RatFunc, RatFunc, RatFunc]

    def __post_init__(self):
        comps = tuple(RatFunc(c) if isinstance(c, Poly) else c for c in self.components)
        if len(comps) != 4 or any(not isinstance(c, RatFunc) for c in comps):
            raise ValueError("ParamMap needs exactly four polynomial or rational-function components")
        if any(c.nvars != NVARS for c in comps):
            raise ValueError("components must be functions of three variables")
        object.__setattr__(self, "components", comps)

    def jacobian(self):
        """4×3 matrix of coefficient functions ∂uⁱ/∂xʲ."""
        return [[comp.diff(j) for j in range(NVARS)] for comp in self.components]

    def jacobian_at(self, point: Sequence) -> list:
        """Exact Jacobian at a rational point; raises on rank drop."""
        return _jacobian(_compile_jacobian(self), RationalPoint(point, NVARS))

    def to_json(self) -> dict:
        if all(c.den == 1 for c in self.components):
            return {"vars": ["x1", "x2", "x3"], "components": [c.num.to_json() for c in self.components]}
        return {
            "vars": ["x1", "x2", "x3"],
            "type": "rational",
            "components": [{"num": c.num.to_json(), "den": c.den.to_json()} for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "ParamMap":
        if data.get("type") == "rational":
            return cls(tuple(
                RatFunc(Poly.from_json(c["num"], NVARS), Poly.from_json(c["den"], NVARS)) for c in data["components"]
            ))
        return cls(tuple(Poly.from_json(c, NVARS) for c in data["components"]))


# ``perfbench/layers.py`` wraps ``_ParamMap.jacobian_at`` by this name; the
# line goes when the tracer reads the library's own stage collector (ROADMAP item 5)
_ParamMap = ParamMap


def _star(coeffs, zero) -> tuple:
    """(b₂₃, −b₁₃, b₁₂) from coefficients keyed (i,j) on dxⁱ∧dxʲ, in either order."""

    def get(i, j):
        if (i, j) in coeffs:
            return coeffs[(i, j)]
        if (j, i) in coeffs:
            return -coeffs[(j, i)]
        return zero

    return get(2, 3), -get(1, 3), get(1, 2)


@dataclass(frozen=True)
class PolyForm3:
    """2-form on ℝ³ with function coefficients, stored as β = b·⋆dx."""

    b: Tuple[Coefficient, Coefficient, Coefficient]

    @classmethod
    def from_wedge_coefficients(cls, coeffs) -> "PolyForm3":
        """Build from coefficients on dx¹∧dx², dx¹∧dx³, dx²∧dx³ (keys (i,j), i<j)."""
        return cls(_star(coeffs, Poly.zero(NVARS)))

    def b_at(self, point: Sequence) -> Tuple[Fraction, Fraction, Fraction]:
        pt = [Fraction(x) for x in point]
        return tuple(c(pt) for c in self.b)

    def scaled(self, factor) -> "PolyForm3":
        return PolyForm3(tuple(c * factor for c in self.b))


def star_coefficients(beta) -> tuple:
    """Coefficient vector b of β = b·⋆dx.

    Accepts a :class:`PolyForm3` or a mapping from index pairs (i,j) to
    coefficients (numbers or coefficient functions).
    """
    if isinstance(beta, PolyForm3):
        return beta.b
    coeffs = dict(beta)
    if all(isinstance(v, (int, Fraction)) for v in coeffs.values()):
        return tuple(Fraction(x) for x in _star(coeffs, 0))
    return PolyForm3.from_wedge_coefficients(coeffs).b


def pullback_splitting(u: ParamMap) -> Tuple[PolyForm3, PolyForm3]:
    """β₁ = u*ω₀, β₂ = u*φ₀ by formal differentiation (exact)."""
    jac = u.jacobian()

    def minor(i1, i2, j1, j2):
        return jac[i1][j1] * jac[i2][j2] - jac[i1][j2] * jac[i2][j1]

    pairs = [(1, 2), (1, 3), (2, 3)]
    beta1 = {(j, k): minor(0, 2, j - 1, k - 1) - minor(1, 3, j - 1, k - 1) for j, k in pairs}
    beta2 = {(j, k): minor(0, 3, j - 1, k - 1) + minor(1, 2, j - 1, k - 1) for j, k in pairs}
    return PolyForm3.from_wedge_coefficients(beta1), PolyForm3.from_wedge_coefficients(beta2)


def _compile_jacobian(u: ParamMap) -> CompiledFunctions:
    return CompiledFunctions([f for row in u.jacobian() for f in row], NVARS)


def _compile_pair(beta1: PolyForm3, beta2: PolyForm3) -> CompiledFunctions:
    return CompiledFunctions(beta1.b + beta2.b, NVARS, gradient=True)


class CompiledMap:
    """The derived functions of a map, built once for many points.

    Holds the 4×3 Jacobian entries, and b₁, b₂ with the first partials of
    their numerators and denominators (all that the pointwise quotient rule
    needs).  ``betas`` can pass a precomputed pullback pair.
    """

    def __init__(self, u: ParamMap, betas=None):
        beta1, beta2 = betas if betas is not None else pullback_splitting(u)
        self.jacobian = _compile_jacobian(u)
        self.pair = _compile_pair(beta1, beta2)


def _jacobian(compiled: CompiledFunctions, pt: RationalPoint) -> list:
    """Exact 4×3 Jacobian at the point; raises on rank drop."""
    vals = compiled.at(pt)[0]
    jac = [vals[3 * i : 3 * i + 3] for i in range(4)]
    if linalg.rank(jac) != 3:
        raise ValueError(f"map is not an immersion at {pt.coords}: Jacobian rank < 3")
    return jac


def _pair(compiled: CompiledFunctions, pt: RationalPoint):
    """(b₁, b₂, ∇b₁, ∇b₂) at the point; ∇bᵢ lists the gradient of each component."""
    vals, grads = compiled.at(pt)
    return tuple(vals[:3]), tuple(vals[3:]), grads[:3], grads[3:]


@dataclass(frozen=True)
class AdaptedCoframe:
    """Pointwise coframe (η₁, η₂, η₃) with β₁ = η₂∧η₁ and β₂ = η₂∧η₃."""

    point: Tuple[Fraction, ...]
    eta1: Tuple[float, float, float]
    eta2: Tuple[float, float, float]
    eta3: Tuple[float, float, float]

    def volume(self) -> float:
        """η₁∧η₂∧η₃ coefficient: det of the three covectors."""
        return linalg.det([self.eta1, self.eta2, self.eta3])


def _coframe(coords: Tuple[Fraction, ...], b1, b2, tol: float) -> AdaptedCoframe:
    c = _cross(b1, b2)
    if all(x == 0 for x in c):
        raise ValueError(f"beta forms are dependent at {coords}")
    b1f = tuple(float(x) for x in b1)
    b2f = tuple(float(x) for x in b2)
    cf = tuple(float(x) for x in c)
    norm = math.sqrt(_dot(cf, cf))
    e = tuple(x / norm for x in cf)
    eta1 = _cross(b1f, e)
    eta2 = e
    eta3 = _cross(b2f, e)
    frame = AdaptedCoframe(coords, eta1, eta2, eta3)
    scale = max(1.0, max(abs(x) for x in b1f + b2f))
    res = coframe_residual(frame, b1, b2)
    if res > tol * scale:
        raise ValueError(f"adapted coframe reconstruction residual {res:.3e}")
    # the volume is −|b₁×b₂|, so compare it with |b₁|·|b₂|: the b's shrink
    # far out on a chart while the frame stays as far from degenerate
    if abs(frame.volume()) <= tol * math.hypot(*b1f) * math.hypot(*b2f):
        raise ValueError("adapted coframe is degenerate")
    return frame


def adapted_coframe_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence, tol: float = 1e-10) -> AdaptedCoframe:
    """Cross-product coframe at a point where β₁, β₂ are independent."""
    pt = tuple(Fraction(x) for x in point)
    return _coframe(pt, beta1.b_at(pt), beta2.b_at(pt), tol)


def coframe_residual(frame: AdaptedCoframe, b1: Sequence, b2: Sequence) -> float:
    """max |η₂∧η₁ − β₁|, |η₂∧η₃ − β₂| componentwise, in ⋆dx coordinates."""
    rec1 = _cross(frame.eta2, frame.eta1)
    rec2 = _cross(frame.eta2, frame.eta3)
    return max(
        max(abs(r - float(x)) for r, x in zip(rec1, b1)),
        max(abs(r - float(x)) for r, x in zip(rec2, b2)),
    )


@dataclass(frozen=True)
class PathGeometrySample:
    """The two line-field directions at a point, plus the contact flag."""

    point: Tuple[Fraction, ...]
    p1: Tuple[Fraction, Fraction, Fraction]
    p2: Tuple[Fraction, Fraction, Fraction]
    contact: bool


def _contact_value(coords: Tuple[Fraction, ...], v1, v2, g1, g2) -> Fraction:
    m = _cross(v1, v2)
    if all(x == 0 for x in m):
        raise ValueError(f"beta forms are dependent at {coords}")
    dm = []
    for i in range(NVARS):
        d1 = tuple(g[i] for g in g1)
        d2 = tuple(g[i] for g in g2)
        a = _cross(d1, v2)
        b = _cross(v1, d2)
        dm.append(tuple(x + y for x, y in zip(a, b)))
    curl = (dm[1][2] - dm[2][1], dm[2][0] - dm[0][2], dm[0][1] - dm[1][0])
    return _dot(m, curl)


def contact_value_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence) -> Fraction:
    """(μ∧dμ)/(dx¹∧dx²∧dx³) at the point, μ = (b₁×b₂)·dx; exact.

    Built from values and first derivatives of b₁, b₂ at the point only:
    ∂ᵢ(b₁×b₂) = ∂ᵢb₁×b₂ + b₁×∂ᵢb₂, then m·curl(m).
    """
    pt = RationalPoint(point, NVARS)
    return _contact_value(pt.coords, *_pair(_compile_pair(beta1, beta2), pt))


def is_nondegenerate_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence) -> bool:
    """Exact contact test: μ∧dμ ≠ 0 at the point, μ = (b₁×b₂)·dx.

    Invariant under rescaling β₁, β₂ by nonvanishing functions (the contact
    scalar picks up an even power of the factor).
    """
    return contact_value_at(beta1, beta2, point) != 0


def _line_fields(coords: Tuple[Fraction, ...], b1, b2, g1, g2) -> PathGeometrySample:
    if all(x == 0 for x in _cross(b1, b2)):
        raise ValueError(f"line fields are dependent at {coords}")
    return PathGeometrySample(coords, b1, b2, _contact_value(coords, b1, b2, g1, g2) != 0)


def line_fields_at(beta1: PolyForm3, beta2: PolyForm3, point: Sequence) -> PathGeometrySample:
    """P₁ ∥ b₁(point), P₂ ∥ b₂(point); exact on rational inputs."""
    pt = RationalPoint(point, NVARS)
    return _line_fields(pt.coords, *_pair(_compile_pair(beta1, beta2), pt))


@dataclass(frozen=True)
class CRSample:
    """D = T ∩ J₀T with the restriction I of J₀ in the stored basis of D."""

    point: Tuple[Fraction, ...]
    d_basis: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    param_basis: Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]
    i_matrix: Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


_J0 = linalg.mat(J0_MATRIX)


def _j0_apply(v: Sequence[Fraction]) -> list:
    return linalg.matvec(_J0, list(v))


def _cr_structure(coords: Tuple[Fraction, ...], jac: list) -> CRSample:
    cols = [[jac[i][j] for i in range(4)] for j in range(3)]
    j0_cols = [_j0_apply(c) for c in cols]
    d_basis = linalg.intersect_spans(cols, j0_cols)
    if len(d_basis) != 2:
        raise ValueError(
            f"complex tangent point at {coords}: dim(T ∩ J0·T) = {len(d_basis)}, expected 2"
        )
    d1, d2 = d_basis
    # express the restriction of J0 in the basis (d1, d2)
    basis_cols = linalg.transpose([d1, d2])
    i_cols = []
    for d in (d1, d2):
        sol = linalg.solve(basis_cols, _j0_apply(d))
        if sol is None:
            raise ValueError("D is not J0-invariant; inconsistent intersection")
        i_cols.append(sol)
    i_matrix = ((i_cols[0][0], i_cols[1][0]), (i_cols[0][1], i_cols[1][1]))
    sq = linalg.matmul([list(r) for r in i_matrix], [list(r) for r in i_matrix])
    if sq != [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]:
        raise ValueError("restriction of J0 to D does not square to -Id")
    # pull the basis of D back to parameter space (du is injective)
    param_basis = []
    for d in (d1, d2):
        w = linalg.solve(jac, list(d))
        if w is None:
            raise ValueError("D does not lie in the image of du; inconsistent data")
        param_basis.append(tuple(w))
    return CRSample(coords, (tuple(d1), tuple(d2)), tuple(param_basis), i_matrix)


def cr_structure_at(u: ParamMap, point: Sequence) -> CRSample:
    """Exact CR data of the parametrized hypersurface at a rational point."""
    pt = RationalPoint(point, NVARS)
    return _cr_structure(pt.coords, _jacobian(_compile_jacobian(u), pt))


def _compatible(jac: list, sample: PathGeometrySample, cr: CRSample) -> bool:
    v1 = linalg.matvec(jac, list(sample.p1))
    v2 = linalg.matvec(jac, list(sample.p2))
    if linalg.rank([_j0_apply(v1), v2]) != 1:
        return False
    return linalg.span_equal([v1, v2], [list(b) for b in cr.d_basis])


def compatibility_check(u: ParamMap, point: Sequence, tol: float = 1e-9, betas=None) -> bool:
    """Whether the CR structure maps the P₁ line onto the P₂ line.

    Checks, exactly on rational inputs: J₀(du·P₁) spans du·P₂, and
    du·P₁ ⊕ du·P₂ = D.  The tolerance only matters for floating inputs
    (exact computations leave nothing to approximate).  ``betas`` can pass a
    precomputed pullback pair to avoid redoing the formal differentiation.
    """
    compiled = CompiledMap(u, betas)
    pt = RationalPoint(point, NVARS)
    sample = _line_fields(pt.coords, *_pair(compiled.pair, pt))
    if not sample.contact:
        raise ValueError(f"hypersurface is degenerate (not contact) at {point}")
    jac = _jacobian(compiled.jacobian, pt)
    return _compatible(jac, sample, _cr_structure(pt.coords, jac))


# -- per-point reports -------------------------------------------------------


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def point_record(u: ParamMap, point: Sequence, tol: float = 1e-9, compiled: Optional[CompiledMap] = None) -> dict:
    """One JSON-ready record per query point; degeneracies are flagged, not fatal.

    ``compiled`` can pass the map's :class:`CompiledMap` to share it across points.
    """
    compiled = compiled if compiled is not None else CompiledMap(u)
    coords = tuple(Fraction(x) for x in point)
    rec: dict = {"point": [_rational(x) for x in coords]}
    try:
        pt = RationalPoint(coords, NVARS)
        jac = _jacobian(compiled.jacobian, pt)
        b1, b2, g1, g2 = _pair(compiled.pair, pt)
        rec["b1"] = [_rational(x) for x in b1]
        rec["b2"] = [_rational(x) for x in b2]
        independent = any(x != 0 for x in _cross(b1, b2))
        rec["independent"] = independent
        if not independent:
            rec["error"] = "dependent pullbacks"
            return rec
        frame = _coframe(coords, b1, b2, max(tol, 1e-10))
        rec["coframe"] = {
            "eta1": list(frame.eta1),
            "eta2": list(frame.eta2),
            "eta3": list(frame.eta3),
        }
        sample = _line_fields(coords, b1, b2, g1, g2)
        rec["P1"] = [_rational(x) for x in sample.p1]
        rec["P2"] = [_rational(x) for x in sample.p2]
        rec["contact"] = sample.contact
        cr = _cr_structure(coords, jac)
        rec["cr"] = {
            "D": [[_rational(x) for x in b] for b in cr.d_basis],
            "I": [[_rational(x) for x in row] for row in cr.i_matrix],
        }
        rec["compatible"] = _compatible(jac, sample, cr) if sample.contact else None
    except (ValueError, ZeroDivisionError) as exc:
        rec["error"] = str(exc)
    return rec


def sample_report(u: ParamMap, points: Sequence[Sequence], tol: float = 1e-9) -> list:
    compiled = CompiledMap(u)
    return [point_record(u, p, tol, compiled=compiled) for p in points]


# -- named models ------------------------------------------------------------


def heisenberg_model() -> ParamMap:
    """u(t,w₁,w₂) = (w₁, w₂, t, w₁²+w₂²) with variables ordered (t,w₁,w₂)."""
    t = Poly.variable(0, NVARS)
    w1 = Poly.variable(1, NVARS)
    w2 = Poly.variable(2, NVARS)
    return ParamMap((w1, w2, t, w1 * w1 + w2 * w2))


def affine_plane_model() -> ParamMap:
    """u(x) = (x¹, x², x³, 0): everywhere contact-degenerate."""
    x1 = Poly.variable(0, NVARS)
    x2 = Poly.variable(1, NVARS)
    x3 = Poly.variable(2, NVARS)
    return ParamMap((x1, x2, x3, Poly.zero(NVARS)))


def sphere_chart_model() -> ParamMap:
    """Rational chart of the unit sphere S³ ⊂ ℝ⁴ via the Cayley transform.

    u = ((1−q)/(1+q), 2x¹/(1+q), 2x²/(1+q), 2x³/(1+q)) with q = |x|²;
    |u| = 1 identically and the chart covers S³ minus one point.
    """
    xs = [Poly.variable(i, NVARS) for i in range(NVARS)]
    q = sum((x * x for x in xs), Poly.zero(NVARS))
    den = Poly.constant(1, NVARS) + q
    num0 = Poly.constant(1, NVARS) - q
    comps = (RatFunc(num0, den),) + tuple(RatFunc(2 * x, den) for x in xs)
    return ParamMap(comps)
