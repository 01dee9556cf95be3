"""Graded exterior algebra over finite-dimensional real spaces.

The central object is :class:`MultiVector`, a homogeneous element of
Λᵏ(ℝⁿ)* stored sparsely: a map from strictly increasing 1-based index
tuples to scalars.  Index tuples are sign-normalized at construction, so
equality of values is plain dictionary equality.  Coefficients are
``Fraction``s (see :mod:`pathgeom.scalars`), so every operation is exact.
A linear map is its matrix, a sequence of rows (target × source), which
:func:`pullback` reads with :func:`pathgeom.linalg.mat`.  A form's value on k
vectors and each coefficient of its pullback are one sum, over its terms, of a
coefficient times a k×k minor of a matrix: the vectors as columns, or the
map's matrix.  That sum is taken in one place.

The dimension-4 specifics live at the bottom: the wedge pairing
⟨ω,φ⟩ defined by ω∧φ = ⟨ω,φ⟩ε for a chosen volume form ε, its split
(3,3) signature on Λ²(ℝ⁴)*, and the skew matrix of a 2-form.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from . import linalg
from .scalars import index_from_json, rational_from_json, scalar_to_json, to_scalar

MIN_DIM = 3
MAX_DIM = 12

IndexTuple = Tuple[int, ...]


def _normalize_indices(indices: Sequence[int]) -> Tuple[IndexTuple, int]:
    """(sorted tuple, permutation sign) by insertion sort; sign 0 flags a repeated index, and each caller bounds the length."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] >= idx[j]:
            if idx[j - 1] == idx[j]:
                return tuple(idx), 0
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


class MultiVector:
    """Homogeneous degree-k element of the exterior algebra on (ℝⁿ)*."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms: Mapping[IndexTuple, Fraction]):
        if not MIN_DIM <= dim <= MAX_DIM:
            raise ValueError(f"dimension must be between {MIN_DIM} and {MAX_DIM}, got {dim}")
        if not 0 <= degree <= dim:
            raise ValueError(f"degree must be between 0 and {dim}, got {degree}")
        clean: Dict[IndexTuple, Fraction] = {}
        for idx, coeff in terms.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} does not have degree {degree}")
            if idx != tuple(sorted(set(idx))):
                raise ValueError(f"index tuple {idx} is not strictly increasing")
            if idx and not (1 <= idx[0] and idx[-1] <= dim):
                raise ValueError(f"index tuple {idx} out of range for dim {dim}")
            c = to_scalar(coeff)
            if c != 0:
                clean[idx] = c
        self.dim = dim
        self.degree = degree
        self.terms = clean

    # -- construction -----------------------------------------------------

    @classmethod
    def from_terms(cls, dim: int, terms: Iterable[Tuple[Sequence[int], Fraction]], degree: int) -> "MultiVector":
        """Build from (indices, coefficient) pairs of ``degree`` indices each; indices may be unsorted.

        The dimension and degree are checked first, and each list's length
        before it is sorted, so no list longer than the dimension is sorted.
        """
        acc = cls.zero(dim, degree).terms
        for indices, coeff in terms:
            if len(indices) != degree:
                raise ValueError("mixed degrees in term list")
            idx, sign = _normalize_indices(indices)
            if sign:
                acc[idx] = acc.get(idx, 0) + sign * to_scalar(coeff)
        return cls(dim, degree, acc)

    @classmethod
    def zero(cls, dim: int, degree: int) -> "MultiVector":
        return cls(dim, degree, {})

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int]) -> "MultiVector":
        """The basis monomial e^{i₁}∧…∧e^{iₖ}."""
        return cls.from_terms(dim, [(tuple(indices), Fraction(1))], degree=len(indices))

    @classmethod
    def one_form(cls, components: Sequence[Fraction]) -> "MultiVector":
        """Covector with the given components in the dual basis."""
        return cls(len(components), 1, {(i + 1,): c for i, c in enumerate(components)})

    # -- basic queries -----------------------------------------------------

    def coefficient(self, indices: Sequence[int]) -> Fraction:
        """Coefficient on an index tuple, sign-normalizing unsorted input; 0 on a tuple of another length."""
        if len(indices) != self.degree:
            return Fraction(0)
        idx, sign = _normalize_indices(indices)
        return sign * self.terms.get(idx, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def norm_inf(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def components(self) -> list:
        """Coefficient vector over all increasing tuples, in lexicographic order."""
        return [self.terms.get(idx, Fraction(0)) for idx in combinations(range(1, self.dim + 1), self.degree)]

    # -- arithmetic --------------------------------------------------------

    def _check_same_space(self, other: "MultiVector"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check_same_space(other)
        acc = dict(self.terms)
        for idx, c in other.terms.items():
            acc[idx] = acc.get(idx, 0) + c
        return MultiVector(self.dim, self.degree, acc)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + (-other)

    def __neg__(self) -> "MultiVector":
        return MultiVector(self.dim, self.degree, {i: -c for i, c in self.terms.items()})

    def __mul__(self, scalar) -> "MultiVector":
        s = to_scalar(scalar)
        return MultiVector(self.dim, self.degree, {i: s * c for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiVector):
            return NotImplemented
        return self.dim == other.dim and self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"MultiVector(dim={self.dim}, degree={self.degree}, 0)"
        parts = []
        for idx in sorted(self.terms):
            mono = "∧".join(f"e{i}" for i in idx) if idx else "1"
            parts.append(f"{self.terms[idx]}·{mono}")
        return f"MultiVector({' + '.join(parts)})"

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "terms": [{"idx": list(idx), "c": scalar_to_json(c)} for idx, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiVector":
        return cls.from_terms(
            index_from_json(data["dim"]),
            [(tuple(map(index_from_json, t["idx"])), rational_from_json(t["c"])) for t in data["terms"]],
            degree=index_from_json(data["degree"]),
        )


class VolumeForm:
    """Volume form on ℝ⁴: ε = c·e¹∧e²∧e³∧e⁴ with c ≠ 0."""

    __slots__ = ("coefficient",)

    def __init__(self, coefficient: Fraction = Fraction(1)):
        self.coefficient = to_scalar(coefficient)
        if self.coefficient == 0:
            raise ValueError("volume form must be nonzero")

    def __eq__(self, other) -> bool:
        if not isinstance(other, VolumeForm):
            return NotImplemented
        return self.coefficient == other.coefficient

    def __hash__(self):
        return hash(self.coefficient)

    def as_form(self) -> MultiVector:
        return MultiVector(4, 4, {(1, 2, 3, 4): self.coefficient})

    def flipped(self) -> "VolumeForm":
        return VolumeForm(-self.coefficient)

    @classmethod
    def from_form(cls, form: MultiVector) -> "VolumeForm":
        if form.dim != 4 or form.degree != 4:
            raise ValueError("volume form must be a 4-form on a 4-space")
        return cls(form.coefficient((1, 2, 3, 4)))


DEFAULT_VOLUME = VolumeForm(Fraction(1))


# -- operations -----------------------------------------------------------


def wedge(a: MultiVector, b: MultiVector) -> MultiVector:
    """Wedge product a∧b.

    Degree adds; a degree sum exceeding the ambient dimension is rejected
    rather than silently returning zero.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    deg = a.degree + b.degree
    if deg > a.dim:
        raise ValueError(f"degree overflow: {a.degree}+{b.degree} exceeds dim {a.dim}")
    acc: Dict[IndexTuple, Fraction] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            idx, sign = _normalize_indices(ia + ib)
            if sign:
                acc[idx] = acc.get(idx, 0) + sign * ca * cb
    return MultiVector(a.dim, deg, acc)


def _minor_sum(form: MultiVector, matrix: Sequence[Sequence[Fraction]], cols: Sequence[int]) -> Fraction:
    """Σ c·det(rows idx, columns ``cols`` of ``matrix``) over the form's terms c·e^idx, all 1-based.

    The 0×0 minor is 1, so a degree-0 form gives its constant.
    """
    return sum((c * linalg.det([[matrix[i - 1][j - 1] for j in cols] for i in idx]) for idx, c in form.terms.items()),
               Fraction(0))


def evaluate(form: MultiVector, vectors: Sequence[Sequence[Fraction]]) -> Fraction:
    """Evaluate a degree-k form on k vectors (fully antisymmetric, multilinear)."""
    if len(vectors) != form.degree:
        raise ValueError(f"form of degree {form.degree} needs {form.degree} vectors, got {len(vectors)}")
    vecs = [[to_scalar(x) for x in v] for v in vectors]
    for v in vecs:
        if len(v) != form.dim:
            raise ValueError("vector has wrong dimension")
    return _minor_sum(form, linalg.transpose(vecs), range(1, form.degree + 1))


def pullback(form: MultiVector, a: Sequence[Sequence[Fraction]]) -> MultiVector:
    """Pullback a*form: (a*form)(v₁,…,vₖ) = form(av₁,…,avₖ), whose coefficient on e^jdx is a minor sum.

    ``a`` is the map's matrix of rows, target × source.
    """
    a = linalg.mat(a)
    if form.dim != len(a):
        raise ValueError(f"form lives on dim {form.dim}, map targets dim {len(a)}")
    m, k = len(a[0]), form.degree
    return MultiVector(m, k, {jdx: _minor_sum(form, a, jdx) for jdx in combinations(range(1, m + 1), k)})


def conformal_pairing(omega: MultiVector, phi: MultiVector, eps: VolumeForm = DEFAULT_VOLUME) -> Fraction:
    """The scalar ⟨ω,φ⟩ with ω∧φ = ⟨ω,φ⟩ε, for 2-forms on ℝ⁴."""
    if omega.dim != 4 or phi.dim != 4 or omega.degree != 2 or phi.degree != 2:
        raise ValueError("conformal pairing is defined for 2-forms on a 4-space")
    return wedge(omega, phi).coefficient((1, 2, 3, 4)) / eps.coefficient


Gram = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def gram_matrix(omega: MultiVector, phi: MultiVector, eps: VolumeForm = DEFAULT_VOLUME) -> Gram:
    """2×2 wedge Gram matrix ((⟨ω,ω⟩, ⟨ω,φ⟩), (⟨ω,φ⟩, ⟨φ,φ⟩)), pairings in that order."""
    ww = conformal_pairing(omega, omega, eps)
    wp = conformal_pairing(omega, phi, eps)
    pp = conformal_pairing(phi, phi, eps)
    return (ww, wp), (wp, pp)


def _gram_definite_sign(g: Gram) -> int:
    """+1 / −1 for a definite 2×2 wedge Gram, 0 otherwise (exactly).

    A definite Gram is an elliptic pair: ⟨ω,ω⟩⟨φ,φ⟩ > ⟨ω,φ⟩².
    """
    (ww, wp), (_, pp) = g
    if ww * pp - wp * wp <= 0:
        return 0
    return 1 if ww > 0 else -1


def pairing_signature(eps: VolumeForm = DEFAULT_VOLUME) -> Tuple[int, int]:
    """Signature (p, q) of the wedge pairing on Λ²(ℝ⁴)*: always (3, 3).

    Computed, not asserted: the 6×6 Gram matrix on the basis monomials
    e^i∧e^j is built and its inertia taken exactly.
    """
    basis = [MultiVector.basis(4, idx) for idx in combinations(range(1, 5), 2)]
    gram = [[conformal_pairing(x, y, eps) for y in basis] for x in basis]
    pos, neg, zero = linalg.inertia(gram)
    if zero != 0:
        raise ValueError("wedge pairing degenerated; volume form invalid")
    return pos, neg


def _form_matrix(form: MultiVector) -> linalg.Matrix:
    """The skew matrix W with form(u, v) = uᵀWv, for a 2-form on ℝ⁴."""
    return [[form.coefficient((i, j)) for j in range(1, 5)] for i in range(1, 5)]


# -- dimension-4 model data ------------------------------------------------

#: ω₀ = e¹∧e³ − e²∧e⁴ (real part of dz¹∧dz² on ℂ² ≅ ℝ⁴)
OMEGA0 = MultiVector(4, 2, {(1, 3): Fraction(1), (2, 4): Fraction(-1)})

#: φ₀ = e¹∧e⁴ + e²∧e³ (imaginary part of dz¹∧dz²)
PHI0 = MultiVector(4, 2, {(1, 4): Fraction(1), (2, 3): Fraction(1)})

#: Standard complex structure on ℝ⁴ ≅ ℂ²: J₀e₁=e₂, J₀e₂=−e₁, J₀e₃=e₄, J₀e₄=−e₃.
J0_MATRIX: Tuple[Tuple[Fraction, ...], ...] = (
    (Fraction(0), Fraction(-1), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(0), Fraction(-1)),
    (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
)
