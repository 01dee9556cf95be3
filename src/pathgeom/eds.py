"""Exact Cartan-test verification on the 12-dimensional model space.

The model space carries a coframe made of eight independent connection
1-forms θⁱⱼ of an sl(3)-valued connection (the trace relation eliminates
θ²₂ = −θ⁰₀ − θ¹₁) together with the coordinate forms dx¹..dx⁴.  The
structure equations are dθ = Θ − θ∧θ with curvature

    Θ = [[0, W₁ θ¹₀∧θ²₀, (W₂θ¹₀ + F₂θ²₁)∧θ²₀],
         [0, 0,          F₁ θ²₁∧θ²₀],
         [0, 0,          0]]

for four free scalars (W₁, W₂, F₁, F₂).  The differential ideal is generated
by χ₁ = θ²₀∧θ¹₀ − ω₀ and χ₂ = θ²₀∧θ²₁ − φ₀ with independence 3-form
ζ = θ¹₀∧θ²₀∧θ²₁.  The ideal involves only θ¹₀, θ²₀ and θ²₁, and Θ is
strictly upper triangular, so Θ¹₀ = Θ²₀ = Θ²₁ = 0: the ideal is the same for
every curvature, and one Cartan test covers every sample.  The test builds
the polar equations of each element E once, as integer rows, and reads them
three ways: E is integral iff they vanish on E, its polar space is their
kernel and the characters are their ranks.  The codimension near the flag is
the rank of the linearized conditions, whose integer rows never become
Fractions, and ζ is a rank on three slots.  A :class:`Flag` is the one way
vectors become integer rows, a :class:`ConstantIdeal` keeps its forms'
integer terms, and ω₀, φ₀ are those of :mod:`pathgeom.exterior`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .exterior import OMEGA0, PHI0, MultiVector, wedge
from .scalars import json_of_shape, rational_from_json, scalar_to_json, to_scalar

#: coframe slot order: eight connection components, then the coordinates
COFRAME_LABELS: Tuple[str, ...] = (
    "t00", "t01", "t02", "t10", "t11", "t12", "t20", "t21",
    "dx1", "dx2", "dx3", "dx4",
)
DIM = len(COFRAME_LABELS)

#: the 1-based slot of each label; θⁱⱼ is ``t{i}{j}``
_SLOT: Dict[str, int] = {label: i + 1 for i, label in enumerate(COFRAME_LABELS)}
#: the 0-based slots of θ¹₀, θ²₀ and θ²₁, the only components ζ reads
_ZETA_SLOTS = tuple(_SLOT[label] - 1 for label in ("t10", "t20", "t21"))


def theta(i: int, j: int) -> MultiVector:
    """Connection component θⁱⱼ as a 1-form; θ²₂ is the trace elimination."""
    if (i, j) == (2, 2):
        return -(theta(0, 0) + theta(1, 1))
    label = f"t{i}{j}"
    if label not in _SLOT:
        raise ValueError(f"no connection component ({i},{j})")
    return MultiVector.basis(DIM, (_SLOT[label],))


class CurvatureSample:
    """Values of the four free curvature functions at the base point, written to JSON once, when built."""

    __slots__ = ("w1", "w2", "f1", "f2", "_text")
    _KEYS = ("W1", "W2", "F1", "F2")

    def __init__(self, w1: Fraction, w2: Fraction, f1: Fraction, f2: Fraction):
        values = self.w1, self.w2, self.f1, self.f2 = tuple(map(to_scalar, (w1, w2, f1, f2)))
        self._text = tuple(map(scalar_to_json, values))

    # "p/q" in lowest terms: equal strings are equal values
    def __eq__(self, other) -> bool:
        if not isinstance(other, CurvatureSample):
            return NotImplemented
        return self._text == other._text

    def __hash__(self):
        return hash(self._text)

    def to_json(self) -> dict:
        return dict(zip(self._KEYS, self._text))

    @classmethod
    def from_json(cls, data) -> "CurvatureSample":
        data = json_of_shape(data, dict, "a curvature sample", *cls._KEYS)
        return cls(*(rational_from_json(data[k]) for k in cls._KEYS))


#: ``sample_curvatures`` draws each value as k/SAMPLE_DENOMINATOR with |k| ≤ SAMPLE_BOUND·SAMPLE_DENOMINATOR
SAMPLE_BOUND, SAMPLE_DENOMINATOR = 10, 100


def sample_curvatures(n: int, seed: int = 0) -> List[CurvatureSample]:
    """n deterministic pseudo-random rational samples in [-SAMPLE_BOUND, SAMPLE_BOUND]^4."""
    rng = random.Random(seed)
    out = []
    top = SAMPLE_BOUND * SAMPLE_DENOMINATOR
    for _ in range(n):
        vals = [Fraction(rng.randint(-top, top), SAMPLE_DENOMINATOR) for _ in range(4)]
        out.append(CurvatureSample(*vals))
    return out


def _curvature_form(i: int, j: int, c: CurvatureSample) -> MultiVector:
    t10, t20, t21 = theta(1, 0), theta(2, 0), theta(2, 1)
    if (i, j) == (0, 1):
        return wedge(t10, t20) * c.w1
    if (i, j) == (0, 2):
        return wedge(t10, t20) * c.w2 + wedge(t21, t20) * c.f2
    if (i, j) == (1, 2):
        return wedge(t21, t20) * c.f1
    return MultiVector.zero(DIM, 2)


def structure_d(component: str, curvature: CurvatureSample) -> MultiVector:
    """dθⁱⱼ = Θⁱⱼ − θⁱₖ∧θᵏⱼ for connection components; d(dxˡ) = 0."""
    if component not in _SLOT:
        raise ValueError(f"unknown coframe component {component!r}")
    if component.startswith("dx"):
        return MultiVector.zero(DIM, 2)
    i, j = int(component[1]), int(component[2])
    acc = _curvature_form(i, j, curvature)
    for k in range(3):
        acc = acc - wedge(theta(i, k), theta(k, j))
    return acc


def on_dx_slots(form: MultiVector) -> MultiVector:
    """A form on ℝ⁴ written in the 12-dimensional coframe, with dxⁱ at the slot of ``dx{i}``."""
    if form.dim != 4:
        raise ValueError(f"expected a form on the 4-space, got dim {form.dim}")
    return MultiVector(DIM, form.degree, {tuple(_SLOT[f"dx{i}"] for i in idx): c for idx, c in form.terms.items()})


def _integer_terms(form: MultiVector) -> Tuple[dict, int]:
    """The form's terms times the lcm of their denominators, as ints, and that lcm."""
    den = lcm(*(c.denominator for c in form.terms.values()))
    return {idx: c.numerator * (den // c.denominator) for idx, c in form.terms.items()}, den


class ConstantIdeal:
    """Generators and their differentials frozen at a point, with their integer terms, computed once, when built."""

    __slots__ = ("generators", "differentials", "_generator_terms", "_differential_terms")

    def __init__(self, generators: Tuple[MultiVector, ...], differentials: Tuple[MultiVector, ...]):
        self.generators, self.differentials = generators, differentials
        self._generator_terms = [_integer_terms(chi)[0] for chi in generators]
        self._differential_terms = [_integer_terms(dchi)[0] for dchi in differentials]


def ideal_at(curvature: CurvatureSample) -> ConstantIdeal:
    """χ₁ = θ²₀∧θ¹₀ − ω₀, χ₂ = θ²₀∧θ²₁ − φ₀ and their differentials."""
    t10, t20, t21 = theta(1, 0), theta(2, 0), theta(2, 1)
    chi1 = wedge(t20, t10) - on_dx_slots(OMEGA0)
    chi2 = wedge(t20, t21) - on_dx_slots(PHI0)
    dt20 = structure_d("t20", curvature)
    dt10 = structure_d("t10", curvature)
    dt21 = structure_d("t21", curvature)
    dchi1 = wedge(dt20, t10) - wedge(t20, dt10)
    dchi2 = wedge(dt20, t21) - wedge(t20, dt21)
    return ConstantIdeal((chi1, chi2), (dchi1, dchi2))


class Flag:
    """Nested elements E¹ ⊂ E² ⊂ … given by independent vectors: the one way vectors become integer rows.

    It keeps them times the lcm ``_scale`` of their denominators, as ints, and
    the pivots of their echelon form with the slots read backwards.
    """

    __slots__ = ("vectors", "_integers", "_scale", "_pivots")

    def __init__(self, vectors: Sequence[Sequence[Fraction]]):
        vecs = tuple(tuple(to_scalar(x) for x in v) for v in vectors)
        if any(len(v) != DIM for v in vecs):
            raise ValueError("flag vector has wrong dimension")
        lam = lcm(*(x.denominator for v in vecs for x in v))
        ints = [[x.numerator * (lam // x.denominator) for x in v] for v in vecs]
        pivots = linalg.echelon([v[::-1] for v in ints])[1]
        if len(pivots) != len(vecs):
            raise ValueError("flag vectors are linearly dependent")
        self.vectors, self._integers, self._scale, self._pivots = vecs, ints, lam, pivots


def _named_vector(**components) -> Tuple[Fraction, ...]:
    v = [Fraction(0)] * DIM
    for label, value in components.items():
        v[_SLOT[label] - 1] = to_scalar(value)
    return tuple(v)


def reference_flag() -> Flag:
    """The explicit flag used by the involutivity verification.

    v₁ = T¹₀+T²₀+T²₁+∂ₓ⁴, v₂ = T⁰₀+T¹₀−T²₁+∂ₓ¹+∂ₓ², v₃ = T¹₁−T²₁+∂ₓ¹.
    """
    return Flag((
        _named_vector(t10=1, t20=1, t21=1, dx4=1),
        _named_vector(t00=1, t10=1, t21=-1, dx1=1, dx2=1),
        _named_vector(t11=1, t21=-1, dx1=1),
    ))


def zeta_forms() -> Tuple[MultiVector, MultiVector, MultiVector]:
    """The independence covectors ζ¹ = θ¹₀, ζ² = θ²₀, ζ³ = θ²₁."""
    return theta(1, 0), theta(2, 0), theta(2, 1)


def _zeta_nonzero(flag: Flag) -> bool:
    """ζ = ζ¹∧ζ²∧ζ³ nonzero on a 3-dimensional flag: its integer rows have rank 3 on the θ¹₀, θ²₀, θ²₁ slots."""
    return len(linalg.echelon([[v[s] for s in _ZETA_SLOTS] for v in flag._integers])[1]) == 3


def independence_check(vectors: Sequence[Sequence[Fraction]]) -> bool:
    """ζ nonzero on the span of three independent vectors."""
    if len(vectors) != 3:
        raise ValueError("independence condition applies to 3-dimensional elements")
    return _zeta_nonzero(Flag(vectors))


def _contract_two_form(terms: dict, v: Sequence[Fraction]) -> list:
    """Row of the covector w ↦ form(v, w), for the form with these terms."""
    row = [0] * DIM
    for (a, b), c in terms.items():
        row[b - 1] += c * v[a - 1]
        row[a - 1] -= c * v[b - 1]
    return row


def _contract_three_form(terms: dict, va: Sequence[Fraction], vb: Sequence[Fraction]) -> list:
    """Row of the covector w ↦ form(va, vb, w), for the form with these terms."""
    row = [0] * DIM
    for (a, b, c), coeff in terms.items():
        # expand det[[va_a, vb_a, w_a], [va_b, vb_b, w_b], [va_c, vb_c, w_c]] along w
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            row[i - 1] += coeff * (va[j - 1] * vb[k - 1] - va[k - 1] * vb[j - 1])
    return row


def _polar_rows(vecs: Sequence[Sequence[int]], ideal: ConstantIdeal) -> List[List[int]]:
    """The polar equations of E = span(vecs) as integer rows: χ(v, ·), then dχ(v, v′, ·).

    Scaling a form or a vector to integers scales rows by nonzero factors,
    which changes no zero test, span, rank or pivot column.
    """
    rows = [_contract_two_form(chi, v) for v in vecs for chi in ideal._generator_terms]
    return rows + [_contract_three_form(dchi, va, vb) for va, vb in combinations(vecs, 2) for dchi in ideal._differential_terms]


def _integral_rows(vecs: Sequence[Sequence[int]], ideal: ConstantIdeal) -> Optional[List[List[int]]]:
    """The polar rows of E = span(vecs), independent integer vectors, if E is integral, None if it is not.

    E is integral iff every polar row of E vanishes on every vector of E:
    χ(v, ·) on v′ is χ(v, v′) and dχ(v, v′, ·) on v″ is dχ(v, v′, v″), every
    generator on every pair and every differential on every triple.
    """
    rows = _polar_rows(vecs, ideal)
    return None if any(sum(map(mul, row, v)) for row in rows for v in vecs) else rows


def is_integral_element(vectors: Sequence[Sequence[Fraction]], ideal: ConstantIdeal) -> bool:
    """E is integral iff every polar row of E vanishes on every vector of E."""
    return _integral_rows(Flag(vectors)._integers, ideal) is not None


def polar_space(vectors: Sequence[Sequence[Fraction]], ideal: ConstantIdeal) -> Tuple[List[List[Fraction]], int]:
    """Polar space H(E) of an integral element E and its codimension.

    H(E) = {v : χ(w, v) = 0 and dχ(w, w′, v) = 0 for all w, w′ ∈ E}, the
    kernel of the polar rows; with no 1-forms in the ideal, E⁰ has no polar
    rows and H(E⁰) is the whole tangent space.
    """
    rows = _integral_rows(Flag(vectors)._integers, ideal)
    if rows is None:
        raise ValueError("polar space of a non-integral element")
    basis = linalg.nullspace(rows) if rows else linalg.identity(DIM)
    return basis, DIM - len(basis)


class Characters:
    """Cartan characters with the codimension bound and the test verdict."""

    __slots__ = ("s0", "s1", "s2", "s3", "codim_bound", "codim_actual", "involutive")

    def __init__(self, s0: int, s1: int, s2: int, s3: int, codim_bound: int, codim_actual: int, involutive: bool):
        self.s0, self.s1, self.s2, self.s3 = s0, s1, s2, s3
        self.codim_bound, self.codim_actual, self.involutive = codim_bound, codim_actual, involutive

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.s0, self.s1, self.s2, self.s3)


def characters(flag: Flag, ideal: ConstantIdeal) -> Characters:
    """Characters s₀..s₃ from polar-space codimensions, plus Cartan's test.

    cₖ = codim H(Eᵏ), the rank of the polar rows of Eᵏ; s₀ = c₀, s₁ = c₁−c₀,
    s₂ = c₂−c₁, s₃ = 9−c₂; the bound is c₀+c₁+c₂ and the ideal is involutive
    at the flag iff the actual codimension equals the bound.  E⁰ has no polar
    rows, so c₀ = 0, and those of E¹ are the first of E²'s, one per generator.
    """
    if len(flag.vectors) != 3:
        raise ValueError("need a full flag (three vectors)")
    rows = _integral_rows(flag._integers[:2], ideal)
    if rows is None:
        raise ValueError("polar space of a non-integral element")
    c1, c2 = (len(linalg.echelon(r)[1]) for r in (rows[:len(ideal.generators)], rows))
    bound, actual = c1 + c2, codim_at(flag, ideal).rank
    return Characters(0, c1, c2 - c1, (DIM - 3) - c2, bound, actual, actual == bound)


def condition_forms(ideal: ConstantIdeal) -> List[MultiVector]:
    """The eight 3-forms dχᵢ, χᵢ∧ζᵏ imposing conditions on graph-like 3-planes."""
    return list(ideal.differentials) + [wedge(chi, z) for chi in ideal.generators for z in zeta_forms()]


def complement_frame(flag: Flag) -> List[int]:
    """Deterministic 9-slot complement of span(flag) among the frame vectors.

    Greedy in slot order, the frame vector eₛ is kept iff it is independent of
    the flag and the frame vectors before it, that is iff no vector of
    span(flag) has its last nonzero component at s.  Those last components are
    the pivot columns of the flag's echelon form with the slots read backwards,
    which the flag keeps.
    """
    return [s for s in range(1, DIM + 1) if DIM - s not in flag._pivots]


class CodimResult:
    """Rank of the linearized conditions at the flag, with chart bookkeeping."""

    __slots__ = ("rank", "free_parameters", "pivot_columns", "complement_slots")

    def __init__(self, rank: int, free_parameters: int, pivot_columns: Tuple[int, ...], complement_slots: Tuple[int, ...]):
        self.rank, self.free_parameters = rank, free_parameters
        self.pivot_columns, self.complement_slots = pivot_columns, complement_slots


def _integer_linearization(flag: Flag, forms: Sequence[MultiVector], complement_slots: Sequence[int]):
    """Each row of :func:`linearized_conditions` in integers, with the divisor that makes it exact."""
    v1, v2, v3 = flag._integers
    for form in forms:
        terms, den = _integer_terms(form)
        c23, c13, c12 = (_contract_three_form(terms, va, vb) for va, vb in ((v2, v3), (v1, v3), (v1, v2)))
        row = [c23[s - 1] for s in complement_slots]          # form(u, v2, v3)
        row += [-c13[s - 1] for s in complement_slots]        # form(v1, u, v3)
        row += [c12[s - 1] for s in complement_slots]         # form(v1, v2, u)
        yield row, den * flag._scale ** 2


def linearized_conditions(flag: Flag, forms: Sequence[MultiVector], complement_slots: Sequence[int]) -> List[List[Fraction]]:
    """Jacobian of p ↦ (forms on (v₁+Σp·u, v₂+Σp·u, v₃+Σp·u)) at p = 0, u over the complement slots.

    Entry for (form, slot a, direction u): the form on the flag triple with
    vₐ replaced by u, read off the three contracted covectors form(v_b, v_c, ·).
    Each entry is linear in the form and in two flag vectors, so it is computed
    in integers, from the form's integer terms and the vectors times the lcm Λ
    of their denominators, and divided by Λ² and the form's scale.
    """
    return [[Fraction(x, d) for x in row] for row, d in _integer_linearization(flag, forms, complement_slots)]


def codim_at(flag: Flag, ideal: ConstantIdeal) -> CodimResult:
    """Codimension of the integral 3-planes near the flag, via the chart rank.

    Parametrizes nearby 3-planes as wₐ = vₐ + Σ pₐ^μ u_μ over the fixed
    9-vector complement, imposes the eight 3-forms and returns the exact rank
    of the linearization at p = 0; the solution set is a first-order graph
    over the remaining 27 − rank parameters.
    """
    if len(flag.vectors) != 3:
        raise ValueError("codimension is computed at a 3-dimensional element")
    if _integral_rows(flag._integers, ideal) is None:
        raise ValueError("flag is not integral")
    if not _zeta_nonzero(flag):
        raise ValueError("independence condition fails on the flag")
    comp_slots = complement_frame(flag)
    # scaling a row by its divisor changes no pivot column
    _, pivots, _ = linalg.echelon([row for row, _ in _integer_linearization(flag, condition_forms(ideal), comp_slots)])
    return CodimResult(
        rank=len(pivots),
        free_parameters=3 * len(comp_slots) - len(pivots),
        pivot_columns=tuple(pivots),
        complement_slots=tuple(comp_slots),
    )


# -- aggregate verification ---------------------------------------------------


EXPECTED_CHARACTERS = (0, 2, 4, 3)
EXPECTED_CODIM = 8


class InvolutivityReport:
    __slots__ = ("entries", "all_pass")

    def __init__(self, entries: Tuple[dict, ...], all_pass: bool):
        self.entries, self.all_pass = entries, all_pass

    def __eq__(self, other) -> bool:
        if not isinstance(other, InvolutivityReport):
            return NotImplemented
        return (self.entries, self.all_pass) == (other.entries, other.all_pass)

    def to_json(self) -> dict:
        return {"samples": list(self.entries), "all_pass": self.all_pass}


def _verdict(ideal: ConstantIdeal) -> dict:
    """Integrality, ζ, characters and codimension at the reference flag."""
    flag = reference_flag()
    try:
        ch = characters(flag, ideal)
    except ValueError:
        # only a flag that is not integral, or on which ζ vanishes, is refused
        return {"integral": _integral_rows(flag._integers, ideal) is not None,
                "zeta_nonzero": independence_check(flag.vectors), "pass": False}
    return {"integral": True, "zeta_nonzero": True, "characters": list(ch.as_tuple()), "codim": ch.codim_actual,
            "codim_bound": ch.codim_bound, "involutive": ch.involutive,
            "pass": ch.as_tuple() == EXPECTED_CHARACTERS and ch.codim_actual == ch.codim_bound == EXPECTED_CODIM}


def verify_sample(curvature: CurvatureSample) -> dict:
    """Full exact pipeline for one curvature sample."""
    return {**curvature.to_json(), **_verdict(ideal_at(curvature))}


def verify_involutivity(samples: Sequence[CurvatureSample]) -> InvolutivityReport:
    """Per-sample verification; failures are report entries, never raises.

    The ideal involves only θ¹₀, θ²₀ and θ²₁, whose curvature entries are
    Θ¹₀ = Θ²₀ = Θ²₁ = 0, so ``ideal_at`` never reads the curvature and the
    verdict is the same for every sample.  A non-empty request builds the
    ideal and runs the verdict once; each entry is the sample's curvature
    plus a fresh copy of that verdict.  An empty request builds nothing.
    """
    if not samples:
        return InvolutivityReport((), True)
    verdict = _verdict(ideal_at(samples[0]))
    # fresh lists, so that no two entries share a mutable value
    entries = tuple(
        {**sample.to_json(), **{k: list(v) if isinstance(v, list) else v for k, v in verdict.items()}}
        for sample in samples
    )
    return InvolutivityReport(entries, verdict["pass"])
