"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the library's sparse-term code paths: forms become
dense fully antisymmetric tensors, wedge products go through the full
permutation sum with factorial normalization, and evaluation is a complete
multilinear contraction.  Slow and simple on purpose.  The EDS smoothness
probe is floating-point evidence next to the exact rank-8 linearization, and
random integral flags stand in for the ordinary flags of the Cartan test.
The span and CR references keep the incremental rank tests that the library
replaced by one null space and one echelon form.  Row reduction in Fraction
arithmetic and the value/gradient evaluator that compiled each function on its
own are kept as references for the integer elimination and the jet compile, and
Lagrange's congruence reduction as the reference for the exact inertia.
The helpers at the end build test data and compare results; no code in the
library calls them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from pathgeom import J0_MATRIX, ComplexStructure, MultiVector, PolyForm3, conformal_pairing, evaluate, linalg
from pathgeom.polynomials import Poly, RatFunc, RationalPoint
from pathgeom.eds import (
    COFRAME_LABELS,
    DIM,
    Flag,
    complement_frame,
    condition_forms,
    linearized_conditions,
    polar_space,
)


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(rows):
    """Determinant as the full permutation sum: no elimination, no pivoting."""
    n = len(rows)
    return sum(
        (perm_sign(p) * math.prod(rows[i][p[i]] for i in range(n)) for p in permutations(range(n))),
        Fraction(0),
    )


def dense_tensor(form: MultiVector) -> dict:
    """Fully antisymmetric coefficient tensor, 0-based index tuples."""
    dense = {}
    for idx, c in form.terms.items():
        base = tuple(i - 1 for i in idx)
        for perm in permutations(range(len(base))):
            dense[tuple(base[p] for p in perm)] = perm_sign(perm) * c
    return dense


def evaluate_oracle(form: MultiVector, vectors) -> Fraction:
    """Full contraction of the dense tensor with the vectors."""
    dense = dense_tensor(form)
    total = Fraction(0)
    for idx, c in dense.items():
        prod = c
        for v, i in zip(vectors, idx):
            prod *= Fraction(v[i])
        total += prod
    return total


def wedge_oracle(a: MultiVector, b: MultiVector) -> MultiVector:
    """(a∧b) via the permutation-sum formula with 1/(p!q!) normalization."""
    p, q = a.degree, b.degree
    ta, tb = dense_tensor(a), dense_tensor(b)
    norm = Fraction(1, math.factorial(p) * math.factorial(q))
    terms = {}
    for idx in combinations(range(a.dim), p + q):
        total = Fraction(0)
        for perm in permutations(range(p + q)):
            left = tuple(idx[perm[i]] for i in range(p))
            right = tuple(idx[perm[p + i]] for i in range(q))
            va = ta.get(left, Fraction(0))
            vb = tb.get(right, Fraction(0))
            if va and vb:
                total += perm_sign(perm) * va * vb
        total *= norm
        if total:
            terms[tuple(i + 1 for i in idx)] = total
    return MultiVector(a.dim, p + q, terms)


def pullback_oracle(form: MultiVector, a) -> MultiVector:
    """Pullback coefficients as evaluations on images of basis vectors, the columns of the matrix ``a``."""
    cols = list(zip(*a))
    m = len(cols)
    terms = {}
    for idx in combinations(range(m), form.degree):
        val = evaluate_oracle(form, [cols[j] for j in idx])
        if val:
            terms[tuple(j + 1 for j in idx)] = val
    return MultiVector(m, form.degree, terms)


def degree_by_normalization(s) -> float:
    """Degree of a splitting by the literal normalization procedure.

    Write ω′ = αω + φ with ⟨ω,φ⟩ = 0, rescale ω′ so that ⟨φ,φ⟩ = ⟨ω,ω⟩ and
    flip the sign until α ≥ 0; the resulting α is the degree.
    """
    from pathgeom import conformal_pairing

    omega, oprime, eps = s.line1, s.line2, s.eps
    ww = conformal_pairing(omega, omega, eps)
    wp = conformal_pairing(omega, oprime, eps)
    alpha = wp / ww
    phi = oprime - omega * alpha
    pp = conformal_pairing(phi, phi, eps)
    t = math.sqrt(float(ww) / float(pp))
    alpha_scaled = float(alpha) * t
    if alpha_scaled < 0:
        alpha_scaled = -alpha_scaled
    return alpha_scaled


def gram_definiteness_oracle(omega: MultiVector, phi: MultiVector, eps) -> bool:
    """Definiteness of the 2×2 wedge Gram matrix, decided exactly."""
    from pathgeom import gram_matrix

    g = gram_matrix(omega, phi, eps)
    det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return det > 0


def sampled_symplectic_probe(omega: MultiVector, phi: MultiVector, eps, directions=360) -> bool:
    """All of 360 sampled unit-direction combinations symplectic?

    A necessary sampled consequence of ellipticity; the exact discriminant
    certifies the 'bounded away from zero' part.
    """
    from pathgeom import conformal_pairing

    for k in range(directions):
        angle = 2 * math.pi * k / directions
        lam1, lam2 = math.cos(angle), math.sin(angle)
        tau_tau = (
            lam1 * lam1 * float(conformal_pairing(omega, omega, eps))
            + 2 * lam1 * lam2 * float(conformal_pairing(omega, phi, eps))
            + lam2 * lam2 * float(conformal_pairing(phi, phi, eps))
        )
        if tau_tau == 0:
            return False
    return True


def poly_value_oracle(p, point) -> Fraction:
    """Σ c·∏ xᵢ^kᵢ term by term in Fraction arithmetic, one multiplication per factor."""
    total = Fraction(0)
    for exp, c in p.terms.items():
        term = Fraction(c)
        for x, k in zip(point, exp):
            for _ in range(k):
                term *= Fraction(x)
        total += term
    return total


def contact_scalar(beta1, beta2):
    """The function (b₁×b₂)·curl(b₁×b₂), with μ∧dμ = (that)·dx¹∧dx²∧dx³.

    Symbolic, by formal differentiation of the whole cross product; the
    library evaluates the same quantity pointwise from first derivatives.
    """
    a, b = beta1.b, beta2.b
    m = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    curl = (
        m[2].diff(1) - m[1].diff(2),
        m[0].diff(2) - m[2].diff(0),
        m[1].diff(0) - m[0].diff(1),
    )
    return m[0] * curl[0] + m[1] * curl[1] + m[2] * curl[2]


def second_order_probe(flag, ideal, seed: int = 0, step: float = 1e-3, newton_steps: int = 30) -> dict:
    """Floating evidence that the solution set is smooth near the flag.

    Perturbs along a random kernel direction of the linearization, Newton-
    projects back onto the solution set of the eight polynomial conditions
    and reports the numerical Jacobian rank at the projected point.
    """
    forms = condition_forms(ideal)
    comp_slots = complement_frame(flag)
    jac0 = np.array([[float(x) for x in row] for row in linearized_conditions(flag, forms, comp_slots)])
    comp = [np.array([float(x) for x in frame_vector(s)]) for s in comp_slots]
    vecs = [np.array([float(x) for x in v]) for v in flag.vectors]
    nparams = 3 * len(comp)

    def residual(p):
        triple = []
        for a in range(3):
            w = vecs[a].copy()
            for m, u in enumerate(comp):
                w = w + p[a * len(comp) + m] * u
            triple.append(w)
        return np.array([float(evaluate(f, [list(map(float, t)) for t in triple])) for f in forms])

    def num_jac(p, h=1e-6):
        base = residual(p)
        cols = []
        for k in range(nparams):
            dp = p.copy()
            dp[k] += h
            cols.append((residual(dp) - base) / h)
        return np.column_stack(cols)

    rng = np.random.default_rng(seed)
    _, _, vt = np.linalg.svd(jac0)
    kernel = vt[8:]
    direction = kernel.T @ rng.standard_normal(kernel.shape[0])
    direction /= np.linalg.norm(direction)
    p = step * direction
    for _ in range(newton_steps):
        r = residual(p)
        if np.max(np.abs(r)) < 1e-13:
            break
        j = num_jac(p)
        delta, *_ = np.linalg.lstsq(j, -r, rcond=None)
        p = p + delta
    final = residual(p)
    svals = np.linalg.svd(num_jac(p), compute_uv=False)
    rank = int((svals > 1e-7 * svals[0]).sum())
    return {
        "converged": bool(np.max(np.abs(final)) < 1e-10),
        "residual": float(np.max(np.abs(final))),
        "rank_at_solution": rank,
        "distance": float(np.linalg.norm(p)),
    }


def random_integral_flag(rng, ideal) -> Flag:
    """A random integral flag E¹ ⊂ E² ⊂ E³, grown one polar space at a time.

    Each vₖ₊₁ is a random combination, with integer coefficients in [−3, 3],
    of a basis of H(Eᵏ): for v₁ that is H(E⁰) = ℝ¹² with the unit basis, so
    v₁ is random in [−3, 3]¹².  A vector that does not raise the rank is
    drawn again.
    """
    vectors = []
    while len(vectors) < 3:
        basis, _ = polar_space(vectors, ideal)
        coeffs = [rng.randint(-3, 3) for _ in basis]
        v = [sum((k * b[i] for k, b in zip(coeffs, basis)), Fraction(0)) for i in range(DIM)]
        if linalg.rank(vectors + [v]) == len(vectors) + 1:
            vectors.append(v)
    return Flag(tuple(tuple(v) for v in vectors))


def greedy_complement_frame(flag: Flag) -> list:
    """The complement slots of a flag by incremental elimination, slot by slot.

    A frame vector is kept iff it is independent of the flag and of the
    vectors kept so far; ``eds.complement_frame`` reads the same choice off
    the pivot columns of the flag's echelon form, with the slots read backwards.
    """
    rows, pivots = [], []

    def try_add(vec) -> bool:
        v = list(vec)
        for row, p in zip(rows, pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x != 0), None)
        if piv is None:
            return False
        inv = 1 / v[piv]
        rows.append([x * inv for x in v])
        pivots.append(piv)
        return True

    for v in flag.vectors:
        try_add(v)
    return [slot for slot in range(1, DIM + 1) if try_add(frame_vector(slot))]


def in_span(vectors, v) -> bool:
    if not vectors:
        return all(x == 0 for x in v)
    return linalg.rank(list(vectors)) == linalg.rank(list(vectors) + [list(v)])


def span_equal(a, b) -> bool:
    ra, rb = linalg.rank(list(a)), linalg.rank(list(b))
    return ra == rb == linalg.rank(list(a) + list(b))


def greedy_intersect_spans(a, b) -> list:
    """Basis of span(a) ∩ span(b): the null-space candidates, pruned one rank test at a time.

    A candidate is kept iff it is nonzero and not in the span of those kept
    so far; ``linalg.intersect_spans`` reads the same choice off one
    echelon form.
    """
    if not a or not b:
        return []
    cols = linalg.transpose(list(a) + [[-x for x in row] for row in b])
    out = []
    for c in linalg.nullspace(cols):
        v = [Fraction(0)] * len(a[0])
        for coeff, row in zip(c[: len(a)], a):
            for j in range(len(v)):
                v[j] += coeff * row[j]
        out.append(v)
    basis = []
    for v in out:
        if any(x != 0 for x in v) and not in_span(basis, v):
            basis.append(v)
    return basis


def _j0_apply(v) -> list:
    return linalg.matvec(linalg.mat(J0_MATRIX), list(v))


def normal_covector(jac) -> tuple:
    """The normal covector n of T = im du, n·v = det[v | du]: nᵢ is (−1)ⁱ times the minor of du without row i."""
    return tuple((-1) ** i * leibniz_det([row for k, row in enumerate(jac) if k != i]) for i in range(4))


def cr_structure_oracle(jac):
    """(d_basis, param_basis, i_matrix) at a point with 4×3 Jacobian ``jac``.

    D = span(du) ∩ span(J₀du) by :func:`greedy_intersect_spans`, I by solving
    J₀d_k = Σⱼ I_jk d_j in ℝ⁴, and the parameter vectors by solving du·w = d.
    """
    cols = [[jac[i][j] for i in range(4)] for j in range(3)]
    d_basis = greedy_intersect_spans(cols, [_j0_apply(c) for c in cols])
    assert len(d_basis) == 2
    basis_cols = linalg.transpose(d_basis)
    i_cols = [linalg.solve(basis_cols, _j0_apply(d)) for d in d_basis]
    i_matrix = ((i_cols[0][0], i_cols[1][0]), (i_cols[0][1], i_cols[1][1]))
    param_basis = tuple(tuple(linalg.solve(jac, list(d))) for d in d_basis)
    return tuple(tuple(d) for d in d_basis), param_basis, i_matrix


def compatible_oracle(jac, p1, p2) -> bool:
    """J₀(du·P₁) spans du·P₂, and du·P₁, du·P₂ span D: both conditions tested."""
    v1 = linalg.matvec(jac, list(p1))
    v2 = linalg.matvec(jac, list(p2))
    if linalg.rank([_j0_apply(v1), v2]) != 1:
        return False
    return span_equal([v1, v2], cr_structure_oracle(jac)[0])


def polar_rows_oracle(vectors, ideal) -> list:
    """χ(v, eₛ) and dχ(v, v′, eₛ) over the frame vectors eₛ, by :func:`evaluate_oracle`."""
    frame = [frame_vector(s) for s in range(1, DIM + 1)]
    rows = [[evaluate_oracle(chi, [v, e]) for e in frame] for v in vectors for chi in ideal.generators]
    return rows + [[evaluate_oracle(dchi, [va, vb, e]) for e in frame]
                   for va, vb in combinations(vectors, 2) for dchi in ideal.differentials]


def cartan_test_oracle(flag: Flag, ideal) -> dict:
    """What the Cartan test of ``eds`` reports at a flag, from dense tensors and Gauss–Jordan in Fractions.

    Every value of a form is :func:`evaluate_oracle`; a polar space is the
    :func:`fraction_nullspace` of :func:`polar_rows_oracle`; the codimension
    is the rank of the forms dχ and χ∧ζᵏ on the flag with one vector replaced
    by a complement frame vector, that frame chosen by
    :func:`greedy_complement_frame`.  Keys: ``integral`` for E⁰..E³,
    ``zeta``, ``polar`` (the codimension of H(Eᵏ), k = 0, 1, 2),
    ``characters`` (characters, bound, codimension, verdict) and ``codim``;
    where ``eds`` refuses, the value is the refusal's message.
    """
    vecs = [list(v) for v in flag.vectors]
    frame = [frame_vector(s) for s in range(1, DIM + 1)]
    zeta = [MultiVector.basis(DIM, (slot_of(label),)) for label in ("t10", "t20", "t21")]

    def integral(k):
        return (all(evaluate_oracle(chi, list(pair)) == 0 for pair in combinations(vecs[:k], 2)
                    for chi in ideal.generators)
                and all(evaluate_oracle(dchi, list(triple)) == 0 for triple in combinations(vecs[:k], 3)
                        for dchi in ideal.differentials))

    def polar_codim(k):
        if not integral(k):
            return "polar space of a non-integral element"
        rows = polar_rows_oracle(vecs[:k], ideal)
        return DIM - len(fraction_nullspace(rows)) if rows else 0

    out = {"integral": [integral(k) for k in range(4)],
           "zeta": evaluate_oracle(wedge_oracle(wedge_oracle(zeta[0], zeta[1]), zeta[2]), vecs) != 0,
           "polar": [polar_codim(k) for k in range(3)]}
    if not out["integral"][3]:
        out["codim"] = "flag is not integral"
    elif not out["zeta"]:
        out["codim"] = "independence condition fails on the flag"
    else:
        forms = list(ideal.differentials) + [wedge_oracle(chi, z) for chi in ideal.generators for z in zeta]
        slots = greedy_complement_frame(flag)
        jac = [[evaluate_oracle(form, vecs[:a] + [frame[s - 1]] + vecs[a + 1:]) for a in range(3) for s in slots]
               for form in forms]
        out["codim"] = len(fraction_rref(jac)[1])
    if not out["integral"][2]:
        out["characters"] = "polar space of a non-integral element"
    elif isinstance(out["codim"], str):
        out["characters"] = out["codim"]
    else:
        c0, c1, c2 = out["polar"]
        out["characters"] = ((c0, c1 - c0, c2 - c1, DIM - 3 - c2), c0 + c1 + c2, out["codim"],
                             out["codim"] == c0 + c1 + c2)
    return out


def fraction_rref(a):
    """Reduced row echelon form by Gauss–Jordan in Fractions: (rows, pivot columns)."""
    rows = linalg.mat(a)
    pivots = []
    if not rows:
        return rows, pivots
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def fraction_nullspace(a) -> list:
    """Right kernel from :func:`fraction_rref`, one vector per free column."""
    rows, pivots = fraction_rref(a)
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


class CompiledFunctions:
    """Values and first partials of Polys and RatFuncs, every polynomial valued by :func:`poly_value_oracle`.

    Numerators, denominators and their first partials are differentiated
    once, and identical polynomials are stored once; the values go through
    the quotient rule in ``Fraction`` arithmetic, independent of the
    library's one integer evaluator.
    """

    def __init__(self, functions, nvars: int):
        self._polys = []
        index = {}

        def slot(p: Poly) -> int:
            if p not in index:
                index[p] = len(self._polys)
                self._polys.append(p)
            return index[p]

        one = Poly.constant(1, nvars)
        self._functions = []
        for f in functions:
            num, den = (f.num, f.den) if isinstance(f, RatFunc) else (f, one)
            partials = tuple((slot(num.diff(i)), slot(den.diff(i))) for i in range(nvars))
            self._functions.append((slot(num), slot(den), partials))

    def at(self, pt: RationalPoint):
        """The value of each function, and its gradient."""
        raw = [poly_value_oracle(p, pt.coords) for p in self._polys]
        values = [raw[n] / raw[d] for n, d, _ in self._functions]
        # quotient rule (n'·D − N·d')/D²
        grads = [tuple((raw[pn] * raw[d] - raw[n] * raw[pd]) / (raw[d] * raw[d]) for pn, pd in partials)
                 for n, d, partials in self._functions]
        return values, grads


def lagrange_inertia(a) -> tuple:
    """Signature (positive, negative, zero) of an exact symmetric matrix by Lagrange's
    congruence reduction: diagonalize by simultaneous row and column operations,
    which preserve inertia (Sylvester)."""
    m = linalg.mat(a)
    n = len(m)
    pos = neg = zero = 0
    k = 0
    while k < n:
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if swap is not None:
                m[k], m[swap] = m[swap], m[k]
                for row in m:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if off is None:
                    zero += 1
                    k += 1
                    continue
                # add row/col `off` into k: new diagonal entry 2*m[off][k] != 0
                for j in range(n):
                    m[k][j] += m[off][j]
                for j in range(n):
                    m[j][k] += m[j][off]
        if m[k][k] > 0:
            pos += 1
        else:
            neg += 1
        pivot = m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for j in range(n):
                    m[j][i] -= f * m[j][k]
        k += 1
    return pos, neg, zero


# -- test helpers --------------------------------------------------------------


def frame_vector(slot: int) -> tuple:
    """The dual frame vector of a coframe slot (1-based) of the 12-dimensional model space."""
    return tuple(Fraction(1 if i == slot else 0) for i in range(1, DIM + 1))


def slot_of(label: str) -> int:
    """The 1-based coframe slot of an ``eds.COFRAME_LABELS`` label."""
    return COFRAME_LABELS.index(label) + 1


def lines_parallel(a: MultiVector, b: MultiVector) -> bool:
    """Whether two 2-forms span the same line, exactly."""
    return linalg.rank([a.components(), b.components()]) <= 1


def conjugate(j: ComplexStructure, a) -> ComplexStructure:
    """A⁻¹JA for a matrix A of rows: the pullback action of GL⁺ on complex structures."""
    return ComplexStructure(linalg.matmul(linalg.matmul(linalg.inverse(a), j.matrix), a), tol=j.tol)


def spans_same_oriented_plane(p, q, tol: float = 0) -> bool:
    """Whether the oriented planes p and q have equal spans and consistent orientation, exactly by default.

    Each generator x of q is projected onto p's span through p's wedge Gram
    G, which is positive definite: its coefficients are
    c = G⁻¹(⟨ω,x⟩, ⟨φ,x⟩).  x lies in the span iff no coefficient of
    x − c₁ω − c₂φ exceeds ``tol`` times the size of q, so iff it vanishes at
    ``tol`` = 0; the orientations agree iff det[c] > 0.
    """
    mine = (p.omega, p.phi)
    scale = max(1, q.omega.norm_inf(), q.phi.norm_inf())
    gram_inv = linalg.inverse(p.gram)
    coeffs = []
    for x in (q.omega, q.phi):
        c = linalg.matvec(gram_inv, [conformal_pairing(f, x, p.eps) for f in mine])
        if (x - p.omega * c[0] - p.phi * c[1]).norm_inf() > tol * scale:
            return False
        coeffs.append(c)
    return linalg.det(coeffs) > 0


def b_at(beta: PolyForm3, point) -> tuple:
    """The exact coefficient vector b of β = b·⋆dx at a rational point."""
    return beta.jets.gradients(RationalPoint(point, 3))[0]


def scaled(beta: PolyForm3, factor) -> PolyForm3:
    """factor·β."""
    return PolyForm3(tuple(c * factor for c in beta.b))
