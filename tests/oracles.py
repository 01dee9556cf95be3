"""Independent brute-force oracles the implementation is checked against.

These deliberately avoid the library's sparse-term code paths: forms become
dense fully antisymmetric tensors, wedge products go through the full
permutation sum with factorial normalization, and evaluation is a complete
multilinear contraction.  Slow and simple on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

from pathgeom import MultiVector


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
    """Pullback coefficients as evaluations on images of basis vectors."""
    m = a.source_dim
    cols = [[a.matrix[i][j] for i in range(a.target_dim)] for j in range(m)]
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
