"""Exact linear algebra on small dense matrices of Fractions.

Every function is exact, with zero tolerance.  Every entry is read by
:func:`pathgeom.scalars.to_scalar`, so a float is its exact binary value;
:func:`matmul` and :func:`matvec` alone compute in the scalars they are given.
The one elimination is :func:`echelon`, Bareiss's fraction-free Gauss–Jordan
pass on an integer matrix, whose entries stay integer minors.  :func:`rank`,
:func:`rref`, :func:`nullspace`, :func:`solve`, :func:`inverse` and
:func:`det` first multiply each row by the lcm of its denominators, which
leaves the reduced row echelon form alone and scales the determinant by the
product of those lcms; :func:`rref` then divides each row by its pivot, and
:func:`det` is the last pivot, signed by the row permutation.
:func:`inertia` counts the signs of a symmetric matrix's eigenvalues without
computing them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .scalars import to_scalar

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def mat(rows: Sequence[Sequence]) -> Matrix:
    """Copy ``rows`` into a rectangular Fraction matrix."""
    out = [[to_scalar(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(a: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def matmul(a, b) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def matvec(a, v) -> Vector:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def _integer_rows(a) -> Tuple[List[List[int]], int]:
    """Each row of ``a`` times the lcm of its entries' denominators, as ints, and the product of those lcms."""
    out, scale = [], 1
    for row in a:
        row = [x if isinstance(x, Fraction) or type(x) is int else to_scalar(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        scale *= den
        out.append([x.numerator * (den // x.denominator) for x in row])
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out, scale


def echelon(rows: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int], int]:
    """Bareiss's fraction-free Gauss–Jordan elimination of an integer matrix: (rows, pivot columns, sign).

    Each step multiplies every other row by the new pivot, subtracts the
    multiple of the pivot row that clears the pivot column, and divides by
    the previous pivot (Bareiss, Math. Comp. 22, 1968).  The division is
    exact: every entry stays a minor of the input, and every pivot entry is
    the last pivot, the minor on the pivot rows and columns so far.  ``sign``
    is the sign of the row permutation, so a square matrix of full rank has
    determinant ``sign`` × the last pivot.  Each pivot column is zero off its
    pivot row, and row r divided by its pivot entry is row r of the reduced
    row echelon form, which no scaling of the input rows changes.  Rows below
    the pivot rows are zero.
    """
    rows = [list(r) for r in rows]
    pivots: List[int] = []
    sign = prev = 1
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv], sign = rows[piv], rows[r], -sign
        top = rows[r]
        p = top[col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots, sign


def rref(a: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows, pivots, _ = echelon(_integer_rows(a)[0])
    out = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    return out + [[Fraction(0)] * len(row) for row in rows[len(pivots):]], pivots


def rank(a) -> int:
    return len(echelon(_integer_rows(a)[0])[1])


def nullspace(a) -> List[Vector]:
    """Basis of the right kernel, one vector per free column."""
    rows, pivots = rref(a)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def solve(a, b) -> Optional[Vector]:
    """One solution of ``a x = b`` or None if inconsistent."""
    rows = mat(a)
    n = len(rows)
    if len(b) != n:
        raise ValueError("shape mismatch")
    aug = [row + [to_scalar(bi)] for row, bi in zip(rows, b)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(a) -> Matrix:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("not square")
    aug = [row + ident_row for row, ident_row in zip(mat(a), identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det(a) -> Fraction:
    """Determinant: ``sign`` × the last pivot of :func:`echelon` on the integer rows, over the lcms that made them."""
    rows, scale = _integer_rows(a)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    rows, pivots, sign = echelon(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1] if n else 1, scale)


def inertia(a) -> tuple:
    """Signature (positive, negative, zero) of a symmetric matrix.

    Descartes' rule of signs on det(λ − S), which Faddeev–LeVerrier computes;
    the rule is exact since a symmetric S has only real eigenvalues, and zero
    is counted by the trailing zero coefficients.  No tolerances.
    """
    s = mat(a)
    n = len(s)
    if transpose(s) != s:
        raise ValueError("matrix is not symmetric")
    # cₙ = 1, cₙ₋₁, …, c₀ from M₀ = 0: Mₖ = S·Mₖ₋₁ + cₙ₋ₖ₊₁·I and cₙ₋ₖ = −tr(S·Mₖ)/k
    coeffs = [Fraction(1)]
    sm = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        sm = matmul(s, [[x + coeffs[-1] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(sm)])
        coeffs.append(-sum(sm[i][i] for i in range(n)) / k)
    zero = next(i for i, c in enumerate(reversed(coeffs)) if c)
    signs = [c > 0 for c in coeffs if c]
    pos = sum(x != y for x, y in zip(signs, signs[1:]))
    return pos, n - zero - pos, zero


def intersect_spans(a: Sequence[Vector], b: Sequence[Vector]) -> List[Vector]:
    """Basis of span(a) ∩ span(b)."""
    if not a or not b:
        return []
    cols = transpose(list(a) + [[-x for x in row] for row in b])
    combos = nullspace(cols)
    out = []
    for c in combos:
        v = [Fraction(0)] * len(a[0])
        for coeff, row in zip(c[: len(a)], a):
            for j in range(len(v)):
                v[j] += coeff * row[j]
        out.append(v)
    # the pivot columns of the candidates: each one independent of those before it
    return [out[p] for p in rref(transpose(out))[1]]
