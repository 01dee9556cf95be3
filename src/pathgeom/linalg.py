"""Exact rational linear algebra on small dense matrices.

Everything here works on lists of lists of :class:`fractions.Fraction` and is
deterministic: no pivoting heuristics beyond "first nonzero", no tolerances.
Floating-point problems are handled elsewhere with numpy; this module is the
exact kernel behind rank, kernel and signature computations that must be
reproduced with zero tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def mat(rows: Sequence[Sequence]) -> Matrix:
    """Copy ``rows`` into a rectangular Fraction matrix."""
    out = [[Fraction(x) for x in row] for row in rows]
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


def rref(a: Sequence[Sequence[Fraction]]):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = mat(a)
    pivots: List[int] = []
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


def rank(a) -> int:
    return len(rref(a)[1])


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
    aug = [row + [Fraction(bi)] for row, bi in zip(rows, b)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def inverse(a) -> Matrix:
    rows = mat(a)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    aug = [row + ident_row for row, ident_row in zip(rows, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def det(a) -> Fraction:
    rows = mat(a)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    sign = Fraction(1)
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return sign * result


def inertia(a) -> tuple:
    """Signature (positive, negative, zero) of a symmetric rational matrix.

    Lagrange congruence reduction: diagonalize by simultaneous row/column
    operations, which preserves inertia (Sylvester).  Exact, no tolerances.
    """
    s = mat(a)
    n = len(s)
    if transpose(s) != s:
        raise ValueError("matrix is not symmetric")
    pos = neg = zero = 0

    def congruence_eliminate(m, k):
        # clear row/column k against pivot m[k][k]
        nloc = len(m)
        pivot = m[k][k]
        for i in range(k + 1, nloc):
            if m[i][k] != 0:
                f = m[i][k] / pivot
                for j in range(nloc):
                    m[i][j] -= f * m[k][j]
                for j in range(nloc):
                    m[j][i] -= f * m[j][k]

    k = 0
    m = [row[:] for row in s]
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
        congruence_eliminate(m, k)
        k += 1
    return pos, neg, zero


def in_span(vectors: Sequence[Vector], v: Vector) -> bool:
    if not vectors:
        return all(x == 0 for x in v)
    return rank(list(vectors)) == rank(list(vectors) + [list(v)])


def span_equal(a: Sequence[Vector], b: Sequence[Vector]) -> bool:
    ra, rb = rank(list(a)), rank(list(b))
    return ra == rb == rank(list(a) + list(b))


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
    # prune to an independent subset
    basis: List[Vector] = []
    for v in out:
        if any(x != 0 for x in v) and not in_span(basis, v):
            basis.append(v)
    return basis
