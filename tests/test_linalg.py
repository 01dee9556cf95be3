"""Exact linear algebra: a float entry is read as its binary value, so a float copy of a matrix gets the same answers."""

import ast
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathgeom
from pathgeom import OMEGA0, PHI0, VolumeForm, linalg, pairing_signature

from conftest import rand_fraction
from oracles import (
    fraction_nullspace,
    fraction_rref,
    greedy_intersect_spans,
    lagrange_inertia,
    leibniz_det,
    lines_parallel,
    span_equal,
)


def rand_matrix(rng, rows, cols):
    return [[rand_fraction(rng, -5, 5, 4) for _ in range(cols)] for _ in range(rows)]


def floats(a):
    return [[float(x) for x in row] for row in a]


def rank_r_matrix(rng, rows, cols, r):
    """A rows×cols matrix of rank r: a product of random rows×r and r×cols integer factors."""
    while True:
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
        m = linalg.matmul(left, right)
        if linalg.rank(m) == r:
            return m


class TestDeterminant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_permutation_sum(self, n, rng):
        for _ in range(10):
            m = rand_matrix(rng, n, n)
            d = linalg.det(m)
            assert type(d) is Fraction and d == leibniz_det(m)
            df = linalg.det(floats(m))
            assert type(df) is Fraction
            assert df == leibniz_det([[Fraction(x) for x in row] for row in floats(m)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_singular_matrices(self, n, rng):
        m = rank_r_matrix(rng, n, n, n - 1)
        assert linalg.det(m) == 0 and type(linalg.det(m)) is Fraction
        assert linalg.det(floats(m)) == pytest.approx(0.0, abs=1e-9)

    def test_empty_and_integer_input_are_exact(self):
        assert linalg.det([]) == 1
        d = linalg.det([[2, 1], [7, 4]])
        assert type(d) is Fraction and d == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            linalg.det([[1, 2, 3], [4, 5, 6]])


class TestDispatch:
    @pytest.mark.parametrize("shape", [(2, 6), (4, 3), (4, 4), (5, 5)])
    def test_rank_exact_and_float_agree(self, shape, rng):
        rows, cols = shape
        for r in range(1, min(shape) + 1):
            m = rank_r_matrix(rng, rows, cols, r)
            assert linalg.rank(m) == linalg.rank(floats(m)) == r
            assert type(linalg.rank(floats(m))) is int

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inverse_exact_and_float_agree(self, n, rng):
        m = rank_r_matrix(rng, n, n, n)
        inv = linalg.inverse(m)
        inv_f = linalg.inverse(floats(m))
        assert all(type(x) is Fraction for row in inv + inv_f for x in row)
        assert linalg.matmul(m, inv) == linalg.identity(n)
        # the integer entries of m are floats exactly, so both inverses are one
        assert inv_f == inv

    def test_singular_inverse_rejected_on_both_paths(self):
        m = [[1, 2], [2, 4]]
        with pytest.raises(ValueError):
            linalg.inverse(m)
        with pytest.raises(ValueError):
            linalg.inverse(floats(m))

    @pytest.mark.parametrize("signs", [(1, 1, 1), (1, -1, 0), (-1, -1, 1, 0), (1, 1, 1, -1, -1, -1)])
    def test_inertia_exact_and_float_agree(self, signs, rng):
        n = len(signs)
        b = rank_r_matrix(rng, n, n, n)
        # B·diag(signs)·Bᵀ is congruent to diag(signs)
        s = linalg.matmul(linalg.matmul(b, [[signs[i] if i == j else 0 for j in range(n)] for i in range(n)]),
                          linalg.transpose(b))
        expected = (signs.count(1), signs.count(-1), signs.count(0))
        assert linalg.inertia(s) == linalg.inertia(floats(s)) == expected

    def test_inertia_matches_the_congruence_reduction(self, rng):
        """Descartes on det(λ − S) against Lagrange's reduction, on sizes 1–7, most of them singular."""
        for _ in range(150):
            n = rng.randint(1, 7)
            b = rank_r_matrix(rng, n, n, rng.randint(1, n)) if rng.random() < 0.5 else rand_matrix(rng, n, n)
            d = [[rng.choice((0, rand_fraction(rng, -3, 3, 3))) if i == j else 0 for j in range(n)] for i in range(n)]
            s = linalg.matmul(linalg.matmul(b, d), linalg.transpose(b))
            assert linalg.inertia(s) == lagrange_inertia(s)

    def test_inertia_rejects_asymmetric_input(self):
        with pytest.raises(ValueError):
            linalg.inertia([[1.0, 2.0], [3.0, 1.0]])

    def test_matvec_on_a_rectangular_matrix(self):
        assert linalg.matvec([[1, 2], [3, 4], [5, 6]], [1, 1]) == [3, 7, 11]

    def test_float_callers(self):
        assert lines_parallel(OMEGA0 * 0.5, OMEGA0 * -3.25)
        assert not lines_parallel(OMEGA0 * 0.5, PHI0 * 1.0)
        assert pairing_signature(VolumeForm(2.0)) == (3, 3)
        assert pairing_signature(VolumeForm(-2.0)) == (3, 3)



@st.composite
def rational_matrices(draw, with_floats: bool):
    """Up to 6×7 matrices, empty, wide or tall, some rows zero or combinations of earlier rows."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    if with_floats:
        entry = st.one_of(entry, st.integers(-9, 9), st.floats(-9, 9, allow_nan=False, width=32))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("random", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            s, t = draw(st.integers(-3, 3)), draw(st.fractions(-2, 2, max_denominator=3))
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([s * Fraction(p) + t * Fraction(q) for p, q in zip(x, y)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@st.composite
def square_matrices(draw, n: int):
    """An n×n matrix of ints, Fractions or floats; some rows zero or combinations of earlier rows, and
    some diagonal entries zero, so that many are singular and some need a row swap."""
    entry = draw(st.sampled_from((st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12),
                                  st.floats(-9, 9, allow_nan=False, width=32))))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("random", "random", "random", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([s * p + t * q for p, q in zip(x, y)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        rows[i][i] = 0
    return rows


def integer_rows(a):
    """Each row of ``a`` times the lcm of its denominators, as ints."""
    out = []
    for row in linalg.mat(a):
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


class TestIntegerRowReduction:
    """``rref``, ``rank``, ``nullspace`` and ``det`` run one integer elimination; Gauss–Jordan in Fractions and the
    permutation sum are the references."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(rational_matrices(with_floats=True))
    def test_rref_and_nullspace_match_fraction_elimination(self, m):
        rows, pivots = linalg.rref(m)
        assert (rows, pivots) == fraction_rref(m)
        assert all(type(x) is Fraction for row in rows for x in row)
        assert linalg.nullspace(m) == fraction_nullspace(m)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(rational_matrices(with_floats=False))
    def test_rank_matches_fraction_elimination(self, m):
        assert linalg.rank(m) == len(fraction_rref(m)[1])

    def test_edge_shapes(self):
        assert linalg.rref([]) == ([], []) and linalg.rank([]) == 0 and linalg.nullspace([]) == []
        assert linalg.rref([[], []]) == ([[], []], [])
        assert linalg.rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
        with pytest.raises(ValueError, match="ragged"):
            linalg.rref([[1, 2], [3]])

    def test_echelon_keeps_rows_integral(self):
        m = [[2, 4, 6], [3, 6, 10], [1, 1, 1]]
        rows, pivots, sign = linalg.echelon(m)
        # the second step finds a zero pivot entry and swaps the last two rows
        assert pivots == [0, 1, 2] and sign == -1
        assert all(type(x) is int for row in rows for x in row)
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)] == linalg.identity(3)
        assert sign * rows[-1][-1] == leibniz_det(m) == 2

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(square_matrices(n), square_matrices(n))))
    def test_det_is_the_signed_last_pivot(self, ab):
        """Bareiss's pass: sign × the last pivot is the permutation sum of the integer rows, and det is multiplicative."""
        a, b = ab
        ints = integer_rows(a)
        rows, pivots, sign = linalg.echelon(ints)
        assert all(type(x) is int for row in rows for x in row)
        last = rows[-1][-1] if rows else 1
        assert (sign * last if len(pivots) == len(a) else 0) == leibniz_det(ints)
        exact_a, exact_b = linalg.mat(a), linalg.mat(b)
        assert linalg.det(a) == leibniz_det(exact_a)
        assert linalg.det(linalg.matmul(exact_a, exact_b)) == linalg.det(a) * linalg.det(b)


def _dependent_rows(rng, count, dim, shared):
    """``count`` vectors in ℚ^dim: random ones, zeros, combinations of earlier rows and ``shared`` ones."""
    rows = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * dim)
        elif kind < 0.4 and rows:
            x, y = rng.choice(rows), rng.choice(rows)
            s, t = rand_fraction(rng, -3, 3, 2), rand_fraction(rng, -3, 3, 2)
            rows.append([s * p + t * q for p, q in zip(x, y)])
        elif kind < 0.6 and shared:
            rows.append(list(rng.choice(shared)))
        else:
            rows.append([Fraction(rng.randint(-3, 3)) for _ in range(dim)])
    return rows


class TestIntersectSpans:
    def test_matches_the_greedy_prune(self, rng):
        pruned = 0
        for _ in range(300):
            dim = rng.randint(2, 5)
            a = _dependent_rows(rng, rng.randint(0, 4), dim, [])
            b = _dependent_rows(rng, rng.randint(0, 4), dim, a)
            basis = linalg.intersect_spans(a, b)
            assert basis == greedy_intersect_spans(a, b)
            if basis:
                assert linalg.rank(basis) == len(basis)
                assert span_equal(basis, greedy_intersect_spans(b, a))
            # a dependent row of a gives a zero or repeated candidate that the prune drops
            pruned += bool(a and b) and len(linalg.nullspace(linalg.transpose(a + b))) > len(basis)
        assert pruned > 50

def test_no_module_imports_numpy():
    src = Path(pathgeom.__file__).parent
    for path in sorted(src.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert "numpy" not in imported, path.name
