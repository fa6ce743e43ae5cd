"""Differential tests of the exact integer kernels against sympy.

sympy is an optional test dependency; without it this module is skipped.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf  # noqa: E402
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from monolab._linalg import kernel_basis, rank, smith_normal_form  # noqa: E402
from monolab.lattices import IntLattice, SublatticeBasis, signature  # noqa: E402

entries = st.integers(-6, 6)


@st.composite
def matrices(draw, min_rows=0, max_rows=5, square=False):
    m = draw(st.integers(min_rows, max_rows))
    n = m if square else draw(st.integers(1, 5))
    return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)], n


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_matches_sympy(mat):
    rows, n = mat
    assert rank(rows) == (sympy.Matrix(rows) if rows else sympy.zeros(0, n)).rank()


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 6 x 6; some have an all-zero
    diagonal (the elimination's pair step) or a repeated row (a radical)."""
    n = draw(st.integers(0, 6))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            g[i][j] = g[j][i] = draw(entries)
    if n and draw(st.booleans()):
        for i in range(n):
            g[i][i] = 0
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        j += j >= i
        # row and column j become copies of i: a congruence that kills det
        g[j] = list(g[i])
        for row in g:
            row[j] = row[i]
    return g


@settings(derandomize=True, max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_det_matches_sympy(gram):
    # the determinant is the symmetric elimination's last pivot, or 0
    assert IntLattice(gram).determinant() == (sympy.Matrix(gram).det() if gram else 1)


@settings(max_examples=80, deadline=None)
@given(matrices(min_rows=1, square=True))
def test_hnf_pivots_multiply_to_the_determinant(mat):
    rows, n = mat
    d = sympy.Matrix(rows).det()
    assume(d != 0)
    h = SublatticeBasis(n, rows).rows
    assert len(h) == n
    assert math.prod(h[i][i] for i in range(n)) == abs(d)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_hnf_matches_sympy(mat):
    # sympy's form is by columns with pivots counted from the last row, so
    # the row lattice goes in transposed with its coordinates reversed
    rows, n = mat
    theirs = sympy_hnf(sympy.Matrix([r[::-1] for r in rows]).T if rows else sympy.zeros(n, 0))
    want = sorted((tuple(int(x) for x in col[::-1]) for col in theirs.T.tolist()),
                  key=lambda r: next(i for i, x in enumerate(r) if x))
    assert SublatticeBasis(n, rows).rows == tuple(want)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_sublattice_content_is_the_gcd_of_the_entries(mat):
    rows, n = mat
    want = 0
    for row in rows:
        for x in row:
            want = math.gcd(want, x)
    assert SublatticeBasis(n, rows).content() == want


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=1))
def test_smith_diagonal_matches_sympy(mat):
    rows, n = mat
    _, d, _ = smith_normal_form(rows)
    theirs = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
    k = min(len(rows), n)
    assert [d[i][i] for i in range(k)] == [abs(int(theirs[i, i])) for i in range(k)]


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_basis_is_the_saturated_kernel(mat):
    rows, n = mat
    ker = kernel_basis(rows, n)
    assert len(ker) == n - rank(rows)
    assert all(sum(x * y for x, y in zip(row, vec)) == 0 for row in rows for vec in ker)
    # saturated: Z^n / span(ker) is torsion-free iff every invariant is 1
    if ker:
        d = sympy_snf(sympy.Matrix(ker), domain=sympy.ZZ)
        assert all(abs(d[i, i]) == 1 for i in range(len(ker)))


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@settings(max_examples=60, deadline=None)
@given(matrices(min_rows=1, square=True))
def test_signature_matches_eigenvalue_sign_counts(mat):
    rows, n = mat
    gram = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs counts the positive (and, on p(-x), the negative) ones exactly
    x = sympy.Symbol("x")
    poly = sympy.Matrix(gram).charpoly(x)
    zero = n - sympy.Matrix(gram).rank()
    plus = _sign_changes(poly.all_coeffs())
    minus = _sign_changes(sympy.Poly(poly.as_expr().subs(x, -x), x).all_coeffs())
    assert signature(IntLattice(gram)) == (plus, minus, zero)
