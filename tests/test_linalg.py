import random

import pytest
from hypothesis import given, settings, strategies as st

from monolab._linalg import (
    EchelonLattice,
    det,
    hnf,
    identity_matrix,
    kernel_basis,
    rank,
    smith_normal_form,
    xgcd,
)
from oracles import DenseEchelonLattice


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert x * a + y * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def mat_mul_lists(a, b, cols):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def assert_smith_form(a, u, d, v):
    """U*a*V == D with U and V unimodular, D diagonal, nonnegative and a
    divisibility chain with its zeros last."""
    m = len(a)
    n = len(a[0]) if m else 0
    assert (len(u), len(d), len(v)) == (m, m, n)
    assert mat_mul_lists(mat_mul_lists(u, a, n), v, n) == [list(r) for r in d]
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    assert all(x >= 0 for x in diag)
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)


def test_snf_examples():
    # (input, D); U and V are checked by assert_smith_form.  The last two
    # are the empty shapes: no rows, and two rows of no columns
    examples = [
        ([[1, 0], [0, 1]], ((1, 0), (0, 1))),
        ([[2, 0], [0, 3]], ((1, 0), (0, 6))),
        ([[0, 0], [0, 0]], ((0, 0), (0, 0))),
        ([[4, 0], [0, 6]], ((2, 0), (0, 12))),
        ([[0, 0, 3], [0, 0, 0]], ((3, 0, 0), (0, 0, 0))),
        ([[6, 4, 10]], ((2, 0, 0),)),
        ([[6], [4], [10]], ((2,), (0,), (0,))),
        ([[-3]], ((3,),)),
        ([], ()),
        ([[], []], ((), ())),
    ]
    for a, want in examples:
        u, d, v = smith_normal_form(a)
        assert d == want, a
        assert_smith_form(a, u, d, v)


def test_snf_postconditions_randomized():
    rng = random.Random(20240811)
    for trial in range(60):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        a = random_matrix(rng, m, n)
        assert_smith_form(a, *smith_normal_form(a))


def test_kernel_basis():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = random_matrix(rng, m, n, -4, 4)
        ker = kernel_basis(a, n)
        assert len(ker) == n - rank(a)
        for vec in ker:
            assert all(sum(a[i][j] * vec[j] for j in range(n)) == 0 for i in range(m))
        # saturated: Z^n / span(ker) is torsion-free iff every invariant is 1
        if ker:
            d = sympy_snf(sympy.Matrix(ker), domain=sympy.ZZ)
            assert all(abs(d[i, i]) == 1 for i in range(len(ker))), (a, ker)


def test_kernel_basis_of_no_rows_is_everything():
    assert kernel_basis([], 3) == identity_matrix(3)
    assert kernel_basis([], 0) == ()


def test_rank_against_det():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = random_matrix(rng, n, n, -5, 5)
        if det(a) != 0:
            assert rank(a) == n
        else:
            assert rank(a) < n


def test_echelon_insert_and_member():
    lat = EchelonLattice(3)
    assert lat.insert((2, 0, 0))
    assert lat.insert((0, 3, 0))
    assert not lat.insert((2, 3, 0))
    assert lat.member((4, 3, 0))
    assert not lat.member((1, 0, 0))
    assert lat.insert((1, 0, 0))  # pivot gcd shrink counts as growth
    assert lat.member((1, 0, 0))


def test_hnf_canonical_and_idempotent():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(1, 8)
        rows = [tuple(rng.randint(-6, 6) for _ in range(dim))
                for _ in range(rng.randint(0, 10))]
        h1 = hnf(rows, dim)
        assert hnf(h1, dim) == h1
        # pivots positive, entries above pivots reduced
        pivots = []
        for r in h1:
            lead = next(i for i in range(dim) if r[i])
            pivots.append((lead, r[lead]))
            assert r[lead] > 0
        for i, (col, p) in enumerate(pivots):
            for k in range(i):
                assert 0 <= h1[k][col] < p
        # permutation invariance: the basis is a lattice invariant
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert hnf(shuffled, dim) == h1


@st.composite
def row_sets(draw):
    """(dim, rows, probes) with zero rows, duplicates and negated copies
    (negative leading entries) mixed into the random rows."""
    dim = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    rows = draw(st.lists(vec, max_size=8))
    for kind in draw(st.lists(st.sampled_from(("zero", "dup", "neg")), max_size=4)):
        if kind == "zero":
            rows.insert(draw(st.integers(0, len(rows))), [0] * dim)
        elif rows:
            r = draw(st.sampled_from(rows))
            rows.append(list(r) if kind == "dup" else [-x for x in r])
    return dim, rows, draw(st.lists(vec, min_size=1, max_size=4))


def _densify(v, dim):
    out = [0] * dim
    for k, x in v.items():
        out[k] = x
    return out


@settings(derandomize=True, max_examples=300, deadline=None)
@given(row_sets())
def test_sparse_echelon_matches_the_dense_oracle(case):
    dim, rows, probes = case
    sparse, dense = EchelonLattice(dim), DenseEchelonLattice(dim)
    for i, r in enumerate(rows):
        # the sparse lattice takes dense sequences and {col: value} dicts
        given_row = r if i % 2 else {j: x for j, x in enumerate(r) if x}
        residue = sparse.insert(given_row)
        if residue is not None:
            # r minus the residue lies in the lattice as it was before
            assert residue
            assert dense.member([x - y for x, y in zip(r, _densify(residue, dim))])
        assert (residue is not None) == dense.insert(r)
        assert sparse.rank == dense.rank
        for p in probes + rows:
            assert sparse.member(p) == dense.member(p)
            assert _densify(sparse.reduce(p), dim) == dense.reduce(p)
    assert sparse.hnf_rows() == dense.hnf_rows()
