import random

import pytest
from hypothesis import given, settings, strategies as st

from monolab._linalg import identity_matrix, smith_normal_form
from monolab.lattices import (
    IntLattice,
    SublatticeBasis,
    enumerate_pattern,
    orthogonal_complement,
    parity,
    signature,
)
from oracles import fraction_signature

U = IntLattice([[0, 1], [1, 0]])                       # hyperbolic plane
TWISTED = IntLattice([[1, 1], [1, 0]])                 # odd unimodular rank 2


def test_signature_examples():
    assert signature(U) == (1, 1, 0)
    assert signature(IntLattice([[-1, 0, 0, 0], [0, -1, 0, 0],
                                 [0, 0, -1, 0], [0, 0, 0, -1]])) == (0, 4, 0)
    # rank-6 form: hyperbolic block plus four <-1> classes
    form = U.direct_sum(IntLattice([[-1, 0, 0, 0], [0, -1, 0, 0],
                                    [0, 0, -1, 0], [0, 0, 0, -1]]))
    assert signature(form) == (1, 5, 0)
    assert signature(IntLattice([[0]])) == (0, 0, 1)


def test_signature_additive_over_direct_sum():
    rng = random.Random(41)
    for _ in range(20):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)

        def rand_sym(n):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    m[i][j] = m[j][i] = rng.randint(-4, 4)
            return IntLattice(m)

        l1, l2 = rand_sym(n1), rand_sym(n2)
        s1, s2 = signature(l1), signature(l2)
        s12 = signature(l1.direct_sum(l2))
        assert s12 == tuple(a + b for a, b in zip(s1, s2))


@st.composite
def symmetric_forms(draw):
    """Symmetric integer forms up to rank 10: random, sums of hyperbolic
    planes (an all-zero diagonal, for the pair step), degenerate ones
    (a radical, b_zero > 0), each under a random unimodular congruence and
    possibly scaled by a large integer."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(("random", "hyperbolic", "degenerate")))
    m = [[0] * n for _ in range(n)]
    if kind == "hyperbolic":
        for i in range(0, n - 1, 2):
            m[i][i + 1] = m[i + 1][i] = draw(st.integers(-3, 3).filter(bool))
    else:
        rank = n if kind == "random" else draw(st.integers(0, n - 1))
        for i in range(rank):
            for j in range(i, rank):
                m[i][j] = m[j][i] = draw(st.integers(-5, 5))
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            k = draw(st.integers(-2, 2))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[i] += k * row[j]
    scale = draw(st.sampled_from((1, 1, -1, 10**12 + 39, -(3**40))))
    return [[scale * x for x in row] for row in m]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(symmetric_forms())
def test_signature_matches_the_fraction_oracle(gram):
    assert signature(IntLattice(gram)) == fraction_signature(gram)


def test_parity_examples():
    assert parity(U) == "even"
    assert parity(IntLattice([[-1]])) == "odd"
    assert parity(IntLattice([[0, 1], [1, 2]])) == "even"


def test_parity_is_basis_independent():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = rng.randint(-3, 3)
        lat = IntLattice(m)
        # random unimodular change of basis from elementary row+column ops
        b = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                k = rng.randint(-2, 2)
                for t in range(n):
                    b[i][t] += k * b[j][t]
        assert SublatticeBasis(n, b).rows == identity_matrix(n)
        new_gram = [[sum(b[i][s] * m[s][t] * b[j][t] for s in range(n) for t in range(n))
                     for j in range(n)] for i in range(n)]
        assert parity(IntLattice(new_gram)) == parity(lat)


def test_orthogonal_complement_toy():
    amb = IntLattice([[1, 0], [0, -1]])
    basis, comp = orthogonal_complement(amb, [[0, 1]])
    assert comp.gram == ((1,),)
    assert basis.rank == 1


def test_orthogonal_complement_checks_unimodularity():
    amb = IntLattice([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        orthogonal_complement(amb, [[1, 0]])


def test_orthogonal_complement_blowdown_shape():
    # rank-6 ambient of two fiber components and four (-1)-sections, where
    # the first component meets the last section and the second meets the rest
    gram = [
        [-1, 1, 0, 0, 0, 1],
        [1, -1, 1, 1, 1, 0],
        [0, 1, -1, 0, 0, 0],
        [0, 1, 0, -1, 0, 0],
        [0, 1, 0, 0, -1, 0],
        [1, 0, 0, 0, 0, -1],
    ]
    amb = IntLattice(gram)
    sections = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    basis, comp = orthogonal_complement(amb, sections)
    assert basis.rank == 2
    # the complement is spanned by component-plus-incident-sections vectors
    # with squares 0 and 2 and pairing 1
    assert basis.rows == ((1, 0, 0, 0, 0, 1), (0, 1, 1, 1, 1, 0))
    assert comp.gram == ((0, 1), (1, 2))
    assert signature(comp) == (1, 1, 0)
    assert parity(comp) == "even"


def test_orthogonal_complement_second_section_system_is_odd():
    gram = [
        [-1, 1, 0, 0, 0, 0],
        [1, -1, 1, 1, 1, 1],
        [0, 1, -1, 0, 0, 0],
        [0, 1, 0, -1, 0, 0],
        [0, 1, 0, 0, -1, 0],
        [0, 1, 0, 0, 0, -1],
    ]
    amb = IntLattice(gram)
    sections = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    basis, comp = orthogonal_complement(amb, sections)
    # the untouched fiber component survives with square -1
    first = (1, 0, 0, 0, 0, 0)
    assert basis.member(first)
    assert amb.pairing(first, first) == -1
    assert parity(comp) == "odd"


def test_enumerate_pattern_case_one():
    # the even rank-2 form: pattern squares (0, 2), pairing 1
    hits = enumerate_pattern(U, [[0, 1], [1, 2]], 3)
    as_set = {tuple(map(tuple, t)) for t in hits}
    sigma, sphere = (1, 0), (0, 1)
    both = (1, 1)

    def neg(v):
        return tuple(-x for x in v)

    expected = {
        (sigma, both), (neg(sigma), neg(both)),
        (sphere, both), (neg(sphere), neg(both)),
    }
    assert as_set == expected
    # bigger box brings nothing new
    assert {tuple(map(tuple, t)) for t in enumerate_pattern(U, [[0, 1], [1, 2]], 5)} == expected


def test_enumerate_pattern_case_two():
    hits = enumerate_pattern(TWISTED, [[-1, 1], [1, 3]], 4)
    as_set = {tuple(map(tuple, t)) for t in hits}

    def neg(v):
        return tuple(-x for x in v)

    first = (1, -1)          # section minus fiber
    second_a = (-3, 1)
    second_b = (1, 1)
    expected = {
        (first, second_a), (neg(first), neg(second_a)),
        (first, second_b), (neg(first), neg(second_b)),
    }
    assert as_set == expected


def test_enumerate_pattern_empty_for_odd_square_in_even_lattice():
    assert enumerate_pattern(U, [[1]], 4) == []


def test_enumerate_pattern_deterministic_order():
    a = enumerate_pattern(U, [[0, 1], [1, 2]], 3)
    b = enumerate_pattern(U, [[0, 1], [1, 2]], 3)
    assert a == b == sorted(a)


def test_sublattice_basis_roundtrip():
    rows = [(2, 0, 4), (0, 1, 1)]
    basis = SublatticeBasis(3, rows)
    assert basis.member((2, 1, 5))
    assert not basis.member((1, 0, 0))
    assert basis.content() == 1
    assert SublatticeBasis(3, basis.rows).rows == basis.rows


def test_sublattice_content():
    assert SublatticeBasis(3, ()).content() == 0
    assert SublatticeBasis(3, [(2, 4, 0), (0, 0, 6)]).content() == 2


def test_smith_normal_form_public_contract():
    u, d, v = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = [d[i][i] for i in range(3)]
    assert diag[0] >= 0 and all(
        diag[i + 1] % diag[i] == 0 for i in range(2) if diag[i]
    )
