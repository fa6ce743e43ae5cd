import random

import pytest
from hypothesis import given, strategies as st

from monolab.homology import (
    GenusMismatchError,
    HomologyClass,
    SpMap,
    basis_a,
    basis_b,
    fixed_subspace_dim,
    intersection,
    is_primitive,
    twist_coords,
    twist_matrix,
    zero_class,
)
from helpers import naive_intersection, naive_transvect, random_class
from oracles import is_symplectic


def klass(genus, coords):
    return HomologyClass(genus, coords)


def transvect(c, power, x):
    """twist_coords on classes: the image of x under T_c^power."""
    return HomologyClass(x.genus, twist_coords(c.coords, power, x.coords))


def test_basis_pairings():
    a1, a2 = basis_a(2, 1), basis_a(2, 2)
    b1, b2 = basis_b(2, 1), basis_b(2, 2)
    assert intersection(a1, b1) == 1
    assert intersection(a1, a2) == 0
    assert intersection(b2, a2) == -1
    assert intersection(a1, b2) == 0


coords_pairs = st.integers(2, 4).flatmap(
    lambda g: st.tuples(
        st.just(g),
        st.lists(st.integers(-7, 7), min_size=2 * g, max_size=2 * g),
        st.lists(st.integers(-7, 7), min_size=2 * g, max_size=2 * g),
        st.lists(st.integers(-7, 7), min_size=2 * g, max_size=2 * g),
    )
)


@given(coords_pairs)
def test_intersection_bilinear_antisymmetric(data):
    g, xs, ys, zs = data
    x, y, z = klass(g, xs), klass(g, ys), klass(g, zs)
    assert intersection(x, y) == -intersection(y, x)
    assert intersection(x + z, y) == intersection(x, y) + intersection(z, y)
    assert intersection(x, y) == naive_intersection(x, y)


@given(coords_pairs)
def test_transvection_properties(data):
    g, cs, xs, ys = data
    c, x, y = klass(g, cs), klass(g, xs), klass(g, ys)
    tx = transvect(c, 1, x)
    assert tx == naive_transvect(c, 1, x)
    # round trip
    assert transvect(c, -1, tx) == x
    # additive in x
    assert transvect(c, 1, x + y) == tx + transvect(c, 1, y) - (
        transvect(c, 1, zero_class(g))
    )
    # symplectic: the pairing is preserved
    assert intersection(tx, transvect(c, 1, y)) == intersection(x, y)
    # c itself is fixed
    assert transvect(c, 1, c) == c


def test_transvection_fixes_disjoint_classes():
    g = 3
    c = basis_a(g, 1)
    x = basis_a(g, 2) + basis_b(g, 3)
    assert intersection(x, c) == 0
    assert transvect(c, 1, x) == x


def test_transvection_sign_convention():
    # with <b, c> = 1 the left-handed twist subtracts c from b
    g = 2
    c = -(basis_a(g, 1) + basis_a(g, 2))
    b1 = basis_b(g, 1)
    assert intersection(b1, c) == 1
    assert transvect(c, -1, b1) == b1 - c


def test_twist_matrix_matches_transvection_on_basis():
    g = 2
    rng = random.Random(3)
    for _ in range(25):
        c = random_class(rng, g)
        for power in (1, -1):
            m = twist_matrix(c, power)
            for i in range(1, g + 1):
                for vec in (basis_a(g, i), basis_b(g, i)):
                    assert m.apply(vec) == naive_transvect(c, power, vec)


def test_twist_coords_matches_the_dense_conjugation():
    # twist_coords moves one vector; the dense path applies the whole twist
    # matrix, built by twist_product from dual
    rng = random.Random(16)
    for genus in (2, 3, 4):
        for _ in range(40):
            c, x = random_class(rng, genus), random_class(rng, genus)
            for power in (1, -1):
                assert transvect(c, power, x) == twist_matrix(c, power).apply(x)


def test_twist_matrix_zero_class_and_inverse_pair():
    g = 3
    assert twist_matrix(zero_class(g), 1).is_identity()
    assert twist_matrix(zero_class(g), -1).is_identity()
    rng = random.Random(9)
    c = random_class(rng, g)
    assert (twist_matrix(c, 1) @ twist_matrix(c, -1)).is_identity()


def test_twist_matrix_symplectic_across_genus():
    rng = random.Random(17)
    for g in range(2, 9):
        for _ in range(12):
            c = random_class(rng, g)
            power = rng.choice((1, -1))
            m = twist_matrix(c, power)
            assert is_symplectic(m)
            assert is_symplectic(twist_matrix(c, -power))


def test_is_primitive():
    g = 3
    assert is_primitive(basis_a(g, 1))
    assert not is_primitive(2 * basis_a(g, 1) + 2 * basis_b(g, 3))
    assert is_primitive(3 * basis_a(g, 1) + 5 * basis_b(g, 1))
    with pytest.raises(ValueError):
        is_primitive(zero_class(g))


def test_fixed_subspace_dim():
    assert fixed_subspace_dim(SpMap.identity(4)) == 8
    g = 3
    neg = SpMap(g, [[-1 if i == j else 0 for j in range(2 * g)] for i in range(2 * g)])
    assert fixed_subspace_dim(neg) == 0
    c = basis_a(g, 1)
    m = twist_matrix(c, 1)
    # a transvection fixes the pairing-kernel of c, a hyperplane
    assert fixed_subspace_dim(m) == 2 * g - 1


def test_genus_mismatch_errors():
    with pytest.raises(GenusMismatchError):
        intersection(basis_a(2, 1), basis_a(3, 1))
