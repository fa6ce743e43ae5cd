"""The immutable value types: fields cannot be assigned or deleted, equal
values hash equal, and vector arithmetic refuses to mix types or genera."""

import pytest

from monolab.homology import GenusMismatchError, HomologyClass, SpMap, basis_a
from monolab.hurwitz import ExploreReport, OrbitCertificate, QuotientConfig, orbit_explore
from monolab.invariants import FibrationSpec
from monolab.johnson import BoundingPairGen, QuotientClass, TorelliWord, Wedge3
from monolab.lattices import IntLattice, SublatticeBasis
from monolab.scenarios import family
from monolab.words import PositiveFactorization, TwistLetter, Word, sp_image


def _factorization():
    word = Word([TwistLetter(basis_a(2, 1))], 2)
    return PositiveFactorization(word, sp_image(word))


# (class, factory); each call of a factory builds a new object of that
# class with the same value
VALUE_TYPES = [
    (HomologyClass, lambda: HomologyClass(1, (1, 0))),
    (SpMap, lambda: SpMap.identity(1)),
    (TwistLetter, lambda: TwistLetter(basis_a(2, 1), -1)),
    (Word, lambda: Word([TwistLetter(basis_a(2, 1))], 2)),
    (PositiveFactorization, _factorization),
    (Wedge3, lambda: Wedge3(3, range(20))),
    (QuotientClass, lambda: QuotientClass(3, range(14))),
    (BoundingPairGen, lambda: family("mck", 2).twist.factors[0][1]),
    (SublatticeBasis, lambda: SublatticeBasis(2, [(2, 0), (0, 4)])),
    (IntLattice, lambda: IntLattice([[0, 1], [1, 0]])),
]

IDENTITY_TYPES = [
    (QuotientConfig, lambda: QuotientConfig(3, 2)),
    (OrbitCertificate, lambda: OrbitCertificate("unknown", None, 0, 1)),
    (ExploreReport, lambda: orbit_explore(_factorization(), QuotientConfig(3, 2), 1)),
    (TorelliWord, lambda: family("mck", 2).twist),
    (FibrationSpec, lambda: FibrationSpec(2, (), (-1,), True)),
]

ALL_TYPES = VALUE_TYPES + IDENTITY_TYPES


def _params(types):
    return pytest.mark.parametrize("klass, make", types, ids=[k.__name__ for k, _ in types])


def _fields(obj):
    return [name for klass in type(obj).__mro__
            for name in getattr(klass, "__slots__", ())]


def test_all_fifteen_types_are_covered():
    assert len({klass for klass, _ in ALL_TYPES}) == 15
    assert all(type(make()) is klass for klass, make in ALL_TYPES)


@_params(ALL_TYPES)
def test_fields_cannot_be_assigned_or_deleted(klass, make):
    obj = make()
    fields = _fields(obj)
    assert fields
    for name in fields:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


@_params(VALUE_TYPES)
def test_equal_values_hash_equal(klass, make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != object()


@_params(IDENTITY_TYPES)
def test_identity_types_compare_by_identity(klass, make):
    a, b = make(), make()
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_vector_hashes_and_comparisons_keep_their_fields():
    c = HomologyClass(2, (1, 0, 0, 1))
    assert hash(c) == hash((2, (1, 0, 0, 1)))
    assert c != HomologyClass(2, (1, 0, 0, 0))
    assert Wedge3.zero(3) != QuotientClass.zero(3)
    assert HomologyClass(0, ()) != HomologyClass(1, (0, 0))
    m = SpMap.identity(2)
    assert hash(m) == hash((2, m.rows))
    letter = TwistLetter(basis_a(2, 1))
    assert hash(letter) == hash((letter.curve, 1, False, None))


def test_vector_arithmetic():
    u = HomologyClass(2, (1, 2, 3, 4))
    v = HomologyClass(2, (0, 1, 0, -1))
    assert (u + v).coords == (1, 3, 3, 3)
    assert (u - v).coords == (1, 1, 3, 5)
    assert (-u).coords == (-1, -2, -3, -4)
    assert (3 * v).coords == (0, 3, 0, -3)
    assert type(u + v) is HomologyClass
    q = QuotientClass(3, range(14))
    assert type(2 * q) is QuotientClass and (q - q).is_zero() and not q.is_zero()
    assert (q + q) == 2 * q and (2 * q).coords[13] == 26
    w = Wedge3.zero(3)
    assert type(-w) is Wedge3 and len(w.coords) == 20


@pytest.mark.parametrize("op", [lambda x, y: x + y, lambda x, y: x - y],
                         ids=["add", "sub"])
def test_mixing_types_or_genera_raises(op):
    h2, h3 = HomologyClass(2, (0,) * 4), HomologyClass(3, (0,) * 6)
    w2, w3 = Wedge3.zero(2), Wedge3.zero(3)
    q2, q3 = QuotientClass.zero(2), QuotientClass.zero(3)
    cases = [
        (h2, h3, GenusMismatchError),
        (h2, w2, TypeError),
        (h2, q2, TypeError),
        (h2, 1, TypeError),
        (w2, w3, GenusMismatchError),
        (w2, h2, GenusMismatchError),
        (w2, q2, GenusMismatchError),
        (q2, q3, GenusMismatchError),
        (q2, w2, GenusMismatchError),
        (q2, h2, GenusMismatchError),
    ]
    for x, y, exc in cases:
        with pytest.raises(exc):
            op(x, y)


def test_dimension_errors_keep_their_messages():
    with pytest.raises(ValueError, match="expected 4 coordinates for genus 2, got 3"):
        HomologyClass(2, (0, 0, 0))
    with pytest.raises(ValueError, match="genus must be nonnegative"):
        HomologyClass(-1, ())
    with pytest.raises(ValueError, match="expected 4 wedge coordinates, got 3"):
        Wedge3(2, (0, 0, 0))
    with pytest.raises(ValueError, match="expected 14 quotient coordinates, got 3"):
        QuotientClass(3, (0, 0, 0))
