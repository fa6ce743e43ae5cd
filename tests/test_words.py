import math
import random

import pytest
from hypothesis import example, given, strategies as st

from monolab.homology import HomologyClass, SpMap, basis_a, basis_b, zero_class
from monolab.words import (
    ConjugationError,
    FactorizationError,
    LetterError,
    PositiveFactorization,
    TwistLetter,
    Word,
    commutes_at_sp,
    elementary_transformation,
    global_conjugation,
    partial_conjugation,
    sp_image,
    verify_factorization,
)
from helpers import naive_transvect, random_positive_factorization


def test_letter_validation():
    g = 2
    with pytest.raises(LetterError):
        TwistLetter(zero_class(g), 1)  # nonseparating needs a primitive class
    with pytest.raises(LetterError):
        TwistLetter(2 * basis_a(g, 1), 1)
    with pytest.raises(LetterError):
        TwistLetter(basis_a(g, 1), 1, separating=True, split=(1, 1))
    with pytest.raises(LetterError):
        TwistLetter(zero_class(g), 1, separating=True, split=(1, 2))
    sep = TwistLetter(zero_class(g), 1, separating=True, split=(1, 1))
    assert sep.split == (1, 1)
    assert sep.matrix().is_identity()


def test_sp_image_trivials():
    g = 2
    assert sp_image(Word((), g)).is_identity()
    c = basis_a(g, 1) + basis_b(g, 2)
    w = Word([TwistLetter(c, 1), TwistLetter(c, -1)], g)
    assert sp_image(w).is_identity()


def test_sp_image_order_convention():
    # the rightmost letter acts first: image of the word [u, v] is M_u @ M_v
    g = 2
    u = TwistLetter(basis_a(g, 1))
    v = TwistLetter(basis_b(g, 1))
    assert sp_image(Word([u, v], g)) == u.matrix() @ v.matrix()


def _letters(g):
    powers = st.sampled_from((1, -1))
    vectors = st.lists(st.integers(-3, 3), min_size=2 * g, max_size=2 * g).filter(any)
    nonsep = st.builds(
        lambda v, p: TwistLetter(HomologyClass(g, [x // math.gcd(*v) for x in v]), p),
        vectors, powers)
    if g < 2:
        return nonsep
    sep = st.builds(
        lambda h, p: TwistLetter(zero_class(g), p, separating=True, split=(h, g - h)),
        st.integers(1, g - 1), powers)
    return st.one_of(nonsep, sep)


words = st.integers(1, 6).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(_letters(g), max_size=12)))


@given(words)
@example((1, []))
@example((6, []))
def test_sp_image_equals_the_dense_product(data):
    # the dense product of the letter matrices is the oracle for the
    # in-place rank-one kernel behind sp_image
    g, letters = data
    dense = SpMap.identity(g)
    for letter in letters:
        m = letter.matrix()
        for j in range(2 * g):
            e = HomologyClass(g, [int(i == j) for i in range(2 * g)])
            assert m.apply(e) == naive_transvect(letter.curve, letter.power, e)
        dense = dense @ m
    assert sp_image(Word(letters, g)) == dense


def test_verify_factorization_pass_and_fail():
    g = 2
    c = basis_a(g, 1)
    ok = verify_factorization(Word([TwistLetter(c, 1), TwistLetter(c, -1)], g))
    assert ok["verdict"] == "PASS"
    bad = verify_factorization(Word([TwistLetter(c, 1)], g))
    assert bad["verdict"] == "FAIL"
    assert "necessary" in bad["certification"]
    with pytest.raises(FactorizationError):
        PositiveFactorization(Word([TwistLetter(c, 1)], g))


def test_positive_factorization_rejects_negative_letters():
    g = 2
    c = basis_a(g, 1)
    word = Word([TwistLetter(c, 1), TwistLetter(c, -1)], g)
    with pytest.raises(FactorizationError):
        PositiveFactorization(word)


def test_elementary_transformation_commuting_letters_swap():
    g = 2
    u = TwistLetter(basis_a(g, 1))
    v = TwistLetter(basis_a(g, 2))
    fact = PositiveFactorization(Word([u, v], g), sp_image(Word([u, v], g)))
    moved = elementary_transformation(fact, 0, "left")
    assert moved.letters == (v, u)


def test_elementary_transformation_inverse_moves():
    rng = random.Random(99)
    for _ in range(20):
        fact = random_positive_factorization(rng, 2, 6)
        pos = rng.randint(0, len(fact) - 2)
        back = elementary_transformation(
            elementary_transformation(fact, pos, "left"), pos, "right"
        )
        assert back.letters == fact.letters
        back = elementary_transformation(
            elementary_transformation(fact, pos, "right"), pos, "left"
        )
        assert back.letters == fact.letters


def test_elementary_transformation_matches_the_dense_conjugation():
    # the move twists one curve as a vector; the dense path conjugates the
    # letter by the whole twist matrix
    rng = random.Random(16)
    for genus in (2, 3, 4):
        for _ in range(40):
            fact = random_positive_factorization(rng, genus, rng.randint(2, 6))
            pos = rng.randint(0, len(fact) - 2)
            u, v = fact.letters[pos], fact.letters[pos + 1]
            left = elementary_transformation(fact, pos, "left").letters
            right = elementary_transformation(fact, pos, "right").letters
            assert left[pos:pos + 2] == (v.conjugated(u.matrix()), u)
            assert right[pos:pos + 2] == (v, u.conjugated(v.inverse().matrix()))


def test_hurwitz_moves_preserve_image_and_counts():
    rng = random.Random(4)
    for genus in (2, 3):
        for _ in range(60):
            fact = random_positive_factorization(rng, genus, rng.randint(2, 7))
            image = sp_image(fact.word)
            splits = sorted(l.split for l in fact.letters if l.separating)
            current = fact
            for _ in range(rng.randint(1, 12)):
                pos = rng.randint(0, len(current) - 2)
                current = elementary_transformation(current, pos, rng.choice(("left", "right")))
            assert sp_image(current.word) == image
            assert len(current) == len(fact)
            assert sorted(l.split for l in current.letters if l.separating) == splits


def test_global_conjugation():
    rng = random.Random(12)
    g = 2
    fact = random_positive_factorization(rng, g, 5)
    # conjugating by the factorization's own word commutes with its image
    conj = fact.word
    if sp_image(conj).commutes_with(fact.claimed_target):
        out = global_conjugation(fact, conj)
        assert sp_image(out.word) == fact.claimed_target
    # empty conjugator is the identity map on factorizations
    out = global_conjugation(fact, Word((), g))
    assert out.letters == fact.letters


def test_global_conjugation_commutation_check():
    g = 2
    u = TwistLetter(basis_a(g, 1))
    fact = PositiveFactorization(Word([u], g), u.matrix())
    bad = Word([TwistLetter(basis_b(g, 1))], g)
    assert not commutes_at_sp(bad, fact.word)
    with pytest.raises(ConjugationError):
        global_conjugation(fact, bad)


def test_partial_conjugation_identity_and_whole_word():
    rng = random.Random(21)
    g = 2
    fact = random_positive_factorization(rng, g, 6)
    out = partial_conjugation(fact, 3, Word((), g))
    assert out.letters == fact.letters
    conj = Word([TwistLetter(basis_a(g, 1)), TwistLetter(basis_a(g, 1), -1)], g)
    assert sp_image(conj).is_identity()
    assert partial_conjugation(fact, len(fact), conj).letters == \
        global_conjugation(fact, conj).letters


def test_partial_conjugation_prefix_is_trailing_slice():
    # conjugator commuting with the length-k prefix but not with the rest
    g = 2
    a1 = TwistLetter(basis_a(g, 1))
    b1 = TwistLetter(basis_b(g, 1))
    word = Word([b1, a1], g)
    fact = PositiveFactorization(word, sp_image(word))
    conj = Word([TwistLetter(basis_a(g, 1))], g)
    # prefix of length 1 is the last letter a1; twists about one class commute
    out = partial_conjugation(fact, 1, conj)
    assert out.letters[1] == a1
    assert out.letters[0] == b1
    # but the length-2 prefix has image not commuting with the conjugator
    with pytest.raises(ConjugationError):
        partial_conjugation(fact, 2, conj)


def test_partial_conjugation_preserves_product():
    rng = random.Random(31)
    g = 2
    for _ in range(20):
        fact = random_positive_factorization(rng, g, 6)
        k = rng.randint(1, 6)
        prefix = Word(fact.letters[len(fact) - k:], g)
        conj_letter = TwistLetter(basis_a(g, rng.randint(1, g)))
        conj = Word([conj_letter], g)
        if sp_image(conj).commutes_with(sp_image(prefix)):
            out = partial_conjugation(fact, k, conj)
            assert sp_image(out.word) == fact.claimed_target


def test_commutes_at_sp_examples():
    g = 2
    a_twist = Word([TwistLetter(basis_a(g, 1))], g)
    b_twist = Word([TwistLetter(basis_b(g, 1))], g)
    assert not commutes_at_sp(a_twist, b_twist)
    assert commutes_at_sp(a_twist, a_twist)
    # a word with trivial image commutes with everything
    c = basis_b(g, 2)
    torelli_like = Word([TwistLetter(c, 1), TwistLetter(c, -1)], g)
    assert commutes_at_sp(torelli_like, b_twist)


def test_separating_letters_ride_through_conjugation():
    g = 2
    sep = TwistLetter(zero_class(g), 1, separating=True, split=(1, 1))
    a1 = TwistLetter(basis_a(g, 1))
    word = Word([a1, sep], g)
    fact = PositiveFactorization(word, sp_image(word))
    out = global_conjugation(fact, Word([a1], g))
    assert out.letters[1] == sep
