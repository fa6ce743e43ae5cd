"""Dehn-twist words, their symplectic images, and the factorization moves.

Order convention, fixed once
----------------------------
A ``Word`` stores its letters in written order: ``Word([t1, t2, t3])`` is
the mapping class T1 T2 T3, so the *rightmost* letter acts first on the
surface, and ``sp_image`` is the matching matrix product M1 @ M2 @ M3.
Consequently the k letters that act first form the trailing slice
``letters[-k:]``; that slice is what partial conjugation rewrites.

Every verdict produced here concerns the symplectic representation only.
Equality of images is necessary, never sufficient, for an identity between
the underlying mapping classes; the Torelli group is exactly the blind spot.
"""

from ._linalg import Frozen
from .homology import (
    GenusMismatchError,
    HomologyClass,
    SpMap,
    is_primitive,
    twist_product,
)


class LetterError(ValueError):
    pass


class ConjugationError(ValueError):
    """A conjugation move whose checked commutation precondition failed."""


class FactorizationError(ValueError):
    pass


class TwistLetter(Frozen):
    """One Dehn twist: a homology class, a handedness, and separating data.

    A separating letter has the zero class and carries ``split``, the pair
    of genera of the two sides.  A nonseparating letter must be primitive.
    """

    __slots__ = ("curve", "power", "separating", "split")

    def __init__(self, curve, power=1, separating=False, split=None):
        if not isinstance(curve, HomologyClass):
            raise TypeError("curve must be a HomologyClass")
        if power not in (1, -1):
            raise LetterError("power must be +1 or -1")
        if separating:
            if not curve.is_zero():
                raise LetterError("a separating letter must carry the zero class")
            if split is None:
                raise LetterError("a separating letter needs its (h1, h2) split")
            h1, h2 = int(split[0]), int(split[1])
            if h1 < 1 or h2 < 1 or h1 + h2 != curve.genus:
                raise LetterError(
                    "split %r does not partition genus %d" % ((h1, h2), curve.genus)
                )
            split = (min(h1, h2), max(h1, h2))
        else:
            if split is not None:
                raise LetterError("only separating letters carry split data")
            if curve.is_zero() or not is_primitive(curve):
                raise LetterError("a nonseparating letter must have a primitive class")
        self._init(curve=curve, power=power, separating=bool(separating), split=split)

    def _key(self):
        return (self.curve, self.power, self.separating, self.split)

    @property
    def genus(self):
        return self.curve.genus

    def inverse(self):
        return TwistLetter(self.curve, -self.power, self.separating, self.split)

    def conjugated(self, m):
        """The letter for the twist about the image curve under m.

        Separating letters have the zero class, which every map fixes, and
        their split data rides along unchanged.
        """
        if self.separating:
            return self
        return TwistLetter(m.apply(self.curve), self.power, False, None)

    def __repr__(self):
        extra = ", separating, split=%r" % (self.split,) if self.separating else ""
        return "TwistLetter(%r, power=%d%s)" % (list(self.curve.coords), self.power, extra)


class Word(Frozen):
    """A finite product of twist letters, stored in written order."""

    __slots__ = ("genus", "letters")

    def __init__(self, letters, genus=None):
        letters = tuple(letters)
        if genus is None:
            if not letters:
                raise ValueError("an empty word needs an explicit genus")
            genus = letters[0].genus
        for let in letters:
            if let.genus != genus:
                raise GenusMismatchError("letter genus %d != word genus %d" % (let.genus, genus))
        self._init(genus=int(genus), letters=letters)

    def _key(self):
        return (self.genus, self.letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if other.genus != self.genus:
            raise GenusMismatchError("cannot concatenate words of different genus")
        return Word(self.letters + other.letters, self.genus)

    def inverse(self):
        return Word(tuple(l.inverse() for l in reversed(self.letters)), self.genus)

    def __repr__(self):
        return "Word(%d letters, genus=%d)" % (len(self.letters), self.genus)


def sp_image(word):
    """Symplectic image of a word; the rightmost letter is applied first."""
    return SpMap(word.genus, twist_product(
        word.genus, ((l.curve.coords, l.power) for l in word.letters)))


class PositiveFactorization(Frozen):
    """A word of right-handed twists whose image equals a claimed target.

    The image check runs at construction; a mismatch raises.  For data of
    unknown status use :func:`verify_factorization`, which reports instead
    of raising.
    """

    __slots__ = ("word", "claimed_target")

    def __init__(self, word, claimed_target=None):
        if claimed_target is None:
            claimed_target = SpMap.identity(word.genus)
        if claimed_target.genus != word.genus:
            raise GenusMismatchError("target genus does not match the word")
        for letter in word.letters:
            if letter.power != 1:
                raise FactorizationError("all letters of a positive factorization have power +1")
        if sp_image(word) != claimed_target:
            raise FactorizationError(
                "symplectic image differs from the claimed target; "
                "see verify_factorization for a report"
            )
        self._init(word=word, claimed_target=claimed_target)

    def _key(self):
        return (self.word, self.claimed_target)

    @property
    def genus(self):
        return self.word.genus

    @property
    def letters(self):
        return self.word.letters

    def __len__(self):
        return len(self.word.letters)

    def __repr__(self):
        return "PositiveFactorization(%d letters, genus=%d)" % (len(self), self.genus)


def verify_factorization(word, claimed_target):
    """Compare the symplectic image of a word against a claimed target.

    Returns a report dict.  A "pass" certifies equality of integer matrices
    under the symplectic representation and nothing more: it is a necessary
    condition for the corresponding mapping-class identity, not a proof of
    it (Torelli elements are invisible here).
    """
    image = sp_image(word)
    ok = image == claimed_target
    return {
        "verdict": "PASS" if ok else "FAIL",
        "checked": "sp_image(word) == claimed_target",
        "letters": len(word.letters),
        "genus": word.genus,
        "certification": (
            "Sp level only: equality of symplectic images is necessary but "
            "not sufficient for a mapping-class identity"
        ),
        "image": [list(r) for r in image.rows],
    }


def global_conjugation(fact, conjugator):
    """Conjugate every letter by a word whose image commutes with the target."""
    m = sp_image(conjugator)
    if not m.commutes_with(fact.claimed_target):
        raise ConjugationError(
            "conjugator image does not commute with the claimed target at Sp level"
        )
    letters = tuple(l.conjugated(m) for l in fact.letters)
    return PositiveFactorization(Word(letters, fact.genus), fact.claimed_target)


def partial_conjugation(fact, k, conjugator):
    """Conjugate the k first-acting letters (the trailing written slice).

    The checked precondition is that the conjugator's symplectic image
    commutes with the image of that length-k slice.  Commutation of the
    underlying mapping classes is the caller's responsibility; it cannot be
    detected here (any Torelli conjugator commutes with everything at this
    level).
    """
    r = len(fact.letters)
    if not 1 <= k <= r:
        raise IndexError("prefix length %d out of range for %d letters" % (k, r))
    m = sp_image(conjugator)
    prefix = Word(fact.letters[r - k:], fact.genus)
    if not m.commutes_with(sp_image(prefix)):
        raise ConjugationError(
            "conjugator image does not commute with the length-%d prefix at Sp level" % k
        )
    letters = fact.letters[: r - k] + tuple(l.conjugated(m) for l in fact.letters[r - k:])
    return PositiveFactorization(Word(letters, fact.genus), fact.claimed_target)
