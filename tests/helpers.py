"""Independent oracles for the test suite.

These deliberately avoid the package's own bookkeeping: intersection goes
through an explicit Gram matrix, wedge products through permutation signs,
and linear solving through Fractions.  Where a test compares package output
to an oracle, the oracle lives here.  So do the test inputs the command
line never builds: Hurwitz moves on whole letters, powers of words, the
literal twist words of Torelli words and ``torelli_word`` documents.
"""

import itertools
import random
from fractions import Fraction

from monolab.homology import HomologyClass, twist_coords
from monolab.schemas import SCHEMA, encode_word
from monolab.scenarios import family
from monolab.words import PositiveFactorization, TwistLetter, Word, sp_image


def naive_j_matrix(genus):
    n = 2 * genus
    j = [[0] * n for _ in range(n)]
    for i in range(genus):
        j[i][genus + i] = 1
        j[genus + i][i] = -1
    return j


def naive_intersection(u, v):
    j = naive_j_matrix(u.genus)
    n = 2 * u.genus
    return sum(u.coords[a] * j[a][b] * v.coords[b] for a in range(n) for b in range(n))


def naive_transvect(c, power, x):
    k = power * naive_intersection(x, c)
    return HomologyClass(x.genus, [xi + k * ci for xi, ci in zip(x.coords, c.coords)])


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        node = start
        while not seen[node]:
            seen[node] = True
            node = perm[node]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def naive_wedge_cube(v1, v2, v3, n):
    """Coefficients of v1 ^ v2 ^ v3 in sorted-triple coordinates, computed
    by summing over permutations with explicit signs."""
    out = {}
    vecs = (v1, v2, v3)
    for idx in itertools.product(range(n), repeat=3):
        if len(set(idx)) != 3:
            continue
        coef = vecs[0][idx[0]] * vecs[1][idx[1]] * vecs[2][idx[2]]
        if coef == 0:
            continue
        order = sorted(range(3), key=lambda t: idx[t])
        key = tuple(sorted(idx))
        out[key] = out.get(key, 0) + perm_sign(order) * coef
    return {k: v for k, v in out.items() if v}


def fraction_solve(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q; None if unsolvable."""
    n = len(target)
    m = len(columns)
    a = [[Fraction(columns[j][i]) for j in range(m)] + [Fraction(target[i])]
         for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        a[row] = [x / pv for x in a[row]]
        for r in range(n):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if a[r][m] != 0:
            return None
    sol = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        sol[col] = a[r][m]
    return sol


def random_class(rng, genus, lo=-2, hi=2):
    while True:
        coords = [rng.randint(lo, hi) for _ in range(2 * genus)]
        if any(coords):
            from math import gcd
            g = 0
            for c in coords:
                g = gcd(g, c)
            return HomologyClass(genus, [c // g for c in coords])


def random_positive_factorization(rng, genus, length, with_separating=True):
    letters = []
    for _ in range(length):
        if with_separating and genus >= 2 and rng.random() < 0.2:
            h1 = rng.randint(1, genus - 1)
            letters.append(
                TwistLetter(HomologyClass(genus, [0] * (2 * genus)), 1,
                            separating=True, split=(h1, genus - h1))
            )
        else:
            letters.append(TwistLetter(random_class(rng, genus), 1))
    word = Word(letters, genus)
    return PositiveFactorization(word, sp_image(word))


def mck_depth3_inputs():
    """mck g=2 and the result of three seeded Hurwitz moves on it."""
    rng = random.Random(5)
    start = end = family("mck", 2).base
    for _ in range(3):
        end = elementary_transformation(end, rng.randrange(len(end.letters) - 1),
                                        rng.choice(("left", "right")))
    return start, end


def elementary_transformation(fact, pos, direction):
    """One Hurwitz move on the adjacent written pair at ``pos``.

    With (u, v) = letters[pos], letters[pos+1]:

    * ``"left"``  rewrites (u, v) -> (u v u^-1, u): the new left letter is
      the twist about the image of v's curve under u's twist.
    * ``"right"`` is the inverse move, (u, v) -> (v, v^-1 u v).

    Either way the written product, and hence the symplectic image, is
    unchanged.  The moved curve is twisted as a vector by
    ``homology.twist_coords``; a separating letter has the zero class and
    stays.
    """
    letters = list(fact.letters)
    if not 0 <= pos <= len(letters) - 2:
        raise IndexError("pair position %d out of range" % pos)
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    u, v = letters[pos], letters[pos + 1]
    moved, by, power = (v, u, u.power) if direction == "left" else (u, v, -v.power)
    if not moved.separating:
        coords = twist_coords(by.curve.coords, power, moved.curve.coords)
        moved = TwistLetter(HomologyClass(fact.genus, coords), moved.power)
    letters[pos:pos + 2] = (moved, u) if direction == "left" else (v, moved)
    return PositiveFactorization(Word(letters, fact.genus), fact.claimed_target)


def word_power(word, n):
    """The word repeated n times, its inverse repeated -n times for n < 0."""
    n = int(n)
    if n == 0:
        return Word((), word.genus)
    base = word if n > 0 else word.inverse()
    return Word(base.letters * abs(n), word.genus)


def bounding_pair_word(gen):
    """The two-letter word T_x T_y^{-1}; both curves carry the class ``cls``."""
    return Word(
        (TwistLetter(gen.cls, 1), TwistLetter(gen.cls, -1)), gen.genus
    )


def twist_word(tw):
    """The literal twist word of a Torelli word: each factor contributes
    w x^e w^{-1}."""
    out = Word((), tw.genus)
    for w, g, e in tw.factors:
        x = word_power(bounding_pair_word(g), e)
        out = out * w * x * w.inverse()
    return out


def encode_torelli_word(tw):
    """The ``torelli_word`` document that ``monolab johnson`` reads."""
    factors = []
    for w, gen, e in tw.factors:
        factors.append({
            "conjugator": encode_word(w),
            "generator": {
                "cls": list(gen.cls.coords),
                "side": [[list(a.coords), list(b.coords)] for a, b in gen.side_basis],
            },
            "exp": e,
        })
    return {"schema": SCHEMA, "type": "torelli_word", "genus": tw.genus,
            "factors": factors}
