"""Independent oracles for the test suite.

These deliberately avoid the package's own bookkeeping: intersection goes
through an explicit Gram matrix, wedge products through permutation signs,
and linear solving through Fractions.  Where a test compares package output
to an oracle, the oracle lives here.
"""

import itertools
import random
from fractions import Fraction

from monolab.homology import HomologyClass
from monolab.scenarios import family
from monolab.words import (
    PositiveFactorization, TwistLetter, Word, elementary_transformation, sp_image,
)


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
