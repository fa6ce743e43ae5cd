"""Integer model of the first homology of a closed oriented surface.

A class is an integer vector in a fixed symplectic basis, ordered
a_1, ..., a_G, b_1, ..., b_G (the a-block first).  The intersection
pairing is <a_i, b_i> = +1, all other basis pairings zero.

The homology action of a right-handed Dehn twist about a curve in class c
is the transvection x -> x + <x, c> c; the left-handed twist subtracts.
This one sign convention is fixed here, in ``pairing`` and ``dual``, and
every other module takes it from those two functions.  ``twist_coords`` is
the one vector transvection: the Johnson transport of ``johnson`` and the
mod-m moves of ``hurwitz`` call it.  ``twist_product`` is the one product
of twist matrices: ``twist_matrix``, ``words.sp_image`` and the Hurwitz
pair check all call it.  All values are immutable and all operations are
pure.
"""

from . import _linalg
from ._linalg import Frozen, IntVector, gcd_all, identity_matrix, mat_mul, mat_vec


class GenusMismatchError(ValueError):
    pass


class HomologyClass(IntVector):
    """An element of H_1 of the genus-``genus`` surface.

    >>> a1 = basis_a(2, 1); b1 = basis_b(2, 1)
    >>> intersection(a1, b1)
    1
    >>> (a1 + b1).coords
    (1, 0, 1, 0)
    """

    __slots__ = ()
    _dim_error = "expected %(dim)d coordinates for genus %(genus)d, got %(got)d"

    @staticmethod
    def _dim(genus):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        return 2 * genus

    def _check(self, other):
        if not isinstance(other, HomologyClass):
            raise TypeError("expected a HomologyClass")
        if other.genus != self.genus:
            raise GenusMismatchError(
                "genus mismatch: %d vs %d" % (self.genus, other.genus)
            )

    def __repr__(self):
        return "HomologyClass(%d, %r)" % (self.genus, list(self.coords))


def zero_class(genus):
    return HomologyClass.zero(genus)


def basis_a(genus, i):
    """The class a_i, 1 <= i <= genus."""
    if not 1 <= i <= genus:
        raise ValueError("a_%d out of range for genus %d" % (i, genus))
    c = [0] * (2 * genus)
    c[i - 1] = 1
    return HomologyClass(genus, c)


def basis_b(genus, i):
    """The class b_i, 1 <= i <= genus."""
    if not 1 <= i <= genus:
        raise ValueError("b_%d out of range for genus %d" % (i, genus))
    c = [0] * (2 * genus)
    c[genus + i - 1] = 1
    return HomologyClass(genus, c)


def pairing(u, v):
    """<u, v> for coordinate sequences u, v in the fixed basis."""
    g = len(u) // 2
    return sum(u[i] * v[g + i] - u[g + i] * v[i] for i in range(g))


def dual(coords):
    """The nonzeros (i, s_i) of the vector s with s.x = <x, c>, c = ``coords``:
    s = (c_{g+1..2g}, -c_{1..g})."""
    g = len(coords) // 2
    return [(i + g, -x) if i < g else (i - g, x) for i, x in enumerate(coords) if x]


def intersection(u, v):
    """Algebraic intersection number <u, v>."""
    if u.genus != v.genus:
        raise GenusMismatchError("genus mismatch: %d vs %d" % (u.genus, v.genus))
    return pairing(u.coords, v.coords)


def twist_coords(c, power, x):
    """x + p<x, c>c for coordinate sequences c and x and an integer power p:
    the image of x under T_c^p, as a tuple."""
    k = power * pairing(x, c)
    return tuple(xi + k * ci for xi, ci in zip(x, c)) if k else tuple(x)


class SpMap(Frozen):
    """An integral symplectic matrix acting on coordinate columns."""

    __slots__ = ("genus", "rows")

    def __init__(self, genus, rows):
        genus = int(genus)
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        n = 2 * genus
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("expected a %dx%d matrix" % (n, n))
        self._init(genus=genus, rows=rows)

    def _key(self):
        return (self.genus, self.rows)

    @classmethod
    def identity(cls, genus):
        return cls(genus, identity_matrix(2 * genus))

    def __matmul__(self, other):
        if not isinstance(other, SpMap):
            raise TypeError("expected an SpMap")
        if other.genus != self.genus:
            raise GenusMismatchError("genus mismatch: %d vs %d" % (self.genus, other.genus))
        return SpMap(self.genus, mat_mul(self.rows, other.rows))

    def __repr__(self):
        return "SpMap(genus=%d, rows=%r)" % (self.genus, [list(r) for r in self.rows])

    def apply(self, x):
        if not isinstance(x, HomologyClass):
            raise TypeError("expected a HomologyClass")
        if x.genus != self.genus:
            raise GenusMismatchError("genus mismatch: %d vs %d" % (self.genus, x.genus))
        return HomologyClass(self.genus, mat_vec(self.rows, x.coords))

    def is_identity(self):
        return self.rows == identity_matrix(2 * self.genus)

    def commutes_with(self, other):
        return self @ other == other @ self


def twist_product(genus, twists):
    """The rows, as lists, of the written-order product of the twists T_c^p,
    each given as (c = coordinates, p).

    From the identity, each T_c = I + c s^T with s = ``dual(c)`` multiplies
    the rows on the right: M T_c^p = M + p (M c) s^T visits only the
    nonzero entries of c and s."""
    n = 2 * genus
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for coords, power in twists:
        c = [(i, x) for i, x in enumerate(coords) if x]
        s = dual(coords)
        for r in rows:
            k = power * sum(r[i] * x for i, x in c)
            if k:
                for i, x in s:
                    r[i] += k * x
    return rows


def twist_matrix(c, power=1):
    """Matrix of the transvection for the twist about c (power +1 or -1).

    A zero class (any separating curve) gives the identity.
    """
    if power not in (1, -1):
        raise ValueError("power must be +1 or -1")
    return SpMap(c.genus, twist_product(c.genus, [(c.coords, power)]))


def is_primitive(v):
    """True iff the gcd of the coordinates is 1.  Errors on the zero class."""
    if v.is_zero():
        raise ValueError("primitivity is undefined for the zero class")
    return gcd_all(v.coords) == 1


def fixed_subspace_dim(m):
    """Dimension over Q of the fixed space ker(m - 1)."""
    n = 2 * m.genus
    diff = [
        [m.rows[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)
    ]
    return n - _linalg.rank(diff)
