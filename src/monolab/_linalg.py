"""Exact integer linear algebra used throughout the package.

Everything here works with plain Python integers, so there is no precision
ceiling anywhere.  Matrices are tuples of tuples (immutable) or lists of
lists (scratch space); vectors are tuples or lists of ints, or, inside the
echelon lattice, ``{col: value}`` dicts of their nonzeros.  ``EchelonLattice``
is the one integer row reduction: rank, Hermite form, membership, the Smith
form (alternating Hermite forms) and ``kernel_basis`` all run on it.

The two bases of the package's value types live here too, since every
module that defines one already imports this one: ``Frozen`` (immutable,
compared by key or by identity) and ``IntVector`` (the integer vectors of
H_1, the third exterior power and the Johnson quotient); so does
``SparseRows``, the sparse rows a document carries until it is written.
"""

import bisect
from itertools import compress
from math import gcd


class Frozen:
    """Base of the package's immutable value types.

    Fields are set once, by ``_init`` in the constructor; assigning or
    deleting one afterwards raises.  A subclass that defines ``_key()``
    compares and hashes by it (same type, equal keys); the others compare
    by identity.
    """

    __slots__ = ()
    _key = None

    def _init(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __eq__(self, other):
        if self._key is None:
            return self is other
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        if self._key is None:
            return object.__hash__(self)
        return hash(self._key())


class IntVector(Frozen):
    """An integer vector over the homology of the genus-``genus`` surface.

    Subclasses give the dimension (``_dim``, which also validates the
    genus), the dimension error (``_dim_error``), the mixing check
    (``_check``) and ``__repr__``; the arithmetic is shared.  ``1 * v`` is
    v itself: a value is immutable, so a copy would buy nothing.
    """

    __slots__ = ("genus", "coords")

    def __init__(self, genus, coords):
        genus = int(genus)
        dim = self._dim(genus)
        coords = tuple(int(c) for c in coords)
        if len(coords) != dim:
            raise ValueError(self._dim_error % {"dim": dim, "genus": genus, "got": len(coords)})
        self._init(genus=genus, coords=coords)

    @classmethod
    def zero(cls, genus):
        return cls(genus, (0,) * cls._dim(int(genus)))

    def _key(self):
        return (self.genus, self.coords)

    def __add__(self, other):
        self._check(other)
        return type(self)(self.genus, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return type(self)(self.genus, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.genus, tuple(-x for x in self.coords))

    def __rmul__(self, k):
        k = int(k)
        return self if k == 1 else type(self)(self.genus, tuple(k * x for x in self.coords))

    def is_zero(self):
        return not any(self.coords)


def xgcd(a, b):
    """Extended gcd: returns (g, x, y) with x*a + y*b == g and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
        if g == 1:
            return 1
    return g


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    k = len(b)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(ra[t] * bc[t] for t in range(k)) for bc in bt) for ra in a
    )


def mat_vec(a, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


class EchelonLattice:
    """A sublattice of Z^dim kept as an integer row-echelon basis, starting
    as the span of ``rows``; the package's one integer row reduction.

    Rows are sparse ``{col: value}`` dicts of their nonzeros, indexed by
    their pivot (least) column; inputs may be dense or such dicts.  Gcd
    exchanges make the lattice only ever grow.  Every stored row has a
    positive pivot and is reduced into [0, pivot) at each pivot column to
    its right that existed when it was stored, so it is as sparse as the
    Hermite step makes it; it is a fresh dict, and no row is ever mutated
    in place, so a stored row may be shared.  ``insert`` returns None if it
    did not grow, else a vector spanning the same growth, vec minus a
    vector of the old lattice: when vec became a new pivot row with no
    exchange on the way, the stored row itself (its negation if the pivot
    was negative), else a copy of the partly reduced vector at the first
    gcd exchange.  ``hermite`` gives the canonical Hermite basis (positive
    pivots, entries above each in [0, pivot)), which is unique;
    ``lattices.SublatticeBasis`` holds it.
    """

    def __init__(self, dim, rows=()):
        self.dim = dim
        self.pivot_rows = {}
        for r in rows:
            self.insert(r)

    @property
    def rank(self):
        return len(self.pivot_rows)

    def reduce(self, vec):
        """Residue of vec against the current basis; see ``residue``."""
        return residue(self.pivot_rows, vec)

    def insert(self, vec):
        """Add vec to the lattice; see the class docstring for the result."""
        v = sparse(vec)
        grown = None
        while v:
            j = min(v)
            row = self.pivot_rows.get(j)
            if row is None:
                if v[j] > 0:
                    row = self._store(j, v)
                    return grown or row
                row = self._store(j, {k: -x for k, x in v.items()})
                return grown or {k: -x for k, x in row.items()}
            a, b = v[j], row[j]
            if a % b == 0:
                _sub_multiple(v, a // b, row)
            else:
                grown = grown or dict(v)
                g, x, y = xgcd(b, a)
                self._store(j, _combination(x, row, y, v))
                v = _combination(-(a // g), row, b // g, v)
        return grown

    def _store(self, j, row):
        """Store row (pivot j, positive; a working dict) as the pivot row at
        j, reduced at the pivots right of j and copied fresh: a working dict
        keeps its old table after its entries are deleted.  Returns it."""
        _reduce_right(row, self.pivot_rows)
        row = self.pivot_rows[j] = {k: x for k, x in row.items()}
        return row

    def hermite(self):
        """The canonical Hermite basis, ``{pivot: sparse row}`` by pivot.  Built
        bottom up: reducing with a final row changes only columns right of
        its pivot, so each row is reduced at the final rows' pivots left to
        right.  A stored row that needs no step is shared, not copied."""
        done = {}
        for c in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[c]
            work = dict(row)
            if _reduce_right(work, done):
                row = {k: x for k, x in work.items()}
            done[c] = row
        return dict(reversed(done.items()))


def residue(pivot_rows, vec):
    """Residue of vec, unmodified, after substitution on ``{pivot: row}``
    echelon rows with positive pivots; empty iff vec is in their span."""
    v = sparse(vec)
    while v:
        j = min(v)
        row = pivot_rows.get(j)
        if row is None:
            return v
        q = v[j] // row[j]
        if q:
            _sub_multiple(v, q, row)
        if j in v:
            return v
    return v


class SparseRows(Frozen):
    """Integer rows of ``dim`` entries, kept as ``{col: value}`` dicts of their
    nonzeros, for a document: ``schemas.write`` writes each as its dense list
    and ``hermite_pivots`` reads them as they are.  Not a list, so a stray
    ``json.dumps`` raises instead of writing dicts."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim, rows):
        self._init(dim=dim, rows=tuple(rows))


def hermite_pivots(rows, dim):
    """``{pivot: sparse row}`` if the rows are the canonical Hermite basis,
    else None, in linear time: rows of dim entries, nonzero, with positive,
    strictly increasing pivots and all entries in another row's pivot
    column in [0, that pivot).  ``rows`` are dense lists of plain ints (a
    decoded ``true`` or ``1.0`` is refused) or a ``SparseRows``
    of dimension dim, whose dicts are used as they are once every column is
    in 0..dim-1 and no entry is zero."""
    if isinstance(rows, SparseRows):
        cols = range(dim).__contains__
        if rows.dim != dim or not all(all(r.values()) and all(map(cols, r)) for r in rows.rows):
            return None
        rows = rows.rows
    elif all(len(row) == dim and all(type(x) is int for x in row) for row in rows):
        rows = [sparse(row) for row in rows]
    else:
        return None
    out = {}
    for r in rows:
        j = min(r, default=-1)
        if j <= next(reversed(out), -1) or r[j] < 0:
            return None
        out[j] = r
    reduced = all(0 <= x < out[k][k] for j, r in out.items()
                  for k, x in r.items() if k != j and k in out)
    return out if reduced else None


def dense(row, dim):
    """The dense tuple of a sparse ``{col: value}`` row."""
    out = [0] * dim
    for k, x in row.items():
        out[k] = x
    return tuple(out)


def sparse(vec):
    """A fresh ``{col: value}`` dict of the nonzeros of a dense or sparse vector."""
    if isinstance(vec, dict):
        return {k: x for k, x in vec.items() if x}
    return {k: vec[k] for k in compress(range(len(vec)), vec)}


def _combination(x, r, y, w):
    """x * r + y * w for sparse r and w, over the union of their supports."""
    out = {k: x * r.get(k, 0) + y * w.get(k, 0) for k in r.keys() | w.keys()}
    return {k: t for k, t in out.items() if t}


def _reduce_right(row, rows):
    """Reduce row (positive pivot) in place into [0, pivot) at each pivot
    column of the echelon rows ``rows`` right of its own, left to right:
    subtracting a row changes only columns from its pivot on, so a column
    is final once passed.  True iff some step changed row."""
    j, changed = min(row), False
    todo, i = sorted(k for k in row.keys() & rows.keys() if k > j), 0
    while i < len(todo):
        k, i = todo[i], i + 1
        q = row.get(k, 0) // rows[k][k]
        if q:
            changed = True
            _sub_multiple(row, q, rows[k])
            for t in rows[k]:
                if t > k and t in rows:
                    bisect.insort(todo, t, i)
    return changed


def _sub_multiple(v, q, row):
    """v -= q * row in place, over row's nonzeros only (q != 0)."""
    for k, y in row.items():
        x = v.get(k, 0) - q * y
        if x:
            v[k] = x
        else:
            del v[k]


def rank(rows):
    """Rank over Q of an integer matrix: the pivot count of its rows' lattice."""
    return EchelonLattice(len(rows[0]), rows).rank if rows else 0


def _echelon_split(a, e, n):
    """(T a, T e), the Hermite basis of the rows of [a | e] cut back into its
    two blocks: a has n columns and e is unimodular, so the rows stay
    independent and T is unimodular.  T a is in echelon form, zero rows last;
    the reduction above each pivot keeps the entries of T small."""
    width = n + len(e)
    rows = EchelonLattice(width, [tuple(x) + tuple(y) for x, y in zip(a, e)]).hermite()
    rows = [dense(r, width) for r in rows.values()]
    return [r[:n] for r in rows], [r[n:] for r in rows]


def smith_normal_form(mat):
    """Smith normal form with transforms: returns (U, D, V), U*mat*V == D.

    U and V are unimodular, D is diagonal with nonnegative entries in a
    divisibility chain d1 | d2 | ..., zeros last.

    Hermite forms of the columns and of the rows alternate (Kannan and
    Bachem, SIAM J. Comput. 8(4), 1979) until the matrix is diagonal.  At
    rank r, the first two forms leave an r x r upper triangle.  Every form
    keeps the places already split off (row and column zero but for the
    diagonal), and at the first place k that is not, each form's pivot
    divides the last one's: within two forms it is strictly smaller or
    place k splits off.  So the alternation ends.  Then, while some d_i does
    not divide a later d_j, row j is added to row i and the alternation
    resumes: the column form puts gcd(d_i, d_j) < d_i at place i and keeps
    the places before i, so the diagonal falls lexicographically and the
    loop ends.
    """
    a = list(mat)
    m = len(a)
    n = len(a[0]) if m else 0
    u, vt = list(identity_matrix(m)), identity_matrix(n)
    while True:
        at, vt = _echelon_split([[r[j] for r in a] for j in range(n)], vt, m)
        a, u = _echelon_split([[r[i] for r in at] for i in range(m)], u, n)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            continue
        d = [a[i][i] for i in range(min(m, n))]
        bad = next(((i, j) for i, x in enumerate(d) for j in range(i + 1, len(d))
                    if x and d[j] % x), None)
        if bad is None:
            return tuple(u), tuple(a), tuple(zip(*vt))
        i, j = bad
        a[i] = [x + y for x, y in zip(a[i], a[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]


def kernel_basis(mat, n):
    """Primitive integer basis of {x : mat @ x == 0} (right kernel) for a
    matrix with n columns; a matrix with no rows has all of Z^n.  The rows
    [mat^T | I_n] span the vectors [mat x | x]: the echelon rows with their
    pivot in the I_n block span those with mat x = 0, so the whole kernel."""
    m = len(mat)
    lat = EchelonLattice(m + n, [tuple(row[j] for row in mat) + e
                                 for j, e in enumerate(identity_matrix(n))])
    return tuple(dense(lat.pivot_rows[p], m + n)[m:] for p in sorted(lat.pivot_rows) if p >= m)
