"""Symmetric integer bilinear forms and integer normal forms, in plain
integers only: signatures come from fraction-free symmetric elimination,
never from floating-point eigenvalues, so every reported number is an
identity.  A pairing applies the Gram matrix to a vector once, then dots.
Sublattices are sparse Hermite rows up to the document that carries them."""

import itertools
from operator import mul

from . import _linalg
from ._linalg import Frozen, gcd_all, kernel_basis, mat_vec

# read only by perfbench's tracer self-check; it goes with the by-name tracer
smith_normal_form = _linalg.smith_normal_form

# enumerate_pattern holds its whole box in memory; the paper's patterns need
# boxes of 121 and 343 vectors, and this admits rank 3 up to bound 22.
MAX_BOX_VECTORS = 100000


def _dot(u, v):
    return sum(map(mul, u, v))


class SublatticeBasis(Frozen):
    """A sublattice of Z^dim, stored as its canonical Hermite basis: sparse
    rows keyed by increasing pivot; ``rows`` densifies them on demand, and
    ``sparse_rows`` hands them to a document as they are, so they are
    written dense only by ``schemas.write``, one row at a time."""

    __slots__ = ("dim", "_pivots")

    def __init__(self, dim, vectors):
        self._init(dim=int(dim), _pivots=_linalg.EchelonLattice(int(dim), vectors).hermite())

    @classmethod
    def _from_hermite(cls, dim, pivots):
        """Wrap a Hermite basis ``{pivot: sparse row}`` as is, unchecked."""
        self = object.__new__(cls)
        self._init(dim=int(dim), _pivots=pivots)
        return self

    def _key(self):
        return (self.dim, tuple(tuple(sorted(r.items())) for r in self._pivots.values()))

    @property
    def rows(self):
        return tuple(_linalg.dense(r, self.dim) for r in self._pivots.values())

    @property
    def sparse_rows(self):
        """The rows as they are kept, for a document (see ``SparseRows``)."""
        return _linalg.SparseRows(self.dim, self._pivots.values())

    @property
    def rank(self):
        return len(self._pivots)

    def member(self, vec):
        return not _linalg.residue(self._pivots, vec)

    def scaled(self, k):
        """k times the lattice, k >= 0: k times a Hermite row is still in
        Hermite form, and k = 0 gives the zero lattice, with no rows.  At
        k = 1 it is the basis itself, an immutable value, not a copy."""
        if k == 1:
            return self
        rows = {j: {c: k * x for c, x in r.items()} for j, r in self._pivots.items()} if k else {}
        return SublatticeBasis._from_hermite(self.dim, rows)

    def content(self):
        """Largest d with the lattice inside d * Z^dim; 0 for the zero lattice."""
        return gcd_all(x for row in self._pivots.values() for x in row.values())

    def __repr__(self):
        return "SublatticeBasis(dim=%d, rank=%d)" % (self.dim, self.rank)


class IntLattice(Frozen):
    """A free Z-module with a symmetric integer Gram matrix."""

    __slots__ = ("gram",)

    def __init__(self, gram):
        gram = tuple(tuple(int(x) for x in r) for r in gram)
        n = len(gram)
        if any(len(r) != n for r in gram):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        self._init(gram=gram)

    def _key(self):
        return self.gram

    @property
    def rank(self):
        return len(self.gram)

    def determinant(self):
        return _eliminate(self.gram)[2]

    def __repr__(self):
        return "IntLattice(%r)" % ([list(r) for r in self.gram],)


def signature(lattice):
    """Inertia (b_plus, b_minus, b_zero) of the rational quadratic form."""
    minus, zero, _ = _eliminate(lattice.gram)
    return lattice.rank - minus - zero, minus, zero


def _eliminate(gram):
    """(b_minus, b_zero, determinant) of a symmetric integer Gram matrix.

    Fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968), in
    integers only.  Each step takes a pivot d with a[d][d] != 0 from the
    trailing block and sets a[i][k] = (a[i][k] p - a[i][d] a[d][k]) // prev
    for the remaining i, k, then prev = p.  By Sylvester's identity every
    trailing entry is a minor of the input (so each division is exact) and
    equals prev times the Schur complement of the pivots eliminated so far,
    prev being their principal minor.  The congruence diagonal entry of the
    step is p / prev, so its sign is + iff sign(p) == sign(prev).  When the
    trailing diagonal is all zero but some a[i][j] is not, adding row j to
    row i and column j to column i makes a[i][i] = 2 a[i][j] != 0; that is a
    unimodular congruence on trailing indices only, which keeps both
    invariants.  A trailing block with no nonzero entry is the radical.
    Taking a pivot and the pair step keep the determinant, so it is the last
    pivot's minor ``prev`` (1 for rank 0), or 0 when the radical is nonzero.
    """
    a = [list(row) for row in gram]
    minus, prev = 0, 1
    while a:
        d = next((i for i, row in enumerate(a) if row[i]), None)
        if d is None:
            pair = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), None)
            if pair is None:
                break
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            d = i
        pivot_row = a.pop(d)
        p = pivot_row.pop(d)
        minus += (p > 0) != (prev > 0)
        col = [row.pop(d) for row in a]
        a = [[(x * p - f * y) // prev for x, y in zip(row, pivot_row)] for f, row in zip(col, a)]
        prev = p
    return minus, len(a), 0 if a else prev


def parity(lattice):
    """"even" iff every vector has even square; decided on the given basis.

    Q(x, x) = sum_i x_i^2 Q_ii + 2 sum_{i<j} x_i x_j Q_ij, so evenness of all
    diagonal entries decides, and is independent of the choice of basis.
    """
    return "even" if all(lattice.gram[i][i] % 2 == 0 for i in range(lattice.rank)) else "odd"


def orthogonal_complement(lattice, classes):
    """Orthogonal complement of the span of ``classes``.

    The classes must span a unimodular sublattice (Gram determinant +-1);
    then ambient = span (+) complement as an orthogonal direct sum, which is
    re-verified by rank and determinant bookkeeping.  Returns the complement
    basis in ambient coordinates and its induced Gram matrix.
    """
    classes = [tuple(int(x) for x in c) for c in classes]
    n = lattice.rank
    # G c once per class: its dot products are the span Gram and the kernel rows
    pair_rows = [mat_vec(lattice.gram, c) for c in classes]
    span_gram = [[_dot(gc, v) for v in classes] for gc in pair_rows]
    d = _eliminate(span_gram)[2]
    if d not in (1, -1):
        raise ValueError(
            "the given classes span a sublattice of Gram determinant %d, not +-1" % d
        )
    basis = SublatticeBasis(n, kernel_basis(pair_rows, n))
    comp = basis.rows
    comp_pair = [mat_vec(lattice.gram, u) for u in comp]
    comp_gram = [[_dot(gu, v) for v in comp] for gu in comp_pair]
    if len(comp) + len(classes) != n:
        raise AssertionError("rank bookkeeping failed for the orthogonal splitting")
    if abs(_eliminate(comp_gram)[2]) * abs(d) != abs(lattice.determinant()):
        raise AssertionError("determinant bookkeeping failed for the orthogonal splitting")
    if any(_dot(gu, c) for gu in comp_pair for c in classes):
        raise AssertionError("complement vector pairs nontrivially with a class")
    return basis, IntLattice(comp_gram)


def enumerate_pattern(lattice, pattern, bound):
    """All tuples of vectors in the coefficient box realizing a Gram pattern.

    ``pattern`` is the m x m target Gram matrix of the tuple.  The search is
    complete within the box [-bound, bound]^rank per vector and the output
    is in deterministic lexicographic order.  Completeness holds for the box
    only; callers must label results accordingly.  A box above
    ``MAX_BOX_VECTORS`` vectors raises ValueError before it is built.
    """
    bound = int(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    pattern = [list(map(int, row)) for row in pattern]
    m = len(pattern)
    n = lattice.rank
    if (2 * bound + 1) ** n > MAX_BOX_VECTORS:
        raise ValueError("bound %d: box [-bound, bound]^%d exceeds MAX_BOX_VECTORS = %d"
                         % (bound, n, MAX_BOX_VECTORS))
    rng = range(-bound, bound + 1)
    # G v once per box vector; each level scans only the vectors of its square
    # (a vector whose square no level wants goes to a throwaway list)
    by_square = {pattern[i][i]: [] for i in range(m)}
    for v in itertools.product(rng, repeat=n):
        gv = mat_vec(lattice.gram, v)
        by_square.get(_dot(gv, v), []).append((v, gv))

    results = []

    def extend(chosen):
        i = len(chosen)
        if i == m:
            results.append(tuple(v for v, _ in chosen))
            return
        for v, gv in by_square[pattern[i][i]]:
            if all(_dot(gu, v) == pattern[j][i] for j, (_, gu) in enumerate(chosen)):
                extend(chosen + [(v, gv)])

    extend([])
    out = sorted(results)
    # a Gram pattern is insensitive to global negation, so the output must be too
    found = set(out)
    for tup in out:
        neg = tuple(tuple(-x for x in v) for v in tup)
        if neg not in found:
            raise AssertionError("enumeration output not closed under global negation")
    return out
