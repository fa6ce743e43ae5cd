"""Symmetric integer bilinear forms and integer normal forms.

Signatures are computed by exact rational diagonalization, never by
floating-point eigenvalues, so every reported number is an identity.
"""

import itertools
from fractions import Fraction

from . import _linalg
from ._linalg import Frozen, det, gcd_all, kernel_basis, mat_vec

smith_normal_form = _linalg.smith_normal_form

# enumerate_pattern holds its whole box in memory; the paper's patterns need
# boxes of 121 and 343 vectors, and this admits rank 3 up to bound 22.
MAX_BOX_VECTORS = 100000


class SublatticeBasis(Frozen):
    """A sublattice of Z^dim, stored as its canonical Hermite basis: sparse
    rows keyed by increasing pivot; ``rows`` densifies them on demand."""

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
    def rank(self):
        return len(self._pivots)

    def member(self, vec):
        return not _linalg.residue(self._pivots, vec)

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

    def pairing(self, u, v):
        return sum(u[i] * self.gram[i][j] * v[j] for i in range(self.rank) for j in range(self.rank))

    def determinant(self):
        return det(self.gram)

    def direct_sum(self, other):
        n, m = self.rank, other.rank
        rows = []
        for i in range(n):
            rows.append(tuple(self.gram[i]) + (0,) * m)
        for i in range(m):
            rows.append((0,) * n + tuple(other.gram[i]))
        return IntLattice(rows)

    def __repr__(self):
        return "IntLattice(%r)" % ([list(r) for r in self.gram],)


def signature(lattice):
    """Inertia (b_plus, b_minus, b_zero) of the rational quadratic form."""
    n = lattice.rank
    a = [[Fraction(x) for x in row] for row in lattice.gram]
    plus = minus = zero = 0
    idx = list(range(n))
    while idx:
        # find a nonzero diagonal entry, creating one if only off-diagonal remain
        d = next((i for i in idx if a[i][i] != 0), None)
        if d is None:
            pair = None
            for i in idx:
                for j in idx:
                    if i != j and a[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                zero += len(idx)
                break
            i, j = pair
            # row/col i += row/col j makes a[i][i] = 2 a[i][j] != 0
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            d = i
        p = a[d][d]
        if p > 0:
            plus += 1
        else:
            minus += 1
        idx.remove(d)
        for i in idx:
            f = a[i][d] / p
            if f:
                for k in range(n):
                    a[i][k] -= f * a[d][k]
                for k in range(n):
                    a[k][i] -= f * a[k][d]
    return plus, minus, zero


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
    k = len(classes)
    span_gram = [[lattice.pairing(u, v) for v in classes] for u in classes]
    d = det(span_gram)
    if d not in (1, -1):
        raise ValueError(
            "the given classes span a sublattice of Gram determinant %d, not +-1" % d
        )
    # complement = integer kernel of the pairing matrix (classes x ambient)
    pair_rows = [mat_vec(lattice.gram, c) for c in classes]
    basis = SublatticeBasis(n, kernel_basis(pair_rows, n))
    comp = basis.rows
    comp_gram = [[lattice.pairing(u, v) for v in comp] for u in comp]
    if len(comp) + k != n:
        raise AssertionError("rank bookkeeping failed for the orthogonal splitting")
    if abs(det(comp_gram)) * abs(d) != abs(lattice.determinant()):
        raise AssertionError("determinant bookkeeping failed for the orthogonal splitting")
    for u in comp:
        for c in classes:
            if lattice.pairing(u, c) != 0:
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
    vectors = list(itertools.product(rng, repeat=n))

    results = []

    def extend(chosen):
        i = len(chosen)
        if i == m:
            results.append(tuple(chosen))
            return
        for v in vectors:
            if lattice.pairing(v, v) != pattern[i][i]:
                continue
            ok = True
            for j, u in enumerate(chosen):
                if lattice.pairing(u, v) != pattern[j][i]:
                    ok = False
                    break
            if ok:
                extend(chosen + [v])

    extend([])
    out = sorted(results)
    # a Gram pattern is insensitive to global negation, so the output must be too
    found = set(out)
    for tup in out:
        neg = tuple(tuple(-x for x in v) for v in tup)
        if neg not in found:
            raise AssertionError("enumeration output not closed under global negation")
    return out
