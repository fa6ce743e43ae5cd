"""Dense reference implementations kept only to check the package against.

``DenseEchelonLattice`` is the row reduction ``_linalg.EchelonLattice`` used
before its rows went sparse: the same gcd exchanges and the same canonical
Hermite reduction, on dense lists.  ``fraction_signature`` is the rational
diagonalization ``lattices.signature`` used before it went fraction-free.
The differential tests compare each pair on every public result.
"""

from fractions import Fraction

from monolab._linalg import xgcd


def fraction_signature(gram):
    """Inertia (b_plus, b_minus, b_zero) by congruence diagonalization over Q."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
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


class DenseEchelonLattice:
    """A sublattice of Z^dim kept as a dense integer row-echelon basis."""

    def __init__(self, dim, rows=()):
        self.dim = dim
        self.pivot_rows = {}
        for r in rows:
            self.insert(r)

    @property
    def rank(self):
        return len(self.pivot_rows)

    def _leading(self, v, start=0):
        for j in range(start, self.dim):
            if v[j]:
                return j
        return None

    def reduce(self, vec):
        """Residue of vec after reduction against the current basis."""
        v = list(vec)
        j = self._leading(v)
        while j is not None:
            row = self.pivot_rows.get(j)
            if row is None:
                return v
            q = v[j] // row[j]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
            if v[j]:
                return v
            j = self._leading(v, j + 1)
        return v

    def insert(self, vec):
        """Add vec to the lattice; True iff the lattice grew."""
        v = list(vec)
        changed = False
        j = self._leading(v)
        while j is not None:
            row = self.pivot_rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = [-x for x in v]
                self.pivot_rows[j] = v
                return True
            a, b = v[j], row[j]
            if a % b == 0:
                q = a // b
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, x, y = xgcd(b, a)
                new_row = [x * r + y * w for r, w in zip(row, v)]
                v = [(b // g) * w - (a // g) * r for r, w in zip(row, v)]
                self.pivot_rows[j] = new_row
                changed = True
            j = self._leading(v, j + 1)
        return changed

    def member(self, vec):
        return not any(self.reduce(vec))

    def hnf_rows(self):
        cols = sorted(self.pivot_rows)
        rows = [list(self.pivot_rows[c]) for c in cols]
        for i in range(len(rows)):
            p = rows[i][cols[i]]
            for k in range(i):
                q = rows[k][cols[i]] // p
                if q:
                    rows[k] = [x - q * y for x, y in zip(rows[k], rows[i])]
        return tuple(tuple(r) for r in rows)
