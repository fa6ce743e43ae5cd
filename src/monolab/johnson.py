"""The Johnson invariant of Torelli words built from bounding-pair maps.

Let H be the homology of the genus-G surface.  This module models the third
exterior power of H, the embedding of H given by wedging with the symplectic
form, and the quotient (wedge^3 H)/H in which the Johnson invariant of a
Torelli mapping class lives.

Basis bookkeeping.  Wedge coordinates use the *interleaved* ordering
gamma_1 = a_1, gamma_2 = b_1, gamma_3 = a_2, ..., gamma_{2G} = b_G, which
differs from the a-block-then-b-block ordering of HomologyClass; a single
fixed permutation converts at this module's boundary and nowhere else.
Triples gamma_i ^ gamma_j ^ gamma_k with i < j < k run in lexicographic
order.  The quotient is coordinatized by the triples that remain after
discarding

    (i, 2G-1, 2G) for 1 <= i <= 2G-2,   (1, 2, 2G-1),   (1, 2, 2G)

(1-based), which form a genuine Z-basis of the quotient; each discarded
triple rewrites as a signed sum of the retained ones.  gcd computations in
the retained basis therefore mean what they say (primitivity, content).

A Torelli word is given to tau as an explicit product of conjugated
bounding-pair maps.  No attempt is made to evaluate tau on a raw twist
word: deciding whether a word is Torelli and presenting it by bounding
pairs is the caller's job.

tau is computed by transport (Johnson's equivariance, see ``tau_word``):
each factor's bounding-pair vectors are moved through its conjugator one
letter at a time, and the moved data is wedged sparsely, with no symplectic
matrix and no dense wedge per factor (``_tau_sum``).  The dense ``wedge3``
and ``reduce_to_quotient`` stay for closed forms (the family witness) and
the tests.  The quotient action is built only for twist letters (seeds,
checked against transport of each literal commutator word; saturate;
replay), factored as T_c^p = I + D, D = p W_c o iota_s: contract by
s = ``homology.dual(c)``, wedge with c, project.  D^2 = 0, as
s.c = <c, c> = 0 and c ^ c = 0, so T^-1 = I - D.  ``sp_action_quotient``
(3x3 minors) is the tests' oracle.

``distinguish`` saturates once, at parameter 1, and scales the result;
no lattice is kept between calls.

Two sparse kernels keep the wedge bookkeeping: ``_wedge_pair`` adds a
multiple of vec ^ gamma_p ^ gamma_q (for the rewrite table, the pair
columns of W_c and tau) and ``_project`` maps wedge coefficients to the
retained basis (for ``reduce_to_quotient``, the pair columns and tau).
"""

import collections
import functools
import itertools

from . import _linalg
from ._linalg import Frozen, IntVector
from .homology import (
    GenusMismatchError, HomologyClass, dual, intersection, is_primitive, twist_coords,
)
from .lattices import SublatticeBasis
from .words import TwistLetter, Word

# read only by perfbench's tracer self-check; it goes with the by-name tracer
from .words import sp_image  # noqa: F401


class SaturationBudgetError(RuntimeError):
    """The closure loop exceeded its step budget (guards implementation bugs)."""


# --------------------------------------------------------------------------
# index bookkeeping, cached per genus


# The quotient, and the lattice rows saturated in it, have C(2G, 3) - 2G
# coordinates: 1120 at G = 10, 2000 at G = 12, 1313200 at schemas.MAX_GENUS.
# 12 admits every desk-scale input.  The closure makes about growths x
# letters insert attempts, each one D application and one reduction against
# rows kept reduced: at G = 12, 2615 attempts and 248 growths to rank 195 for
# mck g = 6 (13 letters), 48024 attempts to rank 2000 = dim for chain g = 12
# (24 letters).  Measured through the CLI, one process per job on a shared
# 2-CPU machine (Python 3.11), min of 5, `distinguish --n 1 --m 3
# --deep-check` takes 0.27 s and 15.2 MB max RSS for mck g = 5 (G = 10, with
# --json), 0.55 s and 16.3 MB for mck g = 6 (G = 12), and 0.53 s and 17.5 MB
# for chain g = 12 with --json, whose 56 MB document streams out.
MAX_QUOTIENT_GENUS = 12


@functools.cache
def _table(genus):
    return _BasisTable(genus)


class _BasisTable:
    def __init__(self, genus):
        if genus < 2:
            raise ValueError("the quotient construction needs genus >= 2")
        if genus > MAX_QUOTIENT_GENUS:
            raise ValueError("the quotient construction at genus %d exceeds "
                             "MAX_QUOTIENT_GENUS = %d" % (genus, MAX_QUOTIENT_GENUS))
        self.genus = genus
        n = 2 * genus
        self.n = n
        # gamma index (0-based) -> standard coordinate index in HomologyClass
        self.perm = tuple(
            (j // 2) if j % 2 == 0 else (genus + j // 2) for j in range(n)
        )
        self.triples = tuple(itertools.combinations(range(n), 3))
        self.triple_index = {t: i for i, t in enumerate(self.triples)}
        excluded = set()
        for i in range(n - 2):
            excluded.add((i, n - 2, n - 1))
        excluded.add((0, 1, n - 2))
        excluded.add((0, 1, n - 1))
        self.retained = tuple(t for t in self.triples if t not in excluded)
        self.retained_index = {t: i for i, t in enumerate(self.retained)}
        self.dim_wedge = len(self.triples)
        self.dim_quot = len(self.retained)
        self.expansions = self._rewrite_table(excluded)

    def _rewrite_table(self, excluded):
        """Each discarded triple as a sum of retained triples in the quotient.

        A discarded t = gamma_x ^ gamma_p ^ gamma_q equals t - omega ^ gamma_x
        there (omega = sum_j gamma_{2j} ^ gamma_{2j+1}, the form that embeds
        H), and omega ^ gamma_x holds t itself, so t cancels and only
        retained triples are left."""
        n = self.n
        table = {}
        for t in excluded:
            x = t[0] if t[1:] == (n - 2, n - 1) else t[2]
            terms = {t: 1}
            for j in range(self.genus):
                _wedge_pair(terms, ((x, 1),), 2 * j, 2 * j + 1, -1)
            terms = sorted((trip, c) for trip, c in terms.items() if c)
            if any(trip not in self.retained_index for trip, _ in terms):
                raise AssertionError("rewrite escaped the retained basis")
            table[t] = tuple((self.retained_index[trip], c) for trip, c in terms)
        return table


def _sort_triple(i, j, k):
    """Sign and sorted triple for gamma_i ^ gamma_j ^ gamma_k; (0, None) if repeated."""
    if i == j or j == k or i == k:
        return 0, None
    sign = 1
    a, b, c = i, j, k
    if a > b:
        a, b, sign = b, a, -sign
    if b > c:
        b, c, sign = c, b, -sign
    if a > b:
        a, b, sign = b, a, -sign
    return sign, (a, b, c)


def _wedge_pair(acc, vec, p, q, coef):
    """acc += coef * (vec ^ gamma_p ^ gamma_q).  ``vec`` is given by its
    nonzero (gamma index, value) pairs and ``acc`` maps sorted triples to
    coefficients."""
    for m, v in vec:
        sign, trip = _sort_triple(m, p, q)
        if sign:
            acc[trip] = acc.get(trip, 0) + sign * coef * v


def _project(tab, terms):
    """The quotient image of sum coef * triple over the (triple, coef) pairs
    ``terms``, as a ``{col: value}`` dict in the retained basis: a retained
    triple is its own column, a discarded one its rewrite."""
    out = {}
    for trip, coef in terms:
        ret = tab.retained_index.get(trip)
        if ret is not None:
            out[ret] = out.get(ret, 0) + coef
        else:
            for r, c in tab.expansions[trip]:
                out[r] = out.get(r, 0) + coef * c
    return out


# --------------------------------------------------------------------------
# wedge and quotient vectors


class Wedge3(IntVector):
    """An element of the third exterior power, in gamma-triple coordinates."""

    __slots__ = ()
    _dim_error = "expected %(dim)d wedge coordinates, got %(got)d"

    @staticmethod
    def _dim(genus):
        return _table(genus).dim_wedge

    def _check(self, other):
        if not isinstance(other, Wedge3) or other.genus != self.genus:
            raise GenusMismatchError("wedge arguments must share a genus")

    def __repr__(self):
        return "Wedge3(genus=%d, nnz=%d)" % (self.genus, sum(1 for c in self.coords if c))


class QuotientClass(IntVector):
    """An element of (wedge^3 H)/H in the retained-triple basis.  That is a
    true Z-basis, so ``homology.is_primitive`` is basis-independent here."""

    __slots__ = ()
    _dim_error = "expected %(dim)d quotient coordinates, got %(got)d"

    @staticmethod
    def _dim(genus):
        return _table(genus).dim_quot

    def _check(self, other):
        if not isinstance(other, QuotientClass) or other.genus != self.genus:
            raise GenusMismatchError("quotient arguments must share a genus")

    def __repr__(self):
        return "QuotientClass(genus=%d, nnz=%d)" % (
            self.genus,
            sum(1 for c in self.coords if c),
        )

    def labelled(self):
        """Nonzero coordinates with their triple labels, for reports."""
        tab = _table(self.genus)
        names = []
        for trip, c in zip(tab.retained, self.coords):
            if c:
                names.append(("g%d^g%d^g%d" % (trip[0] + 1, trip[1] + 1, trip[2] + 1), c))
        return names


def _gamma_coords(c):
    tab = _table(c.genus)
    return tuple(c.coords[tab.perm[j]] for j in range(tab.n))


def wedge3(c1, c2, c3):
    """The wedge product of three homology classes."""
    if not (c1.genus == c2.genus == c3.genus):
        raise GenusMismatchError("wedge arguments must share a genus")
    tab = _table(c1.genus)
    g1, g2, g3 = _gamma_coords(c1), _gamma_coords(c2), _gamma_coords(c3)
    out = [0] * tab.dim_wedge
    for idx, (i, j, k) in enumerate(tab.triples):
        out[idx] = (
            g1[i] * (g2[j] * g3[k] - g2[k] * g3[j])
            - g1[j] * (g2[i] * g3[k] - g2[k] * g3[i])
            + g1[k] * (g2[i] * g3[j] - g2[j] * g3[i])
        )
    return Wedge3(c1.genus, out)


def reduce_to_quotient(w):
    """Project a wedge element to the quotient in the retained basis."""
    tab = _table(w.genus)
    img = _project(tab, ((trip, c) for trip, c in zip(tab.triples, w.coords) if c))
    return QuotientClass(w.genus, [img.get(r, 0) for r in range(tab.dim_quot)])


# --------------------------------------------------------------------------
# the induced symplectic action


def _gamma_matrix(m):
    tab = _table(m.genus)
    perm = tab.perm
    return [[m.rows[perm[i]][perm[j]] for j in range(tab.n)] for i in range(tab.n)]


def _minor3(mat, rows, cols):
    i, j, k = rows
    p, q, r = cols
    return (
        mat[i][p] * (mat[j][q] * mat[k][r] - mat[j][r] * mat[k][q])
        - mat[i][q] * (mat[j][p] * mat[k][r] - mat[j][r] * mat[k][p])
        + mat[i][r] * (mat[j][p] * mat[k][q] - mat[j][q] * mat[k][p])
    )


def sp_action_wedge(m, w):
    """Induced action of a symplectic map on the third exterior power."""
    if m.genus != w.genus:
        raise GenusMismatchError("map and wedge genus differ")
    tab = _table(w.genus)
    mg = _gamma_matrix(m)
    cols = {}
    for idx, c in enumerate(w.coords):
        if c:
            cols[tab.triples[idx]] = c
    out = [0] * tab.dim_wedge
    for t_idx, trip in enumerate(tab.triples):
        acc = 0
        for src, c in cols.items():
            acc += c * _minor3(mg, trip, src)
        out[t_idx] = acc
    return Wedge3(w.genus, out)


def sp_action_quotient(m, q):
    """The action on the quotient by the wedge action on q's retained-triple
    lift; well defined because the embedding of H is equivariant (a
    symplectic map fixes the form used to wedge).  The tests' oracle."""
    if m.genus != q.genus:
        raise GenusMismatchError("map and class genus differ")
    tab = _table(q.genus)
    lift = [0] * tab.dim_wedge
    for trip, c in zip(tab.retained, q.coords):
        lift[tab.triple_index[trip]] = c
    return reduce_to_quotient(sp_action_wedge(m, Wedge3(q.genus, lift)))


class _TwistDelta(dict):
    """D = T_c^p - I on the quotient: T_c^p = I + c (p s)^T, s = ``dual(c)``,
    and c ^ c = 0, so D t = p c ^ iota_s(t) on a triple t.  A call first
    contracts the lift of v to the 2-form p iota_s(v), keyed by pair index
    a n + b (a < b), then applies W_c, which sends gamma_a ^ gamma_b to the
    projected c ^ gamma_a ^ gamma_b.  The operator is its own table of those
    pair columns, each built on first use and kept as two flat tuples, its
    rows and its coefficients (``()`` when it is zero): at most n(n - 1)/2,
    none for a separating letter (s = 0).  Build one per call; nothing
    outlives it."""

    __slots__ = ("tab", "c", "s")

    def __init__(self, genus, coords, power):
        tab = self.tab = _table(genus)
        s = dict(dual(coords))
        self.s = [power * s.get(i, 0) for i in tab.perm]
        self.c = tuple((m, coords[i]) for m, i in enumerate(tab.perm) if coords[i])

    def __missing__(self, key):
        acc = {}
        _wedge_pair(acc, self.c, *divmod(key, self.tab.n), 1)
        col = sorted(x for x in _project(self.tab, acc.items()).items() if x[1])
        col = self[key] = tuple(zip(*col))
        return col

    def __call__(self, vec):
        """D vec, for a vector given and returned as a ``{col: value}`` dict
        of its nonzeros."""
        n, s, retained, form = self.tab.n, self.s, self.tab.retained, {}
        for idx, x in vec.items():
            i, j, k = retained[idx]
            if t := s[i]:
                key = j * n + k
                form[key] = form.get(key, 0) + t * x
            if t := s[j]:
                key = i * n + k
                form[key] = form.get(key, 0) - t * x
            if t := s[k]:
                key = i * n + j
                form[key] = form.get(key, 0) + t * x
        img = {}
        for key, y in form.items():
            if y:
                for r, a in zip(*self[key]):
                    img[r] = img.get(r, 0) + a * y
        return {r: x for r, x in img.items() if x}


def _letter_deltas(letters, genus):
    """The ``_TwistDelta`` of each nonseparating letter, each built as it is
    reached; separating letters act as the identity.  An inverse needs no
    operator: T = I + D, and D^2 = 0 (D = p W_c o iota_s, see
    ``_TwistDelta``; iota_s(c ^ w) = (s.c) w - c ^ iota_s(w) with
    s.c = <c, c> = 0, and c ^ c = 0), so T^-1 = I - D and a lattice is
    stable under T^-1 iff under T, iff D maps it into itself."""
    for letter in letters:
        if letter.genus != genus:
            raise GenusMismatchError("action generator genus differs from seeds")
        if not letter.curve.is_zero():
            yield _TwistDelta(genus, letter.curve.coords, letter.power)


# --------------------------------------------------------------------------
# Torelli words from bounding pairs


class BoundingPairGen(Frozen):
    """A bounding-pair map T_x T_y^{-1} presented by homology data.

    ``cls`` is the common (primitive) class of the two curves; ``side_basis``
    lists symplectic pairs spanning the homology of the subsurface the pair
    cuts off.  The pairing constraints are checked so that the Johnson value
    below is the one attached to this presentation.
    """

    __slots__ = ("cls", "side_basis")

    def __init__(self, cls, side_basis):
        if not isinstance(cls, HomologyClass):
            raise TypeError("cls must be a HomologyClass")
        if cls.is_zero() or not is_primitive(cls):
            raise ValueError("the common class of a bounding pair must be primitive")
        side = tuple((a, b) for a, b in side_basis)
        flat = [v for ab in side for v in ab]
        for v in flat:
            if v.genus != cls.genus:
                raise GenusMismatchError("side basis genus differs from cls")
        for idx, (a, b) in enumerate(side):
            if intersection(a, b) != 1:
                raise ValueError("side pair %d is not a symplectic pair" % idx)
        for i, u in enumerate(flat):
            if intersection(u, cls) != 0:
                raise ValueError("side vector %d pairs nontrivially with cls" % i)
            for j, v in enumerate(flat):
                if j <= i or {i, j} == {2 * (i // 2), 2 * (i // 2) + 1}:
                    continue
                if intersection(u, v) != 0:
                    raise ValueError("side vectors %d and %d are not orthogonal" % (i, j))
        self._init(cls=cls, side_basis=side)

    def _key(self):
        return (self.cls, self.side_basis)

    @property
    def genus(self):
        return self.cls.genus


def tau_bounding_pair(gen):
    """Johnson value of the bounding-pair map: (sum_j alpha_j ^ beta_j) ^ cls."""
    return _tau_sum(gen.genus, ((Word((), gen.genus), gen, 1),))


def _tau_sum(genus, factors):
    """sum e * w_* tau(gen) over the factors (w, gen, e), by transport.

    Each factor's vectors, cls and its side pairs, are moved through w one
    letter at a time by ``twist_coords``, rightmost letter first (a
    separating letter acts as the identity); no matrix is built.  The moved
    side pairs give the 2-form e sum_j alpha_j ^ beta_j, keyed by pair index
    p n + q (p < q), and each of its terms adds e f cls ^ gamma_p ^ gamma_q
    through ``_wedge_pair`` to one triple dict, projected once at the end."""
    tab = _table(genus)
    n, perm, acc = tab.n, tab.perm, {}
    for w, gen, e in factors:
        if not e:
            continue
        moves = [(l.curve.coords, l.power) for l in reversed(w.letters) if not l.separating]

        def moved(v):
            x = v.coords
            for c, p in moves:
                x = twist_coords(c, p, x)
            return [(m, x[i]) for m, i in enumerate(perm) if x[i]]

        form = {}
        for a, b in gen.side_basis:
            b = moved(b)
            for p, x in moved(a):
                for q, y in b:
                    if p < q:
                        form[p * n + q] = form.get(p * n + q, 0) + e * x * y
                    elif q < p:
                        form[q * n + p] = form.get(q * n + p, 0) - e * x * y
        cls = moved(gen.cls)
        for key, f in form.items():
            if f:
                _wedge_pair(acc, cls, *divmod(key, n), f)
    img = _project(tab, acc.items())
    return QuotientClass(genus, [img.get(r, 0) for r in range(tab.dim_quot)])


class TorelliWord(Frozen):
    """An ordered product of conjugated powers of bounding-pair maps.

    Factors are (conjugator word, generator, exponent); the represented
    mapping class is Torelli by construction.
    """

    __slots__ = ("genus", "factors")

    def __init__(self, factors, genus=None):
        factors = tuple((w, g, int(e)) for (w, g, e) in factors)
        if genus is None:
            if not factors:
                raise ValueError("an empty Torelli word needs an explicit genus")
            genus = factors[0][1].genus
        for w, g, _ in factors:
            if w.genus != genus or g.genus != genus:
                raise GenusMismatchError("factor genus differs from word genus")
        self._init(genus=int(genus), factors=factors)

    def __mul__(self, other):
        if other.genus != self.genus:
            raise GenusMismatchError("cannot concatenate Torelli words of different genus")
        return TorelliWord(self.factors + other.factors, self.genus)

    def power(self, n):
        n = int(n)
        if n == 0:
            return TorelliWord((), self.genus)
        if n > 0:
            return TorelliWord(self.factors * n, self.genus)
        inv = tuple((w, g, -e) for (w, g, e) in reversed(self.factors))
        return TorelliWord(inv * (-n), self.genus)

    def conjugated_by(self, word):
        """The Torelli word for (word) self (word)^{-1}."""
        if word.genus != self.genus:
            raise GenusMismatchError("conjugator genus differs")
        return TorelliWord(
            tuple((word * w, g, e) for (w, g, e) in self.factors), self.genus
        )

    def twist_word(self):
        """The literal twist word: each factor contributes w x^e w^{-1}."""
        out = Word((), self.genus)
        for w, g, e in self.factors:
            x = bounding_pair_word(g).power(e)
            out = out * w * x * w.inverse()
        return out

    def __repr__(self):
        return "TorelliWord(%d factors, genus=%d)" % (len(self.factors), self.genus)


def bounding_pair_word(gen):
    """The two-letter word T_x T_y^{-1}; both curves carry the class ``cls``."""
    return Word(
        (TwistLetter(gen.cls, 1), TwistLetter(gen.cls, -1)), gen.genus
    )


def tau_word(tw):
    """tau of a Torelli word, additive over factors.  By Johnson's
    equivariance tau(w x w^{-1}) = w_* tau(x) (Math. Ann. 249, 1980), a
    factor (w, gen, e) adds e * w_* tau_bounding_pair(gen), the wedge of the
    bounding pair's vectors moved through w (see ``_tau_sum``)."""
    return _tau_sum(tw.genus, tw.factors)


def commutator_tau(k, tw, n):
    """tau of the commutator [k^{-1}, tw^n] = k^{-1} tw^n k tw^{-n}.

    ``k`` is a plain twist word; the value is n * ( (k_*)^{-1} tau(tw) -
    tau(tw) ), with (k_*)^{-1} tau(tw) = tau(k^{-1} tw k), cross-checked against
    tau of the literal commutator built factor by factor.
    """
    if k.genus != tw.genus:
        raise GenusMismatchError("word and Torelli word genus differ")
    n = int(n)
    base = tau_word(tw)
    value = n * (tau_word(tw.conjugated_by(k.inverse())) - base)
    literal = tw.power(n).conjugated_by(k.inverse()) * tw.power(-n)
    if tau_word(literal) != value:
        raise AssertionError("commutator tau: formula and literal word disagree")
    return value


# --------------------------------------------------------------------------
# saturation and certificates


MAX_SATURATION_STEPS = 200000


def saturate(seeds, action_gens):
    """Smallest subgroup containing the seeds and stable under the twist
    letters ``action_gens`` and their inverses, as a Hermite basis.

    Each vector is tried as soon as it is made, and only growth is queued:
    if v grew the lattice L, ``insert`` hands back r = v - u with u in L,
    partly reduced and so sparser, and L + Zr = L + Zv, so the queued
    vectors span the lattice at every step.  Each queued r has (T - I) r
    tried for every letter T (in the lattice iff T r is), so the result is
    stable under every letter and, by ``_letter_deltas``, every inverse.
    Termination is guaranteed (ascending chains of subgroups of a
    finite-rank free abelian group stabilize); MAX_SATURATION_STEPS bounds
    the insert attempts, seeds included, and guards against implementation
    bugs only.  The letter operators and their pair columns are dropped
    before the Hermite pass, which shares every stored row that needs no
    further step; nothing is kept between calls.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    genus = seeds[0].genus
    if any(s.genus != genus for s in seeds):
        raise GenusMismatchError("seeds must share a genus")
    dim = _table(genus).dim_quot
    deltas = list(_letter_deltas(action_gens, genus))
    lat = _linalg.EchelonLattice(dim)
    grown = collections.deque()
    steps = 0

    def attempt(vec):
        nonlocal steps
        steps += 1
        if steps > MAX_SATURATION_STEPS:
            raise SaturationBudgetError(
                "saturation exceeded %d steps (johnson.MAX_SATURATION_STEPS)"
                % MAX_SATURATION_STEPS
            )
        if (r := lat.insert(vec)) is not None:
            grown.append(r)

    for s in seeds:
        attempt(s.coords)
    while grown:
        vec = grown.popleft()
        for delta in deltas:
            attempt(delta(vec))
    del deltas
    return SublatticeBasis._from_hermite(dim, lat.hermite())


class Certificate(Frozen):
    """A machine-checkable record that two family members differ.

    Everything in it is an exact integer statement about the saturated
    Johnson lattices of the two parameters.  The topological reading (the
    fibrations are inequivalent) additionally cites the standard facts
    recorded in ``cited``; the certificate never claims equivalence of
    anything.
    """

    __slots__ = (
        "family",
        "genus_param",
        "n",
        "m",
        "witness",
        "content_n",
        "content_m",
        "basis_n",
        "basis_m",
    )

    def __init__(self, family, genus_param, n, m, witness, content_n, content_m, basis_n, basis_m):
        self._init(family=family, genus_param=genus_param, n=n, m=m, witness=witness,
                   content_n=content_n, content_m=content_m, basis_n=basis_n, basis_m=basis_m)

    def as_dict(self):
        return {
            "family": self.family,
            "genus": self.genus_param,
            "n": self.n,
            "m": self.m,
            "witness_class": list(self.witness.coords),
            "witness_primitive": True,
            "content_n": self.content_n,
            "content_m": self.content_m,
            "basis_n": self.basis_n.sparse_rows,
            "basis_m": self.basis_m.sparse_rows,
            "computed": (
                "content of the saturated Johnson lattice is %d at parameter %d "
                "and %d at parameter %d; a conjugation of monodromy groups "
                "would carry one lattice onto the other and preserve content"
                % (self.content_n, self.n, self.content_m, self.m)
            ),
            "verdict": "inequivalent (Johnson-lattice contents differ)",
            "certification_level": (
                "exact integer computation at the symplectic/Johnson shadow; "
                "the topological reading cites the facts below"
            ),
            "cited": [
                "monodromy groups of equivalent fibrations are conjugate",
                "the Johnson invariant is equivariant for the symplectic action",
                "Torelli words of the untwisted family evaluate to zero",
            ],
        }


def distinguish(n, m, family):
    """Certificate that parameters n != m of a family are inequivalent.

    ``family`` provides ``seed_classes(n)``, ``action_generators()`` and
    ``witness_class()`` (a primitive class whose n-th multiple is a seed).
    For n == m no certificate exists and None is returned; equality of the
    fibrations is deliberately not claimed.

    One closure, at parameter 1, scaled by n and m: the closure commutes
    with scaling, and the seeds at k are k times the unit seeds (tau is a
    homomorphism on the Torelli group), as checked here for k = n, m.
    """
    n, m = int(n), int(m)
    if n < 0 or m < 0:
        raise ValueError("parameters must be nonnegative")
    if n == m:
        return None
    witness = family.witness_class()
    if not is_primitive(witness):
        raise AssertionError("family witness class is not primitive")
    unit_seeds = family.seed_classes(1)
    for k in (n, m):
        if family.seed_classes(k) != [k * s for s in unit_seeds]:
            raise AssertionError("seeds at %d are not %d times the unit seeds" % (k, k))
    unit = saturate(unit_seeds, family.action_generators())
    basis_n, basis_m = unit.scaled(n), unit.scaled(m)
    d_n, d_m = basis_n.content(), basis_m.content()
    if d_n == d_m:
        raise AssertionError(
            "saturated lattices share content %d; no divisibility certificate" % d_n
        )
    for scale, basis in ((n, basis_n), (m, basis_m)):
        target = tuple(scale * x for x in witness.coords)
        if any(target) and not basis.member(target):
            raise AssertionError("witness multiple missing from the saturated lattice")
    return Certificate(
        family.name, family.genus_param, n, m, witness, d_n, d_m, basis_n, basis_m
    )


def check_certificate(cert_dict, family, deep=True):
    """Replay a certificate from its serialized form, independently.

    Checks that each shipped basis is in Hermite form as shipped, recomputes
    the seeds, re-verifies every containment against the shipped bases,
    re-derives the contents by gcd, and re-checks the divisibility
    contradiction.  With ``deep=True`` it also re-verifies that each shipped
    lattice is stable under the family action: directly at n, building one
    letter operator at a time and dropping it before the next.  At m the
    verdict comes from the exact identity m * basis_n == n * basis_m, row
    by row with the same pivots (k times a Hermite form is the Hermite form
    of k L): then basis_m spans m/n times the lattice of basis_n, which the
    action keeps stable iff it keeps that one.  Where the identity fails,
    or basis_n is the zero lattice, m is checked directly too.  Returns the
    checks made.
    """
    n, m = int(cert_dict["n"]), int(cert_dict["m"])
    genus = family.surface_genus
    dim = _table(genus).dim_quot
    checks = []
    letters = family.action_generators() if deep else ()
    shipped = []

    def record(name, ok):
        checks.append((name, bool(ok)))
        if not ok:
            raise AssertionError("certificate replay failed at: " + name)

    def stable(basis, pivots):
        return all(all(basis.member(delta(row)) for row in pivots.values())
                   for delta in _letter_deltas(letters, genus))

    record("parameters differ", n != m)
    witness = QuotientClass(genus, cert_dict["witness_class"])
    record("witness primitive", is_primitive(witness))
    for param, key_b, key_c in ((n, "basis_n", "content_n"), (m, "basis_m", "content_m")):
        pivots = _linalg.hermite_pivots(cert_dict[key_b], dim)
        record("basis %d in Hermite form" % param, pivots is not None)
        basis = SublatticeBasis._from_hermite(dim, pivots)
        record("content matches at %d" % param, basis.content() == int(cert_dict[key_c]))
        record("all seeds contained at %d" % param,
               all(basis.member(s.coords) for s in family.seed_classes(param)))
        target = tuple(param * x for x in witness.coords)
        record("witness multiple contained at %d" % param,
               (not any(target)) or basis.member(target))
        if deep:
            # n != m here, so a nonzero basis_n that scales to basis_m has n != 0
            record("lattice stable under the action at %d" % param,
                   (shipped and _scales_to(n, shipped[0], m, pivots))
                   or stable(basis, pivots))
        shipped.append(pivots)
    record(
        "contents give the divisibility contradiction",
        int(cert_dict["content_n"]) != int(cert_dict["content_m"]),
    )
    return checks


def _scales_to(n, pivots_n, m, pivots_m):
    """True iff basis_n is not the zero lattice and m * basis_n == n * basis_m
    row by row, both given as ``{pivot: sparse row}`` with the same pivots."""
    return bool(pivots_n) and pivots_n.keys() == pivots_m.keys() and all(
        rn.keys() == rm.keys() and all(m * x == n * rm[c] for c, x in rn.items())
        for rn, rm in zip(pivots_n.values(), pivots_m.values()))
