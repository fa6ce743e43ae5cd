"""Concrete twist data: the genus-2g involution factorization, its Torelli
twists, and the chain-relation family.

``FamilySpec(kind, g)`` is the family: one validated ``CurveTable``, one
base word and one Torelli twist f, each derived value built once.  Member
n is the base with its first-acting prefix partially conjugated by f^n.  f
is the identity at Sp level (checked once), so every member's
factorization is the base, the members n > 0 share one spec, and n lives
only in the Johnson seeds tau([T_l^-1, f^n]) = n tau([T_l^-1, f]) (tau is
a homomorphism on the Torelli group).

Transcription policy.  The homology classes of the drawn curves cannot be
read off a picture by a program, so they are transcribed as a closed
formula.  *Nothing trusts the transcription directly*: every constructor
runs the full battery of validation constraints below, which are exactly
the facts the computations depend on.  A failed constraint aborts with its
name.

For the involution family with parameter g (surface genus 2g), the
formula's classes are, in the basis a_1..a_2g, b_1..b_2g:

    B_0      = -(a_1 + ... + a_2g)
    B_{2k-1} = (a_k + ... + a_{2g+1-k}) + b_k + b_{2g+1-k}
    B_{2k}   = (a_{k+1} + ... + a_{2g-k}) + b_k + b_{2g+1-k}      (k = 1..g)
    C        = 0, split (g, g)

and the product of the twists about B_0, ..., B_2g, C is the involution
eta: a_i -> -a_{2g+1-i}, b_i -> -b_{2g+1-i}.

Orientation gauge.  With the pairing <a_i, b_i> = +1 and the twist acting
by x -> x + <x, c> c, orientations are fixed by taking c_i := b_{i+1} - b_i
(so b_2 = b_1 + c_1) and the bounding-pair class [x] = b_2.  One global
sign remains free per family; the chain family's commutator values carry
``CHAIN_TAU_SIGN`` relative to w = a_1 ^ a_2 ^ b_1, and the constant is
validated for coherence rather than assumed.
"""

import functools

from .homology import (
    HomologyClass,
    SpMap,
    basis_a,
    basis_b,
    fixed_subspace_dim,
    intersection,
    is_primitive,
    zero_class,
)
from .invariants import FibrationSpec
from .johnson import (
    BoundingPairGen,
    QuotientClass,
    TorelliWord,
    _TwistDelta,
    reduce_to_quotient,
    tau_word,
    wedge3,
)
from .words import (
    PositiveFactorization,
    TwistLetter,
    Word,
    sp_image,
)
from . import _linalg

# Sign of the chain-family commutator value against w = a_1 ^ a_2 ^ b_1 in
# the orientation gauge above.  Coherent across parameters and code paths;
# checked, never assumed.
CHAIN_TAU_SIGN = -1


FAMILY_KINDS = ("mck", "chain")


class ScenarioValidationError(AssertionError):
    """A transcription constraint failed; the message names the constraint."""


def surface_genus(kind, g):
    """Genus of the surface that the family or curve table of parameter g
    lives on: 2g for the involution family, g for the chain family."""
    if kind not in FAMILY_KINDS:
        raise ValueError("kind must be 'mck' or 'chain'")
    return 2 * g if kind == "mck" else g


# --------------------------------------------------------------------------
# class vectors


def _mck_vectors(g):
    """Regenerate the transcription above for twist parameter g."""
    n = 4 * g

    def a_interval(lo, hi):
        v = [0] * n
        for i in range(lo, hi + 1):
            v[i - 1] = 1
        return v

    vecs = []
    b0 = [-x for x in a_interval(1, 2 * g)]
    vecs.append(b0)
    for k in range(1, g + 1):
        odd = a_interval(k, 2 * g + 1 - k)
        odd[n // 2 + k - 1] += 1
        odd[n // 2 + 2 * g - k] += 1
        vecs.append(odd)
        even = a_interval(k + 1, 2 * g - k)
        even[n // 2 + k - 1] += 1
        even[n // 2 + 2 * g - k] += 1
        vecs.append(even)
    return vecs


def eta_matrix(g):
    """The involution a_i -> -a_{2g+1-i}, b_i -> -b_{2g+1-i} on genus 2g."""
    if g < 1:
        raise ValueError("need g >= 1")
    n = 4 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(1, 2 * g + 1):
        rows[(2 * g + 1 - i) - 1][i - 1] = -1
        rows[2 * g + (2 * g + 1 - i) - 1][2 * g + i - 1] = -1
    return SpMap(2 * g, rows)


# --------------------------------------------------------------------------
# curve tables


class CurveTable:
    """Named homology classes for one scenario context, validated on build."""

    def __init__(self, context, g):
        self.context = context
        self.g = g
        self.genus = surface_genus(context, g)
        if context == "mck":
            if g < 2:
                raise ValueError("the twisted involution family needs g >= 2")
            self._build_mck()
        else:
            if g < 2:
                raise ValueError("the chain table needs g >= 2")
            self._build_chain()
        self.checks = self.validate()

    def _build_mck(self):
        g, genus = self.g, self.genus
        self.a = {i: basis_a(genus, i) for i in range(1, genus + 1)}
        self.b = {i: basis_b(genus, i) for i in range(1, genus + 1)}
        self.c = {i: self.b[i + 1] - self.b[i] for i in range(1, genus)}
        self.B = {j: HomologyClass(genus, v) for j, v in enumerate(_mck_vectors(g))}
        self.C = TwistLetter(zero_class(genus), 1, separating=True, split=(g, g))
        self.x = self.b[2]
        self.y = self.b[2]
        eta = eta_matrix(g)
        self.hx = eta.apply(self.x)
        self.hy = eta.apply(self.y)

    def _build_chain(self):
        g = self.g
        self.a = {i: basis_a(g, i) for i in range(1, g + 1)}
        self.b = {i: basis_b(g, i) for i in range(1, g + 1)}
        chain = {1: self.b[1]}
        for i in range(1, g + 1):
            chain[2 * i] = self.a[i]
        for i in range(1, g):
            chain[2 * i + 1] = self.b[i + 1] - self.b[i]
        # the end curve of the chain; unused by the factorizations
        chain[2 * g + 1] = -self.b[g]
        self.chain = chain
        self.x = self.b[2]
        self.y = self.b[2]

    # -- validation -------------------------------------------------------

    def validate(self):
        if self.context == "mck":
            return self._validate_mck()
        return self._validate_chain()

    def _require(self, checks, name, ok):
        checks.append((name, bool(ok)))
        if not ok:
            raise ScenarioValidationError("transcription constraint failed: " + name)

    def _validate_mck(self):
        g, genus = self.g, self.genus
        checks = []
        self._require(checks, "C is the zero class with split (g, g)",
                      self.C.curve.is_zero() and self.C.split == (g, g))
        for j in range(2 * g + 1):
            self._require(checks, "B_%d is primitive" % j, is_primitive(self.B[j]))
        span = [self.B[j].coords for j in range(2 * g + 1)]
        self._require(checks, "span of the B classes has rank 2g",
                      _linalg.rank(span) == 2 * g)
        half = Word([TwistLetter(self.B[j]) for j in range(2 * g + 1)] + [self.C],
                    genus)
        eta = eta_matrix(g)
        self._require(checks, "product of the half-word twists equals eta",
                      sp_image(half) == eta)
        self._require(checks, "eta squares to the identity", (eta @ eta).is_identity())
        self._require(checks, "eta fixes a subspace of dimension 2g",
                      fixed_subspace_dim(eta) == 2 * g)
        b0 = self.B[0]
        for name, val, want in (
            ("<b_1, B_0> = 1", intersection(self.b[1], b0), 1),
            ("<b_2g, B_0> = 1", intersection(self.b[genus], b0), 1),
            ("<a_1, B_0> = 0", intersection(self.a[1], b0), 0),
            ("<a_2g, B_0> = 0", intersection(self.a[genus], b0), 0),
            ("<c_1, B_0> = 0", intersection(self.c[1], b0), 0),
            ("<c_2g-1, B_0> = 0", intersection(self.c[genus - 1], b0), 0),
        ):
            self._require(checks, name, val == want)
        tup = [
            -self.a[1],
            self.c[1],
            -self.a[genus],
            -self.c[genus - 1],
            b0,
        ]
        self._require(
            checks,
            "(-a_1, c_1, -a_2g, -c_2g-1, B_0) extends to a symplectic basis",
            _extends_to_symplectic(tup, pairs=2),
        )
        return checks

    def _validate_chain(self):
        g = self.g
        checks = []
        self._require(checks, "[c_1] = b_1", self.chain[1] == self.b[1])
        for i in range(1, g + 1):
            self._require(checks, "[c_%d] = a_%d" % (2 * i, i),
                          self.chain[2 * i] == self.a[i])
        for i in range(1, g):
            self._require(checks, "[c_%d] = b_%d - b_%d" % (2 * i + 1, i + 1, i),
                          self.chain[2 * i + 1] == self.b[i + 1] - self.b[i])
        self._require(checks, "bounding-pair class is b_2", self.x == self.b[2])
        return checks

    def as_dict(self):
        named = {}
        if self.context == "mck":
            for j, v in sorted(self.B.items()):
                named["B_%d" % j] = list(v.coords)
            named["C"] = list(self.C.curve.coords)
            for key in ("x", "y", "hx", "hy"):
                named[key] = list(getattr(self, key).coords)
        else:
            for i, v in sorted(self.chain.items()):
                named["c_%d" % i] = list(v.coords)
            named["x"] = list(self.x.coords)
            named["y"] = list(self.y.coords)
        return {
            "context": self.context,
            "g": self.g,
            "surface_genus": self.genus,
            "classes": named,
            "validation": [{"constraint": n, "ok": ok} for n, ok in self.checks],
        }


def _extends_to_symplectic(vectors, pairs):
    """The first 2*pairs vectors are symplectic pairs, the rest isolated
    first-members; extendability = standard partial Gram + primitive span."""
    k = len(vectors)
    for i in range(k):
        for j in range(i + 1, k):
            want = 1 if (i % 2 == 0 and j == i + 1 and i < 2 * pairs) else 0
            if intersection(vectors[i], vectors[j]) != want:
                return False
    _, d, _ = _linalg.smith_normal_form([v.coords for v in vectors])
    return all(d[i][i] == 1 for i in range(min(k, len(d[0]))))


# --------------------------------------------------------------------------
# the families


class FamilySpec:
    """One twisted family at one parameter g, built and validated once;
    the base factorization, both specs and the unit seeds are built on
    first use and kept."""

    def __init__(self, kind, g):
        genus = surface_genus(kind, g)
        least = 2 if kind == "mck" else 3
        if g < least:
            raise ValueError("need g >= %d" % least)
        table = self.table = CurveTable(kind, g)
        gen = BoundingPairGen(table.b[2], [(table.a[1], table.b[1])])
        pair = (TwistLetter(table.x, 1), TwistLetter(table.y, -1))
        if kind == "mck":
            # the half word, whose product is eta, written twice; the twist
            # is the bounding pair and its conjugate by the half word
            letters = tuple(TwistLetter(table.B[j]) for j in range(2 * g + 1)) + (table.C,)
            self.base_word = Word(letters * 2, genus)
            self.twist = TorelliWord([(Word((), genus), gen, 1),
                                      (Word(letters, genus), gen, 1)])
            pair += (TwistLetter(table.hx, 1), TwistLetter(table.hy, -1))
            self.sections = (-1,) * 4
        else:
            # the block (c_1 ... c_2g)^(4g+2), cubed
            letters = tuple(TwistLetter(table.chain[i]) for i in range(1, 2 * g + 1))
            block = letters * (4 * g + 2)
            self.base_word = Word(block * 3, genus)
            self.twist = TorelliWord([(Word((), genus), gen, 1)])
            self.sections = (-3,)
        self.name = kind
        self.genus_param = g
        self.surface_genus = genus
        self.base_letters = letters
        # the literal twist word: each bounding pair as T_x T_y^-1
        self.twist_word = Word(pair, genus)
        if not sp_image(self.twist_word).is_identity():
            raise ScenarioValidationError("the twist word is not the identity at Sp level")

    @functools.cached_property
    def base(self):
        """The validated identity factorization of parameter 0."""
        return PositiveFactorization(self.base_word)

    @functools.cached_property
    def base_spec(self):
        return FibrationSpec(self.surface_genus, self.base.letters, self.sections,
                             hyperelliptic=True)

    def factorization(self, n):
        """Member n, which is the validated base itself: the twist word is
        the identity at Sp level (checked on construction), so partially
        conjugating the prefix by its n-th power moves no letter."""
        if n < 0:
            raise ValueError("need n >= 0")
        return self.base

    def spec(self, n):
        """Member n: the base spec for n = 0, the one twisted spec for n > 0."""
        if n < 0:
            raise ValueError("need n >= 0")
        return self.twisted_spec if n else self.base_spec

    @functools.cached_property
    def twisted_spec(self):
        """Every member n > 0: not hyperelliptic, base spec as signature reference."""
        return FibrationSpec(self.surface_genus, self.base.letters, self.sections,
                             hyperelliptic=False, signature_reference=self.base_spec)

    @functools.cached_property
    def unit_seeds(self):
        """tau([T_l^-1, f]) = (T_l^-1)_* tau(f) - tau(f) = -(T_l - I) tau(f)
        per base letter l (see ``johnson._TwistDelta``), by the quotient
        action; each is checked against transport of its literal word."""
        genus, f = self.surface_genus, self.twist
        tau_f = tau_word(f).coords
        base, seeds = _linalg.sparse(tau_f), []
        for l in self.base_letters:
            img = _TwistDelta(genus, l.curve.coords, l.power)(base)
            seed = -QuotientClass(genus, _linalg.dense(img, len(tau_f)))
            literal = f.conjugated_by(Word([l], genus).inverse()) * f.power(-1)
            if tau_word(literal) != seed:
                raise AssertionError("commutator tau: formula and literal word disagree")
            seeds.append(seed)
        return seeds

    def seed_classes(self, n):
        """tau([T_l^-1, f^n]) = n tau([T_l^-1, f]) for each base letter l."""
        return [int(n) * s for s in self.unit_seeds]

    def action_generators(self):
        return list(self.base_letters)

    def witness_class(self):
        """The primitive class whose n-th multiple is a seed.

        Computed two independent ways, which must agree exactly: a closed
        form, and the unit seed tau([T_k^-1, f]) of one base letter k.  For
        mck the closed form is (a_1 ^ c_1 + a_2g ^ c_2g-1) ^ B_0 and k = B_0
        (letter 0); for chain it is w = a_1 ^ a_2 ^ b_1, k = c_4 (letter 3),
        and the commutator value carries CHAIN_TAU_SIGN.
        """
        t, genus = self.table, self.surface_genus
        if self.name == "mck":
            closed = reduce_to_quotient(wedge3(t.a[1], t.c[1], t.B[0])
                                        + wedge3(t.a[genus], t.c[genus - 1], t.B[0]))
            k, sign = 0, 1
        else:
            closed = reduce_to_quotient(wedge3(t.a[1], t.a[2], t.b[1]))
            k, sign = 3, CHAIN_TAU_SIGN
        if self.unit_seeds[k] != sign * closed:
            raise ScenarioValidationError(
                "closed form and commutator pipeline disagree for the witness class"
            )
        if not is_primitive(closed):
            raise ScenarioValidationError("witness class is not primitive")
        return closed


def family(kind, g):
    return FamilySpec(kind, g)


def mck_section_incidence(variant):
    """Intersection counts of the two components of one reducible fiber with
    the four (-1)-sections, for the two section systems of the base family.

    In system 1 the first component meets the fourth section and the second
    component meets the other three; in system 2 the first component misses
    every section and the second meets all four.
    """
    if variant == 1:
        return ((0, 0, 0, 1), (1, 1, 1, 0))
    if variant == 2:
        return ((0, 0, 0, 0), (1, 1, 1, 1))
    raise ValueError("variant must be 1 or 2")
