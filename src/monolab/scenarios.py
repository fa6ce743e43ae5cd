"""Concrete twist data: the genus-2g involution factorization, its Torelli
twists, and the chain-relation family.

Transcription policy.  The homology classes of the drawn curves cannot be
read off a picture by a program, so they are transcribed as a closed
formula; a directory named by the ``MONOLAB_DATA`` environment variable may
replace it with an ``mck_classes.json`` of its own.  *Nothing trusts the
transcription directly*, whichever was loaded: every constructor runs the
full battery of validation constraints below, which are exactly the facts
the computations depend on.  A failed constraint aborts with its name.

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

import json
import os

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
    TorelliWord,
    commutator_tau,
    is_primitive_quotient,
    reduce_to_quotient,
    wedge3,
)
from .lattices import smith_normal_form
from .words import (
    PositiveFactorization,
    TwistLetter,
    Word,
    partial_conjugation,
    sp_image,
)
from . import _linalg

# Sign of the chain-family commutator value against w = a_1 ^ a_2 ^ b_1 in
# the orientation gauge above.  Coherent across parameters and code paths;
# checked, never assumed.
CHAIN_TAU_SIGN = -1


class ScenarioValidationError(AssertionError):
    """A transcription constraint failed; the message names the constraint."""


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


def _load_mck_vectors(g):
    """The formula's vectors, unless ``MONOLAB_DATA`` names a directory whose
    ``mck_classes.json`` lists vectors for this g."""
    override = os.environ.get("MONOLAB_DATA")
    if not override:
        return _mck_vectors(g)
    with open(os.path.join(override, "mck_classes.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entry = doc.get("mck", {}).get(str(g))
    if entry is None:
        return _mck_vectors(g)
    return [[int(x) for x in row] for row in entry["B"]]


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
        if context == "mck":
            if g < 2:
                raise ValueError("the twisted involution family needs g >= 2")
            self.genus = 2 * g
            self._build_mck()
        elif context == "chain":
            if g < 2:
                raise ValueError("the chain table needs g >= 2")
            self.genus = g
            self._build_chain()
        else:
            raise ValueError("context must be 'mck' or 'chain'")
        self.checks = self.validate()

    def _build_mck(self):
        g, genus = self.g, self.genus
        self.a = {i: basis_a(genus, i) for i in range(1, genus + 1)}
        self.b = {i: basis_b(genus, i) for i in range(1, genus + 1)}
        self.c = {i: self.b[i + 1] - self.b[i] for i in range(1, genus)}
        vecs = _load_mck_vectors(g)
        self.B = {j: HomologyClass(genus, v) for j, v in enumerate(vecs)}
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
    rows = [v.coords for v in vectors]
    _, d, _ = smith_normal_form(rows)
    factors = [d[i][i] for i in range(min(len(rows), len(rows[0])))]
    return all(f == 1 for f in factors[:k])


# --------------------------------------------------------------------------
# factorizations and fibration specs


def _mck_half_letters(table):
    return tuple(TwistLetter(table.B[j]) for j in range(2 * table.g + 1)) + (table.C,)


def mck_factorization(g):
    """The length-(4g+4) identity factorization on the genus-2g surface."""
    table = CurveTable("mck", g)
    half = _mck_half_letters(table)
    word = Word(half + half, table.genus)
    return PositiveFactorization(word)


def _f_word(table):
    """The literal four-twist word of the Torelli twist (two bounding pairs)."""
    return Word(
        (
            TwistLetter(table.x, 1),
            TwistLetter(table.y, -1),
            TwistLetter(table.hx, 1),
            TwistLetter(table.hy, -1),
        ),
        table.genus,
    )


def _chain_f_word(table):
    return Word((TwistLetter(table.x, 1), TwistLetter(table.y, -1)), table.genus)


def torelli_f(g, context="mck"):
    """The twisting Torelli word: a genus-1 bounding pair, and in the
    involution context also its conjugate by the half word."""
    if g < 2:
        raise ValueError("need g >= 2")
    table = CurveTable(context, g)
    gen = BoundingPairGen(table.b[2], [(table.a[1], table.b[1])])
    if context == "chain":
        return TorelliWord([(Word((), table.genus), gen, 1)])
    half = Word(_mck_half_letters(table), table.genus)
    return TorelliWord(
        [
            (Word((), table.genus), gen, 1),
            (half, gen, 1),
        ]
    )


def mck(g):
    """The base fibration of the involution family: genus 2g, 4g+4 cycles,
    four (-1)-sections, hyperelliptic."""
    if g < 2:
        raise ValueError("need g >= 2")
    fact = mck_factorization(g)
    return FibrationSpec(2 * g, fact.letters, (-1, -1, -1, -1), hyperelliptic=True)


def twisted_mck(g, n):
    """Partial conjugation of the base family by the n-th power of the twist.

    The conjugator is Torelli, so the letter classes are unchanged here; n
    lives entirely in the Johnson certificates.  The twisted spec is not
    marked hyperelliptic; it carries the base spec as signature reference.
    """
    if g < 2:
        raise ValueError("need g >= 2")
    if n < 0:
        raise ValueError("need n >= 0")
    base = mck_factorization(g)
    table = CurveTable("mck", g)
    conj = _f_word(table).power(n)
    twisted = partial_conjugation(base, 2 * g + 2, conj)
    if n == 0:
        return FibrationSpec(2 * g, twisted.letters, (-1,) * 4, hyperelliptic=True)
    return FibrationSpec(
        2 * g,
        twisted.letters,
        (-1,) * 4,
        hyperelliptic=False,
        signature_reference=mck(g),
    )


def chain_letters(g):
    table = CurveTable("chain", g)
    return tuple(TwistLetter(table.chain[i]) for i in range(1, 2 * g + 1))


def chain_factorization(g, n=0):
    """The identity factorization with 12g(2g+1) letters: three chain-power
    blocks, the first-acting one conjugated by the n-th twist power."""
    if g < 3:
        raise ValueError("need g >= 3")
    if n < 0:
        raise ValueError("need n >= 0")
    table = CurveTable("chain", g)
    block = Word(chain_letters(g) * (4 * g + 2), g)
    base = PositiveFactorization(block.power(3))
    conj = _chain_f_word(table).power(n)
    return partial_conjugation(base, len(block.letters), conj)


def chain_family(g, n):
    """The chain-relation family: genus g, one (-3)-section."""
    fact = chain_factorization(g, n)
    if n == 0:
        return FibrationSpec(g, fact.letters, (-3,), hyperelliptic=True)
    base = FibrationSpec(g, chain_factorization(g, 0).letters, (-3,), hyperelliptic=True)
    return FibrationSpec(g, fact.letters, (-3,), hyperelliptic=False,
                         signature_reference=base)


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


# --------------------------------------------------------------------------
# distinguished Johnson classes


def v_class(g):
    """The primitive witness of the involution family.

    Computed two independent ways, which must agree exactly: the closed
    form (a_1 ^ c_1 + a_2g ^ c_2g-1) ^ B_0, and the commutator value
    tau([T_B0^-1, f]).
    """
    if g < 2:
        raise ValueError("need g >= 2")
    table = CurveTable("mck", g)
    genus = table.genus
    closed = reduce_to_quotient(
        wedge3(table.a[1], table.c[1], table.B[0])
        + wedge3(table.a[genus], table.c[genus - 1], table.B[0])
    )
    f = torelli_f(g, "mck")
    pipeline = commutator_tau(Word([TwistLetter(table.B[0])], genus), f, 1)
    if closed != pipeline:
        raise ScenarioValidationError(
            "closed form and commutator pipeline disagree for the witness class"
        )
    if not is_primitive_quotient(closed):
        raise ScenarioValidationError("witness class is not primitive")
    return closed


def w_class(g):
    """The primitive witness of the chain family: w = a_1 ^ a_2 ^ b_1.

    The commutator pipeline evaluates to CHAIN_TAU_SIGN * n * w in the fixed
    orientation gauge; the sign's coherence is validated here.
    """
    if g < 3:
        raise ValueError("need g >= 3")
    table = CurveTable("chain", g)
    w = reduce_to_quotient(wedge3(table.a[1], table.a[2], table.b[1]))
    f = torelli_f(g, "chain")
    pipeline = commutator_tau(Word([TwistLetter(table.chain[4])], g), f, 1)
    if pipeline != CHAIN_TAU_SIGN * w:
        raise ScenarioValidationError(
            "chain commutator value is not the recorded global sign times w"
        )
    if not is_primitive_quotient(w):
        raise ScenarioValidationError("w is not primitive")
    return w


# --------------------------------------------------------------------------
# family handle used by the distinguishing machinery


class FamilySpec:
    """Everything the certificate machinery needs about one twisted family."""

    def __init__(self, kind, g):
        if kind == "mck":
            if g < 2:
                raise ValueError("need g >= 2")
            self.table = CurveTable("mck", g)
            self.surface_genus = 2 * g
            letters = _mck_half_letters(self.table)
            self.twist = torelli_f(g, "mck")
            self.twist_word = _f_word(self.table)
            self.prefix_length = 2 * g + 2
            self._witness = v_class(g)
        elif kind == "chain":
            if g < 3:
                raise ValueError("need g >= 3")
            self.table = CurveTable("chain", g)
            self.surface_genus = g
            letters = chain_letters(g)
            self.twist = torelli_f(g, "chain")
            self.twist_word = _chain_f_word(self.table)
            self.prefix_length = 2 * g * (4 * g + 2)
            self._witness = w_class(g)
        else:
            raise ValueError("kind must be 'mck' or 'chain'")
        self.name = kind
        self.genus_param = g
        self.base_letters = letters
        self._seed_cache = {}
        prefix = Word(letters, self.surface_genus)
        if not sp_image(prefix).commutes_with(sp_image(self.twist_word)):
            raise ScenarioValidationError(
                "prefix product does not commute with the twist at Sp level"
            )

    def letter_words(self):
        return [Word([l], self.surface_genus) for l in self.base_letters]

    def seed_classes(self, n):
        n = int(n)
        if n not in self._seed_cache:
            self._seed_cache[n] = [
                commutator_tau(w, self.twist, n) for w in self.letter_words()
            ]
        return list(self._seed_cache[n])

    def action_generators(self):
        return list(self.base_letters)

    def witness_class(self):
        return self._witness


def family(kind, g):
    return FamilySpec(kind, g)
