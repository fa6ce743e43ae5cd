import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from monolab.homology import (
    HomologyClass,
    SpMap,
    basis_a,
    basis_b,
    is_primitive,
    twist_matrix,
    zero_class,
)
from monolab import _linalg, homology, schemas
from monolab._linalg import smith_normal_form
from monolab.johnson import (
    BoundingPairGen,
    QuotientClass,
    TorelliWord,
    Wedge3,
    _TwistDelta,
    _table,
    check_certificate,
    commutator_tau,
    distinguish,
    reduce_to_quotient,
    saturate,
    sp_action_quotient,
    sp_action_wedge,
    tau_bounding_pair,
    tau_word,
    wedge3,
)
from monolab.lattices import SublatticeBasis
from monolab.words import TwistLetter, Word, sp_image
from monolab.scenarios import family
from helpers import fraction_solve, naive_wedge_cube, random_class
from oracles import DenseEchelonLattice, dense_tau_word, embed_h


def gamma_vector(genus, j):
    """The j-th (1-based) interleaved basis vector as a HomologyClass."""
    i = (j + 1) // 2
    return basis_a(genus, i) if j % 2 == 1 else basis_b(genus, i)


def wedge_from_dict(genus, d):
    tab = _table(genus)
    coords = [0] * tab.dim_wedge
    for trip, c in d.items():
        coords[tab.triple_index[trip]] = c
    return Wedge3(genus, coords)


def naive_embed(genus, c):
    """Oracle: omega ^ c through the permutation-sign wedge machinery."""
    tab = _table(genus)
    gc = [c.coords[tab.perm[j]] for j in range(2 * genus)]
    total = {}
    for i in range(genus):
        e1 = [0] * (2 * genus)
        e2 = [0] * (2 * genus)
        e1[2 * i] = 1
        e2[2 * i + 1] = 1
        for key, val in naive_wedge_cube(e1, e2, gc, 2 * genus).items():
            total[key] = total.get(key, 0) + val
    return {k: v for k, v in total.items() if v}


def test_embed_trivials_and_linearity():
    g = 3
    assert embed_h(zero_class(g)).is_zero()
    rng = random.Random(2)
    for _ in range(15):
        x, y = random_class(rng, g), random_class(rng, g)
        assert embed_h(x + y) == embed_h(x) + embed_h(y)


def test_embed_against_oracle():
    for genus in (2, 3):
        rng = random.Random(genus)
        for _ in range(10):
            c = random_class(rng, genus)
            got = embed_h(c)
            want = wedge_from_dict(genus, naive_embed(genus, c))
            assert got == want
    # the specific genus-2 expansion: omega ^ gamma_1 = gamma_1 ^ gamma_3 ^ gamma_4
    got = embed_h(gamma_vector(2, 1))
    assert got == wedge_from_dict(2, {(0, 2, 3): 1})


def test_wedge3_against_oracle():
    for genus in (2, 3):
        rng = random.Random(10 + genus)
        tab = _table(genus)
        for _ in range(10):
            u, v, w = (random_class(rng, genus) for _ in range(3))
            gammas = [[x.coords[tab.perm[j]] for j in range(2 * genus)] for x in (u, v, w)]
            want = wedge_from_dict(genus, naive_wedge_cube(*gammas, 2 * genus))
            assert wedge3(u, v, w) == want


def test_reduce_kernel_identity():
    for genus in (2, 3, 4):
        for j in range(1, 2 * genus + 1):
            assert reduce_to_quotient(embed_h(gamma_vector(genus, j))).is_zero()
    rng = random.Random(8)
    for genus in (2, 3):
        for _ in range(10):
            c = random_class(rng, genus)
            assert reduce_to_quotient(embed_h(c)).is_zero()


def test_reduce_fixes_retained_triples():
    genus = 3
    tab = _table(genus)
    for r_idx, trip in enumerate(tab.retained):
        w = wedge_from_dict(genus, {trip: 1})
        q = reduce_to_quotient(w)
        expected = [0] * tab.dim_quot
        expected[r_idx] = 1
        assert list(q.coords) == expected


def test_reduce_excluded_triples_against_solver_oracle():
    """Each discarded triple must equal its reduction plus something in the
    image of H; solved independently over Q with Fractions."""
    for genus in (2, 3):
        tab = _table(genus)
        n = 2 * genus
        columns = []
        for trip in tab.retained:
            col = [0] * tab.dim_wedge
            col[tab.triple_index[trip]] = 1
            columns.append(col)
        for j in range(1, n + 1):
            columns.append(list(embed_h(gamma_vector(genus, j)).coords))
        excluded = [t for t in tab.triples if t not in tab.retained_index]
        for trip in excluded:
            target = [0] * tab.dim_wedge
            target[tab.triple_index[trip]] = 1
            sol = fraction_solve(columns, target)
            assert sol is not None
            assert all(x.denominator == 1 for x in sol)
            got = reduce_to_quotient(wedge_from_dict(genus, {trip: 1}))
            assert list(got.coords) == [int(x) for x in sol[: tab.dim_quot]]


def test_basis_change_unimodular():
    # {retained triples} + {omega ^ gamma_i} is a basis: SNF all ones
    for genus in (2, 3, 4):
        tab = _table(genus)
        cols = []
        for trip in tab.retained:
            col = [0] * tab.dim_wedge
            col[tab.triple_index[trip]] = 1
            cols.append(col)
        for j in range(1, 2 * genus + 1):
            cols.append(list(embed_h(gamma_vector(genus, j)).coords))
        mat = [list(row) for row in zip(*cols)]
        _, d, _ = smith_normal_form(mat)
        assert all(d[i][i] == 1 for i in range(tab.dim_wedge))


def test_sp_action_wedge_trivials():
    genus = 3
    rng = random.Random(5)
    w = wedge3(*(random_class(rng, genus) for _ in range(3)))
    assert sp_action_wedge(SpMap.identity(genus), w) == w
    neg = SpMap(genus, [[-1 if i == j else 0 for j in range(2 * genus)]
                        for i in range(2 * genus)])
    assert sp_action_wedge(neg, w) == -w
    assert sp_action_quotient(neg, reduce_to_quotient(w)) == -reduce_to_quotient(w)


def test_sp_action_functorial_and_descends():
    genus = 2
    rng = random.Random(6)
    for _ in range(10):
        m1 = twist_matrix(random_class(rng, genus), rng.choice((1, -1)))
        m2 = twist_matrix(random_class(rng, genus), rng.choice((1, -1)))
        w = wedge3(*(random_class(rng, genus) for _ in range(3)))
        assert sp_action_wedge(m1 @ m2, w) == sp_action_wedge(m1, sp_action_wedge(m2, w))
        # the embedding is equivariant, so the action descends
        c = random_class(rng, genus)
        assert sp_action_wedge(m1, embed_h(c)) == embed_h(m1.apply(c))
        q = reduce_to_quotient(w)
        assert sp_action_quotient(m1, q) == reduce_to_quotient(sp_action_wedge(m1, w))


def test_quotient_action_rank_one_matches_dense():
    # the factored operator p W_c o iota_s agrees with the dense oracle on
    # every retained basis vector for both powers of a twist, and a
    # separating (zero) letter acts as the identity; T^-p - I = -(T^p - I),
    # so the closure needs no operator for inverses
    genus = 3
    tab = _table(genus)
    rng = random.Random(7)
    curves = [random_class(rng, genus) for _ in range(6)] + [zero_class(genus)]
    for c in curves:
        by_power = {}
        for power in (1, -1):
            delta = _TwistDelta(genus, c.coords, power)
            m = twist_matrix(c, power)
            fast, dense = {}, {}
            for r_idx in range(tab.dim_quot):
                q = QuotientClass(genus, [1 if i == r_idx else 0 for i in range(tab.dim_quot)])
                fast[r_idx] = delta({r_idx: 1})
                dense[r_idx] = _linalg.sparse((sp_action_quotient(m, q) - q).coords)
            assert fast == dense
            assert any(fast.values()) == (not c.is_zero())
            by_power[power] = dense
        assert by_power[-1] == {j: {i: -v for i, v in col.items()}
                                for j, col in by_power[1].items()}


def _sparse_quotient_vectors(genus):
    dim = _table(genus).dim_quot
    if not dim:  # (wedge^3 H)/H is zero at genus 2
        return st.just({})
    return st.dictionaries(st.integers(0, dim - 1), st.integers(-3, 3).filter(bool),
                           max_size=12)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.integers(2, 5).flatmap(lambda g: st.tuples(
    st.just(g),
    st.lists(st.integers(-2, 2), min_size=2 * g, max_size=2 * g) | st.just([0] * (2 * g)),
    st.sampled_from((1, -1, 2, -2)),
    _sparse_quotient_vectors(g))))
def test_twist_delta_matches_the_dense_action(case):
    # (T_c^p - I) v by contraction and the pair table, against the dense
    # action by 3x3 minors of T_c^p (T_c or T_c^-1, squared for |p| = 2); an
    # all-zero curve is a separating letter
    genus, coords, power, vec = case
    c = HomologyClass(genus, coords)
    m = twist_matrix(c, 1 if power > 0 else -1)
    if abs(power) == 2:
        m = m @ m
    q = QuotientClass(genus, _linalg.dense(vec, _table(genus).dim_quot))
    want = sp_action_quotient(m, q) - q
    assert _TwistDelta(genus, c.coords, power)(vec) == _linalg.sparse(want.coords)


def test_pair_table_is_bounded_by_the_pairs():
    # applied to every retained basis vector, a letter fills at most one
    # column per pair a < b, and a separating letter fills none
    rng = random.Random(41)
    for genus in (2, 3, 4):
        tab = _table(genus)
        n = tab.n
        for c in [random_class(rng, genus) for _ in range(3)] + [zero_class(genus)]:
            delta = _TwistDelta(genus, c.coords, rng.choice((1, -1, 2)))
            for r_idx in range(tab.dim_quot):
                delta({r_idx: 1})
            assert len(delta) <= n * (n - 1) // 2
            assert all(k // n < k % n for k in delta)
            if c.is_zero():
                assert not delta


def test_saturate_equals_the_closure_that_queues_every_image():
    # the closure as it was first written: a dense lattice, every letter and
    # its inverse, and a queue that keeps every image, expanding the ones
    # whose insert grew the lattice
    fam = family("mck", 3)
    seeds, gens = fam.seed_classes(1), fam.action_generators()
    genus = fam.surface_genus
    directed = [_TwistDelta(genus, l.curve.coords, p) for l in gens
                if not l.curve.is_zero() for p in (l.power, -l.power)]
    lat = DenseEchelonLattice(_table(genus).dim_quot)
    queue = [list(s.coords) for s in seeds]
    for vec in queue:
        if lat.insert(vec):
            for delta in directed:
                img = list(vec)
                for i, a in delta(_linalg.sparse(vec)).items():
                    img[i] += a
                queue.append(img)
    assert saturate(seeds, gens).rows == lat.hnf_rows()


def test_quotient_action_dense_path_against_wedge_action():
    # the involution's difference from the identity has full rank, so no
    # rank-one shortcut applies; cross-check the quotient action against
    # the direct wedge action on lifts of basis classes
    from monolab.scenarios import eta_matrix
    g = 2
    genus = 2 * g
    eta = eta_matrix(g)
    tab = _table(genus)
    rng = random.Random(77)
    for _ in range(8):
        coords = [rng.randint(-2, 2) for _ in range(tab.dim_quot)]
        q = QuotientClass(genus, coords)
        lift = [0] * tab.dim_wedge
        for r_idx, trip in enumerate(tab.retained):
            lift[tab.triple_index[trip]] = coords[r_idx]
        via_wedge = reduce_to_quotient(sp_action_wedge(eta, Wedge3(genus, lift)))
        assert sp_action_quotient(eta, q) == via_wedge


def test_bounding_pair_validation():
    g = 4
    gen = BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    assert gen.genus == g
    with pytest.raises(ValueError):
        BoundingPairGen(2 * basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    with pytest.raises(ValueError):
        # side pair fails <alpha, beta> = 1
        BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 3))])
    with pytest.raises(ValueError):
        # side vector pairs with cls
        BoundingPairGen(basis_b(g, 2), [(basis_a(g, 2), basis_b(g, 2))])


def test_tau_bounding_pair_value():
    g = 4
    gen = BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    val = tau_bounding_pair(gen)
    assert val == reduce_to_quotient(wedge3(basis_a(g, 1), basis_b(g, 1), basis_b(g, 2)))
    assert not val.is_zero()
    # a repeated factor wedges to zero (the degenerate check lives at the
    # wedge level; such side data is not a valid generator)
    assert wedge3(basis_a(g, 1), basis_b(g, 1), basis_b(g, 1)).is_zero()


def test_tau_word_homomorphism_and_powers():
    g = 4
    gen = BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    tw = TorelliWord([(Word((), g), gen, 1)])
    base = tau_word(tw)
    for n in (0, 1, 2, 5, -3):
        assert tau_word(tw.power(n)) == n * base
    other = TorelliWord([(Word([TwistLetter(basis_a(g, 1))], g), gen, 2)])
    assert tau_word(tw * other) == tau_word(tw) + tau_word(other)
    assert tau_word(TorelliWord((), g)).is_zero()


def test_tau_naturality_randomized():
    g = 4
    rng = random.Random(13)
    gen = BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    tw = TorelliWord([(Word((), g), gen, 1)])
    for _ in range(12):
        letters = [TwistLetter(random_class(rng, g), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 4))]
        conj = Word(letters, g)
        assert tau_word(tw.conjugated_by(conj)) == sp_action_quotient(
            sp_image(conj), tau_word(tw)
        )


def _bounding_pairs(g):
    """Random bounding-pair data: side pairs from a subset of the standard
    symplectic pairs, a primitive class in the span of the others, all moved
    by the symplectic image of a random word."""
    def build(side, coeffs, scramble):
        rest = [i for i in range(1, g + 1) if i not in side]
        cls = zero_class(g)
        for i, (x, y) in zip(rest, coeffs):
            cls = cls + x * basis_a(g, i) + y * basis_b(g, i)
        if cls.is_zero():
            cls = basis_b(g, rest[0])
        cls = HomologyClass(g, [x // math.gcd(*cls.coords) for x in cls.coords])
        m = sp_image(Word(scramble, g))
        return BoundingPairGen(m.apply(cls), [(m.apply(basis_a(g, i)), m.apply(basis_b(g, i)))
                                              for i in sorted(side)])

    sides = st.sets(st.integers(1, g), min_size=1, max_size=g - 1)
    coeffs = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=g, max_size=g)
    return st.builds(build, sides, coeffs, st.lists(_letters(g), max_size=4))


def _letters(g):
    vectors = st.lists(st.integers(-2, 2), min_size=2 * g, max_size=2 * g).filter(any)
    return st.builds(
        lambda v, p: TwistLetter(HomologyClass(g, [x // math.gcd(*v) for x in v]), p),
        vectors, st.sampled_from((1, -1)))


def _torelli_factors(g):
    factor = st.tuples(st.lists(_letters(g), max_size=4), _bounding_pairs(g),
                       st.sampled_from((1, -1, 2)))
    return st.tuples(st.just(g), st.lists(factor, min_size=1, max_size=3))


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 4).flatmap(_torelli_factors))
def test_tau_word_is_the_transport_of_tau_bounding_pair(data):
    # Johnson's equivariance, with the dense action as the oracle: each
    # factor (w, gen, e) contributes e * sp_image(w)_* tau(gen)
    g, factors = data
    tw = TorelliWord([(Word(letters, g), gen, e) for letters, gen, e in factors], g)
    want = QuotientClass.zero(g)
    for w, gen, e in tw.factors:
        want = want + e * sp_action_quotient(sp_image(w), tau_bounding_pair(gen))
    assert tau_word(tw) == want


def _conjugators(g):
    separating = st.builds(
        lambda h, p: TwistLetter(zero_class(g), p, separating=True, split=(h, g - h)),
        st.integers(1, g - 1), st.sampled_from((1, -1)))
    return st.lists(st.one_of(_letters(g), separating), max_size=6)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda g: st.tuples(st.just(g), st.lists(
    st.tuples(_conjugators(g), _bounding_pairs(g), st.integers(-2, 2)),
    min_size=1, max_size=3))))
def test_tau_word_matches_the_dense_oracle(data):
    # the vectors moved letter by letter against one sp_image matrix and
    # dense wedges per factor
    g, factors = data
    tw = TorelliWord([(Word(letters, g), gen, e) for letters, gen, e in factors], g)
    assert tau_word(tw) == dense_tau_word(tw)


def test_seeds_and_tau_word_build_no_symplectic_matrix(monkeypatch):
    families = [family("mck", 3), family("chain", 4)]

    def refuse(self, *args, **kwargs):
        raise AssertionError("an SpMap was built")

    monkeypatch.setattr(homology.SpMap, "__init__", refuse)
    for fam in families:
        letter = Word(fam.base_letters[:1], fam.surface_genus)
        assert not tau_word(fam.twist).is_zero()
        assert len(fam.unit_seeds) == len(fam.base_letters)
        assert commutator_tau(letter, fam.twist, 2) == 2 * fam.unit_seeds[0]


def test_commutator_tau_trivial_cases():
    g = 4
    gen = BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    tw = TorelliWord([(Word((), g), gen, 1)])
    # empty k commutes with everything
    assert commutator_tau(Word((), g), tw, 3).is_zero()
    # a twist about a class disjoint from the tau support acts trivially
    k = Word([TwistLetter(basis_a(g, 4))], g)
    assert commutator_tau(k, tw, 5).is_zero()


def test_commutator_tau_linear_in_n():
    g = 4
    gen = BoundingPairGen(basis_b(g, 2), [(basis_a(g, 1), basis_b(g, 1))])
    tw = TorelliWord([(Word((), g), gen, 1)])
    k = Word([TwistLetter(basis_a(g, 2))], g)
    base = commutator_tau(k, tw, 1)
    assert not base.is_zero()
    for n in range(0, 6):
        assert commutator_tau(k, tw, n) == n * base


def test_is_primitive_quotient():
    g = 3
    w = reduce_to_quotient(wedge3(basis_a(g, 1), basis_a(g, 2), basis_b(g, 1)))
    assert is_primitive(w)
    assert not is_primitive(2 * w)
    with pytest.raises(ValueError):
        is_primitive(QuotientClass.zero(g))


# -- saturation ---------------------------------------------------------------


def _simple_seed(genus, idx, scale=1):
    tab = _table(genus)
    coords = [0] * tab.dim_quot
    coords[idx] = scale
    return QuotientClass(genus, coords)


def test_saturate_trivials():
    g = 3
    zero = QuotientClass.zero(g)
    basis = saturate([zero], [])
    assert basis.rank == 0
    assert basis.content() == 0
    seed = _simple_seed(g, 2, 3)
    basis = saturate([seed], [])
    assert basis.rank == 1
    assert list(basis.rows[0]) == list(seed.coords)
    assert basis.content() == 3


def test_saturate_monotone_idempotent_scaling():
    g = 3
    rng = random.Random(23)
    gens = [TwistLetter(basis_a(g, 1), 1), TwistLetter(basis_b(g, 1), 1)]
    tab = _table(g)
    seeds = [QuotientClass(g, [rng.randint(-2, 2) for _ in range(tab.dim_quot)])
             for _ in range(2)]
    basis = saturate(seeds, gens)
    # idempotent: saturating the basis rows again changes nothing
    again = saturate([QuotientClass(g, r) for r in basis.rows], gens)
    assert again.rows == basis.rows
    # monotone: extra seeds never shrink the lattice
    bigger = saturate(seeds + [_simple_seed(g, 0)], gens)
    assert all(bigger.member(r) for r in basis.rows)
    # scaling commutes with closure
    scaled = saturate([3 * s for s in seeds], gens)
    assert scaled.rows == tuple(tuple(3 * x for x in r) for r in basis.rows)
    assert scaled.content() == 3 * basis.content()


def test_saturate_invariance_postcondition():
    g = 3
    rng = random.Random(29)
    gens = [TwistLetter(random_class(rng, g), 1) for _ in range(3)]
    tab = _table(g)
    seeds = [QuotientClass(g, [rng.randint(-1, 1) for _ in range(tab.dim_quot)])]
    basis = saturate(seeds, gens)
    for s in seeds:
        assert basis.member(s.coords)
    for letter in gens:
        for direction in (letter.matrix(), letter.inverse().matrix()):
            for row in basis.rows:
                img = sp_action_quotient(direction, QuotientClass(g, row))
                assert basis.member(img.coords)


def test_content_examples():
    g = 3
    tab = _table(g)
    one = _simple_seed(g, 0)
    assert saturate([one], []).content() == 1
    two = [_simple_seed(g, 0, 2), _simple_seed(g, 1, 4)]
    assert saturate(two, []).content() == 2



# each mutation of basis_m (m = 3) and the replay check it must fail
TAMPERED_CHECKS = {
    "swap two rows": "basis 3 in Hermite form",
    "negate a pivot row": "basis 3 in Hermite form",
    "add row 2 to row 1": "basis 3 in Hermite form",
    "append a zero row": "basis 3 in Hermite form",
    "drop the last row": "lattice stable under the action at 3",
    "double the basis and its content": "all seeds contained at 3",
}


def _tamper(doc, mutation):
    rows = doc["basis_m"]
    if mutation == "swap two rows":
        rows[0], rows[1] = rows[1], rows[0]
    elif mutation == "negate a pivot row":
        rows[0] = [-x for x in rows[0]]
    elif mutation == "add row 2 to row 1":
        rows[0] = [x + y for x, y in zip(rows[0], rows[1])]
    elif mutation == "append a zero row":
        rows.append([0] * len(rows[0]))
    elif mutation == "drop the last row":
        rows.pop()
    else:
        doc["basis_m"] = [[2 * x for x in r] for r in rows]
        doc["content_m"] *= 2


def _decoded(doc):
    """The document as a reader of its bytes sees it: dense rows."""
    return json.loads(schemas.dumps(doc))


@pytest.mark.parametrize("mutation", sorted(TAMPERED_CHECKS))
def test_tampered_certificate_fails_at_the_named_check(mutation):
    fam = family("mck", 3)
    doc = _decoded(distinguish(1, 3, fam).as_dict())
    assert all(ok for _, ok in check_certificate(doc, fam))
    _tamper(doc, mutation)
    with pytest.raises(AssertionError) as err:
        check_certificate(doc, fam)
    assert str(err.value) == "certificate replay failed at: " + TAMPERED_CHECKS[mutation]


@pytest.mark.parametrize("entry", [True, 1.0])
def test_a_basis_entry_that_is_not_a_plain_int_fails_hermite_form(entry):
    # decoded, `true` equals 1 and `1.0` breaks the gcd; neither is an entry
    fam = family("mck", 3)
    doc = _decoded(distinguish(1, 2, fam).as_dict())
    assert all(ok for _, ok in check_certificate(doc, fam))
    row = next(r for r in doc["basis_n"] if 1 in r)
    row[row.index(1)] = entry
    with pytest.raises(AssertionError) as err:
        check_certificate(doc, fam)
    assert str(err.value) == "certificate replay failed at: basis 1 in Hermite form"


@pytest.mark.parametrize("kind, g", [("mck", 3), ("chain", 4)])
@pytest.mark.parametrize("deep", [False, True])
def test_sparse_and_decoded_certificates_replay_alike(kind, g, deep):
    # the in-process document hands its rows over sparse; a reader of the
    # bytes gets them dense; the replay makes the same checks on both
    fam = family(kind, g)
    doc = distinguish(1, 3, fam).as_dict()
    assert isinstance(doc["basis_m"], _linalg.SparseRows)
    checks = check_certificate(doc, fam, deep=deep)
    assert all(ok for _, ok in checks)
    assert check_certificate(_decoded(doc), fam, deep=deep) == checks


def _unstable_lattice(fam):
    """The span of the unit seeds and the witness: in Hermite form, of
    content 1, holding the unit seeds and the witness, but of rank 4 where
    the closure has rank 42 (mck g=3), so not stable under the action."""
    dim = _table(fam.surface_genus).dim_quot
    return SublatticeBasis(dim, [s.coords for s in fam.seed_classes(1)]
                           + [fam.witness_class().coords])


def _replay_failure(doc, fam):
    with pytest.raises(AssertionError) as err:
        check_certificate(doc, fam)
    return str(err.value)


def test_a_basis_m_that_is_not_the_scaled_basis_n_is_checked_directly():
    # basis_m = 3 * span(seeds, witness) passes every check before the
    # stability one; it is not 3 times basis_n, so its stability is not
    # read from basis_n's, and the direct check at 3 fails
    fam = family("mck", 3)
    doc = _decoded(distinguish(1, 3, fam).as_dict())
    doc["basis_m"] = [list(r) for r in _unstable_lattice(fam).scaled(3).rows]
    assert _replay_failure(doc, fam) == (
        "certificate replay failed at: lattice stable under the action at 3")


def test_a_zero_basis_n_gives_a_direct_check_at_m():
    # at n = 0 basis_n is the zero lattice, which scales to nothing: the
    # replay of the true certificate passes, and a tampered basis_m fails
    fam = family("mck", 3)
    doc = _decoded(distinguish(0, 3, fam).as_dict())
    assert doc["basis_n"] == [] and all(ok for _, ok in check_certificate(doc, fam))
    doc["basis_m"] = [list(r) for r in _unstable_lattice(fam).scaled(3).rows]
    assert _replay_failure(doc, fam) == (
        "certificate replay failed at: lattice stable under the action at 3")


def test_consistently_tampered_bases_fail_at_n():
    # basis_m = 3 * basis_n, so the identity holds and the verdict at 3 is
    # read from the one at 1, which the direct check refuses
    fam = family("mck", 3)
    doc = _decoded(distinguish(1, 3, fam).as_dict())
    small = _unstable_lattice(fam)
    doc["basis_n"] = [list(r) for r in small.rows]
    doc["basis_m"] = [list(r) for r in small.scaled(3).rows]
    assert (doc["content_n"], doc["content_m"]) == (small.content(), 3 * small.content())
    assert _replay_failure(doc, fam) == (
        "certificate replay failed at: lattice stable under the action at 1")


def test_distinguish_and_deep_replay_peak_below_1_3_mb_at_mck_g5():
    # the closure keeps each lattice row once (reduced on insert, shared
    # by the Hermite pass) and the replay one letter operator at a time;
    # the basis table of surface genus 10 is built first, as it is cached
    _table(10)
    tracemalloc.start()
    try:
        fam = family("mck", 5)
        cert = distinguish(1, 3, fam)
        assert all(ok for _, ok in check_certificate(cert.as_dict(), fam))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 2**20


def _fails_hermite_form(change_last_row):
    # the sparse basis_m (m = 3) with its last row changed
    fam = family("mck", 3)
    doc = distinguish(1, 3, fam).as_dict()
    basis = doc["basis_m"]
    rows = list(basis.rows)
    rows[-1] = change_last_row(rows[-1], basis.dim)
    doc["basis_m"] = _linalg.SparseRows(basis.dim, rows)
    with pytest.raises(AssertionError) as err:
        check_certificate(doc, fam)
    return str(err.value) == "certificate replay failed at: basis 3 in Hermite form"


def test_sparse_row_with_a_column_outside_the_dimension_fails_hermite_form():
    assert _fails_hermite_form(lambda row, dim: {**row, dim: 1})
    assert _fails_hermite_form(lambda row, dim: {**row, dim + 5: 1})
    assert _fails_hermite_form(lambda row, dim: {-1: 1, **row})


def test_sparse_row_with_a_zero_entry_fails_hermite_form():
    assert _fails_hermite_form(lambda row, dim: {**row, max(row) + 1: 0})
    assert _fails_hermite_form(lambda row, dim: {min(row) - 1: 0, **row})


def test_sparse_rows_of_another_dimension_fail_hermite_form():
    fam = family("mck", 3)
    doc = distinguish(1, 3, fam).as_dict()
    basis = doc["basis_m"]
    doc["basis_m"] = _linalg.SparseRows(basis.dim + 1, basis.rows)
    with pytest.raises(AssertionError, match="basis 3 in Hermite form"):
        check_certificate(doc, fam)
