import random

import pytest
from hypothesis import given, settings, strategies as st

from monolab import hurwitz
from monolab.homology import HomologyClass, basis_a, basis_b, twist_coords, twist_matrix
from monolab.hurwitz import (
    OrbitCertificate,
    QuotientConfig,
    _pair_product,
    apply_move,
    canonical_form,
    invert_move,
    orbit_explore,
    reduce_factorization,
    same_orbit,
)
from monolab.scenarios import family
from monolab.words import PositiveFactorization, TwistLetter, Word, sp_image
from helpers import (
    elementary_transformation, mck_depth3_inputs, random_class, random_positive_factorization,
)


def _move_pair_cases():
    def case(g, m):
        residues = st.tuples(*[st.integers(0, m - 1)] * (2 * g))
        letter = st.tuples(residues, st.just(False), st.none())
        return st.tuples(st.just(m), letter, letter)
    return st.tuples(st.integers(1, 6), st.sampled_from((2, 3, 5, 7))).flatmap(
        lambda gm: case(*gm))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_move_pair_cases())
def test_move_pair_is_the_transvection_mod_m(case):
    # each reduced move twists one letter by the other: the integer
    # transvection of homology, sign convention included, reduced mod m
    m, u, v = case
    left = tuple(x % m for x in twist_coords(u[0], 1, v[0]))
    right = tuple(x % m for x in twist_coords(v[0], -1, u[0]))
    assert hurwitz._move_pair(u, v, "left", m) == ((left, False, None), u)
    assert hurwitz._move_pair(u, v, "right", m) == (v, (right, False, None))


def fact_of(letters, genus):
    word = Word(letters, genus)
    return PositiveFactorization(word, sp_image(word))


def forms(report):
    """The sorted canonical forms of the states a search reached."""
    unpack, cfg = report.letters.unpack, report.letters.cfg
    return tuple(sorted(canonical_form(unpack(s), cfg) for s in report.states))


def dense_product_mod(classes, g, m):
    """The written-order product of the right-handed twist matrices about
    ``classes``, as a dense mod-m product of twist_matrix rows."""
    n = 2 * g
    acc = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for coords in classes:
        t = [[x % m for x in r] for r in twist_matrix(HomologyClass(g, coords)).rows]
        acc = tuple(
            tuple(sum(acc[i][k] * t[k][j] for k in range(n)) % m for j in range(n))
            for i in range(n)
        )
    return acc


def test_pair_product_equals_the_dense_product_mod_m():
    rng = random.Random(71)
    for g in (1, 2, 3):
        for m in (2, 3, 5):
            zero = (0,) * (2 * g)
            for _ in range(10):
                cu, cv = (tuple(x % m for x in random_class(rng, g).coords)
                          for _ in range(2))
                for pair in ((cu, cv), (cu, zero), (zero, cv)):
                    flat = tuple(x for r in dense_product_mod(pair, g, m) for x in r)
                    assert _pair_product(*pair, g, m) == flat


def test_search_tables_are_bounded_per_search():
    # the ids of one search stay below the stated bound and fit the width
    # derived from it, and a search leaves no table behind in the module
    def module_tables():
        return {name for name, value in vars(hurwitz).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")}

    before = module_tables()
    fact = family("mck", 2).base
    n = len(fact.letters)
    tags = {(l.separating, l.split) for l in fact.letters}
    assert len(tags) == 2
    # (3, 1) and (257, 300) take the budget bound; (2, 300) and (3, 2000)
    # take the class count, 2 * 2^8 and 2 * 3^8 letters
    for m, budget in ((3, 1), (3, 300), (2, 300), (3, 2000), (257, 300)):
        report = orbit_explore(fact, QuotientConfig(m, 4), budget)
        table = report.letters
        bound = min(n + 2 * 2 * (n - 1) * budget, len(tags) * m ** 8)
        assert len(table.letters) <= bound <= 256 ** table.width
        assert 256 ** (table.width - 1) < bound
        assert all(len(state) == n * table.width for state in report.states)
        if m == 3 and budget == 2000:
            assert table.width == 2  # 3 bytes by the budget bound
    f1, f2 = mck_depth3_inputs()
    assert same_orbit(f1, f2, QuotientConfig(5, 4), 20000).verdict == "same-orbit"
    assert module_tables() == before == set()


def test_roots_with_two_separating_splits_stay_below_the_class_count():
    # every nonzero class mod 2 in genus 4 once, and a separating letter of
    # each split: 257 letters, more than the 2^8 classes of one tag, fewer
    # than the 3 * 2^8 of the roots' three tags
    g, m = 4, 2
    zero = HomologyClass(g, (0,) * 8)
    letters = [TwistLetter(HomologyClass(g, [(k >> i) & 1 for i in range(8)]))
               for k in range(1, 256)]
    letters += [TwistLetter(zero, 1, True, (1, 3)), TwistLetter(zero, 1, True, (2, 2))]
    fact = fact_of(letters, g)
    cfg = QuotientConfig(m, g)
    report = orbit_explore(fact, cfg, 20)
    table = report.letters
    assert 2 ** 8 < len(table.letters) <= 3 * 2 ** 8 <= 256 ** table.width
    assert table.width == 2
    assert all(len(state) == len(letters) * 2 for state in report.states)
    cert = same_orbit(fact, elementary_transformation(fact, 0, "left"), cfg, 20)
    assert cert.witness == ((0, "left"),)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(2, 6),
       st.sampled_from((2, 3, 5, 257)), st.lists(st.integers(0, 2 ** 16), max_size=8))
def test_a_move_code_and_its_flip_undo_each_other(seed, g, n, m, walk):
    # step(step(s, c), c ^ 1) == s for every code c at every state of a
    # random walk: same_orbit recovers each parent this way
    cfg = QuotientConfig(m, g)
    start = reduce_factorization(random_positive_factorization(random.Random(seed), g, n), cfg)
    table = hurwitz._Letters((start,), cfg, 1000)
    codes = range(2 * (n - 1))
    states = [table.pack(start)]
    for k in walk:
        states.append(table.step(states[-1], codes[k % len(codes)]))
    for state in states:
        for code in codes:
            assert table.step(table.step(state, code), code ^ 1) == state


def test_canonical_form_deterministic_and_injective():
    g = 2
    cfg = QuotientConfig(3, g)
    fact = fact_of([TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1))], g)
    s1 = reduce_factorization(fact, cfg)
    s2 = reduce_factorization(fact, cfg)
    assert canonical_form(s1, cfg) == canonical_form(s2, cfg)
    other = fact_of([TwistLetter(basis_b(g, 1)), TwistLetter(basis_a(g, 1))], g)
    assert canonical_form(reduce_factorization(other, cfg), cfg) != canonical_form(s1, cfg)


def test_reduction_residues():
    g = 2
    cfg = QuotientConfig(3, g)
    c = 4 * basis_a(g, 1) - basis_b(g, 2)
    state = reduce_factorization(fact_of([TwistLetter(c)], g), cfg)
    assert state[0][0] == (1, 0, 0, 2)


def test_moves_preserve_full_product_mod_m():
    rng = random.Random(61)
    g = 2
    cfg = QuotientConfig(5, g)
    for _ in range(20):
        fact = random_positive_factorization(rng, g, 5)
        state = reduce_factorization(fact, cfg)

        def product(st):
            return dense_product_mod([coords for coords, _, _ in st], g, cfg.modulus)

        base = product(state)
        for _ in range(10):
            move = (rng.randint(0, len(state) - 2), rng.choice(("left", "right")))
            state = apply_move(state, move, cfg)
            assert product(state) == base


def test_move_inverse():
    rng = random.Random(67)
    g = 2
    cfg = QuotientConfig(3, g)
    fact = random_positive_factorization(rng, g, 4)
    state = reduce_factorization(fact, cfg)
    move = (1, "left")
    assert apply_move(apply_move(state, move, cfg), invert_move(move), cfg) == state


def test_orbit_two_commuting_letters():
    g = 2
    cfg = QuotientConfig(3, g)
    fact = fact_of([TwistLetter(basis_a(g, 1)), TwistLetter(basis_a(g, 2))], g)
    report = orbit_explore(fact, cfg, 100)
    assert report.complete
    assert len(forms(report)) == 2
    same = fact_of([TwistLetter(basis_a(g, 1)), TwistLetter(basis_a(g, 1))], g)
    report = orbit_explore(same, cfg, 100)
    assert report.complete and len(forms(report)) == 1


def test_orbit_closure_members_stay_inside():
    # closedness oracle: applying every move to every member stays in the set
    g = 2
    cfg = QuotientConfig(2, g)
    fact = fact_of(
        [TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1)),
         TwistLetter(basis_a(g, 2))], g)
    report = orbit_explore(fact, cfg, 5000)
    assert report.complete
    # rebuild states by BFS to re-check closure independently
    from collections import deque
    start = reduce_factorization(fact, cfg)
    seen = {canonical_form(start, cfg): start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for pos in range(len(state) - 1):
            for direction in ("left", "right"):
                nxt = apply_move(state, (pos, direction), cfg)
                key = canonical_form(nxt, cfg)
                if key not in seen:
                    seen[key] = nxt
                    queue.append(nxt)
    assert set(seen) == set(forms(report))


def test_budget_truncation():
    cfg = QuotientConfig(3, 4)
    fact = family("mck", 2).base
    report = orbit_explore(fact, cfg, 50)
    assert not report.complete
    assert report.explored == 50


def test_truncated_explore_stops_at_the_first_state_that_does_not_fit(monkeypatch):
    # once a new state finds the seen set full, no later move can change
    # the report, so the search makes no further move
    from collections import deque
    cfg = QuotientConfig(3, 4)
    fact = family("mck", 2).base
    budget = 300
    calls = []
    step = hurwitz._Letters.step

    def counting(self, state, code):
        calls.append(code)
        return step(self, state, code)

    monkeypatch.setattr(hurwitz._Letters, "step", counting)
    report = orbit_explore(fact, cfg, budget)
    assert (report.complete, report.explored) == (False, budget)
    # the reference count: breadth-first over canonical forms, up to and
    # including the move whose new state did not fit
    start = reduce_factorization(fact, cfg)
    seen, queue, moves = {canonical_form(start, cfg)}, deque([start]), 0
    while queue and len(seen) <= budget:
        state = queue.popleft()
        for pos in range(len(state) - 1):
            for direction in ("left", "right"):
                nxt = apply_move(state, (pos, direction), cfg)
                moves += 1
                key = canonical_form(nxt, cfg)
                if key not in seen:
                    seen.add(key)
                    queue.append(nxt)
                if len(seen) > budget:
                    break
            if len(seen) > budget:
                break
    assert len(calls) == moves
    # expanding every seen state, as a search that runs on would, takes more
    assert len(calls) < budget * 2 * (len(start) - 1)


def _explore_on_letter_tuples(fact, cfg, budget):
    """Reference search: breadth first over letter tuples through the public
    ``apply_move``; returns (forms, explored, complete)."""
    from collections import deque
    start = reduce_factorization(fact, cfg)
    seen, queue, complete = {start}, deque([start]), True
    while queue and complete:
        state = queue.popleft()
        for pos in range(len(state) - 1):
            for direction in ("left", "right"):
                nxt = apply_move(state, (pos, direction), cfg)
                if nxt in seen:
                    continue
                if len(seen) >= budget:
                    complete = False
                    break
                seen.add(nxt)
                queue.append(nxt)
            if not complete:
                break
    forms = tuple(sorted(canonical_form(st, cfg) for st in seen))
    return forms, len(seen), complete


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 5),
       st.sampled_from((2, 3, 5, 257)), st.integers(1, 400))
def test_explore_equals_the_search_on_letter_tuples(seed, g, n, m, budget):
    fact = random_positive_factorization(random.Random(seed), g, n)
    cfg = QuotientConfig(m, g)
    report = orbit_explore(fact, cfg, budget)
    got = (forms(report), report.explored, report.complete)
    assert got == _explore_on_letter_tuples(fact, cfg, budget)


def test_explore_deterministic():
    cfg = QuotientConfig(3, 4)
    fact = family("mck", 2).base
    a = orbit_explore(fact, cfg, 300)
    b = orbit_explore(fact, cfg, 300)
    assert forms(a) == forms(b)


def test_mck_mod3_orbit_snapshot():
    # frozen regression numbers for a deterministic truncated exploration
    cfg = QuotientConfig(3, 4)
    report = orbit_explore(family("mck", 2).base, cfg, 2000)
    assert (report.explored, report.complete) == (2000, False)
    import hashlib
    digest = hashlib.sha256(b"".join(forms(report))).hexdigest()
    assert digest == SNAPSHOT_DIGEST


SNAPSHOT_DIGEST = "d4831aca47e1b489d15accd27dc02a2cef5c5f6835c9475bc478018b30c8980c"


def test_same_orbit_self_and_neighbor():
    g = 2
    cfg = QuotientConfig(3, g)
    fact = fact_of(
        [TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1)),
         TwistLetter(basis_a(g, 2))], g)
    cert = same_orbit(fact, fact, cfg, 100)
    assert cert.verdict == "same-orbit" and cert.witness == ()
    state = reduce_factorization(fact, cfg)
    moved = apply_move(state, (0, "left"), cfg)
    # rebuild a factorization whose reduction is the moved state
    fact2 = elementary_transformation(fact, 0, "left")
    cert = same_orbit(fact, fact2, cfg, 1000)
    assert cert.verdict == "same-orbit"
    assert len(cert.witness) >= 1


def test_same_orbit_letter_count_mismatch():
    g = 2
    cfg = QuotientConfig(3, g)
    f1 = fact_of([TwistLetter(basis_a(g, 1))], g)
    c = basis_a(g, 1)
    f2 = fact_of([TwistLetter(c), TwistLetter(c, 1)], g)
    cert = same_orbit(f1, f2, cfg, 100)
    assert cert.verdict == "distinct-in-budget"
    assert "invariant" in cert.reason


def test_same_orbit_unknown_on_budget():
    g = 2
    cfg = QuotientConfig(3, g)
    f1 = fact_of([TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1)),
                  TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1))], g)
    f2 = fact_of([TwistLetter(basis_b(g, 1)), TwistLetter(basis_a(g, 1)),
                  TwistLetter(basis_b(g, 1)), TwistLetter(basis_a(g, 1))], g)
    cert = same_orbit(f1, f2, cfg, 3)
    assert cert.verdict in ("unknown", "same-orbit")
    if cert.verdict == "unknown":
        assert cert.witness is None


def test_twisted_family_reduces_identically():
    # the conjugator acts trivially on homology, so the reduced words agree
    g = 2
    cfg = QuotientConfig(2, 2 * g)
    fam = family("mck", g)
    base = fam.base
    spec0, spec1 = fam.spec(0), fam.spec(1)
    f0 = fact_of(list(spec0.cycles), 2 * g)
    f1 = fact_of(list(spec1.cycles), 2 * g)
    cert = same_orbit(f0, f1, cfg, 10)
    assert cert.verdict == "same-orbit"
    assert cert.witness == ()


def test_witness_replay_validates():
    g = 2
    cfg = QuotientConfig(5, g)
    rng = random.Random(71)
    fact = random_positive_factorization(rng, g, 5)
    other = fact
    for _ in range(4):
        other = elementary_transformation(other, rng.randint(0, 3),
                                          rng.choice(("left", "right")))
    cert = same_orbit(fact, other, cfg, 20000)
    assert cert.verdict == "same-orbit"
    state = reduce_factorization(fact, cfg)
    for move in cert.witness:
        state = apply_move(state, move, cfg)
    assert canonical_form(state, cfg) == canonical_form(
        reduce_factorization(other, cfg), cfg)


def test_certificate_vocabulary():
    with pytest.raises(ValueError):
        OrbitCertificate("equivalent", None, 0, 1)
    cert = OrbitCertificate("unknown", None, 5, 10)
    doc = cert.as_dict()
    assert "not a proof of inequivalence" in doc["certification_level"]


@pytest.mark.parametrize("search", [orbit_explore, lambda f, cfg, b: same_orbit(f, f, cfg, b)])
def test_budget_above_the_cap_is_refused_before_any_state(monkeypatch, search):
    def no_state(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(hurwitz, "reduce_factorization", no_state)
    with pytest.raises(ValueError, match=r"budget 200001 is outside 1\.\.MAX_BUDGET = 200000"):
        search(family("mck", 2).base, QuotientConfig(3, 4), hurwitz.MAX_BUDGET + 1)


def test_same_orbit_budget_counts_both_roots():
    f1, f2 = mck_depth3_inputs()
    cfg = QuotientConfig(5, f1.genus)
    with pytest.raises(ValueError, match=r"budget 1 is below 2"):
        same_orbit(f1, f2, cfg, 1)
    for budget in (2, 3):
        for a, b in ((f1, f2), _alternating_inputs(), _neighbor_inputs()):
            cert = same_orbit(a, b, QuotientConfig(5, a.genus), budget)
            assert cert.explored <= budget
    # the two roots fill a budget of 2, so no state is expanded
    cert = same_orbit(f1, f2, cfg, 2)
    assert (cert.verdict, cert.explored) == ("unknown", 2)


def _replay_inputs():
    rng = random.Random(71)
    fact = random_positive_factorization(rng, 2, 5)
    other = fact
    for _ in range(4):
        other = elementary_transformation(other, rng.randint(0, 3),
                                          rng.choice(("left", "right")))
    return fact, other


def _neighbor_inputs():
    g = 2
    fact = fact_of(
        [TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1)),
         TwistLetter(basis_a(g, 2))], g)
    return fact, elementary_transformation(fact, 0, "left")


def _alternating_inputs():
    g = 2
    a, b = TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1))
    return fact_of([a, b, a, b], g), fact_of([b, a, b, a], g)


# (inputs, modulus, budget) -> (verdict, explored, witness), recorded from
# the search that keyed its seen sets on canonical_form bytes
PINNED_SEARCHES = [
    (_replay_inputs, 5, 20000,
     ("same-orbit", 96, ((0, "right"), (1, "left"), (2, "right"), (3, "left")))),
    (_neighbor_inputs, 3, 1000, ("same-orbit", 3, ((0, "left"),))),
    (lambda: _neighbor_inputs()[:1] * 2, 3, 100, ("same-orbit", 0, ())),
    (_alternating_inputs, 3, 3, ("unknown", 3, None)),
    (_alternating_inputs, 3, 100, ("unknown", 100, None)),
    (mck_depth3_inputs, 5, 20000,
     ("same-orbit", 332, ((5, "left"), (7, "left"), (9, "right")))),
    (mck_depth3_inputs, 5, 300, ("unknown", 300, None)),
]


@pytest.mark.parametrize("inputs,modulus,budget,expected", PINNED_SEARCHES)
def test_same_orbit_outputs_are_pinned(inputs, modulus, budget, expected):
    f1, f2 = inputs()
    cert = same_orbit(f1, f2, QuotientConfig(modulus, f1.genus), budget)
    assert (cert.verdict, cert.explored, cert.witness) == expected
