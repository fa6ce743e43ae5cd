import pytest

from monolab import _linalg, johnson, scenarios
from monolab.homology import basis_a, basis_b, fixed_subspace_dim, is_primitive
from monolab.johnson import (
    commutator_tau,
    reduce_to_quotient,
    saturate,
    tau_word,
    wedge3,
)
from monolab.scenarios import (
    CHAIN_TAU_SIGN,
    CurveTable,
    ScenarioValidationError,
    eta_matrix,
    family,
    _mck_vectors,
)
from monolab.words import TwistLetter, Word, sp_image, verify_factorization


def test_transcription_validates_for_all_desk_parameters():
    for g in range(2, 7):
        table = CurveTable("mck", g)
        assert all(ok for _, ok in table.checks)
    for g in range(2, 6):
        table = CurveTable("chain", g)
        assert all(ok for _, ok in table.checks)


def test_validation_catches_corruption(monkeypatch):
    import monolab.scenarios as sc
    good = _mck_vectors(2)
    bad = [list(v) for v in good]
    bad[3][0] += 1
    monkeypatch.setattr(sc, "_mck_vectors", lambda g: bad if g == 2 else _mck_vectors(g))
    with pytest.raises(ScenarioValidationError):
        CurveTable("mck", 2)


def test_eta_matrix_properties():
    for g in (1, 2, 3, 4):
        eta = eta_matrix(g)
        assert (eta @ eta).is_identity()
        assert eta.is_symplectic()
        assert fixed_subspace_dim(eta) == 2 * g
        genus = 2 * g
        for i in range(1, genus + 1):
            assert eta.apply(basis_a(genus, i)) == -basis_a(genus, genus + 1 - i)
            assert eta.apply(basis_b(genus, i)) == -basis_b(genus, genus + 1 - i)


def test_mck_factorization_verifies():
    for g in (2, 3, 4):
        fact = family("mck", g).base
        assert len(fact) == 4 * g + 4
        report = verify_factorization(fact)
        assert report["verdict"] == "PASS"
        half = Word(fact.letters[: 2 * g + 2], 2 * g)
        assert sp_image(half) == eta_matrix(g)


def test_mck_spec():
    spec = family("mck", 2).base_spec
    assert spec.sections == (-1, -1, -1, -1)
    assert spec.hyperelliptic
    assert len(spec.cycles) == 12
    with pytest.raises(ValueError):
        family("mck", 1).base_spec


def test_torelli_f_values():
    for g in (2, 3):
        table = CurveTable("mck", g)
        genus = 2 * g
        f = family("mck", g).twist
        expected = reduce_to_quotient(
            wedge3(table.a[1], table.b[1], table.c[1])
            + wedge3(table.a[genus], table.b[genus], table.c[genus - 1])
        )
        assert tau_word(f) == expected
    for g in (3, 4):
        table = CurveTable("chain", g)
        f = family("chain", g).twist
        assert tau_word(f) == reduce_to_quotient(
            wedge3(table.a[1], table.b[1], table.b[2])
        )


def test_torelli_f_literal_word_is_sp_trivial():
    for g in (2, 3):
        assert sp_image(family("mck", g).twist_word).is_identity()
        assert sp_image(family("mck", g).twist.twist_word()).is_identity()


def test_twisted_mck_letters_equal_base():
    # the conjugator is Torelli, so the homology letters cannot move
    for g in (2, 3):
        fam = family("mck", g)
        base = fam.base_spec
        for n in (0, 1, 5):
            spec = fam.spec(n)
            assert spec.cycles == base.cycles
            assert spec.sections == base.sections
    assert family("mck", 2).spec(0).hyperelliptic
    assert not family("mck", 2).spec(1).hyperelliptic


def test_f_power_fixes_letter_classes():
    g = 2
    table = CurveTable("mck", g)
    m = sp_image(family("mck", g).twist_word.power(5))
    assert m.is_identity()
    assert m.apply(table.B[0]) == table.B[0]


def test_eta_action_example():
    g = 2
    table = CurveTable("mck", g)
    genus = 2 * g
    from monolab.johnson import sp_action_quotient
    lhs = sp_action_quotient(
        eta_matrix(g),
        reduce_to_quotient(wedge3(table.a[1], table.b[1], table.c[1])),
    )
    rhs = reduce_to_quotient(
        wedge3(table.a[genus], table.b[genus], table.c[genus - 1])
    )
    assert lhs == rhs


def test_v_class_primitive_and_linear():
    for g in (2, 3):
        fam = family("mck", g)
        v = fam.witness_class()
        assert is_primitive(v)
        table = CurveTable("mck", g)
        f = fam.twist
        k = Word([TwistLetter(table.B[0])], 2 * g)
        for n in range(1, 9):
            assert commutator_tau(k, f, n) == n * v


def test_w_class_primitive_and_linear_up_to_recorded_sign():
    for g in (3, 4):
        fam = family("chain", g)
        w = fam.witness_class()
        assert is_primitive(w)
        table = CurveTable("chain", g)
        f = fam.twist
        k4 = Word([TwistLetter(table.chain[4])], g)
        for n in range(1, 7):
            assert commutator_tau(k4, f, n) == (CHAIN_TAU_SIGN * n) * w
        # every other chain letter commutes with the twist at this level
        for i in (1, 2, 3, 5, 6):
            ki = Word([TwistLetter(table.chain[i])], g)
            assert commutator_tau(ki, f, 3).is_zero()


def test_chain_family_builds_and_verifies():
    fact = family("chain", 3).factorization(0)
    assert len(fact) == 12 * 3 * 7
    assert verify_factorization(fact)["verdict"] == "PASS"
    block = Word(fact.letters[: 6], 3)
    m = sp_image(block)
    power = m
    order = 1
    while not power.is_identity():
        power = power @ m
        order += 1
        assert order <= 14
    assert 14 % order == 0
    spec = family("chain", 3).spec(2)
    assert spec.sections == (-3,)
    assert not spec.hyperelliptic
    with pytest.raises(ValueError):
        family("chain", 2).spec(0)


def test_family_seed_lattices():
    fam = family("mck", 2)
    gens = fam.action_generators()
    for n in (1, 2, 3):
        seeds = fam.seed_classes(n)
        basis = saturate(seeds, gens)
        assert basis.content() == n
        # containment of n * v, and seeds are n times integer classes
        v = fam.witness_class()
        assert basis.member(tuple(n * x for x in v.coords))
        for s in seeds:
            assert all(c % n == 0 for c in s.coords)
    chain_fam = family("chain", 3)
    basis = saturate(chain_fam.seed_classes(2), chain_fam.action_generators())
    assert basis.content() == 2


def test_seed_classes_match_the_literal_commutator_pipeline():
    # seed_classes(n) scales the unit seeds by n (tau is a homomorphism on
    # the Torelli group); commutator_tau at n replays the literal word
    for kind, g in (("mck", 2), ("mck", 3), ("chain", 3)):
        fam = family(kind, g)
        for n in (0, 1, 3, 7):
            assert fam.seed_classes(n) == [
                commutator_tau(Word([l], fam.surface_genus), fam.twist, n)
                for l in fam.base_letters
            ], (kind, g, n)


def test_unit_seeds_match_commutator_tau():
    # the seeds come from the twist columns; commutator_tau transports tau(f),
    # tau(k^-1 f k) and the literal word, and is the oracle here
    for kind, gs in (("mck", (2, 3, 4)), ("chain", (3, 4, 5))):
        for g in gs:
            fam = family(kind, g)
            assert fam.unit_seeds == [commutator_tau(Word([l], fam.surface_genus), fam.twist, 1)
                                      for l in fam.base_letters], (kind, g)


def test_unit_seeds_check_a_sign_flipped_contraction(monkeypatch):
    real = johnson._TwistDelta.__init__

    def flipped(self, genus, coords, power):
        real(self, genus, coords, power)
        self.s = [-x for x in self.s]

    monkeypatch.setattr(johnson._TwistDelta, "__init__", flipped)
    with pytest.raises(AssertionError, match="formula and literal word disagree"):
        family("mck", 3).unit_seeds


def test_unit_seeds_check_a_dropped_pair_column(monkeypatch):
    # only a pair column that the contraction of tau(f) reaches enters a
    # seed, so that is the one dropped (applying the operator to tau(f)
    # fills exactly those); dropping an arbitrary column can go unnoticed
    real = johnson._TwistDelta.__init__
    fam = family("mck", 3)
    tau_f = _linalg.sparse(tau_word(fam.twist).coords)

    def dropped(self, genus, coords, power):
        real(self, genus, coords, power)
        self(tau_f)
        reached = [k for k, col in self.items() if col]
        self.clear()
        if reached:
            self[min(reached)] = ()

    monkeypatch.setattr(johnson._TwistDelta, "__init__", dropped)
    with pytest.raises(AssertionError, match="formula and literal word disagree"):
        fam.unit_seeds


def test_saturation_scaling_oracle():
    # closure at parameter n equals n times the closure at parameter one,
    # each computed on its own; n = 0 is the zero lattice, with no rows
    for kind, g in (("mck", 2), ("chain", 3)):
        fam = family(kind, g)
        gens = fam.action_generators()
        base = saturate(fam.seed_classes(1), gens)
        for n in (0, 2, 5):
            scaled = saturate(fam.seed_classes(n), gens)
            want = tuple(tuple(n * x for x in r) for r in base.rows) if n else ()
            assert scaled.rows == want, (kind, g, n)
            assert base.scaled(n) == scaled, (kind, g, n)


def test_single_seed_orbit_lattice_content():
    # the orbit lattice of n*v alone already has content exactly n
    fam = family("mck", 2)
    gens = fam.action_generators()
    v = fam.witness_class()
    base = saturate([v], gens)
    assert base.content() == 1
    for n in (2, 3, 7):
        scaled = saturate([n * v], gens)
        assert scaled.content() == n
        assert scaled.rows == tuple(tuple(n * x for x in r) for r in base.rows)


def test_global_conjugation_of_base_by_twist():
    g = 2
    fact = family("mck", g).base
    conj = family("mck", g).twist_word
    from monolab.words import global_conjugation
    out = global_conjugation(fact, conj)
    assert sp_image(out.word) == fact.claimed_target
    assert out.letters == fact.letters


def test_mck_rejects_small_genus():
    with pytest.raises(ValueError):
        family("mck", 1).twist
    with pytest.raises(ValueError):
        family("mck", 2).spec(-1)
