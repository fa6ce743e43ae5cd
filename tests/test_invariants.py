import random

import pytest

from monolab.homology import basis_a, zero_class
from monolab.invariants import (
    FibrationError,
    FibrationSpec,
    b1_homological,
    endo_signature,
    euler_characteristic,
    full_report,
)
from monolab.scenarios import family
from monolab.words import TwistLetter, Word, PositiveFactorization, sp_image
from helpers import elementary_transformation
from test_cli import blowdown_parity


def bundle_spec(h, sections=(0,)):
    return FibrationSpec(h, (), sections, hyperelliptic=True)


def test_euler_characteristic():
    for g in range(2, 6):
        assert euler_characteristic(family("mck", g).base_spec) == 8 - 4 * g
    for g in (3, 4):
        assert euler_characteristic(family("chain", g).spec(0)) == 24 * g * g + 8 * g + 4
    assert euler_characteristic(bundle_spec(3)) == 4 - 4 * 3


def test_endo_signature_values():
    for g in range(2, 7):
        assert endo_signature(family("mck", g).base_spec) == -4
    for g in (3, 4):
        assert endo_signature(family("chain", g).spec(0)) == -12 * g * (g + 1)
    assert endo_signature(bundle_spec(2)) == 0


def test_endo_signature_requires_hyperelliptic_structure():
    g = 2
    cycles = (TwistLetter(basis_a(2 * g, 1)),)
    spec = FibrationSpec(2 * g, cycles, (-1,), hyperelliptic=False)
    with pytest.raises(FibrationError):
        endo_signature(spec)


def test_endo_signature_via_reference():
    spec = family("mck", 2).spec(3)
    assert not spec.hyperelliptic
    assert spec.signature_reference is not None
    assert endo_signature(spec) == -4
    rep = full_report(spec)
    assert "reference" in rep["parity_notes"]


def test_endo_signature_non_integrality_is_an_error():
    # cycle data that no hyperelliptic factorization could produce makes the
    # formula non-integral, which must surface as an error, not a rounding
    refusal = "signature formula gave a non-integer; split data is malformed"
    weird = TwistLetter(zero_class(6), 1, separating=True, split=(1, 5))
    with pytest.raises(FibrationError, match=refusal):
        endo_signature(FibrationSpec(6, (weird,), (-1,), hyperelliptic=True))
    # h = 2 with one nonseparating cycle: sigma = -3/5, refused, not floored
    with pytest.raises(FibrationError, match=refusal):
        endo_signature(FibrationSpec(2, (TwistLetter(basis_a(2, 1)),), (-1,),
                                     hyperelliptic=True))


def test_b1_homological():
    for g in (2, 3, 4):
        assert b1_homological(family("mck", g).base_spec) == 2 * g
    for g in (3, 4):
        assert b1_homological(family("chain", g).spec(0)) == 0
    assert b1_homological(family("chain", 4).spec(7)) == 0
    assert b1_homological(bundle_spec(3, (0,))) == 6
    with pytest.raises(FibrationError):
        b1_homological(FibrationSpec(2, (), (), hyperelliptic=True))


def test_full_report_mck():
    rep = full_report(family("mck", 2).base_spec)
    assert (rep["chi"], rep["sigma"], rep["b1"], rep["b2_plus"], rep["b2_minus"]) == (
        0, -4, 4, 1, 5)
    assert rep["b2"] == 6
    rep = full_report(family("mck", 3).spec(4))
    assert (rep["chi"], rep["sigma"], rep["b1"], rep["b2_plus"], rep["b2"]) == (-4, -4, 6, 1, 6)


def test_full_report_chain():
    rep = full_report(family("chain", 3).spec(0))
    assert (rep["b2_plus"], rep["b2_minus"]) == (49, 193)
    rep = full_report(family("chain", 4).spec(2))
    assert (rep["b2_plus"], rep["b2_minus"]) == (6 * 16 - 8 + 1, 18 * 16 + 40 + 1)


def test_full_report_surface_bundle():
    rep = full_report(bundle_spec(3, (0,)))
    assert rep["sigma"] == 0
    assert rep["b1"] == 6
    assert rep["chi"] == -8


def test_report_identities_always_hold():
    rng = random.Random(51)
    specs = [family("mck", 2).base_spec, family("mck", 3).base_spec,
             family("chain", 3).spec(1), family("mck", 2).spec(7)]
    for spec in specs:
        rep = full_report(spec)
        assert rep["chi"] == 2 - 2 * rep["b1"] + rep["b2"]
        assert rep["sigma"] == rep["b2_plus"] - rep["b2_minus"]


def test_signature_invariant_under_hurwitz_moves():
    rng = random.Random(53)
    g = 2
    spec = family("mck", g).base_spec
    word = Word(spec.cycles, 2 * g)
    fact = PositiveFactorization(word, sp_image(word))
    for _ in range(30):
        pos = rng.randint(0, len(fact) - 2)
        fact = elementary_transformation(fact, pos, rng.choice(("left", "right")))
    moved = FibrationSpec(2 * g, fact.letters, (-1,) * 4, hyperelliptic=True)
    assert endo_signature(moved) == endo_signature(spec)
    assert euler_characteristic(moved) == euler_characteristic(spec)


def test_blowdown_parity_toy(tmp_path, capsys):
    # one fiber component meeting one (-1)-section: complement square 0
    assert blowdown_parity(tmp_path, capsys, [(1,)]) == "even"
    # meeting no section leaves the square -1 component in the complement
    assert blowdown_parity(tmp_path, capsys, [(0,)]) == "odd"


def numbers(report):
    return tuple(report[k] for k in ("chi", "sigma", "b1", "b2", "b2_plus", "b2_minus"))


def test_invariants_independent_of_n():
    for g in (2, 3):
        base = numbers(full_report(family("mck", g).base_spec))
        for n in range(0, 8):
            assert numbers(full_report(family("mck", g).spec(n))) == base
