"""Acceptance suite: one test per criterion, every equality exact.

Each test prints a single PASS line on success; a failure fails the test.
Shared family data is computed once per session.
"""

import random
import re

import pytest

from monolab import schemas
from monolab._linalg import identity_matrix, smith_normal_form
from monolab.homology import basis_a, basis_b, fixed_subspace_dim, is_primitive
from monolab.invariants import (
    b1_homological,
    blowdown_parity_report,
    endo_signature,
    full_report,
)
from monolab.johnson import (
    check_certificate,
    commutator_tau,
    distinguish,
    reduce_to_quotient,
    sp_action_quotient,
    tau_word,
    _table,
)
from monolab.hurwitz import OrbitCertificate
from monolab.lattices import IntLattice, SublatticeBasis, enumerate_pattern
from monolab.scenarios import (
    CHAIN_TAU_SIGN,
    CurveTable,
    eta_matrix,
    family,
    mck_section_incidence,
)
from monolab.words import (
    TwistLetter,
    Word,
    elementary_transformation,
    partial_conjugation,
    sp_image,
    verify_factorization,
)
from helpers import random_positive_factorization, random_class
from oracles import embed_h


@pytest.fixture(scope="module")
def families():
    return {
        ("mck", 2): family("mck", 2),
        ("mck", 3): family("mck", 3),
        ("chain", 3): family("chain", 3),
    }


def test_criterion_01_mck_verification():
    for g in range(2, 7):
        fact = family("mck", g).base
        assert sp_image(fact.word).is_identity()
        half = Word(fact.letters[: 2 * g + 2], 2 * g)
        eta = eta_matrix(g)
        assert sp_image(half) == eta
        assert (eta @ eta).is_identity()
        assert fixed_subspace_dim(eta) == 2 * g
    print("ACCEPTANCE 1 (involution-family verification, g=2..6): PASS")


def test_criterion_02_invariant_table():
    for g in range(2, 6):
        fam = family("mck", g)
        for n in range(0, 11):
            rep = full_report(fam.spec(n))
            assert (rep.chi, rep.sigma, rep.b1, rep.b2_plus, rep.b2) == (
                8 - 4 * g, -4, 2 * g, 1, 6)
    print("ACCEPTANCE 2 (invariant table, g=2..5, n=0..10): PASS")


def test_criterion_03_blowdown_parity():
    for g in (2, 3):
        spec = family("mck", g).base_spec
        assert blowdown_parity_report(spec, mck_section_incidence(1)) == "even"
        assert blowdown_parity_report(spec, mck_section_incidence(2)) == "odd"
    print("ACCEPTANCE 3 (blowdown parity, both section systems, g=2,3): PASS")


def test_criterion_04_johnson_pipeline():
    for g in (2, 3):
        table = CurveTable("mck", g)
        genus = 2 * g
        fam = family("mck", g)
        v = fam.witness_class()  # internally cross-checks closed form vs pipeline
        assert is_primitive(v)
        from monolab.johnson import wedge3
        closed = reduce_to_quotient(
            wedge3(table.a[1], table.c[1], table.B[0])
            + wedge3(table.a[genus], table.c[genus - 1], table.B[0])
        )
        assert closed == v
        f = fam.twist
        k = Word([TwistLetter(table.B[0])], genus)
        for n in range(1, 9):
            assert commutator_tau(k, f, n) == n * v
    print("ACCEPTANCE 4 (witness class primitive, commutator linear, g=2,3): PASS")


def test_criterion_05_distinguishing_certificates(families):
    for g in (2, 3):
        fam = families[("mck", g)]
        deep_pairs = {(0, 1), (1, 2)}
        for n in range(0, 9):
            for m in range(n + 1, 9):
                cert = distinguish(n, m, fam)
                assert cert.content_n == n and cert.content_m == m
                checks = check_certificate(cert.as_dict(), fam,
                                           deep=(n, m) in deep_pairs)
                assert all(ok for _, ok in checks)
        assert distinguish(4, 4, fam) is None
    print("ACCEPTANCE 5 (certificates for 0<=n<m<=8 replayed, g=2,3): PASS")


def test_criterion_06_chain_family(families):
    for g in (3, 4):
        fam = family("chain", g)
        w = fam.witness_class()
        assert is_primitive(w)
        table = CurveTable("chain", g)
        f = fam.twist
        k4 = Word([TwistLetter(table.chain[4])], g)
        for n in range(0, 6):
            fact = fam.factorization(n)
            assert sp_image(fact.word).is_identity()
            spec = fam.spec(n)
            assert endo_signature(spec) == -12 * g * (g + 1)
            assert b1_homological(spec) == 0
            rep = full_report(spec)
            assert (rep.b2_plus, rep.b2_minus) == (
                6 * g * g - 2 * g + 1, 18 * g * g + 10 * g + 1)
            # one coherent global sign relates the commutator values to w
            assert commutator_tau(k4, f, n) == (CHAIN_TAU_SIGN * n) * w
    fam = families[("chain", 3)]
    cert = distinguish(2, 3, fam)
    assert (cert.content_n, cert.content_m) == (2, 3)
    print("ACCEPTANCE 6 (chain family invariants and witness, g=3,4, n=0..5): PASS")


def test_criterion_07_quotient_basis():
    for genus in (2, 3, 4):
        tab = _table(genus)
        cols = []
        for trip in tab.retained:
            col = [0] * tab.dim_wedge
            col[tab.triple_index[trip]] = 1
            cols.append(col)
        for j in range(2 * genus):
            i = (j // 2) + 1
            vec = basis_a(genus, i) if j % 2 == 0 else basis_b(genus, i)
            cols.append(list(embed_h(vec).coords))
            assert reduce_to_quotient(embed_h(vec)).is_zero()
        mat = [list(row) for row in zip(*cols)]
        _, d, _ = smith_normal_form(mat)
        assert all(d[i][i] == 1 for i in range(tab.dim_wedge))
    print("ACCEPTANCE 7 (quotient basis unimodular, kernel exact, G=2,3,4): PASS")


def test_criterion_08_lattice_enumeration():
    even = IntLattice([[0, 1], [1, 0]])
    hits = {tuple(map(tuple, t))
            for t in enumerate_pattern(even, [[0, 1], [1, 2]], 5)}
    sig, sph, both = (1, 0), (0, 1), (1, 1)
    neg = lambda v: tuple(-x for x in v)
    assert hits == {(sig, both), (neg(sig), neg(both)),
                    (sph, both), (neg(sph), neg(both))}
    odd = IntLattice([[1, 1], [1, 0]])
    hits = {tuple(map(tuple, t))
            for t in enumerate_pattern(odd, [[-1, 1], [1, 3]], 5)}
    first, sa, sb = (1, -1), (-3, 1), (1, 1)
    assert hits == {(first, sa), (neg(first), neg(sa)),
                    (first, sb), (neg(first), neg(sb))}
    print("ACCEPTANCE 8 (class-pattern enumeration exact in the +-5 box): PASS")


def test_criterion_09_property_suites():
    rng = random.Random(20260808)
    # 1000 randomized Hurwitz trials over genus 2 and 3
    for genus in (2, 3):
        for _ in range(500):
            fact = random_positive_factorization(rng, genus, rng.randint(2, 6))
            image = sp_image(fact.word)
            counts = (
                sum(1 for l in fact.letters if not l.separating),
                sorted(l.split for l in fact.letters if l.separating),
            )
            moved = elementary_transformation(
                fact, rng.randint(0, len(fact) - 2), rng.choice(("left", "right")))
            assert sp_image(moved.word) == image
            assert (
                sum(1 for l in moved.letters if not l.separating),
                sorted(l.split for l in moved.letters if l.separating),
            ) == counts
    # partial conjugation preserves the product under its checked precondition
    for _ in range(100):
        genus = rng.choice((2, 3))
        fact = random_positive_factorization(rng, genus, rng.randint(2, 6))
        k = rng.randint(1, len(fact))
        prefix = Word(fact.letters[len(fact) - k:], genus)
        conj = Word([TwistLetter(random_class(rng, genus),
                                 rng.choice((1, -1)))], genus)
        if sp_image(conj).commutes_with(sp_image(prefix)):
            out = partial_conjugation(fact, k, conj)
            assert sp_image(out.word) == fact.claimed_target
    # naturality of tau under randomized conjugators
    g = 2
    f = family("mck", g).twist
    for _ in range(60):
        letters = [TwistLetter(random_class(rng, 2 * g), rng.choice((1, -1)))
                   for _ in range(rng.randint(1, 3))]
        conj = Word(letters, 2 * g)
        assert tau_word(f.conjugated_by(conj)) == sp_action_quotient(
            sp_image(conj), tau_word(f))
    # SNF postconditions on randomized matrices up to 12 x 12
    for _ in range(40):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(mat)
        u = [list(r) for r in u]
        v = [list(r) for r in v]
        prod = [[sum(u[i][k] * mat[k][j] for k in range(rows)) for j in range(cols)]
                for i in range(rows)]
        prod = [[sum(prod[i][k] * v[k][j] for k in range(cols)) for j in range(cols)]
                for i in range(rows)]
        assert prod == [list(r) for r in d]
        # unimodular: the rows span the whole lattice
        assert SublatticeBasis(rows, u).rows == identity_matrix(rows)
        assert SublatticeBasis(cols, v).rows == identity_matrix(cols)
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i])
    print("ACCEPTANCE 9 (property suites, 1000+ randomized trials): PASS")


FORBIDDEN = re.compile(r"\b(equivalent|diffeomorphic)\b", re.IGNORECASE)


def _computed_strings(doc, path="root"):
    """All strings in computed fields of a report; 'cited' blocks excluded."""
    out = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key == "cited":
                continue
            out.extend(_computed_strings(value, path + "." + str(key)))
    elif isinstance(doc, list):
        for item in doc:
            out.extend(_computed_strings(item, path))
    elif isinstance(doc, str):
        out.append((path, doc))
    return out


def test_criterion_10_honest_verdicts(families):
    docs = []
    fam = families[("mck", 2)]
    docs.append(distinguish(1, 2, fam).as_dict())
    docs.append(full_report(family("mck", 2).spec(3)).as_dict())
    docs.append(verify_factorization(family("mck", 2).base))
    g = 2
    bad = Word([TwistLetter(basis_a(g, 1))], g)
    docs.append(verify_factorization(bad))
    from monolab.hurwitz import QuotientConfig, same_orbit, orbit_explore
    cfg = QuotientConfig(2, 4)
    f = family("mck", 2).base
    docs.append(same_orbit(f, f, cfg, 10).as_dict())
    docs.append(orbit_explore(f, cfg, 50).as_dict())
    spec = family("mck", 2).spec(1)
    docs.append(schemas.encode_fibration_spec(spec))
    for doc in docs:
        for path, text in _computed_strings(doc):
            hit = FORBIDDEN.search(text)
            assert hit is None, "forbidden claim %r at %s" % (hit and hit.group(0), path)
    # the certificate vocabulary is a closed enum
    with pytest.raises(ValueError):
        OrbitCertificate("equivalent", None, 0, 1)
    with pytest.raises(ValueError):
        OrbitCertificate("diffeomorphic", None, 0, 1)
    # grep-level scan of the package source for computed-fact vocabulary
    import monolab
    import os
    pkg_dir = os.path.dirname(monolab.__file__)
    for name in sorted(os.listdir(pkg_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg_dir, name), "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                if "verdict" in line and FORBIDDEN.search(line):
                    raise AssertionError(
                        "forbidden verdict vocabulary at %s:%d" % (name, lineno))
    print("ACCEPTANCE 10 (honest-verdict audit): PASS")


def test_criterion_11_mck_g5_certificate():
    # surface genus 10: the saturated lattices live in the 1120-dimensional
    # quotient
    fam = family("mck", 5)
    assert _table(fam.surface_genus).dim_quot == 1120
    cert = distinguish(1, 3, fam)
    assert (cert.content_n, cert.content_m) == (1, 3)
    checks = check_certificate(cert.as_dict(), fam, deep=True)
    assert all(ok for _, ok in checks)
    print("ACCEPTANCE 11 (mck g=5 certificate, n=1 vs m=3, deep replay): PASS")


def test_criterion_12_mck_g6_certificate():
    # surface genus 12, the top of MAX_QUOTIENT_GENUS: the saturated
    # lattices live in the 2000-dimensional quotient
    fam = family("mck", 6)
    assert _table(fam.surface_genus).dim_quot == 2000
    cert = distinguish(1, 3, fam)
    assert (cert.content_n, cert.content_m) == (1, 3)
    checks = check_certificate(cert.as_dict(), fam, deep=True)
    assert all(ok for _, ok in checks)
    assert "lattice stable under the action at 3" in [name for name, _ in checks]
    print("ACCEPTANCE 12 (mck g=6 certificate, n=1 vs m=3, deep replay): PASS")
