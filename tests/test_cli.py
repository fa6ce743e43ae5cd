import hashlib
import importlib.util
import json
import os
import random
import re
import subprocess
import sys

import pytest

import monolab
from monolab import cli, hurwitz, invariants, johnson, lattices, scenarios, schemas, words
from monolab.homology import basis_a, basis_b
from monolab.scenarios import family
from monolab.words import TwistLetter, Word, sp_image
from helpers import encode_torelli_word, mck_depth3_inputs, random_class, twist_word


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def mck_fact_doc(g=2, n=0):
    spec = family("mck", g).spec(n)
    word = Word(spec.cycles, 2 * g)
    return schemas.encode_factorization(word)


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == cli.EX_UNKNOWN_COMMAND
    assert "unknown subcommand" in err
    # no subcommand at all: the usage goes to stderr, stdout stays empty
    code, out, err = run_cli([], capsys)
    assert code == cli.EX_UNKNOWN_COMMAND
    assert "usage: monolab" in err and out == ""


def test_missing_file(capsys):
    code, _, err = run_cli(["verify", "/nonexistent/file.json"], capsys)
    assert code == cli.EX_NO_INPUT


def test_unreadable_input_path_exits_66_naming_it(tmp_path, capsys, monkeypatch):
    # a directory, a file used as a directory, and a file open() refuses
    afile = write_json(tmp_path, "f.json", {})
    for argv, path in ((["lattice", "sig", str(tmp_path)], str(tmp_path)),
                       (["hurwitz", "explore", str(tmp_path), "--mod", "3"], str(tmp_path)),
                       (["verify", afile + "/x"], afile + "/x")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EX_NO_INPUT, ""), argv
        assert "cannot read input file: %s" % path in err, argv

    def refused(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refused, raising=False)
    code, out, err = run_cli(["lattice", "sig", afile], capsys)
    assert (code, out) == (cli.EX_NO_INPUT, "")
    assert "cannot read input file: %s (Permission denied)" % afile in err


def test_non_utf8_input_exits_2_naming_the_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema": "caf\xe9"}')
    for argv in (["lattice", "sig", str(path)], ["hurwitz", "explore", str(path), "--mod", "3"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), argv
        assert "%s: not UTF-8 text" % path in err, argv


def test_repeated_flag_is_refused(tmp_path, capsys):
    path = write_json(tmp_path, "mck.json", mck_fact_doc())
    for argv, flag in ((["hurwitz", "explore", path, "--mod", "3", "--mod", "4"], "--mod"),
                       (["hurwitz", "explore", path, "--mod", "3", "--json", "--json"],
                        "--json")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), argv
        assert "flag %s given twice" % flag in err, argv


def test_schema_error_exit_code(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", {"schema": "other/9"})
    code, _, err = run_cli(["verify", path], capsys)
    assert code == cli.EX_SCHEMA
    assert "schema" in err


def test_schema_error_names_the_bad_letter(tmp_path, capsys):
    doc = {"schema": schemas.SCHEMA, "type": "factorization", "genus": 2,
           "letters": [{"coords": [0, 0, 0, 0], "power": 1,
                        "separating": False, "split": None}],
           "target": "identity"}
    path = write_json(tmp_path, "bad.json", doc)
    code, _, err = run_cli(["verify", path], capsys)
    assert code == cli.EX_SCHEMA
    assert "letters[0]" in err


def test_verify_pass(tmp_path, capsys):
    path = write_json(tmp_path, "mck.json", mck_fact_doc())
    code, out, _ = run_cli(["verify", path], capsys)
    assert code == 0
    assert "Sp-level identity: PASS" in out
    assert "necessary but not sufficient" in out


def test_verify_fail_still_exit_zero(tmp_path, capsys):
    g = 2
    word = Word([TwistLetter(basis_a(g, 1))], g)
    path = write_json(tmp_path, "one.json", schemas.encode_factorization(word))
    code, out, _ = run_cli(["verify", path], capsys)
    assert code == 0
    assert "FAIL" in out


def test_invariants_file_and_flags(tmp_path, capsys):
    spec_doc = schemas.encode_fibration_spec(family("mck", 2).base_spec)
    path = write_json(tmp_path, "spec.json", spec_doc)
    code, out, _ = run_cli(["invariants", path], capsys)
    assert code == 0
    assert "b2_plus   1" in out
    code, out2, _ = run_cli(["invariants", "--family", "mck", "--genus", "2",
                             "--n", "0"], capsys)
    assert code == 0
    assert out2 == out
    # --table was never read, and is gone
    code, out, err = run_cli(["invariants", "--family", "mck", "--genus", "2",
                              "--table"], capsys)
    assert code == cli.EX_SCHEMA
    assert "unknown flag --table" in err and out == ""


def test_a_spec_whose_b2_and_sigma_differ_in_parity_exits_3(tmp_path, capsys):
    # genus 1, cycles a, b, a: chi = 3, sigma = -2, b1 = 0, so b2 + sigma = -1
    a, b = TwistLetter(basis_a(1, 1)), TwistLetter(basis_b(1, 1))
    spec = invariants.FibrationSpec(1, [a, b, a], [-1], hyperelliptic=True)
    path = write_json(tmp_path, "spec.json", schemas.encode_fibration_spec(spec))
    code, out, err = run_cli(["invariants", path], capsys)
    assert (code, out) == (cli.EX_PRECONDITION, "")
    assert "b2 and sigma have different parity" in err


def test_invariants_grid_csv(capsys):
    code, out, _ = run_cli(["invariants", "--family", "mck",
                            "--grid", "2..3,0..1", "--csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,g,n,chi,sigma,b1,b2_plus,b2_minus"
    assert "mck,2,0,0,-4,4,1,5" in lines
    assert len(lines) == 1 + 2 * 2


def test_distinguish_text_and_json(capsys):
    code, out, _ = run_cli(["distinguish", "--family", "mck", "--genus", "2",
                            "--n", "1", "--m", "2"], capsys)
    assert code == 0
    assert "d_1 = 1" in out and "d_2 = 2" in out
    code, out, _ = run_cli(["distinguish", "--family", "mck", "--genus", "2",
                            "--n", "1", "--m", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["content_m"] == 2
    code, out, _ = run_cli(["distinguish", "--family", "mck", "--genus", "2",
                            "--n", "3", "--m", "3"], capsys)
    assert code == 0
    assert "no certificate" in out
    assert "not claimed" in out
    # the untwisted member has the zero lattice, content zero
    code, out, _ = run_cli(["distinguish", "--family", "chain", "--genus", "3",
                            "--n", "0", "--m", "1"], capsys)
    assert code == 0
    assert "d_0 = 0" in out and "d_1 = 1" in out


def test_conjugate_partial(tmp_path, capsys):
    g = 2
    fact_path = write_json(tmp_path, "fact.json", mck_fact_doc())
    table_word = twist_word(family("mck", g).twist)
    word_path = write_json(tmp_path, "word.json", schemas.encode_word(table_word))
    code, out, _ = run_cli(["conjugate", fact_path, "--word", word_path,
                            "--prefix", str(2 * g + 2)], capsys)
    assert code == 0
    doc = json.loads(out)
    word, target = schemas.decode_factorization(doc)
    assert sp_image(word) == target


def test_conjugate_precondition_failure(tmp_path, capsys):
    g = 2
    word = Word([TwistLetter(basis_a(g, 1)), TwistLetter(basis_b(g, 1))], g)
    fact_doc = schemas.encode_factorization(word, sp_image(word))
    fact_path = write_json(tmp_path, "f.json", fact_doc)
    conj = Word([TwistLetter(basis_b(g, 1))], g)
    word_path = write_json(tmp_path, "w.json", schemas.encode_word(conj))
    code, _, err = run_cli(["conjugate", fact_path, "--word", word_path], capsys)
    assert code == cli.EX_PRECONDITION
    assert "commute" in err


def test_hurwitz_cli(tmp_path, capsys):
    path = write_json(tmp_path, "mck.json", mck_fact_doc())
    code, out, _ = run_cli(["hurwitz", "explore", path, "--mod", "2",
                            "--budget", "200"], capsys)
    assert code == 0
    assert "orbit_size" in out
    code, out, _ = run_cli(["hurwitz", "compare", path, path, "--mod", "2",
                            "--budget", "10"], capsys)
    assert code == 0
    assert "same-orbit" in out


def test_lattice_cli(tmp_path, capsys):
    gram = {"schema": schemas.SCHEMA, "type": "gram", "matrix": [[0, 1], [1, 0]]}
    path = write_json(tmp_path, "u.json", gram)
    code, out, _ = run_cli(["lattice", "sig", path], capsys)
    assert code == 0
    assert "signature  0" in out
    code, out, _ = run_cli(["lattice", "parity", path], capsys)
    assert out.strip() == "even"
    code, out, _ = run_cli(["lattice", "enumerate", path, "--pattern",
                            "[[0,1],[1,2]]", "--bound", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["tuples"]) == 4
    assert "complete within box" in doc["completeness"]


def test_lattice_classification_note_is_labelled(tmp_path, capsys):
    gram = {"schema": schemas.SCHEMA, "type": "gram",
            "matrix": [[1, 0], [0, -1]]}
    path = write_json(tmp_path, "odd.json", gram)
    code, out, _ = run_cli(["lattice", "sig", path, "--json"], capsys)
    doc = json.loads(out)
    assert "cited classification, not computed" in doc["classification_note"]


def test_scenario_emits_valid_spec(tmp_path, capsys):
    code, out, _ = run_cli(["scenario", "mck", "--genus", "2", "--n", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    spec = schemas.decode_fibration_spec(doc)
    assert spec.fiber_genus == 4
    code, out, _ = run_cli(["scenario", "curves", "--context", "chain",
                            "--genus", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert all(item["ok"] for item in doc["validation"])


def test_scenario_precondition(capsys):
    code, _, err = run_cli(["scenario", "mck", "--genus", "1"], capsys)
    assert code == cli.EX_PRECONDITION


def test_deterministic_output(capsys):
    argv = ["distinguish", "--family", "chain", "--genus", "3",
            "--n", "1", "--m", "3", "--json"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_johnson_cli(tmp_path, capsys):
    tw = family("mck", 2).twist
    path = write_json(tmp_path, "tw.json", encode_torelli_word(tw))
    code, out, _ = run_cli(["johnson", path], capsys)
    assert code == 0
    assert "primitive: True" in out
    code, out, _ = run_cli(["johnson", path, "--json"], capsys)
    doc = json.loads(out)
    assert doc["nonzero"] is True and doc["content"] == 1


def test_roundtrips():
    tw = family("mck", 2).twist
    assert schemas.decode_torelli_word(encode_torelli_word(tw)).factors == tw.factors
    spec = family("mck", 2).spec(1)
    spec2 = schemas.decode_fibration_spec(schemas.encode_fibration_spec(spec))
    assert spec2.cycles == spec.cycles
    assert spec2.signature_reference.cycles == spec.signature_reference.cycles
    g = 2
    word = Word([TwistLetter(basis_a(g, 1), -1)], g)
    assert schemas.decode_word(schemas.encode_word(word)) == word


def test_hurwitz_jobs_flag_is_unknown(tmp_path, capsys):
    path = write_json(tmp_path, "mck.json", mck_fact_doc())
    code, out, err = run_cli(["hurwitz", "explore", path, "--mod", "2",
                              "--jobs", "2"], capsys)
    assert code == cli.EX_SCHEMA
    assert "--jobs" in err
    assert out == ""


def test_quotient_genus_is_bounded(tmp_path, capsys):
    # refused before the quotient table is built: C(2G, 3) triples at genus G
    bound = johnson.MAX_QUOTIENT_GENUS
    g = bound // 2 + 1  # the smallest mck parameter past the bound
    code, out, err = run_cli(["distinguish", "--family", "mck", "--genus", str(g),
                              "--n", "1", "--m", "2"], capsys)
    assert code == cli.EX_PRECONDITION
    assert "genus %d exceeds MAX_QUOTIENT_GENUS = %d" % (2 * g, bound) in err
    assert out == ""
    genus = bound + 1
    gen = johnson.BoundingPairGen(basis_b(genus, 2),
                                  [(basis_a(genus, 1), basis_b(genus, 1))])
    tw = johnson.TorelliWord([(Word((), genus), gen, 1)])
    path = write_json(tmp_path, "tw.json", encode_torelli_word(tw))
    code, out, err = run_cli(["johnson", path, "--json"], capsys)
    assert code == cli.EX_PRECONDITION
    assert "genus %d exceeds MAX_QUOTIENT_GENUS" % genus in err
    assert out == ""


def test_torelli_side_vector_of_wrong_length_is_named(tmp_path, capsys):
    doc = encode_torelli_word(family("mck", 2).twist)
    doc["factors"][0]["generator"]["side"][0][1] = [0, 1, 0]
    path = write_json(tmp_path, "tw.json", doc)
    code, out, err = run_cli(["johnson", path], capsys)
    assert code == cli.EX_SCHEMA
    assert "torelli_word.factors[0].generator.side[0][1]" in err
    assert out == ""


def test_torelli_generator_class_of_wrong_length_is_named(tmp_path, capsys):
    doc = encode_torelli_word(family("mck", 2).twist)
    doc["factors"][0]["generator"]["cls"] = [0, 0, 1]
    path = write_json(tmp_path, "tw.json", doc)
    code, out, err = run_cli(["johnson", path], capsys)
    assert (code, out) == (cli.EX_SCHEMA, "")
    assert "error: torelli_word.factors[0].generator.cls: expected 8 entries" in err


def test_a_decode_error_names_the_field_then_the_file(tmp_path, capsys):
    good = write_json(tmp_path, "f1.json", mck_fact_doc())
    doc = mck_fact_doc()
    doc["letters"][1]["coords"] = [0, 1]
    bad = write_json(tmp_path, "f2.json", doc)
    word = write_json(tmp_path, "w.json", schemas.encode_word(Word((), 4)))
    bad_word = write_json(tmp_path, "w2.json", {**schemas.encode_word(Word((), 4)),
                                                "genus": "4"})
    coords = "error: factorization.letters[1].coords: expected 8 entries (in %s)\n" % bad
    for argv, message in (
            (["hurwitz", "compare", good, bad, "--mod", "3"], coords),
            (["conjugate", bad, "--word", word], coords),
            (["conjugate", good, "--word", bad_word],
             "error: word.genus: expected an integer (in %s)\n" % bad_word)):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (cli.EX_SCHEMA, "", message), argv


def test_a_classes_file_without_a_vectors_list_is_named(tmp_path, capsys):
    path = _gram_path(tmp_path)
    for doc in ({"vectors": 5}, [1], {}):
        classes = write_json(tmp_path, "c.json", doc)
        code, out, err = run_cli(["lattice", "complement", path, "--classes", classes],
                                 capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), doc
        assert err == ("error: classes.vectors: expected a list of integer lists (in %s)\n"
                       % classes), doc


def _gram_path(tmp_path):
    gram = {"schema": schemas.SCHEMA, "type": "gram", "matrix": [[0, 1], [1, 0]]}
    return write_json(tmp_path, "u.json", gram)


def test_lattice_enumerate_pattern_must_be_a_square_integer_matrix(tmp_path, capsys):
    path = _gram_path(tmp_path)
    for pattern, field in (("5", "--pattern"), ("[[0,1]]", "--pattern[0]"),
                           ('[[0,"x"],[1,0]]', "--pattern[0]"),
                           ("[[0,1],[1]]", "--pattern[1]")):
        code, out, err = run_cli(["lattice", "enumerate", path, "--pattern", pattern],
                                 capsys)
        assert code == cli.EX_SCHEMA, pattern
        assert "error: %s:" % field in err
        assert out == ""


def test_lattice_complement_classes_must_match_the_rank(tmp_path, capsys):
    path = _gram_path(tmp_path)
    for vectors in ([[1, 0, 0]], [[1]], [[1, "x"]], [5]):
        classes = write_json(tmp_path, "c.json", {"vectors": vectors})
        code, out, err = run_cli(["lattice", "complement", path, "--classes", classes],
                                 capsys)
        assert code == cli.EX_SCHEMA, vectors
        assert "classes.vectors[0]" in err
        assert out == ""


def test_invariants_grid_failure_leaves_stdout_empty(capsys):
    # the chain family needs g >= 3, so the first row fails
    code, out, err = run_cli(["invariants", "--grid", "2..3,0..1", "--family", "chain",
                              "--csv"], capsys)
    assert code == cli.EX_PRECONDITION
    assert out == ""
    code, out, err = run_cli(["invariants", "--grid", "3..3,0..0", "--family", "cycle"],
                             capsys)
    assert code == cli.EX_SCHEMA
    assert "unknown family" in err and out == ""


@pytest.mark.parametrize("argv, message", [
    (["invariants", "--family", "chain", "--genus", "2"], "--genus: need g >= 3"),
    (["invariants", "--family", "mck", "--genus", "2", "--n", "-1"], "--n: need n >= 0"),
    (["invariants", "--family", "mck", "--grid", "1..2,0..1"], "--grid: need g >= 2"),
    (["invariants", "--family", "mck", "--grid", "2..2,-1..1"], "--grid: need n >= 0"),
    (["distinguish", "--family", "chain", "--genus", "2", "--n", "1", "--m", "3"],
     "--genus: need g >= 3"),
    (["distinguish", "--family", "mck", "--genus", "2", "--n", "-1", "--m", "3"],
     "--n: need n >= 0"),
    (["distinguish", "--family", "mck", "--genus", "2", "--n", "1", "--m", "-3"],
     "--m: need m >= 0"),
    (["scenario", "mck", "--genus", "1"], "--genus: need g >= 2"),
    (["scenario", "chain", "--genus", "3", "--n", "-2"], "--n: need n >= 0"),
    (["scenario", "curves", "--context", "chain", "--genus", "1"],
     "--genus: the chain table needs g >= 2"),
])
def test_a_parameter_below_its_least_exits_3_naming_its_flag(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (cli.EX_PRECONDITION, "", "precondition failed: %s\n" % message)


def test_distinguish_checks_its_family_like_every_subcommand(capsys):
    # an unknown family is named; a missing --family is named as the flag
    for extra, message in ((["--family", "cycle"], "unknown family 'cycle'"),
                           ([], "missing required flag --family")):
        code, out, err = run_cli(["distinguish", "--genus", "3", "--n", "1", "--m", "3"]
                                 + extra, capsys)
        assert code == cli.EX_SCHEMA, extra
        assert message in err and out == ""


def _fact_path_with_target(tmp_path, target):
    doc = mck_fact_doc()
    doc["target"] = target
    return write_json(tmp_path, "f.json", doc)


def test_factorization_target_matrix_must_be_a_list_of_rows(tmp_path, capsys):
    path = _fact_path_with_target(tmp_path, {"matrix": 5})
    code, out, err = run_cli(["verify", path], capsys)
    assert code == cli.EX_SCHEMA
    assert "error: factorization.target.matrix:" in err
    assert out == ""


def test_factorization_target_matrix_must_be_2g_square(tmp_path, capsys):
    n = 2 * mck_fact_doc()["genus"]
    row = [0] * n
    for matrix, field in (([row] * (n - 1), "factorization.target.matrix"),
                          ([[1, 0]] * n, "factorization.target.matrix[0]"),
                          ([row] * (n - 1) + [row[1:]],
                           "factorization.target.matrix[%d]" % (n - 1))):
        path = _fact_path_with_target(tmp_path, {"matrix": matrix})
        code, out, err = run_cli(["verify", path], capsys)
        assert code == cli.EX_SCHEMA, matrix
        assert "error: %s:" % field in err
        assert out == ""


def test_conjugate_prefix_must_be_an_integer(tmp_path, capsys):
    fact_path = write_json(tmp_path, "fact.json", mck_fact_doc())
    word_path = write_json(tmp_path, "word.json",
                           schemas.encode_word(twist_word(family("mck", 2).twist)))
    code, out, err = run_cli(["conjugate", fact_path, "--word", word_path,
                              "--prefix", "x"], capsys)
    assert code == cli.EX_SCHEMA
    assert "--prefix" in err
    assert out == ""


def test_lattice_enumerate_box_is_capped(tmp_path, capsys):
    # the cap is checked before the box is built, so this fails at once
    path = _gram_path(tmp_path)
    code, out, err = run_cli(["lattice", "enumerate", path, "--pattern", "[[0]]",
                              "--bound", str(10 ** 9)], capsys)
    assert code == cli.EX_PRECONDITION
    assert "bound 1000000000" in err and "MAX_BOX_VECTORS = 100000" in err
    assert out == ""


def test_hurwitz_budget_is_capped(tmp_path, capsys):
    # the cap is checked before any state is built, so this fails at once
    path = write_json(tmp_path, "mck.json", mck_fact_doc())
    for sub in (["explore", path], ["compare", path, path]):
        code, out, err = run_cli(["hurwitz", *sub, "--mod", "3",
                                  "--budget", str(10 ** 9)], capsys)
        assert code == cli.EX_PRECONDITION, sub
        assert "budget 1000000000 is outside 1..MAX_BUDGET = 200000" in err
        assert out == ""


def test_hurwitz_compare_budget_below_two_is_refused(tmp_path, capsys):
    path = write_json(tmp_path, "mck.json", mck_fact_doc())
    code, out, err = run_cli(["hurwitz", "compare", path, path, "--mod", "3",
                              "--budget", "1"], capsys)
    assert code == cli.EX_PRECONDITION
    assert "budget 1 is below 2" in err
    assert out == ""


def test_saturation_budget_error_is_a_precondition_failure(monkeypatch, capsys):
    monkeypatch.setattr(johnson, "MAX_SATURATION_STEPS", 3)
    code, out, err = run_cli(["distinguish", "--family", "mck", "--genus", "2",
                              "--n", "1", "--m", "2"], capsys)
    assert code == cli.EX_PRECONDITION
    assert "precondition failed: saturation exceeded 3 steps" in err
    assert out == ""


def test_seeds_that_do_not_scale_linearly_fail_the_self_check(monkeypatch, capsys):
    # distinguish scales one unit closure by n and m, which holds only when
    # the seeds at n are n times the unit seeds; n^2 times them must not
    # be certified
    monkeypatch.setattr(scenarios.FamilySpec, "seed_classes",
                        lambda self, n: [n * n * s for s in self.unit_seeds])
    code, out, err = run_cli(["distinguish", "--family", "mck", "--genus", "2",
                              "--n", "1", "--m", "2"], capsys)
    assert code == cli.EX_SOFTWARE
    assert "internal self-check failed: seeds at 2 are not 2 times the unit seeds" in err
    assert out == ""


# sha256 of the `distinguish --json` stdout (n=1, m=3), recorded from the
# dense-row echelon lattice and the closure that queued every image; mck g=5
# was recorded from the per-triple twist columns.  corpus.json pins mck at
# g = 2..4 and chain at g = 3, 4.
DISTINGUISH_STDOUT_SHA256 = {
    ("chain", 8, True): "d13b9361593f93aa53912ffb56afe446e3e35da286a6319640cb194f794ec3d5",
    ("mck", 5, True): "19fcb16aa64da0bcc0602c20447dbfa6be185088411d46318fce979e561b8954",
}


def test_distinguish_certificates_are_pinned(capsys):
    for (fam, g, deep), digest in DISTINGUISH_STDOUT_SHA256.items():
        argv = ["distinguish", "--family", fam, "--genus", str(g), "--n", "1", "--m", "3",
                "--json"] + (["--deep-check"] if deep else [])
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, fam
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fam, g)


# sha256 of the `distinguish --json` stdout of the largest document the
# family admits at mck g=6 and of the certify benchmark's peak job's shape,
# recorded from the writer that took dense rows (json.dumps, indent=1)
LARGE_DISTINGUISH_STDOUT_SHA256 = {
    ("mck", 6, 1, 3): "904723d1035ade457e97e0e0fd2036890a15ab8e8302597f51c61e4890f97dc3",
    ("chain", 5, 2, 5): "88fdd6caac526ff909f51c5ce49b8bfcfce78b79b4bfe12ff7f676fd06439fb8",
}


def test_large_distinguish_documents_are_pinned(capsys):
    for (fam, g, n, m), digest in LARGE_DISTINGUISH_STDOUT_SHA256.items():
        argv = ["distinguish", "--family", fam, "--genus", str(g), "--n", str(n),
                "--m", str(m), "--json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, fam
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (fam, g)


def _torelli_doc(seed, genus):
    # two conjugated bounding-pair factors, exponents -1 and 2, each behind a
    # three-letter conjugator, so tau goes through the transport path
    rng = random.Random(seed)
    factors = []
    for exp in (-1, 2):
        j, i = rng.sample(range(1, genus + 1), 2)
        conj = Word([TwistLetter(random_class(rng, genus), rng.choice((1, -1)))
                     for _ in range(3)], genus)
        gen = johnson.BoundingPairGen(basis_b(genus, j), [(basis_a(genus, i), basis_b(genus, i))])
        factors.append((conj, gen, exp))
    return encode_torelli_word(johnson.TorelliWord(factors, genus))


# sha256 of the `johnson` stdout, --json and text, recorded from the
# projection that scanned every wedge coordinate and the two-branch rewrite
# table of the discarded triples; corpus.json pins genus 4
JOHNSON_STDOUT_SHA256 = {
    (6, "--json"): "5cd592a1c5cca311299d0f3cb0326ed9dc737acc8b7b9fc421333c430f30435c",
    (6, "text"): "b29a22d692388a34769699775db913219df5e33b8913d39623c826dcf20f4d8b",
    (8, "--json"): "7d6eb116213669f0f448d6d60182b10a5d5034f75d0310ee278b3344887207ae",
    (8, "text"): "ef39e6501d6e50f7245007142e589884b7301cbaca916a624534e3c62cc7bafb",
}


def test_johnson_stdout_is_pinned(tmp_path, capsys):
    for genus in (6, 8):
        path = write_json(tmp_path, "tw%d.json" % genus, _torelli_doc(genus, genus))
        for mode in ("--json", "text"):
            code, out, _ = run_cli(["johnson", path] + ([mode] if mode == "--json" else []),
                                   capsys)
            assert code == 0, genus
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == JOHNSON_STDOUT_SHA256[(genus, mode)], (genus, mode)


def test_johnson_builds_no_wedge_table(tmp_path, capsys):
    # tau goes by transport and applies no D, so the command builds the
    # basis table of its genus but not that table's projected-wedge rows,
    # which only the first D application builds
    path = write_json(tmp_path, "tw8.json", _torelli_doc(8, 8))
    johnson._table.cache_clear()
    code, _, _ = run_cli(["johnson", path, "--json"], capsys)
    assert code == 0
    assert johnson._table.cache_info().currsize == 1
    assert "wedge_rows" not in vars(johnson._table(8))


# sha256 of stdout: the first three recorded from the search that keyed its
# seen sets on canonical_form bytes, the others (a larger budget, a modulus
# above 255) from the search that kept its states as tuples of letter tuples
HURWITZ_STDOUT_SHA256 = {
    "explore --json": "7920028bd92df78e555ef947d46bbfe68c79b77c91d67a2872b75e828e28b818",
    "explore": "c98e037b4120bfd8e84961d8a50ff20584edf023825afbc40a4bc6008ff1aa2f",
    "compare --json": "d61a78c1ecbeee48a54d55f418736cea41ac572a77202776365de3a569498b67",
    "explore --budget 20000": "d3cd8ea12a7e8a4ff87161977f6250a73c4ff51c343e4415d10d7ef233b9b98b",
    "explore --mod 257 --json": "46bfb4be2be0a192f0eb4900a77de7ede5231aeccb172d42f032b484fb71ee95",
    "compare --mod 257 --json": "d61a78c1ecbeee48a54d55f418736cea41ac572a77202776365de3a569498b67",
}


def test_hurwitz_stdout_is_pinned(tmp_path, capsys):
    mck_path = write_json(tmp_path, "mck.json", mck_fact_doc())
    start, end = mck_depth3_inputs()
    a = write_json(tmp_path, "a.json", schemas.encode_factorization(start.word))
    b = write_json(tmp_path, "b.json", schemas.encode_factorization(end.word))
    explore = ["hurwitz", "explore", mck_path, "--mod", "3", "--budget", "2000"]
    runs = {
        "explore --json": explore + ["--json"],
        "explore": explore,
        "compare --json": ["hurwitz", "compare", a, b, "--mod", "5", "--budget", "20000",
                           "--json"],
        "explore --budget 20000": explore[:-1] + ["20000"],
        "explore --mod 257 --json": ["hurwitz", "explore", mck_path, "--mod", "257",
                                     "--budget", "3000", "--json"],
        "compare --mod 257 --json": ["hurwitz", "compare", a, b, "--mod", "257",
                                     "--budget", "20000", "--json"],
    }
    for name, argv in runs.items():
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == HURWITZ_STDOUT_SHA256[name], name


# sha256 of the chain --csv stdout, recorded from the builders that made a
# new curve table and base factorization for every grid row; the benchmark's
# reference pins the mck grid 2..5,0..10
CHAIN_GRID_STDOUT_SHA256 = "8f538c29110ba3adb5e87c422837b2a1c000c3f83df77441a0102ec4c824569b"


def test_invariant_grids_are_pinned(capsys):
    code, out, _ = run_cli(["invariants", "--family", "chain", "--grid", "3..5,0..10", "--csv"],
                           capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAIN_GRID_STDOUT_SHA256


def _congruent_gram(seed, rank):
    """B D B^T for a seeded +-1/+-2 diagonal D and a seeded unimodular B, and
    the classes B^-T e_s of the unit entries of D (a unimodular span)."""
    rng = random.Random(seed)
    diag = [rng.choice((1, -1, 2, -2)) for _ in range(rank)]
    b = [[int(i == j) for j in range(rank)] for i in range(rank)]
    b_inv = [row[:] for row in b]
    for _ in range(2 * rank):
        i, j = rng.sample(range(rank), 2)
        k = rng.choice((1, -1))
        b[i] = [x + k * y for x, y in zip(b[i], b[j])]
        for row in b_inv:
            row[j] -= k * row[i]
    gram = [[sum(b[i][s] * diag[s] * b[j][s] for s in range(rank)) for j in range(rank)]
            for i in range(rank)]
    return gram, [b_inv[s] for s in range(rank) if diag[s] in (1, -1)]


# sha256 of the `lattice complement` stdout of six unimodular classes in a
# rank-24 Gram matrix, recorded from the complement that summed every
# pairing over all n^2 Gram entries; corpus.json and the benchmark's
# reference pin the other lattice subcommands
LATTICE_COMPLEMENT_STDOUT_SHA256 = (
    "18d33cec714c51b4e678ad7617ebc83e853c1523f04aafe112acd4bda4e2734d")


def test_lattice_stdout_is_pinned(tmp_path, capsys):
    gram, units = _congruent_gram(24, 24)
    path = write_json(tmp_path, "rank24.json",
                      {"schema": schemas.SCHEMA, "type": "gram", "matrix": gram})
    classes = write_json(tmp_path, "rank24_c.json", {"vectors": units[:6]})
    code, out, _ = run_cli(["lattice", "complement", path, "--classes", classes], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_COMPLEMENT_STDOUT_SHA256


def test_invariant_grid_builds_each_family_once(monkeypatch, capsys):
    counts = {}

    def count_inits(cls, key):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            counts[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    count_inits(scenarios.CurveTable, "tables")
    count_inits(words.PositiveFactorization, "validations")
    count_inits(invariants.FibrationSpec, "specs")
    full_report = invariants.full_report

    def counted_report(spec):
        counts["reports"] += 1
        return full_report(spec)
    monkeypatch.setattr(invariants, "full_report", counted_report)
    for fam, grid, genera in (("mck", "2..3,0..4", 2), ("chain", "3..4,0..2", 2)):
        counts.update(tables=0, validations=0, specs=0, reports=0)
        code, _, _ = run_cli(["invariants", "--family", fam, "--grid", grid, "--csv"],
                             capsys)
        assert code == 0, fam
        # one table and one base validation per g; every member n is that
        # base, and the members n > 0 share one twisted spec and its report
        assert counts == {"tables": genera, "validations": genera,
                          "specs": 2 * genera, "reports": 2 * genera}, fam


def test_lattice_complement_of_no_classes_is_the_whole_lattice(tmp_path, capsys):
    path = _gram_path(tmp_path)
    classes = write_json(tmp_path, "c.json", {"vectors": []})
    code, out, _ = run_cli(["lattice", "complement", path, "--classes", classes], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [[1, 0], [0, 1]]
    assert doc["gram"] == [[0, 1], [1, 0]]


def _with(doc, **changes):
    doc.update(changes)
    return doc


def _split_of_one():
    doc = mck_fact_doc()
    next(l for l in doc["letters"] if l["separating"])["split"] = [1]
    return doc


@pytest.mark.parametrize("command, make_doc, field", [
    ("invariants", lambda: _with(schemas.encode_fibration_spec(family("mck", 2).base_spec),
                                 fiber_genus=-2),
     "fibration_spec.fiber_genus"),
    ("verify", lambda: _with(mck_fact_doc(), genus=-1), "factorization.genus"),
    ("verify", lambda: _with(mck_fact_doc(), genus=10000000), "factorization.genus"),
    ("verify", _split_of_one, "factorization.letters[5].split"),
], ids=["fiber_genus_negative", "genus_negative", "genus_huge", "split_of_one"])
def test_genus_and_split_are_checked_at_the_schema(tmp_path, capsys, command, make_doc,
                                                   field):
    path = write_json(tmp_path, "doc.json", make_doc())
    code, out, err = run_cli([command, path], capsys)
    assert code == cli.EX_SCHEMA
    assert "error: %s:" % field in err
    assert out == ""


def _refuse_to_build(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a curve table was built")
    monkeypatch.setattr(scenarios.CurveTable, "__init__", refuse)


@pytest.mark.parametrize("argv, flag", [
    (["invariants", "--family", "mck", "--genus", "51"], "--genus"),
    (["invariants", "--family", "chain", "--grid", "3..101,0..0", "--csv"], "--grid"),
    (["scenario", "mck", "--genus", "51"], "--genus"),
    (["scenario", "chain", "--genus", "101"], "--genus"),
    (["scenario", "curves", "--context", "chain", "--genus", "101"], "--genus"),
    (["distinguish", "--family", "mck", "--genus", "51", "--n", "1", "--m", "2"],
     "--genus"),
], ids=["invariants", "invariants_grid", "scenario_mck", "scenario_chain",
        "scenario_curves", "distinguish"])
def test_genus_flags_are_bounded_by_max_genus(monkeypatch, capsys, argv, flag):
    _refuse_to_build(monkeypatch)
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EX_SCHEMA
    assert "error: %s:" % flag in err and "MAX_GENUS = %d" % schemas.MAX_GENUS in err
    assert out == ""


def test_genus_bound_admits_surface_genus_max_genus(monkeypatch, capsys):
    # mck g=50 is surface genus 100: past the check, it reaches the build
    _refuse_to_build(monkeypatch)
    code, out, err = run_cli(["scenario", "mck", "--genus", "50"], capsys)
    assert code == cli.EX_SOFTWARE
    assert "a curve table was built" in err and out == ""


def test_unknown_curves_context_is_a_usage_error(capsys):
    code, out, err = run_cli(["scenario", "curves", "--context", "foo", "--genus", "2"],
                             capsys)
    assert code == cli.EX_SCHEMA
    assert "error: unknown --context 'foo'" in err
    assert out == ""


def test_failed_self_check_exits_70(monkeypatch, capsys):
    witness_class = scenarios.FamilySpec.witness_class
    monkeypatch.setattr(scenarios.FamilySpec, "witness_class",
                        lambda self: 2 * witness_class(self))
    code, out, err = run_cli(["distinguish", "--family", "mck", "--genus", "2",
                              "--n", "1", "--m", "2"], capsys)
    assert code == cli.EX_SOFTWARE == 70
    assert "internal self-check failed: family witness class is not primitive" in err
    assert out == ""


def test_closed_stdout_exits_74_without_a_traceback():
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before anything is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "monolab", "scenario", "curves", "--context", "mck",
             "--genus", "2"],
            stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EX_IOERR == 74
    assert b"Traceback" not in proc.stderr


# the modules outside monolab that `import monolab.cli` adds to a bare
# interpreter (`python -I -S`, Python 3.11) that has already imported
# `runpy`, as `python -m monolab` has: json, re and what they and the
# package's startup modules import.  Interpreter start and this import are
# most of a median job's wall time, so a new one joins this list on purpose
# or not at all
CLI_STARTUP_MODULES = {
    "_bisect", "_json", "_sre", "bisect", "copyreg", "enum", "json", "json.decoder",
    "json.encoder", "json.scanner", "math", "re", "re._casefix", "re._compiler",
    "re._constants", "re._parser",
}


def test_cli_import_loads_no_fractions_or_decimal():
    # every job pays for what `import monolab.cli` loads; the package is
    # plain-int throughout, so neither rational module belongs in it
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, monolab.cli; "
         "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # nor any module outside the startup list, with no site and no PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", "import sys; sys.path.insert(0, %r); "
         "import runpy; before = set(sys.modules); import monolab.cli; "
         "print(*sorted(set(sys.modules) - before))" % src],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = {m for m in proc.stdout.split() if m.partition(".")[0] != "monolab"}
    assert sorted(added - CLI_STARTUP_MODULES) == []


# runs one argv in a bare interpreter, then prints its exit code and every
# monolab module whose code has not run: a lazily loaded module keeps the
# LazyLoader's module type until its first attribute access
_UNRUN = ("import sys, types; sys.path.insert(0, %r); import monolab.cli; "
          "code = monolab.cli.run(sys.argv[1:]); sys.stdout.flush(); "
          "print(code, *sorted(name for name, module in sys.modules.items() "
          "if name.startswith('monolab.') and type(module) is not types.ModuleType))")


@pytest.mark.parametrize("argv, code, unrun", [
    (["--help"], 0, ["hurwitz", "invariants", "johnson", "lattices", "scenarios"]),
    (["verify", "FACT"], 0, ["hurwitz", "invariants", "johnson", "lattices", "scenarios"]),
    (["conjugate", "FACT", "--word", "WORD3"], cli.EX_PRECONDITION,
     ["hurwitz", "invariants", "johnson", "lattices", "scenarios"]),
    (["hurwitz", "explore", "FACT", "--mod", "3", "--budget", "200"], 0,
     ["invariants", "johnson", "lattices", "scenarios"]),
    (["lattice", "sig", "GRAM"], 0, ["hurwitz", "invariants", "johnson", "scenarios"]),
], ids=["help", "verify", "conjugate-refused", "hurwitz-explore", "lattice-sig"])
def test_each_command_runs_only_the_modules_it_uses(tmp_path, argv, code, unrun):
    # every module is in sys.modules after `import monolab.cli`, and a job,
    # refused or not, pays for the code of only those its command reaches
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    files = {"FACT": write_json(tmp_path, "fact.json", mck_fact_doc()),
             "WORD3": write_json(tmp_path, "w3.json", schemas.encode_word(Word((), 3))),
             "GRAM": _gram_path(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _UNRUN % src] + [files.get(a, a) for a in argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == [str(code)] + ["monolab." + m for m in unrun]


class _Unprintable:
    """A value whose text form raises ValueError, as an int past the
    interpreter's digit limit does."""

    def __str__(self):
        raise ValueError("value has no text form")

    __int__ = __index__ = __str__


def _poison(monkeypatch, owner, name, key):
    """Wrap owner.name, a dict-returning function, so that the value at
    ``key`` in its result cannot be formatted."""
    orig = getattr(owner, name)
    monkeypatch.setattr(owner, name,
                        lambda *a, **k: {**orig(*a, **k), key: _Unprintable()})


def _late_failure_cases(tmp_path, monkeypatch):
    """Per text subcommand: its argv, after poisoning a value that is
    formatted only once earlier lines of its output are."""
    fact = write_json(tmp_path, "mck.json", mck_fact_doc())
    gram = _gram_path(tmp_path)
    torelli = write_json(tmp_path, "tw.json", _torelli_doc(4, 4))

    def verify():
        _poison(monkeypatch, cli, "verify_factorization", "certification")
        return ["verify", fact]

    def invariants_spec():
        _poison(monkeypatch, invariants, "full_report", "certification_level")
        return ["invariants", "--family", "mck", "--genus", "2", "--n", "1"]

    def invariants_grid():
        full_report, calls = invariants.full_report, []

        def second_fails(spec):
            calls.append(spec)
            if len(calls) > 1:
                raise ValueError("second report fails")
            return full_report(spec)
        monkeypatch.setattr(invariants, "full_report", second_fails)
        return ["invariants", "--family", "mck", "--grid", "2..3,0..1", "--csv"]

    def johnson_text():
        # the last coefficient cannot be formatted, after the first label
        labelled = johnson.QuotientClass.labelled

        def unprintable_last(value):
            labels = labelled(value)
            labels[-1] = (labels[-1][0], _Unprintable())
            return labels
        monkeypatch.setattr(johnson.QuotientClass, "labelled", unprintable_last)
        return ["johnson", torelli]

    def distinguish():
        _poison(monkeypatch, johnson, "distinguish", "certification_level")
        return ["distinguish", "--family", "mck", "--genus", "2", "--n", "1", "--m", "2"]

    def explore():
        _poison(monkeypatch, hurwitz.ExploreReport, "as_dict", "explored")
        return ["hurwitz", "explore", fact, "--mod", "2", "--budget", "50"]

    def compare():
        _poison(monkeypatch, hurwitz.OrbitCertificate, "as_dict", "certification_level")
        return ["hurwitz", "compare", fact, fact, "--mod", "2", "--budget", "10"]

    def sig():
        signature = lattices.signature
        monkeypatch.setattr(lattices, "signature",
                            lambda lat: signature(lat)[:2] + (_Unprintable(),))
        return ["lattice", "sig", gram]

    return {f.__name__: f for f in (verify, invariants_spec, invariants_grid, johnson_text,
                                    distinguish, explore, compare, sig)}


@pytest.mark.parametrize("name", ["verify", "invariants_spec", "invariants_grid",
                                  "johnson_text", "distinguish", "explore", "compare", "sig"])
def test_a_failure_while_formatting_leaves_stdout_empty(tmp_path, monkeypatch, capsys, name):
    argv = _late_failure_cases(tmp_path, monkeypatch)[name]()
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EX_PRECONDITION, err
    assert out == ""


def test_invariant_grid_is_bounded_before_anything_is_built(monkeypatch, capsys):
    _refuse_to_build(monkeypatch)
    n1 = cli.MAX_GRID_ROWS // 2  # two g values: one row above the bound
    code, out, err = run_cli(["invariants", "--family", "mck", "--grid",
                              "2..3,0..%d" % n1, "--csv"], capsys)
    assert code == cli.EX_SCHEMA
    assert "error: --grid:" in err and "MAX_GRID_ROWS = %d" % cli.MAX_GRID_ROWS in err
    assert out == ""
    # at the bound the grid passes the check and reaches the build
    code, out, err = run_cli(["invariants", "--family", "mck", "--grid",
                              "2..3,1..%d" % n1, "--csv"], capsys)
    assert code == cli.EX_SOFTWARE
    assert "a curve table was built" in err and out == ""


def _cli_process(argv, patch=None, **kwargs):
    """``python -m monolab ARGV`` (or ``python -c PATCH ARGV``), with
    stdout and stderr captured unless ``kwargs`` redirect them, and stdout
    block-buffered as it is by default (no PYTHONUNBUFFERED)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(monolab.__file__))
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    head = ["-c", patch] if patch else ["-m", "monolab"]
    return subprocess.run([sys.executable] + head + argv, env=env, timeout=60, **kwargs)


def test_duplicate_json_key_is_refused_naming_it(tmp_path):
    path = tmp_path / "gram.json"
    path.write_text('{"schema": "%s", "type": "gram", "matrix": [[1]], "matrix": [[0, 1], '
                    '[1, 0]]}' % schemas.SCHEMA)
    gram = _gram_path(tmp_path)
    for argv, message in (
            (["lattice", "sig", str(path)], "error: %s: duplicate key 'matrix'" % path),
            (["lattice", "enumerate", gram, "--pattern", '[[{"a": 1, "a": 2}]]'],
             "error: --pattern: duplicate key 'a'")):
        proc = _cli_process(argv)
        assert (proc.returncode, proc.stdout) == (cli.EX_SCHEMA, b""), argv
        assert message in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr


def test_deeply_nested_json_is_refused_naming_the_path(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    gram = _gram_path(tmp_path)
    for argv, where in ((["lattice", "sig", str(path)], str(path)),
                        (["verify", str(path)], str(path)),
                        (["lattice", "enumerate", gram, "--pattern", "[" * 3000 + "]" * 3000],
                         "--pattern")):
        proc = _cli_process(argv)
        assert (proc.returncode, proc.stdout) == (cli.EX_SCHEMA, b""), argv
        assert "error: %s: JSON nested too deeply" % where in proc.stderr.decode()
        assert b"Traceback" not in proc.stderr


def test_a_too_long_integer_literal_is_refused_naming_the_path(tmp_path):
    # the interpreter refuses a literal past 4300 digits inside json.loads
    path = tmp_path / "gram.json"
    path.write_text('{"schema": "%s", "type": "gram", "matrix": [[1%s]]}'
                    % (schemas.SCHEMA, "0" * 4999))
    proc = _cli_process(["lattice", "sig", str(path)])
    assert (proc.returncode, proc.stdout) == (cli.EX_SCHEMA, b"")
    assert "error: %s: integer literal too long" % path in proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


def test_a_5000_digit_coefficient_prints_exactly(tmp_path, monkeypatch, capsys):
    # the output has no digit limit; only input literals are bounded
    tau_word = johnson.tau_word

    def huge_last(tw):
        value = tau_word(tw)
        coords = list(value.coords)
        coords[-1] += 10 ** 5000
        return johnson.QuotientClass(value.genus, coords)
    monkeypatch.setattr(johnson, "tau_word", huge_last)
    doc = _torelli_doc(4, 4)
    path = write_json(tmp_path, "tw.json", doc)
    limit = sys.get_int_max_str_digits()
    text_code, text, _ = run_cli(["johnson", path], capsys)
    json_code, out, _ = run_cli(["johnson", path, "--json"], capsys)
    assert sys.get_int_max_str_digits() == limit  # the lift stays inside run
    assert (text_code, json_code) == (0, 0)
    value = huge_last(schemas.decode_torelli_word(doc))
    name, coef = value.labelled()[-1]
    sys.set_int_max_str_digits(0)
    try:
        digits = str(coef)
        assert "  %s: %s" % (name, digits) in text.splitlines()
        assert json.loads(out)["coords"] == list(value.coords)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(digits) >= 5000


def test_input_literals_are_bounded_at_max_input_digits(tmp_path, capsys):
    assert cli.MAX_INPUT_DIGITS == 4300
    gram = _gram_path(tmp_path)
    for digits in (cli.MAX_INPUT_DIGITS, cli.MAX_INPUT_DIGITS + 1):
        literal = "1" + "0" * (digits - 1)
        path = tmp_path / ("gram%d.json" % digits)
        path.write_text('{"schema": "%s", "type": "gram", "matrix": [[%s]]}'
                        % (schemas.SCHEMA, literal))
        cases = ((["lattice", "sig", str(path)], str(path)),
                 (["lattice", "enumerate", gram, "--pattern", "[[%s]]" % literal],
                  "--pattern"))
        for argv, where in cases:
            code, out, err = run_cli(argv, capsys)
            if digits == cli.MAX_INPUT_DIGITS:
                assert code == cli.EX_OK, err
            else:
                assert (code, out) == (cli.EX_SCHEMA, ""), argv
                assert "error: %s: integer literal too long" % where in err
        # an integer flag has the same bound
        code, out, err = run_cli(["lattice", "enumerate", gram, "--pattern", "[[0]]",
                                  "--bound", literal], capsys)
        if digits == cli.MAX_INPUT_DIGITS:
            assert code == cli.EX_PRECONDITION, err  # a box that large is refused
        else:
            assert (code, out) == (cli.EX_SCHEMA, "")
            assert "error: flag --bound expects an integer" in err


def test_a_reader_that_leaves_early_gets_exit_74_without_a_traceback():
    # stdout is written in pieces: the reader takes 4 KB of a 173 KB
    # document and closes the pipe while the rest is being written
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "monolab", "distinguish", "--family", "chain", "--genus", "5",
         "--n", "2", "--m", "5", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
    try:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert head.startswith(b'{\n "certificate": {') and len(head) == 4096
    assert proc.returncode == cli.EX_IOERR == 74
    assert b"Traceback" not in err


# The process exit path: each case below runs `python -m monolab`.

# patched witness class, as in test_failed_self_check_exits_70, then the
# package's __main__ as `python -m monolab` runs it
_SELF_CHECK_FAILS = (
    "import runpy, sys; from monolab import scenarios; "
    "w = scenarios.FamilySpec.witness_class; "
    "scenarios.FamilySpec.witness_class = lambda self: 2 * w(self); "
    "sys.argv[0] = 'monolab'; runpy.run_module('monolab', run_name='__main__')")


def _failing_cases(tmp_path):
    """(argv, patch, exit code, stderr message) for each failure code."""
    return [
        (["lattice", "sig", _gram_path(tmp_path), "--bogus"], None, cli.EX_SCHEMA,
         "error: unknown flag --bogus"),
        (["scenario", "mck", "--genus", "1"], None, cli.EX_PRECONDITION,
         "precondition failed: "),
        (["nosuch"], None, cli.EX_UNKNOWN_COMMAND, "unknown subcommand: nosuch"),
        (["verify", str(tmp_path / "missing.json")], None, cli.EX_NO_INPUT,
         "input file not found: "),
        (["distinguish", "--family", "mck", "--genus", "2", "--n", "1", "--m", "2"],
         _SELF_CHECK_FAILS, cli.EX_SOFTWARE,
         "internal self-check failed: family witness class is not primitive"),
    ]


def test_process_stdout_is_what_run_prints(capsys):
    # a document of more than 64 KB and a text of less than 8 KB, both past
    # the last flush before os._exit
    for argv, size in (
            (["distinguish", "--family", "mck", "--genus", "3", "--n", "1", "--m", "2",
              "--json"], lambda n: n > 64 * 1024),
            (["invariants", "--family", "mck", "--genus", "2", "--n", "1"],
             lambda n: 0 < n < 8 * 1024)):
        code, out, err = run_cli(argv, capsys)
        proc = _cli_process(argv)
        assert (proc.returncode, proc.stderr) == (code, b"") == (0, b""), argv
        assert proc.stdout == out.encode() and size(len(proc.stdout)), argv


def test_process_failures_keep_their_code_and_message_and_leave_stdout_empty(
        tmp_path, capsys):
    for argv, patch, code, message in _failing_cases(tmp_path):
        proc = _cli_process(argv, patch)
        assert (proc.returncode, proc.stdout) == (code, b""), argv
        err = proc.stderr.decode()
        assert message in err and b"Traceback" not in proc.stderr, argv
        if patch is None:
            assert run_cli(argv, capsys) == (code, "", err), argv


def test_a_full_device_as_stdout_exits_74_without_a_traceback():
    for argv in (["--help"], ["scenario", "curves", "--context", "mck", "--genus", "2"],
                 ["invariants", "--family", "mck", "--genus", "2", "--n", "1"]):
        with open("/dev/full", "wb") as full:
            proc = _cli_process(argv, stdout=full)
        assert proc.returncode == cli.EX_IOERR == 74, argv
        assert proc.stderr == b"", argv


def test_a_closed_or_full_stderr_changes_neither_stdout_nor_the_exit_code(tmp_path):
    for argv, patch, code, _ in _failing_cases(tmp_path):
        proc = _cli_process(argv, patch, stderr=None, preexec_fn=lambda: os.close(2))
        assert (proc.returncode, proc.stdout) == (code, b""), argv
        with open("/dev/full", "wb") as full:
            proc = _cli_process(argv, patch, stderr=full)
        assert (proc.returncode, proc.stdout) == (code, b""), argv


# -- the command table: each mode accepts exactly the flags it reads ----------


def _mode_inputs(tmp_path):
    """A path to one good input of each kind a subcommand reads."""
    fam = family("mck", 2)
    docs = {"fact": mck_fact_doc(), "word": schemas.encode_word(twist_word(fam.twist)),
            "torelli": _torelli_doc(4, 4), "spec": schemas.encode_fibration_spec(fam.spec(1)),
            "gram": {"schema": schemas.SCHEMA, "type": "gram", "matrix": [[0, 1], [1, 0]]},
            "classes": {"vectors": []}}
    return {name: write_json(tmp_path, name + ".json", doc) for name, doc in docs.items()}


# per mode: a cheap command line that exits 0, and a flag (with its value)
# that another mode reads and this one does not
MODES = {
    "verify": (["verify", "{fact}", "--json"], ["--mod", "3"]),
    "invariants_spec": (["invariants", "{spec}", "--json"], ["--genus", "9"]),
    "invariants_family": (["invariants", "--family", "mck", "--genus", "2", "--n", "1"],
                          ["--csv"]),
    "invariants_grid": (["invariants", "--family", "mck", "--grid", "2..2,0..1", "--csv"],
                        ["--json"]),
    "johnson": (["johnson", "{torelli}"], ["--deep-check"]),
    "distinguish": (["distinguish", "--family", "mck", "--genus", "2", "--n", "1", "--m", "2"],
                    ["--budget", "5"]),
    "conjugate": (["conjugate", "{fact}", "--word", "{word}", "--prefix", "6"], ["--json"]),
    "hurwitz_explore": (["hurwitz", "explore", "{fact}", "--mod", "2", "--budget", "20"],
                        ["--bound", "3"]),
    "hurwitz_compare": (["hurwitz", "compare", "{fact}", "{fact}", "--mod", "2",
                         "--budget", "20"], ["--n", "1"]),
    "lattice_sig": (["lattice", "sig", "{gram}"], ["--bound", "3"]),
    "lattice_parity": (["lattice", "parity", "{gram}"], ["--json"]),
    "lattice_complement": (["lattice", "complement", "{gram}", "--classes", "{classes}"],
                           ["--pattern", "[[0]]"]),
    "lattice_enumerate": (["lattice", "enumerate", "{gram}", "--pattern", "[[0]]",
                           "--bound", "1"], ["--classes", "{classes}"]),
    "scenario_mck": (["scenario", "mck", "--genus", "2", "--n", "1"], ["--context", "chain"]),
    "scenario_chain": (["scenario", "chain", "--genus", "3"], ["--context", "mck"]),
    "scenario_curves": (["scenario", "curves", "--genus", "2"], ["--n", "1"]),
}


def _no_file_read(path):
    raise AssertionError("an input file was read: %s" % path)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_an_unread_flag_or_a_stray_positional_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                                mode):
    paths = _mode_inputs(tmp_path)
    argv, unread = ([a.format(**paths) for a in part] for part in MODES[mode])
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EX_OK, err
    # refused before any input file is read
    monkeypatch.setattr(cli, "_load_json", _no_file_read)
    for extra, named in ((unread, "flag %s" % unread[0]), (["stray.json"], "'stray.json'")):
        code, out, err = run_cli(argv + extra, capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), extra
        assert named in err, (extra, err)


def test_flags_of_another_mode_are_refused(tmp_path, monkeypatch, capsys):
    paths = _mode_inputs(tmp_path)
    monkeypatch.setattr(cli, "_load_json", _no_file_read)
    for argv, named in (
            (["lattice", "parity", paths["gram"], "--json", "--bound", "3", "--classes",
              "missing.json"], "unknown flag --json"),
            (["invariants", paths["spec"], "--family", "chain", "--genus", "9"],
             "['%s']" % paths["spec"]),
            (["invariants", paths["spec"], "--n", "1"], "flag --n is not read"),
            (["invariants", "--family", "mck", "--grid", "2..2,0..1", "--genus", "2"],
             "flag --genus is not read")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), argv
        assert named in err, (argv, err)


@pytest.mark.parametrize("argv, flag", [
    (["conjugate", "f.json"], "--word"),
    (["hurwitz", "explore", "f.json"], "--mod"),
    (["hurwitz", "compare", "f.json", "g.json", "--budget", "5"], "--mod"),
    (["lattice", "complement", "g.json"], "--classes"),
    (["lattice", "enumerate", "g.json", "--bound", "1"], "--pattern"),
    (["invariants", "--grid", "2..2,0..1", "--csv"], "--family"),
    (["invariants", "--family", "mck"], "--genus"),
    (["distinguish", "--family", "mck", "--genus", "2", "--n", "1"], "--m"),
    (["scenario", "curves", "--context", "mck"], "--genus"),
])
def test_a_missing_required_flag_exits_2_naming_it(monkeypatch, capsys, argv, flag):
    monkeypatch.setattr(cli, "_load_json", _no_file_read)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (cli.EX_SCHEMA, "")
    assert "error: missing required flag %s;" % flag in err


def test_a_group_without_a_known_subcommand_exits_2_naming_them(capsys):
    for argv, named in ((["hurwitz"], "explore|compare"),
                        (["lattice", "frob"], "sig|parity|complement|enumerate, got ['frob']"),
                        (["scenario", "--genus", "2"], "curves, got ['--genus']")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), argv
        assert named in err, (argv, err)


def test_the_readme_lists_every_declared_usage():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = set(fh.read().splitlines())
    usages = [m.usage for modes in cli._COMMANDS.values() for m in modes]
    assert len(usages) == 16 and [u for u in usages if u not in lines] == []


def test_every_dotted_name_in_the_readme_resolves():
    # `homology.twist_coords`, `SublatticeBasis.scaled`, `os._exit`: the first
    # part is a module of the package or a helper module of tests/, or a name
    # one of them defines, and each further part an attribute of the last
    here, package = os.path.dirname(__file__), os.path.dirname(monolab.__file__)
    with open(os.path.join(here, os.pardir, "README.md"), encoding="utf-8") as fh:
        names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", fh.read()))
    modules = [monolab] + [importlib.import_module(name) for name in
                           ["monolab." + f[:-3] for f in sorted(os.listdir(package))
                            if f.endswith(".py") and not f.startswith("__")]
                           + [f[:-3] for f in sorted(os.listdir(here))
                              if f.endswith(".py") and not f.startswith(("test_", "conftest"))]]
    scope = {m.__name__.rpartition(".")[2]: m for m in modules}
    for module in modules:
        for key, value in vars(module).items():
            scope.setdefault(key, value)
    unresolved = []
    for name in sorted(names):
        head, *rest = name.split(".")
        obj = scope.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            unresolved.append(name)
    assert len(names) >= 28 and unresolved == []


GEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "gen.py")


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def blowdown_parity(tmp_path, capsys, incidence):
    """The parity that `lattice complement` prints for the sections of
    ``gen.blowdown_gram(incidence)``: reducible-fiber components, then
    (-1)-sections, each component row giving the sections it meets."""
    gen = _gen()
    gram, classes = gen.blowdown_gram(incidence)
    path = write_json(tmp_path, "gram.json", gen.gram_doc(gram))
    vectors = write_json(tmp_path, "classes.json", {"vectors": [list(v) for v in classes]})
    code, out, _ = run_cli(["lattice", "complement", path, "--classes", vectors], capsys)
    assert code == 0, incidence
    return json.loads(out)["parity"]


def _expected_handler(argv):
    if argv[0] == "invariants":
        return cli._cmd_invariants_grid if "--grid" in argv else cli._cmd_invariants
    if argv[0] == "scenario" and argv[1] != "curves":
        return cli._cmd_scenario_family
    group = argv[0] in ("hurwitz", "lattice", "scenario")
    return getattr(cli, "_cmd_" + "_".join(argv[:2] if group else argv[:1]))


def test_every_benchmark_command_line_parses_to_its_handler(monkeypatch, capsys):
    # the handlers are stubbed: each records itself and computes nothing
    picked = []
    for words, modes in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, words, [
            m._replace(handler=lambda args, m=m: picked.append(m.handler) or "")
            for m in modes])
    gen = _gen()
    for workload in gen.WORKLOADS:
        jobs, _ = gen.build(workload, 1)
        for job in jobs:
            del picked[:]
            code, _, err = run_cli(job["argv"], capsys)
            assert (code, err) == (job["exit"], ""), job["argv"]
            assert picked == [_expected_handler(job["argv"])], job["argv"]


REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")


def test_every_seed_1_benchmark_command_prints_its_reference_bytes(tmp_path, monkeypatch,
                                                                    capsys):
    # perfbench/ is only read: each workload's seed-1 inputs are written to
    # tmp_path, every argv runs there in process, and its exit code and the
    # sha256 of its stdout are those the benchmark recorded
    gen = _gen()
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    runs = 0
    for workload in gen.WORKLOADS:
        jobs, files = gen.build(workload, 1)
        gen.write_inputs(files, str(tmp_path / workload))
        monkeypatch.chdir(tmp_path / workload)
        for job in jobs:
            code, out, _ = run_cli(job["argv"], capsys)
            assert code == job["exit"], job["argv"]
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == reference[workload][job["id"]], job["argv"]
            runs += 1
    assert runs == 108


# -- document fields the decoders check --------------------------------------


def test_a_signature_reference_of_another_fiber_genus_is_refused(tmp_path, capsys):
    # same counts and split type, fiber genus 7: the formula at h = 7 would
    # give sigma -2 for this genus-4 spec, whose signature is -4
    doc = schemas.encode_fibration_spec(family("mck", 2).spec(1))
    ref = doc["signature_reference"]
    ref["fiber_genus"] = 7
    for letter in ref["cycles"]:
        c = letter["coords"]
        letter["coords"] = c[:4] + [0, 0, 0] + c[4:] + [0, 0, 0]
        if letter["separating"]:
            letter["split"] = [2, 5]
    code, out, err = run_cli(["invariants", write_json(tmp_path, "s.json", doc)], capsys)
    assert (code, out) == (cli.EX_SCHEMA, "")
    assert "error: fibration_spec: signature reference has a different fiber genus" in err
    doc["signature_reference"] = schemas.encode_fibration_spec(family("mck", 2).base_spec)
    code, out, err = run_cli(["invariants", write_json(tmp_path, "s.json", doc)], capsys)
    assert code == cli.EX_OK and "sigma     -4" in out, err


@pytest.mark.parametrize("power", [True, 1.0, -1.0, 2, "1"])
def test_a_power_that_is_not_the_integer_1_or_minus_1_is_refused(tmp_path, capsys, power):
    fam = family("mck", 2)
    fact, word = mck_fact_doc(), schemas.encode_word(twist_word(fam.twist))
    spec = schemas.encode_fibration_spec(fam.spec(1))
    good = {name: write_json(tmp_path, name + ".json", doc)
            for name, doc in (("fact", fact), ("word", word))}
    fact["letters"][0]["power"] = word["letters"][1]["power"] = power
    spec["cycles"][2]["power"] = power
    for argv, field in (
            (["verify", write_json(tmp_path, "f.json", fact)], "factorization.letters[0]"),
            (["conjugate", good["fact"], "--word", write_json(tmp_path, "w.json", word)],
             "word.letters[1]"),
            (["invariants", write_json(tmp_path, "s.json", spec)], "fibration_spec.cycles[2]")):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EX_SCHEMA, ""), argv
        assert "error: %s.power: expected the integer 1 or -1" % field in err, err


def test_a_conjugator_of_another_genus_is_refused_naming_it(tmp_path, capsys):
    doc = _torelli_doc(4, 4)
    doc["factors"][1]["conjugator"] = schemas.encode_word(Word((), 3))
    code, out, err = run_cli(["johnson", write_json(tmp_path, "tw.json", doc)], capsys)
    assert (code, out) == (cli.EX_SCHEMA, "")
    assert "error: torelli_word.factors[1].conjugator.genus: expected the document's genus 4" \
        in err
