import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import monolab
from monolab import cli, hurwitz, invariants, johnson, lattices, scenarios, schemas, words
from monolab.homology import basis_a, basis_b
from monolab.scenarios import family
from monolab.words import TwistLetter, Word, sp_image
from helpers import mck_depth3_inputs, random_class


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
    table_word = family("mck", g).twist.twist_word()
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
    path = write_json(tmp_path, "tw.json", schemas.encode_torelli_word(tw))
    code, out, _ = run_cli(["johnson", path], capsys)
    assert code == 0
    assert "primitive: True" in out
    code, out, _ = run_cli(["johnson", path, "--json"], capsys)
    doc = json.loads(out)
    assert doc["nonzero"] is True and doc["content"] == 1


def test_roundtrips():
    tw = family("mck", 2).twist
    assert schemas.decode_torelli_word(schemas.encode_torelli_word(tw)).factors == tw.factors
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
    path = write_json(tmp_path, "tw.json", schemas.encode_torelli_word(tw))
    code, out, err = run_cli(["johnson", path, "--json"], capsys)
    assert code == cli.EX_PRECONDITION
    assert "genus %d exceeds MAX_QUOTIENT_GENUS" % genus in err
    assert out == ""


def test_torelli_side_vector_of_wrong_length_is_named(tmp_path, capsys):
    doc = schemas.encode_torelli_word(family("mck", 2).twist)
    doc["factors"][0]["generator"]["side"][0][1] = [0, 1, 0]
    path = write_json(tmp_path, "tw.json", doc)
    code, out, err = run_cli(["johnson", path], capsys)
    assert code == cli.EX_SCHEMA
    assert "torelli_word.factors[0].generator.side[0][1]" in err
    assert out == ""


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


def test_distinguish_checks_its_family_like_every_subcommand(capsys):
    for extra in (["--family", "cycle"], []):
        code, out, err = run_cli(["distinguish", "--genus", "3", "--n", "1", "--m", "3"]
                                 + extra, capsys)
        assert code == cli.EX_SCHEMA, extra
        assert "unknown family" in err and out == ""


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
                           schemas.encode_word(family("mck", 2).twist.twist_word()))
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
# was recorded from the per-triple twist columns
DISTINGUISH_STDOUT_SHA256 = {
    ("mck", 2, True): "05633d4e757897d604df8651f8d8f64cdba59728cd01de90e9fb8fadf85ddf1d",
    ("mck", 3, False): "240d01cfbbc7e131bac9dd6f1832868a54b3d8c1cd6fa8449c39c97ab3093352",
    ("chain", 4, False): "5ab31334c40e79da71b2ca9ef68f5680dfaaf90c4edc8fa3203b6075b93d9845",
    ("mck", 4, True): "368510686f8d7b4fa13d1d5f90d8e5b82c709fdc68656a10d344eb56e8e59fd4",
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
    return schemas.encode_torelli_word(johnson.TorelliWord(factors, genus))


# sha256 of the `johnson` stdout, --json and text, recorded from the
# projection that scanned every wedge coordinate and the two-branch rewrite
# table of the discarded triples
JOHNSON_STDOUT_SHA256 = {
    (4, "--json"): "f6dec8e266fadfd62cbf6f24f26857ad07f2be5789d4740b639b32b03911d2ea",
    (4, "text"): "3611f9f28b8cf362821663ce5983c769e46a004975c1925c3bd4d7024115c603",
    (6, "--json"): "5cd592a1c5cca311299d0f3cb0326ed9dc737acc8b7b9fc421333c430f30435c",
    (6, "text"): "b29a22d692388a34769699775db913219df5e33b8913d39623c826dcf20f4d8b",
    (8, "--json"): "7d6eb116213669f0f448d6d60182b10a5d5034f75d0310ee278b3344887207ae",
    (8, "text"): "ef39e6501d6e50f7245007142e589884b7301cbaca916a624534e3c62cc7bafb",
}


def test_johnson_stdout_is_pinned(tmp_path, capsys):
    for genus in (4, 6, 8):
        path = write_json(tmp_path, "tw%d.json" % genus, _torelli_doc(genus, genus))
        for mode in ("--json", "text"):
            code, out, _ = run_cli(["johnson", path] + ([mode] if mode == "--json" else []),
                                   capsys)
            assert code == 0, genus
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == JOHNSON_STDOUT_SHA256[(genus, mode)], (genus, mode)


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


# sha256 of the --csv stdout, recorded from the builders that made a new
# curve table and base factorization for every grid row
GRID_STDOUT_SHA256 = {
    ("mck", "2..5,0..10"): "bc74e91f0a908ff97a2b21f4c221d37a81aa9839a3df979d72e033da1a77b185",
    ("chain", "3..5,0..10"): "8f538c29110ba3adb5e87c422837b2a1c000c3f83df77441a0102ec4c824569b",
}


def test_invariant_grids_are_pinned(capsys):
    for (fam, grid), digest in GRID_STDOUT_SHA256.items():
        code, out, _ = run_cli(["invariants", "--family", fam, "--grid", grid, "--csv"],
                               capsys)
        assert code == 0, fam
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fam


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


BLOWDOWN_GRAM = [
    [-1, 1, 0, 0, 0, 1],
    [1, -1, 1, 1, 1, 0],
    [0, 1, -1, 0, 0, 0],
    [0, 1, 0, -1, 0, 0],
    [0, 1, 0, 0, -1, 0],
    [1, 0, 0, 0, 0, -1],
]
BLOWDOWN_SECTIONS = [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                     [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]

# sha256 of the `lattice` stdout, recorded from the Fraction diagonalization
# and the complement that summed every pairing over all n^2 Gram entries
LATTICE_STDOUT_SHA256 = {
    ("rank24", "sig --json"): "223788bf6836ff53e859bc1c49d56aaf1f2fd94796c5f2c63468c8434c9b08cd",
    ("rank24", "complement"): "18d33cec714c51b4e678ad7617ebc83e853c1523f04aafe112acd4bda4e2734d",
    ("blowdown", "sig --json"): "2cbbe09a6ac59109a3fff08f466b95b145c82362db5ad137412d67f846679a89",
    ("blowdown", "complement"): "cd6d310833ed8b967cba84ca15b06a0f99ae37f16092abf1211bd6d5ab3af9b9",
    ("blowdown", "enumerate"): "915ce2210629a366bd666b62e47c33ac23c719aae71ac9aa884c3a7db040e0d3",
}


def test_lattice_stdout_is_pinned(tmp_path, capsys):
    gram24, units = _congruent_gram(24, 24)
    inputs = {"rank24": (gram24, units[:6]), "blowdown": (BLOWDOWN_GRAM, BLOWDOWN_SECTIONS)}
    for (name, cmd), digest in LATTICE_STDOUT_SHA256.items():
        gram, classes = inputs[name]
        path = write_json(tmp_path, name + ".json",
                          {"schema": schemas.SCHEMA, "type": "gram", "matrix": gram})
        argv = {
            "sig --json": ["lattice", "sig", path, "--json"],
            "complement": ["lattice", "complement", path, "--classes",
                           write_json(tmp_path, name + "_c.json", {"vectors": classes})],
            "enumerate": ["lattice", "enumerate", path, "--pattern", "[[-1,0],[0,-1]]",
                          "--bound", "1"],
        }[cmd]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, (name, cmd)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (name, cmd)


# sha256 of the `scenario curves` stdout, recorded from the Smith form with
# its own row and column elimination; the mck validation list carries the
# Smith-form check "extends to a symplectic basis"
CURVES_STDOUT_SHA256 = {
    ("mck", 3): "0e7d7a51509c5a4d7bda240dc00ece8a814dfb7d9d4da9afe34ee8dcbb3f37c4",
    ("chain", 4): "746d64b0fc2e157c0ad43e052df099f53e87c0169a4e7aab575515d6b09eeb55",
}


def test_curve_tables_are_pinned(capsys):
    for (context, g), digest in CURVES_STDOUT_SHA256.items():
        code, out, _ = run_cli(["scenario", "curves", "--context", context,
                                "--genus", str(g)], capsys)
        assert code == 0, context
        assert hashlib.sha256(out.encode()).hexdigest() == digest, context


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
        _poison(monkeypatch, invariants.InvariantReport, "as_dict", "certification_level")
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
        _poison(monkeypatch, johnson.Certificate, "as_dict", "certification_level")
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


def _cli_process(argv):
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    return subprocess.run([sys.executable, "-m", "monolab"] + argv, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)


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
