"""Fuzz the command line: every input ends in a documented exit code, and a
failure never leaves anything on stdout.

Two parts: documents encoded from a real family member with one node
replaced by a random JSON value, and argument lists drawn from the
subcommands, flags and a few good and bad values.  Both run
derandomized, so a failure reproduces on every run.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from monolab import cli, invariants, schemas
from monolab.scenarios import family

EXIT_CODES = {cli.EX_OK, cli.EX_SCHEMA, cli.EX_PRECONDITION, cli.EX_UNKNOWN_COMMAND,
              cli.EX_NO_INPUT, cli.EX_SOFTWARE}

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers(-3, 9) | st.sampled_from([-(2 ** 70), 2 ** 70]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                inner, max_size=3),
    max_leaves=6,
)


def _documents():
    """One document of each type the CLI reads, from the mck g=2 family."""
    fam = family("mck", 2)
    report = invariants.full_report(fam.base_spec)
    size = report.b2_plus + report.b2_minus
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        gram[i][i] = 1 if i < report.b2_plus else -1
    return {
        "factorization": schemas.encode_factorization(fam.base.word),
        "word": schemas.encode_word(fam.twist_word),
        "torelli_word": schemas.encode_torelli_word(fam.twist),
        "fibration_spec": schemas.encode_fibration_spec(fam.spec(1)),
        "gram": {"schema": schemas.SCHEMA, "type": "gram", "matrix": gram},
        "classes": {"vectors": [gram[0], gram[1]]},
    }


DOCS = _documents()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, doc in DOCS.items():
        paths[name] = str(root / (name + ".json"))
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    paths["hyperbolic"] = str(root / "hyperbolic.json")
    with open(paths["hyperbolic"], "w", encoding="utf-8") as fh:
        json.dump({"schema": schemas.SCHEMA, "type": "gram", "matrix": [[0, 1], [1, 0]]},
                  fh)
    paths["not_json"] = str(root / "not_json.json")
    with open(paths["not_json"], "w", encoding="utf-8") as fh:
        fh.write("{")
    paths["mutant"] = str(root / "mutant.json")
    return paths


def _argvs(kind, p, good):
    """The command lines that read a document of ``kind`` from path p."""
    if kind == "factorization":
        return [["verify", p, "--json"],
                ["hurwitz", "explore", p, "--mod", "3", "--budget", "100"],
                ["hurwitz", "compare", p, good["factorization"], "--mod", "2",
                 "--budget", "20"],
                ["conjugate", p, "--word", good["word"], "--prefix", "6"]]
    if kind == "word":
        return [["conjugate", good["factorization"], "--word", p],
                ["conjugate", good["factorization"], "--word", p, "--prefix", "6"]]
    if kind == "torelli_word":
        return [["johnson", p, "--json"]]
    if kind == "fibration_spec":
        return [["invariants", p, "--json"]]
    if kind == "gram":
        return [["lattice", "sig", p], ["lattice", "parity", p],
                ["lattice", "complement", p, "--classes", good["classes"]],
                ["lattice", "enumerate", p, "--pattern", "[[-1]]", "--bound", "1"]]
    return [["lattice", "complement", good["gram"], "--classes", p]]


def _paths(doc, here=()):
    """Every node of a JSON document, as a key path from the root."""
    out = [here]
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.extend(_paths(value, here + (key,)))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.extend(_paths(value, here + (i,)))
    return out


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _check(argv):
    code, out, err = _run(argv)
    assert code in EXIT_CODES, (argv, code, err)
    if code != cli.EX_OK:
        assert out == "", (argv, code)


MUTATIONS = st.sampled_from(sorted(DOCS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(_paths(DOCS[kind])), JSON_VALUES))


@settings(FUZZ, max_examples=150)
@given(MUTATIONS)
def test_mutated_documents_exit_cleanly(files, mutation):
    kind, path, value = mutation
    with open(files["mutant"], "w", encoding="utf-8") as fh:
        json.dump(_replace(DOCS[kind], path, value), fh)
    for argv in _argvs(kind, files["mutant"], files):
        _check(argv)


SUBCOMMANDS = [["verify"], ["invariants"], ["johnson"], ["distinguish"], ["conjugate"],
               ["hurwitz", "explore"], ["hurwitz", "compare"], ["hurwitz", "frob"],
               ["lattice", "sig"], ["lattice", "parity"], ["lattice", "complement"],
               ["lattice", "enumerate"], ["scenario", "mck"], ["scenario", "chain"],
               ["scenario", "curves"], ["frobnicate"], ["--help"], []]
FLAGS = ["--family", "--genus", "--n", "--m", "--grid", "--json", "--csv", "--deep-check",
         "--mod", "--budget", "--word", "--prefix", "--classes", "--pattern", "--bound",
         "--context", "--table", "--jobs"]
VALUES = ["mck", "chain", "cycle", "x", "", "-1", "0", "1", "2", "3",
          "2..3,0..2", "3..3,-1..1", "3..2,0..0", "2,3", "[[0,1],[1,2]]", "[[0]]", "[1]"]
FILES = ["factorization", "word", "torelli_word", "fibration_spec", "hyperbolic",
         "classes", "not_json", "missing"]


def _argv_strategy():
    token = st.sampled_from(FLAGS) | st.sampled_from(VALUES) | st.sampled_from(FILES)
    return st.tuples(st.sampled_from(SUBCOMMANDS), st.lists(token, max_size=7))


@settings(FUZZ, max_examples=300)
@given(_argv_strategy())
def test_argument_lists_exit_cleanly(files, drawn):
    head, tokens = drawn
    missing = files["mutant"] + ".missing"
    args = [files.get(t, missing) if t in FILES else t for t in tokens]
    _check(head + args)
