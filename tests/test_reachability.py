"""Every function in ``src/monolab`` is reached from a command line, or is
declared below with its reason.

The argvs of ``corpus.json`` and the benchmark's 108 seed-1 jobs (inputs
from ``perfbench/gen.py``, which is only read) run in process under
``sys.setprofile``, which records the code object of every frame entered.
A function is any ``def`` or method in the package's source; lambdas and
comprehensions belong to the function that holds them.  The set of
functions no argv reaches must equal ``ALLOWED`` exactly: a new function
with no command-line path fails here, and so does an entry that a command
line now reaches or that names a function gone from the source.  About 4 s
on a 2-CPU machine (Python 3.11), within a 10 s budget.
"""

import inspect
import os
import sys

import pytest

import monolab
from test_cli import _gen
from test_corpus import load, replay

SRC = os.path.dirname(os.path.abspath(monolab.__file__))

_TRACER = ("wrapped by name by perfbench/tracer.py; goes with the by-name tracer "
           "(ROADMAP item 2)")
_VALUE = "value-type protocol: repr, comparison key, hash, length, mixing check, immutability"

# "module.qualname" -> why no argv reaches it
ALLOWED = {
    "_linalg.EchelonLattice.reduce": _TRACER,
    "homology.twist_matrix": _TRACER,
    "hurwitz.canonical_form": _TRACER,
    "johnson.sp_action_quotient": _TRACER,
    "johnson.sp_action_wedge": _TRACER + "; the body of sp_action_quotient",
    "johnson._gamma_matrix": _TRACER + "; the body of sp_action_quotient",
    "johnson._minor3": _TRACER + "; the body of sp_action_quotient",
    "johnson.commutator_tau": _TRACER,
    "schemas.dumps": _TRACER,
    "schemas.decode_homology_class": _TRACER,
    "schemas.decode_sp_map": _TRACER,
    "lattices.SublatticeBasis.rank": ("the rank tests/test_tracer_targets.py checks the "
                                      "tracer's saturate counter against"),
    "_linalg.Frozen.__hash__": _VALUE,
    "_linalg.Frozen.__setattr__": _VALUE,
    "_linalg.Frozen.__delattr__": _VALUE,
    "homology.HomologyClass.__repr__": _VALUE,
    "homology.SpMap.__repr__": _VALUE,
    "invariants.FibrationSpec.__repr__": _VALUE,
    "johnson.BoundingPairGen._key": _VALUE,
    "johnson.QuotientClass.__repr__": _VALUE,
    "johnson.QuotientClass._check": _VALUE,
    "johnson.TorelliWord.__repr__": _VALUE,
    "johnson.Wedge3.__repr__": _VALUE,
    "lattices.IntLattice.__repr__": _VALUE,
    "lattices.IntLattice._key": _VALUE,
    "lattices.SublatticeBasis.__repr__": _VALUE,
    "lattices.SublatticeBasis._key": _VALUE,
    "words.PositiveFactorization.__len__": _VALUE,
    "words.PositiveFactorization.__repr__": _VALUE,
    "words.PositiveFactorization._key": _VALUE,
    "words.TwistLetter.__repr__": _VALUE,
    "words.TwistLetter._key": _VALUE,
    "words.Word.__len__": _VALUE,
    "words.Word.__repr__": _VALUE,
    "words.Word._key": _VALUE,
    "cli._command": "registers a subcommand at import time, before any argv runs",
    "cli._command.<locals>.register": "registers a subcommand at import time",
    "cli.main": "the console entry point; the argvs run through cli.run in process",
}


def _functions():
    """"module.qualname" of every def in the package's source."""
    names = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            # a function body is optimized; a module or class body is not
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                names.add("%s.%s" % (name[:-3], code.co_qualname))
    return names


def _reached(tmp_path):
    """"module.qualname" of every package function some argv enters."""
    corpus, gen, codes = load(), _gen(), set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    runs = [(corpus["files"], [e["argv"] for e in corpus["entries"]], tmp_path / "corpus")]
    for workload in gen.WORKLOADS:
        jobs, files = gen.build(workload, 1)
        runs.append((files, [job["argv"] for job in jobs], tmp_path / workload))
    # each argv runs in a fresh process, so it starts with the package's
    # caches empty; so does this replay
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "monolab":
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    sys.setprofile(profile)
    try:
        for files, argvs, directory in runs:
            directory.mkdir()
            replay(files, argvs, str(directory))
    finally:
        sys.setprofile(None)
    return {"%s.%s" % (os.path.basename(c.co_filename)[:-3], c.co_qualname) for c in codes
            if os.path.dirname(os.path.abspath(c.co_filename)) == SRC}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_every_function_is_reached_from_a_command_line_or_allowed(tmp_path):
    unreached = _functions() - _reached(tmp_path)
    assert sorted(unreached - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - unreached) == []
