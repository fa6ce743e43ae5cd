"""Every function the benchmark tracer wraps by name still exists, and a
traced run still prints what an untraced one prints.

``perfbench/tracer.py`` wraps each ``(module, attribute path)`` in its
TARGETS list and crashes a traced run when one is missing; this test makes
a rename or deletion in ``src/`` fail here instead.  The tracer finds the
modules in ``sys.modules`` right after ``import monolab.cli``, so a module
that the command line imported only inside a handler would crash it too.
"""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys

import monolab
from monolab import _linalg, schemas
from monolab.johnson import QuotientClass, saturate
from monolab.scenarios import family
from monolab.words import Word
from oracles import DenseEchelonLattice

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return _tracer().TARGETS


def _resolves(module, path):
    holder = importlib.import_module("monolab." + module)
    owner, _, attr = path.rpartition(".")
    for name in owner.split(".") if owner else ():
        holder = getattr(holder, name, None)
    # the tracer replaces the binding in the holder's own namespace
    return callable(vars(holder).get(attr)) if holder is not None else False


def test_every_tracer_target_resolves():
    missing = ["monolab.%s.%s" % (module, path) for module, path, *_ in _targets()
               if not _resolves(module, path)]
    assert not missing


def test_tracer_counters_read_growth_and_rank():
    # the tracer counts int(bool(EchelonLattice.insert(...))) as a growth and
    # len(saturate(...).rows) as the rank; both must keep those meanings
    tracer = _tracer()
    (_, grew), _ = tracer._counters("linalg.EchelonLattice.insert")
    (_, rank), _ = tracer._counters("johnson.saturate")
    rng = random.Random(5)
    lat, oracle = _linalg.EchelonLattice(4), DenseEchelonLattice(4)
    rows = [(2, 0, 0, 0), (4, 0, 0, 0), (3, 0, 0, 0), (0, 0, 0, 0), (-1, 2, 0, 0)]
    rows += [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(12)]
    for row in rows:
        assert grew((lat, row), lat.insert(row)) == int(oracle.insert(list(row)))
    fam = family("mck", 3)
    genus, gens = fam.surface_genus, fam.action_generators()
    for seeds in (fam.seed_classes(1), fam.seed_classes(3), [QuotientClass.zero(genus)]):
        basis = saturate(seeds, gens)
        assert rank(seeds, basis) == _linalg.rank(basis.rows) == basis.rank


def test_a_traced_run_prints_what_an_untraced_run_prints(tmp_path):
    # the tracer wraps its targets in every module named in sys.modules right
    # after `import monolab.cli`; a module that has not run yet loads when the
    # tracer reads its namespace, so a traced job still wraps every target
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    fact = tmp_path / "fact.json"
    fact.write_text(json.dumps(schemas.encode_factorization(
        Word(family("mck", 2).spec(0).cycles, 4))))
    argv = ["hurwitz", "explore", str(fact), "--mod", "3", "--budget", "200"]
    env = dict(os.environ, PYTHONPATH=src)
    trace = tmp_path / "trace.json"
    traced = subprocess.run([sys.executable, TRACER, str(trace), "explore"] + argv,
                            capture_output=True, env=env, timeout=60)
    plain = subprocess.run([sys.executable, "-m", "monolab"] + argv,
                           capture_output=True, env=env, timeout=60)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    stats = json.loads(trace.read_text())["stats"]
    assert stats["hurwitz.orbit_explore"]["calls"] == 1
