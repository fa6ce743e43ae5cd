"""Every function the benchmark tracer wraps by name still exists.

``perfbench/tracer.py`` wraps each ``(module, attribute path)`` in its
TARGETS list and crashes a traced run when one is missing; this test makes
a rename or deletion in ``src/`` fail here instead.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


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
