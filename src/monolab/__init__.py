"""monolab: exact integer computations with Dehn-twist factorizations.

Symplectic shadows of twist words, Hurwitz and conjugation moves, Johnson
invariants of Torelli words with divisibility certificates, and the
classical invariants of the associated fibered 4-manifolds.  Everything is
arbitrary-precision integer arithmetic; no verdict ever claims more than
the representation it was computed in.

Every submodule but ``cli`` and ``__main__`` is in ``sys.modules`` and an
attribute of the package once the package is imported, but its code runs
only on its first attribute access (``importlib.util.LazyLoader``), so each
command runs only the modules it uses.
"""

import importlib.util
import sys

__version__ = "0.1.0"

for _name in ("_linalg", "homology", "words", "lattices", "invariants", "johnson",
              "hurwitz", "scenarios", "schemas"):
    _spec = importlib.util.find_spec(__name__ + "." + _name)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec
