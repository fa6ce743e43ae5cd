"""monolab: exact integer computations with Dehn-twist factorizations.

Symplectic shadows of twist words, Hurwitz and conjugation moves, Johnson
invariants of Torelli words with divisibility certificates, and the
classical invariants of the associated fibered 4-manifolds.  Everything is
arbitrary-precision integer arithmetic; no verdict ever claims more than
the representation it was computed in.
"""

__version__ = "0.1.0"
