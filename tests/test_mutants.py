"""The mutation list in ``mutants.py`` still matches the code: each old
text occurs exactly once in its file, and each named test exists."""

import os

from mutants import MUTANTS, ROOT, occurrences


def test_every_mutant_old_text_occurs_exactly_once():
    counts = {name: occurrences(path, old) for name, path, old, _, _ in MUTANTS}
    assert counts == {name: 1 for name in counts}


def test_every_mutant_names_existing_tests():
    for name, _, old, new, tests in MUTANTS:
        assert tests and new != old, name
        for node in tests:
            path, _, func = node.partition("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
                assert "def %s(" % func in fh.read(), (name, node)
