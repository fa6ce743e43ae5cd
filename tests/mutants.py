"""Hand-picked mutants of the kernels that carry a sign or a bound.

Each mutant names a file, an exact old text that occurs once in it, the
text that replaces it and the tests that must fail once it does.  The
runner copies ``src``, ``tests`` and ``pyproject.toml`` to a temporary
directory, applies one mutant there, runs only its tests under the
``mutants`` hypothesis profile of ``conftest.py`` (no shrinking: the first
failing example is enough) and reports every mutant that some named test
survives, with each mutant's wall time and the total.  A named test is
killed when at least one of its node ids (any case of a parametrized test)
is reported FAILED.  It exits 1 on such a survivor or when a mutant's old
text no longer occurs exactly once, so the list follows the code.  This is classical mutation analysis (DeMillo, Lipton and
Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978).

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

pytest does not collect this file; ``test_mutants.py`` checks the old texts.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file, old text, new text, tests that must fail)
MUTANTS = [
    ("transvection-sign", "src/monolab/homology.py",
     "k = power * pairing(x, c)", "k = -power * pairing(x, c)",
     ["tests/test_homology.py::test_transvection_sign_convention",
      "tests/test_words.py::test_elementary_transformation_matches_the_dense_conjugation"]),
    ("elimination-pivot-sign", "src/monolab/lattices.py",
     "minus += (p > 0) != (prev > 0)", "minus += (p > 0) == (prev > 0)",
     ["tests/test_lattices.py::test_signature_examples",
      "tests/test_sympy_oracle.py::test_signature_matches_eigenvalue_sign_counts"]),
    ("radical-determinant", "src/monolab/lattices.py",
     "0 if a else prev", "prev if a else prev",
     ["tests/test_sympy_oracle.py::test_det_matches_sympy",
      "tests/test_linalg.py::test_rank_against_det"]),
    ("dual-sign", "src/monolab/homology.py",
     "(i + g, -x) if i < g", "(i + g, x) if i < g",
     ["tests/test_homology.py::test_twist_matrix_matches_transvection_on_basis",
      "tests/test_words.py::test_elementary_transformation_matches_the_dense_conjugation"]),
    ("right-twist-power", "src/monolab/homology.py",
     "k = power * sum(r[i] * x for i, x in c)", "k = sum(r[i] * x for i, x in c)",
     ["tests/test_homology.py::test_twist_matrix_zero_class_and_inverse_pair",
      "tests/test_words.py::test_elementary_transformation_matches_the_dense_conjugation"]),
    ("writer-int-fast-path", "src/monolab/schemas.py",
     "if all(type(x) is int for x in value):", "if all(isinstance(x, int) for x in value):",
     ["tests/test_schemas.py::test_dumps_matches_json_dumps",
      "tests/test_schemas.py::test_dumps_examples"]),
    ("writer-zero-fill-column", "src/monolab/schemas.py",
     "cells[col] = _scalar(x)", "cells[col - 1] = _scalar(x)",
     ["tests/test_schemas.py::test_sparse_rows_write_as_their_dense_lists",
      "tests/test_schemas.py::test_dumps_examples",
      "tests/test_cli.py::test_large_distinguish_documents_are_pinned"]),
    ("tau-two-form-sign", "src/monolab/johnson.py",
     "form.get(q * n + p, 0) - e * x * y", "form.get(q * n + p, 0) + e * x * y",
     ["tests/test_johnson.py::test_tau_word_matches_the_dense_oracle",
      "tests/test_cli.py::test_johnson_stdout_is_pinned",
      "tests/test_cli.py::test_distinguish_certificates_are_pinned"]),
    ("tau-letter-order", "src/monolab/johnson.py",
     "for l in reversed(w.letters)", "for l in w.letters",
     ["tests/test_johnson.py::test_tau_word_matches_the_dense_oracle",
      "tests/test_cli.py::test_johnson_stdout_is_pinned",
      "tests/test_cli.py::test_distinguish_certificates_are_pinned"]),
    ("replay-plain-int", "src/monolab/_linalg.py",
     "all(type(x) is int for x in row)", "True",
     ["tests/test_johnson.py::test_a_basis_entry_that_is_not_a_plain_int_fails_hermite_form"]),
    ("sparse-row-column-range", "src/monolab/_linalg.py",
     "all(r.values()) and all(map(cols, r))", "all(r.values())",
     ["tests/test_johnson.py::"
      "test_sparse_row_with_a_column_outside_the_dimension_fails_hermite_form"]),
    ("scaled-zero-rows", "src/monolab/lattices.py",
     " if k else {}", "",
     ["tests/test_acceptance.py::test_criterion_05_distinguishing_certificates",
      "tests/test_scenarios.py::test_saturation_scaling_oracle"]),
    ("seed-linearity-check", "src/monolab/johnson.py",
     "if family.seed_classes(k) != [k * s for s in unit_seeds]:", "if False:",
     ["tests/test_cli.py::test_seeds_that_do_not_scale_linearly_fail_the_self_check"]),
    ("twist-delta-contraction-sign", "src/monolab/johnson.py",
     "form.get(key, 0) - t * x", "form.get(key, 0) + t * x",
     ["tests/test_johnson.py::test_twist_delta_matches_the_dense_action",
      "tests/test_scenarios.py::test_unit_seeds_match_commutator_tau"]),
    ("output-limit-lift", "src/monolab/cli.py",
     "sys.set_int_max_str_digits(0)", "sys.get_int_max_str_digits()",
     ["tests/test_cli.py::test_a_5000_digit_coefficient_prints_exactly"]),
    ("input-digit-bound", "src/monolab/cli.py",
     "sys.set_int_max_str_digits(MAX_INPUT_DIGITS)", "sys.set_int_max_str_digits(0)",
     ["tests/test_cli.py::test_input_literals_are_bounded_at_max_input_digits",
      "tests/test_cli.py::test_a_too_long_integer_literal_is_refused_naming_the_path"]),
    ("move-back-inverse", "src/monolab/hurwitz.py",
     "state = step(state, code ^ 1)", "state = step(state, code)",
     ["tests/test_hurwitz.py::test_same_orbit_outputs_are_pinned",
      "tests/test_hurwitz.py::test_witness_replay_validates"]),
    ("class-count-tags", "src/monolab/hurwitz.py",
     "classes = len(tags) * cfg.modulus", "classes = cfg.modulus",
     ["tests/test_hurwitz.py::test_search_tables_are_bounded_per_search",
      "tests/test_hurwitz.py::test_roots_with_two_separating_splits_stay_below_the_class_count"]),
    ("stdout-flush-before-exit", "src/monolab/cli.py",
     "sys.stdout.flush()", "pass",
     ["tests/test_cli.py::test_process_stdout_is_what_run_prints"]),
    ("unit-seeds-literal-check", "src/monolab/scenarios.py",
     "if tau_word(literal) != seed:", "if False:",
     ["tests/test_scenarios.py::test_unit_seeds_check_a_sign_flipped_contraction",
      "tests/test_scenarios.py::test_unit_seeds_check_a_dropped_pair_column"]),
    ("hermite-reduced-entries", "src/monolab/_linalg.py",
     "return out if reduced else None", "return out",
     ["tests/test_johnson.py::test_tampered_certificate_fails_at_the_named_check"]),
    ("pairing-sign", "src/monolab/homology.py",
     "u[i] * v[g + i] - u[g + i] * v[i]", "u[g + i] * v[i] - u[i] * v[g + i]",
     ["tests/test_homology.py::test_basis_pairings",
      "tests/test_homology.py::test_transvection_sign_convention"]),
    ("stability-reused-unchecked", "src/monolab/johnson.py",
     "(shipped and _scales_to(n, shipped[0], m, pivots))", "shipped",
     ["tests/test_johnson.py::test_a_basis_m_that_is_not_the_scaled_basis_n_is_checked_directly",
      "tests/test_johnson.py::test_tampered_certificate_fails_at_the_named_check"]),
    ("insert-reduction-skipped", "src/monolab/_linalg.py",
     "_reduce_right(row, self.pivot_rows)", "None",
     ["tests/test_linalg.py::test_insert_stores_rows_reduced_at_the_pivots_to_their_right",
      "tests/test_linalg.py::test_sparse_echelon_matches_the_dense_oracle"]),
    ("kernel-row-doubled", "src/monolab/_linalg.py",
     "dense(lat.pivot_rows[p], m + n)[m:] for p",
     "dense({k: 2 * x for k, x in lat.pivot_rows[p].items()}, m + n)[m:] for p",
     ["tests/test_linalg.py::test_kernel_basis",
      "tests/test_sympy_oracle.py::test_kernel_basis_is_the_saturated_kernel"]),
    ("smith-divisibility-merge", "src/monolab/_linalg.py",
     "if x and d[j] % x), None)", "if False), None)",
     ["tests/test_linalg.py::test_snf_examples",
      "tests/test_sympy_oracle.py::test_smith_diagonal_matches_sympy"]),
    ("letters-direction-order", "src/monolab/hurwitz.py",
     '_DIRECTIONS = ("left", "right")', '_DIRECTIONS = ("right", "left")',
     ["tests/test_hurwitz.py::test_explore_equals_the_search_on_letter_tuples",
      "tests/test_hurwitz.py::test_same_orbit_outputs_are_pinned"]),
    ("id-width-one-byte", "src/monolab/hurwitz.py",
     "self.width = w = max(1, ((bound - 1).bit_length() + 7) // 8)", "self.width = w = 1",
     ["tests/test_hurwitz.py::test_search_tables_are_bounded_per_search"]),
]


def occurrences(path, old):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read().count(old)


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_mutant(name, path, old, new, tests):
    """'killed' (every named test failed), 'survived k of n', or 'stale'
    (the old text is not there once)."""
    if occurrences(path, old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(tmp)
        target = os.path.join(tmp, path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             "--hypothesis-profile=mutants"] + tests,
            cwd=tmp, env=dict(os.environ, PYTHONPATH=os.path.join(tmp, "src")),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    # "FAILED <node id>[<case>] - <message>"; an error is no kill
    failed = [line[len("FAILED "):] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    survivors = [t for t in tests if not any(
        node == t or node.startswith((t + "[", t + " ")) for node in failed)]
    return "survived %d of %d" % (len(survivors), len(tests)) if survivors else "killed"


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print("unknown mutants: %s" % ", ".join(sorted(unknown)), file=sys.stderr)
        return 2
    bad, start = 0, time.perf_counter()
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        began = time.perf_counter()
        verdict = run_mutant(*mutant)
        bad += verdict != "killed"
        print("%-28s %-16s %6.1f s" % (mutant[0], verdict, time.perf_counter() - began),
              flush=True)
    print("%-28s %-16s %6.1f s" % ("total", "", time.perf_counter() - start))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
