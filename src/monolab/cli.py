"""Command-line front end.  The only module that touches files or stdout.

Exit codes: 0 computation ran (any verdict), 2 malformed input or usage
(an input file that is not UTF-8 JSON, a repeated flag; the message names
the path or flag), 3 a checked precondition failed (the message names it),
64 unknown subcommand, 66 an input path that is missing or cannot be read
(a directory, no permission; the message names the path), 70 an internal
self-check failed (a fault in monolab, not in the input), 74 stdout could
not be written (the reader left early, a full device).  A text
subcommand returns its whole stdout as one string, which ``run`` writes
once; a JSON subcommand returns its document, which ``run`` writes in
pieces (``schemas.write``) once the subcommand has returned, so every check
has passed before the first byte and a failure leaves stdout empty.  The
only failure left while writing is an ``OSError`` from writing or flushing
stdout.  Failure messages go to stderr only: a closed or unwritable stderr
changes neither stdout nor the exit code.  ``main`` ends the process with
``os._exit`` once ``run`` has flushed stdout, so interpreter teardown and
atexit handlers are skipped (monolab registers none).  An exact integer of
any length prints; an integer literal in an input may have at most
MAX_INPUT_DIGITS digits.  Output is deterministic byte for byte for fixed
inputs and flags: keys are sorted, orderings canonical, and nothing
timestamps.
"""

import json
import os
import sys

from . import hurwitz, invariants, johnson, lattices, scenarios, schemas
from ._linalg import gcd_all
from .homology import GenusMismatchError
from .schemas import SchemaError
from .words import ConjugationError, FactorizationError, PositiveFactorization
from .words import partial_conjugation, global_conjugation, verify_factorization

EX_OK = 0
EX_SCHEMA = 2
EX_PRECONDITION = 3
EX_UNKNOWN_COMMAND = 64
EX_NO_INPUT = 66
EX_SOFTWARE = 70
EX_IOERR = 74

# rows of one `invariants --grid` table; the paper's largest grid has 44
MAX_GRID_ROWS = 10000

# digits of one integer literal in an input file or flag; the interpreter's
# default int-from-string limit, which ``run`` lifts so that any computed
# int prints
MAX_INPUT_DIGITS = 4300


class UsageError(Exception):
    pass


class InputFileError(Exception):
    """An input path that is missing or cannot be read."""


class _DuplicateKey(Exception):
    pass


def _unique_keys(pairs):
    """``object_pairs_hook`` that refuses an object with a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise _DuplicateKey(key)
        doc[key] = value
    return doc


def _bounded(parse, text):
    """``parse(text)`` with the interpreter's int-from-string limit set to
    MAX_INPUT_DIGITS for this parse only: a longer integer literal raises
    ValueError, inside the C parser, at no cost per integer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_INPUT_DIGITS)
    try:
        return parse(text)
    finally:
        sys.set_int_max_str_digits(limit)


def _parse_json(text, where):
    """The JSON value of ``text``; invalid JSON, a repeated key, nesting
    past the interpreter's recursion limit and an integer literal of more
    than MAX_INPUT_DIGITS digits are refused, naming ``where``."""
    try:
        return _bounded(lambda t: json.loads(t, object_pairs_hook=_unique_keys), text)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s: invalid JSON (%s)" % (where, exc)) from exc
    except _DuplicateKey as exc:
        raise SchemaError("%s: duplicate key %r" % (where, exc.args[0])) from None
    except RecursionError:
        raise SchemaError("%s: JSON nested too deeply" % where) from None
    except ValueError as exc:
        raise SchemaError("%s: integer literal too long (%s)" % (where, exc)) from None


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise InputFileError("input file not found: %s" % path) from exc
    except OSError as exc:
        raise InputFileError("cannot read input file: %s (%s)"
                             % (path, exc.strerror)) from exc
    except UnicodeDecodeError as exc:
        raise SchemaError("%s: not UTF-8 text (%s)" % (path, exc)) from exc
    return _parse_json(text, path)


def _document(doc_type, fields):
    """The JSON document of one report: schema and type, then the fields."""
    return {"schema": schemas.SCHEMA, "type": doc_type, **fields}


class _Args:
    """Tiny positional/flag parser with a fixed, documented flag set."""

    def __init__(self, argv, flags_with_value=(), switches=()):
        self.positional = []
        self.values = {}
        self.switches = set()
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg.startswith("--"):
                name = arg[2:]
                if name in self.values or name in self.switches:
                    raise UsageError("flag --%s given twice" % name)
                if name in switches:
                    self.switches.add(name)
                elif name in flags_with_value:
                    i += 1
                    if i >= len(argv):
                        raise UsageError("flag --%s needs a value" % name)
                    self.values[name] = argv[i]
                else:
                    raise UsageError("unknown flag --%s" % name)
            else:
                self.positional.append(arg)
            i += 1

    def get_int(self, name, default=None):
        if name not in self.values:
            if default is None:
                raise UsageError("missing required flag --%s" % name)
            return default
        try:
            return _bounded(int, self.values[name])
        except ValueError:
            raise UsageError("flag --%s expects an integer" % name)

    def get(self, name, default=None):
        return self.values.get(name, default)


def _format_table(pairs):
    width = max(len(k) for k, _ in pairs)
    return "\n".join("%-*s  %s" % (width, k, v) for k, v in pairs)


# -- subcommands ---------------------------------------------------------------


def _cmd_verify(argv):
    args = _Args(argv, switches=("json",))
    if len(args.positional) != 1:
        raise UsageError("usage: verify <factorization.json> [--json]")
    doc = _load_json(args.positional[0])
    word, target = schemas.decode_factorization(doc)
    report = verify_factorization(word, target)
    if "json" in args.switches:
        return _document("verify_report", report)
    return "\n".join(("Sp-level identity: %s" % report["verdict"],
                      "letters: %d, genus: %d" % (report["letters"], report["genus"]),
                      "certification: %s" % report["certification"]))


def _check_family(fam):
    if fam not in scenarios.FAMILY_KINDS:
        raise UsageError("unknown family %r; expected mck or chain" % fam)


def _check_genus(kind, g, flag="--genus"):
    """Refuse, before anything is built, a g whose surface genus exceeds
    schemas.MAX_GENUS, the bound the document decoders apply."""
    genus = scenarios.surface_genus(kind, g)
    if genus > schemas.MAX_GENUS:
        raise UsageError("%s: g = %d gives surface genus %d, above MAX_GENUS = %d"
                         % (flag, g, genus, schemas.MAX_GENUS))


def _spec_from_args(args):
    fam = args.get("family")
    if fam is None:
        raise UsageError("need a spec file or --family mck|chain")
    _check_family(fam)
    g, n = args.get_int("genus"), args.get_int("n", 0)
    _check_genus(fam, g)
    return scenarios.family(fam, g).spec(n)


def _invariant_grid(fam, grid):
    """The --csv table of one family over g0..g1 by n0..n1, refused before
    anything is built when it has more than MAX_GRID_ROWS rows."""
    _check_family(fam)
    try:
        g_part, n_part = grid.split(",")
        g0, g1 = (_bounded(int, x) for x in g_part.split(".."))
        n0, n1 = (_bounded(int, x) for x in n_part.split(".."))
    except ValueError:
        raise UsageError("--grid expects g0..g1,n0..n1")
    rows = max(0, g1 - g0 + 1) * max(0, n1 - n0 + 1)
    if rows > MAX_GRID_ROWS:
        raise UsageError("--grid: %s has %d rows, above MAX_GRID_ROWS = %d"
                         % (grid, rows, MAX_GRID_ROWS))
    if g0 <= g1:
        _check_genus(fam, g1, "--grid")
    # members sharing a spec object share its report
    lines = ["family,g,n,chi,sigma,b1,b2_plus,b2_minus"]
    for g in range(g0, g1 + 1):
        family = scenarios.family(fam, g)
        reports = {}
        for n in range(n0, n1 + 1):
            spec = family.spec(n)
            if id(spec) not in reports:
                reports[id(spec)] = invariants.full_report(spec)
            r = reports[id(spec)]
            lines.append("%s,%d,%d,%d,%d,%d,%d,%d"
                         % (fam, g, n, r.chi, r.sigma, r.b1, r.b2_plus, r.b2_minus))
    return "\n".join(lines)


def _cmd_invariants(argv):
    args = _Args(argv, flags_with_value=("family", "genus", "n", "grid"),
                 switches=("json", "csv"))
    grid = args.get("grid")
    if grid is not None:
        if args.get("family") is None:
            raise UsageError("--grid requires --family")
        return _invariant_grid(args.get("family"), grid)
    if args.positional:
        doc = _load_json(args.positional[0])
        spec = schemas.decode_fibration_spec(doc)
    else:
        spec = _spec_from_args(args)
    d = invariants.full_report(spec).as_dict()
    if "json" in args.switches:
        return _document("invariant_report", d)
    lines = [_format_table([(k, d[k]) for k in
                            ("chi", "sigma", "b1", "b2", "b2_plus", "b2_minus")])]
    if d["parity_notes"]:
        lines.append("notes: %s" % d["parity_notes"])
    lines.append("certification: %s" % d["certification_level"])
    return "\n".join(lines)


def _cmd_johnson(argv):
    args = _Args(argv, switches=("json",))
    if len(args.positional) != 1:
        raise UsageError("usage: johnson <torelli_word.json> [--json]")
    tw = schemas.decode_torelli_word(_load_json(args.positional[0]))
    value = johnson.tau_word(tw)
    content = gcd_all(value.coords)
    primitive = (content == 1)
    if "json" in args.switches:
        return _document("johnson_value", {
            "genus": value.genus,
            "coords": list(value.coords),
            "nonzero": not value.is_zero(),
            "primitive": primitive,
            "content": content,
            "basis": "retained gamma-triples",
        })
    labels = value.labelled()
    lines = ["tau value (%d nonzero coordinates):" % len(labels)]
    lines += ["  %s: %d" % (name, coef) for name, coef in labels]
    lines.append("primitive: %s, content: %d" % (primitive, content))
    return "\n".join(lines)


def _cmd_distinguish(argv):
    args = _Args(argv, flags_with_value=("family", "genus", "n", "m"),
                 switches=("json", "deep-check"))
    fam_name = args.get("family")
    _check_family(fam_name)
    g = args.get_int("genus")
    _check_genus(fam_name, g)
    n = args.get_int("n")
    m = args.get_int("m")
    fam = scenarios.family(fam_name, g)
    cert = johnson.distinguish(n, m, fam)
    if cert is None:
        verdict = "no certificate (equal parameters); equivalence is not claimed"
        if "json" in args.switches:
            return _document("distinguish_report", {
                "family": fam_name, "genus": g, "n": n, "m": m,
                "certificate": None, "verdict": verdict})
        return verdict
    cert_doc = cert.as_dict()
    checks = johnson.check_certificate(cert_doc, fam, deep="deep-check" in args.switches)
    if "json" in args.switches:
        return _document("distinguish_report", {
            "certificate": cert_doc, "replayed_checks": [name for name, _ in checks]})
    return "\n".join(("certificate: contents d_%d = %d, d_%d = %d"
                      % (n, cert.content_n, m, cert.content_m),
                      "verdict: %s" % cert_doc["verdict"],
                      "replayed %d certificate checks" % len(checks),
                      "certification: %s" % cert_doc["certification_level"]))


def _cmd_conjugate(argv):
    args = _Args(argv, flags_with_value=("word", "prefix"), switches=("json",))
    if len(args.positional) != 1 or args.get("word") is None:
        raise UsageError("usage: conjugate <factorization.json> --word <word.json> [--prefix K]")
    word, target = schemas.decode_factorization(_load_json(args.positional[0]))
    conj = schemas.decode_word(_load_json(args.get("word")))
    fact = PositiveFactorization(word, target)
    if args.get("prefix") is None:
        out = global_conjugation(fact, conj)
    else:
        out = partial_conjugation(fact, args.get_int("prefix"), conj)
    return schemas.encode_factorization(out.word, out.claimed_target)


def _cmd_hurwitz(argv):
    if not argv:
        raise UsageError("usage: hurwitz explore|compare ...")
    sub, rest = argv[0], argv[1:]
    args = _Args(rest, flags_with_value=("mod", "budget"), switches=("json",))
    mod = args.get_int("mod")
    budget = args.get_int("budget", 10000)
    if sub == "explore":
        if len(args.positional) != 1:
            raise UsageError("usage: hurwitz explore <factorization.json> --mod M [--budget B]")
        word, target = schemas.decode_factorization(_load_json(args.positional[0]))
        fact = PositiveFactorization(word, target)
        cfg = hurwitz.QuotientConfig(mod, word.genus)
        report = hurwitz.orbit_explore(fact, cfg, budget).as_dict()
        if "json" in args.switches:
            return _document("orbit_report", report)
        return _format_table(sorted(report.items()))
    if sub == "compare":
        if len(args.positional) != 2:
            raise UsageError("usage: hurwitz compare <f1.json> <f2.json> --mod M [--budget B]")
        facts = []
        for p in args.positional:
            word, target = schemas.decode_factorization(_load_json(p))
            facts.append(PositiveFactorization(word, target))
        cfg = hurwitz.QuotientConfig(mod, facts[0].genus)
        cert = hurwitz.same_orbit(facts[0], facts[1], cfg, budget).as_dict()
        if "json" in args.switches:
            return _document("orbit_certificate", cert)
        lines = ["verdict: %s" % cert["verdict"]]
        if cert["reason"]:
            lines.append("reason: %s" % cert["reason"])
        lines.append("explored: %d of budget %d" % (cert["explored"], cert["budget"]))
        lines.append("certification: %s" % cert["certification_level"])
        return "\n".join(lines)
    raise UsageError("unknown hurwitz subcommand %r" % sub)


def _cmd_lattice(argv):
    if not argv:
        raise UsageError("usage: lattice sig|parity|complement|enumerate ...")
    sub, rest = argv[0], argv[1:]
    args = _Args(rest, flags_with_value=("classes", "pattern", "bound"), switches=("json",))
    if len(args.positional) != 1:
        raise UsageError("lattice commands take one gram.json input")
    lattice = schemas.decode_gram(_load_json(args.positional[0]))
    if sub == "sig":
        plus, minus, zero = lattices.signature(lattice)
        doc = {"b_plus": plus, "b_minus": minus, "b_zero": zero, "signature": plus - minus}
        par = lattices.parity(lattice)
        if par == "odd" and plus > 0 and minus > 0 and zero == 0:
            doc["classification_note"] = (
                "odd indefinite => p<1> (+) q<-1> (cited classification, not computed)"
            )
        if "json" in args.switches:
            return _document("signature_report", doc)
        return _format_table(sorted(doc.items()))
    if sub == "parity":
        return lattices.parity(lattice)
    if sub == "complement":
        classes_path = args.get("classes")
        if classes_path is None:
            raise UsageError("complement needs --classes <json with 'vectors'>")
        cdoc = _load_json(classes_path)
        vectors = cdoc.get("vectors") if isinstance(cdoc, dict) else None
        if not isinstance(vectors, list):
            raise SchemaError("classes file needs a 'vectors' list")
        schemas.expect_int_rows(vectors, lattice.rank, "classes.vectors")
        basis, induced = lattices.orthogonal_complement(lattice, vectors)
        return _document("complement_report", {
            "basis": basis.sparse_rows,
            "gram": [list(r) for r in induced.gram],
            "parity": lattices.parity(induced)})
    if sub == "enumerate":
        pattern_raw = args.get("pattern")
        if pattern_raw is None:
            raise UsageError("enumerate needs --pattern '<json matrix>'")
        pattern = _parse_json(pattern_raw, "--pattern")
        if not isinstance(pattern, list):
            raise SchemaError("--pattern: expected a square matrix of integers")
        schemas.expect_int_rows(pattern, len(pattern), "--pattern")
        bound = args.get_int("bound", 5)
        tuples = lattices.enumerate_pattern(lattice, pattern, bound)
        return _document("enumeration_report", {
            "bound": bound,
            "completeness": "complete within box [-%d, %d]" % (bound, bound),
            "tuples": [[list(v) for v in t] for t in tuples]})
    raise UsageError("unknown lattice subcommand %r" % sub)


def _cmd_scenario(argv):
    if not argv:
        raise UsageError("usage: scenario mck|chain|curves ...")
    sub, rest = argv[0], argv[1:]
    args = _Args(rest, flags_with_value=("genus", "n", "context"))
    g = args.get_int("genus")
    if sub in scenarios.FAMILY_KINDS:
        _check_genus(sub, g)
        n = args.get_int("n", 0)
        return schemas.encode_fibration_spec(scenarios.family(sub, g).spec(n))
    if sub == "curves":
        context = args.get("context", "mck")
        if context not in scenarios.FAMILY_KINDS:
            raise UsageError("unknown --context %r; expected mck or chain" % context)
        _check_genus(context, g)
        return _document("curve_table", scenarios.CurveTable(context, g).as_dict())
    raise UsageError("unknown scenario subcommand %r" % sub)


_COMMANDS = {
    "verify": _cmd_verify,
    "invariants": _cmd_invariants,
    "johnson": _cmd_johnson,
    "distinguish": _cmd_distinguish,
    "conjugate": _cmd_conjugate,
    "hurwitz": _cmd_hurwitz,
    "lattice": _cmd_lattice,
    "scenario": _cmd_scenario,
}


def _warn(message):
    """One line to stderr.  With fd 2 closed ``sys.stderr`` is None, and
    ``print`` would fall back to stdout; an unwritable stderr is ignored."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr, flush=True)
        except OSError:
            pass


def _write_out(out):
    """Write a subcommand's text or document to stdout and flush it: EX_OK,
    or EX_IOERR when writing or flushing raises or fd 1 is closed."""
    if sys.stdout is None:
        return EX_IOERR
    try:
        if isinstance(out, str):
            print(out)
        else:
            schemas.write(out, sys.stdout.write)
            sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError:
        return EX_IOERR
    return EX_OK


def run(argv):
    """Dispatch one invocation; returns the exit code."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        usage = ("usage: monolab <command> [options]\ncommands: "
                 + " | ".join(sorted(_COMMANDS)))
        if argv:
            return _write_out(usage)
        _warn(usage)
        return EX_UNKNOWN_COMMAND
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        _warn("unknown subcommand: %s" % command)
        return EX_UNKNOWN_COMMAND
    limit = sys.get_int_max_str_digits()
    # any exact int prints: inputs keep their own bound (MAX_INPUT_DIGITS)
    sys.set_int_max_str_digits(0)
    try:
        out = handler(argv[1:])
    except InputFileError as exc:
        _warn(exc)
        return EX_NO_INPUT
    except (UsageError, SchemaError) as exc:
        _warn("error: %s" % exc)
        return EX_SCHEMA
    except (ConjugationError, FactorizationError, GenusMismatchError,
            invariants.FibrationError, scenarios.ScenarioValidationError,
            johnson.SaturationBudgetError, ValueError, IndexError) as exc:
        _warn("precondition failed: %s" % exc)
        return EX_PRECONDITION
    except AssertionError as exc:
        _warn("internal self-check failed: %s" % exc)
        return EX_SOFTWARE
    else:
        return _write_out(out)
    finally:
        sys.set_int_max_str_digits(limit)


def main():
    """Run one invocation and end the process at its last flushed byte:
    ``os._exit`` skips interpreter teardown (and so atexit handlers), and
    with it a second flush of a stdout that already failed."""
    os._exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
