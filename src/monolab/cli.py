"""Command-line front end.  The only module that touches files or stdout.

Exit codes: 0 computation ran (any verdict), 2 malformed input or usage (an
input file that is not UTF-8 JSON, a repeated flag, a flag or a positional
count that the subcommand's declaration in ``_command`` does not list; the
message names the path or flag, a field error the field and then the file),
3 a checked precondition failed (the message names it), 64 unknown
subcommand, 66 an input path that is missing or cannot be read (a
directory, no permission; the message names the path), 70 an internal
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

After ``import monolab.cli`` every module of the package is in
``sys.modules`` and an attribute of the package, but only ``_linalg``,
``homology``, ``words``, ``schemas`` and ``cli`` have run; the others run
on first use (``importlib.util.LazyLoader``, see the package docstring).
``verify``, ``conjugate`` and ``--help`` run no more; ``hurwitz explore``
and ``hurwitz compare`` run ``hurwitz``; ``lattice ...`` runs ``lattices``;
``johnson`` runs ``johnson`` and ``lattices``; ``invariants`` on a spec file
runs ``invariants``; ``distinguish``, ``scenario ...`` and ``invariants
--family`` run ``scenarios``, ``johnson``, ``lattices`` and ``invariants``.
A refusal (exit 2, 3, 64 or 66) runs no module its command would not.
"""

import json
import os
import sys
from collections import namedtuple

from . import hurwitz, invariants, johnson, lattices, scenarios, schemas
from ._linalg import gcd_all
from .schemas import SchemaError
from .words import PositiveFactorization
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


def _decode_file(decode, path, *extra):
    """``decode(doc, *extra)`` of the JSON file at ``path``; a SchemaError
    names the field first and the file after it."""
    doc = _load_json(path)
    try:
        return decode(doc, *extra)
    except SchemaError as exc:
        raise SchemaError("%s (in %s)" % (exc, path)) from None


def _document(doc_type, fields):
    """The JSON document of one report: schema and type, then the fields."""
    return {"schema": schemas.SCHEMA, "type": doc_type, **fields}


class _Args(dict):
    """A command line's flags (name -> value, True for a switch), positionals
    and command words; ``argv`` is parsed against ``flags`` (name -> takes a
    value), refusing an unknown flag, one given twice and one with no value."""

    def __init__(self, words, argv, flags):
        self.words, self.positional = words, []
        rest = iter(argv)
        for arg in rest:
            if not arg.startswith("--"):
                self.positional.append(arg)
                continue
            name = arg[2:]
            if name in self:
                raise UsageError("flag --%s given twice" % name)
            if name not in flags:
                raise UsageError("unknown flag --%s" % name)
            self[name] = next(rest, None) if flags[name] else True
            if self[name] is None:
                raise UsageError("flag --%s needs a value" % name)

    def get_int(self, name, default=None):
        if name not in self:
            return default
        try:
            return _bounded(int, self[name])
        except ValueError:
            raise UsageError("flag --%s expects an integer" % name)


def _format_table(pairs):
    width = max(len(k) for k, _ in pairs)
    return "\n".join("%-*s  %s" % (width, k, v) for k, v in pairs)


# command words (("verify",) or ("hurwitz", "explore")) -> the modes of the
# command, each a handler with its usage, positional count, flags (name ->
# takes a value) and required flags
_COMMANDS = {}
_Mode = namedtuple("_Mode", "handler usage positional flags required")


def _command(words, *units):
    """Register the decorated handler for ``monolab WORDS UNITS``; a unit is a
    positional ``<name>``, a switch ``--name`` or a flag ``--name V``, optional
    in brackets.  Of a command's modes, in the order registered, the first
    whose first required flag is given, or that requires none, is picked."""
    def register(handler):
        heads = [u.strip("[]").split(None, 1) for u in units]
        flags = {h[0][2:]: len(h) == 2 for h in heads if h[0].startswith("--")}
        required = [u.split()[0][2:] for u in units if u.startswith("--")]
        positional = sum(u.startswith("<") for u in units)
        _COMMANDS.setdefault(tuple(words.split()), []).append(
            _Mode(handler, " ".join((words,) + units), positional, flags, required))
        return handler
    return register


def _dispatch(argv):
    """The output of the handler argv names, once argv meets its declaration:
    an unknown flag, one the picked mode does not read, a wrong positional
    count or a missing required flag is a UsageError naming it."""
    words = tuple(argv[:1])
    if words not in _COMMANDS:  # a group: the next word names the subcommand
        words = tuple(argv[:2])
        if words not in _COMMANDS:
            subs = "|".join(w[1] for w in _COMMANDS if w[0] == argv[0])
            raise UsageError("%s takes one of %s, got %r" % (argv[0], subs, argv[1:2]))
    modes = _COMMANDS[words]
    args = _Args(words, argv[len(words):], {f: v for m in modes for f, v in m.flags.items()})
    mode = next((m for m in modes if not m.required or m.required[0] in args), modes[0])
    usage = "usage: monolab " + mode.usage
    unread = [f for f in args if f not in mode.flags]
    if unread:
        raise UsageError("flag --%s is not read here; %s" % (unread[0], usage))
    if len(args.positional) != mode.positional:
        raise UsageError("expected %d positional argument(s), got %r; %s"
                         % (mode.positional, args.positional, usage))
    missing = [f for f in mode.required if f not in args]
    if missing:
        raise UsageError("missing required flag --%s; %s" % (missing[0], usage))
    return mode.handler(args)


# -- subcommands ---------------------------------------------------------------


@_command("verify", "<factorization.json>", "[--json]")
def _cmd_verify(args):
    word, target = _decode_file(schemas.decode_factorization, args.positional[0])
    report = verify_factorization(word, target)
    if "json" in args:
        return _document("verify_report", report)
    return "\n".join(("Sp-level identity: %s" % report["verdict"],
                      "letters: %d, genus: %d" % (report["letters"], report["genus"]),
                      "certification: %s" % report["certification"]))


def _check_family(fam, what="family"):
    if fam not in scenarios.FAMILY_KINDS:
        raise UsageError("unknown %s %r; expected mck or chain" % (what, fam))


def _check_genus(kind, g, flag="--genus"):
    """Refuse, before anything is built, a g whose surface genus exceeds
    schemas.MAX_GENUS, the bound the document decoders apply."""
    genus = scenarios.surface_genus(kind, g)
    if genus > schemas.MAX_GENUS:
        raise UsageError("%s: g = %d gives surface genus %d, above MAX_GENUS = %d"
                         % (flag, g, genus, schemas.MAX_GENUS))


def _naming(flag, build, *args):
    """``build(*args)``; the ValueError it raises for a parameter below the
    least it admits is refused (exit 3) naming ``flag``, which gave it."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError("%s: %s" % (flag, exc)) from None


@_command("invariants", "--grid g0..g1,n0..n1", "--family mck|chain", "[--csv]")
def _cmd_invariants_grid(args):
    """The --csv table of one family over g0..g1 by n0..n1, refused before
    anything is built when it has more than MAX_GRID_ROWS rows."""
    fam, grid = args.get("family"), args.get("grid")
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
    keys = ("chi", "sigma", "b1", "b2_plus", "b2_minus")
    lines = [",".join(("family", "g", "n") + keys)]
    for g in range(g0, g1 + 1):
        family = _naming("--grid", scenarios.family, fam, g)
        reports = {}
        for n in range(n0, n1 + 1):
            spec = _naming("--grid", family.spec, n)
            if id(spec) not in reports:
                reports[id(spec)] = invariants.full_report(spec)
            r = reports[id(spec)]
            lines.append(",".join([fam, str(g), str(n)] + [str(r[k]) for k in keys]))
    return "\n".join(lines)


# registered bottom up, after the grid: --grid, then --family, else a spec file
@_command("invariants", "<spec.json>", "[--json]")
@_command("invariants", "--family mck|chain", "--genus G", "[--n N]", "[--json]")
def _cmd_invariants(args):
    if args.positional:
        spec = _decode_file(schemas.decode_fibration_spec, args.positional[0])
    else:
        fam = args.get("family")
        _check_family(fam)
        g, n = args.get_int("genus"), args.get_int("n", 0)
        _check_genus(fam, g)
        spec = _naming("--n", _naming("--genus", scenarios.family, fam, g).spec, n)
    d = invariants.full_report(spec)
    if "json" in args:
        return _document("invariant_report", d)
    lines = [_format_table([(k, d[k]) for k in
                            ("chi", "sigma", "b1", "b2", "b2_plus", "b2_minus")])]
    if d["parity_notes"]:
        lines.append("notes: %s" % d["parity_notes"])
    lines.append("certification: %s" % d["certification_level"])
    return "\n".join(lines)


@_command("johnson", "<torelli_word.json>", "[--json]")
def _cmd_johnson(args):
    tw = _decode_file(schemas.decode_torelli_word, args.positional[0])
    value = johnson.tau_word(tw)
    content = gcd_all(value.coords)
    primitive = (content == 1)
    if "json" in args:
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


@_command("distinguish", "--family mck|chain", "--genus G", "--n N", "--m M", "[--json]",
          "[--deep-check]")
def _cmd_distinguish(args):
    fam_name = args.get("family")
    _check_family(fam_name)
    g = args.get_int("genus")
    _check_genus(fam_name, g)
    n = args.get_int("n")
    m = args.get_int("m")
    fam = _naming("--genus", scenarios.family, fam_name, g)
    for flag, k in (("--n", n), ("--m", m)):
        if k < 0:
            raise ValueError("%s: need %s >= 0" % (flag, flag[2:]))
    cert = johnson.distinguish(n, m, fam)
    if cert is None:
        verdict = "no certificate (equal parameters); equivalence is not claimed"
        if "json" in args:
            return _document("distinguish_report", {
                "family": fam_name, "genus": g, "n": n, "m": m,
                "certificate": None, "verdict": verdict})
        return verdict
    checks = johnson.check_certificate(cert, fam, deep="deep-check" in args)
    if "json" in args:
        return _document("distinguish_report", {
            "certificate": cert, "replayed_checks": [name for name, _ in checks]})
    return "\n".join(("certificate: contents d_%d = %d, d_%d = %d"
                      % (n, cert["content_n"], m, cert["content_m"]),
                      "verdict: %s" % cert["verdict"],
                      "replayed %d certificate checks" % len(checks),
                      "certification: %s" % cert["certification_level"]))


@_command("conjugate", "<factorization.json>", "--word <word.json>", "[--prefix K]")
def _cmd_conjugate(args):
    word, target = _decode_file(schemas.decode_factorization, args.positional[0])
    conj = _decode_file(schemas.decode_word, args.get("word"))
    fact = PositiveFactorization(word, target)
    if "prefix" not in args:
        out = global_conjugation(fact, conj)
    else:
        out = partial_conjugation(fact, args.get_int("prefix"), conj)
    return schemas.encode_factorization(out.word, out.claimed_target)


@_command("hurwitz explore", "<factorization.json>", "--mod M", "[--budget B]", "[--json]")
def _cmd_hurwitz_explore(args):
    mod, budget = args.get_int("mod"), args.get_int("budget", 10000)
    word, target = _decode_file(schemas.decode_factorization, args.positional[0])
    fact = PositiveFactorization(word, target)
    cfg = hurwitz.QuotientConfig(mod, word.genus)
    report = hurwitz.orbit_explore(fact, cfg, budget).as_dict()
    if "json" in args:
        return _document("orbit_report", report)
    return _format_table(sorted(report.items()))


@_command("hurwitz compare", "<f1.json>", "<f2.json>", "--mod M", "[--budget B]", "[--json]")
def _cmd_hurwitz_compare(args):
    mod, budget = args.get_int("mod"), args.get_int("budget", 10000)
    facts = [PositiveFactorization(*_decode_file(schemas.decode_factorization, p))
             for p in args.positional]
    cfg = hurwitz.QuotientConfig(mod, facts[0].genus)
    cert = hurwitz.same_orbit(facts[0], facts[1], cfg, budget).as_dict()
    if "json" in args:
        return _document("orbit_certificate", cert)
    lines = ["verdict: %s" % cert["verdict"]]
    if cert["reason"]:
        lines.append("reason: %s" % cert["reason"])
    lines.append("explored: %d of budget %d" % (cert["explored"], cert["budget"]))
    lines.append("certification: %s" % cert["certification_level"])
    return "\n".join(lines)


@_command("lattice sig", "<gram.json>", "[--json]")
def _cmd_lattice_sig(args):
    lattice = _decode_file(schemas.decode_gram, args.positional[0])
    plus, minus, zero = lattices.signature(lattice)
    doc = {"b_plus": plus, "b_minus": minus, "b_zero": zero, "signature": plus - minus}
    par = lattices.parity(lattice)
    if par == "odd" and plus > 0 and minus > 0 and zero == 0:
        doc["classification_note"] = (
            "odd indefinite => p<1> (+) q<-1> (cited classification, not computed)"
        )
    if "json" in args:
        return _document("signature_report", doc)
    return _format_table(sorted(doc.items()))


@_command("lattice parity", "<gram.json>")
def _cmd_lattice_parity(args):
    return lattices.parity(_decode_file(schemas.decode_gram, args.positional[0]))


@_command("lattice complement", "<gram.json>", "--classes <json with 'vectors'>")
def _cmd_lattice_complement(args):
    lattice = _decode_file(schemas.decode_gram, args.positional[0])
    vectors = _decode_file(schemas.decode_classes, args.get("classes"), lattice.rank)
    basis, induced = lattices.orthogonal_complement(lattice, vectors)
    return _document("complement_report", {
        "basis": basis.sparse_rows,
        "gram": [list(r) for r in induced.gram],
        "parity": lattices.parity(induced)})


@_command("lattice enumerate", "<gram.json>", "--pattern '<json matrix>'", "[--bound B]")
def _cmd_lattice_enumerate(args):
    lattice = _decode_file(schemas.decode_gram, args.positional[0])
    pattern = _parse_json(args.get("pattern"), "--pattern")
    if not isinstance(pattern, list):
        raise SchemaError("--pattern: expected a square matrix of integers")
    schemas.expect_int_rows(pattern, len(pattern), "--pattern")
    bound = args.get_int("bound", 5)
    tuples = lattices.enumerate_pattern(lattice, pattern, bound)
    return _document("enumeration_report", {
        "bound": bound,
        "completeness": "complete within box [-%d, %d]" % (bound, bound),
        "tuples": [[list(v) for v in t] for t in tuples]})


@_command("scenario mck", "--genus G", "[--n N]")
@_command("scenario chain", "--genus G", "[--n N]")
def _cmd_scenario_family(args):
    kind, g = args.words[1], args.get_int("genus")
    _check_genus(kind, g)
    family = _naming("--genus", scenarios.family, kind, g)
    return schemas.encode_fibration_spec(_naming("--n", family.spec, args.get_int("n", 0)))


@_command("scenario curves", "--genus G", "[--context mck|chain]")
def _cmd_scenario_curves(args):
    g, context = args.get_int("genus"), args.get("context", "mck")
    _check_family(context, "--context")
    _check_genus(context, g)
    return _document("curve_table", _naming("--genus", scenarios.CurveTable, context, g).as_dict())


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
                 + " | ".join(sorted({words[0] for words in _COMMANDS})))
        if argv:
            return _write_out(usage)
        _warn(usage)
        return EX_UNKNOWN_COMMAND
    if not any(words[0] == argv[0] for words in _COMMANDS):
        _warn("unknown subcommand: %s" % argv[0])
        return EX_UNKNOWN_COMMAND
    limit = sys.get_int_max_str_digits()
    # any exact int prints: inputs keep their own bound (MAX_INPUT_DIGITS)
    sys.set_int_max_str_digits(0)
    try:
        out = _dispatch(argv)
    except InputFileError as exc:
        _warn(exc)
        return EX_NO_INPUT
    except (UsageError, SchemaError) as exc:
        _warn("error: %s" % exc)
        return EX_SCHEMA
    except (ValueError, IndexError) as exc:
        # ConjugationError, FactorizationError, GenusMismatchError and
        # FibrationError among them; a clause of its own, so that a refusal
        # runs no module its command did not (see the module docstring)
        _warn("precondition failed: %s" % exc)
        return EX_PRECONDITION
    except (scenarios.ScenarioValidationError, johnson.SaturationBudgetError) as exc:
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
