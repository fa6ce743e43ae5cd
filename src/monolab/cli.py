"""Command-line front end.  The only module that touches files or stdout.

Exit codes: 0 computation ran (any verdict), 2 malformed input or usage,
3 a checked precondition failed (the message names it), 64 unknown
subcommand, 66 input file not found, 70 an internal self-check failed (a
fault in monolab, not in the input), 74 stdout was closed before the output
was written (the reader left early).  Output is deterministic byte for
byte for fixed inputs and flags: keys are sorted, orderings canonical,
and nothing timestamps.
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


class UsageError(Exception):
    pass


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError("%s: invalid JSON (%s)" % (path, exc)) from exc


def _emit(doc):
    print(schemas.dumps(doc))


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
            return int(self.values[name])
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
        _emit({"schema": schemas.SCHEMA, "type": "verify_report", **report})
    else:
        print("Sp-level identity: %s" % report["verdict"])
        print("letters: %d, genus: %d" % (report["letters"], report["genus"]))
        print("certification: %s" % report["certification"])
    return EX_OK


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


def _cmd_invariants(argv):
    args = _Args(argv, flags_with_value=("family", "genus", "n", "grid"),
                 switches=("json", "csv"))
    grid = args.get("grid")
    if grid is not None:
        fam = args.get("family")
        if fam is None:
            raise UsageError("--grid requires --family")
        _check_family(fam)
        try:
            g_part, n_part = grid.split(",")
            g0, g1 = (int(x) for x in g_part.split(".."))
            n0, n1 = (int(x) for x in n_part.split(".."))
        except ValueError:
            raise UsageError("--grid expects g0..g1,n0..n1")
        if g0 <= g1:
            _check_genus(fam, g1, "--grid")
        # every row is built before anything is printed, so a failure part-way
        # leaves stdout empty; members sharing a spec object share its report
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
        print("\n".join(lines))
        return EX_OK
    if args.positional:
        doc = _load_json(args.positional[0])
        spec = schemas.decode_fibration_spec(doc)
    else:
        spec = _spec_from_args(args)
    report = invariants.full_report(spec)
    if "json" in args.switches:
        _emit({"schema": schemas.SCHEMA, "type": "invariant_report", **report.as_dict()})
    else:
        d = report.as_dict()
        print(_format_table([(k, d[k]) for k in
                             ("chi", "sigma", "b1", "b2", "b2_plus", "b2_minus")]))
        if d["parity_notes"]:
            print("notes: %s" % d["parity_notes"])
        print("certification: %s" % d["certification_level"])
    return EX_OK


def _cmd_johnson(argv):
    args = _Args(argv, switches=("json",))
    if len(args.positional) != 1:
        raise UsageError("usage: johnson <torelli_word.json> [--json]")
    tw = schemas.decode_torelli_word(_load_json(args.positional[0]))
    value = johnson.tau_word(tw)
    content = gcd_all(value.coords)
    primitive = (content == 1)
    doc = {
        "schema": schemas.SCHEMA,
        "type": "johnson_value",
        "genus": value.genus,
        "coords": list(value.coords),
        "nonzero": not value.is_zero(),
        "primitive": primitive,
        "content": content,
        "basis": "retained gamma-triples",
    }
    if "json" in args.switches:
        _emit(doc)
    else:
        labels = value.labelled()
        print("tau value (%d nonzero coordinates):" % len(labels))
        for name, coef in labels:
            print("  %s: %d" % (name, coef))
        print("primitive: %s, content: %d" % (primitive, content))
    return EX_OK


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
        doc = {
            "schema": schemas.SCHEMA,
            "type": "distinguish_report",
            "family": fam_name, "genus": g, "n": n, "m": m,
            "certificate": None,
            "verdict": "no certificate (equal parameters); equivalence is not claimed",
        }
        if "json" in args.switches:
            _emit(doc)
        else:
            print(doc["verdict"])
        return EX_OK
    cert_doc = cert.as_dict()
    checks = johnson.check_certificate(cert_doc, fam, deep="deep-check" in args.switches)
    if "json" in args.switches:
        _emit({"schema": schemas.SCHEMA, "type": "distinguish_report",
               "certificate": cert_doc,
               "replayed_checks": [name for name, _ in checks]})
    else:
        print("certificate: contents d_%d = %d, d_%d = %d"
              % (n, cert.content_n, m, cert.content_m))
        print("verdict: %s" % cert_doc["verdict"])
        print("replayed %d certificate checks" % len(checks))
        print("certification: %s" % cert_doc["certification_level"])
    return EX_OK


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
    _emit(schemas.encode_factorization(out.word, out.claimed_target))
    return EX_OK


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
        report = hurwitz.orbit_explore(fact, cfg, budget)
        doc = {"schema": schemas.SCHEMA, "type": "orbit_report", **report.as_dict()}
        if "json" in args.switches:
            _emit(doc)
        else:
            print(_format_table(sorted((k, v) for k, v in report.as_dict().items())))
        return EX_OK
    if sub == "compare":
        if len(args.positional) != 2:
            raise UsageError("usage: hurwitz compare <f1.json> <f2.json> --mod M [--budget B]")
        facts = []
        for p in args.positional:
            word, target = schemas.decode_factorization(_load_json(p))
            facts.append(PositiveFactorization(word, target))
        cfg = hurwitz.QuotientConfig(mod, facts[0].genus)
        cert = hurwitz.same_orbit(facts[0], facts[1], cfg, budget)
        doc = {"schema": schemas.SCHEMA, "type": "orbit_certificate", **cert.as_dict()}
        if "json" in args.switches:
            _emit(doc)
        else:
            print("verdict: %s" % cert.verdict)
            if cert.reason:
                print("reason: %s" % cert.reason)
            print("explored: %d of budget %d" % (cert.explored, cert.budget))
            print("certification: %s" % cert.as_dict()["certification_level"])
        return EX_OK
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
        doc = {"schema": schemas.SCHEMA, "type": "signature_report",
               "b_plus": plus, "b_minus": minus, "b_zero": zero,
               "signature": plus - minus}
        par = lattices.parity(lattice)
        if par == "odd" and plus > 0 and minus > 0 and zero == 0:
            doc["classification_note"] = (
                "odd indefinite => p<1> (+) q<-1> (cited classification, not computed)"
            )
        if "json" in args.switches:
            _emit(doc)
        else:
            print(_format_table(sorted((k, v) for k, v in doc.items()
                                       if k not in ("schema", "type"))))
        return EX_OK
    if sub == "parity":
        print(lattices.parity(lattice))
        return EX_OK
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
        _emit({"schema": schemas.SCHEMA, "type": "complement_report",
               "basis": basis.row_lists(),
               "gram": [list(r) for r in induced.gram],
               "parity": lattices.parity(induced)})
        return EX_OK
    if sub == "enumerate":
        pattern_raw = args.get("pattern")
        if pattern_raw is None:
            raise UsageError("enumerate needs --pattern '<json matrix>'")
        try:
            pattern = json.loads(pattern_raw)
        except json.JSONDecodeError as exc:
            raise SchemaError("--pattern: invalid JSON (%s)" % exc)
        if not isinstance(pattern, list):
            raise SchemaError("--pattern: expected a square matrix of integers")
        schemas.expect_int_rows(pattern, len(pattern), "--pattern")
        bound = args.get_int("bound", 5)
        tuples = lattices.enumerate_pattern(lattice, pattern, bound)
        _emit({"schema": schemas.SCHEMA, "type": "enumeration_report",
               "bound": bound,
               "completeness": "complete within box [-%d, %d]" % (bound, bound),
               "tuples": [[list(v) for v in t] for t in tuples]})
        return EX_OK
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
        _emit(schemas.encode_fibration_spec(scenarios.family(sub, g).spec(n)))
        return EX_OK
    if sub == "curves":
        context = args.get("context", "mck")
        if context not in scenarios.FAMILY_KINDS:
            raise UsageError("unknown --context %r; expected mck or chain" % context)
        _check_genus(context, g)
        table = scenarios.CurveTable(context, g)
        _emit({"schema": schemas.SCHEMA, "type": "curve_table", **table.as_dict()})
        return EX_OK
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


def run(argv):
    """Dispatch one invocation; returns the exit code."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        out = sys.stdout if argv else sys.stderr
        print("usage: monolab <command> [options]", file=out)
        print("commands: " + " | ".join(sorted(_COMMANDS)), file=out)
        return EX_OK if argv else EX_UNKNOWN_COMMAND
    command = argv[0]
    handler = _COMMANDS.get(command)
    if handler is None:
        print("unknown subcommand: %s" % command, file=sys.stderr)
        return EX_UNKNOWN_COMMAND
    try:
        return handler(argv[1:])
    except FileNotFoundError as exc:
        print("input file not found: %s" % exc.filename, file=sys.stderr)
        return EX_NO_INPUT
    except (UsageError, SchemaError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EX_SCHEMA
    except (ConjugationError, FactorizationError, GenusMismatchError,
            invariants.FibrationError, scenarios.ScenarioValidationError,
            johnson.SaturationBudgetError, ValueError, IndexError) as exc:
        print("precondition failed: %s" % exc, file=sys.stderr)
        return EX_PRECONDITION
    except AssertionError as exc:
        print("internal self-check failed: %s" % exc, file=sys.stderr)
        return EX_SOFTWARE


def main():
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EX_IOERR
    sys.exit(code)


if __name__ == "__main__":
    main()
