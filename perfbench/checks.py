"""Output checks for benchmark jobs.

Every job is checked on its meaning, whatever the seed: documents parse and
carry the schema, the numbers satisfy the identities they must, and where
the benchmark built the input so that it knows the answer (conjugated
letters, inertia, parity, pattern tuples, orbit witnesses) the answer is
recomputed here and compared.  On top of that, stdout is compared by sha256
with the reference recorded for the default seed, and for the anchor jobs,
which are the same for every seed, with their reference on every seed.
"""

import hashlib
import itertools
import json
from math import comb, gcd

from gen import SCHEMA, hurwitz_move


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _document(out, doc_type):
    try:
        doc = json.loads(out)
    except ValueError as exc:
        raise CheckError("stdout is not JSON (%s)" % exc)
    _require(isinstance(doc, dict) and doc.get("schema") == SCHEMA, "schema is not %s" % SCHEMA)
    _require(doc.get("type") == doc_type, "type is %r, not %r" % (doc.get("type"), doc_type))
    return doc


def _table(out):
    """'key  value' lines of a text report."""
    rows = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        rows[key.rstrip(":")] = value.strip()
    return rows


def _betti_identities(chi, sigma, b1, b2p, b2m):
    _require(chi == 2 - 2 * b1 + b2p + b2m, "chi != 2 - 2*b1 + b2_plus + b2_minus")
    _require(sigma == b2p - b2m, "sigma != b2_plus - b2_minus")


def _pair(gram, u, v):
    return sum(u[i] * gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def _parity(gram):
    return "even" if all(gram[i][i] % 2 == 0 for i in range(len(gram))) else "odd"


def check_grid(out, c):
    lines = out.splitlines()
    _require(lines and lines[0] == "family,g,n,chi,sigma,b1,b2_plus,b2_minus", "bad CSV header")
    _require(len(lines) - 1 == c["rows"], "expected %d CSV rows" % c["rows"])
    for line in lines[1:]:
        fields = line.split(",")
        _require(len(fields) == 8 and fields[0] == c["family"], "bad CSV row %r" % line)
        g, n, chi, sigma, b1, b2p, b2m = map(int, fields[1:])
        _betti_identities(chi, sigma, b1, b2p, b2m)


def check_invariants_text(out, c):
    t = _table(out)
    chi, sigma, b1, b2, b2p, b2m = (int(t[k]) for k in
                                    ("chi", "sigma", "b1", "b2", "b2_plus", "b2_minus"))
    _require(b2 == b2p + b2m, "b2 != b2_plus + b2_minus")
    _betti_identities(chi, sigma, b1, b2p, b2m)


def check_invariants_json(out, c):
    d = _document(out, "invariant_report")
    _betti_identities(d["chi"], d["sigma"], d["b1"], d["b2_plus"], d["b2_minus"])
    _require(d["chi"] == 4 - 4 * c["fiber_genus"] + c["cycles"], "chi != 4 - 4h + cycles")


def check_spec(out, c):
    d = _document(out, "fibration_spec")
    _require(d["fiber_genus"] == c["fiber_genus"], "wrong fiber genus")
    _require(len(d["cycles"]) == c["cycles"], "wrong number of cycles")


def check_verify(out, c):
    lines = out.splitlines()
    _require(lines[0] == "Sp-level identity: PASS", "verdict is not PASS")
    _require(lines[1].startswith("letters: %d," % c["letters"]), "wrong letter count")


def check_verify_json(out, c):
    d = _document(out, "verify_report")
    n = len(d["image"])
    _require(d["verdict"] == "PASS" and d["letters"] == c["letters"], "wrong verdict or length")
    _require(d["image"] == [[int(i == j) for j in range(n)] for i in range(n)],
             "image is not the identity")


def check_conjugate(out, c):
    d = _document(out, "factorization")
    _require([l["coords"] for l in d["letters"]] == c["letters"], "conjugated letters differ")


def check_signature(out, c):
    d = _document(out, "signature_report")
    plus, minus, zero = d["b_plus"], d["b_minus"], d["b_zero"]
    _require(plus + minus + zero == len(c["gram"]), "inertia does not add up to the rank")
    _require(d["signature"] == plus - minus, "signature != b_plus - b_minus")
    if c["inertia"] is not None:
        _require((plus, minus, zero) == tuple(c["inertia"]), "inertia differs from construction")
    noted = _parity(c["gram"]) == "odd" and plus > 0 and minus > 0 and zero == 0
    _require(("classification_note" in d) == noted, "classification note misplaced")


def check_parity(out, c):
    _require(out.strip() == _parity(c["gram"]), "wrong parity")


def check_complement(out, c):
    d = _document(out, "complement_report")
    gram, basis = c["gram"], d["basis"]
    _require(len(basis) == len(gram) - len(c["classes"]), "complement has the wrong rank")
    _require(all(_pair(gram, u, v) == 0 for u in basis for v in c["classes"]),
             "complement vector pairs with a class")
    _require(d["gram"] == [[_pair(gram, u, v) for v in basis] for u in basis], "wrong induced Gram")
    _require(d["parity"] == _parity(d["gram"]), "wrong parity of the complement")


def check_enumerate(out, c):
    d = _document(out, "enumeration_report")
    gram, pattern, bound = c["gram"], c["pattern"], c["bound"]
    box = list(itertools.product(range(-bound, bound + 1), repeat=len(gram)))
    first = [v for v in box if _pair(gram, v, v) == pattern[0][0]]
    second = [v for v in box if _pair(gram, v, v) == pattern[1][1]]
    expected = sorted([list(u), list(v)] for u in first for v in second
                      if _pair(gram, u, v) == pattern[0][1])
    _require(d["tuples"] == expected, "pattern tuples differ from brute force")


def check_distinguish_text(out, c):
    lines = out.splitlines()
    _require(lines[0] == "certificate: contents d_%d = %d, d_%d = %d"
             % (c["n"], c["n"], c["m"], c["m"]), "wrong contents")
    _require(int(lines[2].split()[1]) > 0, "no certificate checks replayed")


def check_distinguish_json(out, c):
    d = _document(out, "distinguish_report")
    cert = d["certificate"]
    _require(d["replayed_checks"], "replayed_checks is empty")
    _require((cert["n"], cert["m"], cert["content_n"], cert["content_m"])
             == (c["n"], c["m"], c["n"], c["m"]), "wrong contents")


def check_johnson(out, c):
    d = _document(out, "johnson_value")
    g, coords = c["genus"], d["coords"]
    _require(d["genus"] == g and len(coords) == comb(2 * g, 3) - 2 * g, "wrong quotient size")
    content = 0
    for x in coords:
        content = gcd(content, x)
    _require(d["content"] == content and d["primitive"] == (content == 1), "wrong content")
    _require(d["nonzero"] == any(coords), "wrong nonzero flag")


def check_explore(out, c):
    if out.startswith("{"):
        d = _document(out, "orbit_report")
    else:
        d = {k: int(v) if v.isdigit() else v for k, v in _table(out).items()}
        d["closure_reached"] = d["closure_reached"] == "True"
    _require(d["budget"] == c["budget"] and d["orbit_size"] == d["explored"], "wrong counts")
    _require(d["closure_reached"] or d["orbit_size"] == c["budget"], "stopped short of the budget")


def check_compare(out, c):
    d = _document(out, "orbit_certificate")
    _require(d["verdict"] == "same-orbit" and isinstance(d["witness"], list),
             "same-orbit verdict without a witness")
    m = c["mod"]

    def reduced(letters):
        return [(tuple(x % m for x in coords), split) for coords, split in letters]

    state = reduced(c["start"])
    for pos, direction in d["witness"]:
        state = reduced(hurwitz_move(state, pos, direction))
    _require(state == reduced(c["end"]), "witness replay does not reach the second input")


CHECKS = {name[6:]: fn for name, fn in globals().items() if name.startswith("check_")}


def check(job, out_bytes, reference=None):
    """None if the job's stdout is right, else the reason it is not."""
    try:
        out = out_bytes.decode("utf-8")
        CHECKS[job["check"]["kind"]](out, job["check"])
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return "unreadable output (%s: %s)" % (type(exc).__name__, exc)
    if reference is not None and reference != sha256(out_bytes):
        return "stdout differs from the recorded reference"
    return None


def sha256(data):
    return hashlib.sha256(data).hexdigest()
