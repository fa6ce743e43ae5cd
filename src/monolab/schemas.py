"""JSON schemas for every document the command line reads or writes.

One schema version string is embedded in every emitted document and checked
on the way in.  Validation failures raise SchemaError with a path to the
offending field; they are input problems, never computation problems.

``write`` writes every document in pieces to a callback, and ``dumps``
joins the same pieces into one string: the text of ``json.dumps(doc,
sort_keys=True, indent=1)``, with each list of plain ints joined in one
piece, and ``_linalg.SparseRows`` written as its dense rows, the zeros
filled in one row at a time.  No piece holds more than one scalar, one list
of plain ints or one dense row.
"""

import json
from json.encoder import encode_basestring_ascii

from ._linalg import SparseRows
from .homology import HomologyClass, SpMap
from .invariants import FibrationSpec
from .johnson import BoundingPairGen, TorelliWord
from .lattices import IntLattice
from .words import TwistLetter, Word

SCHEMA = "monolab/1"

# Largest genus a document may name.  Ten times the largest surface genus
# the families reach at desk scale (10); a genus-MAX_GENUS map is a
# 200 x 200 matrix, so a wild genus is refused before anything is built.
MAX_GENUS = 100


class SchemaError(ValueError):
    pass


def _fail(path, message):
    raise SchemaError("%s: %s" % (path, message))


def _expect_int(doc, key, path):
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        _fail("%s.%s" % (path, key), "expected an integer")
    return v


def _expect_genus(doc, key, path):
    genus = _expect_int(doc, key, path)
    if not 0 <= genus <= MAX_GENUS:
        _fail("%s.%s" % (path, key), "expected a genus in 0..%d" % MAX_GENUS)
    return genus


def _expect_int_list(value, path):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        _fail(path, "expected a list of integers")
    return value


def _expect_coords(value, genus, path):
    coords = _expect_int_list(value, path)
    if len(coords) != 2 * genus:
        _fail(path, "expected %d entries" % (2 * genus))
    return coords


def expect_int_rows(value, length, path):
    """A list of integer lists, each with ``length`` entries."""
    if not isinstance(value, list):
        _fail(path, "expected a list of integer lists")
    for i, row in enumerate(value):
        _expect_int_list(row, "%s[%d]" % (path, i))
        if len(row) != length:
            _fail("%s[%d]" % (path, i), "expected %d entries" % length)
    return value


def check_version(doc, path="document"):
    if not isinstance(doc, dict):
        _fail(path, "expected a JSON object")
    version = doc.get("schema")
    if version != SCHEMA:
        _fail(path + ".schema", "expected %r, got %r" % (SCHEMA, version))


def write(doc, emit):
    """Deterministic serialization in pieces: ``emit`` receives each piece of
    the text of ``json.dumps(doc, sort_keys=True, indent=1)`` in order, with
    a ``SparseRows`` in place of the list of its dense rows.  Object keys are
    strings: any other key raises TypeError."""
    _write(doc, "\n", emit)


def dumps(doc):
    """The text ``write`` emits, as one string."""
    out = []
    write(doc, out.append)
    return "".join(out)


def _write(value, nl, emit):
    """Emit the JSON text of value, nested at the indent that ``nl`` (a
    newline and the current indent) ends with."""
    inner = nl + " "
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        sep = "{" + inner
        for key, item in sorted(value.items()):
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write(item, inner, emit)
            sep = "," + inner
        emit(nl + "}" if value else "{}")
    elif isinstance(value, SparseRows):
        sep = "[" + inner
        for row in value.rows:
            cells = ["0"] * value.dim
            for col, x in row.items():
                cells[col] = _scalar(x)
            emit(sep + _lines(cells, inner))
            sep = "," + inner
        emit(nl + "]" if value.rows else "[]")
    elif isinstance(value, (list, tuple)):
        if all(type(x) is int for x in value):
            emit(_lines(map(str, value), nl))
            return
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit(nl + "]")
    else:
        emit(_scalar(value))


def _lines(cells, nl):
    """A list of formatted scalars, one to a line, nested at ``nl``."""
    inner = nl + " "
    body = ("," + inner).join(cells)
    return "[" + inner + body + nl + "]" if body else "[]"


def _scalar(value):
    """A plain int as ``str`` writes it; any other value as ``json.dumps``
    does (bools, ``null``, floats; an unsupported type raises TypeError)."""
    return str(value) if type(value) is int else json.dumps(value)


# -- homology classes and maps ----------------------------------------------


def decode_homology_class(doc, path="homology_class"):
    check_version(doc, path)
    genus = _expect_genus(doc, "genus", path)
    return HomologyClass(genus, _expect_coords(doc.get("coords"), genus, path + ".coords"))


def _decode_matrix(matrix, genus, path):
    if not isinstance(matrix, list) or len(matrix) != 2 * genus:
        _fail(path, "expected %d rows" % (2 * genus))
    return SpMap(genus, expect_int_rows(matrix, 2 * genus, path))


def decode_sp_map(doc, path="sp_map"):
    check_version(doc, path)
    genus = _expect_genus(doc, "genus", path)
    return _decode_matrix(doc.get("matrix"), genus, path + ".matrix")


# -- letters, words, factorizations ------------------------------------------


def _encode_letter(letter):
    return {
        "coords": list(letter.curve.coords),
        "power": letter.power,
        "separating": letter.separating,
        "split": list(letter.split) if letter.split else None,
    }


def _decode_letter(doc, genus, path):
    if not isinstance(doc, dict):
        _fail(path, "expected a letter object")
    coords = _expect_coords(doc.get("coords"), genus, path + ".coords")
    power = doc.get("power", 1)
    if power not in (1, -1):
        _fail(path + ".power", "expected +1 or -1")
    separating = doc.get("separating", False)
    if not isinstance(separating, bool):
        _fail(path + ".separating", "expected a boolean")
    split = doc.get("split")
    if split is not None:
        split = tuple(_expect_int_list(split, path + ".split"))
        if len(split) != 2:
            _fail(path + ".split", "expected two integers")
    try:
        return TwistLetter(HomologyClass(genus, coords), power, separating, split)
    except ValueError as exc:
        _fail(path, str(exc))


def encode_word(word):
    return {
        "schema": SCHEMA,
        "type": "word",
        "genus": word.genus,
        "letters": [_encode_letter(l) for l in word.letters],
    }


def decode_word(doc, path="word"):
    check_version(doc, path)
    genus = _expect_genus(doc, "genus", path)
    letters_doc = doc.get("letters")
    if not isinstance(letters_doc, list):
        _fail(path + ".letters", "expected a list")
    letters = [
        _decode_letter(l, genus, "%s.letters[%d]" % (path, i))
        for i, l in enumerate(letters_doc)
    ]
    return Word(letters, genus)


def encode_factorization(word, target=None):
    doc = encode_word(word)
    doc["type"] = "factorization"
    if target is None or target.is_identity():
        doc["target"] = "identity"
    else:
        doc["target"] = {"matrix": [list(r) for r in target.rows]}
    return doc


def decode_factorization(doc, path="factorization"):
    """Returns (word, claimed_target); verification is the caller's move."""
    word = decode_word(doc, path)
    target_doc = doc.get("target", "identity")
    if target_doc == "identity":
        target = SpMap.identity(word.genus)
    elif isinstance(target_doc, dict) and "matrix" in target_doc:
        target = _decode_matrix(target_doc["matrix"], word.genus, path + ".target.matrix")
    else:
        _fail(path + ".target", "expected 'identity' or an object with 'matrix'")
    return word, target


# -- Torelli words ------------------------------------------------------------


def encode_torelli_word(tw):
    factors = []
    for w, gen, e in tw.factors:
        factors.append({
            "conjugator": encode_word(w),
            "generator": {
                "cls": list(gen.cls.coords),
                "side": [[list(a.coords), list(b.coords)] for a, b in gen.side_basis],
            },
            "exp": e,
        })
    return {"schema": SCHEMA, "type": "torelli_word", "genus": tw.genus,
            "factors": factors}


def decode_torelli_word(doc, path="torelli_word"):
    check_version(doc, path)
    genus = _expect_genus(doc, "genus", path)
    factors_doc = doc.get("factors")
    if not isinstance(factors_doc, list):
        _fail(path + ".factors", "expected a list")
    factors = []
    for i, fdoc in enumerate(factors_doc):
        fpath = "%s.factors[%d]" % (path, i)
        if not isinstance(fdoc, dict):
            _fail(fpath, "expected an object")
        conj = decode_word(fdoc.get("conjugator"), fpath + ".conjugator")
        gen_doc = fdoc.get("generator")
        if not isinstance(gen_doc, dict):
            _fail(fpath + ".generator", "expected an object")
        cls_coords = _expect_int_list(gen_doc.get("cls"), fpath + ".generator.cls")
        side_doc = gen_doc.get("side")
        if not isinstance(side_doc, list):
            _fail(fpath + ".generator.side", "expected a list of [alpha, beta] pairs")
        side = []
        for j, pair in enumerate(side_doc):
            ppath = "%s.generator.side[%d]" % (fpath, j)
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(ppath, "expected a two-element list")
            side.append(tuple(
                HomologyClass(genus, _expect_coords(v, genus, "%s[%d]" % (ppath, k)))
                for k, v in enumerate(pair)
            ))
        exp = fdoc.get("exp", 1)
        if not isinstance(exp, int) or isinstance(exp, bool):
            _fail(fpath + ".exp", "expected an integer")
        try:
            gen = BoundingPairGen(HomologyClass(genus, cls_coords), side)
        except ValueError as exc:
            _fail(fpath + ".generator", str(exc))
        factors.append((conj, gen, exp))
    return TorelliWord(factors, genus)


# -- fibration specs ----------------------------------------------------------


def encode_fibration_spec(spec):
    doc = {
        "schema": SCHEMA,
        "type": "fibration_spec",
        "fiber_genus": spec.fiber_genus,
        "cycles": [_encode_letter(c) for c in spec.cycles],
        "sections": list(spec.sections),
        "hyperelliptic": spec.hyperelliptic,
    }
    if spec.signature_reference is not None:
        doc["signature_reference"] = encode_fibration_spec(spec.signature_reference)
    return doc


def decode_fibration_spec(doc, path="fibration_spec"):
    check_version(doc, path)
    h = _expect_genus(doc, "fiber_genus", path)
    cycles_doc = doc.get("cycles")
    if not isinstance(cycles_doc, list):
        _fail(path + ".cycles", "expected a list")
    cycles = [
        _decode_letter(c, h, "%s.cycles[%d]" % (path, i))
        for i, c in enumerate(cycles_doc)
    ]
    sections = _expect_int_list(doc.get("sections"), path + ".sections")
    hyper = doc.get("hyperelliptic")
    if not isinstance(hyper, bool):
        _fail(path + ".hyperelliptic", "expected a boolean")
    ref_doc = doc.get("signature_reference")
    ref = None
    if ref_doc is not None:
        ref = decode_fibration_spec(ref_doc, path + ".signature_reference")
    try:
        return FibrationSpec(h, cycles, sections, hyper, ref)
    except ValueError as exc:
        _fail(path, str(exc))


# -- Gram matrices ------------------------------------------------------------


def decode_gram(doc, path="gram"):
    check_version(doc, path)
    matrix = doc.get("matrix")
    if not isinstance(matrix, list) or not matrix:
        _fail(path + ".matrix", "expected a nonempty list of rows")
    for i, row in enumerate(matrix):
        _expect_int_list(row, "%s.matrix[%d]" % (path, i))
    try:
        return IntLattice(matrix)
    except ValueError as exc:
        _fail(path + ".matrix", str(exc))
