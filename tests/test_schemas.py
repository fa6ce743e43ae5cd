"""``schemas.write`` and ``schemas.dumps`` against the standard library's
writer they replace."""

import functools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from monolab import schemas
from monolab._linalg import SparseRows, dense
from monolab.johnson import check_certificate, distinguish
from monolab.scenarios import family


def reference(value):
    return json.dumps(value, sort_keys=True, indent=1)


# ints under the interpreter's 4300-digit limit, and text with escapes,
# non-ASCII characters and lone surrogates
ints = st.integers(-10 ** 40, 10 ** 40) | st.integers(-3, 3) | st.just(10 ** 4299)
text = st.text(st.characters(blacklist_categories=()), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00", "\x7f", "é", " ", "\ud800", "\udfff", "\U0001f600"])
scalars = st.none() | st.booleans() | ints | text | st.floats(allow_nan=False)
int_lists = st.lists(ints | st.booleans() | st.none(), max_size=6)
values = st.recursive(
    scalars | int_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=30)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(values)
def test_dumps_matches_json_dumps(value):
    pieces = []
    schemas.write(value, pieces.append)
    assert "".join(pieces) == schemas.dumps(value) == reference(value)


@st.composite
def sparse_rows(draw):
    dim = draw(st.integers(0, 6))
    supports = st.sets(st.integers(0, dim - 1), max_size=dim) if dim else st.just(set())
    # empty supports, full supports and everything between
    rows = [{col: draw(ints.filter(bool)) for col in sorted(draw(supports))}
            for _ in range(draw(st.integers(0, 4)))]
    if dim and rows and draw(st.booleans()):
        rows[0] = {col: draw(ints.filter(bool)) for col in range(dim)}
    return SparseRows(dim, rows)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sparse_rows(), st.integers(0, 2))
def test_sparse_rows_write_as_their_dense_lists(rows, depth):
    dense_rows = [list(dense(r, rows.dim)) for r in rows.rows]
    doc, want = rows, dense_rows
    for _ in range(depth):
        doc, want = {"basis": doc, "n": [doc]}, {"basis": want, "n": [want]}
    assert schemas.dumps(doc) == reference(want)


EXAMPLES = [
    [], {}, [[]], [{}], {"a": []}, [1, True, 2], [False], [0, None], [-1, 2.5],
    {"b": 1, "a": [True, 3], "c": None}, [[1, 2], [3]], "é\ud800", 10 ** 4000,
    -(10 ** 4000),
    SparseRows(3, []), SparseRows(0, [{}, {}]), SparseRows(3, [{}, {0: 1, 2: -4}]),
    functools.reduce(lambda inner, i: [{"k%d" % i: inner, "e": {}}, []], range(60), [7]),
]


def test_dumps_examples():
    for value in EXAMPLES:
        want = value
        if isinstance(value, SparseRows):
            want = [list(dense(r, value.dim)) for r in value.rows]
        assert schemas.dumps(value) == reference(want), value


@pytest.mark.parametrize("value", [object(), [1, object()], {"a": {1, 2}}, {(1,): 2}])
def test_dumps_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        schemas.dumps(value)


def test_dumps_refuses_a_key_that_is_not_a_string():
    with pytest.raises(TypeError):
        schemas.dumps({1: 2})


def test_json_dumps_refuses_sparse_rows():
    # a document holding SparseRows goes through schemas.dumps or nowhere
    with pytest.raises(TypeError):
        json.dumps({"basis": SparseRows(2, [{0: 1}])})


def test_write_peak_is_bounded_by_its_longest_piece():
    # a chain g=7 distinguish report (1.7 MB) written into a discarding
    # emit: the writer holds one piece at a time, a dense row or a list of
    # ints, whose entries are str objects of about 50 bytes while it is built
    fam = family("chain", 7)
    cert = distinguish(2, 5, fam).as_dict()
    checks = check_certificate(cert, fam, deep=False)
    doc = {"schema": schemas.SCHEMA, "type": "distinguish_report", "certificate": cert,
           "replayed_checks": [name for name, _ in checks]}
    pieces = []
    schemas.write(doc, pieces.append)
    longest, size = max(map(len, pieces)), sum(map(len, pieces))
    del pieces
    tracemalloc.start()
    try:
        schemas.write(doc, lambda piece: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 10 ** 6 and 16 * longest + 65536 < size // 10
    assert peak <= 16 * longest + 65536, (peak, longest)
