"""The sliced table reader and the piecewise JSON writer against their oracles.

The reader's oracle is the whole-document path, table_from_json(json.loads(text)):
table_from_text must return an equal table or raise the same exception with
the same message, on golden tables, on seeded one-character edits of small
tables (read with a tiny slice, so every slice cut is edited too), and on
named cases. The writer's oracle is json.dumps(doc, indent=2), on seeded
random documents; the CLI golden digests freeze its bytes on every command.
Both are also held to a memory bound, by tracemalloc.
"""

import json
import math
import os
import random
import sys
import time
import tracemalloc
from types import SimpleNamespace

import pytest

from freedf import cli
from freedf import cumulants as cumulants_module
from freedf.categories import S_PLUS
from freedf.cumulants import MomentTable, table_from_json, table_from_text
from freedf.definetti import generate_invariant_model, semicircular_model
from freedf.errors import TableTooLarge
from freedf.weingarten import matrix_json, weingarten
from clirunner import invoke
from test_cli_golden import _write_inputs


def outcome(read, text):
    try:
        table = read(text)
    except Exception as e:
        return "error", type(e), str(e)
    return "table", type(table), table.n, table.max_order, table.repr, table.values


def whole(text):
    return table_from_json(json.loads(text))


def assert_same(text):
    got = outcome(table_from_text, text)
    assert got == outcome(whole, text)
    return got


def sliced(text):
    """Whether the sliced read takes the text, rather than handing it on."""
    try:
        return cumulants_module._read_sliced(text) is not None
    except Exception:
        return False


def test_golden_tables(tmp_path):
    _write_inputs(tmp_path)
    tables = 0
    for path in sorted(tmp_path.glob("*.json")):
        text = path.read_text()
        if '"repr"' in text:
            assert assert_same(text)[0] == "table" and sliced(text), path.name
            tables += 1
    assert tables == 11


def small_tables():
    dense = semicircular_model(2, 3).to_dense()
    kernel = generate_invariant_model(S_PLUS, 4, 3, seed=2)
    return [json.dumps(dense.to_json(), indent=2) + "\n", json.dumps(kernel.to_json())]


_ALPHABET = ' "{}[],:\\/-019a\t\n'


@pytest.mark.parametrize("size", [1, 24])
@pytest.mark.parametrize("which", [0, 1], ids=["dense", "kernel"])
def test_one_character_edits_at_every_position(monkeypatch, which, size):
    monkeypatch.setattr(cumulants_module, "READ_SLICE", size)
    text = small_tables()[which]
    assert sliced(text)
    spans, _ = cumulants_module._order_slices(text, text.index("{", text.index('"3"')) + 1)
    assert len(spans) > 1
    rng = random.Random(23 + which)
    kinds = {"table": 0, "error": 0, "sliced": 0}
    for at in range(len(text) + 1):
        edits = [text[:at] + rng.choice(_ALPHABET) + text[at:]]
        if at < len(text):
            edits += [text[:at] + text[at + 1 :], text[:at] + rng.choice(_ALPHABET) + text[at + 1 :]]
        for edited in edits:
            kinds[assert_same(edited)[0]] += 1
            kinds["sliced"] += sliced(edited)
    assert kinds["table"] > 100 and kinds["error"] > 500 and kinds["sliced"] > 50


def named_cases(text, doc):
    n_key = '"1": "'
    yield "escaped key", text.replace(n_key, '"\\u0031": "', 1)
    yield "brace in a value", text.replace('": "1/1"', '": "1}1"', 1)
    yield "quote in a value", text.replace('": "1/1"', '": "1\\"1"', 1)
    yield "values twice", text.rstrip()[:-1] + ', "values": {}}'
    yield "values in an extra field", text.replace('"values"', '"extra": {"values": 0}, "values"', 1)
    last = list(doc["values"]["3"])[-1]
    yield "key repeated in a slice", text.replace('"1,1,1": "0/1",', '"1,1,1": "7/1","1,1,1": "0/1",', 1)
    yield "key repeated across a cut", text.replace('"%s": "0/1"' % last, '"%s": "0/1","1,1,1": "5/1"' % last, 1)
    yield "key missing", text.replace('"%s": ' % last, '"1,1,1": ', 1)
    yield "numeric value", text.replace('": "1/1"', '": 1', 1)
    yield "BOM", "\ufeff" + text
    yield "trailing text", text + "x"
    yield "tabs", json.dumps(doc, indent="\t")
    yield "CRLF", text.replace("\n", "\r\n")
    yield "compact", json.dumps(doc, separators=(",", ":"))
    yield "order out of place", json.dumps({**doc, "values": dict(reversed(doc["values"].items()))})
    yield "stray order", json.dumps({**doc, "values": {**doc["values"], "4": {}}})
    yield "stray field", json.dumps({**doc, "note": "x"})
    yield "not an object", json.dumps([doc])


def test_named_cases(monkeypatch):
    monkeypatch.setattr(cumulants_module, "READ_SLICE", 24)
    doc = semicircular_model(2, 3).to_dense().to_json()
    text = json.dumps(doc, indent=2)
    got = {name: assert_same(edited)[0] for name, edited in named_cases(text, doc)}
    assert [name for name, kind in got.items() if kind == "table"] == [
        "escaped key", "values in an extra field", "key repeated in a slice", "key repeated across a cut",
        "numeric value", "tabs", "CRLF", "compact", "order out of place", "stray field",
    ]
    assert [name for name, edited in named_cases(text, doc) if sliced(edited)] == [
        "key repeated in a slice", "numeric value", "tabs", "CRLF", "compact", "stray field",
    ]


def random_doc(rng, depth=0):
    scalars = [
        lambda: rng.choice(["", "p/q", "é", " ", '"', "\\", "\n", "\x00", "\U0001f600", "a b"]),
        lambda: rng.randint(-10 ** 20, 10 ** 20),
        lambda: rng.choice([0.1, -2.5e300, 1e-7, math.nan, math.inf, -math.inf]),
        lambda: rng.choice([True, False, None]),
    ]
    if depth > 3 or rng.random() < 0.3:
        return rng.choice(scalars)()
    size = rng.choice([0, 1, 2, 5])
    if rng.random() < 0.5:
        if rng.random() < 0.4:
            return [scalars[0]() for _ in range(size)]
        return [random_doc(rng, depth + 1) for _ in range(size)]
    keys = [rng.choice(["k", "é", '"q"', "1,2", ""]) + str(i) for i in range(size)]
    if rng.random() < 0.15:
        keys[-1:] = [rng.choice([1, 2.5, True, None])] if keys else []
    if rng.random() < 0.4:
        return {key: scalars[0]() for key in keys}
    return {key: random_doc(rng, depth + 1) for key in keys}


def test_writer_matches_json_dumps_on_random_documents(monkeypatch):
    monkeypatch.setattr(cli, "WRITE_BATCH", 2)
    rng = random.Random(5)
    for _ in range(2000):
        doc = random_doc(rng)
        assert "".join(cli.json_pieces(doc)) == json.dumps(doc, indent=2)


def test_writer_joins_the_encoder_tokens(monkeypatch):
    # a piece per WRITE_BATCH tokens, and the final newline: not a write per token
    doc = matrix_json(weingarten(S_PLUS, 6, 8))
    tokens = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc))
    assert tokens == 17977
    pieces = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(writelines=pieces.extend, flush=lambda: None))
    cli._emits()(lambda: doc)()
    assert "".join(pieces) == json.dumps(doc, indent=2) + "\n"
    assert len(pieces) <= -(-tokens // cli.WRITE_BATCH) + 1


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dense6():
    return generate_invariant_model(S_PLUS, 6, 6, seed=19).to_dense()


@pytest.mark.parametrize("shuffled", [False, True], ids=["canonical", "shuffled"])
def test_dense_read_peaks_below_3_mb(dense6, shuffled):
    # the whole-document path peaks at about 11 MB on this 1.9 MB text; a
    # shuffled order is read by rank, so no dict keyed by its words is built
    doc = dense6.to_json()
    rng = random.Random(19)
    for m, layer in doc["values"].items() if shuffled else ():
        items = list(layer.items())
        rng.shuffle(items)
        doc["values"][m] = dict(items)
    text = json.dumps(doc, indent=2) + "\n"
    assert sliced(text)
    assert traced_peak(table_from_text, text) < 3 * 10 ** 6


def test_huge_dense_header_is_refused_at_once():
    # checked on the sliced path, then again on the whole-document path
    order = {"1": "1/1", "2": "1/1", "3": "1/1"}
    text = json.dumps({"n": 3, "max_order": 10 ** 7, "kind": "moments", "repr": "dense", "values": {"1": order}})
    for read in (table_from_text, lambda text: MomentTable(3, 10 ** 7, {})):
        start = time.perf_counter()
        with pytest.raises(TableTooLarge, match=r"n\^M = 3\^10000000 entries"):
            read(text)
        assert time.perf_counter() - start < 0.5


def test_written_document_peaks_below_half_of_json_dumps(dense6):
    doc = dense6.to_json()
    emit = cli._emits()(lambda: doc)
    streamed = traced_peak(emit, "json", os.devnull)
    whole_text = traced_peak(lambda: json.dumps(doc, indent=2) + "\n")
    assert streamed < whole_text / 2


def test_emitted_table_is_json_dumps(dense6, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(dense6.to_json(), indent=2) + "\n")
    out = tmp_path / "out.json"
    args = ["transform", "--to", "cumulants", "--input", str(path), "--output", str(out)]
    result = invoke(args)
    assert (result.exit_code, result.exception) == (0, None)
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
