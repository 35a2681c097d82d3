"""Differential tests of the CLI's JSON layer against the ``json`` module.

``cli`` decodes documents with the C scanner of ``_json`` and encodes
reports with its own ``_dumps``; ``json.loads`` and ``json.dumps(...,
indent=2)`` are the reference for both.
"""

import json
import sys

import pytest

from hyperhomology import OrientedHypergraph, cli
from hyperhomology.cli import (
    DocumentError,
    _dumps,
    _loads,
    parse_document,
    run_command,
    serialize_document,
)
from hyperhomology.fixtures import BUILTIN_EXAMPLES

from oracles import hypergraph_suite

# Every subcommand that prints a payload or a document, over both rings.
_QUERIES = (
    ("validate",),
    ("homology", "--ring", "int"),
    ("homology", "--ring", "rat"),
    ("decompose", "--ring", "int"),
    ("decompose", "--ring", "rat"),
    ("graphlike",),
    ("spanning-tree", "--ring", "int"),
    ("spanning-tree", "--ring", "rat"),
    ("spanning-tree", "--ring", "rat", "--check-integral"),
)


@pytest.fixture
def dumped(monkeypatch):
    """Record each value that ``cli`` encodes with ``_dumps`` and its text."""
    seen = []

    def spy(value):
        text = _dumps(value)
        seen.append((value, text))
        return text

    monkeypatch.setattr(cli, "_dumps", spy)
    return seen


def _documents():
    documents = [(name, factory()) for name, factory in sorted(BUILTIN_EXAMPLES.items())]
    documents += [(f"suite-{k}", h) for k, h in enumerate(hypergraph_suite(30))]
    return documents


def test_dumps_matches_json_on_every_payload(tmp_path, capsys, dumped):
    for name, h in _documents():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_document(h, name=name))
        for query in _QUERIES:
            run_command([query[0], str(path), *query[1:], "--json"])
            assert capsys.readouterr().out == dumped[-1][1] + "\n"
    for name in sorted(BUILTIN_EXAMPLES):
        run_command(["example", name])
    for seed in range(5):
        run_command(["random", "--vertices", "5", "--edges", "7", "--seed", str(seed)])
    capsys.readouterr()
    # one document, one payload per query, then the examples and randoms
    assert len(dumped) == len(_documents()) * (1 + len(_QUERIES)) + len(BUILTIN_EXAMPLES) + 5
    for value, text in dumped:
        assert text == json.dumps(value, indent=2)


def test_text_reports_do_not_encode_json(tmp_path, capsys, dumped):
    # without --json no payload is built, so nothing is encoded
    path = tmp_path / "main.json"
    path.write_text(serialize_document(BUILTIN_EXAMPLES["main-example"]()))
    dumped.clear()
    for query in _QUERIES:
        run_command([query[0], str(path), *query[1:]])
    assert dumped == []
    assert "graph-like: no" in capsys.readouterr().out


def test_json_reports_do_not_render_text(tmp_path, capsys, monkeypatch):
    # with --json no text line is built, so no chain is formatted
    def refuse(*args):
        raise AssertionError("a --json query rendered text")

    monkeypatch.setattr(cli, "_format_formal_sum", refuse)
    monkeypatch.setattr(cli, "_tree_lines", refuse)
    for name in ("main-example", "triangle-graph", "parallel-edges"):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_document(BUILTIN_EXAMPLES[name]()))
        for query in _QUERIES:
            assert run_command([query[0], str(path), *query[1:], "--json"]) in (0, 1)
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "value",
    [
        None, True, False, 0, -7, 2**100, "", "plain", [], (), {}, [[]], {"a": {}},
        {"a": [1, "x", None, True, (2, [3])], "b": {"c": {"d": []}}},
        ["\"quoted\" \\back\\slash", "\x00\x1f\x7f", "café", "\U0001f600", "\ud800"],
        {"\"key\"\n": " ", "\U0001d11e": -1},
    ],
)
def test_dumps_matches_json_on_plain_values(value):
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {"a": 1.5}, [object()], {1: "a"}, {"a": {None: 1}}, {1, 2}])
def test_dumps_refuses_other_types(value):
    with pytest.raises(TypeError):
        _dumps(value)


# Vertex names that the encoder must escape: quotes, backslashes, control
# characters, non-ASCII, astral characters and a lone surrogate.
_HOSTILE_NAMES = [
    'say "hi"',
    "back\\slash\\",
    "tab\tnew\nline\x00\x1f\x7f",
    "café ü  ",
    "\U0001f600\U0001d11e",
    "lone \ud800 surrogate",
]


def test_hostile_vertex_names_round_trip(dumped):
    for vertices in (_HOSTILE_NAMES[:3], _HOSTILE_NAMES[3:]):
        a, b, c = vertices
        h = OrientedHypergraph(vertices, [({b, c}, {a}), ({a}, {b})])
        text = serialize_document(h, name=a)
        value, encoded = dumped[-1]
        assert text == encoded == json.dumps(value, indent=2)
        assert text.isascii()
        assert parse_document(text) == h


@pytest.mark.parametrize("start", [0, 3])
def test_hostile_vertex_names_reach_graphlike_witnesses(tmp_path, capsys, dumped, start):
    # the main example, not graph-like, has a witness over the vertices
    names = _HOSTILE_NAMES[start:start + 3]
    v1, v2, v3 = names
    h = OrientedHypergraph(
        names, [({v2, v3}, {v1}), ({v1, v3}, {v2}), ({v1, v2}, {v3})]
    )
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"vertices": names, "edges": [
        {"tails": sorted(t), "heads": sorted(hd)} for t, hd in h.edges
    ]}))
    assert run_command(["graphlike", str(path), "--json"]) == 1
    out = capsys.readouterr().out
    value, text = dumped[-1]
    assert out == text + "\n" and text == json.dumps(value, indent=2)
    witness = next(w for w in json.loads(out)["witnesses"] if w["basis"] == "vertices")
    assert set(witness["coefficients"]) <= set(names) and witness["coefficients"]


# Texts for ``_loads``: empty and blank, truncated, trailing data, a BOM, raw
# control characters in strings, trailing commas, deep and very deep nesting,
# the non-finite constants, duplicate keys, long integers and bad escapes.
_TEXTS = [
    "",
    " \t\n\r ",
    '{"vertices": ["a", "b"], "edges": [',
    '{"vertices": [], "edges": []',
    '"unterminated',
    '{"a": 1} x',
    '{"a": 1} {"b": 2}',
    "[1] ]",
    "\ufeff{}",
    "\ufeff",
    '"a\x01b"',
    '["a\nb"]',
    '{"a\tb": 1}',
    "[1,]",
    '{"a": 1,}',
    "[" * 50 + "]" * 50,
    "[" * 100000,
    "[" * 100000 + "]" * 100000,
    "NaN",
    "[NaN, Infinity, -Infinity, -0, 0.5, 1e400, -1e-400]",
    '{"a": 1, "a": 2, "b": {"c": 3, "c": [4]}}',
    " \n\t {\"a\": [1, 2.5e3, true, false, null, \"\\u00e9\\ud83d\\ude00\\\"\"]} \r\n ",
    "1" * 5000,
    '{"vertices": [], "edges": [], "x": ' + "9" * 4301 + "}",
    "-" + "1" * 4300,
    "1" * 4300,
    '"\\ud800"',
    '"\\x41"',
    '"\\u12"',
    " {}",
    "{}  ",
    '{"a" 1}',
    "{1: 2}",
    "tru",
    "nul",
    "01",
    "1.",
    "-",
    "[1 2]",
    "'single'",
]


def _outcome(function, text):
    try:
        value = function(text)
    except Exception as err:  # noqa: BLE001 -- the outcome is compared, not handled
        return "raises", type(err).__name__, str(err)
    return "returns", repr(value)


@pytest.mark.parametrize("text", _TEXTS, ids=range(len(_TEXTS)))
@pytest.mark.parametrize("json_loaded", [True, False], ids=["json-loaded", "json-unloaded"])
def test_loads_matches_json_loads(monkeypatch, text, json_loaded):
    reference = _outcome(json.loads, text)
    if not json_loaded:
        # the C scanner reports its own syntax errors differently before
        # json.decoder is loaded, as in a fresh CLI process
        for name in ("json", "json.decoder", "json.scanner", "json.encoder"):
            monkeypatch.delitem(sys.modules, name, raising=False)
    assert _outcome(_loads, text) == reference


def test_long_integer_is_a_document_error():
    with pytest.raises(DocumentError, match=r"^JSON number not accepted: Exceeds the limit"):
        parse_document('{"vertices": [], "edges": [], "x": ' + "1" * 5000 + "}")


def test_syntax_error_position_matches_json(monkeypatch):
    for name in ("json", "json.decoder", "json.scanner", "json.encoder"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    text = '{"vertices": ["a"],\n "edges": [{"tails" ["a"]}]}'
    with pytest.raises(DocumentError) as caught:
        parse_document(text)
    assert str(caught.value) == "JSON syntax error at line 2, column 21: Expecting ':' delimiter"
