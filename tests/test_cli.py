import hashlib
import importlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from hyperhomology import (
    HypergraphValidationError,
    OrientedHypergraph,
    Ring,
    boundary_matrix,
    main_example,
)
from hyperhomology import exact_linalg
from hyperhomology.cli import (
    _COMMANDS,
    DocumentError,
    parse_document,
    run_command,
    serialize_document,
)
from hyperhomology.fixtures import BUILTIN_EXAMPLES

from oracles import (
    column,
    disjoint_union,
    graph_like_without_integer_tree,
    grid_graph,
    hypergraph_suite,
    pop_random_hypergraph,
    reference_parse_document,
)

# the package re-exports the function ``boundary`` under the module's name
boundary_module = importlib.import_module("hyperhomology.boundary")


def _run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_example(tmp_path, name):
    return _write_document(tmp_path, BUILTIN_EXAMPLES[name](), name)


def _write_document(tmp_path, hypergraph, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_document(hypergraph, name=name))
    return str(path)


def test_parse_serialize_round_trip():
    for name, factory in BUILTIN_EXAMPLES.items():
        h = factory()
        again = parse_document(serialize_document(h, name=name))
        assert again == h
        assert parse_document(serialize_document(again)) == again


def test_serialize_refuses_ids_that_are_not_str():
    # a document holds str ids only, so no other id could round-trip; the
    # first one is named, and nothing is rendered
    cases = [
        (OrientedHypergraph([1, 2], [({1}, {2})]), "1"),
        (OrientedHypergraph([0.5, 1.5], [({0.5}, {1.5})]), "0.5"),
        (OrientedHypergraph(["a", 2, 3.0], [({"a"}, {2}), ({3.0}, {"a"})]), "2"),
    ]
    for h, first in cases:
        with pytest.raises(TypeError, match=rf"^vertex id {re.escape(first)} is not a str"):
            serialize_document(h, name="ids")


def test_parse_empty_document():
    h = parse_document('{"vertices": [], "edges": []}')
    assert h.vertex_count == 0 and h.edge_count == 0


def test_parse_reports_syntax_position():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document("{nope")


def test_parse_rejects_bad_shapes():
    with pytest.raises(DocumentError):
        parse_document("[1, 2]")
    with pytest.raises(DocumentError):
        parse_document('{"vertices": [1], "edges": []}')
    with pytest.raises(DocumentError):
        parse_document('{"vertices": [], "edges": [{"tails": "x", "heads": []}]}')
    with pytest.raises(DocumentError, match="\"tails\" names vertex 'a' twice"):
        parse_document('{"vertices": ["a", "b"], "edges": [{"tails": ["a", "a"], "heads": ["b"]}]}')


@pytest.mark.parametrize(
    "edges, message",
    [
        ('[{"tails": ["a"], "heads": ["b"]}, 3]', "edge 1 must be an object with tails and heads"),
        ('[{"heads": ["b"]}]', 'edge 0: "tails" must be a list of strings'),
        ('[{"tails": ["a"]}]', 'edge 0: "heads" must be a list of strings'),
        ('[{"tails": "ab", "heads": ["b"]}]', 'edge 0: "tails" must be a list of strings'),
        ('[{"tails": ["a"], "heads": ["b", 1]}]', 'edge 0: "heads" must be a list of strings'),
        ('[{"tails": ["a", "a"], "heads": [1]}]', "edge 0: \"tails\" names vertex 'a' twice"),
        ('[{"tails": [1], "heads": ["b", "b"]}]', 'edge 0: "tails" must be a list of strings'),
        ('[{"tails": ["a"], "heads": ["b", "a", "b"]}]', "edge 0: \"heads\" names vertex 'b' twice"),
        ('[{"tails": ["a", "b", "b", "a"], "heads": []}]', "edge 0: \"tails\" names vertex 'b' twice"),
        ('[{"tails": [["a"]], "heads": ["b"]}]', 'edge 0: "tails" must be a list of strings'),
        (
            '[{"tails": ["a"], "heads": ["b"]}, {"tails": ["b", "b"], "heads": []}]',
            "edge 1: \"tails\" names vertex 'b' twice",
        ),
    ],
)
def test_parse_reports_the_first_edge_fault(edges, message):
    # the first faulty edge is reported, its tails before its heads, each
    # side's type before its repeated vertices
    text = '{"vertices": ["a", "b"], "edges": %s}' % edges
    with pytest.raises(DocumentError) as caught:
        parse_document(text)
    assert str(caught.value) == message


# Documents that mix valid parts with every fault the reader refuses:
# sides and vertex lists that are not lists or hold non-strings (unhashable
# ones included), repeated, unknown and duplicate vertices, overlapping
# sides, inverse pairs, missing keys, records that are not objects, and
# texts cut short.
_names = st.sampled_from(["a", "b", "c", "d"])
_not_strings = st.sampled_from([1, 2.5, None, True, ["a"], {"a": "b"}])
_not_lists = st.sampled_from(["a", 1, 2.5, None, True, {"a": "b"}])
_name_lists = st.lists(_names, max_size=3, unique=True)
_faulty_lists = st.lists(st.one_of(_names, _not_strings), min_size=1, max_size=3)


@st.composite
def _documents(draw):
    def part(valid, faulty):
        """``valid`` seven times in eight, otherwise ``faulty``."""
        return draw(valid if draw(st.sampled_from([1] * 7 + [0])) else faulty)

    faulty_sides = st.one_of(_faulty_lists, _not_lists)
    records = []
    for _ in range(draw(st.integers(0, 4))):
        record = {"tails": draw(_name_lists), "heads": draw(_name_lists)}
        if records and type(records[-1]) is dict and draw(st.booleans()):
            record = {"tails": records[-1].get("heads"), "heads": records[-1].get("tails")}
        fault = draw(st.sampled_from([None] * 9 + ["side", "missing", "record"]))
        if fault == "side":
            record[draw(st.sampled_from(["tails", "heads"]))] = draw(faulty_sides)
        elif fault == "missing":
            del record[draw(st.sampled_from(["tails", "heads"]))]
        elif fault == "record":
            record = draw(st.one_of(_not_lists, _faulty_lists))
        records.append(record)
    payload = {
        "vertices": part(st.one_of(st.just(["a", "b", "c", "d"]), st.lists(_names)), faulty_sides),
        "edges": part(st.just(records), _not_lists),
    }
    for key in draw(st.sampled_from([()] * 8 + [("vertices",), ("edges",)])):
        del payload[key]
    text = json.dumps(part(st.just(payload), st.one_of(_not_lists, _faulty_lists)))
    if draw(st.sampled_from([0] * 9 + [1])):
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(_documents())
def test_parse_document_agrees_with_the_reference_reader(text):
    expected = reference_parse_document(text)
    try:
        got = parse_document(text)
    except DocumentError as err:
        assert expected == ("document", str(err))
    except HypergraphValidationError as err:
        assert expected == ("violations", err.violations)
    else:
        assert expected[0] == "hypergraph"
        assert got == OrientedHypergraph(expected[1], expected[2])


def test_parse_forwards_validation_errors():
    document = '{"vertices": ["a"], "edges": [{"tails": ["a"], "heads": ["a"]}]}'
    with pytest.raises(Exception, match="overlap"):
        parse_document(document)


def test_main_example_document_matches_boundary_columns():
    h = parse_document(serialize_document(BUILTIN_EXAMPLES["main-example"]()))
    matrix = boundary_matrix(h, Ring.INTEGER)
    assert [column(matrix, j) for j in range(3)] == [
        [1, -1, -1],
        [-1, 1, -1],
        [-1, -1, 1],
    ]


def test_validate_command(tmp_path, capsys):
    path = _write_example(tmp_path, "triangle-graph")
    code, out, _ = _run(capsys, "validate", path)
    assert code == 0 and "valid" in out

    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a"], "edges": [{"tails": ["a"], "heads": ["a"]}]}')
    code, out, err = _run(capsys, "validate", str(bad), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any("overlap" in v for v in payload["violations"])


def test_validate_missing_file(capsys):
    code, _, err = _run(capsys, "validate", "/nonexistent/file.json")
    assert code == 1 and "error" in err


def test_unknown_subcommand(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_unknown_flag(capsys):
    code, _, _ = _run(capsys, "validate", "--bogus")
    assert code == 2


def test_unknown_example_name(capsys):
    code, _, _ = _run(capsys, "example", "no-such-fixture")
    assert code == 2


def test_homology_command_json(tmp_path, capsys):
    path = _write_example(tmp_path, "main-example")
    code, out, _ = _run(capsys, "homology", path, "--ring", "int", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == {"free_rank": 0, "torsion": []}
    assert payload["h1_cohomology"] == {"free_rank": 0, "torsion": [2, 2]}
    assert payload["rank_image_boundary"] == 3
    assert payload["h1_basis"] == []


def test_homology_parallel_edges(tmp_path, capsys):
    path = _write_example(tmp_path, "parallel-edges")
    code, out, _ = _run(capsys, "homology", path, "--ring", "int", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == {"free_rank": 1, "torsion": []}
    assert payload["h1_cohomology"] == {"free_rank": 1, "torsion": []}


def test_graphlike_command_exit_codes(tmp_path, capsys):
    good = _write_example(tmp_path, "parallel-edges")
    code, out, _ = _run(capsys, "graphlike", good, "--json")
    assert code == 0
    assert json.loads(out)["graph_like"] is True

    bad = _write_example(tmp_path, "main-example")
    code, out, _ = _run(capsys, "graphlike", bad, "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["graph_like"] is False
    assert set(payload["conditions"].values()) == {False}
    witnesses = {w["condition"]: w for w in payload["witnesses"]}
    assert witnesses["annihilator_equals_coboundary_image"]["coefficients"] == {"e1": 1}


def test_spanning_tree_rational_command(tmp_path, capsys):
    path = _write_example(tmp_path, "triangle-graph")
    code, out, _ = _run(capsys, "spanning-tree", path, "--ring", "rat", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tree_edges"] == ["e1", "e2"]
    assert payload["chords"] == ["e3"]
    assert payload["axioms_verified"] is True
    assert payload["fundamental_cycles"]["e3"] == {"e1": "-1", "e2": "-1", "e3": "1"}


def test_spanning_tree_check_integral_flag(tmp_path, capsys):
    graph = _write_example(tmp_path, "triangle-graph")
    code, out, _ = _run(capsys, "spanning-tree", graph, "--ring", "rat", "--check-integral", "--json")
    assert code == 0
    assert json.loads(out)["integral"] is True

    hyper = _write_example(tmp_path, "main-example")
    code, out, _ = _run(capsys, "spanning-tree", hyper, "--ring", "rat", "--check-integral", "--json")
    assert code == 1
    assert json.loads(out)["integral"] is False


def test_spanning_tree_check_integral_factors_b_once(tmp_path, capsys, monkeypatch):
    # the verification and the integrality test read the one Smith form of
    # B that the query's hypergraph keeps
    calls = []
    real = exact_linalg.smith_normal_form

    def recorded(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(exact_linalg, "smith_normal_form", recorded)
    graph = _write_example(tmp_path, "triangle-graph")
    code, _, _ = _run(capsys, "spanning-tree", graph, "--ring", "rat", "--check-integral")
    assert code == 0
    assert calls == [boundary_matrix(BUILTIN_EXAMPLES["triangle-graph"](), Ring.INTEGER)]


def _record_boundary_matrices(monkeypatch) -> list:
    """The ring of every ``boundary_matrix`` call, recorded through the
    module that defines it, which the hypergraph's ``_boundary`` imports."""
    calls = []
    real = boundary_module.boundary_matrix

    def recorded(hypergraph, ring):
        calls.append(ring)
        return real(hypergraph, ring)

    monkeypatch.setattr(boundary_module, "boundary_matrix", recorded)
    return calls


def test_spanning_tree_integer_search_builds_b_once(tmp_path, capsys, monkeypatch):
    # the search walks the Smith factor W of B, so on a graph-like document
    # B is built once, for the Smith form the hypergraph keeps
    calls = _record_boundary_matrices(monkeypatch)
    graph = _write_example(tmp_path, "parallel-edges")
    code, _, _ = _run(capsys, "spanning-tree", graph, "--ring", "int")
    assert code == 0
    assert calls == [Ring.INTEGER]


def test_spanning_tree_rational_check_builds_b_once(tmp_path, capsys, monkeypatch):
    # the rational tree eliminates the B the hypergraph keeps, which its
    # verification and the integrality test factor: one B per query
    calls = _record_boundary_matrices(monkeypatch)
    graph = _write_example(tmp_path, "main-example")
    code, _, _ = _run(capsys, "spanning-tree", graph, "--ring", "rat", "--check-integral")
    assert code == 1
    assert calls == [Ring.INTEGER]


def test_spanning_tree_integer_command(tmp_path, capsys):
    graph = _write_example(tmp_path, "parallel-edges")
    code, out, _ = _run(capsys, "spanning-tree", graph, "--ring", "int", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["tree_edges"] == ["e1"]
    assert payload["fundamental_cuts"]["e1"] == {"e1": 1, "e2": 1}

    hyper = _write_example(tmp_path, "main-example")
    code, out, _ = _run(capsys, "spanning-tree", hyper, "--ring", "int", "--json")
    assert code == 1
    assert json.loads(out) == {"found": False, "exhausted": True}


def test_spanning_tree_limit_exceeded(tmp_path, capsys):
    # graph-like, so the search must walk it to find that it has no tree
    hyper = _write_document(tmp_path, graph_like_without_integer_tree(), "no-tree")
    code, _, err = _run(capsys, "spanning-tree", hyper, "--ring", "int", "--limit", "0")
    assert code == 3
    assert "limit" in err


def test_spanning_tree_without_graph_likeness_has_no_integer_tree(tmp_path, capsys):
    # an elementary divisor above 1 rules every integer tree out before the
    # walk, whatever the budget: the union ran out of 1,000,000 prefixes
    # (exit 3) before the search was pruned so
    union = disjoint_union(grid_graph(2, 12), main_example())
    document = _write_document(tmp_path, union, "grid-and-main-example")
    for limit in ("0", "1000000"):
        code, out, err = _run(capsys, "spanning-tree", document, "--ring", "int", "--limit", limit)
        assert (code, err) == (1, "")
        assert out == "no spanning tree over the integers (search exhausted)\n"


def test_spanning_tree_negative_limit_is_usage_error(tmp_path, capsys):
    hyper = _write_example(tmp_path, "main-example")
    code, out, err = _run(capsys, "spanning-tree", hyper, "--ring", "int", "--limit", "-5")
    assert code == 2 and out == ""
    assert "--limit" in err and "negative" in err


@pytest.mark.parametrize(
    "ring, flag",
    [("int", ("--check-integral",)), ("rat", ("--limit", "5"))],
)
def test_spanning_tree_option_of_the_other_ring_is_usage_error(tmp_path, capsys, ring, flag):
    graph = _write_example(tmp_path, "triangle-graph")
    code, out, err = _run(capsys, "spanning-tree", graph, "--ring", ring, *flag)
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == (
        f"hyperhomology spanning-tree: error: argument {flag[0]}: not allowed with --ring {ring}"
    )


@pytest.mark.parametrize("command", [None, *_COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_goes_to_stdout_and_exits_0(capsys, command, flag):
    code, out, err = _run(capsys, *([command] if command else []), flag)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: hyperhomology {command or ''}".rstrip() + " ")
    if command is None:
        assert all(f"\n  {name} " in out for name in _COMMANDS)


def test_decompose_command(tmp_path, capsys):
    path = _write_example(tmp_path, "parallel-edges")
    code, out, _ = _run(capsys, "decompose", path, "--ring", "int", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spans_all_chains"] is False
    assert payload["missing_chain"] == {"e1": 1}
    assert payload["intersection_trivial"] is True

    code, out, _ = _run(capsys, "decompose", path, "--ring", "rat", "--json")
    payload = json.loads(out)
    assert payload["spans_all_chains"] is True
    assert payload["missing_chain"] is None


def test_example_command_emits_parseable_documents(capsys):
    for name in BUILTIN_EXAMPLES:
        code, out, _ = _run(capsys, "example", name)
        assert code == 0
        assert parse_document(out) == BUILTIN_EXAMPLES[name]()


def test_random_command_deterministic(capsys):
    args = ("random", "--vertices", "5", "--edges", "6", "--seed", "9")
    code_a, out_a, _ = _run(capsys, *args)
    code_b, out_b, _ = _run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    h = parse_document(out_a)
    assert h.vertex_count == 5 and h.edge_count == 6


def test_random_command_documents_validate(capsys):
    for seed in range(10):
        code, out, _ = _run(
            capsys, "random", "--vertices", "4", "--edges", "5", "--seed", str(seed)
        )
        assert code == 0
        parse_document(out)


@pytest.mark.parametrize(
    "vertices, edges, seed, arity, empty",
    [(5, 6, 9, 3, False), (9, 13, 4, 3, False), (4, 20, 9, 2, True), (13, 25, 299, 8, True)],
)
def test_random_command_prints_the_pop_reference_document(capsys, vertices, edges, seed, arity, empty):
    argv = ["random", "--vertices", str(vertices), "--edges", str(edges), "--seed", str(seed)]
    argv += ["--max-arity", str(arity)] + (["--allow-empty-edges"] if empty else [])
    code, out, err = _run(capsys, *argv)
    reference = pop_random_hypergraph(vertices, edges, seed, max_arity=arity, allow_empty_edges=empty)
    name = f"random-v{vertices}-e{edges}-s{seed}"
    assert (code, out, err) == (0, serialize_document(reference, name=name) + "\n", "")


def test_random_command_infeasible_is_usage_error(capsys):
    code, _, err = _run(
        capsys, "random", "--vertices", "0", "--edges", "2", "--seed", "1"
    )
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--vertices", "-1"), ("--edges", "-2"), ("--max-arity", "-1")],
)
def test_random_command_negative_argument_is_usage_error(capsys, flag, value):
    argv = {"--vertices": "3", "--edges": "2", "--seed": "1", "--max-arity": "2", flag: value}
    code, out, err = _run(capsys, "random", *[x for pair in argv.items() for x in pair])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must not be negative" in err


def test_random_command_unreachable_arity_is_usage_error(capsys):
    code, out, err = _run(
        capsys, "random", "--vertices", "2", "--edges", "1", "--seed", "1", "--max-arity", "100000"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "did not converge" in err


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    document = serialize_document(BUILTIN_EXAMPLES["path-graph"]())
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    code, out, _ = _run(capsys, "validate", "-")
    assert code == 0


# Hostile documents: bytes that are not UTF-8 (the stdin stream mimics a
# C-locale interpreter, whose stdin would smuggle them in as surrogates),
# arrays nested past the interpreter's recursion limit, and an integer past
# the interpreter's limit on the digits of an int read from text.
_HOSTILE = {
    "not_utf8": b'{"vertices": ["\xff"], "edges": []}',
    "deep_nesting": b"[" * 100000,
    "long_integer": b'{"vertices": [], "edges": [], "x": ' + b"1" * 5000 + b"}",
}


def _assert_clean_error(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", sorted(_HOSTILE))
def test_hostile_document_file_is_clean_error(tmp_path, capsys, kind):
    path = tmp_path / "hostile.json"
    path.write_bytes(_HOSTILE[kind])
    _assert_clean_error(*_run(capsys, "validate", str(path)))


@pytest.mark.parametrize("kind", sorted(_HOSTILE))
def test_hostile_document_stdin_is_clean_error(capsys, monkeypatch, kind):
    import io

    stream = io.TextIOWrapper(
        io.BytesIO(_HOSTILE[kind]), encoding="utf-8", errors="surrogateescape"
    )
    monkeypatch.setattr("sys.stdin", stream)
    _assert_clean_error(*_run(capsys, "homology", "-", "--ring", "int"))


def test_hostile_document_stdin_process_exits_1():
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    for kind, data in sorted(_HOSTILE.items()):
        result = subprocess.run(
            [sys.executable, "-m", "hyperhomology", "validate", "-"],
            input=data,
            env=env,
            capture_output=True,
            timeout=60,
        )
        _assert_clean_error(result.returncode, result.stdout.decode(), result.stderr.decode())


def _run_bare(src, script):
    """Run ``script`` under ``python -S -E`` with ``src`` first on the path;
    -S keeps site hooks from preloading modules and hiding a regression."""
    import subprocess
    import sys

    script = f"import sys\nsys.path.insert(0, {src!r})\n" + script
    return subprocess.run(
        [sys.executable, "-S", "-E", "-c", script], capture_output=True, text=True, timeout=60
    )


# Modules that no well-formed query loads, and the rational stack, which
# only the queries that make a Fraction load.
_HEAVY = (
    "dataclasses", "inspect", "argparse", "gettext", "locale", "typing", "random",
    "json", "json.decoder", "json.scanner", "json.encoder", "__future__",
)
_RATIONAL_STACK = ("fractions", "decimal", "numbers")


def test_cli_start_up_skips_dataclasses_and_inspect(tmp_path, capsys):
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    document = _write_example(tmp_path, "triangle-graph")
    no_tree = _write_example(tmp_path, "main-example")
    # integer and structural queries never make a Fraction, so they must not
    # load the rational stack (fractions imports decimal and numbers); only
    # the random subcommand loads random
    script = (
        "from hyperhomology.cli import run_command\n"
        "assert run_command(['example', 'path-graph']) == 0\n"
        f"assert run_command(['validate', {document!r}]) == 0\n"
        f"assert run_command(['homology', {document!r}, '--ring', 'int']) == 0\n"
        f"assert run_command(['graphlike', {document!r}]) == 0\n"
        f"assert run_command(['decompose', {document!r}, '--ring', 'int']) == 0\n"
        f"assert run_command(['spanning-tree', {document!r}, '--ring', 'int']) == 0\n"
        f"assert run_command(['spanning-tree', {no_tree!r}, '--ring', 'int']) == 1\n"
        f"heavy = {_HEAVY + _RATIONAL_STACK!r}\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "sys.exit(f'loaded at start-up: {loaded}' if loaded else 0)\n"
    )
    result = _run_bare(src, script)
    assert result.returncode == 0, result.stderr
    assert '"name": "path-graph"' in result.stdout
    assert "valid hypergraph: 3 vertices, 3 edges" in result.stdout
    assert "homology: free rank 1, torsion []" in result.stdout
    assert "graph-like: yes" in result.stdout
    assert "cut basis: e1 + e3, e2 + e3" in result.stdout
    assert "integer spanning tree found" in result.stdout
    assert "no spanning tree over the integers (search exhausted)" in result.stdout
    # every rational value on a graph is integral (its boundary matrix is
    # totally unimodular), so rational queries on one make no Fraction and
    # load nothing of either list
    script = (
        "from hyperhomology.cli import run_command\n"
        f"assert run_command(['homology', {document!r}, '--ring', 'rat', '--json']) == 0\n"
        f"assert run_command(['homology', {document!r}, '--ring', 'rat']) == 0\n"
        f"assert run_command(['decompose', {document!r}, '--ring', 'rat', '--json']) == 0\n"
        f"assert run_command(['spanning-tree', {document!r}, '--ring', 'rat', '--check-integral']) == 0\n"
        f"heavy = {_HEAVY + _RATIONAL_STACK!r}\n"
        "loaded = [name for name in heavy if name in sys.modules]\n"
        "sys.exit(f'loaded by a rational query on a graph: {loaded}' if loaded else 0)\n"
    )
    result = _run_bare(src, script)
    assert result.returncode == 0, result.stderr
    assert '"ring": "rat"' in result.stdout
    assert "ring: rat" in result.stdout
    assert "homology: free rank 1, torsion []" in result.stdout
    assert "homology basis: -e1 - e2 + e3" in result.stdout
    assert '"cut_basis": [\n    {\n      "e1": "1",\n      "e3": "1"\n    },' in result.stdout
    assert "cut of e1: e1 + e3" in result.stdout
    assert "integral: yes" in result.stdout
    # a tree with non-integral entries loads the stack where it makes its
    # Fractions, writes every rational coefficient as text, and loads
    # nothing else of the first list
    code, out, _ = _run(capsys, "random", "--vertices", "4", "--edges", "5", "--seed", "5")
    assert code == 0
    fractional = tmp_path / "random-4-5-5.json"
    fractional.write_text(out)
    script = (
        "from hyperhomology.cli import run_command\n"
        f"assert run_command(['spanning-tree', {str(fractional)!r}, '--ring', 'rat', '--json']) == 0\n"
        f"missing = [name for name in {_RATIONAL_STACK!r} if name not in sys.modules]\n"
        f"loaded = [name for name in {_HEAVY!r} if name in sys.modules]\n"
        "sys.exit(f'missing {missing}, loaded {loaded}' if missing or loaded else 0)\n"
    )
    result = _run_bare(src, script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == [
        '{',
        '  "ring": "rat",',
        '  "tree_edges": [',
        '    "e1",',
        '    "e2",',
        '    "e3"',
        '  ],',
        '  "chords": [',
        '    "e4",',
        '    "e5"',
        '  ],',
        '  "fundamental_cuts": {',
        '    "e1": {',
        '      "e1": "1",',
        '      "e4": "1/2"',
        '    },',
        '    "e2": {',
        '      "e2": "1",',
        '      "e5": "-1"',
        '    },',
        '    "e3": {',
        '      "e3": "1",',
        '      "e4": "-1/2",',
        '      "e5": "1"',
        '    }',
        '  },',
        '  "fundamental_cycles": {',
        '    "e4": {',
        '      "e1": "-1/2",',
        '      "e3": "1/2",',
        '      "e4": "1"',
        '    },',
        '    "e5": {',
        '      "e2": "1",',
        '      "e3": "-1",',
        '      "e5": "1"',
        '    }',
        '  },',
        '  "axioms_verified": true',
        '}',
        "",
    ]


# The standard modules the package imports at module level (``sys`` is
# always loaded), and the package's modules bar ``__main__``.
_STDLIB_IMPORTS = ("collections.abc", "enum", "functools", "itertools", "math", "os", "types")
_PACKAGE = (
    "hyperhomology", "hyperhomology.boundary", "hyperhomology.cli", "hyperhomology.core",
    "hyperhomology.exact_linalg", "hyperhomology.fixtures", "hyperhomology.homology",
    "hyperhomology.spanning_tree",
)


def test_cli_start_up_loads_only_the_package_and_json_scanner(tmp_path):
    # an allowlist: once the standard modules the package names are in,
    # importing the CLI adds only the C JSON scanner and the package, and
    # integer queries add nothing, whatever module a change starts to pull in
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    document = _write_example(tmp_path, "main-example")
    script = (
        f"import {', '.join(_STDLIB_IMPORTS)}\n"
        "before = set(sys.modules)\n"
        "from hyperhomology.cli import run_command\n"
        "imported = set(sys.modules) - before\n"
        f"assert run_command(['homology', {document!r}, '--ring', 'int']) == 0\n"
        f"assert run_command(['spanning-tree', {document!r}, '--ring', 'int']) == 1\n"
        "queried = set(sys.modules) - before - imported\n"
        "print(*sorted(imported))\n"
        "print(*sorted(queried))\n"
    )
    result = _run_bare(src, script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[-3:] == [" ".join(("_json",) + _PACKAGE), "", ""]


def test_cli_malformed_document_loads_json_for_its_error(tmp_path):
    # a fresh process has no json.decoder, so the C scanner cannot raise its
    # own JSONDecodeError; the text goes to json.loads, which reports it
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    texts = ['{"vertices" []}', '{"vertices": [], "edges": []} x', '{"vertices": [', "\x01"]
    script = "from hyperhomology.cli import run_command\n"
    for k, text in enumerate(texts):
        path = tmp_path / f"bad-{k}.json"
        path.write_text(text)
        script += f"assert run_command(['validate', {str(path)!r}]) == 1\n"
    script += "assert 'json.decoder' in sys.modules\n"
    result = _run_bare(src, script)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: JSON syntax error at line 1, column 13: Expecting ':' delimiter",
        "error: JSON syntax error at line 1, column 31: Extra data",
        "error: JSON syntax error at line 1, column 15: Expecting value",
        "error: JSON syntax error at line 1, column 1: Expecting value",
    ]


# The four reports that read integer coboundary membership, over a seeded
# suite and the built-in examples, text and --json.  The digest was taken
# from a run of the program before coboundary membership moved onto the
# Smith form of B; any change to a byte of stdout or to an exit code fails.
_PINNED_REPORT_DIGEST = "0d1afb96a8ec6460b6dbe5d21a5f2710b2169ae1066e3837ad9d5224b8cc9a43"
_PINNED_REPORT_COMMANDS = (
    ("graphlike",),
    ("decompose", "--ring", "int"),
    ("spanning-tree", "--ring", "int"),
    ("spanning-tree", "--ring", "rat", "--check-integral"),
)


def _report_digest(tmp_path, capsys, commands) -> str:
    """SHA-256 of the exit code and stdout of each of ``commands``, text and
    --json, on the built-in examples and ``hypergraph_suite(60)``."""
    documents = [(name, factory()) for name, factory in sorted(BUILTIN_EXAMPLES.items())]
    documents += [(f"suite-{k}", h) for k, h in enumerate(hypergraph_suite(60))]
    digest = hashlib.sha256()
    for name, h in documents:
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_document(h, name=name))
        for command in commands:
            for flags in ((), ("--json",)):
                argv = [command[0], str(path), *command[1:], *flags]
                code, out, _ = _run(capsys, *argv)
                digest.update(f"{name} {' '.join(command + flags)} -> {code}\n".encode())
                digest.update(out.encode())
    return digest.hexdigest()


def test_coboundary_reports_match_pinned_digest(tmp_path, capsys):
    assert _report_digest(tmp_path, capsys, _PINNED_REPORT_COMMANDS) == _PINNED_REPORT_DIGEST


# The reports that the digest above leaves out and that print coefficients
# or come from an integer query: validation, homology over both rings and
# the rational decomposition, over the same documents, text and --json.
# The digest was taken from a run of the program before the rational stack
# moved off the import path of integer queries.
_PINNED_RING_DIGEST = "00cc49260261cfbe4c135dd5d89f4e4fc6d963705071fb672ddac23d919ac0bf"
_PINNED_RING_COMMANDS = (
    ("validate",),
    ("homology", "--ring", "int"),
    ("homology", "--ring", "rat"),
    ("decompose", "--ring", "rat"),
)


def test_ring_reports_match_pinned_digest(tmp_path, capsys):
    assert _report_digest(tmp_path, capsys, _PINNED_RING_COMMANDS) == _PINNED_RING_DIGEST
