import hashlib
import json

import pytest

from hyperhomology import OrientedHypergraph, boundary_matrix, Ring
from hyperhomology.cli import (
    _COMMANDS,
    DocumentError,
    parse_document,
    run_command,
    serialize_document,
)
from hyperhomology.fixtures import BUILTIN_EXAMPLES

from oracles import hypergraph_suite


def _run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_example(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_document(BUILTIN_EXAMPLES[name](), name=name))
    return str(path)


def test_parse_serialize_round_trip():
    for name, factory in BUILTIN_EXAMPLES.items():
        h = factory()
        again = parse_document(serialize_document(h, name=name))
        assert again == h
        assert parse_document(serialize_document(again)) == again


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


def test_parse_forwards_validation_errors():
    document = '{"vertices": ["a"], "edges": [{"tails": ["a"], "heads": ["a"]}]}'
    with pytest.raises(Exception, match="overlap"):
        parse_document(document)


def test_main_example_document_matches_boundary_columns():
    h = parse_document(serialize_document(BUILTIN_EXAMPLES["main-example"]()))
    matrix = boundary_matrix(h, Ring.INTEGER)
    assert [matrix.column(j) for j in range(3)] == [
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
    hyper = _write_example(tmp_path, "main-example")
    code, _, err = _run(capsys, "spanning-tree", hyper, "--ring", "int", "--limit", "0")
    assert code == 3
    assert "limit" in err


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
    "json", "json.decoder", "json.scanner", "json.encoder",
)
_RATIONAL_STACK = ("fractions", "decimal", "numbers")


def test_cli_start_up_skips_dataclasses_and_inspect(tmp_path):
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
    # a rational query loads the stack where it makes Fractions and answers,
    # and loads nothing else of the list above
    script = (
        "from hyperhomology.cli import run_command\n"
        f"assert run_command(['homology', {document!r}, '--ring', 'rat', '--json']) == 0\n"
        f"assert run_command(['homology', {document!r}, '--ring', 'rat']) == 0\n"
        f"loaded = [name for name in {_HEAVY!r} if name in sys.modules]\n"
        "sys.exit(f'loaded by a rational query: {loaded}' if loaded else 0)\n"
    )
    result = _run_bare(src, script)
    assert result.returncode == 0, result.stderr
    assert '"ring": "rat"' in result.stdout
    assert "ring: rat" in result.stdout
    assert "homology: free rank 1, torsion []" in result.stdout
    assert "homology basis: -e1 - e2 + e3" in result.stdout


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
