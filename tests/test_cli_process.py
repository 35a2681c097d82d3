"""The CLI as real processes: exit codes, complete output, closed streams.

``cli.entry_point`` ends a process by ``os._exit`` once its output is
flushed, so these tests run ``python -m hyperhomology`` in a child and
check what the child's caller sees.  The expected statuses and stderr
lines are what the interpreter produced when the process ended by
``sys.exit``.
"""

import json
import os
import subprocess
import sys

import pytest

from hyperhomology.cli import run_command, serialize_document
from hyperhomology.fixtures import BUILTIN_EXAMPLES

from oracles import graph_like_without_integer_tree

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = {
    **{k: v for k, v in os.environ.items() if not k.startswith("PYTHON")},
    "PYTHONPATH": os.path.join(ROOT, "src"),
}
LARGE_RANDOM = ("random", "--vertices", "2000", "--edges", "3000", "--seed", "1")


def _process(*argv, **kwargs):
    kwargs.setdefault("capture_output", True)
    return subprocess.run(
        [sys.executable, "-m", "hyperhomology", *argv], env=ENV, timeout=120, **kwargs
    )


def _in_process(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


@pytest.fixture
def main_example(tmp_path):
    path = tmp_path / "main-example.json"
    path.write_text(serialize_document(BUILTIN_EXAMPLES["main-example"](), name="main-example"))
    return str(path)


@pytest.fixture
def no_tree(tmp_path):
    """A graph-like document without an integer tree: the search walks it,
    so a budget of 0 runs out (main-example is ruled out before the walk)."""
    path = tmp_path / "no-tree.json"
    path.write_text(serialize_document(graph_like_without_integer_tree(), name="no-tree"))
    return str(path)


def test_console_script_is_the_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"hyperhomology": "hyperhomology.cli:entry_point"}


def test_module_run_ends_through_the_entry_point(monkeypatch):
    import runpy

    from hyperhomology import cli

    calls = []
    monkeypatch.setattr(cli, "entry_point", lambda: calls.append("entry_point"))
    runpy.run_module("hyperhomology", run_name="__main__")
    assert calls == ["entry_point"]


@pytest.mark.parametrize(
    "argv, status",
    [
        (("example", "path-graph"), 0),
        (("graphlike", "DOC"), 1),
        (("homology", "DOC", "--ring", "complex"), 2),
        (("spanning-tree", "NO-TREE", "--ring", "int", "--limit", "0"), 3),
    ],
)
def test_process_exit_codes(capsys, main_example, no_tree, argv, status):
    documents = {"DOC": main_example, "NO-TREE": no_tree}
    argv = [documents.get(arg, arg) for arg in argv]
    result = _process(*argv)
    code, out, err = _in_process(capsys, *argv)
    assert result.returncode == code == status
    assert result.stdout == out
    if status == 2:
        assert b"invalid choice" in result.stderr
    else:
        assert result.stderr == err
    if status == 3:
        assert result.stderr.startswith(b"error: ") and result.stderr.endswith(b"\n")


def test_exception_from_run_command_prints_traceback_and_exits_1():
    script = (
        "from hyperhomology import cli\n"
        "def fail(argv=None):\n"
        "    raise RuntimeError('planted failure')\n"
        "cli.run_command = fail\n"
        "cli.entry_point()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 1
    assert result.stderr.startswith("Traceback (most recent call last):")
    assert result.stderr.endswith("RuntimeError: planted failure\n")


def test_output_past_the_pipe_buffer_is_complete(capsys):
    result = _process(*LARGE_RANDOM)
    code, out, err = _in_process(capsys, *LARGE_RANDOM)
    assert result.returncode == code == 0
    assert len(result.stdout) == 362_508
    assert result.stdout == out
    assert result.stderr == err == b""


@pytest.mark.parametrize("label", ["tails", "heads"])
def test_a_side_repeating_the_first_of_100000_vertices_is_refused(tmp_path, label):
    # the repeat is found in one pass; a scan of each entry against the
    # entries before it ran for minutes here, past the child's timeout
    names = [f"x{i}" for i in range(100_000)]
    edge = {"tails": [], "heads": []}
    edge[label] = names + ["x0"]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"vertices": names, "edges": [edge]}))
    result = _process("validate", str(path))
    assert result.returncode == 1 and result.stdout == b""
    assert result.stderr == f"error: edge 0: \"{label}\" names vertex 'x0' twice\n".encode()


def test_error_line_reaches_stderr_whole(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a"], "edges": [{"tails": "a", "heads": []}]}')
    result = _process("validate", str(bad))
    code, out, err = _in_process(capsys, "validate", str(bad))
    assert result.returncode == code == 1
    assert (result.stdout, result.stderr) == (out, err)
    assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1


def test_closed_stdout_exits_0_silently():
    result = _process(
        "example", "path-graph", capture_output=False, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stderr) == (0, b"")


def test_stdout_pipe_without_reader_fails_as_the_interpreter_reports():
    def without_reader(*argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return _process(*argv, capture_output=False, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)

    # A small report fails only when the interpreter flushes stdout at exit.
    result = without_reader("example", "path-graph")
    assert result.returncode == 120
    lines = result.stderr.decode().splitlines()
    assert len(lines) == 2, result.stderr
    assert lines[0].startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
    assert lines[0].endswith(">")
    assert lines[1] == "BrokenPipeError: [Errno 32] Broken pipe"

    # A large one fails inside the command, which reports it.
    result = without_reader(*LARGE_RANDOM)
    assert (result.returncode, result.stderr) == (1, b"error: [Errno 32] Broken pipe\n")


def test_closed_stderr_keeps_the_error_line_out_of_stdout(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [')
    result = _process("validate", str(bad), preexec_fn=lambda: os.close(2))
    assert (result.returncode, result.stdout) == (1, b"")
    infeasible = ("random", "--vertices", "0", "--edges", "2", "--seed", "1")
    result = _process(*infeasible, preexec_fn=lambda: os.close(2))
    assert (result.returncode, result.stdout) == (2, b"")


def test_closed_stdin_is_a_document_error():
    result = _process("validate", "-", preexec_fn=lambda: os.close(0))
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: stdin is closed\n"


_EVERY_QUERY = """
import contextlib, io, sys
from hyperhomology.cli import run_command

queries = [
    ["example", "main-example"],
    ["random", "--vertices", "9", "--edges", "13", "--seed", "4"],
]
for path in sys.argv[1:]:
    queries += [
        ["validate", path],
        ["homology", path, "--ring", "int"],
        ["homology", path, "--ring", "rat"],
        ["spanning-tree", path, "--ring", "rat", "--check-integral"],
        ["spanning-tree", path, "--ring", "int"],
        ["graphlike", path],
        ["decompose", path, "--ring", "int"],
        ["decompose", path, "--ring", "rat"],
    ]
for argv in queries:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([*argv, "--json"])
    print(argv, code, repr(out.getvalue()), repr(err.getvalue()))
"""


def test_answers_do_not_depend_on_the_hash_seed(capsys, main_example, tmp_path):
    # vertex sets are frozensets of strings, whose iteration order follows
    # PYTHONHASHSEED; no report may
    code, document, _ = _in_process(
        capsys, "random", "--vertices", "9", "--edges", "13", "--seed", "4"
    )
    assert code == 0
    random_document = tmp_path / "random.json"
    random_document.write_bytes(document)
    runs = [
        subprocess.run(
            [sys.executable, "-c", _EVERY_QUERY, main_example, str(random_document)],
            env={**ENV, "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=120,
        )
        for seed in ("0", "1")
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert run.stdout.count(b"\n") == 18
    assert runs[0].stdout == runs[1].stdout
