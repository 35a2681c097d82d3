"""The table-driven command-line parser against the argparse parser it
replaced (``oracles.reference_parser``): the same decision on every command
line, the same parsed values on accepted ones, and the usage-error shape,
except on five declared classes of line where the table keeps its own
reading:

- a single-dash cluster that starts with ``-h`` (``-hh``, ``-hx``, ``-h5``,
  but not ``-h=x``): the table reads it as an unknown option; argparse
  prints help for ``-hh``, and for ``-hx`` and ``-h5`` gives a usage error
  up to Python 3.12 and prints help from 3.13 on;
- a negative number followed by one newline (``-5\\n``): argparse's number
  pattern ends in ``$``, which matches before a final newline, so it takes
  the token as a number; the table reads it as an unknown option;
- the ``CHANGED`` lines, which argparse accepts and silently ignores half
  of: ``--check-integral`` with ``--ring int`` and ``--limit`` with
  ``--ring rat``;
- ``--`` before the subcommand (every token before the first ``--``
  starts with ``-``): the table reads ``--`` as the subcommand and refuses
  it; the argparse of Python 3.10.13 to 3.13.0 gives a usage error, and
  that of 3.13.13 ends the options there and reads the subcommand after
  it;
- the ambiguous prefix ``--=x`` after a help option (``-h``, ``--help`` or
  a prefix of it): the table classifies every token before it acts and
  reports the ambiguous option, as the argparse of Python 3.10.13 to
  3.13.0 does; that of 3.13.13 reports it only when its scan reaches it,
  so it prints help first.

The first two classes are compared with argparse with each deviating
token replaced by ``-x``, and on the third the table's refusal stands in
for argparse's answer; the last two are left out of the comparison,
because argparse's answer on them depends on the interpreter.  The
table's exit code and error line are pinned on lines of the first two and
the last two classes, and the parser's full text on the hand-listed lines
by a digest.
"""

import contextlib
import hashlib
import io

import pytest
from hypothesis import assume, given, settings, strategies as st

from hyperhomology import find_spanning_tree_integer, random_hypergraph
from hyperhomology.cli import _COMMANDS, _CommandLineExit, _parse_args, run_command

from oracles import reference_parser

F = "doc.json"

VALID = [
    # positional before or after options, --opt value and --opt=value
    ["validate", F],
    ["validate", F, "--json"],
    ["validate", "--json", F],
    ["homology", F, "--ring", "rat"],
    ["homology", "--ring", "rat", F],
    ["homology", "--ring=rat", F, "--json"],
    ["homology", F],
    ["decompose", F, "--ring", "int"],
    ["decompose", "--json", "--ring=rat", F],
    ["graphlike", F, "--json"],
    ["spanning-tree", F, "--ring", "rat"],
    ["spanning-tree", "--ring", "rat", "--check-integral", F, "--json"],
    ["spanning-tree", F, "--ring", "int", "--limit", "0"],
    ["spanning-tree", F, "--ring=int", "--limit=12"],
    ["spanning-tree", F, "--ring", "int", "--limit", " 7"],
    ["spanning-tree", F, "--ring", "int", "--limit", "+3"],
    ["example", "path-graph"],
    ["example", "--json", "main-example"],
    ["random", "--vertices", "3", "--edges", "2", "--seed", "1"],
    ["random", "--seed=5", "--edges=2", "--vertices=3", "--max-arity", "2", "--allow-empty-edges"],
    # unique-prefix abbreviations
    ["validate", F, "--js"],
    ["validate", F, "--j"],
    ["homology", F, "--r", "rat"],
    ["homology", F, "--ri=int"],
    ["spanning-tree", F, "--ring", "rat", "--check"],
    ["spanning-tree", F, "--ring", "int", "--lim", "4"],
    ["random", "--v", "3", "--e", "2", "--s", "1", "--m", "2", "--a"],
    # "-" as FILE and "--" to end options
    ["validate", "-"],
    ["homology", "-", "--ring", "rat"],
    ["validate", "--", "-weird"],
    ["validate", "--", "-h"],
    ["validate", "--", "--"],
    ["validate", F, "--"],
    ["validate", "--json", "--", F],
    ["example", "--", "triangle-graph"],
    # values and positionals that start with "-"
    ["validate", "-5"],
    ["validate", "-.5"],
    ["validate", "-1.5"],
    ["validate", "-a b"],
    ["random", "--vertices", "-1", "--edges", "-2", "--seed", "-3", "--max-arity", "-4"],
    ["random", "--vertices=-1", "--edges", "2", "--seed", "1"],
    # repeated options: the last one wins
    ["homology", F, "--ring", "int", "--ring", "rat"],
    ["spanning-tree", F, "--ring", "rat", "--ring", "int", "--limit", "3", "--limit", "4"],
    ["random", "--vertices", "3", "--edges", "2", "--seed", "1", "--seed", "2"],
    ["validate", F, "--json", "--json"],
    ["spanning-tree", F, "--ring", "rat", "--check-integral", "--check-integral"],
]

MALFORMED = [
    # the subcommand
    [],
    [""],
    ["frobnicate"],
    ["Validate", F],
    ["--json", "validate", F],
    ["--bogus"],
    ["--", "validate", F],
    ["-5", F],
    ["frobnicate", "-h"],
    ["--help=x"],
    # missing and extra positionals
    ["validate"],
    ["validate", "--json"],
    ["validate", F, "other"],
    ["validate", "a", "b", "c"],
    ["validate", F, "-"],
    ["validate", F, "--", "other"],
    ["validate", "--", F, "--json"],
    ["validate", "--", "--", "--"],
    ["graphlike"],
    ["graphlike", F, F],
    ["example"],
    ["example", "path-graph", "triangle-graph"],
    ["random", "--vertices", "3", "--edges", "2", "--seed", "1", F],
    # unknown options
    ["validate", F, "--bogus"],
    ["validate", F, "--bogus", "--zz=1"],
    ["validate", F, "-x"],
    ["validate", F, "-j"],
    ["validate", F, "---"],
    ["validate", F, "--=x"],
    ["homology", "-h", F, "--=x"],
    ["validate", F, "-=x"],
    ["validate", "--limit", "3", F],
    ["validate", F, "--ring", "int"],
    ["homology", F, "--check-integral"],
    ["graphlike", F, "--ring", "int"],
    ["example", "path-graph", "--ring", "int"],
    ["homology", F, "--json", "--", "--ring", "rat"],
    # missing values
    ["homology", F, "--ring"],
    ["homology", F, "--ring", "--json"],
    ["homology", F, "--ring", "-h"],
    ["homology", F, "--ring", "--", "rat"],
    ["spanning-tree", F, "--ring", "int", "--limit"],
    ["spanning-tree", F, "--ring", "int", "--limit", "-x"],
    ["spanning-tree", F, "--ring", "int", "--limit", "-5_0"],
    ["random", "--vertices"],
    ["random", "--vertices", "3", "--edges", "2", "--seed", "-5_0"],
    # explicit values on flags
    ["validate", F, "--json=1"],
    ["validate", F, "--js=yes"],
    ["validate", F, "-h=x"],
    ["spanning-tree", F, "--ring", "rat", "--check-integral=yes"],
    # bad choices
    ["homology", F, "--ring", "complex"],
    ["homology", F, "--ring="],
    ["decompose", F, "--ring", "INT"],
    ["spanning-tree", F, "--ring", "real"],
    ["spanning-tree", F, "--ring", "-"],
    ["example", "no-such-fixture"],
    ["example", "no-such-fixture", "-h"],
    ["homology", F, "--ring", "complex", "-h"],
    ["homology", "--ring", "x", "--bogus"],
    # bad ints
    ["spanning-tree", F, "--ring", "int", "--limit", "x"],
    ["spanning-tree", F, "--ring", "int", "--limit", "1.5"],
    ["spanning-tree", F, "--ring", "int", "--limit", "-"],
    ["spanning-tree", F, "--ring", "int", "--limit="],
    ["random", "--vertices", "x", "--edges", "2", "--seed", "1"],
    ["random", "--vertices", "3", "--edges", "2", "--seed", "1", "--max-arity", "2.5"],
    # negative --limit
    ["spanning-tree", F, "--ring", "int", "--limit", "-5"],
    ["spanning-tree", F, "--ring", "int", "--limit=-1"],
    ["spanning-tree", F, "--ring", "int", "--limit", " -5"],
    # missing required options
    ["spanning-tree", F],
    ["spanning-tree"],
    ["spanning-tree", F, "--check-integral"],
    ["random"],
    ["random", "--vertices", "3", "--edges", "2"],
    ["random", "--edges", "2", "--seed", "1"],
]

HELP = [
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "frobnicate"],
    ["--bogus", "validate", "-h"],
    ["validate", "-h"],
    ["validate", F, "--help"],
    ["homology", "-h", "--ring", "complex"],
    ["homology", "--bogus", "-h"],
    ["spanning-tree", "--h"],
    ["graphlike", "-h"],
    ["decompose", F, "--ring", "rat", "-h"],
    ["example", "--help"],
    ["random", "--help", "--vertices", "x"],
]

# The two combinations the argparse parser accepted and silently ignored
# half of; the table-driven parser rejects them on purpose.
CHANGED = [
    ["spanning-tree", F, "--ring", "int", "--check-integral"],
    ["spanning-tree", F, "--ring", "rat", "--limit", "5"],
]


def _reference(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return "ok", vars(reference_parser().parse_args(argv))
        except SystemExit as stop:
            return "exit", stop.code


def _table(argv):
    try:
        return "ok", vars(_parse_args(argv))
    except _CommandLineExit as stop:
        return "exit", stop.code


def test_lines_cover_every_subcommand():
    for lines in (VALID, MALFORMED, HELP):
        assert {argv[0] for argv in lines if argv and argv[0] in _COMMANDS} == set(_COMMANDS)


def _interpreter_dependent(argv) -> bool:
    """Whether ``argv`` is of one of the two declared classes on which
    argparse's answer depends on the interpreter: ``--`` before the
    subcommand, or ``--=x`` after a help option."""
    if "--" in argv and all(token.startswith("-") for token in argv[: argv.index("--")]):
        return True
    if "--=x" not in argv:
        return False
    before = argv[: argv.index("--=x")]
    return any(token == "-h" or token[2:] and "--help".startswith(token) for token in before)


def test_table_parser_matches_argparse():
    mismatches = []
    for argv in VALID + MALFORMED + HELP:
        if _interpreter_dependent(argv):
            continue
        expected, actual = _reference(argv), _table(argv)
        if expected != actual:
            mismatches.append((argv, expected, actual))
    assert mismatches == []
    assert all(_table(argv)[0] == "ok" for argv in VALID)
    assert all(_table(argv) == ("exit", 2) for argv in MALFORMED)
    assert all(_table(argv) == ("exit", 0) for argv in HELP)


def test_changed_lines_accepted_by_argparse_are_usage_errors():
    for argv in CHANGED:
        assert _reference(argv)[0] == "ok"
        assert _table(argv) == ("exit", 2)


@pytest.mark.parametrize("argv", MALFORMED + CHANGED, ids=" ".join)
def test_usage_error_shape(capsys, argv):
    code = run_command(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    usage, error = err.splitlines()
    assert err.endswith("\n") and usage.startswith("usage: hyperhomology ")
    prog, _, message = error.partition(": error: ")
    assert message and prog.split(" ")[0] == "hyperhomology", error
    assert prog == "hyperhomology" or prog.split(" ", 1)[1] in _COMMANDS, error



# Lines of the first two declared deviations, with the table's result: each
# token is read as an unknown option, exit 2 with this error line.
DEVIATIONS = [
    (["-hh"], "hyperhomology: error: the following arguments are required: command"),
    (["validate", F, "-hh"], "hyperhomology validate: error: unrecognized arguments: -hh"),
    (["validate", F, "-hx"], "hyperhomology validate: error: unrecognized arguments: -hx"),
    (["validate", "-5\n"], "hyperhomology validate: error: the following arguments are required: file"),
    (
        ["homology", "-.5\n", "--ring", "int"],
        "hyperhomology homology: error: the following arguments are required: file",
    ),
]
# Their tokens; argparse decides on "-x", an unknown option to both parsers,
# as the table decides on each of them.
_DEVIATING = ("-hh", "-hx", "-h5", "-5\n", "-.5\n")
_NOT_ALLOWED = (
    "argument --check-integral: not allowed with --ring int",
    "argument --limit: not allowed with --ring rat",
)


def _compared(argv):
    """argparse's result on ``argv`` with each deviating token replaced by
    ``-x``, and the table's on ``argv``, with each deviating value read as
    ``-x``; the table's is argparse's where it refuses a ``CHANGED`` pair."""
    expected = _reference(["-x" if token in _DEVIATING else token for token in argv])
    try:
        args = vars(_parse_args(argv))
    except _CommandLineExit as stop:
        if expected[0] == "ok" and stop.text.endswith(_NOT_ALLOWED):
            return expected, expected
        return expected, ("exit", stop.code)
    args = {key: "-x" if value in _DEVIATING else value for key, value in args.items()}
    return expected, ("ok", args)


@pytest.mark.parametrize("argv, error", DEVIATIONS, ids=[repr(argv) for argv, _ in DEVIATIONS])
def test_declared_deviations_read_an_unknown_option(argv, error):
    with pytest.raises(_CommandLineExit) as stop:
        _parse_args(argv)
    assert (stop.value.code, stop.value.text.splitlines()[-1]) == (2, error)
    expected, actual = _compared(argv)
    assert actual == expected


# Lines of the last two declared deviations, with the table's result: exit
# 2 with this error line, whatever the interpreter's argparse makes of them.
_INVALID_DASHES = (
    "hyperhomology: error: argument command: invalid choice: '--' (choose from "
    + ", ".join(map(repr, _COMMANDS))
    + ")"
)
INTERPRETER_DEPENDENT = [
    (["--", "validate", F], _INVALID_DASHES),
    (["--", "example", "--he"], _INVALID_DASHES),
    (["-x", "--", "random", "--he"], _INVALID_DASHES),
    (
        ["homology", "-h", F, "--=x"],
        "hyperhomology homology: error: ambiguous option: --=x could match --help, --json, --ring",
    ),
    (
        ["validate", "--he", F, "--=x"],
        "hyperhomology validate: error: ambiguous option: --=x could match --help, --json",
    ),
]


@pytest.mark.parametrize(
    "argv, error", INTERPRETER_DEPENDENT, ids=[repr(argv) for argv, _ in INTERPRETER_DEPENDENT]
)
def test_interpreter_dependent_lines_keep_the_table_reading(argv, error):
    assert _interpreter_dependent(argv)
    with pytest.raises(_CommandLineExit) as stop:
        _parse_args(argv)
    assert (stop.value.code, stop.value.text.splitlines()[-1]) == (2, error)


# Every branch of ``_option``: positionals (the subcommands among them), a
# lone "-" and "--", exact and prefixed options with and without "=", an
# ambiguous prefix ("--=x" after a subcommand), unknown options, negative
# numbers, text with a space, and the deviating tokens.
_WORDS = (
    *_COMMANDS, "frobnicate", F, "-", "--", "-h", "--help", "--he", "--help=x", "-h=x",
    "--json", "--js", "--json=1", "--ring", "--r", "--ring=rat", "--ri=int", "--ring=",
    "int", "rat", "complex", "--check-integral", "--check", "--limit", "--lim=4",
    "--limit=-1", "--vertices", "--v", "--edges", "--seed", "--seed=-3", "--max-arity",
    "--a", "path-graph", "no-such-fixture", "0", "3", "+3", " 7", "1.5", "x",
    "-5", "-.5", "-1.5", "-5_0", "-a b", "---", "--=x", "--bogus", "-x", "-j",
    *_DEVIATING,
)
_words = st.sampled_from(_WORDS)


_subcommand_lines = st.builds(
    lambda command, rest: [command, *rest],
    st.sampled_from(tuple(_COMMANDS)),
    st.lists(_words, max_size=6),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.one_of(st.lists(_words, max_size=7), _subcommand_lines))
def test_generated_lines_agree_with_argparse(argv):
    assume(not _interpreter_dependent(argv))
    expected, actual = _compared(argv)
    assert actual == expected


def _outcome(argv):
    """The namespace, with ``handler`` by its ``__name__``, or the exit
    code with the full help or usage text."""
    try:
        args = vars(_parse_args(argv))
    except _CommandLineExit as stop:
        return stop.code, stop.text
    return sorted({**args, "handler": args["handler"].__name__}.items())


# The parser's namespace or full text on every hand-listed line, taken
# before the top level became an entry of the subcommand scan.
_PINNED_PARSER_DIGEST = "b02f90c9274ef9f9b9fbd21f58839fb342d01277457eea9b8ddb64befdc0749d"


def test_parser_text_matches_pinned_digest():
    digest = hashlib.sha256()
    for argv in VALID + MALFORMED + HELP + CHANGED:
        digest.update(f"{argv!r} -> {_outcome(argv)!r}\n".encode())
    assert digest.hexdigest() == _PINNED_PARSER_DIGEST


def test_option_defaults_are_the_library_defaults():
    # ``--limit``, ``--max-arity`` and ``--allow-empty-edges`` default to
    # what the functions they feed default to
    tree = _parse_args(["spanning-tree", F, "--ring", "int"])
    assert (tree.limit,) == find_spanning_tree_integer.__defaults__
    drawn = _parse_args(["random", "--vertices", "3", "--edges", "2", "--seed", "1"])
    assert (drawn.max_arity, drawn.allow_empty_edges) == random_hypergraph.__defaults__
