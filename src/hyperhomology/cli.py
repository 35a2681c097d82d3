"""Command line interface: JSON hypergraph documents in, reports out.

Documents look like::

    {"name": "triangle", "vertices": ["u", "v", "w"],
     "edges": [{"tails": ["u"], "heads": ["v"]}, ...]}

Exit codes: 0 for success or a positive verdict, 1 for a well-formed
negative result (invalid hypergraph, not graph-like, no integer tree),
2 for usage errors, 3 when an integer-tree search hits its limit.
Reports go to stdout, diagnostics to stderr.

The command line is parsed from one table, ``_COMMANDS``, that gives each
subcommand its handler, its positional argument and its options.  The
top level is one more entry of the same shape, ``_TOP``, whose one
positional is the subcommand, and one scan reads it: once the subcommand
is read, the rest of the line is scanned against the subcommand's entry,
and unknown tokens seen so far are carried over.  The parser takes
``--opt value`` and ``--opt=value``, options before or after the
positional, any unique prefix of a long option, ``-`` as a file (stdin),
``--`` to end the options (only after the subcommand: before it, ``--``
is read as the subcommand and refused), and values that are negative
numbers.  Help (``-h``/``--help``, before or after the subcommand) goes
to stdout and exits 0.  A malformed command line exits 2 with one usage
line and one ``hyperhomology <cmd>: error: ...`` line on stderr and
nothing on stdout.  The parser does without ``argparse``, whose import
and set-up cost more than the compute of a small query.

For the same reason a well-formed query never imports ``json``: its
decoder, scanner and encoder modules compile regular expressions that
no query uses.  Documents are decoded by the C scanner of ``_json``,
CPython's accelerator module for ``json`` and the scanner that
``json.loads`` itself runs, set up once at import as ``json.loads`` sets
it up.  A text it does not decode whole (no value, data after the value,
a syntax error, an integer past the interpreter's digit limit) goes to
``json.loads``, imported only then, so the error raised is the one
``json`` raises.  Reports and documents are encoded by ``_dumps``, which
returns ``json.dumps(value, indent=2)`` for the types a report holds and
quotes strings with ``_json``'s ASCII encoder, as ``json.dumps`` does.
Each handler builds only the form asked for: the JSON payload with
``--json``, the text lines without it.
"""

import os
import sys
from itertools import repeat
from types import SimpleNamespace

from _json import encode_basestring_ascii as _quote, make_scanner

from . import fixtures
from .core import (
    HypergraphValidationError,
    InternalInconsistencyError,
    OrientedHypergraph,
    Ring,
)
from .homology import (
    cycle_cut_decomposition,
    graph_likeness,
    homology,
)
from .spanning_tree import (
    SearchLimitExceeded,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    is_integral,
    verify_tree_axioms,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3

class DocumentError(ValueError):
    """A document failed to parse against the expected JSON shape."""


# ``json.loads``'s own scanner, with the settings of its default decoder
# (``parse_constant=float`` maps NaN and the infinities as ``json`` does).
_scan_once = make_scanner(
    SimpleNamespace(
        strict=True,
        object_hook=None,
        object_pairs_hook=None,
        parse_float=float,
        parse_int=int,
        parse_constant=float,
    )
)
_WHITESPACE = " \t\n\r"


def _loads(text: str):
    """``json.loads(text)``, without importing ``json`` for a text that
    the scanner decodes whole.  Any other text goes to ``json.loads``,
    which raises the reference's error: the scanner alone stops with
    ``StopIteration`` where no value starts, and reports its own syntax
    errors as ``JSONDecodeError`` only once ``json.decoder`` is loaded (as
    ``SystemError`` before that, on Python 3.11)."""
    try:
        value, end = _scan_once(text, len(text) - len(text.lstrip(_WHITESPACE)))
    except (StopIteration, SystemError, ValueError):
        pass
    else:
        if not text[end:].lstrip(_WHITESPACE):
            return value
    import json

    return json.loads(text)


def parse_document(text: str) -> OrientedHypergraph:
    """Parse a JSON hypergraph document into a validated hypergraph."""
    try:
        payload = _loads(text)
    except RecursionError as err:
        raise DocumentError("JSON nesting is too deep") from err
    except ValueError as err:
        from json import JSONDecodeError  # loaded: ``_loads`` handed the text to json

        if not isinstance(err, JSONDecodeError):  # an integer past the digit limit
            raise DocumentError(f"JSON number not accepted: {err}") from err
        raise DocumentError(
            f"JSON syntax error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    vertices = payload.get("vertices")
    edges = payload.get("edges")
    if not isinstance(vertices, list) or not all(map(isinstance, vertices, repeat(str))):
        raise DocumentError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise DocumentError('"edges" must be a list')
    pairs = []
    for j, record in enumerate(edges):
        if not isinstance(record, dict):
            raise DocumentError(f"edge {j} must be an object with tails and heads")
        tails, heads = record.get("tails"), record.get("heads")
        if not (
            isinstance(tails, list)
            and isinstance(heads, list)
            and all(map(isinstance, tails + heads, repeat(str)))
        ):
            raise _edge_error(j, record)
        pair = frozenset(tails), frozenset(heads)
        if len(pair[0]) != len(tails) or len(pair[1]) != len(heads):
            raise _edge_error(j, record)
        pairs.append(pair)
    return OrientedHypergraph(vertices, pairs)


def _edge_error(j: int, record: dict) -> DocumentError:
    """The first fault of edge ``j``'s sides, checked in the order tails
    then heads, each first for its type and then for a repeated vertex."""
    for label in ("tails", "heads"):
        side = record.get(label)
        if not isinstance(side, list) or not all(isinstance(v, str) for v in side):
            return DocumentError(f'edge {j}: "{label}" must be a list of strings')
        seen = set()
        for v in side:
            if v in seen:
                return DocumentError(f'edge {j}: "{label}" names vertex {v!r} twice')
            seen.add(v)
    raise InternalInconsistencyError(f"edge {j} was refused but has no fault")


def serialize_document(hypergraph: OrientedHypergraph, name: str | None = None) -> str:
    """Render a hypergraph as a canonical JSON document.

    Every vertex id must be a ``str``, the only id a document holds; the
    first id that is not one raises ``TypeError`` before anything is
    rendered.  Tails and heads are sorted by vertex order so that
    serialization is deterministic and round-trips to an identical
    hypergraph.
    """
    for vertex in hypergraph.vertices:
        if not isinstance(vertex, str):
            raise TypeError(f"vertex id {vertex!r} is not a str; a document holds str ids only")
    order = hypergraph.vertex_index
    payload: dict = {}
    if name is not None:
        payload["name"] = name
    payload["vertices"] = list(hypergraph.vertices)
    payload["edges"] = [
        {
            "tails": sorted(tails, key=order.__getitem__),
            "heads": sorted(heads, key=order.__getitem__),
        }
        for tails, heads in hypergraph.edges
    ]
    return _dumps(payload)


def _dumps(value) -> str:
    """``json.dumps(value, indent=2)`` for the values a report holds: dicts
    with ``str`` keys, lists and tuples, ``str``, ``int``, ``bool`` and
    ``None``.  Any other type raises ``TypeError``."""
    return _encode(value, "\n")


def _encode(value, newline: str) -> str:
    """The JSON text of ``value``; ``newline`` is the line break and indent
    of the level that holds it.  A key that is not a ``str`` fails in
    ``_quote`` with ``TypeError``."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_quote(key) + ": " + _encode(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _edge_labels(hypergraph: OrientedHypergraph) -> list[str]:
    return [f"e{j + 1}" for j in range(hypergraph.edge_count)]


def _scalar_json(value, ring: Ring):
    """A coefficient over the integers as a JSON number; one over the
    rationals, integral or not, as its text ``"p"`` or ``"p/q"``."""
    return str(value) if ring is Ring.RATIONAL else value


def _formal_sum_json(item, labels) -> dict:
    ring = item.ring
    return {labels[i]: _scalar_json(item.coefficients[i], ring) for i in sorted(item.coefficients)}


def _format_formal_sum(item, labels) -> str:
    terms = []
    for i in sorted(item.coefficients):
        value = item.coefficients[i]
        term = labels[i] if abs(value) == 1 else f"{abs(value)}*{labels[i]}"
        terms.append(("- " if value < 0 else "+ ") + term)
    text = " ".join(terms)
    # the first term drops a "+" and the space after a "-"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _structure_json(structure) -> dict:
    return {"free_rank": structure.free_rank, "torsion": list(structure.torsion)}


def _structure_text(name: str, structure) -> str:
    return f"{name}: free rank {structure.free_rank}, torsion {list(structure.torsion)}"


def _basis_text(name: str, basis, labels) -> str:
    return f"{name}: " + (", ".join(_format_formal_sum(c, labels) for c in basis) or "(empty)")


def _read_text(path: str) -> str:
    """The document's text, which must be UTF-8, read from ``path`` or, for
    ``-``, from stdin's bytes (whatever the locale's error handler would
    make of them; an in-memory text stream has no bytes and is taken as is).
    A stdin that is ``None`` (its descriptor was closed at start) is a
    :class:`DocumentError`."""
    try:
        if path == "-":
            if sys.stdin is None:
                raise DocumentError("stdin is closed")
            stream = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if stream is None else stream.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise DocumentError(f"document is not valid UTF-8: {err.reason}") from err


def _load(path: str) -> OrientedHypergraph:
    return parse_document(_read_text(path))


def _diagnose(message: str) -> None:
    """Write one diagnostic line to stderr.  When stderr is ``None`` (its
    descriptor was closed at start) the line is dropped: ``print`` would
    otherwise write it to stdout, among the reports."""
    if sys.stderr is not None:
        print(message, file=sys.stderr)


def _emit(as_json: bool, payload, lines) -> None:
    """Print a report: with ``--json`` the JSON of ``payload()``, else each
    line of ``lines()``.  Only the form asked for is built."""
    if as_json:
        print(_dumps(payload()))
    else:
        for line in lines():
            print(line)


def _cmd_validate(args) -> int:
    try:
        hypergraph = _load(args.file)
    except HypergraphValidationError as err:
        violations = err.violations
        _emit(
            args.json,
            lambda: {"valid": False, "violations": list(violations)},
            lambda: ["invalid hypergraph:"] + [f"  {v}" for v in violations],
        )
        return EXIT_NEGATIVE
    vertices, edges = hypergraph.vertex_count, hypergraph.edge_count
    _emit(
        args.json,
        lambda: {"valid": True, "vertices": vertices, "edges": edges},
        lambda: [f"valid hypergraph: {vertices} vertices, {edges} edges"],
    )
    return EXIT_OK


def _cmd_homology(args) -> int:
    hypergraph = _load(args.file)
    report = homology(hypergraph, Ring(args.ring))
    labels = _edge_labels(hypergraph)

    def payload() -> dict:
        return {
            "ring": args.ring,
            "rank_image_boundary": report.rank_image_boundary,
            "h1": _structure_json(report.h1),
            "h1_basis": [_formal_sum_json(c, labels) for c in report.h1_basis],
            "h1_cohomology": _structure_json(report.h1_cohomology),
        }

    def lines() -> list[str]:
        return [
            f"ring: {args.ring}",
            f"rank of boundary image: {report.rank_image_boundary}",
            _structure_text("homology", report.h1),
            _basis_text("homology basis", report.h1_basis, labels),
            _structure_text("cohomology", report.h1_cohomology),
        ]

    _emit(args.json, payload, lines)
    return EXIT_OK


def _tree_payload(tree, labels) -> dict:
    return {
        "ring": tree.ring.value,
        "tree_edges": [labels[t] for t in tree.tree_edges],
        "chords": [labels[e] for e in tree.chords],
        "fundamental_cuts": {
            labels[t]: _formal_sum_json(chain, labels)
            for t, chain in sorted(tree.fundamental_cuts.items())
        },
        "fundamental_cycles": {
            labels[e]: _formal_sum_json(chain, labels)
            for e, chain in sorted(tree.fundamental_cycles.items())
        },
    }


def _tree_lines(tree, labels) -> list[str]:
    lines = [
        "tree edges: " + (", ".join(labels[t] for t in tree.tree_edges) or "(none)"),
        "chords: " + (", ".join(labels[e] for e in tree.chords) or "(none)"),
    ]
    for t, chain in sorted(tree.fundamental_cuts.items()):
        lines.append(f"cut of {labels[t]}: {_format_formal_sum(chain, labels)}")
    for e, chain in sorted(tree.fundamental_cycles.items()):
        lines.append(f"cycle of {labels[e]}: {_format_formal_sum(chain, labels)}")
    return lines


def _cmd_spanning_tree(args) -> int:
    hypergraph = _load(args.file)
    labels = _edge_labels(hypergraph)
    if args.ring == "rat":
        tree = find_spanning_tree_rational(hypergraph)
        verified = verify_tree_axioms(hypergraph, tree).ok
        integral = is_integral(hypergraph, tree) if args.check_integral else None

        def payload() -> dict:
            out = _tree_payload(tree, labels)
            out["axioms_verified"] = verified
            if integral is not None:
                out["integral"] = integral
            return out

        def lines() -> list[str]:
            out = _tree_lines(tree, labels)
            out.append(f"axioms verified: {'yes' if verified else 'NO'}")
            if integral is not None:
                out.append(f"integral: {'yes' if integral else 'no'}")
            return out

        _emit(args.json, payload, lines)
        return EXIT_NEGATIVE if integral is False else EXIT_OK
    tree = find_spanning_tree_integer(hypergraph, search_limit=args.limit)
    if tree is None:
        _emit(
            args.json,
            lambda: {"found": False, "exhausted": True},
            lambda: ["no spanning tree over the integers (search exhausted)"],
        )
        return EXIT_NEGATIVE
    _emit(
        args.json,
        lambda: {**_tree_payload(tree, labels), "found": True},
        lambda: ["integer spanning tree found"] + _tree_lines(tree, labels),
    )
    return EXIT_OK


def _cmd_graphlike(args) -> int:
    hypergraph = _load(args.file)
    report = graph_likeness(hypergraph)
    labels = {"edges": _edge_labels(hypergraph), "vertices": list(map(str, hypergraph.vertices))}

    def support(w) -> dict:
        names = labels[w.basis]
        return {names[i]: value for i, value in enumerate(w.coefficients) if value}

    def payload() -> dict:
        return {
            "graph_like": report.graph_like,
            "conditions": report.conditions(),
            "witnesses": [
                {
                    "condition": w.condition,
                    "description": w.description,
                    "basis": w.basis,
                    "coefficients": support(w),
                }
                for w in report.witnesses
            ],
        }

    def lines() -> list[str]:
        out = [f"graph-like: {'yes' if report.graph_like else 'no'}"]
        for name, value in report.conditions().items():
            out.append(f"  {name}: {'yes' if value else 'no'}")
        for w in report.witnesses:
            out.append(f"  witness ({w.condition}): {support(w)} [{w.description}]")
        return out

    _emit(args.json, payload, lines)
    return EXIT_OK if report.graph_like else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    hypergraph = _load(args.file)
    report = cycle_cut_decomposition(hypergraph, Ring(args.ring))
    labels = _edge_labels(hypergraph)

    def payload() -> dict:
        return {
            "ring": args.ring,
            "cycle_basis": [_formal_sum_json(c, labels) for c in report.cycle_basis],
            "cut_basis": [_formal_sum_json(c, labels) for c in report.cut_basis],
            # true by construction (see DecompositionReport), printed for the output's readers
            "mutually_orthogonal": True,
            "intersection_trivial": True,
            "dimensions_sum_to_edge_count": True,
            "spans_all_chains": report.spans_all_chains,
            "missing_chain": (
                _formal_sum_json(report.missing_chain, labels) if report.missing_chain else None
            ),
        }

    def lines() -> list[str]:
        out = [
            f"ring: {args.ring}",
            _basis_text("cycle basis", report.cycle_basis, labels),
            _basis_text("cut basis", report.cut_basis, labels),
            # true by construction (see DecompositionReport), printed for the output's readers
            "mutually orthogonal: yes",
            "intersection trivial: yes",
            "dimensions sum to edge count: yes",
            f"sum spans all 1-chains: {'yes' if report.spans_all_chains else 'no'}",
        ]
        if report.missing_chain is not None:
            out.append(
                f"chain outside the sum: {_format_formal_sum(report.missing_chain, labels)}"
            )
        return out

    _emit(args.json, payload, lines)
    return EXIT_OK


def _cmd_example(args) -> int:
    hypergraph = fixtures.BUILTIN_EXAMPLES[args.name]()
    print(serialize_document(hypergraph, name=args.name))
    return EXIT_OK


def _cmd_random(args) -> int:
    try:
        hypergraph = fixtures.random_hypergraph(
            args.vertices,
            args.edges,
            args.seed,
            max_arity=args.max_arity,
            allow_empty_edges=args.allow_empty_edges,
        )
    except ValueError as err:
        _diagnose(f"error: {err}")
        return EXIT_USAGE
    name = f"random-v{args.vertices}-e{args.edges}-s{args.seed}"
    print(serialize_document(hypergraph, name=name))
    return EXIT_OK


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _nonnegative_int(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise ValueError(f"must not be negative: {value}")
    return value


# The command line, one entry per subcommand: its handler, its one-line
# summary, its positional argument as ``(name, choices or None)`` or None,
# and its options as ``{option: (kind, default, only_with)}``.  A kind is
# None for a flag, a tuple of the accepted values for a choice, or the
# function that converts a value; a default of ``_REQUIRED`` makes the
# option required; ``only_with`` is None or the ``(option, value)`` that
# must hold for the option to be given.  Every subcommand takes ``--json``
# and, outside the table, ``-h``/``--help``.  ``_TOP``, after the table, is
# the top level in its shape: the subcommand is its positional, and it has
# no other option than ``-h``/``--help``.
_REQUIRED = object()
_RING = tuple(ring.value for ring in Ring)
_FILE = ("file", None)
_JSON = {"--json": (None, False, None)}
_COMMANDS = {
    "validate": (_cmd_validate, "check a document's invariants", _FILE, _JSON),
    "homology": (
        _cmd_homology, "homology and cohomology groups", _FILE,
        {**_JSON, "--ring": (_RING, "int", None)},
    ),
    "spanning-tree": (
        _cmd_spanning_tree, "find an algebraic spanning tree", _FILE,
        {
            **_JSON,
            "--ring": (_RING, _REQUIRED, None),
            "--check-integral": (None, False, ("--ring", "rat")),
            "--limit": (_nonnegative_int, 1_000_000, ("--ring", "int")),
        },
    ),
    "graphlike": (_cmd_graphlike, "the five equivalence conditions", _FILE, _JSON),
    "decompose": (
        _cmd_decompose, "cycle/cut decomposition diagnostics", _FILE,
        {**_JSON, "--ring": (_RING, "int", None)},
    ),
    "example": (
        _cmd_example, "emit a built-in fixture document",
        ("name", tuple(sorted(fixtures.BUILTIN_EXAMPLES))), _JSON,
    ),
    "random": (
        _cmd_random, "emit a deterministic random document", None,
        {
            **_JSON,
            "--vertices": (_int, _REQUIRED, None),
            "--edges": (_int, _REQUIRED, None),
            "--seed": (_int, _REQUIRED, None),
            "--max-arity": (_int, 3, None),
            "--allow-empty-edges": (None, False, None),
        },
    ),
}
_TOP = (None, None, ("command", tuple(_COMMANDS)), {})
_HELP = ("-h", "--help")
_PROG = "hyperhomology"
_DESCRIPTION = (
    "Exact cycle/cut homology and algebraic spanning trees for oriented hypergraphs."
)


class _CommandLineExit(Exception):
    """The command line asked for help (``code`` 0, ``text`` for stdout)
    or is malformed (``code`` 2, ``text`` for stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _dest(option: str) -> str:
    return option.lstrip("-").replace("-", "_")


def _choices(kind) -> str:
    return "{" + ",".join(kind) + "}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {_PROG} [-h] {_choices(_COMMANDS)} ..."
    words = [f"usage: {_PROG} {command} [-h]"]
    _, _, positional, options = _COMMANDS[command]
    for option, (kind, default, _) in options.items():
        if kind is not None:
            option += " " + (_choices(kind) if type(kind) is tuple else _dest(option).upper())
        words.append(option if default is _REQUIRED else f"[{option}]")
    if positional is not None:
        name, choices = positional
        words.append(name if choices is None else _choices(choices))
    return " ".join(words)


def _help(command: str | None) -> _CommandLineExit:
    if command is None:
        width = max(map(len, _COMMANDS))
        lines = [f"  {name:<{width}}  {entry[1]}" for name, entry in _COMMANDS.items()]
        body = f"{_DESCRIPTION}\n\ncommands:\n" + "\n".join(lines)
    else:
        _, body, _, options = _COMMANDS[command]
        limited = [(option, spec[2]) for option, spec in options.items() if spec[2]]
        if limited:
            width = max(len(option) for option, _ in limited)
            body += "\n\n" + "\n".join(
                f"  {option:<{width}}  only with {' '.join(only_with)}"
                for option, only_with in limited
            )
    return _CommandLineExit(EXIT_OK, f"{_usage(command)}\n\n{body}")


def _usage_error(command: str | None, message: str) -> _CommandLineExit:
    prog = _PROG if command is None else f"{_PROG} {command}"
    return _CommandLineExit(EXIT_USAGE, f"{_usage(command)}\n{prog}: error: {message}")


def _is_number(text: str) -> bool:
    whole, dot, fraction = text.partition(".")
    if not dot:
        return whole.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _option(token: str, names, command: str | None):
    """Classify one token against the option ``names`` of ``command``.

    Returns None for a positional token (one that does not start with
    ``-``, a lone ``-`` or ``--``, a negative number, or text holding a
    space), ``(option, value)`` for a known option, with the value given
    after ``=`` or None, and ``(None, None)`` for an unknown option.  A
    long option may be shortened to any unique prefix.
    """
    if token[:1] != "-":
        return None
    if token in names:
        return token, None
    if token in ("-", "--"):
        return None
    name, equals, value = token.partition("=")
    if name in names:
        return name, value
    if token.startswith("--"):
        matches = [option for option in names if option.startswith(name)]
        if len(matches) > 1:
            raise _usage_error(
                command, f"ambiguous option: {token} could match {', '.join(matches)}"
            )
        if matches:
            return matches[0], value if equals else None
    if _is_number(token[1:]) or " " in token:
        return None
    return None, None


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: ``command``, ``handler`` and one attribute
    per option and positional of the subcommand, as its handler reads
    them.  Raises :class:`_CommandLineExit` for help and usage errors."""
    command, entry, tokens, extras = None, _TOP, argv, []

    def convert(name: str, kind, value: str):
        try:
            if type(kind) is not tuple:
                return kind(value)
            if value not in kind:
                choices = ", ".join(map(repr, kind))
                raise ValueError(f"invalid choice: {value!r} (choose from {choices})")
        except ValueError as err:
            raise _usage_error(command, f"argument {name}: {err}") from None
        return value

    while entry:  # the top level, then the subcommand it names
        handler, _, positional, options = entry
        entry = None
        names = _HELP + tuple(options)
        args = {"command": command, "handler": handler}
        args.update((_dest(option), spec[1]) for option, spec in options.items())
        given = set()
        end = tokens.index("--") if command and "--" in tokens else len(tokens)
        kinds = [_option(token, names, command) for token in tokens[:end]]
        del tokens[end:end + 1]  # the "--" that ends the options
        kinds += [None] * (len(tokens) - end)
        k = 0
        while k < len(tokens):
            token, option = tokens[k], kinds[k]
            k += 1
            if option is None:
                if positional is None or positional[0] in given:
                    extras.append(token)
                else:
                    name, choices = positional
                    args[name] = token if choices is None else convert(name, choices, token)
                    given.add(name)
                    if command is None:  # scan the rest against the subcommand's entry
                        command, entry, tokens = token, _COMMANDS[token], tokens[k:]
                        break
                continue
            name, value = option
            if name is None:
                extras.append(token)
                continue
            kind = options[name][0] if name in options else None
            if kind is None:  # a flag, -h and --help included
                if value is not None:
                    raise _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
                if name in _HELP:
                    raise _help(command)
                args[_dest(name)] = True
            else:
                if value is None:
                    if k >= end or kinds[k] is not None:
                        raise _usage_error(command, f"argument {name}: expected one argument")
                    value = tokens[k]
                    k += 1
                args[_dest(name)] = convert(name, kind, value)
            given.add(name)
    required = [positional[0]] if positional is not None else []
    required += [option for option, spec in options.items() if spec[1] is _REQUIRED]
    missing = [name for name in required if name not in given]
    if missing:
        raise _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _usage_error(command, f"unrecognized arguments: {' '.join(extras)}")
    for option, (_, _, only_with) in options.items():
        if option in given and only_with is not None:
            other, wanted = only_with
            if args[_dest(other)] != wanted:
                raise _usage_error(
                    command, f"argument {option}: not allowed with {other} {args[_dest(other)]}"
                )
    return SimpleNamespace(**args)


def run_command(argv=None) -> int:
    """Dispatch one command line; returns the process exit code."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _CommandLineExit as stop:
        if stop.code == EXIT_OK:
            print(stop.text)
        else:
            _diagnose(stop.text)
        return stop.code
    try:
        return args.handler(args)
    except (DocumentError, HypergraphValidationError, OSError) as err:
        _diagnose(f"error: {err}")
        return EXIT_NEGATIVE
    except SearchLimitExceeded as err:
        _diagnose(f"error: {err}")
        return EXIT_LIMIT


def entry_point() -> None:
    """Run the command line and end the process at its exit code.

    Both ``python -m hyperhomology`` and the console script end here.
    Once stdout and then stderr are flushed, the process ends by
    ``os._exit`` and skips the interpreter's teardown, which costs more
    than the compute of a small query.  That is safe because the package
    registers no ``atexit`` handlers, starts no threads and closes every
    file it opens in a ``with`` block, so teardown has nothing left to
    do.  A stream that is ``None`` (its descriptor was closed at start)
    is skipped.  If a flush raises ``OSError`` (say, the reader of the
    pipe is gone), the process ends by ``sys.exit`` instead, so the
    interpreter reports the failure and picks the status as it always
    has.  An exception from ``run_command`` propagates, prints its
    traceback and exits 1.
    """
    code = run_command()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)
