"""Command line interface: JSON hypergraph documents in, reports out.

Documents look like::

    {"name": "triangle", "vertices": ["u", "v", "w"],
     "edges": [{"tails": ["u"], "heads": ["v"]}, ...]}

Exit codes: 0 for success or a positive verdict, 1 for a well-formed
negative result (invalid hypergraph, not graph-like, no integer tree),
2 for usage errors, 3 when an integer-tree search hits its limit.
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import fixtures
from .core import (
    Chain,
    Cochain,
    HypergraphValidationError,
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

_RINGS = {"int": Ring.INTEGER, "rat": Ring.RATIONAL}


class DocumentError(ValueError):
    """A document failed to parse against the expected JSON shape."""


def parse_document(text: str) -> OrientedHypergraph:
    """Parse a JSON hypergraph document into a validated hypergraph."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(
            f"JSON syntax error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise DocumentError("JSON nesting is too deep") from err
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    vertices = payload.get("vertices")
    edges = payload.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise DocumentError('"vertices" must be a list of strings')
    if not isinstance(edges, list):
        raise DocumentError('"edges" must be a list')
    pairs = []
    for j, record in enumerate(edges):
        if not isinstance(record, dict):
            raise DocumentError(f"edge {j} must be an object with tails and heads")
        tails = record.get("tails")
        heads = record.get("heads")
        for side, label in ((tails, "tails"), (heads, "heads")):
            if not isinstance(side, list) or not all(isinstance(v, str) for v in side):
                raise DocumentError(f'edge {j}: "{label}" must be a list of strings')
        pairs.append((tails, heads))
    return OrientedHypergraph(vertices, pairs)


def serialize_document(hypergraph: OrientedHypergraph, name: str | None = None) -> str:
    """Render a hypergraph as a canonical JSON document.

    Tails and heads are sorted by vertex order so that serialization is
    deterministic and round-trips to an identical hypergraph.
    """
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
    return json.dumps(payload, indent=2)


def _edge_labels(hypergraph: OrientedHypergraph) -> list[str]:
    return [f"e{j + 1}" for j in range(hypergraph.edge_count)]


def _scalar_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _formal_sum_json(item, labels) -> dict:
    return {labels[i]: _scalar_json(item.coefficients[i]) for i in sorted(item.coefficients)}


def _format_formal_sum(item, labels) -> str:
    if item.is_zero():
        return "0"
    parts = []
    for i in sorted(item.coefficients):
        value = item.coefficients[i]
        sign = "-" if value < 0 else "+"
        magnitude = -value if value < 0 else value
        term = labels[i] if magnitude == 1 else f"{magnitude}*{labels[i]}"
        parts.append((sign, term))
    first_sign, first_term = parts[0]
    text = ("-" if first_sign == "-" else "") + first_term
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def _structure_json(structure) -> dict:
    return {"free_rank": structure.free_rank, "torsion": list(structure.torsion)}


def _read_text(path: str) -> str:
    """The document's text, which must be UTF-8, read from ``path`` or, for
    ``-``, from stdin's bytes (whatever the locale's error handler would
    make of them; an in-memory text stream has no bytes and is taken as is)."""
    try:
        if path == "-":
            stream = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if stream is None else stream.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise DocumentError(f"document is not valid UTF-8: {err.reason}") from err


def _load(path: str) -> OrientedHypergraph:
    return parse_document(_read_text(path))


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_validate(args) -> int:
    try:
        hypergraph = _load(args.file)
    except HypergraphValidationError as err:
        _emit(
            {"valid": False, "violations": list(err.violations)},
            ["invalid hypergraph:"] + [f"  {v}" for v in err.violations],
            args.json,
        )
        return EXIT_NEGATIVE
    _emit(
        {
            "valid": True,
            "vertices": hypergraph.vertex_count,
            "edges": hypergraph.edge_count,
        },
        [
            f"valid hypergraph: {hypergraph.vertex_count} vertices, "
            f"{hypergraph.edge_count} edges"
        ],
        args.json,
    )
    return EXIT_OK


def _cmd_homology(args) -> int:
    hypergraph = _load(args.file)
    report = homology(hypergraph, _RINGS[args.ring])
    labels = _edge_labels(hypergraph)
    payload = {
        "ring": args.ring,
        "rank_image_boundary": report.rank_image_boundary,
        "h1": _structure_json(report.h1),
        "h1_basis": [_formal_sum_json(c, labels) for c in report.h1_basis],
        "h1_cohomology": _structure_json(report.h1_cohomology),
    }
    lines = [
        f"ring: {args.ring}",
        f"rank of boundary image: {report.rank_image_boundary}",
        f"homology: free rank {report.h1.free_rank}, torsion {list(report.h1.torsion)}",
        "homology basis: "
        + (
            ", ".join(_format_formal_sum(c, labels) for c in report.h1_basis)
            if report.h1_basis
            else "(empty)"
        ),
        f"cohomology: free rank {report.h1_cohomology.free_rank}, "
        f"torsion {list(report.h1_cohomology.torsion)}",
    ]
    _emit(payload, lines, args.json)
    return EXIT_OK


def _tree_payload(hypergraph, tree, labels) -> dict:
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
        report = verify_tree_axioms(hypergraph, tree)
        payload = _tree_payload(hypergraph, tree, labels)
        payload["axioms_verified"] = report.ok
        lines = _tree_lines(tree, labels)
        lines.append(f"axioms verified: {'yes' if report.ok else 'NO'}")
        exit_code = EXIT_OK
        if args.check_integral:
            integral = is_integral(hypergraph, tree)
            payload["integral"] = integral
            lines.append(f"integral: {'yes' if integral else 'no'}")
            if not integral:
                exit_code = EXIT_NEGATIVE
        _emit(payload, lines, args.json)
        return exit_code
    tree = find_spanning_tree_integer(hypergraph, search_limit=args.limit)
    if tree is None:
        _emit(
            {"found": False, "exhausted": True},
            ["no spanning tree over the integers (search exhausted)"],
            args.json,
        )
        return EXIT_NEGATIVE
    payload = _tree_payload(hypergraph, tree, labels)
    payload["found"] = True
    _emit(payload, ["integer spanning tree found"] + _tree_lines(tree, labels), args.json)
    return EXIT_OK


def _cmd_graphlike(args) -> int:
    hypergraph = _load(args.file)
    report = graph_likeness(hypergraph)
    labels = {"edges": _edge_labels(hypergraph), "vertices": list(map(str, hypergraph.vertices))}
    payload = {
        "graph_like": report.graph_like,
        "conditions": report.conditions(),
        "witnesses": [
            {
                "condition": w.condition,
                "description": w.description,
                "basis": w.basis,
                "coefficients": {
                    labels[w.basis][i]: value
                    for i, value in enumerate(w.coefficients)
                    if value
                },
            }
            for w in report.witnesses
        ],
    }
    lines = [f"graph-like: {'yes' if report.graph_like else 'no'}"]
    for name, value in report.conditions().items():
        lines.append(f"  {name}: {'yes' if value else 'no'}")
    for w in report.witnesses:
        support = {
            labels[w.basis][i]: value for i, value in enumerate(w.coefficients) if value
        }
        lines.append(f"  witness ({w.condition}): {support} [{w.description}]")
    _emit(payload, lines, args.json)
    return EXIT_OK if report.graph_like else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    hypergraph = _load(args.file)
    report = cycle_cut_decomposition(hypergraph, _RINGS[args.ring])
    labels = _edge_labels(hypergraph)
    payload = {
        "ring": args.ring,
        "cycle_basis": [_formal_sum_json(c, labels) for c in report.cycle_basis],
        "cut_basis": [_formal_sum_json(c, labels) for c in report.cut_basis],
        "mutually_orthogonal": report.mutually_orthogonal,
        "intersection_trivial": report.intersection_trivial,
        "dimensions_sum_to_edge_count": report.dimensions_sum_to_edge_count,
        "spans_all_chains": report.spans_all_chains,
        "missing_chain": (
            _formal_sum_json(report.missing_chain, labels) if report.missing_chain else None
        ),
    }
    lines = [
        f"ring: {args.ring}",
        "cycle basis: "
        + (", ".join(_format_formal_sum(c, labels) for c in report.cycle_basis) or "(empty)"),
        "cut basis: "
        + (", ".join(_format_formal_sum(c, labels) for c in report.cut_basis) or "(empty)"),
        f"mutually orthogonal: {'yes' if report.mutually_orthogonal else 'no'}",
        f"intersection trivial: {'yes' if report.intersection_trivial else 'no'}",
        f"dimensions sum to edge count: {'yes' if report.dimensions_sum_to_edge_count else 'no'}",
        f"sum spans all 1-chains: {'yes' if report.spans_all_chains else 'no'}",
    ]
    if report.missing_chain is not None:
        lines.append(
            f"chain outside the sum: {_format_formal_sum(report.missing_chain, labels)}"
        )
    _emit(payload, lines, args.json)
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
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    name = f"random-v{args.vertices}-e{args.edges}-s{args.seed}"
    print(serialize_document(hypergraph, name=name))
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhomology",
        description="Exact cycle/cut homology and algebraic spanning trees "
        "for oriented hypergraphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check a document's invariants")
    p.add_argument("file", help="document path, or - for stdin")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("homology", parents=[common], help="homology and cohomology groups")
    p.add_argument("file")
    p.add_argument("--ring", choices=["int", "rat"], default="int")
    p.set_defaults(handler=_cmd_homology)

    p = sub.add_parser(
        "spanning-tree", parents=[common], help="find an algebraic spanning tree"
    )
    p.add_argument("file")
    p.add_argument("--ring", choices=["int", "rat"], required=True)
    p.add_argument("--check-integral", action="store_true", help="with --ring rat, also report integrality")
    p.add_argument(
        "--limit", type=_nonnegative_int, default=1_000_000, help="candidate budget for --ring int"
    )
    p.set_defaults(handler=_cmd_spanning_tree)

    p = sub.add_parser("graphlike", parents=[common], help="the five equivalence conditions")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_graphlike)

    p = sub.add_parser("decompose", parents=[common], help="cycle/cut decomposition diagnostics")
    p.add_argument("file")
    p.add_argument("--ring", choices=["int", "rat"], default="int")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("example", parents=[common], help="emit a built-in fixture document")
    p.add_argument("name", choices=sorted(fixtures.BUILTIN_EXAMPLES))
    p.set_defaults(handler=_cmd_example)

    p = sub.add_parser("random", parents=[common], help="emit a deterministic random document")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--allow-empty-edges", action="store_true")
    p.set_defaults(handler=_cmd_random)
    return parser


def run_command(argv=None) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.handler(args)
    except (DocumentError, HypergraphValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NEGATIVE
    except SearchLimitExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT


def entry_point() -> None:
    sys.exit(run_command())
