"""Seeded documents and query lists for the four benchmark workloads.

A workload is a set of documents (decoded JSON hypergraphs, or raw text for
deliberately malformed ones) and a list of queries over them.  Everything
is derived from the workload seed; the program under test only ever sees
the documents written to disk.  Query arguments name documents as
``@name``, which the runner replaces with the written file's path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference

# The four built-in examples, restated here so the benchmark pins them
# without asking the program.
BUILTINS = {
    "main-example": (
        ["v1", "v2", "v3"],
        [(["v2", "v3"], ["v1"]), (["v1", "v3"], ["v2"]), (["v1", "v2"], ["v3"])],
    ),
    "parallel-edges": (["u", "v"], [(["u"], ["v"]), (["u"], ["v"])]),
    "triangle-graph": (["u", "v", "w"], [(["u"], ["v"]), (["v"], ["w"]), (["u"], ["w"])]),
    "path-graph": (["u", "v", "w"], [(["u"], ["v"]), (["v"], ["w"])]),
}


@dataclass
class Query:
    """One CLI invocation and what its answer is checked against.

    ``kind`` selects the check in :mod:`checker`; ``expect`` carries facts
    that are fixed by construction (exit codes of invalid inputs and the
    like).  Facts derived from a document are computed by the checker.
    """

    args: list[str]
    kind: str
    doc: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    docs: dict[str, dict | str]
    queries: list[Query]
    warmup: Query


def make_doc(vertices, edges, name=None) -> dict:
    doc = {} if name is None else {"name": name}
    doc["vertices"] = list(vertices)
    doc["edges"] = [{"tails": list(t), "heads": list(h)} for t, h in edges]
    return doc


def _from_hypergraph(hypergraph, name) -> dict:
    order = hypergraph.vertex_index
    return make_doc(
        hypergraph.vertices,
        [
            (sorted(t, key=order.__getitem__), sorted(h, key=order.__getitem__))
            for t, h in hypergraph.edges
        ],
        name,
    )


def random_doc(vertices: int, edges: int, seed: int, name: str) -> dict:
    """A document from the library's seeded generator (the only library
    call the benchmark makes while setting up)."""
    from hyperhomology import fixtures

    return _from_hypergraph(fixtures.random_hypergraph(vertices, edges, seed), name)


def _graph_doc(rng: random.Random, vertex_count: int, pairs, name: str) -> dict:
    """Graph document with seeded edge orientations and edge order.  Parallel
    edges share one orientation, since opposite ones are an invalid
    inverse pair."""
    flips: dict = {}
    edges = []
    for a, b in pairs:
        flip = flips.setdefault(frozenset((a, b)), rng.random() < 0.5)
        edges.append((b, a) if flip else (a, b))
    rng.shuffle(edges)
    names = [f"x{i + 1}" for i in range(vertex_count)]
    return make_doc(names, [([names[a]], [names[b]]) for a, b in edges], name)


def cycle_pairs(n: int, offset: int = 0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def grid_pairs(rows: int, cols: int, offset: int = 0):
    pairs = []
    for i in range(rows):
        for j in range(cols):
            k = offset + i * cols + j
            if j + 1 < cols:
                pairs.append((k, k + 1))
            if i + 1 < rows:
                pairs.append((k, k + cols))
    return pairs


def bundle_path_pairs(length: int, width: int, offset: int = 0):
    """A path of ``length`` steps where each step is ``width`` parallel edges."""
    return [(offset + i, offset + i + 1) for i in range(length) for _ in range(width)]


def _seeds(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _planted_torsion_doc(rng, vertices: int, edges: int, name: str) -> dict:
    """A random block in disjoint union with a main-example gadget: three
    2-tail to 1-head edges on three fresh vertices, which give torsion."""
    block = random_doc(vertices - 3, edges - 3, rng.randrange(1 << 30), name)
    gadget_vertices, gadget_edges = BUILTINS["main-example"]
    rename = {v: f"g{v}" for v in gadget_vertices}
    pairs = [(t["tails"], t["heads"]) for t in block["edges"]]
    for tails, heads in gadget_edges:
        pairs.insert(
            rng.randrange(len(pairs) + 1),
            ([rename[v] for v in tails], [rename[v] for v in heads]),
        )
    return make_doc(block["vertices"] + [rename[v] for v in gadget_vertices], pairs, name)


def _graph_like_doc(rng, vertices: int, edges: int, name: str) -> dict:
    """First seeded random document whose boundary matrix is graph-like."""
    while True:
        doc = random_doc(vertices, edges, rng.randrange(1 << 30), name)
        if reference.DocFacts(doc).graph_like:
            return doc


def lattice_ladder(seed: int, smoke: bool) -> Workload:
    """SNF and lattice layers: graphlike, integer homology and integer
    decomposition over a size ladder.  Each rung has one graph-like random
    document and one with planted torsion, so the witness path runs on
    exactly half of the documents for every seed."""
    rng = _seeds("lattice-ladder", seed)
    if smoke:
        rungs = [(8, 12)]
    else:
        rungs = [(8, 12), (12, 18), (17, 25), (23, 34)]
    docs = {}
    for v, e in rungs:
        docs[f"rand-{v}x{e}"] = _graph_like_doc(rng, v, e, f"rand-{v}x{e}")
        docs[f"tors-{v}x{e}"] = _planted_torsion_doc(rng, v, e, f"tors-{v}x{e}")
    queries = []
    for name in docs:
        queries.append(Query(["graphlike", f"@{name}", "--json"], "graphlike", name))
        queries.append(Query(["homology", f"@{name}", "--ring", "int", "--json"], "homology", name))
        queries.append(Query(["decompose", f"@{name}", "--ring", "int", "--json"], "decompose", name))
    first = next(iter(docs))
    warmup = Query(["validate", f"@{first}", "--json"], "validate", first)
    return Workload("lattice-ladder", docs, queries, warmup)


def _fill_strata(rng, strata) -> list[list[dict]]:
    """Draw random documents until every stratum ``(class, size, (low,
    high), count)`` holds ``count`` of them; each draw goes to the first
    stratum it fits.  Classes are "found", "notree" or "nongl" (not
    graph-like); the scan depth is the number of column bases that a
    lexicographic integer-tree search scans, up to the tree when one is
    found and all of them otherwise.  Both come from the benchmark's own
    arithmetic."""
    filled: list[list[dict]] = [[] for _ in strata]
    for _ in range(20000):
        open_ = [i for i, s in enumerate(strata) if len(filled[i]) < s[3]]
        if not open_:
            return filled
        v, e = strata[open_[rng.randrange(len(open_))]][1]
        doc = random_doc(v, e, rng.randrange(1 << 30), "")
        facts = reference.DocFacts(doc)
        deepest = max(strata[i][2][1] for i in open_ if strata[i][1] == (v, e))
        tree, depth = reference.integral_tree_search(facts.rows, facts.rank, facts.m, deepest)
        kind = "nongl" if not facts.graph_like else ("found" if tree is not None else "notree")
        for i in open_:
            size, (low, high) = strata[i][1], strata[i][2]
            if strata[i][0] == kind and size == (v, e) and low <= depth <= high:
                filled[i].append(doc)
                break
    raise RuntimeError("could not fill the tree-search strata")


def tree_search(seed: int, smoke: bool) -> Workload:
    """Spanning-tree layer: integer searches that find a tree, exhaust with
    no tree, or face a non-graph-like input, one search that hits its
    candidate limit, and rational trees with the integrality check.

    The seed code examines column bases in lexicographic order, and its cost
    grows with how many it scans, so the documents are drawn in fixed
    strata of size and scan depth: every seed gets the same mix of shallow
    and deep searches."""
    rng = _seeds("tree-search", seed)
    kinds = ("found", "nongl", "notree")
    strata = [("found", size, band, 2) for size in [(6, 8), (8, 10)] for band in [(1, 1), (2, 3), (5, 6)]]
    nongl = [((5, 6), (3, 5)), ((6, 8), (11, 14)), ((6, 8), (17, 21)), ((7, 9), (13, 18))]
    strata += [("nongl", size, band, 1) for size, band in nongl]
    strata += [("notree", (5, 6), (1, 10), 1), ("notree", (6, 7), (1, 10), 2)]
    mids = [(16, 24)] * 4
    if smoke:
        strata = [next(s for s in strata if s[0] == kind)[:3] + (1,) for kind in kinds]
        mids = [(12, 18)]
    docs = {}
    drawn = dict.fromkeys(kinds, 0)
    for (kind, *_), group in zip(strata, _fill_strata(rng, strata)):
        for doc in group:
            name = f"{kind}-{drawn[kind]}"
            drawn[kind] += 1
            docs[name] = dict(doc, name=name)
    for i, (v, e) in enumerate(mids):
        docs[f"mid-{i}"] = random_doc(v, e, rng.randrange(1 << 30), f"mid-{i}")
    queries = []
    for name in docs:
        if name.startswith("mid-"):
            args = ["spanning-tree", f"@{name}", "--ring", "rat", "--check-integral", "--json"]
            queries.append(Query(args, "tree-rat", name, {"check_integral": True}))
        else:
            args = ["spanning-tree", f"@{name}", "--ring", "int", "--json"]
            queries.append(Query(args, "tree-int", name))
    # every column basis of a graph-like document without an integer tree
    # must be examined, so a budget of one candidate always runs out
    limited = ["spanning-tree", "@notree-0", "--ring", "int", "--limit", "1", "--json"]
    queries.append(Query(limited, "exit", "notree-0", {"code": 3}))
    warmup = Query(["validate", "@found-0", "--json"], "validate", "found-0")
    return Workload("tree-search", docs, queries, warmup)


def graph_families(seed: int, smoke: bool) -> Workload:
    """Large sparse graphs: dense per-entry work dominates and graph-likeness
    is trivial.  Sizes are fixed, so that every seed costs about the same;
    the seed draws edge orientations and edge order."""
    rng = _seeds("graph-families", seed)
    docs = {}

    def add(name, vertex_count, pairs):
        docs[name] = _graph_doc(rng, vertex_count, pairs, name)

    if smoke:
        add("cycle-a", 12, cycle_pairs(12))
        add("tree-grid", 9, grid_pairs(3, 3))
        add("validate-cycle", 300, cycle_pairs(300))
        large, small = ["cycle-a"], ["tree-grid"]
    else:
        large = []
        for tag, n in zip("ab", (45, 85)):
            add(f"cycle-{tag}", n, cycle_pairs(n))
            large.append(f"cycle-{tag}")
        add("grid", 30, grid_pairs(5, 6))
        add("bundle", 21, bundle_path_pairs(20, 3))
        add("union", 30 + 16 + 19, cycle_pairs(30) + grid_pairs(4, 4, 30) + bundle_path_pairs(18, 3, 46))
        large += ["grid", "bundle", "union"]
        add("tree-cycle", 15, cycle_pairs(15))
        add("tree-grid", 12, grid_pairs(3, 4))
        add("tree-bundle", 7, bundle_path_pairs(6, 2))
        add("tree-union-a", 8 + 6 + 5, cycle_pairs(8) + grid_pairs(2, 3, 8) + cycle_pairs(5, 14))
        add("tree-union-b", 6 + 6 + 7, cycle_pairs(6) + grid_pairs(3, 2, 6) + bundle_path_pairs(6, 2, 12))
        small = ["tree-cycle", "tree-grid", "tree-bundle", "tree-union-a", "tree-union-b"]
        add("validate-cycle", 3000, cycle_pairs(3000))
    queries = []
    for name in large:
        queries.append(Query(["homology", f"@{name}", "--ring", "int", "--json"], "homology", name))
        queries.append(Query(["decompose", f"@{name}", "--ring", "rat", "--json"], "decompose", name))
    for name in small:
        queries.append(Query(["spanning-tree", f"@{name}", "--ring", "rat", "--json"], "tree-rat", name))
    queries.append(Query(["validate", "@validate-cycle", "--json"], "validate", "validate-cycle"))
    warmup = Query(["validate", f"@{small[0]}", "--json"], "validate", small[0])
    return Workload("graph-families", docs, queries, warmup)


INVALID = {
    "bad-inverse": ('{"vertices": ["a", "b"], "edges": [{"tails": ["a"], "heads": ["b"]}, '
                    '{"tails": ["b"], "heads": ["a"]}]}'),
    "bad-vertex": '{"vertices": ["a"], "edges": [{"tails": ["a"], "heads": ["z"]}]}',
    "bad-json": '{"vertices": ["a", "b"], "edges": [',
}


def cli_small_docs(seed: int, smoke: bool) -> Workload:
    """Many tiny documents through every subcommand: process start, import
    and parsing dominate, so compute-layer changes should read as no
    change here."""
    rng = _seeds("cli-small-docs", seed)
    docs = {name: make_doc(v, e, name) for name, (v, e) in BUILTINS.items()}
    for i in range(1 if smoke else 2):
        v = rng.randrange(3, 9)
        e = rng.randrange(max(2, v - 2), v + 2)
        docs[f"small-{i}"] = random_doc(v, e, rng.randrange(1 << 30), f"small-{i}")
    queries = []
    for name in docs:
        queries += [
            Query(["validate", f"@{name}", "--json"], "validate", name),
            Query(["homology", f"@{name}", "--ring", "int", "--json"], "homology", name),
            Query(["homology", f"@{name}", "--ring", "rat", "--json"], "homology", name),
            Query(["decompose", f"@{name}", "--ring", "int", "--json"], "decompose", name),
            Query(["decompose", f"@{name}", "--ring", "rat", "--json"], "decompose", name),
            Query(["graphlike", f"@{name}", "--json"], "graphlike", name),
            Query(
                ["spanning-tree", f"@{name}", "--ring", "rat", "--check-integral", "--json"],
                "tree-rat", name, {"check_integral": True},
            ),
            Query(["spanning-tree", f"@{name}", "--ring", "int", "--json"], "tree-int", name),
        ]
    docs.update(INVALID)
    for name in BUILTINS:
        queries.append(Query(["example", name], "example", None, {"name": name}))
    for _ in range(2):
        v, e, s = rng.randrange(3, 9), rng.randrange(2, 9), rng.randrange(1000)
        args = ["random", "--vertices", str(v), "--edges", str(e), "--seed", str(s)]
        queries.append(Query(args, "random", None, {"vertices": v, "edges": e, "seed": s}))
    queries += [
        Query(["validate", "@bad-inverse", "--json"], "invalid", "bad-inverse", {"violation": "inverse pair"}),
        Query(["homology", "@bad-vertex", "--json"], "exit", "bad-vertex", {"code": 1}),
        Query(["graphlike", "@bad-json", "--json"], "exit", "bad-json", {"code": 1}),
        Query(["homology", "@path-graph", "--ring", "complex"], "exit", "path-graph", {"code": 2}),
    ]
    warmup = Query(["example", "path-graph"], "example", None, {"name": "path-graph"})
    return Workload("cli-small-docs", docs, queries, warmup)


WORKLOADS = {
    "lattice-ladder": lattice_ladder,
    "tree-search": tree_search,
    "graph-families": graph_families,
    "cli-small-docs": cli_small_docs,
}
