"""Built-in example hypergraphs and the seeded random instance generator."""

from .core import OrientedHypergraph

# ``random_hypergraph``'s default max arity, which the CLI's ``--max-arity``
# reads too, and the draws it makes for one edge before it gives up
_MAX_ARITY = 3
_DRAWS_PER_EDGE = 10_000


def main_example() -> OrientedHypergraph:
    """Three vertices, three edges, each pointing from two vertices to the
    third: injective boundary yet no spanning tree over the integers."""
    return OrientedHypergraph(
        ["v1", "v2", "v3"],
        [
            ({"v2", "v3"}, {"v1"}),
            ({"v1", "v3"}, {"v2"}),
            ({"v1", "v2"}, {"v3"}),
        ],
    )


def parallel_edges() -> OrientedHypergraph:
    """Two vertices joined by two parallel edges."""
    return OrientedHypergraph(["u", "v"], [({"u"}, {"v"}), ({"u"}, {"v"})])


def triangle_graph() -> OrientedHypergraph:
    """Directed triangle: u to v, v to w, u to w."""
    return OrientedHypergraph(
        ["u", "v", "w"],
        [({"u"}, {"v"}), ({"v"}, {"w"}), ({"u"}, {"w"})],
    )


def path_graph() -> OrientedHypergraph:
    """Directed path on three vertices."""
    return OrientedHypergraph(["u", "v", "w"], [({"u"}, {"v"}), ({"v"}, {"w"})])


BUILTIN_EXAMPLES = {
    "main-example": main_example,
    "parallel-edges": parallel_edges,
    "triangle-graph": triangle_graph,
    "path-graph": path_graph,
}


def random_hypergraph(
    vertex_count: int,
    edge_count: int,
    seed: int,
    max_arity: int = _MAX_ARITY,
    allow_empty_edges: bool = False,
) -> OrientedHypergraph:
    """Deterministic pseudo-random oriented hypergraph.

    Each edge draws tail and head arities uniformly from [0, max_arity],
    excluding the doubly-empty pair unless ``allow_empty_edges`` is set,
    then samples disjoint vertex sets of those sizes.  Candidates that are
    inverse to an existing edge are resampled, so the result always passes
    validation.  Negative counts, and parameters under which 10000 draws in
    a row yield no acceptable edge (say, a max arity far above the vertex
    count), raise ``ValueError``.

    Draw i of an edge, over its tails and then its heads, is
    ``randrange(vertex_count - i)`` and picks the vertex of that rank
    among those not yet taken, in vertex order; plain ``randrange`` keeps
    the stream of draws identical across platforms and Python versions for
    a fixed seed.  A draw steps over the indices already taken, never
    copying the vertex list, so the cost is linear in the vertex count
    plus, for each candidate edge, quadratic in its arity: about edges x
    arity squared when few candidates are resampled.
    """
    counts = {"vertex count": vertex_count, "edge count": edge_count, "max arity": max_arity}
    for label, value in counts.items():
        if value < 0:
            raise ValueError(f"{label} must not be negative, got {value}")
    if edge_count and not allow_empty_edges and (vertex_count == 0 or max_arity == 0):
        raise ValueError("no nonempty edge can be drawn with these parameters")
    import random
    from bisect import insort

    rng = random.Random(seed)
    vertices = [f"v{i + 1}" for i in range(vertex_count)]
    edges: list[tuple[frozenset, frozenset]] = []
    drawn = set()
    for _ in range(edge_count):
        for _attempt in range(_DRAWS_PER_EDGE):
            tail_arity = rng.randrange(max_arity + 1)
            head_arity = rng.randrange(max_arity + 1)
            if tail_arity == 0 and head_arity == 0 and not allow_empty_edges:
                continue
            if tail_arity + head_arity > vertex_count:
                continue
            picks, taken = [], []
            for _ in range(tail_arity + head_arity):
                # the drawn number counts the untaken indices in ascending
                # order; step over each taken one at or below it
                index = rng.randrange(vertex_count - len(taken))
                for t in taken:
                    if t <= index:
                        index += 1
                insort(taken, index)
                picks.append(vertices[index])
            tails, heads = frozenset(picks[:tail_arity]), frozenset(picks[tail_arity:])
            if (heads, tails) in drawn:
                continue
            edges.append((tails, heads))
            drawn.add((tails, heads))
            break
        else:
            raise ValueError(
                f"edge resampling did not converge: all {_DRAWS_PER_EDGE} draws"
                f" for edge {len(edges)} were rejected"
            )
    return OrientedHypergraph(vertices, edges)
