"""Built-in example hypergraphs and the seeded random instance generator."""

from __future__ import annotations

from .core import OrientedHypergraph


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


def _draw(rng: random.Random, pool: list, count: int) -> list:
    """Remove ``count`` uniformly chosen elements from ``pool``.

    Implemented with plain ``randrange`` pops so the stream of draws is
    identical across platforms and Python versions for a fixed seed.
    """
    chosen = []
    for _ in range(count):
        chosen.append(pool.pop(rng.randrange(len(pool))))
    return chosen


def random_hypergraph(
    vertex_count: int,
    edge_count: int,
    seed: int,
    max_arity: int = 3,
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
    """
    counts = {"vertex count": vertex_count, "edge count": edge_count, "max arity": max_arity}
    for label, value in counts.items():
        if value < 0:
            raise ValueError(f"{label} must not be negative, got {value}")
    if edge_count and not allow_empty_edges and (vertex_count == 0 or max_arity == 0):
        raise ValueError("no nonempty edge can be drawn with these parameters")
    import random

    rng = random.Random(seed)
    vertices = [f"v{i + 1}" for i in range(vertex_count)]
    edges: list[tuple[frozenset, frozenset]] = []
    drawn = set()
    for _ in range(edge_count):
        for _attempt in range(10_000):
            tail_arity = rng.randrange(max_arity + 1)
            head_arity = rng.randrange(max_arity + 1)
            if tail_arity == 0 and head_arity == 0 and not allow_empty_edges:
                continue
            if tail_arity + head_arity > vertex_count:
                continue
            pool = list(vertices)
            tails = frozenset(_draw(rng, pool, tail_arity))
            heads = frozenset(_draw(rng, pool, head_arity))
            if (heads, tails) in drawn:
                continue
            edges.append((tails, heads))
            drawn.add((tails, heads))
            break
        else:
            raise ValueError(
                f"edge resampling did not converge: all 10000 draws for edge {len(edges)} were rejected"
            )
    return OrientedHypergraph(vertices, edges)
