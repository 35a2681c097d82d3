"""The boundary/coboundary calculus on oriented hypergraphs.

The boundary of an edge is the formal sum of its heads minus its tails; the
coboundary of a 0-cochain evaluates each edge through the boundary.  Both
are realized directly from the definitions.  The boundary matrix B, from
which every homology, graph-likeness, decomposition and spanning-tree
report is read, is built as sparse rows, one ``{edge: +-1}`` dict per
vertex.
"""

from .core import Chain, Cochain, OrientedHypergraph, Ring, _dot, _require_ring, chain_to_cochain
from .exact_linalg import ExactMatrix


def boundary(hypergraph: OrientedHypergraph, x: Chain) -> Chain:
    """Boundary of a 1-chain: linear extension of heads-minus-tails."""
    if x.dimension != 1:
        raise ValueError("boundary expects a 1-chain")
    index = hypergraph.vertex_index
    coefficients: dict[int, object] = {}
    for j, value in x.coefficients.items():
        if j >= hypergraph.edge_count:
            raise IndexError(f"edge index {j} out of range")
        tails, heads = hypergraph.edges[j]
        for vertex in heads:
            i = index[vertex]
            coefficients[i] = coefficients.get(i, 0) + value
        for vertex in tails:
            i = index[vertex]
            coefficients[i] = coefficients.get(i, 0) - value
    return Chain(0, coefficients, x.ring)


def coboundary(hypergraph: OrientedHypergraph, phi: Cochain) -> Cochain:
    """Coboundary of a 0-cochain: the 1-cochain sending each edge to the
    value of ``phi`` on that edge's boundary."""
    if phi.dimension != 0:
        raise ValueError("coboundary expects a 0-cochain")
    if phi.coefficients and max(phi.coefficients) >= hypergraph.vertex_count:
        raise IndexError("vertex index out of range")
    index = hypergraph.vertex_index
    values: dict[int, object] = {}
    for j in range(hypergraph.edge_count):
        tails, heads = hypergraph.edges[j]
        total = 0
        for vertex in heads:
            total += phi.coefficient(index[vertex])
        for vertex in tails:
            total -= phi.coefficient(index[vertex])
        if total:
            values[j] = total
    return Cochain(1, values, phi.ring)


def boundary_matrix(hypergraph: OrientedHypergraph, ring: Ring) -> ExactMatrix:
    """Vertex-by-edge matrix of the boundary map.

    Entry (v, e) is +1 when v is a head of e, -1 when v is a tail, else 0;
    rows follow vertex order, columns follow edge order.  The transpose
    represents the coboundary map on coefficient vectors.  The rows are
    filled directly, in O(total arity).  A ``ring`` that is not a
    :class:`Ring` raises ``TypeError``.
    """
    _require_ring(ring)
    index = hypergraph.vertex_index
    lines: list[dict] = [{} for _ in range(hypergraph.vertex_count)]
    for j, (tails, heads) in enumerate(hypergraph.edges):
        for vertex in heads:
            lines[index[vertex]][j] = 1
        for vertex in tails:
            lines[index[vertex]][j] = -1
    return ExactMatrix._of(lines, hypergraph.edge_count, ring)


def canonical_inner_product(x, y):
    """Coefficient-wise dot product over the common basis, in the
    canonical form of the ring."""
    if type(x) is not type(y):
        raise TypeError("inner product requires two chains or two cochains")
    if x.dimension != y.dimension:
        raise ValueError("dimension mismatch")
    if x.ring is not y.ring:
        raise ValueError("ring mismatch")
    return _dot(x, y)


def boundary_inner_product(hypergraph: OrientedHypergraph, x: Chain, y: Chain):
    """Pairing of two 1-chains through their boundaries.

    Computed as the dot product of the two boundary coefficient vectors,
    which agrees with evaluating ``boundary_functional(x)`` on ``y``.
    The two boundaries keep the rings of ``x`` and ``y``, so
    ``canonical_inner_product`` refuses a ring mismatch.
    """
    return canonical_inner_product(boundary(hypergraph, x), boundary(hypergraph, y))


def boundary_functional(hypergraph: OrientedHypergraph, x: Chain) -> Cochain:
    """The 1-cochain that pairs any 1-chain with ``x`` through boundaries:
    the coboundary of the dualized boundary of ``x``."""
    return coboundary(hypergraph, chain_to_cochain(boundary(hypergraph, x)))
