"""Algebraic spanning trees: rational construction, integrality, search.

A spanning tree here is an edge subset whose fundamental cuts form a basis
of the cut module and whose fundamental cycles form a basis of the cycle
module, each family with Kronecker coordinates on its own index set.  Over
the rationals one always exists.  Over the integers a column basis T of
the boundary matrix B is a tree exactly when the columns B_T have every
elementary divisor 1: then each chord's boundary is an integer combination
of B_T and each unit vector on T an integer combination of the rows of
B_T, so every fundamental cycle and cut is integral.  The search tests
that criterion on each subset in turn and verifies only the tree it
returns.  Every tree, rational, integer or vector-space, is read off one
reduced row echelon form: pivot columns are the tree, nonzero rows the
fundamental cuts, and the null vectors of the free columns the
fundamental cycles.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .boundary import boundary, boundary_matrix
from .core import Chain, InternalInconsistencyError, OrientedHypergraph, Ring, _Record
from .exact_linalg import (
    ExactMatrix,
    _lattice_contains_all,
    _rref_tree,
    _transposed,
    image_rank,
    kernel_basis,
    smith_normal_form,
)


class SearchLimitExceeded(RuntimeError):
    """The integer-tree search ran out of budget before exhausting all
    candidate subsets; distinct from a completed search returning none."""

    def __init__(self, examined: int):
        self.examined = examined
        super().__init__(
            f"search limit reached after examining {examined} candidate subsets"
        )


class SpanningTree(_Record):
    """Tree edge set with its fundamental cuts and fundamental cycles.

    ``fundamental_cuts`` maps each tree edge index t to the cut chain x_t;
    ``fundamental_cycles`` maps each chord index e to the cycle chain x_e.
    """

    tree_edges: tuple[int, ...]
    fundamental_cuts: dict
    fundamental_cycles: dict
    ring: Ring

    @property
    def chords(self) -> tuple[int, ...]:
        return tuple(sorted(self.fundamental_cycles))


def _spanning_tree(tree_edges, cuts, cycles, ring: Ring = Ring.RATIONAL) -> SpanningTree:
    """Wrap the vectors of :func:`_rref_tree` as chains over ``ring``."""
    return SpanningTree(
        tree_edges,
        {t: Chain.from_vector(1, v, ring) for t, v in cuts.items()},
        {e: Chain.from_vector(1, v, ring) for e, v in cycles.items()},
        ring,
    )


def find_spanning_tree_rational(hypergraph: OrientedHypergraph) -> SpanningTree:
    """Greedy spanning tree over the rationals; always succeeds.

    The tree is the set of pivot columns of the RREF of the boundary
    matrix: each edge whose boundary is linearly independent of the
    boundaries of the edges before it, so the result is deterministic for a
    given edge ordering.  The nonzero RREF rows are the fundamental cuts and
    the null vectors of the free columns are the fundamental cycles.
    """
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    return _spanning_tree(*_rref_tree(matrix.entries, hypergraph.edge_count))


class TreeAxiomsReport(_Record):
    """Outcome of each independent spanning-tree axiom sub-check."""

    cut_kronecker: bool
    cycle_kronecker: bool
    cycles_are_cycles: bool
    cuts_are_cuts: bool
    counts_consistent: bool
    cuts_span: bool
    cycles_span: bool

    @property
    def ok(self) -> bool:
        return all(
            (
                self.cut_kronecker,
                self.cycle_kronecker,
                self.cycles_are_cycles,
                self.cuts_are_cuts,
                self.counts_consistent,
                self.cuts_span,
                self.cycles_span,
            )
        )


def verify_tree_axioms(hypergraph: OrientedHypergraph, tree: SpanningTree) -> TreeAxiomsReport:
    """Re-check both spanning-tree axioms from scratch.

    Kronecker patterns are read off coefficients and cycle membership
    applies the boundary.  Over the rationals the cuts lie in the row space
    of B exactly when stacking them under the rows of B leaves the rank of
    B unchanged, and the span checks are rank counts: one elimination each.
    Over the integers everything is read off one Smith normal form
    U B V = S with divisors d_i, i < r: cut membership solves against the
    transposed factorization of B^T; the cut lattice is generated by d_i
    times row i of V^-1 and the cycle lattice by columns r.. of V, whose
    members are the vectors that rows < r of V^-1 kill.  Each span check is
    two-way containment, so it factors only the family itself: at most
    three Smith forms per call.
    """
    m = hypergraph.edge_count
    ring = tree.ring
    tree_set = set(tree.tree_edges)
    chord_set = set(tree.fundamental_cycles)
    counts_consistent = (
        len(tree.tree_edges) == len(tree_set)
        and tree_set.isdisjoint(chord_set)
        and tree_set | chord_set == set(range(m))
        and set(tree.fundamental_cuts) == tree_set
    )

    cut_kronecker = all(
        tree.fundamental_cuts[t].coefficient(t2) == (ring.one if t2 == t else ring.zero)
        for t in tree.tree_edges
        for t2 in tree.tree_edges
    )
    cycle_kronecker = all(
        tree.fundamental_cycles[e].coefficient(e2) == (ring.one if e2 == e else ring.zero)
        for e in tree.fundamental_cycles
        for e2 in tree.fundamental_cycles
    )
    cycles_are_cycles = all(
        boundary(hypergraph, cycle).is_zero() for cycle in tree.fundamental_cycles.values()
    )

    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    cut_vectors = [c.to_vector(m) for c in tree.fundamental_cuts.values()]
    cycle_vectors = [c.to_vector(m) for c in tree.fundamental_cycles.values()]
    if ring is Ring.RATIONAL:

        def rank(rows) -> int:
            return image_rank(ExactMatrix.from_rows(rows, Ring.RATIONAL, cols=m))

        boundary_rank = image_rank(matrix)
        cuts_are_cuts = rank([*matrix.entries, *cut_vectors]) == boundary_rank
        cuts_span = rank(cut_vectors) == len(tree.tree_edges) == boundary_rank
        cycles_span = rank(cycle_vectors) == len(chord_set) == m - boundary_rank
    else:
        decomposition = smith_normal_form(matrix)
        r = decomposition.rank
        coboundary = _transposed(decomposition)
        cuts_are_cuts = all(coboundary.solve(v) is not None for v in cut_vectors)
        cut_lattice = [
            [d * x for x in decomposition.v_inverse.row(i)]
            for i, d in enumerate(decomposition.diagonal)
        ]
        cycle_lattice = [decomposition.v.column(j) for j in range(r, m)]
        cuts_span = cuts_are_cuts and _lattice_contains_all(cut_vectors, cut_lattice, m)
        cycles_span = all(
            not any(decomposition.v_inverse.apply(v)[:r]) for v in cycle_vectors
        ) and _lattice_contains_all(cycle_vectors, cycle_lattice, m)

    return TreeAxiomsReport(
        cut_kronecker=cut_kronecker,
        cycle_kronecker=cycle_kronecker,
        cycles_are_cycles=cycles_are_cycles,
        cuts_are_cuts=cuts_are_cuts,
        counts_consistent=counts_consistent,
        cuts_span=cuts_span,
        cycles_span=cycles_span,
    )


def is_integral(hypergraph: OrientedHypergraph, tree: SpanningTree) -> bool:
    """Whether a rational tree is integral: every fundamental cycle has
    integer coefficients and every cut cochain is the coboundary of an
    integer 0-cochain."""
    chains = [*tree.fundamental_cycles.values(), *tree.fundamental_cuts.values()]
    if any(Fraction(v).denominator != 1 for c in chains for v in c.coefficients.values()):
        return False
    coboundary = smith_normal_form(boundary_matrix(hypergraph, Ring.INTEGER).transpose())
    m = hypergraph.edge_count
    return all(
        coboundary.solve([int(Fraction(v)) for v in cut.to_vector(m)]) is not None
        for cut in tree.fundamental_cuts.values()
    )


def find_spanning_tree_integer(
    hypergraph: OrientedHypergraph, search_limit: int = 1_000_000
) -> SpanningTree | None:
    """Exhaustive search for a spanning tree over the integers.

    Candidate subsets are the size-``rank`` edge subsets, visited in
    lexicographic order of edge indices; each counts against
    ``search_limit``.  A subset is accepted iff its boundary columns have
    Smith diagonal ``(1,) * rank``, which also requires them to be a column
    basis; the fundamental cuts and cycles are then all integral.  Only the
    accepted subset is built, read off the RREF of the boundary matrix with
    its columns ordered first, and verified once against the integer axioms.
    Returns None when the enumeration completes without a hit; raises
    :class:`SearchLimitExceeded` when the budget runs out first.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    columns = matrix.columns()
    rank = image_rank(matrix)
    examined = 0
    for subset in itertools.combinations(range(m), rank):
        if examined >= search_limit:
            raise SearchLimitExceeded(examined)
        examined += 1
        basis = ExactMatrix.from_columns(
            [columns[j] for j in subset], Ring.INTEGER, rows=matrix.rows
        )
        if smith_normal_form(basis).diagonal != (1,) * rank:
            continue
        order = subset + tuple(j for j in range(m) if j not in subset)
        try:
            tree = _spanning_tree(*_rref_tree(matrix.entries, m, order), Ring.INTEGER)
        except ValueError as err:
            raise InternalInconsistencyError(f"fractional integer tree: {err}") from err
        if not verify_tree_axioms(hypergraph, tree).ok:
            raise InternalInconsistencyError("integer tree fails the spanning-tree axioms")
        return tree
    return None


def vector_space_spanning_tree(ambient_dim: int, subspace_generators):
    """Spanning tree of rational coordinate space with respect to a subspace.

    Returns ``(tree_positions, cuts, cycles)`` where the cycles are a basis
    of the subspace with Kronecker coordinates on the non-tree positions and
    the cuts are a basis of the orthogonal complement with Kronecker
    coordinates on the tree positions.  This runs the same construction as
    the hypergraph case, on a matrix whose kernel is the subspace (its rows
    span the orthogonal complement) in place of the boundary matrix.
    """
    rows = [[Fraction(x) for x in generator] for generator in subspace_generators]
    if any(len(row) != ambient_dim for row in rows):
        raise ValueError("generator length does not match ambient dimension")
    generators = ExactMatrix.from_rows(rows, Ring.RATIONAL, cols=ambient_dim)
    return _rref_tree(kernel_basis(generators, Ring.RATIONAL), ambient_dim)
