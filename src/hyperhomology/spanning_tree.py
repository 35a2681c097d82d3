"""Algebraic spanning trees: rational construction, integrality, search.

A spanning tree here is an edge subset whose fundamental cuts form a basis
of the cut module and whose fundamental cycles form a basis of the cycle
module, each family with Kronecker coordinates on its own index set.  Over
the rationals one always exists; over the integers existence is decided by
exhausting the column bases of the boundary matrix.  Every tree, rational,
integer candidate or vector-space, is read off one reduced row echelon form:
pivot columns are the tree, nonzero rows the fundamental cuts, and the null
vectors of the free columns the fundamental cycles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .boundary import boundary, boundary_matrix
from .core import Chain, InternalInconsistencyError, OrientedHypergraph, Ring
from .exact_linalg import (
    ExactMatrix,
    _rref_tree,
    image_basis,
    image_rank,
    kernel_basis,
    smith_normal_form,
    solve_rational,
    sublattice_equal,
)


class SearchLimitExceeded(RuntimeError):
    """The integer-tree search ran out of budget before exhausting all
    candidate subsets; distinct from a completed search returning none."""

    def __init__(self, examined: int):
        self.examined = examined
        super().__init__(
            f"search limit reached after examining {examined} candidate subsets"
        )


@dataclass(frozen=True)
class SpanningTree:
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


def _spanning_tree(tree_edges, cuts, cycles) -> SpanningTree:
    """Wrap the vectors of :func:`_rref_tree` as rational chains."""
    return SpanningTree(
        tree_edges,
        {t: Chain.from_vector(1, v, Ring.RATIONAL) for t, v in cuts.items()},
        {e: Chain.from_vector(1, v, Ring.RATIONAL) for e, v in cycles.items()},
        Ring.RATIONAL,
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


@dataclass(frozen=True)
class TreeAxiomsReport:
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

    Kronecker patterns are read off coefficients; cycle membership applies
    the boundary; cut membership solves for a 0-cochain preimage over the
    tree's ring.  Over the rationals the span checks are rank counts; over
    the integers the cuts and cycles must generate the full cut and cycle
    lattices, which is checked by two-way lattice containment.
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

    transpose = boundary_matrix(hypergraph, ring).transpose()
    if ring is Ring.INTEGER:
        coboundary = smith_normal_form(transpose)
        cuts_are_cuts = all(
            coboundary.solve(cut.to_vector(m)) is not None
            for cut in tree.fundamental_cuts.values()
        )
    else:
        cuts_are_cuts = all(
            solve_rational(transpose, cut.to_vector(m)) is not None
            for cut in tree.fundamental_cuts.values()
        )

    rational_matrix = boundary_matrix(hypergraph, Ring.RATIONAL)
    boundary_rank = image_rank(rational_matrix)
    if ring is Ring.RATIONAL:

        def rank(chains) -> int:
            rows = [c.to_vector(m) for c in chains]
            return image_rank(ExactMatrix.from_rows(rows, Ring.RATIONAL, cols=m))

        cuts_span = rank(tree.fundamental_cuts.values()) == len(tree.tree_edges) == boundary_rank
        cycles_span = rank(tree.fundamental_cycles.values()) == len(chord_set) == m - boundary_rank
    else:
        integer_matrix = boundary_matrix(hypergraph, Ring.INTEGER)
        cut_vectors = [c.to_vector(m) for c in tree.fundamental_cuts.values()]
        cuts_span = sublattice_equal(
            cut_vectors, image_basis(integer_matrix.transpose(), Ring.INTEGER), m
        )
        cycle_vectors = [c.to_vector(m) for c in tree.fundamental_cycles.values()]
        cycles_span = sublattice_equal(
            cycle_vectors, kernel_basis(integer_matrix, Ring.INTEGER), m
        )

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


def _to_integer_tree(tree: SpanningTree) -> SpanningTree:
    return SpanningTree(
        tree.tree_edges,
        {t: c.with_ring(Ring.INTEGER) for t, c in tree.fundamental_cuts.items()},
        {e: c.with_ring(Ring.INTEGER) for e, c in tree.fundamental_cycles.items()},
        Ring.INTEGER,
    )


def find_spanning_tree_integer(
    hypergraph: OrientedHypergraph, search_limit: int = 1_000_000
) -> SpanningTree | None:
    """Exhaustive search for a spanning tree over the integers.

    Candidate subsets are the edge subsets whose boundaries form a column
    basis of the boundary matrix, visited in lexicographic order of edge
    indices; every size-``rank`` subset counts against ``search_limit``.
    Each candidate is read off the RREF of the boundary matrix with the
    subset's columns ordered first (they are a column basis exactly when
    they are the pivots), cross-checked against the axioms, and the first
    integral one is returned with integer coefficients.  Returns None when
    the enumeration completes without a hit; raises
    :class:`SearchLimitExceeded` when the budget runs out first.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    rank = image_rank(matrix)
    examined = 0
    for subset in itertools.combinations(range(m), rank):
        if examined >= search_limit:
            raise SearchLimitExceeded(examined)
        examined += 1
        order = subset + tuple(j for j in range(m) if j not in subset)
        tree_edges, cuts, cycles = _rref_tree(matrix.entries, m, order)
        if tree_edges != subset:
            continue
        candidate = _spanning_tree(tree_edges, cuts, cycles)
        if not verify_tree_axioms(hypergraph, candidate).ok:
            raise InternalInconsistencyError(
                "constructed candidate violates the spanning-tree axioms"
            )
        if is_integral(hypergraph, candidate):
            integral = _to_integer_tree(candidate)
            if not verify_tree_axioms(hypergraph, integral).ok:
                raise InternalInconsistencyError(
                    "integral candidate fails the integer spanning-tree axioms"
                )
            return integral
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
