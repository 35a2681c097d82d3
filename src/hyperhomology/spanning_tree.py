"""Algebraic spanning trees: rational construction, integrality, search.

A spanning tree here is an edge subset whose fundamental cuts form a basis
of the cut module and whose fundamental cycles form a basis of the cycle
module, each family with Kronecker coordinates on its own index set.  Over
the rationals one always exists.  Over the integers a column basis T of
the boundary matrix B is a tree exactly when the columns B_T have every
elementary divisor 1: then each chord's boundary is an integer combination
of B_T and each unit vector on T an integer combination of the rows of
B_T, so every fundamental cycle and cut is integral.  Every subset of such
a basis has the same property, so the search walks prefixes of edges in
index order, extends a prefix only while it keeps the property, tests
each new column in ints against the prefix's log of row operations, and
verifies only the tree it returns.  Every tree, rational, integer or
vector-space, is read off one reduced row echelon form: pivot columns are
the tree, nonzero rows the fundamental cuts, and the null vectors of the
free columns the fundamental cycles; an integer tree is read in ints.
"""

from __future__ import annotations

from math import gcd

from .boundary import boundary, boundary_matrix
from .core import Chain, InternalInconsistencyError, OrientedHypergraph, Ring, _Record
from .exact_linalg import (
    _dense,
    _integer_echelon,
    _is_coboundary,
    _lattice_contains_all,
    _replay,
    _rref_tree,
    _unit_steps,
    image_rank,
    smith_normal_form,
)


class SearchLimitExceeded(RuntimeError):
    """The integer-tree search ran out of budget before its walk over
    prefixes ended; distinct from a completed search returning none.
    ``examined`` is the number of prefixes tested."""

    def __init__(self, examined: int):
        self.examined = examined
        super().__init__(f"search limit reached after testing {examined} prefixes")


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
    """Wrap the ``{index: value}`` vectors of :func:`_rref_tree`, read
    over ``ring``, as chains over ``ring``."""
    return SpanningTree(
        tree_edges,
        {t: Chain._of(1, v, ring) for t, v in cuts.items()},
        {e: Chain._of(1, v, ring) for e, v in cycles.items()},
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
    return _spanning_tree(*_rref_tree(matrix.lines, hypergraph.edge_count))


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

    A cut's Kronecker pattern is its restriction to the tree edges, which
    must be 1 at its own edge and nothing else; a cycle's is its
    restriction to the chords.  Each costs one pass over the chain's
    nonzeros.  Cycle membership applies the boundary.  Over the rationals
    the cuts lie in the row space of B exactly when stacking them under the
    rows of B leaves the rank of B unchanged, and the span checks are rank
    counts: one sparse elimination each, of the rows of B and of the
    chains' coefficient dicts.
    Over the integers everything is read off one Smith normal form
    U B V = S with divisors d_i, i < r: a cut c is a coboundary iff V^T c
    vanishes from the rank on and its entry i is divisible by d_i below it;
    the cut lattice is generated by d_i times row i of V^-1 and the cycle
    lattice by columns r.. of V.  Each span check is two-way containment:
    the family lies in its lattice (cuts are cuts, cycles are cycles) and
    the lattice's generators lie in the family's span, which factors only
    the family itself, its chains as the rows: at most three Smith forms
    per call, all on sparse rows.
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

    def restriction(chain: Chain, indices: set) -> dict:
        return {j: x for j, x in chain.coefficients.items() if j in indices}

    cut_kronecker = all(
        restriction(tree.fundamental_cuts[t], tree_set) == {t: 1} for t in tree.tree_edges
    )
    cycle_kronecker = all(
        restriction(cycle, chord_set) == {e: 1}
        for e, cycle in tree.fundamental_cycles.items()
    )
    cycles_are_cycles = all(
        boundary(hypergraph, cycle).is_zero() for cycle in tree.fundamental_cycles.values()
    )

    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    cut_rows = [c.coefficients for c in tree.fundamental_cuts.values()]
    cycle_rows = [c.coefficients for c in tree.fundamental_cycles.values()]
    if ring is Ring.RATIONAL:

        def rank(rows) -> int:
            return len(_integer_echelon(rows, m)[1])

        boundary_rank = rank(matrix.lines)
        cuts_are_cuts = rank([*matrix.lines, *cut_rows]) == boundary_rank
        cuts_span = rank(cut_rows) == len(tree.tree_edges) == boundary_rank
        cycles_span = rank(cycle_rows) == len(chord_set) == m - boundary_rank
    else:
        decomposition = smith_normal_form(matrix)
        cuts_are_cuts = all(_is_coboundary(decomposition, c) for c in cut_rows)
        cut_lattice = [
            {j: d * x for j, x in decomposition.v_inverse.lines[i].items()}
            for i, d in enumerate(decomposition.diagonal)
        ]
        cycle_lattice = decomposition.v.transpose().lines[decomposition.rank :]
        cuts_span = cuts_are_cuts and _lattice_contains_all(cut_rows, cut_lattice, m)
        cycles_span = cycles_are_cycles and _lattice_contains_all(cycle_rows, cycle_lattice, m)

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
    integer 0-cochain, which one Smith form of the boundary matrix decides
    for all cuts, reading one row of V per nonzero of a cut."""
    chains = [*tree.fundamental_cycles.values(), *tree.fundamental_cuts.values()]
    if any(x.denominator != 1 for c in chains for x in c.coefficients.values()):
        return False
    decomposition = smith_normal_form(boundary_matrix(hypergraph, Ring.INTEGER))
    return all(
        _is_coboundary(decomposition, {j: x.numerator for j, x in cut.coefficients.items()})
        for cut in tree.fundamental_cuts.values()
    )


def find_spanning_tree_integer(
    hypergraph: OrientedHypergraph, search_limit: int = 1_000_000
) -> SpanningTree | None:
    """Search for a spanning tree over the integers: the first, in
    lexicographic order of edge indices, of the size-``rank`` edge subsets
    whose boundary columns have every elementary divisor 1.

    Every subset of such a basis has that property too, so the search is a
    depth-first walk over prefixes, edges in index order, that extends a
    prefix only while its columns stay independent and saturated, and
    backtracks once too few edges remain to reach the rank.  It visits the
    surviving subsets in lexicographic order and returns the same first
    basis as testing every subset in turn.  A prefix of depth k carries a
    log of unimodular row operations taking its columns to the first k unit
    vectors.  A new column, reduced against the log, extends the prefix
    exactly when its residual on rows k.. is primitive (gcd 1); then the
    Euclid steps that take the residual to the unit vector at row k are
    appended to the log, and replaying them on the column must give that
    unit vector from row k down, or :class:`InternalInconsistencyError` is
    raised.  Backtracking truncates the log.  Each column tested counts
    against ``search_limit``.  The accepted tree is read off the integer
    RREF of the boundary matrix with its columns ordered first and verified
    once against the integer axioms.
    Returns None when the walk completes without a hit; raises
    :class:`SearchLimitExceeded` when the budget runs out first.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    columns = matrix.transpose().lines
    rank = image_rank(matrix)
    prefix: list[int] = []
    marks: list[int] = []  # length of the log before each prefix edge's steps
    log: list[tuple[int, int, int]] = []
    examined = 0
    j = 0
    while len(prefix) < rank:
        depth = len(prefix)
        if m - j < rank - depth:
            if not prefix:
                return None
            j = prefix.pop() + 1
            del log[marks.pop() :]
            continue
        if examined >= search_limit:
            raise SearchLimitExceeded(examined)
        examined += 1
        reduced = _replay(log, columns[j])
        residual = {i: x for i, x in reduced.items() if i >= depth}
        if gcd(*residual.values()) == 1:
            steps = _unit_steps(residual, depth)
            unit = {i: x for i, x in _replay(steps, reduced).items() if i >= depth}
            if unit != {depth: 1}:
                raise InternalInconsistencyError(
                    f"row operations do not take edge {j} to a unit vector"
                )
            marks.append(len(log))
            log += steps
            prefix.append(j)
        j += 1
    chosen = set(prefix)
    order = prefix + [e for e in range(m) if e not in chosen]
    tree = _spanning_tree(*_rref_tree(matrix.lines, m, order, Ring.INTEGER), Ring.INTEGER)
    if not verify_tree_axioms(hypergraph, tree).ok:
        raise InternalInconsistencyError("integer tree fails the spanning-tree axioms")
    return tree


def vector_space_spanning_tree(ambient_dim: int, subspace_generators):
    """Spanning tree of rational coordinate space with respect to a subspace.

    Returns ``(tree_positions, cuts, cycles)`` where the cycles are a basis
    of the subspace with Kronecker coordinates on the non-tree positions and
    the cuts are a basis of the orthogonal complement with Kronecker
    coordinates on the tree positions.  This runs the same construction as
    the hypergraph case, on a matrix whose kernel is the subspace (its rows
    span the orthogonal complement) in place of the boundary matrix.
    Entries are ints or Fractions; anything else raises ``TypeError``.
    """
    rows = [[Ring.RATIONAL.coerce(x) for x in generator] for generator in subspace_generators]
    if any(len(row) != ambient_dim for row in rows):
        raise ValueError("generator length does not match ambient dimension")
    _, _, kernel = _rref_tree([dict(enumerate(row)) for row in rows], ambient_dim)
    tree, cuts, cycles = _rref_tree(list(kernel.values()), ambient_dim)
    return (
        tree,
        {t: _dense(cut, ambient_dim) for t, cut in cuts.items()},
        {e: _dense(cycle, ambient_dim) for e, cycle in cycles.items()},
    )
