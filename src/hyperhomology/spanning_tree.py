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
verifies only the tree it returns.  Such a tree T makes im B = im B_T
saturated, so a hypergraph with an elementary divisor above 1 (one that
is not graph-like) has none, and the search returns before walking.

Integer questions read the one Smith form U B V = S of B the hypergraph
keeps (``_smith_form``), rational ones the one rational tree of B.  The
search's rank, divisors and columns come from the Smith form: with every
divisor 1, U B = [W; 0] for W the first r rows of V^-1, so the search
walks W's columns, not B's, and reads its tree off W; V^-1 is built with
the Smith form, so the walk builds no factor.  Verification in both
rings and the integrality test read the Smith form too, through V, which
their first coboundary test builds from the column log.  Cut membership
is the graded test ``exact_linalg._grade``: a cut grades 0 when it is an
integer coboundary, 1 when it is only a rational one and 2 when it is
neither, so an integer tree's cuts must grade 0, a rational tree's at
most 1, and an integral tree's 0.  By the tree lemma a family with its
Kronecker pattern spans its module once it lies in it and has the right
size.  The rational tree is read off one reduced
row echelon form (RREF) of B: pivot columns are the tree, nonzero rows
the fundamental cuts, and the null vectors of the free columns the
fundamental cycles.  The vector-space tree is read off one RREF of the
generators with their columns reversed, with the roles swapped by
matroid duality: pivots are the non-tree positions, rows the cycles and
null vectors the cuts.  The rational tree is the greedy one of B, and
its fundamental cycles and cuts are the rational bases of ``homology``
and ``cycle_cut_decomposition``.  The integer tree is read
off the walk's own log of row operations, in ints: the log takes the
tree's columns of W to an upper unitriangular block, a back substitution
appended after the walk takes that block to the identity, so the log
applied to W's rows gives the fundamental cuts, and the cycles come from
the cuts as they do from an RREF.
"""

from __future__ import annotations

from math import gcd, prod

from .boundary import boundary, boundary_matrix
from .core import Chain, InternalInconsistencyError, OrientedHypergraph, Ring, _Record
from .core import _require_ring
from .exact_linalg import (
    ExactMatrix,
    _apply,
    _dense,
    _fundamental_cycles,
    _grade,
    _integer_row,
    _replay,
    _rref_tree,
    _unit_steps,
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
    """Wrap the ``{index: value}`` cut and cycle vectors of a tree read
    over ``ring`` as chains over ``ring``."""
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
        """Whether every sub-check, every field, holds."""
        return all(self._values())


def _check_edge_indices(chains, m: int) -> None:
    """Raise the ``IndexError`` of :func:`boundary` for the first index of
    ``chains`` that names no edge."""
    for j in (j for chain in chains for j in chain.coefficients if j >= m):
        raise IndexError(f"edge index {j} out of range")


def verify_tree_axioms(hypergraph: OrientedHypergraph, tree: SpanningTree) -> TreeAxiomsReport:
    """Re-check both spanning-tree axioms from scratch.

    A cut's Kronecker pattern is its restriction to the tree edges, which
    must be 1 at its own edge and nothing else (a tree edge without a cut
    has none); a cycle's is its restriction to the chords: one pass over
    each chain's nonzeros.  Cycle membership applies the boundary.  The
    rest is read off the hypergraph's Smith form U B V = S with divisors
    d_i, i < r, in both rings: a cut c lies in the row lattice of B iff it
    grades 0 under ``_grade``, and (over the rationals scaled to an integer
    multiple) in the row space iff it grades at most 1.  A family with its
    Kronecker pattern (cuts keyed by the tree edges) has an identity minor:
    its rank is its size and the product of its elementary divisors is 1.
    Only a family without it, which only a corrupt tree has, is factored,
    by a Smith form in both rings, its rows first scaled to integer
    multiples.  Over the rationals a family spans when its rank and size
    are r (cuts) or m - r (cycles); over the integers a family inside a
    lattice spans it iff the ranks and the products of the divisors (the
    index in the saturation) agree: (r, d_1 ... d_r) for cuts, (m - r, 1)
    for cycles, whose coefficients must also all be integers.  A tree the
    finders build costs no factorization beyond the hypergraph's one.  A
    tree whose ``ring`` is not a :class:`Ring` raises ``TypeError``.
    """
    _require_ring(tree.ring)
    m = hypergraph.edge_count
    cuts, cycles = tree.fundamental_cuts, tree.fundamental_cycles
    _check_edge_indices([*cycles.values(), *cuts.values()], m)
    integer = tree.ring is Ring.INTEGER
    tree_set = set(tree.tree_edges)
    chord_set = set(cycles)
    counts_consistent = (
        len(tree.tree_edges) == len(tree_set)
        and tree_set.isdisjoint(chord_set)
        and tree_set | chord_set == set(range(m))
        and set(cuts) == tree_set
    )

    def restriction(chain: Chain, indices: set) -> dict:
        return {j: x for j, x in chain.coefficients.items() if j in indices}

    cut_kronecker = all(
        t in cuts and restriction(cuts[t], tree_set) == {t: 1} for t in tree.tree_edges
    )
    cycle_kronecker = all(restriction(x, chord_set) == {e: 1} for e, x in cycles.items())
    cycles_are_cycles = all(boundary(hypergraph, cycle).is_zero() for cycle in cycles.values())

    decomposition = hypergraph._smith_form
    r = decomposition.rank

    def integer_rows(family: dict) -> list:
        return [c.coefficients if integer else _integer_row(c.coefficients) for c in family.values()]

    cut_rows = integer_rows(cuts)
    # an integer coboundary grades 0, a rational one at most 1
    cuts_are_cuts = all(_grade(decomposition, c) <= (0 if integer else 1) for c in cut_rows)

    def rank_and_index(rows: list, pattern: bool) -> tuple[int, int]:
        if pattern:
            return len(rows), 1
        divisors = smith_normal_form(ExactMatrix._of(map(_integer_row, rows), m)).diagonal
        return len(divisors), prod(divisors)

    cut_rank, cut_index = rank_and_index(cut_rows, cut_kronecker and set(cuts) == tree_set)
    cycle_rows = integer_rows(cycles)
    cycle_rank, cycle_index = rank_and_index(cycle_rows, cycle_kronecker)
    if integer:
        cuts_span = cuts_are_cuts and (cut_rank, cut_index) == (r, prod(decomposition.diagonal))
        integral = all(x.denominator == 1 for row in cycle_rows for x in row.values())
        cycles_span = cycles_are_cycles and integral and (cycle_rank, cycle_index) == (m - r, 1)
    else:
        cuts_span = cut_rank == len(tree.tree_edges) == r
        cycles_span = cycle_rank == len(chord_set) == m - r
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
    integer 0-cochain, which the hypergraph's Smith form of the boundary
    matrix decides for all cuts, reading one row of V per nonzero of a cut."""
    chains = [*tree.fundamental_cycles.values(), *tree.fundamental_cuts.values()]
    _check_edge_indices(chains, hypergraph.edge_count)
    if any(x.denominator != 1 for c in chains for x in c.coefficients.values()):
        return False
    decomposition = hypergraph._smith_form
    # a canonical chain without a denominator holds ints
    return all(_grade(decomposition, c.coefficients) == 0 for c in tree.fundamental_cuts.values())


def find_spanning_tree_integer(
    hypergraph: OrientedHypergraph, search_limit: int = 1_000_000
) -> SpanningTree | None:
    """Search for a spanning tree over the integers: the first, in
    lexicographic order of edge indices, of the size-``rank`` edge subsets
    whose boundary columns have every elementary divisor 1.

    Such a tree T makes im B = im B_T saturated, so unless every
    elementary divisor of B is 1 there is none, and the search returns
    None before testing any prefix, whatever ``search_limit``.  The rank
    and the divisors are read off the hypergraph's Smith form U B V = S,
    which the verification of the tree found reads too.

    The walk reads the columns of W, the first r rows of V^-1, not those
    of B.  With every divisor 1, U B = S V^-1 = [W; 0], and U is
    unimodular, so a set of columns of B is independent and saturated
    exactly when the same columns of W are: every prefix gets the same
    answer, the walk tests the same prefixes (``search_limit`` counts the
    same) and ends at the same tree.  W and B have the same row space
    over the rationals, so the cuts and cycles read off W are B's.

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
    against ``search_limit``.

    Later steps touch only rows below the earlier prefix edges' unit rows,
    so at the end the log L takes the tree's columns W_T to an upper
    unitriangular T = L W_T, whose column k is prefix edge k's column as
    its own steps left it.  A back substitution, ``(i, k, -T[i, k])`` for
    each i < k with k from the last tree edge down, appended to the log,
    takes T to the identity.  The whole log is unimodular, so applied to
    W's rows it gives integer rows with the row space of W and 1 at one
    tree edge and 0 at the others each: row k is the fundamental cut of
    prefix edge k, and the same cut the RREF of W with the tree's columns
    first gives.  The cycles are read off the cuts, and the tree is
    verified once against the integer axioms.

    Returns None when B is not graph-like or the walk completes without a
    hit; raises :class:`SearchLimitExceeded` when the budget runs out first,
    and ``ValueError`` for a negative ``search_limit``, before the Smith
    form is read.
    """
    if search_limit < 0:
        raise ValueError(f"search limit {search_limit} is negative")
    decomposition = hypergraph._smith_form
    if any(d != 1 for d in decomposition.diagonal):
        return None
    m, rank = hypergraph.edge_count, decomposition.rank
    rows = decomposition.v_inverse.lines[:rank]
    columns = ExactMatrix._of(rows, m).transpose().lines
    prefix: list[int] = []
    # per prefix edge: the length of the log before its steps, and its
    # column after them
    marks: list[tuple[int, dict]] = []
    log: list[tuple[int, int, int]] = []
    examined = 0
    j = 0
    while len(prefix) < rank:
        depth = len(prefix)
        if m - j < rank - depth:
            if not prefix:
                return None
            j = prefix.pop() + 1
            del log[marks.pop()[0] :]
            continue
        if examined >= search_limit:
            raise SearchLimitExceeded(examined)
        examined += 1
        reduced = _replay(log, columns[j])
        residual = {i: x for i, x in reduced.items() if i >= depth}
        if gcd(*residual.values()) == 1:
            steps = _unit_steps(residual, depth)
            column = _replay(steps, reduced)
            if {i: x for i, x in column.items() if i >= depth} != {depth: 1}:
                raise InternalInconsistencyError(
                    f"row operations do not take edge {j} to a unit vector"
                )
            marks.append((len(log), column))
            log += steps
            prefix.append(j)
        j += 1
    # back substitution: clear T above its diagonal, last column first
    for k in reversed(range(rank)):
        log += [(i, k, -x) for i, x in marks[k][1].items() if i < k]
    cut_rows = _apply(log, [dict(row) for row in rows])
    cuts = {t: dict(sorted(cut.items())) for t, cut in zip(prefix, cut_rows)}
    tree = _spanning_tree(tuple(prefix), cuts, _fundamental_cycles(cuts, m), Ring.INTEGER)
    if not verify_tree_axioms(hypergraph, tree).ok:
        raise InternalInconsistencyError("integer tree fails the spanning-tree axioms")
    return tree


def vector_space_spanning_tree(ambient_dim: int, subspace_generators):
    """Spanning tree of rational coordinate space with respect to a subspace.

    Returns ``(tree_positions, cuts, cycles)`` where the cycles are a basis
    of the subspace with Kronecker coordinates on the non-tree positions and
    the cuts are a basis of the orthogonal complement with Kronecker
    coordinates on the tree positions.  The tree is the one the hypergraph
    construction reads off a matrix whose kernel is the subspace: the
    greedy column basis, scanned left to right, of a basis of the
    orthogonal complement.  By matroid duality it is the complement of the
    column basis that a right-to-left greedy scan of the generators picks,
    so one RREF of the generators with their columns reversed gives it all:
    its pivots are the non-tree positions, its rows the cycles and its null
    vectors the cuts, each mapped back and keyed ascending.  Entries are
    ints or Fractions; anything else raises ``TypeError``.
    """
    if ambient_dim < 0:
        raise ValueError(f"ambient dimension {ambient_dim} is negative")
    rows = [[Ring.RATIONAL.coerce(x) for x in generator] for generator in subspace_generators]
    if any(len(row) != ambient_dim for row in rows):
        raise ValueError("generator length does not match ambient dimension")
    last = ambient_dim - 1
    flipped = [{last - j: x for j, x in enumerate(row)} for row in rows]
    _, cycles, cuts = _rref_tree(flipped, ambient_dim)
    return (
        tuple(last - t for t in reversed(cuts)),
        {last - t: _dense(cut, ambient_dim)[::-1] for t, cut in reversed(cuts.items())},
        {last - e: _dense(cycle, ambient_dim)[::-1] for e, cycle in reversed(cycles.items())},
    )
