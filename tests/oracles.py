"""Independent oracles and generators used only by the test-suite.

Most of what is here deliberately avoids the library's own code paths:
ranks and determinants come from a separate Fraction elimination,
elementary divisors from gcds of minors, and graph fundamental cycles/cuts
from tree traversal.  The second routes to the library's facts (kernel and
image bases, integer and rational solving, annihilators, quotient
structure, lattice comparison, the cycle/cut-perp and pairing-functional
checks) were public in the library until it kept one route per fact; they
run on its kernels but read each fact off another matrix or factor.  The
dense Smith normal form, RREF and RREF tree reader at the end are the
library's earlier kernels, kept as differential oracles for the sparse ones,
:func:`gauss_jordan_rref_tree` is its earlier sparse rational elimination,
which reads the cycles off the cuts by its own :func:`cycles_of_cuts`,
:func:`row_log_factors` builds U and U^-1 from a Smith form's row log
with the dense kernel's row operations, so that no other test reads the
factors' own properties,
:func:`two_rref_vector_space_tree` is its earlier vector-space tree,
the dense list transpose and products beside them are the reference for
the sparse rows of ``ExactMatrix`` and stand in for its former
matrix-vector and matrix products (and the identity and zero matrices for
its former constructors), :func:`stacked_smith_missing_chain`
is its earlier integer spanning check, :func:`mutually_orthogonal` the
pass with which its decomposition checked the orthogonality that now
holds by construction,
:func:`lexicographic_integer_tree_edges` its earlier integer-tree search,
:func:`prefix_walk_over_boundary` that search's prefix walk over the
columns of B, counting the prefixes it tests, with its own Euclid steps
(:func:`euclid_steps`, a two-row Euclid in place of the library's
``_unit_steps``),
:func:`reference_tree_axioms` its earlier tree verification (with
:func:`_lattice_contains_all`, which also backs :func:`lattice_contains`
and :func:`sublattice_equal`, and both with :func:`_is_coboundary`, its
earlier coboundary test with a ring switch, the reference for the graded
``exact_linalg._grade``),
:func:`pairwise_validation_report` checks a hypergraph's invariants edge
pair by edge pair, :func:`reference_parse_document` reads a JSON document
by ``json.loads`` and plain loops, :func:`reference_parser` is the command-line parser
as it was built on argparse, and :func:`pop_random_hypergraph` is the
seeded generator as it drew vertex sets by popping from a copy of the
vertex list.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from hyperhomology import (
    BUILTIN_EXAMPLES,
    Chain,
    ExactMatrix,
    InternalInconsistencyError,
    ModuleStructure,
    OrientedHypergraph,
    Ring,
    SnfDecomposition,
    TreeAxiomsReport,
    boundary,
    boundary_matrix,
    random_hypergraph,
    smith_normal_form,
)
from hyperhomology import cli
from hyperhomology.core import _Record
from hyperhomology.exact_linalg import _axpy, _dense, _integer_row, _rref_tree


def pairwise_validation_report(vertices, edges) -> list[str]:
    """Every violated hypergraph invariant, in the order of
    ``validation_report``: each repeated vertex, then each edge's overlap
    and unknown vertices, then, for each edge j that inverts an earlier
    edge, the pair (i, j) with i the first such edge, j ascending, found by
    comparing each edge with the earlier ones in turn."""
    vertices = list(vertices)
    edges = [(set(tails), set(heads)) for tails, heads in edges]
    violations = [
        f"duplicate vertex {v!r}" for k, v in enumerate(vertices) if v in vertices[:k]
    ]
    for j, (tails, heads) in enumerate(edges):
        common = [v for v in tails if v in heads]
        if common:
            names = ", ".join(sorted(repr(v) for v in common))
            violations.append(f"edge {j}: tails and heads overlap on {names}")
        unknown = {v for v in [*tails, *heads] if v not in vertices}
        violations += [f"edge {j}: unknown vertex {v!r}" for v in sorted(unknown, key=repr)]
    for j, (tails, heads) in enumerate(edges):
        for i in range(j):
            if edges[i] == (heads, tails):
                violations.append(f"edges {i} and {j}: inverse pair")
                break
    return violations


def reference_parse_document(text: str) -> tuple:
    """What ``cli.parse_document`` makes of ``text``, read with
    ``json.loads`` and plain loops: ``("hypergraph", vertices, edges)`` for
    a valid document, ``("document", message)`` for one of the wrong shape
    and ``("violations", violations)`` for one that breaks an invariant.
    The shape is checked in the documented order: the document is an
    object, ``vertices`` a list of strings, ``edges`` a list, then edge by
    edge the record is an object, its tails a list of strings naming no
    vertex twice, then its heads the same; the invariants are
    :func:`pairwise_validation_report`'s."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        where = f"line {err.lineno}, column {err.colno}"
        return ("document", f"JSON syntax error at {where}: {err.msg}")
    if type(payload) is not dict:
        return ("document", "document must be a JSON object")
    vertices = payload.get("vertices")
    if type(vertices) is not list or any(type(v) is not str for v in vertices):
        return ("document", '"vertices" must be a list of strings')
    records = payload.get("edges")
    if type(records) is not list:
        return ("document", '"edges" must be a list')
    edges = []
    for j, record in enumerate(records):
        if type(record) is not dict:
            return ("document", f"edge {j} must be an object with tails and heads")
        for label in ("tails", "heads"):
            side = record.get(label)
            if type(side) is not list or any(type(v) is not str for v in side):
                return ("document", f'edge {j}: "{label}" must be a list of strings')
            for k, v in enumerate(side):
                if v in side[:k]:
                    return ("document", f'edge {j}: "{label}" names vertex {v!r} twice')
        edges.append((record["tails"], record["heads"]))
    violations = pairwise_validation_report(vertices, edges)
    if violations:
        return ("violations", tuple(violations))
    return ("hypergraph", vertices, edges)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def fraction_rank(rows) -> int:
    """Rank by forward elimination over Fractions."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(matrix)) if matrix[i][c]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for i in range(len(matrix)):
            if i != rank and matrix[i][c]:
                factor = matrix[i][c] / matrix[rank][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[rank])]
        rank += 1
    return rank


def image_rank(matrix: ExactMatrix) -> int:
    """Rank over the fraction field, by the package's fraction-free
    Gaussian elimination: independent of the Smith normal form, so the
    two routes check each other."""
    return len(_rref_tree(matrix.lines, matrix.cols)[0])


def fraction_det(rows) -> Fraction:
    """Determinant by elimination with partial pivoting over Fractions."""
    n = len(rows)
    matrix = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if matrix[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            matrix[c], matrix[pivot] = matrix[pivot], matrix[c]
            sign = -sign
        det *= matrix[c][c]
        for i in range(c + 1, n):
            if matrix[i][c]:
                factor = matrix[i][c] / matrix[c][c]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[c])]
    return sign * det


def cofactor_det(rows) -> int:
    """Integer determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def minor_gcd_divisors(rows) -> tuple[int, ...]:
    """Elementary divisors via gcds of k-by-k minors.

    The gcd of all k-by-k minors is the product of the first k divisors, so
    successive quotients recover them.  Exponential in the matrix size;
    meant for hand-sized fixtures.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    determinantal = [1]
    for k in range(1, min(n, m) + 1):
        value = 0
        for row_set in itertools.combinations(range(n), k):
            for col_set in itertools.combinations(range(m), k):
                sub = [[rows[i][j] for j in col_set] for i in row_set]
                value = gcd(value, int(fraction_det(sub)))
        if value == 0:
            break
        determinantal.append(value)
    return tuple(
        determinantal[k] // determinantal[k - 1] for k in range(1, len(determinantal))
    )


def brute_force_has_integer_solution(columns, rhs, bound) -> bool:
    """Exhaustive search for an integer combination of columns equal to rhs."""
    width = len(columns)
    height = len(rhs)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=width):
        if all(
            sum(coeffs[j] * columns[j][i] for j in range(width)) == rhs[i]
            for i in range(height)
        ):
            return True
    return False


@lru_cache(maxsize=None)
def hypergraph_suite(count: int = 200, base_seed: int = 777) -> tuple:
    """Deterministic suite of small random hypergraphs (arity at most 3)."""
    rng = random.Random(base_seed)
    instances = []
    for k in range(count):
        vertices = rng.randint(1, 6)
        edges = rng.randint(0, 6)
        allow_empty = k % 7 == 3
        instances.append(
            random_hypergraph(
                vertices,
                edges,
                seed=base_seed + 1000 + k,
                max_arity=3,
                allow_empty_edges=allow_empty,
            )
        )
    return tuple(instances)


def enumerate_rational_candidate_trees(hypergraph: OrientedHypergraph):
    """Test-side enumeration of candidate trees: every edge subset whose
    boundaries form a column basis, with cuts and cycles rebuilt from the
    defining formulas (independently of the library's construction)."""
    matrix = boundary_matrix(hypergraph, Ring.RATIONAL)
    m = hypergraph.edge_count
    rank = fraction_rank(matrix.entries)
    for subset in itertools.combinations(range(m), rank):
        columns = [column(matrix, j) for j in subset]
        # rank of the transpose equals the rank of the selected columns
        if fraction_rank(columns) != rank:
            continue
        cycles = {}
        ok = True
        for e in range(m):
            if e in subset:
                continue
            weights = solve_rational(
                ExactMatrix(columns, Ring.RATIONAL, cols=matrix.rows).transpose(),
                column(matrix, e),
            )
            if weights is None:
                ok = False
                break
            vector = [Fraction(0)] * m
            vector[e] = Fraction(1)
            for position, t in enumerate(subset):
                vector[t] -= weights[position]
            cycles[e] = vector
        if not ok:
            continue
        cuts = {}
        for t in subset:
            vector = [Fraction(0)] * m
            vector[t] = Fraction(1)
            for e, cycle in cycles.items():
                vector[e] = -cycle[t]
            cuts[t] = vector
        yield subset, cuts, cycles


def lexicographic_integer_tree_edges(hypergraph: OrientedHypergraph):
    """Tree edges of the first integer spanning tree in lexicographic order
    of edge indices, or None: every size-``rank`` edge subset in turn, each
    accepted iff its boundary columns have Smith diagonal ``(1,) * rank``.
    This is how the library searched before it walked prefixes."""
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    columns = matrix.transpose().lines
    rank = fraction_rank(matrix.entries)
    units = (1,) * rank
    for subset in itertools.combinations(range(hypergraph.edge_count), rank):
        candidate = ExactMatrix._of([columns[j] for j in subset], matrix.rows).transpose()
        if smith_normal_form(candidate).diagonal == units:
            return subset
    return None


def _replay(ops, vector: dict) -> dict:
    """The integer ``{row: nonzero}`` vector with the unimodular row
    operations ``ops`` applied in turn, one entry at a time; ``vector`` is
    not modified.  An operation ``(a, b, q)`` adds q times row b to row a
    when q is nonzero; with q = 0 it swaps rows a and b, or negates row a
    when a == b.  An operation whose rows are zero in the vector leaves it
    as it is.  The library applies its logs to whole lines instead."""
    y = dict(vector)
    for a, b, q in ops:
        if q:
            x = y.get(b)
            if x:
                x = y.get(a, 0) + q * x
                if x:
                    y[a] = x
                else:
                    del y[a]
        elif a == b:
            if a in y:
                y[a] = -y[a]
        else:
            x, z = y.pop(a, 0), y.pop(b, 0)
            if x:
                y[b] = x
            if z:
                y[a] = z
    return y


def prefix_walk_over_boundary(hypergraph: OrientedHypergraph):
    """``(tree_edges, examined)``: the prefix walk of the integer-tree search
    run on the columns of B itself, as the library ran it before it walked
    the columns of B's Smith factor W, with no budget and no prune: the
    edges of the first integer spanning tree (or None when the walk ends
    without one) and the number of prefixes it tested.  The rank comes from
    a Fraction elimination; on a graph-like input the library's walk must
    test the same prefixes."""
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    columns = matrix.transpose().lines
    m, rank = hypergraph.edge_count, fraction_rank(matrix.entries)
    prefix: list[int] = []
    marks: list[int] = []
    log: list[tuple[int, int, int]] = []
    examined = j = 0
    while len(prefix) < rank:
        depth = len(prefix)
        if m - j < rank - depth:
            if not prefix:
                return None, examined
            j = prefix.pop() + 1
            del log[marks.pop() :]
            continue
        examined += 1
        reduced = _replay(log, columns[j])
        residual = {i: x for i, x in reduced.items() if i >= depth}
        if gcd(*residual.values()) == 1:
            marks.append(len(log))
            log += euclid_steps(residual, depth)
            prefix.append(j)
        j += 1
    return tuple(prefix), examined


def euclid_steps(residual: dict, depth: int) -> list[tuple[int, int, int]]:
    """Row operations, in the encoding of ``exact_linalg._apply``, that take
    the nonzero integer ``{row: nonzero}`` vector ``residual`` (rows from
    ``depth`` on) to g > 0 times the unit vector at row ``depth``, by a
    two-row Euclid between row ``depth`` and each other row in turn,
    ascending: subtract the floor quotient (when it is not 0), swap while a
    remainder is left, and negate row ``depth`` at the end if it holds -g."""
    y = dict(residual)
    ops = []
    if depth not in y:
        k = min(y)
        ops.append((depth, k, 0))
        y[depth] = y.pop(k)
    for k in sorted(y):
        while k != depth and y[k]:
            q = y[k] // y[depth]
            if q:
                ops.append((k, depth, -q))
                y[k] -= q * y[depth]
            if y[k]:
                ops.append((depth, k, 0))
                y[depth], y[k] = y[k], y[depth]
    if y[depth] < 0:
        ops.append((depth, depth, 0))
    return ops


def graph_like_without_integer_tree() -> OrientedHypergraph:
    """A graph-like hypergraph (4 vertices, 5 edges, every elementary
    divisor of B is 1) with no integer spanning tree, so the search cannot
    rule it out before walking: the walk tests 13 prefixes and ends with
    none, and a budget of N <= 12 runs out after testing exactly N."""
    return random_hypergraph(4, 5, 68)


def grid_graph(rows: int, cols: int) -> OrientedHypergraph:
    """The rows x cols grid graph, vertices ``v0..`` row by row; cell by
    cell, the edge to the right neighbour comes before the edge down."""
    names = [f"v{k}" for k in range(rows * cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            if j + 1 < cols:
                edges.append(({names[k]}, {names[k + 1]}))
            if i + 1 < rows:
                edges.append(({names[k]}, {names[k + cols]}))
    return OrientedHypergraph(names, edges)


def disjoint_union(*hypergraphs: OrientedHypergraph) -> OrientedHypergraph:
    """The hypergraphs side by side, vertex v of the k-th renamed
    ``c{k}.{v}``; vertices and edges keep their order, part after part."""

    def rename(k, vertices):
        return {f"c{k}.{v}" for v in vertices}

    vertices = [f"c{k}.{v}" for k, h in enumerate(hypergraphs) for v in h.vertices]
    edges = [
        (rename(k, tails), rename(k, heads))
        for k, h in enumerate(hypergraphs)
        for tails, heads in h.edges
    ]
    return OrientedHypergraph(vertices, edges)


def parallel_edge_suite(count: int = 300, base_seed: int = 4242) -> tuple:
    """Deterministic suite of small random hypergraphs (arity at most 3),
    each with one to three edges copied to random positions, so that
    parallel pairs appear anywhere, a third of them at the front."""
    rng = random.Random(base_seed)
    instances = []
    for k in range(count):
        h = random_hypergraph(
            rng.randint(2, 6), rng.randint(1, 6), seed=base_seed + 1000 + k, max_arity=3
        )
        edges = list(h.edges)
        for copy in range(rng.randint(1, 3)):
            position = 0 if copy == 0 and k % 3 == 0 else rng.randint(0, len(edges))
            edges.insert(position, rng.choice(edges))
        instances.append(OrientedHypergraph(h.vertices, edges))
    return tuple(instances)


@lru_cache(maxsize=None)
def tree_outcome_suite() -> tuple:
    """The 528 inputs whose tree outcomes are pinned: both seeded suites,
    every grid up to 4 x 5, and each 2 x k grid (k <= 4) side by side with
    :func:`graph_like_without_integer_tree`, in both orders."""
    no_tree = graph_like_without_integer_tree()
    grids = [grid_graph(rows, cols) for rows in range(1, 5) for cols in range(1, 6)]
    unions = [
        union
        for k in range(1, 5)
        for union in (
            disjoint_union(grid_graph(2, k), no_tree),
            disjoint_union(no_tree, grid_graph(2, k)),
        )
    ]
    return (*hypergraph_suite(200), *parallel_edge_suite(), *grids, *unions)


def candidate_tree_is_integral(hypergraph: OrientedHypergraph, cuts, cycles) -> bool:
    """Integrality of a candidate: integer cycles, integrally solvable cuts."""
    for cycle in cycles.values():
        if any(Fraction(x).denominator != 1 for x in cycle):
            return False
    transpose = boundary_matrix(hypergraph, Ring.INTEGER).transpose()
    for cut in cuts.values():
        if any(Fraction(x).denominator != 1 for x in cut):
            return False
        if solve_integer(transpose, [int(x) for x in cut]) is None:
            return False
    return True


def integer_tree_lattice_checks(hypergraph: OrientedHypergraph, tree) -> dict:
    """The three lattice fields of an integer ``verify_tree_axioms`` report,
    computed as the library once did: cut membership by one Smith form of
    B^T, and each span check by comparing the family with the image lattice
    of B^T or the kernel lattice of B, both ways."""
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    transpose = matrix.transpose()
    cut_vectors = [c.to_vector(m) for c in tree.fundamental_cuts.values()]
    cycle_vectors = [c.to_vector(m) for c in tree.fundamental_cycles.values()]
    coboundary = smith_normal_form(transpose)
    return {
        "cuts_are_cuts": all(snf_solve(coboundary, v) is not None for v in cut_vectors),
        "cuts_span": sublattice_equal(cut_vectors, image_basis(transpose, Ring.INTEGER), m),
        "cycles_span": sublattice_equal(cycle_vectors, kernel_basis(matrix, Ring.INTEGER), m),
    }


def reference_tree_axioms(hypergraph: OrientedHypergraph, tree) -> TreeAxiomsReport:
    """Every field of ``verify_tree_axioms``, computed as the library did
    before it read the spans off the tree lemma: over the rationals four
    eliminations (the rank of B, of B stacked over the cuts, of the cuts and
    of the cycles); over the integers cut membership on the Smith form of B
    and each span check as two-way containment, the generators of the cut
    lattice (d_i times row i of V^-1) and of the cycle lattice (columns r..
    of V) tested against the Smith form of the family itself."""
    m = hypergraph.edge_count
    tree_set = set(tree.tree_edges)
    chord_set = set(tree.fundamental_cycles)
    counts_consistent = (
        len(tree.tree_edges) == len(tree_set)
        and tree_set.isdisjoint(chord_set)
        and tree_set | chord_set == set(range(m))
        and set(tree.fundamental_cuts) == tree_set
    )

    def restriction(chain, indices: set) -> dict:
        return {j: x for j, x in chain.coefficients.items() if j in indices}

    cut_kronecker = all(
        t in tree.fundamental_cuts and restriction(tree.fundamental_cuts[t], tree_set) == {t: 1}
        for t in tree.tree_edges
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
    if tree.ring is Ring.RATIONAL:

        def rank(rows) -> int:
            return len(_rref_tree(rows, m)[0])

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


def seeded_suite(
    count: int, base_seed: int, max_arity: int = 3, allow_empty_edges: bool = False
) -> tuple:
    """Deterministic suite of small random hypergraphs with the given arity
    bound, every one allowed an empty edge or none."""
    rng = random.Random(base_seed)
    return tuple(
        random_hypergraph(
            rng.randint(1, 6),
            rng.randint(0, 6),
            seed=base_seed + 1000 + k,
            max_arity=max_arity,
            allow_empty_edges=allow_empty_edges,
        )
        for k in range(count)
    )


def stacked_smith_missing_chain(cycle_vectors, cut_vectors, ambient_dim: int):
    """Index of the first standard chain outside the integer span of the
    cycle and cut vectors, or None: one Smith form of the stacked generator
    matrix, then one integer solve per standard chain.  This is how the
    library decided the integer spanning check before it read the answer
    off the Smith form of the boundary matrix alone."""
    generators = ExactMatrix(
        [*cycle_vectors, *cut_vectors], Ring.INTEGER, cols=ambient_dim
    ).transpose()
    chain_sum = smith_normal_form(generators)
    for e in range(ambient_dim):
        unit = [0] * ambient_dim
        unit[e] = 1
        if snf_solve(chain_sum, unit) is None:
            return e
    return None


def mutually_orthogonal(cycles, cuts) -> bool:
    """Whether every cycle is orthogonal to every cut, in one pass over the
    nonzeros: the cut coefficients are indexed by edge, and each cycle's
    inner products with all cuts are accumulated together."""
    by_edge: dict[int, list] = {}
    for c, cut in enumerate(cuts):
        for j, x in cut.coefficients.items():
            by_edge.setdefault(j, []).append((c, x))
    for cycle in cycles:
        products: dict[int, object] = {}
        for j, x in cycle.coefficients.items():
            for c, y in by_edge.get(j, ()):
                products[c] = products.get(c, 0) + x * y
        if any(products.values()):
            return False
    return True


def spanning_tree_count(hypergraph: OrientedHypergraph) -> int:
    """Number of spanning trees of a graph, by the matrix-tree theorem: the
    determinant of its Laplacian B B^T with the last row and column
    removed."""
    rows = boundary_matrix(hypergraph, Ring.INTEGER).entries
    n = len(rows)
    laplacian = [[dot(rows[a], rows[b]) for b in range(n - 1)] for a in range(n - 1)]
    return int(fraction_det(laplacian))


def random_connected_graph(rng: random.Random) -> OrientedHypergraph:
    """Random connected oriented graph with at most 8 vertices, 12 edges."""
    n = rng.randint(2, 8)
    vertices = [f"v{i + 1}" for i in range(n)]
    edges = []
    for child in range(1, n):
        parent = rng.randrange(child)
        pair = (vertices[parent], vertices[child])
        if rng.random() < 0.5:
            pair = (pair[1], pair[0])
        edges.append(({pair[0]}, {pair[1]}))
    extra = rng.randint(0, 12 - (n - 1))
    while extra > 0:
        a, b = rng.sample(range(n), 2)
        tails, heads = {vertices[a]}, {vertices[b]}
        if any((t, h) == (heads, tails) for t, h in edges):
            continue
        edges.append((tails, heads))
        extra -= 1
    return OrientedHypergraph(vertices, edges)


def _endpoints(hypergraph: OrientedHypergraph, j: int) -> tuple[int, int]:
    (tail,), (head,) = hypergraph.edges[j]
    index = hypergraph.vertex_index
    return index[tail], index[head]


def is_combinatorial_spanning_tree(hypergraph: OrientedHypergraph, tree_edges) -> bool:
    """Union-find check: n-1 edges, acyclic, touching every vertex."""
    n = hypergraph.vertex_count
    if len(tree_edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in tree_edges:
        a, b = _endpoints(hypergraph, j)
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len({find(x) for x in range(n)}) == 1


def tree_path_cycle(hypergraph: OrientedHypergraph, tree_edges, chord) -> dict[int, int]:
    """Classical fundamental cycle: the chord plus the signed tree path from
    the chord's head back to its tail."""
    adjacency: dict[int, list[tuple[int, int, int]]] = {}
    for j in tree_edges:
        a, b = _endpoints(hypergraph, j)
        adjacency.setdefault(a, []).append((b, j, +1))
        adjacency.setdefault(b, []).append((a, j, -1))
    tail, head = _endpoints(hypergraph, chord)
    # breadth-first path from head to tail through the tree
    previous: dict[int, tuple[int, int, int]] = {}
    frontier = [head]
    seen = {head}
    while frontier:
        nxt = []
        for vertex in frontier:
            for neighbour, j, sign in adjacency.get(vertex, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    previous[neighbour] = (vertex, j, sign)
                    nxt.append(neighbour)
        frontier = nxt
    coefficients = {chord: 1}
    vertex = tail
    while vertex != head:
        back, j, sign = previous[vertex]
        # edge traversed from ``back`` to ``vertex`` along the path
        coefficients[j] = coefficients.get(j, 0) + sign
        vertex = back
    return {j: v for j, v in coefficients.items() if v}


def tree_cut(hypergraph: OrientedHypergraph, tree_edges, t) -> dict[int, int]:
    """Classical fundamental cut: indicator potential of the head-side
    component of the tree minus the cut edge, pushed through every edge."""
    n = hypergraph.vertex_count
    adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
    for j in tree_edges:
        if j == t:
            continue
        a, b = _endpoints(hypergraph, j)
        adjacency[a].add(b)
        adjacency[b].add(a)
    _, head = _endpoints(hypergraph, t)
    component = {head}
    frontier = [head]
    while frontier:
        nxt = []
        for vertex in frontier:
            for neighbour in adjacency[vertex]:
                if neighbour not in component:
                    component.add(neighbour)
                    nxt.append(neighbour)
        frontier = nxt
    coefficients = {}
    for j in range(hypergraph.edge_count):
        a, b = _endpoints(hypergraph, j)
        value = (b in component) - (a in component)
        if value:
            coefficients[j] = value
    return coefficients


# Second routes to facts the package decides one way.  Each was public in
# the package until it kept one route per fact; here each checks that route
# from another side.  They run on the package's kernels (the Smith form and
# the fraction-free elimination) but read each fact off another matrix or
# another factor: kernels and image lattices, integer and rational solving,
# annihilators, quotient structure, lattice comparison, and the
# pairing-functional lattice of the boundary Gram matrix.


def row_log_factors(decomposition: SnfDecomposition) -> tuple[ExactMatrix, ExactMatrix]:
    """U and U^-1 of ``decomposition``, built from its row log by a replay of
    this module's own, on dense lists: each logged row operation ``(a, b,
    q)`` (add q times row b to row a when q is nonzero; with q = 0 swap rows
    a and b, or negate row a when a == b) is applied to the rows of the
    identity, giving U by rows, and its inverse to the columns of a second
    identity, giving U^-1, in the way :func:`dense_smith_normal_form` keeps
    both."""
    n = decomposition.s.rows
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inverse = [[int(i == j) for j in range(n)] for i in range(n)]
    for a, b, q in decomposition.row_log:
        if q:
            u[a] = [x + q * y for x, y in zip(u[a], u[b])]
            for row in u_inverse:
                row[b] -= q * row[a]
        elif a == b:
            u[a] = [-x for x in u[a]]
            for row in u_inverse:
                row[a] = -row[a]
        else:
            u[a], u[b] = u[b], u[a]
            for row in u_inverse:
                row[a], row[b] = row[b], row[a]
    return ExactMatrix(u, Ring.INTEGER, cols=n), ExactMatrix(u_inverse, Ring.INTEGER, cols=n)


def snf_solve(decomposition: SnfDecomposition, rhs) -> list[int] | None:
    """Some integer solution of ``m @ x = rhs`` for the ``m`` that
    ``decomposition`` factors, or None when no integer solution exists (even
    if a rational one does): ``u @ rhs`` must be divisible by the divisors
    and vanish beyond the rank."""
    rhs = [Ring.INTEGER.coerce(b) for b in rhs]
    u, _ = row_log_factors(decomposition)
    if len(rhs) != u.cols:
        raise ValueError("right-hand side length does not match row count")
    diagonal = decomposition.diagonal
    y = [0] * decomposition.v.rows
    for i, value in enumerate(dense_apply(u.entries, rhs, 0)):
        if i < len(diagonal):
            if value % diagonal[i]:
                return None
            y[i] = value // diagonal[i]
        elif value:
            return None
    return dense_apply(decomposition.v.entries, y, 0)


def snf_reproduces(decomposition: SnfDecomposition | DenseSnf, matrix: ExactMatrix) -> bool:
    """Whether ``u @ matrix @ v == s``, by schoolbook products of the dense
    entries; the U of a :class:`SnfDecomposition` is built by
    :func:`row_log_factors`."""
    cols = matrix.cols
    if isinstance(decomposition, DenseSnf):
        u = decomposition.u
    else:
        u, _ = row_log_factors(decomposition)
    um = dense_product(u.entries, matrix.entries, cols, 0)
    umv = dense_product(um, decomposition.v.entries, cols, 0)
    return umv == [list(row) for row in decomposition.s.entries]


def solve_integer(matrix: ExactMatrix, rhs) -> list[int] | None:
    """Some integer solution of ``matrix @ x = rhs``, or None when no
    integer solution exists (even if a rational one does)."""
    return snf_solve(smith_normal_form(matrix), rhs)


def canonical_type(value) -> type:
    """The type of ``value`` in the package's canonical rational form:
    ``int`` when it is integral, ``Fraction`` otherwise."""
    return int if value.denominator == 1 else Fraction


def sparse_rref(rows: list[dict], width: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form with the pivot columns, over the rationals
    in canonical form, of the matrix with sparse ``rows`` (``{column:
    nonzero}`` dicts of ints or Fractions, which are not modified), read
    off the package's fraction-free elimination: the RREF rows are the
    fundamental cuts of :func:`_rref_tree`, and the pivots its tree."""
    tree, cuts, _ = _rref_tree(rows, width)
    return list(cuts.values()), list(tree)


def solve_rational(matrix: ExactMatrix, rhs) -> list[Fraction] | None:
    """One rational solution of ``matrix @ x = rhs``, or None.

    Free variables are set to zero, so the answer is deterministic; when the
    columns are independent the solution is unique anyway.
    """
    rhs = list(rhs)
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    width = matrix.cols
    augmented = []
    for line, b in zip(matrix.lines, rhs):
        b = Fraction(b)
        augmented.append({**line, width: b} if b else line)
    rref, pivots = sparse_rref(augmented, width + 1)
    if width in pivots:
        return None
    solution = [Fraction(0)] * width
    for row, pivot in zip(rref, pivots):
        solution[pivot] = row.get(width, Fraction(0))
    return solution


def kernel_basis(matrix: ExactMatrix, ring: Ring) -> list[list]:
    """Basis of the nullspace (rational) or of the kernel lattice (integer).

    Integer kernels are read off the column change-of-basis factor of the
    Smith normal form, so the returned lattice is saturated: it is a direct
    summand of the ambient lattice.  Rational kernels are the null vectors
    of the free columns of the RREF, one per free column in order.
    """
    if ring is Ring.INTEGER:
        if matrix.ring is not Ring.INTEGER:
            raise ValueError("integer kernel requires an integer matrix")
        decomposition = smith_normal_form(matrix)
        return [column(decomposition.v, j) for j in range(decomposition.rank, matrix.cols)]
    _, _, cycles = _rref_tree(matrix.lines, matrix.cols)
    return [_dense(cycle, matrix.cols) for cycle in cycles.values()]


def image_basis(matrix: ExactMatrix, ring: Ring) -> list[list]:
    """Basis of the column space (rational) or of the image lattice (integer).

    Over the rationals this is the greedy independent subset of columns,
    lowest indices first: the pivot columns of the RREF.  Over the integers
    the basis is read off the Smith factors: the nonzero diagonal entries
    times the matching columns of the inverse row transform generate exactly
    the lattice spanned by the columns.
    """
    if ring is Ring.INTEGER:
        if matrix.ring is not Ring.INTEGER:
            raise ValueError("integer image requires an integer matrix")
        decomposition = smith_normal_form(matrix)
        _, u_inverse = row_log_factors(decomposition)
        return [
            [d * x for x in column(u_inverse, i)] for i, d in enumerate(decomposition.diagonal)
        ]
    tree, _, _ = _rref_tree(matrix.lines, matrix.cols)
    return [[Fraction(x) for x in column(matrix, j)] for j in tree]


def is_direct_summand(matrix: ExactMatrix) -> bool:
    """Whether the lattice spanned by the columns is a direct summand of the
    ambient integer lattice: all elementary divisors are 1."""
    return all(d == 1 for d in smith_normal_form(matrix).diagonal)


def annihilator_basis(generators, ambient_dim: int) -> list[list[int]]:
    """Basis of the integer vectors orthogonal to every generator: the
    integer kernel of the matrix whose rows are the generators, so the
    lattice is saturated.  With no generators it is the whole ambient
    lattice."""
    rows = [list(g) for g in generators]
    if any(len(row) != ambient_dim for row in rows):
        raise ValueError("generator length does not match ambient dimension")
    return kernel_basis(ExactMatrix(rows, Ring.INTEGER, cols=ambient_dim), Ring.INTEGER)


def quotient_structure(matrix: ExactMatrix) -> ModuleStructure:
    """Structure of the ambient integer lattice modulo the column span."""
    decomposition = smith_normal_form(matrix)
    torsion = tuple(d for d in decomposition.diagonal if d > 1)
    return ModuleStructure(matrix.rows - decomposition.rank, torsion)


def _is_coboundary(decomposition: SnfDecomposition, vector: dict, ring=Ring.INTEGER) -> bool:
    """Whether the integer vector ``{index: value}`` is ``m^T y`` for some y
    in ``ring``, where ``decomposition`` factors ``m`` as U m V = S.

    Then m^T = V^-T S^T U^-T, so c = m^T y iff V^T c = S^T w for w = U^-T y
    in ``ring``: V^T c must vanish from the rank on and, over the integers,
    its entry i must be divisible by d_i below the rank.  V^T c is the sum
    of c_k times row k of V, one row per nonzero of c.
    """
    image: dict = {}
    for k, x in vector.items():
        if x:
            _axpy(image, decomposition.v.lines[k], x)
    diagonal = decomposition.diagonal
    rank = len(diagonal)
    integer = ring is Ring.INTEGER
    return all(i < rank and not (integer and value % diagonal[i]) for i, value in image.items())


def _lattice_contains_all(generators, vectors, ambient_dim: int) -> bool:
    """Whether every integer ``{index: value}`` vector lies in the integer
    span of the ``{index: value}`` generators.  The generators are the rows
    of one matrix G, factored once for all the vectors: v = G^T y for an
    integer y iff ``_is_coboundary`` holds on the Smith form of G."""
    if not vectors:
        return True
    decomposition = smith_normal_form(ExactMatrix._of(generators, ambient_dim))
    return all(_is_coboundary(decomposition, v) for v in vectors)


def _integer_lines(vectors, ambient_dim: int) -> tuple:
    """Integer vectors of length ``ambient_dim`` as ``{index: nonzero}`` dicts."""
    return ExactMatrix(vectors, Ring.INTEGER, cols=ambient_dim).lines


def lattice_contains(generators, vector, ambient_dim: int) -> bool:
    """Whether ``vector`` lies in the integer span of the generators."""
    return _lattice_contains_all(
        _integer_lines(generators, ambient_dim), _integer_lines([vector], ambient_dim), ambient_dim
    )


def sublattice_equal(generators_a, generators_b, ambient_dim: int) -> bool:
    """Whether two generating sets span the same integer lattice."""
    a = _integer_lines(generators_a, ambient_dim)
    b = _integer_lines(generators_b, ambient_dim)
    return _lattice_contains_all(b, a, ambient_dim) and _lattice_contains_all(a, b, ambient_dim)


def annihilator_of_cycles(hypergraph: OrientedHypergraph) -> list[list[int]]:
    """Basis of the 1-cochain lattice that vanishes on every cycle."""
    cycles = kernel_basis(boundary_matrix(hypergraph, Ring.INTEGER), Ring.INTEGER)
    return annihilator_basis(cycles, hypergraph.edge_count)


class PerpComparison(_Record):
    """Result of comparing two lattices that should coincide, with a
    witness generator on the offending side when they do not."""

    equal: bool
    witness: Chain | None


def cycles_equal_cut_perp_check(hypergraph: OrientedHypergraph) -> PerpComparison:
    """Check that the cycle lattice is exactly the orthogonal complement of
    the cut lattice over the integers.

    This holds for every hypergraph, so a False answer indicates a bug in
    the lattice machinery rather than a property of the input.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    cuts = image_basis(matrix.transpose(), Ring.INTEGER)
    perp = annihilator_basis(cuts, m)
    cycles = kernel_basis(matrix, Ring.INTEGER)
    if sublattice_equal(perp, cycles, m):
        return PerpComparison(True, None)
    for vector in perp:
        if not lattice_contains(cycles, vector, m):
            return PerpComparison(False, Chain(1, dict(enumerate(vector)), Ring.INTEGER))
    for vector in cycles:
        if not lattice_contains(perp, vector, m):
            return PerpComparison(False, Chain(1, dict(enumerate(vector)), Ring.INTEGER))
    raise InternalInconsistencyError("lattices differ but no witness found")


def boundary_gram(matrix: ExactMatrix) -> ExactMatrix:
    """The Gram matrix ``B^T B`` of the integer boundary matrix B, by the
    schoolbook product."""
    m = matrix.cols
    gram = dense_product(matrix.transpose().entries, matrix.entries, m, 0)
    return ExactMatrix(gram, Ring.INTEGER, cols=m)


def boundary_functional_lattice(hypergraph: OrientedHypergraph) -> list[list[int]]:
    """Image lattice of the map sending a 1-chain to its pairing
    functional: the column lattice of the boundary Gram matrix.

    Always a sublattice of the coboundary image; the containment can be
    proper.
    """
    return image_basis(boundary_gram(boundary_matrix(hypergraph, Ring.INTEGER)), Ring.INTEGER)


def represents_dualized_boundary(hypergraph: OrientedHypergraph, candidate) -> bool:
    """Whether the 0-cochain is, modulo the coboundary kernel, the dual of
    the boundary of some integer 1-chain.

    Solved as one stacked integer system: boundary columns next to a basis
    of the coboundary kernel.
    """
    if candidate.dimension != 0:
        raise ValueError("expected a 0-cochain")
    if candidate.ring is not Ring.INTEGER:
        raise ValueError("membership is decided over the integers")
    n = hypergraph.vertex_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    columns = dense_transpose(matrix.entries, matrix.cols)
    columns += kernel_basis(matrix.transpose(), Ring.INTEGER)
    system = ExactMatrix(columns, Ring.INTEGER, cols=n).transpose()
    return solve_integer(system, candidate.to_vector(n)) is not None


def boundary_functional_injectivity_check(
    hypergraph: OrientedHypergraph, samples: int = 50, seed: int = 0
) -> bool:
    """Check that pairing functionals identify chains up to cycles.

    Verifies that the Gram matrix has the same rank as the boundary map and
    that sampled chains with a vanishing functional are themselves cycles.
    """
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    gram = boundary_gram(matrix)
    if image_rank(gram) != image_rank(matrix):
        return False
    rng = random.Random(seed)
    m = hypergraph.edge_count
    for _ in range(samples):
        vector = [rng.randint(-3, 3) for _ in range(m)]
        if not any(dense_apply(gram.entries, vector, 0)) and any(
            dense_apply(matrix.entries, vector, 0)
        ):
            return False
    return True


def cohomology_hom_iso_check(hypergraph: OrientedHypergraph) -> bool:
    """Whether restricting cochain classes to cycles is an isomorphism onto
    the dual of the homology: the cohomology must be torsion-free of the
    same rank as the homology."""
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    structure = quotient_structure(matrix.transpose())
    homology_rank = hypergraph.edge_count - image_rank(matrix)
    return not structure.torsion and structure.free_rank == homology_rank


# Dense kernels, kept as they were before the library switched to sparse
# storage: the library's sparse Smith form and RREF must reproduce them
# entry for entry (same pivot rule, so the same factors).


def dense_fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with the pivot columns, over Fractions: a
    zero entry may come back as the int 0.  A row is updated only where the
    pivot row is nonzero."""
    matrix = [[Fraction(x) if x else 0 for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(matrix[0]) if matrix else 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        pivot = matrix[r]
        support = [k for k, x in enumerate(pivot) if x]
        factor = pivot[c]
        for k in support:
            pivot[k] /= factor
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                row, scale = matrix[i], matrix[i][c]
                for k in support:
                    row[k] -= scale * pivot[k]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    return matrix, pivots


def dense_rref_tree(rows, cols: int, order=None):
    """Spanning tree of the row space read off :func:`dense_fraction_rref`
    of the dense ``rows`` with columns in ``order``: the tree columns in
    scan order, then the fundamental cuts and cycles as dicts from column
    (in scan order) to a dense Fraction vector of length ``cols``."""
    order = list(range(cols)) if order is None else list(order)
    reduced, pivots = dense_fraction_rref([[row[j] for j in order] for row in rows])
    tree = tuple(order[p] for p in pivots)
    cuts = {}
    for i, t in enumerate(tree):
        cut = [Fraction(0)] * cols
        for k, j in enumerate(order):
            cut[j] = reduced[i][k]
        cuts[t] = cut
    cycles = {}
    for k in sorted(set(range(cols)) - set(pivots)):
        cycle = [Fraction(0)] * cols
        cycle[order[k]] = Fraction(1)
        for i, t in enumerate(tree):
            cycle[t] = -reduced[i][k]
        cycles[order[k]] = cycle
    return tree, cuts, cycles


def gauss_jordan_rref_tree(rows: list[dict], cols: int):
    """:func:`_rref_tree` as the library computed it by Gauss-Jordan
    elimination: for each column, left to right, the lowest-index row
    that holds it and is not yet a pivot row becomes its pivot row, and the
    column is cleared in every other row at once, above the pivot as well
    as below, through the set of rows that hold each column.  Fraction-free:
    the rows are scaled to ints, a pivot row is negated when its pivot is
    negative (and divided by its content when the pivot is not 1), another
    row with b at the pivot column becomes ``a * row - b' * pivot_row``,
    where a and b' are the pivot p and b divided by gcd(p, b), and is
    divided by its content when a is not 1; each pivot row is divided by
    its pivot at the end.  Returns ``(tree, cuts, cycles)`` as
    :func:`_rref_tree` does, values in the same canonical form."""
    matrix = [_integer_row(row) for row in rows]
    holders: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(matrix):
        for j in row:
            holders[j].add(i)
    used: set[int] = set()
    pivot_rows: list[int] = []
    tree: list[int] = []
    for c in range(cols):
        candidates = holders[c] - used
        if not candidates:
            continue
        pivot = min(candidates)
        used.add(pivot)
        pivot_row = matrix[pivot]
        p = pivot_row[c]
        if p != 1:
            content = gcd(*pivot_row.values())
            if p < 0:
                content = -content
            if content != 1:
                matrix[pivot] = pivot_row = {j: x // content for j, x in pivot_row.items()}
                p = pivot_row[c]
        for i in holders[c] - {pivot}:
            row = matrix[i]
            a, b = 1, row[c]
            if p != 1:
                g = gcd(p, b)
                a, b = p // g, b // g
                if a != 1:
                    matrix[i] = row = {j: a * x for j, x in row.items()}
            for j, y in pivot_row.items():
                value = row.get(j, 0) - b * y
                if value:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = value
                else:
                    del row[j]
                    holders[j].discard(i)
            if a != 1:
                content = gcd(*row.values())
                if content > 1:
                    matrix[i] = {j: x // content for j, x in row.items()}
        pivot_rows.append(pivot)
        tree.append(c)
    cuts = {}
    for t, i in zip(tree, pivot_rows):
        row, p = matrix[i], matrix[i][t]
        if p != 1 and any(x % p for x in row.values()):
            row = {j: Fraction(x, p) if x % p else x // p for j, x in row.items()}
        elif p != 1:
            row = {j: x // p for j, x in row.items()}
        cuts[t] = row
    return tuple(tree), cuts, cycles_of_cuts(cuts, cols)


def cycles_of_cuts(cuts: dict, cols: int) -> dict:
    """The fundamental cycles of a tree with the ``{column: nonzero}``
    fundamental ``cuts``, one per free column f, ascending: 1 at f and
    minus cut t's entry at f at each tree column t whose cut holds f."""
    return {
        f: {f: 1, **{t: -cut[f] for t, cut in cuts.items() if f in cut}}
        for f in range(cols)
        if f not in cuts
    }


def two_rref_vector_space_tree(ambient_dim: int, generators):
    """The vector-space spanning tree as the library built it with two
    RREFs: a basis of the orthogonal complement read off the generators'
    RREF as its null vectors, then the tree, cuts and cycles read off that
    basis's RREF, columns left to right, as dense lists."""
    rows = [[Ring.RATIONAL.coerce(x) for x in generator] for generator in generators]
    _, _, kernel = _rref_tree([dict(enumerate(row)) for row in rows], ambient_dim)
    tree, cuts, cycles = _rref_tree(list(kernel.values()), ambient_dim)
    return (
        tree,
        {t: _dense(cut, ambient_dim) for t, cut in cuts.items()},
        {e: _dense(cycle, ambient_dim) for e, cycle in cycles.items()},
    )


def column(matrix: ExactMatrix, j: int) -> list:
    """Column ``j`` of ``matrix`` as a dense list, zeros in the matrix's
    ring; a negative ``j`` counts from the right."""
    j, zero = range(matrix.cols)[j], matrix.ring.zero
    return [line.get(j, zero) for line in matrix.lines]


def dense_transpose(rows: list[list], cols: int) -> list[list]:
    """Transpose of dense ``rows`` with ``cols`` columns."""
    return [[row[j] for row in rows] for j in range(cols)]


def dense_apply(rows: list[list], vector: list, zero) -> list:
    """Schoolbook matrix-vector product of dense ``rows``."""
    return [sum((x * y for x, y in zip(row, vector)), zero) for row in rows]


def dense_product(a: list[list], b: list[list], cols: int, zero) -> list[list]:
    """Schoolbook product of dense ``a`` and ``b``, ``b`` with ``cols`` columns."""
    return [
        [sum((row[k] * b[k][j] for k in range(len(b))), zero) for j in range(cols)] for row in a
    ]


def identity_matrix(n: int) -> ExactMatrix:
    """The n x n integer identity matrix."""
    return ExactMatrix([[int(i == j) for j in range(n)] for i in range(n)], Ring.INTEGER, cols=n)


def zero_matrix(rows: int, cols: int) -> ExactMatrix:
    """The rows x cols integer zero matrix."""
    return ExactMatrix([[0] * cols for _ in range(rows)], Ring.INTEGER, cols=cols)


class DenseSnf(_Record):
    """The five dense factors ``u @ m @ v = s`` of :func:`dense_smith_normal_form`,
    each an :class:`ExactMatrix`, so they compare equal to those the
    package's :class:`SnfDecomposition` reads or builds from its row log."""

    u: ExactMatrix
    s: ExactMatrix
    v: ExactMatrix
    u_inverse: ExactMatrix
    v_inverse: ExactMatrix


def dense_smith_normal_form(matrix: ExactMatrix) -> DenseSnf:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The pivot at each step is a nonzero entry of minimal absolute value
    (ties broken by lowest row, then lowest column), which limits
    coefficient growth.  Before the algorithm advances, the pivot is forced
    to divide every entry of the remaining submatrix, so the diagonal comes
    out positive and in divisibility order with no post-processing.
    """
    if matrix.ring is not Ring.INTEGER:
        raise ValueError("Smith normal form requires integer entries")
    r, c = matrix.rows, matrix.cols
    s = [list(row) for row in matrix.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    u_inv = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    v_inv = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_swap(a, b):
        s[a], s[b] = s[b], s[a]
        u[a], u[b] = u[b], u[a]
        for row in u_inv:
            row[a], row[b] = row[b], row[a]

    def row_add(target, source, q):
        # row_target += q * row_source; inverse applied on u_inv columns
        s[target] = [x + q * y for x, y in zip(s[target], s[source])]
        u[target] = [x + q * y for x, y in zip(u[target], u[source])]
        for row in u_inv:
            row[source] -= q * row[target]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

    def col_swap(a, b):
        for row in s:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]
        v_inv[a], v_inv[b] = v_inv[b], v_inv[a]

    def col_add(target, source, q):
        # col_target += q * col_source; inverse applied on v_inv rows
        for row in s:
            row[target] += q * row[source]
        for row in v:
            row[target] += q * row[source]
        v_inv[source] = [x - q * y for x, y in zip(v_inv[source], v_inv[target])]

    def find_pivot(k):
        best = None
        for i in range(k, r):
            for j in range(k, c):
                value = abs(s[i][j])
                if value and (best is None or value < best[0]):
                    best = (value, i, j)
        return best

    for k in range(min(r, c)):
        while True:
            pivot = find_pivot(k)
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if s[k][k] < 0:
                row_negate(k)
            p = s[k][k]
            dirty = False
            for i in range(k + 1, r):
                if s[i][k]:
                    q = s[i][k] // p
                    if q:
                        row_add(i, k, -q)
                    if s[i][k]:
                        dirty = True
            for j in range(k + 1, c):
                if s[k][j]:
                    q = s[k][j] // p
                    if q:
                        col_add(j, k, -q)
                    if s[k][j]:
                        dirty = True
            if dirty:
                continue
            violation = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if s[i][j] % p:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            # pull the offending row into row k; the next pass shrinks the pivot
            row_add(k, violation, 1)
        if find_pivot(k) is None:
            break

    result = DenseSnf(
        u=ExactMatrix(u, Ring.INTEGER, cols=r),
        s=ExactMatrix(s, Ring.INTEGER, cols=c),
        v=ExactMatrix(v, Ring.INTEGER, cols=c),
        u_inverse=ExactMatrix(u_inv, Ring.INTEGER, cols=r),
        v_inverse=ExactMatrix(v_inv, Ring.INTEGER, cols=c),
    )
    if not snf_reproduces(result, matrix):
        raise InternalInconsistencyError("Smith normal form factors do not reproduce the matrix")
    return result


# The command-line parser as it was built on argparse, kept as the reference
# for the table-driven parser in ``cli``: both must accept and reject the
# same command lines and parse accepted ones into the same values.


def _reference_nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def reference_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(handler=cli._cmd_validate)

    p = sub.add_parser("homology", parents=[common], help="homology and cohomology groups")
    p.add_argument("file")
    p.add_argument("--ring", choices=["int", "rat"], default="int")
    p.set_defaults(handler=cli._cmd_homology)

    p = sub.add_parser(
        "spanning-tree", parents=[common], help="find an algebraic spanning tree"
    )
    p.add_argument("file")
    p.add_argument("--ring", choices=["int", "rat"], required=True)
    p.add_argument("--check-integral", action="store_true", help="with --ring rat, also report integrality")
    p.add_argument(
        "--limit", type=_reference_nonnegative_int, default=1_000_000,
        help="candidate budget for --ring int",
    )
    p.set_defaults(handler=cli._cmd_spanning_tree)

    p = sub.add_parser("graphlike", parents=[common], help="the five equivalence conditions")
    p.add_argument("file")
    p.set_defaults(handler=cli._cmd_graphlike)

    p = sub.add_parser("decompose", parents=[common], help="cycle/cut decomposition diagnostics")
    p.add_argument("file")
    p.add_argument("--ring", choices=["int", "rat"], default="int")
    p.set_defaults(handler=cli._cmd_decompose)

    p = sub.add_parser("example", parents=[common], help="emit a built-in fixture document")
    p.add_argument("name", choices=sorted(BUILTIN_EXAMPLES))
    p.set_defaults(handler=cli._cmd_example)

    p = sub.add_parser("random", parents=[common], help="emit a deterministic random document")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--allow-empty-edges", action="store_true")
    p.set_defaults(handler=cli._cmd_random)
    return parser


# The seeded generator as it drew each vertex set by popping from a copy of
# the vertex list, kept as the reference for ``random_hypergraph``, which
# draws vertex indices: both must give the same hypergraph, or raise the
# same ``ValueError``, for every seed and parameter set.


def _draw(rng: random.Random, pool: list, count: int) -> list:
    """Remove ``count`` uniformly chosen elements from ``pool``.

    Implemented with plain ``randrange`` pops so the stream of draws is
    identical across platforms and Python versions for a fixed seed.
    """
    chosen = []
    for _ in range(count):
        chosen.append(pool.pop(rng.randrange(len(pool))))
    return chosen


def pop_random_hypergraph(
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
