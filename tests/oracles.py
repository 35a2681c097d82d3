"""Independent oracles and generators used only by the test-suite.

Everything here deliberately avoids the library's own code paths: ranks and
determinants come from a separate Fraction elimination, elementary divisors
from gcds of minors, and graph fundamental cycles/cuts from tree traversal.
The dense Smith normal form, RREF and RREF tree reader at the end are the
library's earlier kernels, kept as differential oracles for the sparse ones,
the dense list transpose and products beside them are the reference for
the sparse rows of ``ExactMatrix``, and :func:`stacked_smith_missing_chain`
is its earlier integer spanning check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

from hyperhomology import (
    ExactMatrix,
    InternalInconsistencyError,
    OrientedHypergraph,
    Ring,
    SnfDecomposition,
    random_hypergraph,
)


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
    from hyperhomology import Ring, boundary_matrix, solve_rational

    matrix = boundary_matrix(hypergraph, Ring.RATIONAL)
    m = hypergraph.edge_count
    rank = fraction_rank(matrix.entries)
    for subset in itertools.combinations(range(m), rank):
        columns = [matrix.column(j) for j in subset]
        # rank of the transpose equals the rank of the selected columns
        if fraction_rank(columns) != rank:
            continue
        cycles = {}
        ok = True
        for e in range(m):
            if e in subset:
                continue
            weights = solve_rational(
                type(matrix).from_columns(columns, Ring.RATIONAL, rows=matrix.rows),
                matrix.column(e),
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


def candidate_tree_is_integral(hypergraph: OrientedHypergraph, cuts, cycles) -> bool:
    """Integrality of a candidate: integer cycles, integrally solvable cuts."""
    from hyperhomology import Ring, boundary_matrix, solve_integer

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
    from hyperhomology import (
        boundary_matrix,
        image_basis,
        kernel_basis,
        smith_normal_form,
        sublattice_equal,
    )

    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    transpose = matrix.transpose()
    cut_vectors = [c.to_vector(m) for c in tree.fundamental_cuts.values()]
    cycle_vectors = [c.to_vector(m) for c in tree.fundamental_cycles.values()]
    coboundary = smith_normal_form(transpose)
    return {
        "cuts_are_cuts": all(coboundary.solve(v) is not None for v in cut_vectors),
        "cuts_span": sublattice_equal(cut_vectors, image_basis(transpose, Ring.INTEGER), m),
        "cycles_span": sublattice_equal(cycle_vectors, kernel_basis(matrix, Ring.INTEGER), m),
    }


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
    from hyperhomology import smith_normal_form

    generators = ExactMatrix.from_columns(
        [*cycle_vectors, *cut_vectors], Ring.INTEGER, rows=ambient_dim
    )
    chain_sum = smith_normal_form(generators)
    for e in range(ambient_dim):
        unit = [0] * ambient_dim
        unit[e] = 1
        if chain_sum.solve(unit) is None:
            return e
    return None


def spanning_tree_count(hypergraph: OrientedHypergraph) -> int:
    """Number of spanning trees of a graph, by the matrix-tree theorem: the
    determinant of its Laplacian B B^T with the last row and column
    removed."""
    from hyperhomology import boundary_matrix

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
    (tail,) = hypergraph.tails(j)
    (head,) = hypergraph.heads(j)
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


# Dense kernels, kept as they were before the library switched to sparse
# storage: the library's sparse Smith form and RREF must reproduce them
# entry for entry (same pivot rule, so the same factors).


def dense_fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with the pivot columns, over Fractions."""
    matrix = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(matrix[0]) if matrix else 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        factor = matrix[r][c]
        matrix[r] = [x / factor for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                scale = matrix[i][c]
                matrix[i] = [a - scale * b for a, b in zip(matrix[i], matrix[r])]
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


def dense_smith_normal_form(matrix: ExactMatrix) -> SnfDecomposition:
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

    result = SnfDecomposition(
        u=ExactMatrix(u, Ring.INTEGER, cols=r),
        s=ExactMatrix(s, Ring.INTEGER, cols=c),
        v=ExactMatrix(v, Ring.INTEGER, cols=c),
        u_inverse=ExactMatrix(u_inv, Ring.INTEGER, cols=r),
        v_inverse=ExactMatrix(v_inv, Ring.INTEGER, cols=c),
    )
    if (result.u @ matrix) @ result.v != result.s:
        raise InternalInconsistencyError("Smith normal form factors do not reproduce the matrix")
    return result
