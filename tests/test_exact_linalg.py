import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hyperhomology import (
    ExactMatrix,
    InternalInconsistencyError,
    ModuleStructure,
    OrientedHypergraph,
    Ring,
    annihilator_basis,
    boundary_matrix,
    image_basis,
    image_rank,
    is_direct_summand,
    kernel_basis,
    lattice_contains,
    main_example,
    parallel_edges,
    path_graph,
    quotient_structure,
    smith_normal_form,
    solve_integer,
    solve_rational,
    sublattice_equal,
)
from hyperhomology import exact_linalg
from hyperhomology.exact_linalg import _rref_tree, _sparse_rref

from oracles import (
    brute_force_has_integer_solution,
    cofactor_det,
    dense_apply,
    dense_fraction_rref,
    dense_product,
    dense_rref_tree,
    dense_smith_normal_form,
    dense_transpose,
    fraction_det,
    fraction_rank,
    hypergraph_suite,
    minor_gcd_divisors,
)


def _random_matrix(rng, max_dim=6, span=5):
    r = rng.randrange(0, max_dim + 1)
    c = rng.randrange(0, max_dim + 1)
    return ExactMatrix(
        [[rng.randint(-span, span) for _ in range(c)] for _ in range(r)],
        Ring.INTEGER,
        cols=c,
    )


def test_snf_main_example_divisors():
    matrix = boundary_matrix(main_example(), Ring.INTEGER)
    rows = [list(row) for row in matrix.entries]
    assert minor_gcd_divisors(rows) == (1, 2, 2)
    assert cofactor_det(rows) == -4
    assert smith_normal_form(matrix).diagonal == (1, 2, 2)


def test_snf_identity():
    assert smith_normal_form(ExactMatrix.identity(4)).diagonal == (1, 1, 1, 1)


def test_snf_single_entry():
    assert smith_normal_form(ExactMatrix([[3]], Ring.INTEGER)).diagonal == (3,)


def test_snf_diagonal_reads_s_once():
    # the divisors are the nonzero diagonal of S, read once per
    # decomposition: every later access returns the same tuple
    rng = random.Random(77)
    matrices = [boundary_matrix(h, Ring.INTEGER) for h in hypergraph_suite(40)]
    matrices += [_random_matrix(rng) for _ in range(40)]
    for matrix in matrices:
        d = smith_normal_form(matrix)
        s = d.s.entries
        expected = []
        for i in range(min(d.s.rows, d.s.cols)):
            if not s[i][i]:
                break
            expected.append(s[i][i])
        assert d.diagonal == tuple(expected)
        assert d.diagonal is d.diagonal
        assert d.rank == len(expected)


def test_snf_rejects_rational_matrices():
    with pytest.raises(ValueError):
        smith_normal_form(ExactMatrix([[Fraction(1, 2)]], Ring.RATIONAL))


# Corrupts one entry of the factor u as the sparse reduction hands it back,
# so the factors no longer reproduce the matrix; the exact product check must
# refuse them whatever the interpreter's optimisation flags.
_CORRUPT_FACTOR = """
from hyperhomology import exact_linalg

real_smith_reduce = exact_linalg._smith_reduce

def corrupt_u(rows, width):
    s, u, u_inverse, v, v_inverse = real_smith_reduce(rows, width)
    u[0][1] = u[0].get(1, 0) + 1
    return s, u, u_inverse, v, v_inverse
"""


def test_snf_self_check_raises_on_wrong_product(monkeypatch):
    namespace = {}
    exec(_CORRUPT_FACTOR, namespace)
    monkeypatch.setattr(exact_linalg, "_smith_reduce", namespace["corrupt_u"])
    with pytest.raises(InternalInconsistencyError):
        smith_normal_form(ExactMatrix.identity(2))


def test_snf_self_check_runs_under_python_O():
    script = _CORRUPT_FACTOR + """
from hyperhomology import ExactMatrix, InternalInconsistencyError, smith_normal_form
print("debug", __debug__)
exact_linalg._smith_reduce = corrupt_u
try:
    smith_normal_form(ExactMatrix.identity(2))
except InternalInconsistencyError:
    print("check raised")
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["debug False", "check raised"]


def _graph(vertex_count, pairs):
    names = [f"v{i}" for i in range(vertex_count)]
    return OrientedHypergraph(names, [({names[a]}, {names[b]}) for a, b in pairs])


def _cycle(n):
    return _graph(n, [(i, (i + 1) % n) for i in range(n)])


def _grid(rows, cols):
    pairs = []
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            if j + 1 < cols:
                pairs.append((k, k + 1))
            if i + 1 < rows:
                pairs.append((k, k + cols))
    return _graph(rows * cols, pairs)


def _bundle(length, width):
    return _graph(length + 1, [(i, i + 1) for i in range(length) for _ in range(width)])


def _differential_matrices():
    """Boundary matrices of the suite and of graph families, empty shapes,
    and seeded integer matrices whose entries share factors 2 and 3."""
    for h in hypergraph_suite():
        yield boundary_matrix(h, Ring.INTEGER)
    for h in (_cycle(3), _cycle(17), _cycle(45), _grid(4, 5), _bundle(6, 3)):
        yield boundary_matrix(h, Ring.INTEGER)
    for rows, cols in ((0, 0), (0, 4), (3, 0)):
        yield ExactMatrix.zeros(rows, cols, Ring.INTEGER)
    # a pivot that leaves a remainder in its row, and a pivot that does not
    # divide the rest of the matrix
    yield ExactMatrix([[4, 6]], Ring.INTEGER)
    yield ExactMatrix([[2, 0], [0, 3]], Ring.INTEGER)
    rng = random.Random(107)
    for _ in range(300):
        values = rng.choice(
            [(0, 2, 3, 4, 6, -2, -3, -4, -6), (0, 0, 1, -1, 2), tuple(range(-9, 10))]
        )
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        entries = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
        yield ExactMatrix(entries, Ring.INTEGER, cols=cols)


def test_sparse_snf_matches_dense_oracle():
    for matrix in _differential_matrices():
        sparse = smith_normal_form(matrix)
        dense = dense_smith_normal_form(matrix)
        for factor in ("u", "s", "v", "u_inverse", "v_inverse"):
            assert getattr(sparse, factor) == getattr(dense, factor), (matrix, factor)


def test_sparse_rref_matches_dense_oracle():
    # the fraction-free elimination must return the schoolbook RREF, leave
    # its input alone and hand back nonzero Fractions only
    rng = random.Random(108)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5)) * (rng.random() < 0.5)

    def mixed_entry():
        # ints, integral-valued Fractions and proper ones side by side
        return rng.choice(
            [0, 0, 0, 1, -1, 3, -6, Fraction(4, 2), Fraction(-9, 3), Fraction(5, 6), Fraction(-7, 4)]
        )

    def snapshot(rows):
        return [[(j, type(x), x) for j, x in row.items()] for row in rows]

    inputs = [[list(row) for row in matrix.entries] for matrix in _differential_matrices()]
    inputs += [
        [[-2, 4, 1], [3, -6, 5]],  # negative and non-unit pivots
        [[0, -3, 6], [-5, 1, 0], [4, 0, -8]],
        [[6, 10, 15], [-4, 6, 9], [10, -15, 3]],
        [[Fraction(4, 2), Fraction(-6, 3)], [Fraction(9, 3), 1]],  # integral-valued
        [[Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)], [Fraction(2, 7), Fraction(-3, 4), 1]],
        [[0, 0, 0], [6, -4, 2], [0, 0, 0], [-9, 6, -3]],  # zero rows
        [[], [], []],  # n x 0
    ]
    for _ in range(200):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        inputs.append([[entry() for _ in range(cols)] for _ in range(rows)])
    for _ in range(200):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        inputs.append([[mixed_entry() for _ in range(cols)] for _ in range(rows)])
    for rows in inputs:
        width = len(rows[0]) if rows else 0
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        before = snapshot(sparse)
        reduced, pivots = _sparse_rref(sparse, width)
        assert snapshot(sparse) == before, rows
        dense = [[row.get(j, 0) for j in range(width)] for row in reduced]
        assert (dense, pivots) == dense_fraction_rref(rows), rows
        assert all(type(x) is Fraction and x for row in reduced for x in row.values()), rows
        assert len(reduced) == len(rows) and not any(reduced[len(pivots) :]), rows
    for width in (0, 1, 4):  # 0 x n
        assert _sparse_rref([], width) == ([], [])


def _rational_matrices():
    rng = random.Random(111)
    for _ in range(100):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        entries = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) * (rng.random() < 0.6) for _ in range(cols)]
            for _ in range(rows)
        ]
        yield ExactMatrix(entries, Ring.RATIONAL, cols=cols)


def _random_like(rng, ring, rows, cols):
    def value():
        if ring is Ring.INTEGER:
            return rng.randint(-3, 3)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    return [[value() if rng.random() < 0.5 else ring.zero for _ in range(cols)] for _ in range(rows)]


def _public_calls(matrix):
    yield matrix.entries
    yield matrix.columns()
    yield matrix.transpose()
    yield matrix @ matrix.transpose()
    yield matrix.apply([1] * matrix.cols)
    yield image_rank(matrix)
    yield solve_rational(matrix, [1] * matrix.rows)
    yield kernel_basis(matrix, Ring.RATIONAL)
    yield image_basis(matrix, Ring.RATIONAL)
    if matrix.ring is Ring.INTEGER:
        yield smith_normal_form(matrix)
        yield kernel_basis(matrix, Ring.INTEGER)
        yield image_basis(matrix, Ring.INTEGER)
        yield solve_integer(matrix, [1] * matrix.rows)
        yield is_direct_summand(matrix)
        yield quotient_structure(matrix)


def test_sparse_matrix_matches_dense_lists():
    # the sparse rows against plain list arithmetic on the dense view, over
    # integer matrices, the Smith factors built from sparse lines, and
    # rational matrices; == and hash ignore the order in which each row
    # dict was filled, and no public function modifies the rows it reads
    rng = random.Random(112)
    matrices = []
    for matrix in _differential_matrices():
        matrices.append(matrix)
        if matrix.rows * matrix.cols <= 64:
            decomposition = smith_normal_form(matrix)
            matrices += [decomposition.v, decomposition.u_inverse, decomposition.v_inverse]
    matrices += _rational_matrices()
    for matrix in matrices:
        ring, zero, n, m = matrix.ring, matrix.ring.zero, matrix.rows, matrix.cols
        dense = [list(row) for row in matrix.entries]
        kind = int if ring is Ring.INTEGER else Fraction
        assert len(dense) == n and all(len(row) == m for row in dense), matrix
        assert all(type(x) is kind for row in dense for x in row), matrix
        assert matrix.lines == tuple({j: x for j, x in enumerate(row) if x} for row in dense)
        assert ExactMatrix(dense, ring, cols=m) == matrix
        assert [list(matrix.row(i)) for i in range(n)] == dense
        assert [[matrix.entry(i, j) for j in range(m)] for i in range(n)] == dense
        columns = dense_transpose(dense, m)
        assert [matrix.column(j) for j in range(m)] == matrix.columns() == columns
        assert matrix.transpose() == ExactMatrix(columns, ring, cols=n)
        assert ExactMatrix.from_columns(columns, ring, rows=n) == matrix
        vector = _random_like(rng, ring, 1, m)[0]
        assert matrix.apply(vector) == dense_apply(dense, vector, zero)
        k = rng.randint(0, 5)
        other = _random_like(rng, ring, m, k)
        product = matrix @ ExactMatrix(other, ring, cols=k)
        assert product == ExactMatrix(dense_product(dense, other, k, zero), ring, cols=k)
        gram = matrix @ matrix.transpose()
        assert gram == ExactMatrix(dense_product(dense, columns, n, zero), ring, cols=n)

        refilled = ExactMatrix._of([dict(reversed(line.items())) for line in matrix.lines], m, ring)
        for same in (refilled, matrix.transpose().transpose()):
            assert same == matrix and hash(same) == hash(matrix), matrix

        before = [list(line.items()) for line in matrix.lines]
        for _ in _public_calls(matrix):
            pass
        assert [list(line.items()) for line in matrix.lines] == before, matrix


def test_sparse_storage_of_boundary_and_smith_factors():
    # B stores its nonzeros only, and the Smith factors the reports read
    # stay linear in the size of a cycle graph
    def stored(matrix):
        return sum(map(len, matrix.lines))

    assert stored(boundary_matrix(_cycle(3000), Ring.INTEGER)) == 6000
    decomposition = smith_normal_form(boundary_matrix(_cycle(300), Ring.INTEGER))
    for factor in (decomposition.v, decomposition.v_inverse, decomposition.u_inverse):
        assert stored(factor) <= 600, stored(factor)


def test_sparse_rref_tree_matches_dense_oracle():
    # same tree, same cut and cycle keys in the same order, densely equal
    # vectors; each vector is a dict of nonzero Fractions, columns ascending
    rng = random.Random(110)
    for h in hypergraph_suite(200):
        m = h.edge_count
        matrix = boundary_matrix(h, Ring.INTEGER)
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in matrix.entries]
        for order in [None] + [rng.sample(range(m), m) for _ in range(3)]:
            tree, cuts, cycles = _rref_tree(sparse_rows, m, order)
            want_tree, want_cuts, want_cycles = dense_rref_tree(matrix.entries, m, order)
            assert tree == want_tree, (h, order)
            assert list(cuts) == list(want_cuts) and list(cycles) == list(want_cycles)
            for got, want in ((cuts, want_cuts), (cycles, want_cycles)):
                for j, vector in got.items():
                    assert all(type(x) is Fraction and x for x in vector.values())
                    assert list(vector) == sorted(vector)
                    dense = [Fraction(0)] * m
                    for k, x in vector.items():
                        dense[k] = x
                    assert dense == want[j], (h, order, j)


def test_coboundary_test_matches_transposed_solve():
    # _is_coboundary reads V of the Smith form of B; the oracle solves
    # B^T y = c against a Smith form of B^T
    from hyperhomology import find_spanning_tree_rational

    outcomes = {}
    for h in hypergraph_suite():
        m = h.edge_count
        matrix = boundary_matrix(h, Ring.INTEGER)
        transpose = matrix.transpose()
        decomposition = smith_normal_form(matrix)
        inputs = [{e: 1} for e in range(m)]
        inputs += [dict(enumerate(decomposition.v_inverse.row(i))) for i in range(m)]
        for cut in find_spanning_tree_rational(h).fundamental_cuts.values():
            if all(x.denominator == 1 for x in cut.coefficients.values()):
                inputs.append({j: x.numerator for j, x in cut.coefficients.items()})
        for vector in inputs:
            dense = [vector.get(j, 0) for j in range(m)]
            expected = solve_integer(transpose, dense) is not None
            assert exact_linalg._is_coboundary(decomposition, vector) == expected, (h, vector)
            outcomes[expected] = outcomes.get(expected, 0) + 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def test_snf_random_roundtrip():
    rng = random.Random(101)
    for _ in range(150):
        matrix = _random_matrix(rng)
        decomposition = smith_normal_form(matrix)
        assert (decomposition.u @ matrix) @ decomposition.v == decomposition.s
        assert abs(fraction_det(decomposition.u.entries)) == 1
        assert abs(fraction_det(decomposition.v.entries)) == 1
        diagonal = decomposition.diagonal
        assert all(d > 0 for d in diagonal)
        assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
        for i in range(decomposition.s.rows):
            for j in range(decomposition.s.cols):
                if i != j:
                    assert decomposition.s.entry(i, j) == 0
        assert len(diagonal) == fraction_rank(matrix.entries)
        assert image_rank(matrix) == len(diagonal)
        if matrix.rows <= 4 and matrix.cols <= 4:
            assert diagonal == minor_gcd_divisors([list(row) for row in matrix.entries])


def test_kernel_main_example_empty():
    matrix = boundary_matrix(main_example(), Ring.INTEGER)
    assert kernel_basis(matrix, Ring.INTEGER) == []
    assert kernel_basis(matrix, Ring.RATIONAL) == []


def test_kernel_parallel_edges():
    matrix = boundary_matrix(parallel_edges(), Ring.INTEGER)
    basis = kernel_basis(matrix, Ring.INTEGER)
    assert basis in ([[1, -1]], [[-1, 1]])


def test_kernel_zero_matrix():
    matrix = ExactMatrix.zeros(3, 4, Ring.INTEGER)
    basis = kernel_basis(matrix, Ring.INTEGER)
    assert sorted(basis) == sorted(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def test_kernel_rational_with_fractions():
    matrix = ExactMatrix([[Fraction(1, 2), Fraction(1, 3)]], Ring.RATIONAL)
    (vector,) = kernel_basis(matrix, Ring.RATIONAL)
    assert Fraction(1, 2) * vector[0] + Fraction(1, 3) * vector[1] == 0
    assert any(vector)


def test_kernel_properties_random():
    rng = random.Random(102)
    for _ in range(80):
        matrix = _random_matrix(rng)
        basis = kernel_basis(matrix, Ring.INTEGER)
        for vector in basis:
            assert all(x == 0 for x in matrix.apply(vector))
        assert len(basis) == matrix.cols - image_rank(matrix)
        # the kernel of a map between free modules is always a direct summand
        if basis:
            lattice = ExactMatrix.from_columns(basis, Ring.INTEGER, rows=matrix.cols)
            assert is_direct_summand(lattice)


def test_image_rank_examples():
    assert image_rank(boundary_matrix(main_example(), Ring.INTEGER)) == 3
    assert image_rank(ExactMatrix.zeros(2, 3, Ring.INTEGER)) == 0
    path = boundary_matrix(path_graph(), Ring.INTEGER)
    assert fraction_rank(path.entries) == 2
    assert image_rank(path) == 2


def test_image_basis_generates_column_lattice():
    rng = random.Random(103)
    for _ in range(60):
        matrix = _random_matrix(rng)
        basis = image_basis(matrix, Ring.INTEGER)
        for j in range(matrix.cols):
            assert lattice_contains(basis, matrix.column(j), matrix.rows)
        columns = [matrix.column(j) for j in range(matrix.cols)]
        for vector in basis:
            assert lattice_contains(columns, vector, matrix.rows)


def test_image_basis_rational_greedy_columns():
    matrix = ExactMatrix([[1, 2, 0], [2, 4, 1]], Ring.INTEGER)
    basis = image_basis(matrix, Ring.RATIONAL)
    assert basis == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]


def test_is_direct_summand_examples():
    assert is_direct_summand(ExactMatrix.identity(3))
    assert not is_direct_summand(boundary_matrix(main_example(), Ring.INTEGER))
    # any graph: textbook direct summands
    assert is_direct_summand(boundary_matrix(path_graph(), Ring.INTEGER))
    assert is_direct_summand(boundary_matrix(parallel_edges(), Ring.INTEGER))


def test_solve_integer_scalar_cases():
    two = ExactMatrix([[2]], Ring.INTEGER)
    assert solve_integer(two, [1]) is None
    assert solve_integer(two, [4]) == [2]


def test_solve_integer_main_example_obstruction():
    transpose = boundary_matrix(main_example(), Ring.INTEGER).transpose()
    target = [1, 0, 0]
    assert solve_integer(transpose, target) is None
    # oracle 1: exhaustive small-coefficient search
    columns = [transpose.column(j) for j in range(3)]
    assert not brute_force_has_integer_solution(columns, target, bound=6)
    # oracle 2: the unique rational solution is not integral
    solution = solve_rational(transpose, target)
    assert solution is not None
    assert any(value.denominator != 1 for value in solution)


def test_solve_integer_agrees_with_rational_solvability():
    rng = random.Random(104)
    for _ in range(80):
        matrix = _random_matrix(rng, max_dim=5, span=4)
        x = [rng.randint(-3, 3) for _ in range(matrix.cols)]
        rhs = matrix.apply(x)
        # integer-solvable right-hand side by construction
        found = solve_integer(matrix, rhs)
        assert found is not None
        assert matrix.apply(found) == rhs
        # when the rational system is unsolvable, the integer one must be too
        rhs2 = [rng.randint(-5, 5) for _ in range(matrix.rows)]
        if solve_rational(matrix, rhs2) is None:
            assert solve_integer(matrix, rhs2) is None


def test_solve_rational_basic():
    matrix = ExactMatrix([[2, 0], [0, 3]], Ring.INTEGER)
    assert solve_rational(matrix, [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
    assert solve_rational(ExactMatrix([[1], [1]], Ring.INTEGER), [1, 2]) is None


def test_annihilator_examples():
    # parallel edges: annihilator of the cycle span{e - t} is span{e + t}
    basis = annihilator_basis([[1, -1]], 2)
    assert sublattice_equal(basis, [[1, 1]], 2)
    # empty generating set: the full lattice
    full = annihilator_basis([], 3)
    assert sublattice_equal(full, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert annihilator_basis([[1, 0]], 2) in ([[0, 1]], [[0, -1]])


def test_annihilator_orthogonal_and_saturated():
    rng = random.Random(105)
    for _ in range(60):
        ambient = rng.randint(1, 6)
        generators = [
            [rng.randint(-4, 4) for _ in range(ambient)] for _ in range(rng.randint(0, 3))
        ]
        basis = annihilator_basis(generators, ambient)
        for vector in basis:
            for generator in generators:
                assert sum(a * b for a, b in zip(vector, generator)) == 0
        if basis:
            lattice = ExactMatrix.from_columns(basis, Ring.INTEGER, rows=ambient)
            assert is_direct_summand(lattice)


def test_quotient_structure_examples():
    transpose = boundary_matrix(main_example(), Ring.INTEGER).transpose()
    assert quotient_structure(transpose) == ModuleStructure(0, (2, 2))
    assert quotient_structure(ExactMatrix.identity(4)) == ModuleStructure(0, ())
    assert quotient_structure(ExactMatrix.zeros(3, 2, Ring.INTEGER)) == ModuleStructure(3, ())


def test_quotient_structure_rank_sum():
    rng = random.Random(106)
    for _ in range(60):
        matrix = _random_matrix(rng)
        structure = quotient_structure(matrix)
        assert structure.free_rank + image_rank(matrix) == matrix.rows


def test_module_structure_rejects_bad_torsion():
    with pytest.raises(ValueError):
        ModuleStructure(0, (4, 2))
    with pytest.raises(ValueError):
        ModuleStructure(free_rank=0, torsion=(4, 2))


def test_sublattice_equal_examples():
    assert sublattice_equal([[1, 1]], [[-1, -1]], 2)
    assert not sublattice_equal([[2, 0]], [[1, 0]], 2)
    # annihilator of the cycles vs coboundary image for a path graph
    matrix = boundary_matrix(path_graph(), Ring.INTEGER)
    cycles = kernel_basis(matrix, Ring.INTEGER)
    annihilator = annihilator_basis(cycles, 2)
    coboundaries = image_basis(matrix.transpose(), Ring.INTEGER)
    assert sublattice_equal(annihilator, coboundaries, 2)


def test_lattice_contains_empty():
    assert lattice_contains([], [0, 0], 2)
    assert not lattice_contains([], [1, 0], 2)
