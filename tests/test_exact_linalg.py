import random
from fractions import Fraction

import pytest

from hyperhomology import (
    ExactMatrix,
    InternalInconsistencyError,
    ModuleStructure,
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

from oracles import (
    brute_force_has_integer_solution,
    cofactor_det,
    fraction_det,
    fraction_rank,
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


def test_snf_rejects_rational_matrices():
    with pytest.raises(ValueError):
        smith_normal_form(ExactMatrix([[Fraction(1, 2)]], Ring.RATIONAL))


def test_snf_self_check_raises_on_wrong_product(monkeypatch):
    # the factors are rechecked by an explicit comparison, which, unlike an
    # assert, also runs under python -O
    def wrong_product(self, other):
        return ExactMatrix.zeros(self.rows, other.cols, Ring.INTEGER)

    monkeypatch.setattr(ExactMatrix, "__matmul__", wrong_product)
    with pytest.raises(InternalInconsistencyError):
        smith_normal_form(ExactMatrix.identity(2))


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
