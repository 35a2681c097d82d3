import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperhomology import (
    ExactMatrix,
    InternalInconsistencyError,
    ModuleStructure,
    OrientedHypergraph,
    Ring,
    boundary_matrix,
    cycle_cut_decomposition,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    graph_likeness,
    homology,
    main_example,
    parallel_edges,
    path_graph,
    random_hypergraph,
    smith_normal_form,
    triangle_graph,
)
from hyperhomology import exact_linalg
from hyperhomology.exact_linalg import _rref_tree

from oracles import (
    _is_coboundary,
    annihilator_basis,
    brute_force_has_integer_solution,
    canonical_type,
    cofactor_det,
    column,
    dense_apply,
    dense_fraction_rref,
    dense_product,
    dense_rref_tree,
    dense_smith_normal_form,
    dense_transpose,
    disjoint_union,
    fraction_det,
    fraction_rank,
    gauss_jordan_rref_tree,
    grid_graph,
    hypergraph_suite,
    parallel_edge_suite,
    identity_matrix,
    image_basis,
    image_rank,
    is_direct_summand,
    kernel_basis,
    lattice_contains,
    minor_gcd_divisors,
    quotient_structure,
    row_log_factors,
    snf_reproduces,
    solve_integer,
    solve_rational,
    sparse_rref,
    sublattice_equal,
    tree_outcome_suite,
    zero_matrix,
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
    assert smith_normal_form(identity_matrix(4)).diagonal == (1, 1, 1, 1)


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


# Plants one fault in what the sparse reduction hands back (the row log, the
# column log or the divisors) or in how V^-1 is built from the column log;
# the exact self-checks must refuse each one whatever the interpreter's
# optimisation flags, and each is refused by the check named with it.  The
# main example's reduction logs row and column operations of every kind the
# faults need; its diagonal (1, 1, 1) is a divisor chain, so only
# U B = D V^-1 can refuse it as the Smith form, and [[2, 0], [0, 3]]'s
# diagonal (2, 3) is not a chain (its form is (1, 6)).  The parallel edges'
# boundary matrix has rank 1 and 2 columns, so row 1 of V^-1 is one that
# D V^-1 never reads, and only V^-1 V = I can refuse a fault confined to it.
_CORRUPTIONS = """
from hyperhomology import ExactMatrix, Ring, boundary_matrix, exact_linalg
from hyperhomology import main_example, parallel_edges

real_smith_reduce = exact_linalg._smith_reduce
MATRIX = boundary_matrix(main_example(), Ring.INTEGER)
UNCHAINED = ExactMatrix([[2, 0], [0, 3]], Ring.INTEGER)
LOW_RANK = boundary_matrix(parallel_edges(), Ring.INTEGER)
CHAIN = "the elementary divisors are not a divisor chain"
PRODUCT = "Smith normal form factors do not reproduce the matrix"
INVERSE = "the column operations do not invert V^-1"


def extra_row_op(divisors, row_log, column_log):
    row_log.append((0, 1, 1))


def dropped_row_op(divisors, row_log, column_log):
    row_log.pop()


def doubled_column_multiplier(divisors, row_log, column_log):
    k = next(k for k, (a, b, q) in enumerate(column_log) if q)
    a, b, q = column_log[k]
    column_log[k] = (a, b, 2 * q)


def wrong_divisor(divisors, row_log, column_log):
    # (1, 2, 4) is still a chain
    divisors[-1] *= 2


def negation_as_self_add(divisors, row_log, column_log):
    # negates column 1, zero from the rank on, as "add -2 times itself",
    # which ``_undo`` does not invert: it triples row 1 of V^-1 instead
    column_log.append((1, 1, -2))


def corrupted(fault):
    def smith_reduce(rows, width):
        divisors, row_log, column_log = real_smith_reduce(rows, width)
        fault(divisors, row_log, column_log)
        return divisors, row_log, column_log

    return smith_reduce


def no_reduction(rows, width):
    # the input's own diagonal as its divisors, with empty logs
    return [rows[i].get(i, 0) for i in range(min(len(rows), width))], [], []


def undo_keeps_multiplier(op):
    return op


# fault name -> (module attribute to replace, its faulty stand-in, the
# matrix, the message of the check that refuses it)
FAULTS = {
    fault.__name__: ("_smith_reduce", corrupted(fault), MATRIX, PRODUCT)
    for fault in (extra_row_op, dropped_row_op, doubled_column_multiplier, wrong_divisor)
}
FAULTS["no_reduction"] = ("_smith_reduce", no_reduction, MATRIX, PRODUCT)
FAULTS["unchained_divisors"] = ("_smith_reduce", no_reduction, UNCHAINED, CHAIN)
FAULTS["undo_keeps_multiplier"] = ("_undo", undo_keeps_multiplier, MATRIX, PRODUCT)
FAULTS["negation_as_self_add"] = (
    "_smith_reduce", corrupted(negation_as_self_add), LOW_RANK, INVERSE
)
"""


def _planted_faults() -> dict:
    namespace = {}
    exec(_CORRUPTIONS, namespace)
    return namespace


def test_snf_self_check_raises_on_wrong_product(monkeypatch):
    planted = _planted_faults()
    assert len(planted["FAULTS"]) == 8
    for attribute, fault, matrix, message in planted["FAULTS"].values():
        smith_normal_form(matrix)  # the factors as made pass
        with monkeypatch.context() as patch:
            patch.setattr(exact_linalg, attribute, fault)
            with pytest.raises(InternalInconsistencyError) as raised:
                smith_normal_form(matrix)
            assert str(raised.value) == message


def test_snf_self_check_runs_under_python_O():
    script = _CORRUPTIONS + """
from hyperhomology import InternalInconsistencyError, smith_normal_form
print("debug", __debug__)
for name, (attribute, fault, matrix, message) in FAULTS.items():
    real = getattr(exact_linalg, attribute)
    setattr(exact_linalg, attribute, fault)
    try:
        smith_normal_form(matrix)
    except InternalInconsistencyError as error:
        print("check raised", name, str(error) == message)
    setattr(exact_linalg, attribute, real)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    raised = [f"check raised {name} True" for name in _planted_faults()["FAULTS"]]
    assert result.stdout.splitlines() == ["debug False", *raised]


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
        yield zero_matrix(rows, cols)
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
    # V, built from the column log when read, must give U B V = S and
    # V V^-1 = I by schoolbook products of the dense entries; U and U^-1
    # come off the row log by the oracles' own replay
    for matrix in _differential_matrices():
        sparse = smith_normal_form(matrix)
        dense = dense_smith_normal_form(matrix)
        for factor in ("s", "v", "v_inverse"):
            assert getattr(sparse, factor) == getattr(dense, factor), (matrix, factor)
        assert row_log_factors(sparse) == (dense.u, dense.u_inverse), matrix
        assert snf_reproduces(sparse, matrix), matrix
        n = matrix.cols
        product = dense_product(sparse.v.entries, sparse.v_inverse.entries, n, 0)
        assert product == [list(row) for row in identity_matrix(n).entries], matrix


def test_u_factors_equal_the_row_log_replay():
    # ``u`` and ``u_inverse``, each one pass of the row log on the
    # identity when read, are the matrices the oracles' own replay of the
    # log gives; the other tests read U and U^-1 through that replay
    matrices = [*_differential_matrices(), boundary_matrix(main_example(), Ring.INTEGER)]
    for matrix in matrices:
        decomposition = smith_normal_form(matrix)
        factors = (decomposition.u, decomposition.u_inverse)
        assert factors == row_log_factors(decomposition), matrix


def test_u_inverse_column_is_a_column_of_the_row_log_replay():
    # ``u_inverse``, the row log reversed and negated in one pass on the
    # identity, against the oracles' own replay of the row log, column by
    # column, on boundary matrices; it stores no zero entry
    grids = [_grid(rows, cols) for rows in range(1, 5) for cols in range(1, 6)]
    for h in (*hypergraph_suite(200), *parallel_edge_suite(), *grids):
        decomposition = smith_normal_form(boundary_matrix(h, Ring.INTEGER))
        _, replay = row_log_factors(decomposition)
        found = decomposition.u_inverse
        assert all(all(line.values()) for line in found.lines), h
        for i in range(decomposition.s.rows):
            assert column(found, i) == column(replay, i), (h, i)


@st.composite
def unitriangular_columns(draw):
    """The ``{row: nonzero}`` columns of an upper unitriangular integer
    block, its diagonal entry first or last in each."""
    columns = []
    for k in range(draw(st.integers(0, 6))):
        above = draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
        column = {i: x for i, x in enumerate(above) if x}
        columns.append({k: 1, **column} if draw(st.booleans()) else {**column, k: 1})
    return columns


@settings(derandomize=True, database=None, deadline=None)
@given(unitriangular_columns())
def test_back_substitution_takes_a_unitriangular_block_to_the_identity(columns):
    n = len(columns)
    rows = [{k: column[i] for k, column in enumerate(columns) if i in column} for i in range(n)]
    tree, cuts, cycles = exact_linalg._read_tree(rows, columns, list(range(n)))
    assert list(cuts.items()) == list(enumerate(exact_linalg._identity(n)))
    assert tree == tuple(range(n)) and cycles == {}


@st.composite
def operation_logs(draw):
    """A line count and a log of swaps, negations and additions on it."""
    n = draw(st.integers(1, 5))
    line = st.integers(0, n - 1)
    op = st.tuples(line, line, st.integers(-3, 3)).filter(lambda op: op[0] != op[1] or not op[2])
    return n, draw(st.lists(op, max_size=12))


@settings(derandomize=True, database=None, deadline=None)
@given(operation_logs())
def test_undone_log_pairs_with_the_log_to_the_identity(case):
    # ``_apply(log, I)`` has the rows of U (of V^T for a column log) and
    # ``_apply(map(_undo, log), I)`` the columns of U^-1 (rows of V^-1):
    # line i of one times line j of the other is 1 when i == j, else 0
    n, log = case
    ones = exact_linalg._apply(log, exact_linalg._identity(n))
    others = exact_linalg._apply(map(exact_linalg._undo, log), exact_linalg._identity(n))
    products = [[sum(x * b.get(k, 0) for k, x in a.items()) for b in others] for a in ones]
    assert products == [[int(i == j) for j in range(n)] for i in range(n)], log


@settings(derandomize=True, database=None, deadline=None)
@given(operation_logs(), st.data())
def test_inverse_log_undoes_the_log_on_any_lines(case, data):
    # the integer search backtracks by applying the inverse of an edge's
    # steps to W's rows, so the pair must give back every line exactly,
    # whatever its entries
    n, log = case
    entries = st.dictionaries(st.integers(0, 6), st.integers(-9, 9).filter(bool), max_size=5)
    lines = data.draw(st.lists(entries, min_size=n, max_size=n))
    applied = exact_linalg._apply(log, [dict(line) for line in lines])
    assert exact_linalg._apply(exact_linalg._inverse_log(log), applied) == lines, log


def _next_operation(rng, lines):
    """One operation on ``lines``: a swap (with an empty line when there is
    one, half the time), a negation, an addition that cancels an entry
    when some line holds a multiple of another's entry, or any addition."""
    n = len(lines)
    kind = rng.choice(["swap", "negate", "cancel", "add"])
    empty = [i for i in range(n) if not lines[i]]
    if kind == "swap":
        a = rng.randrange(n)
        return a, rng.choice(empty) if empty and rng.random() < 0.5 else rng.randrange(n), 0
    if kind == "negate":
        a = rng.randrange(n)
        return a, a, 0
    if kind == "cancel":
        pairs = [
            (a, b, -(x // lines[b][j]))
            for a in range(n)
            for b in range(n)
            if a != b
            for j, x in lines[a].items()
            if j in lines[b] and x % lines[b][j] == 0
        ]
        if pairs:
            return rng.choice(pairs)
    a, b = rng.sample(range(n), 2)
    return a, b, rng.choice([-3, -2, -1, 1, 2, 3])


def test_in_step_keeps_the_cross_index_of_the_applied_lines():
    # the Smith reduction keeps its rows and columns, and both tree
    # eliminations their rows and columns, in step through ``_in_step``:
    # after every operation the lines must be what ``_apply`` makes of
    # them and the cross index their transpose, each of its dicts the
    # object it was, since the Smith reduction reads a held one after
    # applying; both orientations, rows with a column index and columns
    # with a row index
    rng = random.Random(4040)
    seen = {"cancelled": 0, "swap with empty": 0, "negate": 0}
    for _ in range(300):
        height, width = rng.randint(2, 7), rng.randint(2, 7)
        matrix = ExactMatrix._of(
            [
                {j: rng.choice([-2, -1, 1, 1, 2, 4]) for j in range(width) if rng.random() < 0.4}
                for _ in range(height)
            ],
            width,
        )
        for lines, size in ((matrix.lines, width), (matrix.transpose().lines, height)):
            lines = [dict(line) for line in lines]
            cross = list(ExactMatrix._of(lines, size).transpose().lines)
            apply = exact_linalg._in_step(lines, cross)
            held = list(cross)
            expected = [dict(line) for line in lines]
            for _ in range(12):
                op = _next_operation(rng, expected)
                before = sum(map(len, expected))
                exact_linalg._apply([op], expected)
                apply([op])
                assert lines == expected, op
                assert cross == list(ExactMatrix._of(expected, size).transpose().lines), op
                assert all(a is b for a, b in zip(cross, held)), op
                seen["cancelled"] += op[2] != 0 and sum(map(len, expected)) < before
                seen["swap with empty"] += op[2] == 0 and op[0] != op[1] and not all(
                    expected[i] for i in op[:2]
                )
                seen["negate"] += op[0] == op[1]
    assert min(seen.values()) > 100, seen


def test_sparse_rref_matches_dense_oracle():
    # the fraction-free elimination must return the schoolbook RREF, leave
    # its input alone and hand back nonzero values in canonical form only
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
        reduced, pivots = sparse_rref(sparse, width)
        assert snapshot(sparse) == before, rows
        dense = [[row.get(j, 0) for j in range(width)] for row in reduced]
        want, want_pivots = dense_fraction_rref(rows)
        assert (dense, pivots) == (want[: len(want_pivots)], want_pivots), rows
        assert not any(map(any, want[len(want_pivots) :])), rows
        assert all(type(x) is canonical_type(x) and x for row in reduced for x in row.values()), rows
        assert len(reduced) == len(pivots), rows
    for width in (0, 1, 4):  # 0 x n
        assert sparse_rref([], width) == ([], [])


def _rational_matrices():
    rng = random.Random(111)
    for _ in range(100):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        entries = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) * (rng.random() < 0.6) for _ in range(cols)]
            for _ in range(rows)
        ]
        yield ExactMatrix(entries, Ring.RATIONAL, cols=cols)


def _public_calls(matrix):
    yield matrix.entries
    yield [column(matrix, j) for j in range(matrix.cols)]
    yield matrix.transpose()
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
    # dict was filled, and neither a public function nor an oracle route
    # on the package's kernels modifies the rows it reads
    matrices = []
    for matrix in _differential_matrices():
        matrices.append(matrix)
        if matrix.rows * matrix.cols <= 64:
            decomposition = smith_normal_form(matrix)
            _, u_inverse = row_log_factors(decomposition)
            matrices += [decomposition.v, u_inverse, decomposition.v_inverse]
    matrices += _rational_matrices()
    for matrix in matrices:
        ring, n, m = matrix.ring, matrix.rows, matrix.cols
        dense = [list(row) for row in matrix.entries]
        assert len(dense) == n and all(len(row) == m for row in dense), matrix
        assert all(type(x) is canonical_type(x) for row in dense for x in row), matrix
        if ring is Ring.INTEGER:
            assert all(type(x) is int for row in dense for x in row), matrix
        assert matrix.lines == tuple({j: x for j, x in enumerate(row) if x} for row in dense)
        assert ExactMatrix(dense, ring, cols=m) == matrix
        assert [list(matrix.row(i)) for i in range(n)] == dense
        assert [[matrix.row(i)[j] for j in range(m)] for i in range(n)] == dense
        columns = dense_transpose(dense, m)
        assert [column(matrix, j) for j in range(m)] == columns
        assert matrix.transpose() == ExactMatrix(columns, ring, cols=n)

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
    for factor in (decomposition.v, decomposition.v_inverse, row_log_factors(decomposition)[1]):
        assert stored(factor) <= 600, stored(factor)
    # the row side is kept as its log, two operations per pivot on a cycle
    assert len(decomposition.row_log) <= 600, len(decomposition.row_log)


def test_reports_never_build_u(monkeypatch):
    # U and U^-1 are built from the row log only when read: no integer
    # report on a graph reads either, so the Smith form the hypergraph
    # keeps holds neither; the first report makes it, the others read it.
    # V is built from the column log only when read too: the Smith form is
    # checked without it, and a positive graph-likeness verdict reads none
    assert exact_linalg.SnfDecomposition._fields == ("s", "v_inverse", "row_log", "column_log")
    assert "v" not in vars(smith_normal_form(boundary_matrix(main_example(), Ring.INTEGER)))
    fresh = _cycle(300)
    assert graph_likeness(fresh).graph_like
    assert "v" not in vars(fresh._smith_form)
    made = []

    def recording(matrix):
        made.append(smith_normal_form(matrix))
        return made[-1]

    monkeypatch.setattr(exact_linalg, "smith_normal_form", recording)
    cycle = _cycle(300)
    calls = []
    for report in (
        lambda: homology(cycle, Ring.INTEGER),
        lambda: graph_likeness(cycle).graph_like,
        lambda: cycle_cut_decomposition(cycle, Ring.INTEGER),
        lambda: find_spanning_tree_integer(cycle),
    ):
        before = len(made)
        assert report()
        calls.append(len(made) - before)
    assert calls == [1, 0, 0, 0], calls
    for decomposition in made:
        assert "u" not in vars(decomposition) and "u_inverse" not in vars(decomposition)
    # a negative verdict's witnesses read S, V and V^-1 (the direct-summand
    # one is the boundary of a column of V), and build neither factor of U
    for h in (main_example(), disjoint_union(_grid(3, 4), main_example())):
        assert not graph_likeness(h).graph_like
        assert "u" not in vars(h._smith_form) and "u_inverse" not in vars(h._smith_form)


def test_sparse_rref_tree_matches_dense_oracle():
    # same tree, same cut and cycle keys in the same order, densely equal
    # vectors; each vector is a dict of nonzero values in canonical form
    # (on a boundary matrix of a graph, all ints), in no promised order
    row_rng = random.Random(113)
    for h in hypergraph_suite(200):
        m = h.edge_count
        is_graph = all(len(tails) == len(heads) == 1 for tails, heads in h.edges)
        matrix = boundary_matrix(h, Ring.INTEGER)
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in matrix.entries]
        tree, cuts, cycles = _rref_tree(sparse_rows, m)
        want_tree, want_cuts, want_cycles = dense_rref_tree(matrix.entries, m)
        assert tree == want_tree, h
        assert list(cuts) == list(want_cuts) and list(cycles) == list(want_cycles)
        for got, want in ((cuts, want_cuts), (cycles, want_cycles)):
            for j, vector in got.items():
                assert all(type(x) is canonical_type(x) and x for x in vector.values())
                if is_graph:
                    assert all(type(x) is int for x in vector.values()), h
                dense = [Fraction(0)] * m
                for k, x in vector.items():
                    dense[k] = x
                assert dense == want[j], (h, j)
        # the RREF is unique, so neither the order of the rows nor a
        # repeated row changes the tree, the cuts or the cycles
        variants = [sparse_rows[::-1], row_rng.sample(sparse_rows, len(sparse_rows))]
        if sparse_rows:
            repeated = list(sparse_rows)
            copy = dict(row_rng.choice(sparse_rows))
            repeated.insert(row_rng.randrange(len(sparse_rows) + 1), copy)
            variants.append(repeated)
        for rows in variants:
            assert _listed(_rref_tree(rows, m)) == _listed((tree, cuts, cycles)), h


def _listed(read):
    """A tree read with its cuts and cycles as lists of items, so that
    comparing two reads also compares the order of their keys; each vector
    compares as a dict, since ``_rref_tree`` promises no order within it."""
    tree, cuts, cycles = read
    return tree, list(cuts.items()), list(cycles.items())


def _typed(read):
    """:func:`_listed` with the type of every value next to it, so that an
    int and an equal Fraction differ."""
    tree, cuts, cycles = _listed(read)
    return tree, *[
        [(j, {k: (x, type(x)) for k, x in vector.items()}) for j, vector in family]
        for family in (cuts, cycles)
    ]


def _sparse_rows(rng, max_rows=8, max_cols=9):
    """A random list of ``{column: value}`` rows and its width: ints, and
    Fractions in about a quarter of the entries, zeros kept as given."""
    cols = rng.randint(0, max_cols)
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        row = {}
        for j in range(cols):
            if rng.random() < 0.4:
                x = rng.randint(-5, 5)
                row[j] = Fraction(x, rng.randint(1, 6)) if rng.random() < 0.25 else x
        rows.append(row)
    return rows, cols


def test_rref_tree_matches_gauss_jordan():
    # the Euclid forward pass and one back substitution must give the tree,
    # cuts, cycles, key order and value types of the library's earlier
    # Gauss-Jordan elimination, and leave the input rows as they were
    rng = random.Random(2039)
    cases = [_sparse_rows(rng) for _ in range(2000)]
    suites = tree_outcome_suite()
    cases += [(boundary_matrix(h, Ring.INTEGER).lines, h.edge_count) for h in suites]
    fractions = 0
    for rows, cols in cases:
        before = [dict(row) for row in rows]
        got = _rref_tree(rows, cols)
        assert list(rows) == before
        assert _typed(got) == _typed(gauss_jordan_rref_tree(rows, cols)), (rows, cols)
        fractions += any(type(x) is Fraction for cut in got[1].values() for x in cut.values())
    assert fractions > 100, fractions


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32))
def test_rref_tree_matches_gauss_jordan_under_hypothesis(seed):
    rows, cols = _sparse_rows(random.Random(seed))
    assert _typed(_rref_tree(rows, cols)) == _typed(gauss_jordan_rref_tree(rows, cols))


@pytest.mark.parametrize("name", ["30x30 grid", "r300"])
def test_rref_tree_steps_only_below_each_pivot(monkeypatch, name):
    # the rational elimination takes each tree column to its pivot by one
    # call of the Euclid steps, which name only rows from the pivot's down;
    # an elimination that clears the rows above each pivot as it goes, as
    # Gauss-Jordan does, fills them in, and fails here
    h = grid_graph(30, 30) if name == "30x30 grid" else random_hypergraph(300, 450, 1)
    real, depths = exact_linalg._unit_steps, []

    def recorded(residual, depth):
        steps = real(residual, depth)
        assert all(a >= depth and b >= depth for a, b, _ in steps), (depth, steps)
        depths.append(depth)
        return steps

    monkeypatch.setattr(exact_linalg, "_unit_steps", recorded)
    tree, _, _ = _rref_tree(boundary_matrix(h, Ring.INTEGER).lines, h.edge_count)
    assert len(tree) > 100 and depths == list(range(len(tree)))


def test_coboundary_test_matches_transposed_solve():
    # _grade reads V of the Smith form of B; the oracle solves
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
            assert (exact_linalg._grade(decomposition, vector) == 0) == expected, (h, vector)
            outcomes[expected] = outcomes.get(expected, 0) + 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def test_rational_coboundary_test_matches_rational_solve():
    # over the rationals _grade's bound 1 drops the divisibility by d_i; the
    # oracle solves B^T y = c over the rationals by elimination
    outcomes = {}
    for h in hypergraph_suite():
        m = h.edge_count
        transpose = boundary_matrix(h, Ring.INTEGER).transpose()
        decomposition = smith_normal_form(boundary_matrix(h, Ring.INTEGER))
        inputs = [{e: 1} for e in range(m)]
        inputs += [dict(enumerate(decomposition.v_inverse.row(i))) for i in range(m)]
        for vector in inputs:
            dense = [vector.get(j, 0) for j in range(m)]
            expected = solve_rational(transpose, dense) is not None
            found = exact_linalg._grade(decomposition, vector) <= 1
            assert found == expected, (h, vector)
            outcomes[expected] = outcomes.get(expected, 0) + 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def test_grade_matches_the_reference_coboundary_test():
    # grade 0 is the reference's integer answer and grade <= 1 its rational
    # one, on every cut and cycle of both finders' trees, every unit cochain
    # and seeded small integer vectors
    rng = random.Random(2828)
    grades = {0: 0, 1: 0, 2: 0}
    for h in hypergraph_suite(200):
        m = h.edge_count
        decomposition = h._smith_form
        trees = [find_spanning_tree_rational(h), find_spanning_tree_integer(h)]
        inputs = [
            chain.coefficients
            for tree in trees
            if tree is not None
            for family in (tree.fundamental_cuts, tree.fundamental_cycles)
            for chain in family.values()
        ]
        inputs += [{e: 1} for e in range(m)]
        inputs += [{j: x for j in range(m) if (x := rng.randint(-3, 3))} for _ in range(5)]
        for vector in inputs:
            grade = exact_linalg._grade(decomposition, vector)
            assert (grade == 0) == _is_coboundary(decomposition, vector), (h, vector)
            assert (grade <= 1) == _is_coboundary(decomposition, vector, Ring.RATIONAL), (h, vector)
            grades[grade] += 1
    assert min(grades.values()) > 100, grades


def test_grade_pins_on_the_examples():
    # main_example has divisors (1, 2, 2): e1 kills every cycle, only 2*e1
    # is an integer coboundary; on the triangle e1 is on the cycle, and
    # e1 + e3 is the coboundary of minus the indicator of u
    main = main_example()._smith_form
    assert exact_linalg._grade(main, {0: 1}) == 1
    assert exact_linalg._grade(main, {0: 2}) == 0
    triangle = triangle_graph()._smith_form
    assert exact_linalg._grade(triangle, {0: 1}) == 2
    assert exact_linalg._grade(triangle, {0: 1, 2: 1}) == 0
    assert exact_linalg._grade(triangle, {}) == 0


def test_exact_matrix_refuses_inconsistent_shapes():
    with pytest.raises(ValueError, match="rows have inconsistent lengths"):
        ExactMatrix([[1, 2], [3]], Ring.INTEGER)
    for cols in (1, 3, -2):
        with pytest.raises(ValueError, match="explicit column count disagrees with rows"):
            ExactMatrix([[1, 2]], Ring.INTEGER, cols=cols)
    with pytest.raises(ValueError, match="column count -1 is negative"):
        ExactMatrix([], Ring.INTEGER, cols=-1)
    for cols, width in ((None, 0), (0, 0), (3, 3)):
        empty = ExactMatrix([], Ring.RATIONAL, cols=cols)
        assert (empty.rows, empty.cols, empty.lines) == (0, width, ())
    assert ExactMatrix([[1, 0]], Ring.INTEGER, cols=2).lines == ({0: 1},)


def test_snf_random_roundtrip():
    rng = random.Random(101)
    for _ in range(150):
        matrix = _random_matrix(rng)
        decomposition = smith_normal_form(matrix)
        assert snf_reproduces(decomposition, matrix)
        assert abs(fraction_det(row_log_factors(decomposition)[0].entries)) == 1
        assert abs(fraction_det(decomposition.v.entries)) == 1
        diagonal = decomposition.diagonal
        assert all(d > 0 for d in diagonal)
        assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
        for i in range(decomposition.s.rows):
            for j in range(decomposition.s.cols):
                if i != j:
                    assert decomposition.s.row(i)[j] == 0
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
    matrix = zero_matrix(3, 4)
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
            assert all(x == 0 for x in dense_apply(matrix.entries, vector, 0))
        assert len(basis) == matrix.cols - image_rank(matrix)
        # the kernel of a map between free modules is always a direct summand
        if basis:
            lattice = ExactMatrix(basis, Ring.INTEGER, cols=matrix.cols).transpose()
            assert is_direct_summand(lattice)


def test_image_rank_examples():
    assert image_rank(boundary_matrix(main_example(), Ring.INTEGER)) == 3
    assert image_rank(zero_matrix(2, 3)) == 0
    path = boundary_matrix(path_graph(), Ring.INTEGER)
    assert fraction_rank(path.entries) == 2
    assert image_rank(path) == 2


def test_image_basis_generates_column_lattice():
    rng = random.Random(103)
    for _ in range(60):
        matrix = _random_matrix(rng)
        basis = image_basis(matrix, Ring.INTEGER)
        for j in range(matrix.cols):
            assert lattice_contains(basis, column(matrix, j), matrix.rows)
        columns = [column(matrix, j) for j in range(matrix.cols)]
        for vector in basis:
            assert lattice_contains(columns, vector, matrix.rows)


def test_image_basis_rational_greedy_columns():
    matrix = ExactMatrix([[1, 2, 0], [2, 4, 1]], Ring.INTEGER)
    basis = image_basis(matrix, Ring.RATIONAL)
    assert basis == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]


def test_is_direct_summand_examples():
    assert is_direct_summand(identity_matrix(3))
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
    columns = [column(transpose, j) for j in range(3)]
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
        rhs = dense_apply(matrix.entries, x, 0)
        # integer-solvable right-hand side by construction
        found = solve_integer(matrix, rhs)
        assert found is not None
        assert dense_apply(matrix.entries, found, 0) == rhs
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
            lattice = ExactMatrix(basis, Ring.INTEGER, cols=ambient).transpose()
            assert is_direct_summand(lattice)


def test_quotient_structure_examples():
    transpose = boundary_matrix(main_example(), Ring.INTEGER).transpose()
    assert quotient_structure(transpose) == ModuleStructure(0, (2, 2))
    assert quotient_structure(identity_matrix(4)) == ModuleStructure(0, ())
    assert quotient_structure(zero_matrix(3, 2)) == ModuleStructure(3, ())


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
    with pytest.raises(ValueError, match="free rank -1 is negative"):
        ModuleStructure(-1, ())


def test_module_structure_rejects_torsion_below_two():
    for torsion in [(0, 2), (0,), (1,), (-2, 4), (1, 2)]:
        with pytest.raises(ValueError, match="below 2"):
            ModuleStructure(1, torsion)
    assert ModuleStructure(1, (2, 4)).torsion == (2, 4)


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
