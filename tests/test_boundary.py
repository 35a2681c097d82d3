import random

import pytest

from hyperhomology import (
    Chain,
    Cochain,
    ExactMatrix,
    OrientedHypergraph,
    Ring,
    boundary,
    boundary_functional,
    boundary_inner_product,
    boundary_matrix,
    canonical_inner_product,
    coboundary,
    main_example,
    parallel_edges,
)

from oracles import column, dense_apply, hypergraph_suite


def test_boundary_of_single_edge():
    h = OrientedHypergraph(["a", "b", "c"], [({"a"}, {"b", "c"})])
    result = boundary(h, Chain.unit(1, 0, Ring.INTEGER))
    assert result == Chain(0, {0: -1, 1: 1, 2: 1}, Ring.INTEGER)


def test_boundary_of_zero():
    h = main_example()
    assert boundary(h, Chain.zero(1, Ring.INTEGER)).is_zero()


def test_boundary_of_parallel_difference():
    h = parallel_edges()
    x = Chain(1, {0: 1, 1: -1}, Ring.INTEGER)
    assert boundary(h, x).is_zero()


def test_boundary_index_out_of_range():
    h = parallel_edges()
    with pytest.raises(IndexError):
        boundary(h, Chain(1, {5: 1}, Ring.INTEGER))


def test_coboundary_index_out_of_range():
    h = parallel_edges()
    with pytest.raises(IndexError):
        coboundary(h, Cochain(0, {9: 1}, Ring.INTEGER))


_EDGE = Chain.unit(1, 0, Ring.INTEGER)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda h: boundary(h, Chain.unit(0, 0, Ring.INTEGER)),
            ValueError,
            "boundary expects a 1-chain",
        ),
        (
            lambda h: coboundary(h, Cochain.unit(1, 0, Ring.INTEGER)),
            ValueError,
            "coboundary expects a 0-cochain",
        ),
        (
            lambda h: canonical_inner_product(_EDGE, Cochain.unit(1, 0, Ring.INTEGER)),
            TypeError,
            "inner product requires two chains or two cochains",
        ),
        (
            lambda h: canonical_inner_product(_EDGE, Chain.unit(0, 0, Ring.INTEGER)),
            ValueError,
            "dimension mismatch",
        ),
    ],
    ids=["boundary-of-0-chain", "coboundary-of-1-cochain", "chain-and-cochain", "two-dimensions"],
)
def test_boundary_calculus_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(parallel_edges())


def test_coboundary_indicator():
    h = OrientedHypergraph(["u", "v"], [({"u"}, {"v"})])
    phi_v = Cochain.unit(0, 1, Ring.INTEGER)
    psi = coboundary(h, phi_v)
    assert psi == Cochain(1, {0: 1}, Ring.INTEGER)
    phi_u = Cochain.unit(0, 0, Ring.INTEGER)
    assert coboundary(h, phi_u) == Cochain(1, {0: -1}, Ring.INTEGER)


def test_coboundary_of_constant_vanishes_on_graph_edges():
    h = OrientedHypergraph(["u", "v"], [({"u"}, {"v"})])
    constant = Cochain(0, {0: 1, 1: 1}, Ring.INTEGER)
    assert coboundary(h, constant).is_zero()


def test_coboundary_of_zero():
    h = main_example()
    assert coboundary(h, Cochain.zero(0, Ring.INTEGER)).is_zero()


def test_boundary_matrix_main_example():
    matrix = boundary_matrix(main_example(), Ring.INTEGER)
    assert column(matrix, 0) == [1, -1, -1]
    assert column(matrix, 1) == [-1, 1, -1]
    assert column(matrix, 2) == [-1, -1, 1]


def test_boundary_matrix_degenerate_shapes():
    edgeless = OrientedHypergraph(["a", "b"], [])
    matrix = boundary_matrix(edgeless, Ring.INTEGER)
    assert (matrix.rows, matrix.cols) == (2, 0)
    single = OrientedHypergraph(["a", "b"], [(set(), {"b"})])
    assert column(boundary_matrix(single, Ring.INTEGER), 0) == [0, 1]


def test_integer_boundary_matrix_matches_coerced_construction():
    def cycle(n):
        names = [f"v{i}" for i in range(n)]
        return OrientedHypergraph(names, [({names[i]}, {names[(i + 1) % n]}) for i in range(n)])

    shapes = [
        OrientedHypergraph([], []),
        OrientedHypergraph([], [(set(), set())]),
        OrientedHypergraph(["a", "b", "c"], []),
    ]
    for h in list(hypergraph_suite(200)) + [cycle(n) for n in (3, 17, 45)] + shapes:
        n, m = h.vertex_count, h.edge_count
        entries = [
            [(v in heads) - (v in tails) for tails, heads in h.edges] for v in h.vertices
        ]
        matrix = boundary_matrix(h, Ring.INTEGER)
        assert matrix == ExactMatrix(entries, Ring.INTEGER, cols=m)
        assert (matrix.rows, matrix.cols) == (n, m)
        assert all(type(x) is int for row in matrix.entries for x in row)


def test_boundary_inner_product_single_edge():
    h = OrientedHypergraph(["a", "b"], [({"a"}, {"b"})])
    e = Chain.unit(1, 0, Ring.INTEGER)
    assert boundary_inner_product(h, e, e) == 2
    assert boundary_inner_product(h, e, -e) == -2


def test_boundary_inner_product_vanishes_on_cycles():
    h = parallel_edges()
    cycle = Chain(1, {0: 1, 1: -1}, Ring.INTEGER)
    anything = Chain(1, {0: 4, 1: 7}, Ring.INTEGER)
    assert boundary_inner_product(h, cycle, anything) == 0
    assert boundary_inner_product(h, anything, cycle) == 0


def test_boundary_inner_product_ring_mismatch():
    h = parallel_edges()
    integer, rational = Chain.unit(1, 0, Ring.INTEGER), Chain.unit(1, 0, Ring.RATIONAL)
    for x, y in ((integer, rational), (rational, integer)):
        with pytest.raises(ValueError, match="ring mismatch"):
            boundary_inner_product(h, x, y)


def test_canonical_inner_product_examples():
    e0 = Chain.unit(1, 0, Ring.INTEGER)
    e1 = Chain.unit(1, 1, Ring.INTEGER)
    assert canonical_inner_product(e0, e1) == 0
    assert canonical_inner_product(e0, e0) == 1
    assert canonical_inner_product(Chain(1, {0: 2, 1: 3}, Ring.INTEGER), e1) == 3


def _random_chain(rng, m, span=4):
    return Chain(1, {j: rng.randint(-span, span) for j in range(m)}, Ring.INTEGER)


def test_symmetry_and_two_formula_agreement():
    rng = random.Random(11)
    for h in hypergraph_suite()[:60]:
        m = h.edge_count
        x = _random_chain(rng, m)
        y = _random_chain(rng, m)
        value = boundary_inner_product(h, x, y)
        assert value == boundary_inner_product(h, y, x)
        # definitional form: evaluate the pairing functional of x on y
        assert value == boundary_functional(h, x)(y)


def test_positive_definite_modulo_cycles():
    rng = random.Random(12)
    checked = 0
    for h in hypergraph_suite()[:80]:
        x = _random_chain(rng, h.edge_count)
        if boundary(h, x).is_zero():
            assert boundary_inner_product(h, x, x) == 0
        else:
            assert boundary_inner_product(h, x, x) > 0
            checked += 1
    assert checked > 20


def test_matrix_agrees_with_definition():
    rng = random.Random(13)
    for h in hypergraph_suite()[:40]:
        n, m = h.vertex_count, h.edge_count
        matrix = boundary_matrix(h, Ring.INTEGER)
        x = _random_chain(rng, m)
        assert dense_apply(matrix.entries, x.to_vector(m), 0) == boundary(h, x).to_vector(n)
        phi = Cochain(0, {i: rng.randint(-3, 3) for i in range(n)}, Ring.INTEGER)
        transpose = matrix.transpose().entries
        assert dense_apply(transpose, phi.to_vector(n), 0) == coboundary(h, phi).to_vector(m)


def test_graph_boundary_is_head_minus_tail():
    h = OrientedHypergraph(["u", "v", "w"], [({"u"}, {"v"}), ({"w"}, {"v"})])
    assert all(len(tails) == len(heads) == 1 for tails, heads in h.edges)
    for j, (tail, head) in enumerate([("u", "v"), ("w", "v")]):
        image = boundary(h, Chain.unit(1, j, Ring.INTEGER))
        expected = Chain(
            0,
            {h.vertex_index[head]: 1, h.vertex_index[tail]: -1},
            Ring.INTEGER,
        )
        assert image == expected


def test_boundary_functional_values_on_main_example():
    h = main_example()
    functional = boundary_functional(h, Chain.unit(1, 0, Ring.INTEGER))
    # oracle: multiply the Gram matrix of the boundary columns by hand
    matrix = boundary_matrix(h, Ring.INTEGER)
    columns = [column(matrix, j) for j in range(3)]
    expected = [sum(a * b for a, b in zip(columns[j], columns[0])) for j in range(3)]
    assert expected == [3, -1, -1]
    assert functional.to_vector(3) == expected


def test_boundary_functional_of_cycle_is_zero():
    h = parallel_edges()
    cycle = Chain(1, {0: 1, 1: -1}, Ring.INTEGER)
    assert boundary_functional(h, cycle).is_zero()
