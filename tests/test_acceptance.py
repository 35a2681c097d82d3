"""Acceptance suite: every criterion at its stated tolerance.

All arithmetic is exact, so every comparison below is equality, not
approximation.  Each criterion prints one PASS/FAIL line (visible with
``pytest -s``).
"""

import random
from contextlib import contextmanager

from hyperhomology import (
    Chain,
    ExactMatrix,
    ModuleStructure,
    Ring,
    boundary,
    boundary_functional,
    boundary_inner_product,
    boundary_matrix,
    cycle_cut_decomposition,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    graph_likeness,
    homology,
    main_example,
    parallel_edges,
    smith_normal_form,
    verify_tree_axioms,
)

from oracles import (
    annihilator_basis,
    annihilator_of_cycles,
    boundary_functional_lattice,
    candidate_tree_is_integral,
    cycles_equal_cut_perp_check,
    dense_apply,
    enumerate_rational_candidate_trees,
    fraction_det,
    fraction_rank,
    hypergraph_suite,
    image_basis,
    image_rank,
    is_combinatorial_spanning_tree,
    is_direct_summand,
    kernel_basis,
    lattice_contains,
    minor_gcd_divisors,
    random_connected_graph,
    snf_reproduces,
    solve_integer,
    sublattice_equal,
    tree_cut,
    tree_path_cycle,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def test_criterion_1_main_example_exact():
    with criterion("criterion 1 (main example, exact reproduction)"):
        h = main_example()
        matrix = boundary_matrix(h, Ring.INTEGER)
        transpose = matrix.transpose()
        m = h.edge_count

        # boundary map injective in both rings
        assert kernel_basis(matrix, Ring.INTEGER) == []
        assert kernel_basis(matrix, Ring.RATIONAL) == []

        # elementary divisors, frozen from the minor-gcd oracle
        oracle_divisors = minor_gcd_divisors([list(r) for r in matrix.entries])
        assert oracle_divisors == (1, 2, 2)
        assert smith_normal_form(matrix).diagonal == (1, 2, 2)

        # neither image is a direct summand
        assert not is_direct_summand(matrix)
        assert not is_direct_summand(transpose)

        # coboundary map injective
        assert kernel_basis(transpose, Ring.INTEGER) == []

        # annihilator strictly contains the coboundary image, with witness
        annihilator = annihilator_of_cycles(h)
        coboundaries = image_basis(transpose, Ring.INTEGER)
        for generator in coboundaries:
            assert lattice_contains(annihilator, generator, m)
        assert not sublattice_equal(annihilator, coboundaries, m)
        report = graph_likeness(h)
        witness = next(
            w
            for w in report.witnesses
            if w.condition == "annihilator_equals_coboundary_image"
        )
        assert witness.coefficients == (1, 0, 0)
        assert lattice_contains(annihilator, list(witness.coefficients), m)
        assert solve_integer(transpose, list(witness.coefficients)) is None

        # functional lattice strictly inside the coboundary image, with witness
        functional = boundary_functional_lattice(h)
        for generator in functional:
            assert lattice_contains(coboundaries, generator, m)
        d_witness = dense_apply(transpose.entries, [1, 0, 0], 0)
        assert lattice_contains(coboundaries, d_witness, m)
        assert not lattice_contains(functional, d_witness, m)

        # cohomology is 2-torsion squared; homology is trivial, so they differ
        groups = homology(h, Ring.INTEGER)
        assert groups.h1 == ModuleStructure(0, ())
        assert groups.h1_cohomology == ModuleStructure(0, (2, 2))
        assert groups.h1 != groups.h1_cohomology

        # the five conditions are all false
        assert set(report.conditions().values()) == {False}

        # exhaustive integer-tree search returns none without hitting a limit
        assert find_spanning_tree_integer(h, search_limit=10) is None


def test_criterion_2_parallel_edges_exact():
    with criterion("criterion 2 (parallel edges, exact reproduction)"):
        h = parallel_edges()
        matrix = boundary_matrix(h, Ring.INTEGER)
        m = h.edge_count

        cycles = kernel_basis(matrix, Ring.INTEGER)
        assert sublattice_equal(cycles, [[1, -1]], m)
        cuts = image_basis(matrix.transpose(), Ring.INTEGER)
        assert sublattice_equal(cuts, [[1, 1]], m)

        report = cycle_cut_decomposition(h, Ring.INTEGER)
        assert report.intersection_trivial
        assert report.mutually_orthogonal

        # the second edge is outside the sum of the two lattices
        combined = cycles + cuts
        assert not lattice_contains(combined, [0, 1], m)
        assert not report.spans_all_chains

        # each lattice plus that edge is the whole 1-chain lattice
        units = [[1, 0], [0, 1]]
        assert sublattice_equal(cycles + [[0, 1]], units, m)
        assert sublattice_equal(cuts + [[0, 1]], units, m)

        likeness = graph_likeness(h)
        assert likeness.graph_like
        assert set(likeness.conditions().values()) == {True}


def test_criterion_3_graph_suite():
    with criterion("criterion 3 (graph suite, 100 random connected graphs)"):
        rng = random.Random(2024)
        for _ in range(100):
            h = random_connected_graph(rng)
            matrix = boundary_matrix(h, Ring.INTEGER)
            assert is_direct_summand(matrix)
            assert is_direct_summand(matrix.transpose())

            tree = find_spanning_tree_integer(h)
            assert tree is not None
            assert is_combinatorial_spanning_tree(h, tree.tree_edges)
            for chord, cycle in tree.fundamental_cycles.items():
                assert dict(cycle.coefficients) == tree_path_cycle(
                    h, tree.tree_edges, chord
                )
            for t, cut in tree.fundamental_cuts.items():
                assert dict(cut.coefficients) == tree_cut(h, tree.tree_edges, t)


def test_criterion_4_hypergraph_property_suite():
    with criterion("criterion 4 (hypergraph property suite, 200 instances)"):
        rng = random.Random(4040)
        for h in hypergraph_suite(200):
            m = h.edge_count
            matrix = boundary_matrix(h, Ring.INTEGER)

            x = Chain(1, {j: rng.randint(-4, 4) for j in range(m)}, Ring.INTEGER)
            y = Chain(1, {j: rng.randint(-4, 4) for j in range(m)}, Ring.INTEGER)
            pairing = boundary_inner_product(h, x, y)
            assert pairing == boundary_inner_product(h, y, x)
            assert pairing == boundary_functional(h, x)(y)
            self_pairing = boundary_inner_product(h, x, x)
            if boundary(h, x).is_zero():
                assert self_pairing == 0
            else:
                assert self_pairing > 0

            tree = find_spanning_tree_rational(h)
            assert verify_tree_axioms(h, tree).ok

            decomposition = cycle_cut_decomposition(h, Ring.RATIONAL)
            assert decomposition.dimensions_sum_to_edge_count
            assert decomposition.mutually_orthogonal
            assert decomposition.spans_all_chains

            assert cycles_equal_cut_perp_check(h).equal

            likeness = graph_likeness(h)
            assert len(set(likeness.conditions().values())) == 1

            groups = homology(h, Ring.INTEGER)
            assert groups.h1 == ModuleStructure(m - image_rank(matrix), ())


def test_criterion_5_conditional_properties():
    with criterion("criterion 5 (conditional properties on the same suite)"):
        integral_found = 0
        for h in hypergraph_suite(200):
            m = h.edge_count
            matrix = boundary_matrix(h, Ring.INTEGER)

            tree = find_spanning_tree_integer(h)
            if tree is not None:
                integral_found += 1
                cuts = image_basis(matrix.transpose(), Ring.INTEGER)
                cycle_perp = annihilator_basis(kernel_basis(matrix, Ring.INTEGER), m)
                assert sublattice_equal(cuts, cycle_perp, m)
                assert is_direct_summand(matrix.transpose())

            some_integral = any(
                candidate_tree_is_integral(h, cuts, cycles)
                for _, cuts, cycles in enumerate_rational_candidate_trees(h)
            )
            assert (tree is not None) == some_integral
        assert integral_found >= 50


def test_criterion_6_snf_kernel():
    with criterion("criterion 6 (Smith normal form, 500 random matrices)"):
        rng = random.Random(6006)
        for _ in range(500):
            rows = rng.randint(0, 8)
            cols = rng.randint(0, 8)
            matrix = ExactMatrix(
                [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)],
                Ring.INTEGER,
                cols=cols,
            )
            decomposition = smith_normal_form(matrix)
            assert snf_reproduces(decomposition, matrix)
            assert abs(fraction_det(decomposition.u.entries)) == 1
            assert abs(fraction_det(decomposition.v.entries)) == 1
            diagonal = decomposition.diagonal
            assert all(d > 0 for d in diagonal)
            assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
            for i in range(decomposition.s.rows):
                for j in range(decomposition.s.cols):
                    if i != j:
                        assert decomposition.s.row(i)[j] == 0
            assert len(diagonal) == fraction_rank(matrix.entries)
