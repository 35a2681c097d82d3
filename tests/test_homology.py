import random

import pytest
from hypothesis import given, settings, strategies as st

from hyperhomology import (
    Chain,
    Cochain,
    GraphLikenessReport,
    ModuleStructure,
    OrientedHypergraph,
    Ring,
    SpanningTree,
    boundary,
    boundary_functional,
    boundary_matrix,
    chain_to_cochain,
    coboundary,
    cycle_cut_decomposition,
    canonical_inner_product,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    graph_likeness,
    homology,
    main_example,
    parallel_edges,
    path_graph,
    smith_normal_form,
    triangle_graph,
    verify_tree_axioms,
)

from oracles import (
    annihilator_basis,
    annihilator_of_cycles,
    boundary_functional_injectivity_check,
    boundary_functional_lattice,
    boundary_gram,
    canonical_type,
    cohomology_hom_iso_check,
    column,
    cycles_equal_cut_perp_check,
    dense_apply,
    dense_smith_normal_form,
    disjoint_union,
    dot,
    fraction_det,
    fraction_rank,
    hypergraph_suite,
    image_basis,
    image_rank,
    is_direct_summand,
    kernel_basis,
    lattice_contains,
    minor_gcd_divisors,
    mutually_orthogonal,
    parallel_edge_suite,
    random_connected_graph,
    represents_dualized_boundary,
    seeded_suite,
    solve_integer,
    spanning_tree_count,
    stacked_smith_missing_chain,
    sublattice_equal,
    tree_outcome_suite,
)
from test_shared_smith_form import hypergraphs


def test_homology_main_example_integer():
    report = homology(main_example(), Ring.INTEGER)
    assert report.h1 == ModuleStructure(0, ())
    assert report.h1_basis == ()
    assert report.h1_cohomology == ModuleStructure(0, (2, 2))
    assert report.rank_image_boundary == 3


def test_homology_connected_graphs_free_of_cycle_rank():
    rng = random.Random(31)
    for _ in range(8):
        h = random_connected_graph(rng)
        cycles = h.edge_count - (h.vertex_count - 1)
        report = homology(h, Ring.INTEGER)
        assert report.h1 == ModuleStructure(cycles, ())
        assert report.h1_cohomology == ModuleStructure(cycles, ())


def test_homology_edgeless():
    h = OrientedHypergraph(["a", "b"], [])
    report = homology(h, Ring.INTEGER)
    assert report.h1.is_trivial
    assert report.h1_cohomology.is_trivial


def test_homology_rational_ranks():
    report = homology(parallel_edges(), Ring.RATIONAL)
    assert report.h1.free_rank == 1 and not report.h1.torsion
    assert report.h1_cohomology.free_rank == 1 and not report.h1_cohomology.torsion
    assert report.h1_basis[0].ring is Ring.RATIONAL


def test_annihilator_of_cycles_main_example_is_everything():
    basis = annihilator_of_cycles(main_example())
    units = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sublattice_equal(basis, units, 3)


def test_annihilator_of_cycles_parallel_edges():
    basis = annihilator_of_cycles(parallel_edges())
    assert sublattice_equal(basis, [[1, 1]], 2)


def test_annihilator_of_cycles_path_graph_equals_coboundary_image():
    h = path_graph()
    basis = annihilator_of_cycles(h)
    coboundaries = image_basis(boundary_matrix(h, Ring.INTEGER).transpose(), Ring.INTEGER)
    assert len(basis) == 2
    assert sublattice_equal(basis, coboundaries, 2)


CONDITIONS = (
    "canonical_iso",
    "annihilator_equals_coboundary_image",
    "cuts_equal_cycle_perp",
    "boundary_image_direct_summand",
    "hom_dual_iso",
)


def test_graph_likeness_report_holds_one_verdict():
    # the five conditions are equivalent, so the report holds their verdict
    # once and ``conditions`` gives it under each name, in the paper's order
    assert GraphLikenessReport._fields == ("graph_like", "witnesses")
    for verdict in (False, True):
        report = GraphLikenessReport(verdict, ())
        assert list(report.conditions().items()) == [(name, verdict) for name in CONDITIONS]


def test_graph_likeness_on_graphs():
    rng = random.Random(32)
    for _ in range(6):
        h = random_connected_graph(rng)
        report = graph_likeness(h)
        assert report.graph_like
        assert report.witnesses == ()


def test_graph_likeness_main_example_all_false_with_witness():
    h = main_example()
    report = graph_likeness(h)
    assert not report.graph_like
    by_condition = {w.condition: w for w in report.witnesses}
    witness = by_condition["annihilator_equals_coboundary_image"]
    assert witness.coefficients == (1, 0, 0)
    # the witness really lies in the annihilator but not in the coboundary image
    transpose = boundary_matrix(h, Ring.INTEGER).transpose()
    assert solve_integer(transpose, list(witness.coefficients)) is None
    summand_witness = by_condition["boundary_image_direct_summand"]
    vector = list(summand_witness.coefficients)
    matrix = boundary_matrix(h, Ring.INTEGER)
    columns = [column(matrix, j) for j in range(3)]
    assert not lattice_contains(columns, vector, 3)
    assert lattice_contains(columns, [2 * x for x in vector], 3)


def test_graph_likeness_single_wide_edge():
    h = OrientedHypergraph(["a", "b", "c"], [({"a"}, {"b", "c"})])
    # oracle: the single boundary column has unit divisor
    matrix = boundary_matrix(h, Ring.INTEGER)
    assert minor_gcd_divisors([list(r) for r in matrix.entries]) == (1,)
    report = graph_likeness(h)
    assert report.graph_like


def test_graph_likeness_conditions_agree_on_random_suite():
    # every condition carries the verdict of the minor-gcd divisors
    for h in hypergraph_suite()[:60]:
        entries = [list(r) for r in boundary_matrix(h, Ring.INTEGER).entries]
        verdict = all(d == 1 for d in minor_gcd_divisors(entries))
        assert set(graph_likeness(h).conditions().values()) == {verdict}


def test_graph_likeness_matches_reference_routes_and_witnesses_certify():
    # the report decides all five conditions by one verdict (every divisor of
    # the boundary matrix is 1); here each condition is decided by its own
    # route, and each witness is checked by integer solving
    non_graph_like = 0
    for h in hypergraph_suite(200) + (main_example(),):
        m = h.edge_count
        matrix = boundary_matrix(h, Ring.INTEGER)
        transpose = matrix.transpose()
        cycles = kernel_basis(matrix, Ring.INTEGER)
        coboundaries = image_basis(transpose, Ring.INTEGER)
        report = graph_likeness(h)
        routes = [
            is_direct_summand(matrix),
            cohomology_hom_iso_check(h),
            sublattice_equal(annihilator_of_cycles(h), coboundaries, m),
            sublattice_equal(coboundaries, annihilator_basis(cycles, m), m),
        ]
        assert routes == [report.graph_like] * 4
        # the converse lattice equality holds for every hypergraph
        assert cycles_equal_cut_perp_check(h).equal
        if report.graph_like:
            assert report.witnesses == ()
            continue
        non_graph_like += 1
        witnesses = {w.condition: list(w.coefficients) for w in report.witnesses}
        assert list(witnesses) == list(CONDITIONS)
        for condition in (
            "canonical_iso",
            "annihilator_equals_coboundary_image",
            "cuts_equal_cycle_perp",
        ):
            w = witnesses[condition]
            assert all(dot(w, cycle) == 0 for cycle in cycles)
            assert solve_integer(transpose, w) is None
        diagonal = smith_normal_form(matrix).diagonal
        position, divisor = next((i, d) for i, d in enumerate(diagonal) if d > 1)
        # the replayed row log gives the column of the textbook U^-1
        want = column(dense_smith_normal_form(matrix).u_inverse, position)
        assert witnesses["boundary_image_direct_summand"] == want
        for condition, lattice in (
            ("boundary_image_direct_summand", matrix),
            ("hom_dual_iso", transpose),
        ):
            w = witnesses[condition]
            assert solve_integer(lattice, w) is None
            assert solve_integer(lattice, [divisor * x for x in w]) is not None
    assert non_graph_like >= 10


def test_rational_decomposition_parallel_edges():
    report = cycle_cut_decomposition(parallel_edges(), Ring.RATIONAL)
    assert report.ring is Ring.RATIONAL
    (cycle,) = report.cycle_basis
    (cut,) = report.cut_basis
    assert cycle.coefficient(0) == -cycle.coefficient(1) != 0
    assert cut.coefficient(0) == cut.coefficient(1) != 0
    assert canonical_inner_product(cycle, cut) == 0
    assert report.spans_all_chains


def test_rational_decomposition_main_example():
    report = cycle_cut_decomposition(main_example(), Ring.RATIONAL)
    assert report.cycle_basis == ()
    assert len(report.cut_basis) == 3
    assert report.spans_all_chains


def test_rational_decomposition_edgeless():
    h = OrientedHypergraph(["a"], [])
    report = cycle_cut_decomposition(h, Ring.RATIONAL)
    assert report.cycle_basis == () and report.cut_basis == ()
    assert report.spans_all_chains


def test_integer_decomposition_parallel_edges_misses_an_edge():
    report = cycle_cut_decomposition(parallel_edges(), Ring.INTEGER)
    chains = report.cycle_basis + report.cut_basis
    assert mutually_orthogonal(report.cycle_basis, report.cut_basis)
    assert fraction_rank([c.to_vector(2) for c in chains]) == len(chains) == 2
    assert not report.spans_all_chains
    assert report.missing_chain is not None
    # the first standard edge chain is already outside the sum
    assert report.missing_chain == Chain.unit(1, 0, Ring.INTEGER)


def test_integer_decomposition_triangle_misses_an_edge():
    report = cycle_cut_decomposition(triangle_graph(), Ring.INTEGER)
    chains = report.cycle_basis + report.cut_basis
    assert fraction_rank([c.to_vector(3) for c in chains]) == len(chains) == 3
    assert not report.spans_all_chains


def test_integer_cycle_cut_intersection_always_trivial():
    for h in hypergraph_suite():
        m = h.edge_count
        for ring in (Ring.INTEGER, Ring.RATIONAL):
            report = cycle_cut_decomposition(h, ring)
            assert mutually_orthogonal(report.cycle_basis, report.cut_basis)
            vectors = [c.to_vector(m) for c in report.cycle_basis + report.cut_basis]
            # independent m vectors: they meet only in 0 and number m
            assert fraction_rank(vectors) == len(vectors) == m, (h, ring)
            if ring is Ring.RATIONAL:
                assert report.spans_all_chains, h


def _report_chains(h):
    """Every chain the reports and trees of ``h`` hand out, with its ring."""
    for ring in (Ring.INTEGER, Ring.RATIONAL):
        yield from ((ring, c) for c in homology(h, ring).h1_basis)
        report = cycle_cut_decomposition(h, ring)
        yield from ((ring, c) for c in report.cycle_basis + report.cut_basis)
        if report.missing_chain is not None:
            yield ring, report.missing_chain
    for tree in (find_spanning_tree_rational(h), find_spanning_tree_integer(h)):
        if tree is not None:
            chains = [*tree.fundamental_cuts.values(), *tree.fundamental_cycles.values()]
            yield from ((tree.ring, c) for c in chains)


def test_report_chains_are_canonical_with_ring_typed_values():
    # the reports wrap the eliminations' dicts without coercion, so each
    # chain must be exactly what the public constructor makes of its dense
    # vector: nonzero values, ascending indices, int over the integers and,
    # over the rationals, int where integral and Fraction elsewhere
    seen = set()
    for h in hypergraph_suite(200):
        m = h.edge_count
        for ring, chain in _report_chains(h):
            assert chain.ring is ring and chain.dimension == 1
            # no report hands out a zero chain, so the text form has no "0" case
            assert chain.coefficients
            assert all(type(x) is canonical_type(x) and x for x in chain.coefficients.values())
            if ring is Ring.INTEGER:
                assert all(type(x) is int for x in chain.coefficients.values())
            rebuilt = Chain(1, dict(enumerate(chain.to_vector(m))), ring)
            assert chain == rebuilt and repr(chain) == repr(rebuilt), (h, chain)
            seen.add(ring)
    assert seen == set(Ring)


def _integer_spanning_suites():
    yield from hypergraph_suite(200)
    yield from seeded_suite(300, 901, allow_empty_edges=True)
    yield from seeded_suite(300, 902, max_arity=1)


def test_integer_spanning_check_matches_stacked_smith_oracle():
    # the criterion read off the Smith form of B decides what the Smith form
    # of the stacked cycle and cut bases decides, with the same first edge
    outcomes = set()
    empty_edges = 0
    for h in _integer_spanning_suites():
        m = h.edge_count
        report = cycle_cut_decomposition(h, Ring.INTEGER)
        missing = stacked_smith_missing_chain(
            [c.to_vector(m) for c in report.cycle_basis],
            [c.to_vector(m) for c in report.cut_basis],
            m,
        )
        assert report.spans_all_chains == (missing is None), h
        expected = None if missing is None else Chain.unit(1, missing, Ring.INTEGER)
        assert report.missing_chain == expected, h
        outcomes.add(report.spans_all_chains)
        empty_edges += any(not t and not hd for t, hd in h.edges)
    assert outcomes == {True, False}
    assert empty_edges >= 50


def test_integer_decomposition_index_is_spanning_tree_count():
    # Bacher, de la Harpe and Nagnibeda (1997): for a connected graph the
    # sum of the integral flow and cut lattices has index the number of
    # spanning trees in the integer 1-chains
    rng = random.Random(34)
    counts = set()
    for _ in range(25):
        h = random_connected_graph(rng)
        report = cycle_cut_decomposition(h, Ring.INTEGER)
        m = h.edge_count
        columns = [c.to_vector(m) for c in report.cycle_basis + report.cut_basis]
        count = spanning_tree_count(h)
        assert abs(fraction_det(columns)) == count, h
        assert report.spans_all_chains == (count == 1), h
        counts.add(count)
    assert 1 in counts and len(counts) > 3


def test_mutual_orthogonality_matches_pairwise_products():
    rng = random.Random(35)
    outcomes = set()
    for _ in range(300):
        ring = rng.choice([Ring.INTEGER, Ring.RATIONAL])

        def family():
            return [
                Chain(1, {j: rng.randint(-2, 2) for j in rng.sample(range(6), rng.randint(0, 3))}, ring)
                for _ in range(rng.randint(0, 3))
            ]

        cycles, cuts = family(), family()
        expected = all(canonical_inner_product(z, c) == 0 for z in cycles for c in cuts)
        assert mutually_orthogonal(cycles, cuts) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


@settings(derandomize=True, database=None, deadline=None)
@given(hypergraphs, st.booleans())
def test_decomposition_flags_hold_on_generated_hypergraphs(h, with_main_example):
    # the bases are orthogonal, independent and m in number by construction;
    # the oracle pass and a rational rank check that here
    if with_main_example:
        h = disjoint_union(h, main_example())
    m = h.edge_count
    for ring in (Ring.INTEGER, Ring.RATIONAL):
        report = cycle_cut_decomposition(h, ring)
        cycles = [c.to_vector(m) for c in report.cycle_basis]
        cuts = [c.to_vector(m) for c in report.cut_basis]
        assert mutually_orthogonal(report.cycle_basis, report.cut_basis)
        assert fraction_rank(cycles + cuts) == len(cycles + cuts) == m
        # over the rationals the two bases span every chain
        expected = None
        if ring is Ring.INTEGER:
            missing = stacked_smith_missing_chain(cycles, cuts, m)
            expected = None if missing is None else Chain.unit(1, missing, Ring.INTEGER)
        assert report.missing_chain == expected
        assert report.spans_all_chains == (expected is None)


def test_cycles_equal_cut_perp_everywhere():
    assert cycles_equal_cut_perp_check(main_example()).equal
    assert cycles_equal_cut_perp_check(parallel_edges()).equal
    for h in hypergraph_suite()[:60]:
        result = cycles_equal_cut_perp_check(h)
        assert result.equal and result.witness is None


def test_functional_lattice_contained_in_coboundary_image():
    for h in hypergraph_suite()[:40]:
        m = h.edge_count
        functional = boundary_functional_lattice(h)
        coboundaries = image_basis(
            boundary_matrix(h, Ring.INTEGER).transpose(), Ring.INTEGER
        )
        for generator in functional:
            assert lattice_contains(coboundaries, generator, m)


def test_functional_lattice_proper_on_main_example():
    h = main_example()
    functional = boundary_functional_lattice(h)
    transpose = boundary_matrix(h, Ring.INTEGER).transpose()
    # witness: the coboundary of the first vertex indicator is not a functional
    witness = dense_apply(transpose.entries, [1, 0, 0], 0)
    assert not lattice_contains(functional, witness, 3)
    coboundaries = image_basis(transpose, Ring.INTEGER)
    assert lattice_contains(coboundaries, witness, 3)


def test_zero_is_in_functional_lattice_and_classes():
    h = main_example()
    assert lattice_contains(boundary_functional_lattice(h), [0, 0, 0], 3)
    assert represents_dualized_boundary(h, Cochain.zero(0, Ring.INTEGER))


def test_vertex_indicator_not_dualized_boundary_on_graphs():
    rng = random.Random(33)
    for _ in range(6):
        h = random_connected_graph(rng)
        phi = Cochain.unit(0, 0, Ring.INTEGER)
        assert not represents_dualized_boundary(h, phi)


def test_dualized_boundaries_are_members():
    rng = random.Random(34)
    for h in hypergraph_suite()[:20]:
        x = Chain(
            1,
            {j: rng.randint(-3, 3) for j in range(h.edge_count)},
            Ring.INTEGER,
        )
        candidate = chain_to_cochain(boundary(h, x))
        assert represents_dualized_boundary(h, candidate)


def test_functional_injectivity_check():
    h = main_example()
    matrix = boundary_matrix(h, Ring.INTEGER)
    gram = boundary_gram(matrix)
    # elimination oracle agrees that the functional map has full rank here
    assert fraction_rank([list(r) for r in gram.entries]) == 3
    assert image_rank(gram) == 3
    assert boundary_functional_injectivity_check(h)
    for hyper in hypergraph_suite()[:30]:
        assert boundary_functional_injectivity_check(hyper, samples=10)


def test_hom_iso_check_examples():
    assert not cohomology_hom_iso_check(main_example())
    assert cohomology_hom_iso_check(path_graph())
    assert cohomology_hom_iso_check(OrientedHypergraph(["a"], []))


def test_homology_integer_always_free_of_expected_rank():
    for h in hypergraph_suite()[:60]:
        report = homology(h, Ring.INTEGER)
        expected = h.edge_count - report.rank_image_boundary
        assert report.h1 == ModuleStructure(expected, ())


def test_both_reports_read_one_pair_of_bases():
    # ``homology`` and ``cycle_cut_decomposition`` take their bases from one
    # reader: the same cycles, and a boundary rank equal to the number of
    # cuts, in both rings
    for h in hypergraph_suite() + parallel_edge_suite():
        for ring in Ring:
            report, decomposition = homology(h, ring), cycle_cut_decomposition(h, ring)
            assert report.h1_basis == decomposition.cycle_basis, (h, ring)
            assert report.rank_image_boundary == len(decomposition.cut_basis), (h, ring)


def test_integer_homology_wraps_no_cut(monkeypatch):
    # the cuts are built only when they are read, so an integer ``homology``
    # wraps its m - r cycles and nothing else
    wrapped = []
    of = Chain._of.__func__

    def counted(cls, *args):
        wrapped.append(cls)
        return of(cls, *args)

    monkeypatch.setattr(Chain, "_of", classmethod(counted))
    for h in hypergraph_suite() + parallel_edge_suite():
        h = OrientedHypergraph(h.vertices, h.edges)
        wrapped.clear()
        report = homology(h, Ring.INTEGER)
        assert len(wrapped) == h.edge_count - report.rank_image_boundary, h
        assert len(wrapped) == len(report.h1_basis)


def test_integer_tree_implies_perp_equality_and_summand():
    found = 0
    for h in hypergraph_suite()[:50]:
        tree = find_spanning_tree_integer(h)
        if tree is None:
            continue
        found += 1
        matrix = boundary_matrix(h, Ring.INTEGER)
        m = h.edge_count
        cuts = image_basis(matrix.transpose(), Ring.INTEGER)
        cycle_perp = annihilator_basis(kernel_basis(matrix, Ring.INTEGER), m)
        assert sublattice_equal(cuts, cycle_perp, m)
        assert is_direct_summand(matrix.transpose())
    assert found > 10


def _verify_over(h, ring):
    """``verify_tree_axioms`` on h's rational tree, relabelled as over ``ring``."""
    tree = find_spanning_tree_rational(h)
    cuts, cycles = tree.fundamental_cuts, tree.fundamental_cycles
    return verify_tree_axioms(h, SpanningTree(tree.tree_edges, cuts, cycles, ring))


@pytest.mark.parametrize("entry_point", [homology, cycle_cut_decomposition, _verify_over])
@pytest.mark.parametrize("ring", ["int", "rat", None])
def test_a_ring_that_is_not_a_ring_is_refused(entry_point, ring):
    # "int" is Ring.INTEGER's value, not the ring: read as the rationals it
    # would report main_example's cohomology without its torsion
    h = OrientedHypergraph(main_example().vertices, main_example().edges)
    with pytest.raises(TypeError, match="^ring must be a Ring, not "):
        entry_point(h, ring)
    assert "_smith_form" not in vars(h)


def test_every_chain_lists_its_indices_ascending():
    # the rule ``core`` states and the command line relies on when it
    # prints a chain or a tree as built: bases of both reports in both
    # rings, the missing chain, and both finders' cuts and cycles, keyed
    # ascending and each ascending
    chains = 0
    for h in tree_outcome_suite():
        found = []
        for ring in Ring:
            decomposition = cycle_cut_decomposition(h, ring)
            found += homology(h, ring).h1_basis
            found += decomposition.cycle_basis + decomposition.cut_basis
            found += [decomposition.missing_chain] if decomposition.missing_chain else []
        for tree in (find_spanning_tree_rational(h), find_spanning_tree_integer(h)):
            if tree is None:
                continue
            for family in (tree.fundamental_cuts, tree.fundamental_cycles):
                assert list(family) == sorted(family), (h, tree)
                found += family.values()
        for chain in found:
            assert list(chain.coefficients) == sorted(chain.coefficients), (h, chain)
        chains += len(found)
    assert chains > 10_000
    # and every other way of making a chain or a cochain: the boundary
    # calculus, the constructors and ``_of`` given a descending dict, and
    # arithmetic, whose sums append the indices new to the left operand
    for h in hypergraph_suite(200):
        n, m = h.vertex_count, h.edge_count
        for ring in Ring:
            other = Ring.RATIONAL if ring is Ring.INTEGER else Ring.INTEGER
            edges = Chain(1, {j: j + 1 for j in reversed(range(m))}, ring)
            odd = Chain(1, {j: -1 for j in range(1, m, 2)}, ring)
            even = Chain._of(1, {j: 1 for j in reversed(range(0, m, 2))}, ring)
            phi = Cochain(0, {i: i - 1 for i in reversed(range(n))}, ring)
            found = [
                edges,
                odd,
                even,
                phi,
                Cochain(1, {j: 2 for j in reversed(range(m))}, ring),
                Cochain._of(0, {i: 1 for i in reversed(range(n))}, ring),
                boundary(h, edges),
                coboundary(h, phi),
                boundary_functional(h, edges),
                odd + even,
                odd - even,
                -edges,
                edges.scale(3),
                3 * odd,
                edges.with_ring(other),
                Cochain.unit(0, n - 1, ring) + phi,
            ]
            found += [Chain.unit(1, j, ring) + even for j in range(m)]
            for chain in found:
                assert list(chain.coefficients) == sorted(chain.coefficients), (h, chain)
                assert chain.support == tuple(sorted(chain.coefficients)), (h, chain)
