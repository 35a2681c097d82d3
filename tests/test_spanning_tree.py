import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from hyperhomology import (
    Chain,
    ExactMatrix,
    InternalInconsistencyError,
    OrientedHypergraph,
    Ring,
    SearchLimitExceeded,
    SpanningTree,
    TreeAxiomsReport,
    boundary_matrix,
    canonical_inner_product,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    graph_likeness,
    is_integral,
    main_example,
    parallel_edges,
    smith_normal_form,
    triangle_graph,
    vector_space_spanning_tree,
    verify_tree_axioms,
)
from hyperhomology import exact_linalg, spanning_tree

from oracles import (
    candidate_tree_is_integral,
    column,
    dense_rref_tree,
    disjoint_union,
    enumerate_rational_candidate_trees,
    fraction_rank,
    graph_like_without_integer_tree,
    grid_graph,
    hypergraph_suite,
    image_rank,
    integer_tree_lattice_checks,
    is_combinatorial_spanning_tree,
    kernel_basis,
    lexicographic_integer_tree_edges,
    parallel_edge_suite,
    prefix_walk_over_boundary,
    random_connected_graph,
    reference_tree_axioms,
    seeded_suite,
    solve_rational,
    tree_cut,
    tree_outcome_suite,
    tree_path_cycle,
    two_rref_vector_space_tree,
)


def test_triangle_tree_and_fundamental_cycle():
    tree = find_spanning_tree_rational(triangle_graph())
    assert tree.tree_edges == (0, 1)
    cycle = tree.fundamental_cycles[2]
    assert cycle == Chain(1, {2: 1, 0: -1, 1: -1}, Ring.RATIONAL)
    cut_first = tree.fundamental_cuts[0]
    assert cut_first.coefficient(0) == 1 and cut_first.coefficient(1) == 0


def test_main_example_tree_is_whole_edge_set():
    tree = find_spanning_tree_rational(main_example())
    assert tree.tree_edges == (0, 1, 2)
    assert tree.fundamental_cycles == {}
    for t in range(3):
        assert tree.fundamental_cuts[t] == Chain.unit(1, t, Ring.RATIONAL)


def test_single_empty_edge_tree():
    h = OrientedHypergraph(["a"], [(set(), set())])
    tree = find_spanning_tree_rational(h)
    assert tree.tree_edges == ()
    assert tree.fundamental_cycles[0] == Chain.unit(1, 0, Ring.RATIONAL)
    assert verify_tree_axioms(h, tree).ok


def test_rational_tree_exists_and_verifies_everywhere():
    for h in hypergraph_suite()[:60]:
        tree = find_spanning_tree_rational(h)
        report = verify_tree_axioms(h, tree)
        assert report.ok, (h, report)


TREE_AXIOMS = (
    "cut_kronecker",
    "cycle_kronecker",
    "cycles_are_cycles",
    "cuts_are_cuts",
    "counts_consistent",
    "cuts_span",
    "cycles_span",
)


def test_tree_verdict_follows_every_field():
    # ``ok`` holds exactly when all seven sub-checks do: one failed field
    # alone, whichever it is, makes it False
    assert TreeAxiomsReport._fields == TREE_AXIOMS
    holding = dict.fromkeys(TREE_AXIOMS, True)
    assert TreeAxiomsReport(**holding).ok is True
    for name in TREE_AXIOMS:
        assert TreeAxiomsReport(**{**holding, name: False}).ok is False, name


def test_perturbed_cycle_fails_verification():
    h = triangle_graph()
    tree = find_spanning_tree_rational(h)
    t = tree.tree_edges[0]
    bad_cycles = {
        e: cycle + Chain.unit(1, t, Ring.RATIONAL)
        for e, cycle in tree.fundamental_cycles.items()
    }
    bad = SpanningTree(tree.tree_edges, tree.fundamental_cuts, bad_cycles, Ring.RATIONAL)
    report = verify_tree_axioms(h, bad)
    assert not report.cycles_are_cycles
    assert not report.ok


def test_swapped_cut_labels_fail_verification():
    h = triangle_graph()
    tree = find_spanning_tree_rational(h)
    t1, t2 = tree.tree_edges
    swapped = dict(tree.fundamental_cuts)
    swapped[t1], swapped[t2] = swapped[t2], swapped[t1]
    bad = SpanningTree(tree.tree_edges, swapped, tree.fundamental_cycles, Ring.RATIONAL)
    report = verify_tree_axioms(h, bad)
    assert not report.cut_kronecker
    assert not report.ok


def _scaled(family: dict, q) -> dict:
    """Each chain of ``family`` times the Fraction ``q``, over the rationals."""
    return {
        k: Chain(1, {j: q * x for j, x in c.coefficients.items()}, Ring.RATIONAL)
        for k, c in family.items()
    }


def _has_fraction(family: dict) -> bool:
    return any(x.denominator != 1 for c in family.values() for x in c.coefficients.values())


def test_integer_trees_with_a_fraction_are_reported_not_refused():
    # integer-ring trees that hold a Fraction: a rational tree read over Z
    # (patterns intact), its cycles halved, so 1/2 at their own chords, or
    # its cuts divided by 3 (patterns broken); the family with the Fraction
    # does not span the integer lattice, and no Fraction row reaches a
    # Smith form, where it would be blamed on the package
    reads = ((h, find_spanning_tree_rational(h)) for h in hypergraph_suite(200))
    h, read = next((h, t) for h, t in reads if _has_fraction(t.fundamental_cycles))
    assert verify_tree_axioms(h, read).ok
    triangle = triangle_graph()
    found = find_spanning_tree_integer(triangle)
    edges, cuts, cycles = found.tree_edges, found.fundamental_cuts, found.fundamental_cycles
    cases = [
        (h, read.tree_edges, read.fundamental_cuts, read.fundamental_cycles, "cycles_span"),
        (triangle, edges, cuts, _scaled(cycles, Fraction(1, 2)), "cycles_span"),
        (triangle, edges, _scaled(cuts, Fraction(1, 3)), cycles, "cuts_span"),
    ]
    for hypergraph, tree_edges, tree_cuts, tree_cycles, span in cases:
        tree = SpanningTree(tree_edges, tree_cuts, tree_cycles, Ring.INTEGER)
        report = verify_tree_axioms(hypergraph, tree)
        assert getattr(report, span) is False, (span, report)
        assert is_integral(hypergraph, tree) is False


def test_graph_trees_are_integral():
    rng = random.Random(21)
    for _ in range(10):
        h = random_connected_graph(rng)
        tree = find_spanning_tree_rational(h)
        assert is_integral(h, tree)


def test_main_example_not_integral():
    h = main_example()
    tree = find_spanning_tree_rational(h)
    assert not is_integral(h, tree)


def test_parallel_edges_tree_integral():
    h = parallel_edges()
    tree = find_spanning_tree_rational(h)
    assert tree.tree_edges == (0,)
    assert tree.fundamental_cuts[0] == Chain(1, {0: 1, 1: 1}, Ring.RATIONAL)
    assert tree.fundamental_cycles[1] == Chain(1, {1: 1, 0: -1}, Ring.RATIONAL)
    assert is_integral(h, tree)


def _fresh(h: OrientedHypergraph) -> OrientedHypergraph:
    """An equal hypergraph that holds no Smith form yet: the suites are
    shared between tests, and a form kept by an earlier test would hide
    the factorization a test counts."""
    return OrientedHypergraph(h.vertices, h.edges)


def _record_smith_forms(monkeypatch) -> list:
    """Record the matrix of every Smith form made from now on: the one the
    hypergraph keeps and any other."""
    calls = []
    real = exact_linalg.smith_normal_form

    def recorded(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(spanning_tree, "smith_normal_form", recorded)
    monkeypatch.setattr(exact_linalg, "smith_normal_form", recorded)
    return calls


def _record_eliminations(monkeypatch) -> list:
    """Record the width of every rational elimination made from now on,
    through either module that binds it."""
    widths = []
    real = exact_linalg._rref_tree

    def recorded(rows, cols):
        widths.append(cols)
        return real(rows, cols)

    monkeypatch.setattr(spanning_tree, "_rref_tree", recorded)
    monkeypatch.setattr(exact_linalg, "_rref_tree", recorded)
    return widths


def test_is_integral_factors_the_boundary_matrix_once(monkeypatch):
    # cut membership is read off the Smith form of B itself, not of B^T,
    # and the rational tree, its verification and the integrality test
    # make that one Smith form together
    calls = _record_smith_forms(monkeypatch)
    checked = 0
    for h in (triangle_graph(), parallel_edges(), *hypergraph_suite()):
        h = _fresh(h)
        calls.clear()
        tree = find_spanning_tree_rational(h)
        assert verify_tree_axioms(h, tree).ok
        checked += is_integral(h, tree)
        assert calls == [boundary_matrix(h, Ring.INTEGER)], h
    assert checked > 100


def test_integer_search_main_example_exhausts_to_none():
    assert find_spanning_tree_integer(main_example(), search_limit=100) is None


def test_integer_search_budget_counts_prefixes_tested():
    # a graph-like input without a tree: the walk tests 13 prefixes
    h = graph_like_without_integer_tree()
    for limit in range(13):
        with pytest.raises(SearchLimitExceeded) as info:
            find_spanning_tree_integer(h, search_limit=limit)
        assert info.value.examined == limit
        assert str(info.value) == f"search limit reached after testing {limit} prefixes"
    for limit in (13, 20, 100):
        assert find_spanning_tree_integer(h, search_limit=limit) is None
    # rank 0: the empty prefix is the tree, and no prefix is tested
    edgeless = OrientedHypergraph(["a", "b"], [])
    assert find_spanning_tree_integer(edgeless, search_limit=0).tree_edges == ()


def _budget_suite() -> list:
    """Graph-like inputs for the differential budget test: seeded random
    hypergraphs and graphs, the graph-like input without a tree, and
    disjoint unions that walk one part's choices against another's."""
    rng = random.Random(31)
    seeded = [*seeded_suite(150, 808), *parallel_edge_suite(60, 909)]
    seeded += [random_connected_graph(rng) for _ in range(6)]
    no_tree = graph_like_without_integer_tree()
    unions = [
        disjoint_union(triangle_graph(), no_tree),
        disjoint_union(grid_graph(2, 3), no_tree),
        disjoint_union(no_tree, parallel_edges()),
        disjoint_union(*seeded[:3]),
    ]
    return [h for h in (*seeded, no_tree, *unions) if graph_likeness(h).graph_like]


def test_integer_search_budget_matches_the_walk_over_b():
    # the search walks the columns of W (B = U^-1 [W; 0] with U unimodular,
    # every divisor 1), which are independent and saturated exactly where
    # B's are: it must test the prefixes the walk over B's columns tests
    suite = _budget_suite()
    outcomes = set()
    for h in suite:
        tree_edges, examined = prefix_walk_over_boundary(h)
        found = find_spanning_tree_integer(h, search_limit=examined)
        assert (found and found.tree_edges) == tree_edges, h
        if examined:
            with pytest.raises(SearchLimitExceeded) as info:
                find_spanning_tree_integer(h, search_limit=examined - 1)
            assert info.value.examined == examined - 1, h
        outcomes.add((tree_edges is None, examined > 1))
    assert len(suite) > 100 and outcomes == {(True, True), (False, True), (False, False)}


def test_integer_search_prunes_what_is_not_graph_like():
    # an integer tree T makes im B = im B_T saturated, so an input with an
    # elementary divisor above 1 has none, and no prefix is tested: the
    # union below walks a 2x12 grid's trees against main-example's edges
    # and ran out of a budget of 1,000,000 prefixes before the prune
    union = disjoint_union(grid_graph(2, 12), main_example())
    for h in (main_example(), union):
        assert not graph_likeness(h).graph_like
        assert find_spanning_tree_integer(h, search_limit=0) is None
    assert find_spanning_tree_integer(union) is None


def _grid_with_leading_parallel_edge(rows: int, cols: int) -> OrientedHypergraph:
    """Grid graph whose edge 0 is a parallel copy of its edge 1."""
    grid = grid_graph(rows, cols)
    return OrientedHypergraph(grid.vertices, [grid.edges[0], *grid.edges])


def test_integer_search_passes_the_parallel_edge_cliff():
    # rank 15 of 25 edges: testing every subset in turn rejects the
    # C(23, 13) = 1,144,066 subsets that hold both parallel edges before the
    # first tree; the walk never extends a prefix that holds both
    h = _grid_with_leading_parallel_edge(4, 4)
    tree = find_spanning_tree_integer(h, search_limit=100)
    assert tree is not None
    assert verify_tree_axioms(h, tree).ok
    assert tree.tree_edges[0] == 0 and 1 not in tree.tree_edges
    assert is_combinatorial_spanning_tree(h, tree.tree_edges)
    # a graph's boundary is totally unimodular: the first basis is the greedy one
    assert tree.tree_edges == find_spanning_tree_rational(h).tree_edges


def test_integer_search_factors_only_the_accepted_tree(monkeypatch):
    # no Smith form per prefix: the one Smith form of B gives the rank and
    # the prune, and the verification of the tree found reads it too; no
    # elimination: the tree found is read off the walk's own row log
    calls = _record_smith_forms(monkeypatch)
    eliminations = _record_eliminations(monkeypatch)
    outcomes = set()
    instances = (
        main_example(),
        graph_like_without_integer_tree(),
        _grid_with_leading_parallel_edge(3, 4),
        *hypergraph_suite()[:100],
    )
    for h in map(_fresh, instances):
        calls.clear()
        eliminations.clear()
        tree = find_spanning_tree_integer(h)
        assert calls == [boundary_matrix(h, Ring.INTEGER)], h
        assert eliminations == [], h
        outcomes.add(tree is None)
    assert outcomes == {True, False}


def _tree_outcome(tree) -> str:
    """A tree's edges, cuts and cycles in the order built, each value by
    its ``repr``, so an ``int`` and an equal ``Fraction`` differ."""
    if tree is None:
        return "None"
    cuts, cycles = (
        [(j, list(chain.coefficients.items())) for j, chain in family.items()]
        for family in (tree.fundamental_cuts, tree.fundamental_cycles)
    )
    return repr((tree.tree_edges, cuts, cycles))


def _search_outcome(h, limit: int) -> str:
    try:
        return _tree_outcome(find_spanning_tree_integer(h, search_limit=limit))
    except SearchLimitExceeded as stop:
        return f"limit {stop.examined}"


# The outcomes of the three tree readers on every input of
# ``tree_outcome_suite``, taken before the rational elimination became one
# function: the rational tree, the integer search under six budgets, and
# the vector-space tree of the boundary rows, each with its value types.
_PINNED_TREE_DIGEST = "448a6ad0a5fde146fd17d4c40caf59ccc4ba02c98e8f1afe1b627322b7fddff3"


def test_tree_outcomes_match_pinned_digest():
    digest = hashlib.sha256()
    for k, h in enumerate(tree_outcome_suite()):
        m = h.edge_count
        outcomes = [
            _tree_outcome(find_spanning_tree_rational(h)),
            *(_search_outcome(h, limit) for limit in (0, 1, 3, 7, 50, 10**6)),
            repr(vector_space_spanning_tree(m, boundary_matrix(h, Ring.INTEGER).entries)),
        ]
        digest.update(f"{k} -> {outcomes!r}\n".encode())
    assert digest.hexdigest() == _PINNED_TREE_DIGEST


def test_integer_search_read_matches_dense_oracle():
    # the tree read off the walk's own row log is the RREF of W with the
    # tree's columns first: the same tree, the same cut and cycle keys in
    # the same order, densely equal vectors of nonzero ints, columns
    # ascending
    found = 0
    for h in (*hypergraph_suite(200), *parallel_edge_suite(), grid_graph(30, 30)):
        tree = find_spanning_tree_integer(h)
        if tree is None:
            continue
        found += 1
        m, decomposition = h.edge_count, h._smith_form
        lines = decomposition.v_inverse.lines[: decomposition.rank]
        w = [[line.get(j, 0) for j in range(m)] for line in lines]
        chosen = set(tree.tree_edges)
        order = [*tree.tree_edges, *(e for e in range(m) if e not in chosen)]
        want_tree, want_cuts, want_cycles = dense_rref_tree(w, m, order)
        assert tree.tree_edges == want_tree, h
        for got, want in (
            (tree.fundamental_cuts, want_cuts),
            (tree.fundamental_cycles, want_cycles),
        ):
            assert list(got) == list(want), h
            for j, chain in got.items():
                vector = chain.coefficients
                assert list(vector) == sorted(vector), (h, j)
                assert all(type(x) is int and x for x in vector.values()), (h, j)
                assert [vector.get(k, 0) for k in range(m)] == want[j], (h, j)
    assert found > 400, found


def test_integer_search_matches_lexicographic_enumeration():
    outcomes = []
    for h in (*hypergraph_suite(), *parallel_edge_suite()):
        found = find_spanning_tree_integer(h)
        expected = lexicographic_integer_tree_edges(h)
        assert (found and found.tree_edges) == expected, h
        outcomes.append(expected is None)
    assert sum(outcomes) > 50 and outcomes.count(False) > 400


def test_integer_search_on_connected_graphs():
    rng = random.Random(22)
    for _ in range(10):
        h = random_connected_graph(rng)
        tree = find_spanning_tree_integer(h)
        assert tree is not None
        assert tree.ring is Ring.INTEGER
        assert is_combinatorial_spanning_tree(h, tree.tree_edges)
        assert verify_tree_axioms(h, tree).ok


def test_integer_search_edgeless():
    h = OrientedHypergraph(["a", "b"], [])
    tree = find_spanning_tree_integer(h)
    assert tree is not None
    assert tree.tree_edges == ()
    assert tree.fundamental_cuts == {} and tree.fundamental_cycles == {}


def test_integer_search_limit_exceeded():
    with pytest.raises(SearchLimitExceeded):
        find_spanning_tree_integer(graph_like_without_integer_tree(), search_limit=0)


def test_integer_search_refuses_a_negative_budget():
    # refused before the Smith form is read, whether or not the input is
    # graph-like and whether or not it has an integer tree
    for h in (graph_like_without_integer_tree(), main_example(), triangle_graph()):
        h = _fresh(h)
        with pytest.raises(ValueError, match="search limit -1 is negative"):
            find_spanning_tree_integer(h, search_limit=-1)
        assert "_smith_form" not in vars(h), h


def test_graph_cycles_and_cuts_match_traversal_oracle():
    rng = random.Random(23)
    for _ in range(10):
        h = random_connected_graph(rng)
        tree = find_spanning_tree_integer(h)
        assert tree is not None
        for chord, cycle in tree.fundamental_cycles.items():
            assert dict(cycle.coefficients) == tree_path_cycle(h, tree.tree_edges, chord)
        for t, cut in tree.fundamental_cuts.items():
            assert dict(cut.coefficients) == tree_cut(h, tree.tree_edges, t)


def test_combined_family_is_orthogonal_basis():
    for h in hypergraph_suite()[:40]:
        m = h.edge_count
        tree = find_spanning_tree_rational(h)
        vectors = [c.to_vector(m) for c in tree.fundamental_cuts.values()]
        vectors += [c.to_vector(m) for c in tree.fundamental_cycles.values()]
        assert len(vectors) == m
        assert fraction_rank(vectors) == m
        for cut in tree.fundamental_cuts.values():
            for cycle in tree.fundamental_cycles.values():
                assert canonical_inner_product(cut, cycle) == 0


def test_cuts_image_classes_correspondence():
    # the classes of the tree edges map to a basis of the cut module
    for h in hypergraph_suite()[:40]:
        tree = find_spanning_tree_rational(h)
        matrix = boundary_matrix(h, Ring.RATIONAL)
        rank = image_rank(matrix)
        assert len(tree.tree_edges) == rank
        vectors = [c.to_vector(h.edge_count) for c in tree.fundamental_cuts.values()]
        assert fraction_rank(vectors) == rank
        transpose = matrix.transpose()
        for vector in vectors:
            assert solve_rational(transpose, vector) is not None


def test_integer_search_matches_exhaustive_enumeration():
    for h in hypergraph_suite():
        m = h.edge_count
        matrix = boundary_matrix(h, Ring.INTEGER)
        rank = image_rank(matrix)
        bases = {
            subset: (cuts, cycles)
            for subset, cuts, cycles in enumerate_rational_candidate_trees(h)
        }
        first_integral = None
        for subset in itertools.combinations(range(m), rank):
            columns = ExactMatrix(
                [column(matrix, j) for j in subset], Ring.INTEGER, cols=matrix.rows
            ).transpose()
            unimodular = smith_normal_form(columns).diagonal == (1,) * rank
            if subset not in bases:
                assert not unimodular, (h, subset)
                continue
            cuts, cycles = bases[subset]
            integral = candidate_tree_is_integral(h, cuts, cycles)
            tree = SpanningTree(
                subset,
                {t: Chain(1, dict(enumerate(v)), Ring.RATIONAL) for t, v in cuts.items()},
                {e: Chain(1, dict(enumerate(v)), Ring.RATIONAL) for e, v in cycles.items()},
                Ring.RATIONAL,
            )
            assert unimodular == integral == is_integral(h, tree), (h, subset)
            if integral and first_integral is None:
                first_integral = subset
        found = find_spanning_tree_integer(h)
        if first_integral is None:
            assert found is None, h
            continue
        assert found.tree_edges == first_integral
        cuts, cycles = bases[first_integral]
        assert {t: c.to_vector(m) for t, c in found.fundamental_cuts.items()} == cuts
        assert {e: c.to_vector(m) for e, c in found.fundamental_cycles.items()} == cycles


def test_cut_perturbed_by_cycle_fails_verification():
    h = triangle_graph()
    for tree in (find_spanning_tree_rational(h), find_spanning_tree_integer(h)):
        assert verify_tree_axioms(h, tree).ok
        t, e = tree.tree_edges[0], tree.chords[0]
        cuts = dict(tree.fundamental_cuts)
        cuts[t] = cuts[t] + tree.fundamental_cycles[e]
        bad = SpanningTree(tree.tree_edges, cuts, tree.fundamental_cycles, tree.ring)
        report = verify_tree_axioms(h, bad)
        assert not report.cuts_are_cuts, tree.ring
        assert not report.ok


def _corrupted_integer_trees(tree):
    """The tree itself and the corruptions of the verification tests, on an
    integer tree: a cycle moved off the cycle lattice, swapped cut labels, a
    cut plus a cycle, and a doubled cut or cycle (still in its lattice, but
    the family no longer spans it).  Also an edge moved to the other side
    with a unit vector as its cut or cycle: the family still contains the
    whole lattice, plus a vector outside it."""
    yield "intact", tree
    cuts, cycles = tree.fundamental_cuts, tree.fundamental_cycles
    t, e = (tree.tree_edges or (None,))[0], (tree.chords or (None,))[0]

    def variant(new_cuts=cuts, new_cycles=cycles, tree_edges=tree.tree_edges):
        return SpanningTree(tree_edges, new_cuts, new_cycles, tree.ring)

    if e is not None:
        yield "chord_as_tree_edge", variant(
            new_cuts={**cuts, e: Chain.unit(1, e, Ring.INTEGER)},
            new_cycles={f: c for f, c in cycles.items() if f != e},
            tree_edges=tree.tree_edges + (e,),
        )
    if t is not None:
        yield "tree_edge_as_chord", variant(
            new_cuts={s: c for s, c in cuts.items() if s != t},
            new_cycles={**cycles, t: Chain.unit(1, t, Ring.INTEGER)},
            tree_edges=tree.tree_edges[1:],
        )

    if t is not None:
        yield "doubled_cut", variant(new_cuts={**cuts, t: 2 * cuts[t]})
    if len(tree.tree_edges) > 1:
        t2 = tree.tree_edges[1]
        yield "swapped_cuts", variant(new_cuts={**cuts, t: cuts[t2], t2: cuts[t]})
    if e is not None:
        yield "doubled_cycle", variant(new_cycles={**cycles, e: 2 * cycles[e]})
    if t is not None and e is not None:
        unit = Chain.unit(1, t, Ring.INTEGER)
        yield "perturbed_cycle", variant(new_cycles={**cycles, e: cycles[e] + unit})
        yield "cut_plus_cycle", variant(new_cuts={**cuts, t: cuts[t] + cycles[e]})


def test_integer_verification_matches_lattice_comparisons(monkeypatch):
    # one Smith form of B (plus one per family for the span checks) must
    # decide what the cut and cycle lattice comparisons decide
    calls = []
    real = spanning_tree.smith_normal_form

    def counted(matrix):
        calls.append(matrix.rows * matrix.cols)
        return real(matrix)

    monkeypatch.setattr(spanning_tree, "smith_normal_form", counted)
    monkeypatch.setattr(exact_linalg, "smith_normal_form", counted)
    instances = [triangle_graph(), *hypergraph_suite()]
    trees = [(h, find_spanning_tree_integer(h)) for h in instances]
    trees = [(h, tree) for h, tree in trees if tree is not None]
    assert len(trees) > 100
    seen = set()
    outcomes = set()
    for h, tree in trees:
        for name, candidate in _corrupted_integer_trees(tree):
            expected = integer_tree_lattice_checks(h, candidate)
            calls.clear()
            report = verify_tree_axioms(h, candidate)
            assert len(calls) <= 3, (h, name)
            fields = {key: getattr(report, key) for key in expected}
            assert fields == expected, (h, name)
            assert report.ok == (name == "intact"), (h, name, report)
            seen.add(name)
            outcomes.update(fields.items())
    assert outcomes == {(key, value) for key in expected for value in (True, False)}
    assert seen == {
        "intact",
        "chord_as_tree_edge",
        "tree_edge_as_chord",
        "doubled_cut",
        "swapped_cuts",
        "doubled_cycle",
        "perturbed_cycle",
        "cut_plus_cycle",
    }


def _differential_variants(tree):
    """The tree, its Kronecker corruptions, on an integer tree its lattice
    corruptions too, and variants that rescale or recombine one chain (a
    cut times 1/3 and a cycle times 1/2 over the rationals only, a cut
    replaced by another, a cycle plus another) or break the counts (a
    repeated tree edge, a cut keyed by a chord, a missing chord)."""
    yield from _kronecker_corruptions(tree)
    if tree.ring is Ring.INTEGER:
        yield from (bad for name, bad in _corrupted_integer_trees(tree) if name != "intact")
    ring, cuts, cycles = tree.ring, tree.fundamental_cuts, tree.fundamental_cycles
    tree_edges, chords = tree.tree_edges, tree.chords

    def variant(new_cuts=cuts, new_cycles=cycles, edges=tree_edges):
        return SpanningTree(edges, new_cuts, new_cycles, ring)

    if tree_edges:
        t = tree_edges[0]
        yield variant(edges=tree_edges + (t,))
        yield variant(new_cuts={s: c for s, c in cuts.items() if s != t})
        if ring is Ring.RATIONAL:
            yield variant(new_cuts={**cuts, t: Fraction(1, 3) * cuts[t]})
        if len(tree_edges) > 1:
            yield variant(new_cuts={**cuts, t: cuts[tree_edges[1]]})
    if chords:
        e = chords[0]
        yield variant(new_cuts={**cuts, e: Chain.unit(1, e, ring)})
        yield variant(new_cycles={f: x for f, x in cycles.items() if f != e})
        if ring is Ring.RATIONAL:
            yield variant(new_cycles={**cycles, e: Fraction(1, 2) * cycles[e]})
        if len(chords) > 1:
            yield variant(new_cycles={**cycles, e: cycles[e] + cycles[chords[1]]})


def test_verification_matches_reference_axioms():
    # the tree lemma and the one Smith form of B must decide every field as
    # the four eliminations (rationals) and three Smith forms (integers) did
    instances = (
        *hypergraph_suite(200),
        *parallel_edge_suite(),
        *seeded_suite(100, 31, max_arity=1),
        *seeded_suite(100, 37, allow_empty_edges=True),
    )
    outcomes = set()
    cases = 0
    for h in instances:
        for tree in (find_spanning_tree_rational(h), find_spanning_tree_integer(h)):
            if tree is None:
                continue
            for candidate in _differential_variants(tree):
                report = verify_tree_axioms(h, candidate)
                assert report == reference_tree_axioms(h, candidate), (h, candidate)
                outcomes.update((tree.ring, key, getattr(report, key)) for key in report._fields)
                cases += 1
    assert cases > 10000
    assert outcomes == {
        (ring, key, value)
        for ring in Ring
        for key in TreeAxiomsReport._fields
        for value in (True, False)
    }


def test_verifying_a_built_tree_factors_only_the_boundary_matrix(monkeypatch):
    # a tree from either finder, read in either ring, has both Kronecker
    # patterns: the finder and the verification make one Smith form of B
    # together, and the verification no elimination
    calls = _record_smith_forms(monkeypatch)
    eliminations = _record_eliminations(monkeypatch)
    instances = (triangle_graph(), main_example(), parallel_edges(), *hypergraph_suite())
    trees = 0
    rings = set()
    for h, finder, ring in itertools.product(
        instances, (find_spanning_tree_rational, find_spanning_tree_integer), Ring
    ):
        h = _fresh(h)
        calls.clear()
        tree = finder(h)
        if tree is None:
            continue
        cuts, cycles = tree.fundamental_cuts, tree.fundamental_cycles
        tree = SpanningTree(tree.tree_edges, cuts, cycles, ring)
        eliminations.clear()
        verify_tree_axioms(h, tree)
        assert calls == [boundary_matrix(h, Ring.INTEGER)] and eliminations == [], (h, tree)
        trees += 1
        rings.add(ring)
    assert trees > 500 and rings == set(Ring)


@pytest.mark.parametrize(
    "check, ring",
    [
        (verify_tree_axioms, Ring.RATIONAL),
        (verify_tree_axioms, Ring.INTEGER),
        (is_integral, Ring.RATIONAL),
    ],
    ids=["verify-rat", "verify-int", "is_integral"],
)
def test_out_of_range_edge_index_is_refused_before_factoring(monkeypatch, check, ring):
    h = triangle_graph()
    tree = find_spanning_tree_rational(h) if ring is Ring.RATIONAL else find_spanning_tree_integer(h)
    t = tree.tree_edges[0]
    cuts = {**tree.fundamental_cuts, t: tree.fundamental_cuts[t] + Chain.unit(1, 7, ring)}
    bad = SpanningTree(tree.tree_edges, cuts, tree.fundamental_cycles, ring)
    calls = []
    for module in (spanning_tree, exact_linalg):
        monkeypatch.setattr(module, "smith_normal_form", calls.append)
    with pytest.raises(IndexError, match="^edge index 7 out of range$"):
        check(_fresh(h), bad)
    assert calls == []


def _pairwise_kronecker(chains, indices) -> bool:
    """The Kronecker pattern checked one coefficient per pair of indices."""
    return all(
        chains[a].coefficient(b) == (1 if a == b else 0) for a in indices for b in indices
    )


def _kronecker_corruptions(tree):
    """The tree and variants that break, or keep, one Kronecker pattern: a
    unit added off the diagonal, on it or on the other side, the diagonal
    entry removed, a chain doubled, two cut labels swapped."""
    yield tree
    ring, cuts, cycles = tree.ring, tree.fundamental_cuts, tree.fundamental_cycles
    tree_edges, chords = tree.tree_edges, tree.chords

    def unit(j):
        return Chain.unit(1, j, ring)

    def with_cut(t, chain):
        return SpanningTree(tree_edges, {**cuts, t: chain}, cycles, ring)

    def with_cycle(e, chain):
        return SpanningTree(tree_edges, cuts, {**cycles, e: chain}, ring)

    for t in tree_edges[:2]:
        yield with_cut(t, cuts[t] - unit(t))
        yield with_cut(t, 2 * cuts[t])
        for other in tree_edges[:3] + chords[:1]:
            yield with_cut(t, cuts[t] + unit(other))
    for e in chords[:2]:
        yield with_cycle(e, cycles[e] - unit(e))
        yield with_cycle(e, 2 * cycles[e])
        for other in chords[:3] + tree_edges[:1]:
            yield with_cycle(e, cycles[e] + unit(other))
    if len(tree_edges) > 1:
        t, t2 = tree_edges[:2]
        yield SpanningTree(tree_edges, {**cuts, t: cuts[t2], t2: cuts[t]}, cycles, ring)


def test_kronecker_checks_match_pairwise_oracle():
    outcomes = set()
    for h in hypergraph_suite()[:120]:
        for tree in (find_spanning_tree_rational(h), find_spanning_tree_integer(h)):
            if tree is None:
                continue
            for candidate in _kronecker_corruptions(tree):
                report = verify_tree_axioms(h, candidate)
                cuts = _pairwise_kronecker(candidate.fundamental_cuts, candidate.tree_edges)
                cycles = _pairwise_kronecker(
                    candidate.fundamental_cycles, list(candidate.fundamental_cycles)
                )
                assert (report.cut_kronecker, report.cycle_kronecker) == (cuts, cycles), h
                outcomes.add((candidate.ring, cuts, cycles))
    assert outcomes == {
        (ring, cuts, cycles)
        for ring in (Ring.INTEGER, Ring.RATIONAL)
        for cuts, cycles in ((True, True), (False, True), (True, False))
    }


# Corrupts the integer tree read so that the accepted integer tree is
# wrong; the search must refuse it whatever the interpreter's optimisation
# flags.  Both corrupt what ``_read_tree`` returns.  ``wrong_cut`` adds a
# fundamental cycle to a cut after the cycles are read off the cuts, which
# the axiom check refuses.  ``dropped_back_op`` leaves the fault a dropped
# back-substitution operation leaves: the cut of the first tree edge keeps
# a nonzero at the second, which the axiom check refuses too.  On the
# input below the tree has at least two edges and a chord.
_CORRUPT_TREE = """
from hyperhomology import random_hypergraph, spanning_tree

real_read_tree = spanning_tree._read_tree

def wrong_cut(rows, columns, tree):
    tree, cuts, cycles = real_read_tree(rows, columns, tree)
    t, e = min(cuts), min(cycles)
    total = dict(cuts[t])
    for j, x in cycles[e].items():
        total[j] = total.get(j, 0) + x
    cuts[t] = {j: x for j, x in sorted(total.items()) if x}
    return tree, cuts, cycles

def dropped_back_op(rows, columns, tree):
    tree, cuts, cycles = real_read_tree(rows, columns, tree)
    cut = cuts[tree[0]]
    cut[tree[1]] = cut.get(tree[1], 0) + 1
    return tree, cuts, cycles

def fresh_input():
    return random_hypergraph(4, 5, 0)

CORRUPTIONS = {
    "wrong_cut": (spanning_tree, "_read_tree", "fails the spanning-tree axioms"),
    "dropped_back_op": (spanning_tree, "_read_tree", "fails the spanning-tree axioms"),
}
"""


@pytest.mark.parametrize("corruption", ["wrong_cut", "dropped_back_op"])
def test_integer_search_guard_rejects_corrupt_tree(monkeypatch, corruption):
    namespace = {}
    exec(_CORRUPT_TREE, namespace)
    module, name, message = namespace["CORRUPTIONS"][corruption]
    monkeypatch.setattr(module, name, namespace[corruption])
    with pytest.raises(InternalInconsistencyError, match=message):
        find_spanning_tree_integer(namespace["fresh_input"]())


def _run_optimised(script):
    """Run ``script`` under ``python -O`` with the package on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


def test_integer_search_guard_runs_under_python_O():
    script = _CORRUPT_TREE + """
from hyperhomology import InternalInconsistencyError, find_spanning_tree_integer
print("debug", __debug__)
for corruption, (module, name, message) in CORRUPTIONS.items():
    real = getattr(module, name)
    setattr(module, name, globals()[corruption])
    try:
        find_spanning_tree_integer(fresh_input())
    except InternalInconsistencyError as err:
        print(corruption, "guard raised", message in str(err))
    setattr(module, name, real)
"""
    result = _run_optimised(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:3] == [
        "debug False",
        "wrong_cut guard raised True",
        "dropped_back_op guard raised True",
    ]


# Corrupts the Euclid steps that the prefix walk appends to its log of row
# operations when a column extends the prefix: one drops the first step,
# the other doubles the first multiplier.  The walk reads the columns of W,
# the first rows of V^-1 in B's Smith form, and on the input below some
# accepted column needs an addition (q != 0) to reach its unit vector,
# which each test first checks with the real steps; the exact
# replay check of each accepted column must then refuse the corrupt steps,
# whatever the interpreter's optimisation flags.
_WRONG_STEPS = """
from hyperhomology import random_hypergraph, spanning_tree

real_unit_steps = spanning_tree._unit_steps

def dropped_op(residual, depth):
    return real_unit_steps(residual, depth)[1:]

def doubled_multiplier(residual, depth):
    steps = real_unit_steps(residual, depth)
    k = next(k for k, (a, b, q) in enumerate(steps) if q)
    a, b, q = steps[k]
    steps[k] = (a, b, 2 * q)
    return steps

def made_steps():
    made = []

    def recording(residual, depth):
        steps = real_unit_steps(residual, depth)
        made.extend(steps)
        return steps

    spanning_tree._unit_steps = recording
    try:
        spanning_tree.find_spanning_tree_integer(fresh_input())
    finally:
        spanning_tree._unit_steps = real_unit_steps
    return made

def fresh_input():
    return random_hypergraph(4, 4, 28)

CORRUPTIONS = {"dropped_op": dropped_op, "doubled_multiplier": doubled_multiplier}
"""


def test_integer_search_checks_each_candidate(monkeypatch):
    namespace = {}
    exec(_WRONG_STEPS, namespace)
    assert any(q for _, _, q in namespace["made_steps"]())
    for corruption in namespace["CORRUPTIONS"].values():
        monkeypatch.setattr(spanning_tree, "_unit_steps", corruption)
        with pytest.raises(InternalInconsistencyError, match="unit vector"):
            find_spanning_tree_integer(namespace["fresh_input"]())


def test_integer_search_candidate_check_runs_under_python_O():
    script = _WRONG_STEPS + """
from hyperhomology import InternalInconsistencyError, find_spanning_tree_integer
print("debug", __debug__)
print("steps with q", any(q for _, _, q in made_steps()))
for name, corruption in CORRUPTIONS.items():
    spanning_tree._unit_steps = corruption
    try:
        find_spanning_tree_integer(fresh_input())
    except InternalInconsistencyError as err:
        print(name, "check raised", "unit vector" in str(err))
"""
    result = _run_optimised(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:4] == [
        "debug False",
        "steps with q True",
        "dropped_op check raised True",
        "doubled_multiplier check raised True",
    ]


def test_vector_space_trivial_subspace():
    tree, cuts, cycles = vector_space_spanning_tree(3, [])
    assert tree == (0, 1, 2)
    assert cycles == {}
    for t in tree:
        expected = [Fraction(0)] * 3
        expected[t] = Fraction(1)
        assert cuts[t] == expected


def test_vector_space_refuses_negative_ambient_dim():
    with pytest.raises(ValueError, match="ambient dimension -1 is negative"):
        vector_space_spanning_tree(-1, [])
    assert vector_space_spanning_tree(0, []) == ((), {}, {})


@pytest.mark.parametrize("generator", [[1], [1, 0, 0]], ids=["short", "long"])
def test_vector_space_refuses_generator_of_wrong_length(generator):
    with pytest.raises(ValueError, match="^generator length does not match ambient dimension$"):
        vector_space_spanning_tree(2, [[0, 1], generator])


def test_vector_space_full_subspace():
    tree, cuts, cycles = vector_space_spanning_tree(2, [[1, 0], [0, 1]])
    assert tree == ()
    assert cuts == {}
    for s in (0, 1):
        expected = [Fraction(0)] * 2
        expected[s] = Fraction(1)
        assert cycles[s] == expected


def test_vector_space_diagonal_line():
    tree, cuts, cycles = vector_space_spanning_tree(2, [[1, -1]])
    assert tree == (0,)
    assert cycles[1] == [Fraction(-1), Fraction(1)]
    assert cuts[0] == [Fraction(1), Fraction(1)]


def test_vector_space_refuses_lossy_generators():
    # each entry is coerced into the rationals, which take ints and
    # Fractions only
    for bad in (0.5, "1/2", True):
        with pytest.raises(TypeError):
            vector_space_spanning_tree(2, [[bad, 1]])
    tree, _, cycles = vector_space_spanning_tree(2, [[Fraction(1, 2), Fraction(-1, 2)]])
    assert tree == (0,) and cycles[1] == [-1, 1]


def test_vector_space_integer_generators_load_no_fractions():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        f"import sys\nsys.path.insert(0, {src!r})\n"
        "from hyperhomology import vector_space_spanning_tree\n"
        "print(vector_space_spanning_tree(3, [[1, -1, 0]]))\n"
        "print('fractions' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-E", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "((0, 2), {0: [1, 1, 0], 2: [0, 0, 1]}, {1: [-1, 1, 0]})",
        "False",
    ]


def test_vector_space_tree_matches_two_rref_route():
    # one RREF of the reversed generators must give the tree, cuts and
    # cycles of the kernel's RREF, value types and key order included
    rng = random.Random(111)
    values = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3))
    cases = [(0, []), (0, [[], []]), (3, [[0, 0, 0]]), (3, [[1, 2, 0], [1, 2, 0], [2, 4, 0]])]
    for _ in range(600):
        m = rng.randint(0, 8)
        rows = [[rng.choice(values) for _ in range(m)] for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))  # a repeated generator
        cases.append((m, rows))
    for m, rows in cases:
        got = vector_space_spanning_tree(m, rows)
        want = two_rref_vector_space_tree(m, rows)
        assert got == want, (m, rows)
        for mine, theirs in zip(got[1:], want[1:]):
            assert list(mine) == list(theirs), (m, rows)
            for key in mine:
                assert list(map(type, mine[key])) == list(map(type, theirs[key])), (m, rows)


def test_vector_space_reproduces_hypergraph_trees():
    for h in hypergraph_suite()[:30]:
        m = h.edge_count
        matrix = boundary_matrix(h, Ring.INTEGER)
        generators = kernel_basis(matrix, Ring.RATIONAL)
        tree_positions, cuts, cycles = vector_space_spanning_tree(m, generators)
        tree = find_spanning_tree_rational(h)
        assert tree_positions == tree.tree_edges
        for t in tree_positions:
            assert cuts[t] == tree.fundamental_cuts[t].to_vector(m)
        for e, cycle in cycles.items():
            assert cycle == tree.fundamental_cycles[e].to_vector(m)
