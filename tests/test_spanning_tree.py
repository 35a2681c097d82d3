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
    boundary_matrix,
    canonical_inner_product,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    image_rank,
    is_integral,
    kernel_basis,
    main_example,
    parallel_edges,
    smith_normal_form,
    solve_rational,
    triangle_graph,
    vector_space_spanning_tree,
    verify_tree_axioms,
)
from hyperhomology import exact_linalg, spanning_tree

from oracles import (
    candidate_tree_is_integral,
    enumerate_rational_candidate_trees,
    fraction_rank,
    hypergraph_suite,
    integer_tree_lattice_checks,
    is_combinatorial_spanning_tree,
    lexicographic_integer_tree_edges,
    parallel_edge_suite,
    random_connected_graph,
    tree_cut,
    tree_path_cycle,
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


def test_is_integral_factors_the_boundary_matrix_once(monkeypatch):
    # cut membership is read off the Smith form of B itself, not of B^T
    calls = []
    real = spanning_tree.smith_normal_form

    def recorded(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(spanning_tree, "smith_normal_form", recorded)
    monkeypatch.setattr(exact_linalg, "smith_normal_form", recorded)
    checked = 0
    for h in (triangle_graph(), parallel_edges(), *hypergraph_suite()):
        tree = find_spanning_tree_rational(h)
        chains = [*tree.fundamental_cuts.values(), *tree.fundamental_cycles.values()]
        if any(x.denominator != 1 for c in chains for x in c.coefficients.values()):
            continue
        calls.clear()
        is_integral(h, tree)
        assert calls == [boundary_matrix(h, Ring.INTEGER)], h
        checked += 1
    assert checked > 100


def test_integer_search_main_example_exhausts_to_none():
    assert find_spanning_tree_integer(main_example(), search_limit=100) is None


def test_integer_search_budget_counts_prefixes_tested():
    # the main example tests two prefixes: edge 0 extends the empty one,
    # edge 1 does not extend {0}, and then too few edges remain
    h = main_example()
    for limit in (0, 1):
        with pytest.raises(SearchLimitExceeded) as info:
            find_spanning_tree_integer(h, search_limit=limit)
        assert info.value.examined == limit
        assert str(info.value) == f"search limit reached after testing {limit} prefixes"
    for limit in (2, 10, 100):
        assert find_spanning_tree_integer(h, search_limit=limit) is None
    # rank 0: the empty prefix is the tree, and no prefix is tested
    edgeless = OrientedHypergraph(["a", "b"], [])
    assert find_spanning_tree_integer(edgeless, search_limit=0).tree_edges == ()


def _grid_with_leading_parallel_edge(rows: int, cols: int) -> OrientedHypergraph:
    """Grid graph whose edge 0 is a parallel copy of its edge 1."""
    names = [f"v{k}" for k in range(rows * cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            if j + 1 < cols:
                edges.append(({names[k]}, {names[k + 1]}))
            if i + 1 < rows:
                edges.append(({names[k]}, {names[k + cols]}))
    return OrientedHypergraph(names, [edges[0], *edges])


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
    # no Smith form per prefix: only the (at most three) of the verification
    calls = []
    real = spanning_tree.smith_normal_form

    def counted(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(spanning_tree, "smith_normal_form", counted)
    monkeypatch.setattr(exact_linalg, "smith_normal_form", counted)
    outcomes = set()
    for h in (main_example(), _grid_with_leading_parallel_edge(3, 4), *hypergraph_suite()[:100]):
        calls.clear()
        tree = find_spanning_tree_integer(h)
        assert (len(calls) <= 3) if tree else (calls == []), h
        outcomes.add(tree is None)
    assert outcomes == {True, False}


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
        find_spanning_tree_integer(main_example(), search_limit=0)


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
            columns = ExactMatrix.from_columns(
                [matrix.column(j) for j in subset], Ring.INTEGER, rows=matrix.rows
            )
            unimodular = smith_normal_form(columns).diagonal == (1,) * rank
            if subset not in bases:
                assert not unimodular, (h, subset)
                continue
            cuts, cycles = bases[subset]
            integral = candidate_tree_is_integral(h, cuts, cycles)
            tree = SpanningTree(
                subset,
                {t: Chain.from_vector(1, v, Ring.RATIONAL) for t, v in cuts.items()},
                {e: Chain.from_vector(1, v, Ring.RATIONAL) for e, v in cycles.items()},
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


# Corrupts the integer tree reader so that the accepted integer tree is
# wrong; the search must refuse it whatever the interpreter's optimisation
# flags.  ``wrong_cut`` replaces the reader by one that adds a fundamental
# cycle to a cut, which the axiom check refuses; ``halved_cut`` doubles the
# first pivot of the fraction-free elimination under it, so that cut read
# off exactly would be halved, which the reader's exact division refuses.
_CORRUPT_TREE = """
from hyperhomology import Ring, exact_linalg, spanning_tree

real_rref_tree = spanning_tree._rref_tree
real_integer_echelon = exact_linalg._integer_echelon

def wrong_cut(rows, cols, order=None, ring=Ring.RATIONAL):
    tree, cuts, cycles = real_rref_tree(rows, cols, order, ring)
    t, e = tree[0], min(cycles)
    total = dict(cuts[t])
    for j, x in cycles[e].items():
        total[j] = total.get(j, 0) + x
    cuts[t] = {j: x for j, x in sorted(total.items()) if x}
    return tree, cuts, cycles

def halved_cut(rows, width):
    reduced, pivots = real_integer_echelon(rows, width)
    reduced[0] = {j: 2 * x if j == pivots[0] else x for j, x in reduced[0].items()}
    return reduced, pivots

CORRUPTIONS = {
    "wrong_cut": (spanning_tree, "_rref_tree", "fails the spanning-tree axioms"),
    "halved_cut": (exact_linalg, "_integer_echelon", "fractional integer tree"),
}
"""


@pytest.mark.parametrize("corruption", ["wrong_cut", "halved_cut"])
def test_integer_search_guard_rejects_corrupt_tree(monkeypatch, corruption):
    namespace = {}
    exec(_CORRUPT_TREE, namespace)
    module, name, message = namespace["CORRUPTIONS"][corruption]
    monkeypatch.setattr(module, name, namespace[corruption])
    with pytest.raises(InternalInconsistencyError, match=message):
        find_spanning_tree_integer(triangle_graph())


def _run_optimised(script):
    """Run ``script`` under ``python -O`` with the package on the path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )


def test_integer_search_guard_runs_under_python_O():
    script = _CORRUPT_TREE + """
from hyperhomology import InternalInconsistencyError, find_spanning_tree_integer, triangle_graph
print("debug", __debug__)
for corruption, (module, name, message) in CORRUPTIONS.items():
    real = getattr(module, name)
    setattr(module, name, globals()[corruption])
    try:
        find_spanning_tree_integer(triangle_graph())
    except InternalInconsistencyError as err:
        print(corruption, "guard raised", message in str(err))
    setattr(module, name, real)
"""
    result = _run_optimised(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:3] == [
        "debug False",
        "wrong_cut guard raised True",
        "halved_cut guard raised True",
    ]


# Corrupts the Euclid steps that the prefix walk appends to its log of row
# operations when a column extends the prefix: one drops the first step,
# the other doubles the first multiplier.  Every column of the triangle
# graph needs a step to reach its unit vector, so no accepted column would
# come out right; the exact replay check of each accepted column must
# refuse it, whatever the interpreter's optimisation flags.
_WRONG_STEPS = """
from hyperhomology import spanning_tree

real_unit_steps = spanning_tree._unit_steps

def dropped_op(residual, depth):
    return real_unit_steps(residual, depth)[1:]

def doubled_multiplier(residual, depth):
    steps = real_unit_steps(residual, depth)
    k = next(k for k, (a, b, q) in enumerate(steps) if q)
    a, b, q = steps[k]
    steps[k] = (a, b, 2 * q)
    return steps

CORRUPTIONS = {"dropped_op": dropped_op, "doubled_multiplier": doubled_multiplier}
"""


def test_integer_search_checks_each_candidate(monkeypatch):
    namespace = {}
    exec(_WRONG_STEPS, namespace)
    for corruption in namespace["CORRUPTIONS"].values():
        monkeypatch.setattr(spanning_tree, "_unit_steps", corruption)
        with pytest.raises(InternalInconsistencyError, match="unit vector"):
            find_spanning_tree_integer(triangle_graph())


def test_integer_search_candidate_check_runs_under_python_O():
    script = _WRONG_STEPS + """
from hyperhomology import InternalInconsistencyError, find_spanning_tree_integer, triangle_graph
print("debug", __debug__)
for name, corruption in CORRUPTIONS.items():
    spanning_tree._unit_steps = corruption
    try:
        find_spanning_tree_integer(triangle_graph())
    except InternalInconsistencyError:
        print(name, "check raised")
"""
    result = _run_optimised(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:3] == [
        "debug False",
        "dropped_op check raised",
        "doubled_multiplier check raised",
    ]


def test_vector_space_trivial_subspace():
    tree, cuts, cycles = vector_space_spanning_tree(3, [])
    assert tree == (0, 1, 2)
    assert cycles == {}
    for t in tree:
        expected = [Fraction(0)] * 3
        expected[t] = Fraction(1)
        assert cuts[t] == expected


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
