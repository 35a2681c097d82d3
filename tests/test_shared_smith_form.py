"""Property test of the one Smith form of B a hypergraph keeps.

Every integer report, the integer-tree search, the verification of its
tree and the integrality test of the rational tree read the Smith form
that the hypergraph computes on first use.  Run one after another on one
hypergraph, they must answer as each does on a fresh copy, and B must be
factored once for the whole sequence.  The search must also agree with
the lexicographic enumeration of the oracles, which does not prune the
inputs that are not graph-like.  Hypothesis runs derandomized and without
an example database, as in ``test_rational_properties``.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from hyperhomology import (
    OrientedHypergraph,
    Ring,
    boundary_matrix,
    cycle_cut_decomposition,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    graph_likeness,
    homology,
    is_integral,
    main_example,
    random_hypergraph,
    verify_tree_axioms,
)
from hyperhomology import exact_linalg, spanning_tree

from oracles import disjoint_union, lexicographic_integer_tree_edges

hypergraphs = st.builds(
    random_hypergraph,
    vertex_count=st.integers(1, 6),
    edge_count=st.integers(0, 8),
    seed=st.integers(0, 2**32),
    max_arity=st.integers(1, 3),
    allow_empty_edges=st.booleans(),
)


def _integer_tree(h):
    tree = find_spanning_tree_integer(h)
    return tree, tree and verify_tree_axioms(h, tree)


def _rational_tree(h):
    tree = find_spanning_tree_rational(h)
    return tree, is_integral(h, tree)


REPORTS = (
    lambda h: homology(h, Ring.INTEGER),
    graph_likeness,
    lambda h: cycle_cut_decomposition(h, Ring.INTEGER),
    _integer_tree,
    _rational_tree,
)


@settings(derandomize=True, database=None, deadline=None)
@given(hypergraphs, st.booleans())
def test_reports_in_sequence_share_one_smith_form(h, with_main_example):
    if with_main_example:
        h = disjoint_union(h, main_example())
    calls = []
    real = exact_linalg.smith_normal_form

    def recorded(matrix):
        calls.append(matrix)
        return real(matrix)

    shared = OrientedHypergraph(h.vertices, h.edges)
    with mock.patch.object(exact_linalg, "smith_normal_form", recorded), mock.patch.object(
        spanning_tree, "smith_normal_form", recorded
    ):
        answers = [report(shared) for report in REPORTS]
    assert calls == [boundary_matrix(h, Ring.INTEGER)]
    assert answers == [report(OrientedHypergraph(h.vertices, h.edges)) for report in REPORTS]

    tree, verdict = answers[3]
    assert verdict is None or verdict.ok
    expected = lexicographic_integer_tree_edges(h)
    assert (tree is None) == (expected is None)
    assert tree is None or tree.tree_edges == expected
