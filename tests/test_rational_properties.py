"""Property tests of the canonical rational form on random hypergraphs.

Every rational value the reports hold is an ``int`` when it is integral and
a ``Fraction`` otherwise; the chains agree entry by entry with the dense
Fraction RREF oracle, and the CLI writes each coefficient as the text of
that Fraction.  Hypothesis runs derandomized and without an example
database, so the suite stays deterministic.  (Its pytest plugin still
caches the literals of local modules under ``.hypothesis/constants`` at
collection; that cache holds no examples and is ignored by git.)
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hyperhomology import (
    Ring,
    boundary_matrix,
    cycle_cut_decomposition,
    find_spanning_tree_rational,
    homology,
    random_hypergraph,
)
from hyperhomology.cli import _formal_sum_json

from oracles import canonical_type, dense_rref_tree


hypergraphs = st.builds(
    random_hypergraph,
    vertex_count=st.integers(1, 6),
    edge_count=st.integers(0, 8),
    seed=st.integers(0, 2**32),
    max_arity=st.integers(1, 3),
    allow_empty_edges=st.booleans(),
)


def _check(chain, dense, m):
    """``chain`` holds the oracle's ``dense`` vector in canonical form and
    renders each coefficient as the text of its Fraction."""
    assert chain.ring is Ring.RATIONAL and chain.dimension == 1
    assert chain.to_vector(m) == dense
    for x in chain.coefficients.values():
        assert x and type(x) is canonical_type(x)
    labels = [f"e{j + 1}" for j in range(m)]
    assert _formal_sum_json(chain, labels) == {
        labels[j]: str(Fraction(x)) for j, x in sorted(chain.coefficients.items())
    }


@settings(derandomize=True, database=None, deadline=None)
@given(hypergraphs)
def test_rational_reports_are_canonical_and_match_dense_oracle(h):
    m = h.edge_count
    want_tree, want_cuts, want_cycles = dense_rref_tree(
        boundary_matrix(h, Ring.INTEGER).entries, m
    )

    report = homology(h, Ring.RATIONAL)
    assert len(report.h1_basis) == len(want_cycles)
    for chain, dense in zip(report.h1_basis, want_cycles.values()):
        _check(chain, dense, m)

    decomposition = cycle_cut_decomposition(h, Ring.RATIONAL)
    assert len(decomposition.cycle_basis) == len(want_cycles)
    assert len(decomposition.cut_basis) == len(want_cuts)
    for chain, dense in zip(decomposition.cycle_basis, want_cycles.values()):
        _check(chain, dense, m)
    for chain, dense in zip(decomposition.cut_basis, want_cuts.values()):
        _check(chain, dense, m)

    tree = find_spanning_tree_rational(h)
    assert tree.tree_edges == want_tree
    assert list(tree.fundamental_cuts) == list(want_cuts)
    assert list(tree.fundamental_cycles) == list(want_cycles)
    for t, dense in want_cuts.items():
        _check(tree.fundamental_cuts[t], dense, m)
    for e, dense in want_cycles.items():
        _check(tree.fundamental_cycles[e], dense, m)
