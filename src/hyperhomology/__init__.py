"""Exact cycle/cut homology and algebraic spanning trees for oriented
hypergraphs, over the integers and the rationals.

The imports below are the one list of public names: ``__all__`` is every
name they bind that does not start with ``_``, sorted, less the submodule
objects that importing from a submodule binds in the package."""

from types import ModuleType as _ModuleType

from .boundary import (
    boundary,
    boundary_functional,
    boundary_inner_product,
    boundary_matrix,
    canonical_inner_product,
    coboundary,
)
from .core import (
    Chain,
    Cochain,
    HypergraphValidationError,
    InternalInconsistencyError,
    OrientedHypergraph,
    Ring,
    chain_to_cochain,
    cochain_to_chain,
    validation_report,
)
from .exact_linalg import (
    ExactMatrix,
    ModuleStructure,
    SnfDecomposition,
    smith_normal_form,
)
from .fixtures import (
    BUILTIN_EXAMPLES,
    main_example,
    parallel_edges,
    path_graph,
    random_hypergraph,
    triangle_graph,
)
from .homology import (
    DecompositionReport,
    GraphLikenessReport,
    HomologyReport,
    Witness,
    cycle_cut_decomposition,
    graph_likeness,
    homology,
)
from .spanning_tree import (
    SearchLimitExceeded,
    SpanningTree,
    TreeAxiomsReport,
    find_spanning_tree_integer,
    find_spanning_tree_rational,
    is_integral,
    vector_space_spanning_tree,
    verify_tree_axioms,
)

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
