"""Homology and cohomology groups, cycle/cut lattices, graph-likeness.

The first homology group is the kernel of the boundary map B; the first
cohomology group is the cokernel of the coboundary map.  Over the integers
the homology, graph-likeness and decomposition reports read everything off
one Smith normal form U B V = S with divisors d_0..d_{r-1}: the rank r,
the cycles (columns r.. of V), the cohomology torsion, the annihilator of
the cycles (rows < r of V^-1) and coboundary membership (c = B^T y for an
integer y iff V^T c vanishes from the rank on and its entry i is divisible
by d_i below it), which reads only V.  The
five graph-likeness conditions are equivalent; the report decides them
once, by whether every divisor is 1, and builds the witnesses from the
same factorization.  The other routes to the same conditions
(:func:`is_direct_summand`, :func:`cohomology_hom_iso_check`,
:func:`annihilator_of_cycles` with a lattice comparison) stay public and
serve as independent checks.  Over the rationals the bases come from one
reduced row echelon form of B.
"""

from __future__ import annotations

from .boundary import boundary_matrix
from .core import (
    Chain,
    Cochain,
    InternalInconsistencyError,
    OrientedHypergraph,
    Ring,
    _Record,
)
from .exact_linalg import (
    ExactMatrix,
    ModuleStructure,
    SnfDecomposition,
    _is_coboundary,
    _rref_tree,
    annihilator_basis,
    image_basis,
    image_rank,
    kernel_basis,
    lattice_contains,
    quotient_structure,
    smith_normal_form,
    solve_integer,
    sublattice_equal,
)


class HomologyReport(_Record):
    """First homology and cohomology of a hypergraph over one ring."""

    ring: Ring
    h1: ModuleStructure
    h1_basis: tuple[Chain, ...]
    h1_cohomology: ModuleStructure
    rank_image_boundary: int


def _integer_chain(vector: dict) -> Chain:
    """Integer 1-chain of an ``{index: nonzero int}`` dict the package
    computed, with its indices put in ascending order."""
    return Chain._of(1, dict(sorted(vector.items())), Ring.INTEGER)


def homology(hypergraph: OrientedHypergraph, ring: Ring) -> HomologyReport:
    """Compute the first homology (cycle module with basis) and the first
    cohomology (cochains modulo coboundaries) over the requested ring.

    Over the integers the homology is always free of rank |E| minus the
    boundary rank, while the cohomology may carry torsion; over the
    rationals only the free ranks remain.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    if ring is Ring.INTEGER:
        decomposition = smith_normal_form(matrix)
        rank = decomposition.rank
        basis = tuple(map(_integer_chain, decomposition.v.transpose().lines[rank:]))
        torsion = tuple(d for d in decomposition.diagonal if d > 1)
    else:
        tree, _, cycles = _rref_tree(matrix.lines, m)
        rank = len(tree)
        basis = tuple(Chain._of(1, cycle, ring) for cycle in cycles.values())
        torsion = ()
    return HomologyReport(
        ring=ring,
        h1=ModuleStructure(len(basis), ()),
        h1_basis=basis,
        h1_cohomology=ModuleStructure(m - rank, torsion),
        rank_image_boundary=rank,
    )


def annihilator_of_cycles(hypergraph: OrientedHypergraph) -> list[list[int]]:
    """Basis of the 1-cochain lattice that vanishes on every cycle."""
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    cycles = kernel_basis(matrix, Ring.INTEGER)
    return annihilator_basis(cycles, hypergraph.edge_count)


class Witness(_Record):
    """Concrete vector certifying that a condition fails.

    ``basis`` says which indexed basis the coefficients refer to ("edges"
    for 1-chains/1-cochains, "vertices" for 0-chains/0-cochains).
    """

    condition: str
    description: str
    basis: str
    coefficients: tuple


class GraphLikenessReport(_Record):
    """Truth values of the five equivalent graph-likeness conditions.

    The five are equivalent, so they always carry the same value; when they
    are false, ``witnesses`` carries one concrete counterexample per
    condition.
    """

    canonical_iso: bool
    annihilator_equals_coboundary_image: bool
    cuts_equal_cycle_perp: bool
    boundary_image_direct_summand: bool
    hom_dual_iso: bool
    witnesses: tuple[Witness, ...]

    @property
    def graph_like(self) -> bool:
        return all(self.conditions().values())

    def conditions(self) -> dict[str, bool]:
        return {
            "canonical_iso": self.canonical_iso,
            "annihilator_equals_coboundary_image": self.annihilator_equals_coboundary_image,
            "cuts_equal_cycle_perp": self.cuts_equal_cycle_perp,
            "boundary_image_direct_summand": self.boundary_image_direct_summand,
            "hom_dual_iso": self.hom_dual_iso,
        }


def _annihilator_witness(decomposition: SnfDecomposition, position: int):
    """Lexicographically first cochain in the annihilator that is not a
    coboundary: standard edge cochains first, then annihilator generators.

    ``decomposition`` factors the boundary matrix, so the cycles are the
    columns from the rank on of its ``v``, and the annihilator generators
    are the rows of ``v_inverse`` before the rank.  Row i of V^-1 has
    V^T row = e_i, so it is a coboundary iff d_i = 1: the first generator
    that is not one is row ``position``, the first divisor above 1.
    """
    rank = decomposition.rank
    m = decomposition.v.cols
    for e, line in enumerate(decomposition.v.lines):
        kills_cycles = all(j < rank for j in line)
        if kills_cycles and not _is_coboundary(decomposition, {e: 1}):
            return (
                tuple(int(j == e) for j in range(m)),
                f"standard cochain on edge e{e + 1} kills every cycle but is not a coboundary",
            )
    return decomposition.v_inverse.row(position), "annihilator generator that is not a coboundary"


def graph_likeness(hypergraph: OrientedHypergraph) -> GraphLikenessReport:
    """Decide the five graph-likeness conditions from one Smith normal form.

    The conditions are equivalent, and each holds exactly when every
    elementary divisor of the boundary matrix is 1, so all five booleans
    carry that one verdict.  The canonical-isomorphism condition is recorded
    through its computable form, the lattice equality of the cycle
    annihilator with the coboundary image.  When the verdict is negative,
    the witnesses come from the same factorization.
    """
    decomposition = smith_normal_form(boundary_matrix(hypergraph, Ring.INTEGER))
    graph_like = all(d == 1 for d in decomposition.diagonal)
    witnesses: list[Witness] = []
    if not graph_like:
        position = next(i for i, d in enumerate(decomposition.diagonal) if d > 1)
        divisor = decomposition.diagonal[position]
        coefficients, description = _annihilator_witness(decomposition, position)
        witnesses.append(
            Witness("canonical_iso", description, "edges", coefficients)
        )
        witnesses.append(
            Witness("annihilator_equals_coboundary_image", description, "edges", coefficients)
        )
        witnesses.append(
            Witness(
                "cuts_equal_cycle_perp",
                "chain orthogonal to every cycle that lies outside the cut lattice",
                "edges",
                coefficients,
            )
        )
        witnesses.append(
            Witness(
                "boundary_image_direct_summand",
                f"0-chain whose {divisor}-multiple is a boundary although it is not one itself",
                "vertices",
                tuple(decomposition.u_inverse.column(position)),
            )
        )
        witnesses.append(
            Witness(
                "hom_dual_iso",
                f"cochain whose class has finite order {divisor} in the cohomology",
                "edges",
                decomposition.v_inverse.row(position),
            )
        )

    return GraphLikenessReport(
        canonical_iso=graph_like,
        annihilator_equals_coboundary_image=graph_like,
        cuts_equal_cycle_perp=graph_like,
        boundary_image_direct_summand=graph_like,
        hom_dual_iso=graph_like,
        witnesses=tuple(witnesses),
    )


class DecompositionReport(_Record):
    """Cycle and cut bases with the diagnostics of how they sit in the
    1-chain module: orthogonality, trivial intersection, and whether their
    sum is everything (over the integers it may not be).  Both bases are
    independent by construction, so the intersection is trivial when they
    are orthogonal, and their rational sum is everything when, in addition,
    the sizes add up to the edge count.  Over the integers the sum is
    everything when every standard edge chain lies in it, which the Smith
    form of the boundary matrix decides edge by edge; ``missing_chain`` is
    the first that does not."""

    ring: Ring
    cycle_basis: tuple[Chain, ...]
    cut_basis: tuple[Chain, ...]
    mutually_orthogonal: bool
    intersection_trivial: bool
    dimensions_sum_to_edge_count: bool
    spans_all_chains: bool
    missing_chain: Chain | None


def _mutually_orthogonal(cycles, cuts) -> bool:
    """Whether every cycle is orthogonal to every cut, in one pass over the
    nonzeros: the cut coefficients are indexed by edge, and each cycle's
    inner products with all cuts are accumulated together."""
    by_edge: dict[int, list] = {}
    for c, cut in enumerate(cuts):
        for j, x in cut.coefficients.items():
            by_edge.setdefault(j, []).append((c, x))
    for cycle in cycles:
        products: dict[int, object] = {}
        for j, x in cycle.coefficients.items():
            for c, y in by_edge.get(j, ()):
                products[c] = products.get(c, 0) + x * y
        if any(products.values()):
            return False
    return True


def cycle_cut_decomposition(hypergraph: OrientedHypergraph, ring: Ring) -> DecompositionReport:
    """Compute the cycle module and cut module bases over ``ring`` and
    check how they decompose the 1-chains.

    Over the rationals the two are orthogonal complements.  Over the
    integers they still intersect trivially but their sum can be a proper
    sublattice; the first standard edge chain outside the sum is reported.
    Integer cycles are columns r.. of V in the Smith form U B V = S, and the
    cuts d_i times row i of V^-1 for i < r; rational cycles and cuts are the
    fundamental cycles and cuts of the RREF of B.  Either way each family
    is independent (V is unimodular, every d_i is nonzero, RREF rows and
    free-column null vectors have Kronecker patterns), so the intersection
    and rational spanning diagnostics follow from orthogonality and the
    dimension count.  Orthogonality is one pass over the nonzeros.

    The integer spanning check needs no second factorization.  Cycles and
    cuts are orthogonal, so e_k = z + c with z a cycle and c a cut gives
    1 = |z|^2 + |c|^2: e_k is then a cycle or a cut itself.  So e_k lies in
    the sum iff edge k is empty (column k of B is zero) or e_k is an
    integer coboundary: V^T e_k, row k of V, is zero from the rank on and
    V[k, i] is divisible by d_i below it.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    missing_chain = None
    if ring is Ring.INTEGER:
        decomposition = smith_normal_form(matrix)
        rank, diagonal = decomposition.rank, decomposition.diagonal
        cycle_basis = tuple(map(_integer_chain, decomposition.v.transpose().lines[rank:]))
        cut_basis = tuple(
            _integer_chain({j: d * x for j, x in decomposition.v_inverse.lines[i].items()})
            for i, d in enumerate(diagonal)
        )
        for k, (tails, heads) in enumerate(hypergraph.edges):
            if (tails or heads) and not _is_coboundary(decomposition, {k: 1}):
                missing_chain = Chain.unit(1, k, Ring.INTEGER)
                break
    else:
        _, cuts, cycles = _rref_tree(matrix.lines, m)
        cycle_basis = tuple(Chain._of(1, c, ring) for c in cycles.values())
        cut_basis = tuple(Chain._of(1, c, ring) for c in cuts.values())

    orthogonal = _mutually_orthogonal(cycle_basis, cut_basis)
    intersection_trivial = orthogonal
    dimensions_sum = len(cycle_basis) + len(cut_basis) == m
    if ring is Ring.INTEGER:
        spans = missing_chain is None
    else:
        spans = orthogonal and dimensions_sum

    return DecompositionReport(
        ring=ring,
        cycle_basis=cycle_basis,
        cut_basis=cut_basis,
        mutually_orthogonal=orthogonal,
        intersection_trivial=intersection_trivial,
        dimensions_sum_to_edge_count=dimensions_sum,
        spans_all_chains=spans,
        missing_chain=missing_chain,
    )


def orthogonal_decomposition_rational(hypergraph: OrientedHypergraph) -> DecompositionReport:
    """Rational cycle/cut decomposition; the two bases span complementary
    orthogonal subspaces of the 1-chains."""
    return cycle_cut_decomposition(hypergraph, Ring.RATIONAL)


class PerpComparison(_Record):
    """Result of comparing two lattices that should coincide, with a
    witness generator on the offending side when they do not."""

    equal: bool
    witness: Chain | None


def cycles_equal_cut_perp_check(hypergraph: OrientedHypergraph) -> PerpComparison:
    """Check that the cycle lattice is exactly the orthogonal complement of
    the cut lattice over the integers.

    This holds for every hypergraph, so a False answer indicates a bug in
    the lattice machinery rather than a property of the input.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    cuts = image_basis(matrix.transpose(), Ring.INTEGER)
    perp = annihilator_basis(cuts, m)
    cycles = kernel_basis(matrix, Ring.INTEGER)
    if sublattice_equal(perp, cycles, m):
        return PerpComparison(True, None)
    for vector in perp:
        if not lattice_contains(cycles, vector, m):
            return PerpComparison(False, Chain.from_vector(1, vector, Ring.INTEGER))
    for vector in cycles:
        if not lattice_contains(perp, vector, m):
            return PerpComparison(False, Chain.from_vector(1, vector, Ring.INTEGER))
    raise InternalInconsistencyError("lattices differ but no witness found")


def boundary_functional_lattice(hypergraph: OrientedHypergraph) -> list[list[int]]:
    """Image lattice of the map sending a 1-chain to its pairing
    functional: the column lattice of the boundary Gram matrix.

    Always a sublattice of the coboundary image; the containment can be
    proper.
    """
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    gram = matrix.transpose() @ matrix
    return image_basis(gram, Ring.INTEGER)


def represents_dualized_boundary(hypergraph: OrientedHypergraph, candidate: Cochain) -> bool:
    """Whether the 0-cochain is, modulo the coboundary kernel, the dual of
    the boundary of some integer 1-chain.

    Solved as one stacked integer system: boundary columns next to a basis
    of the coboundary kernel.
    """
    if candidate.dimension != 0:
        raise ValueError("expected a 0-cochain")
    if candidate.ring is not Ring.INTEGER:
        raise ValueError("membership is decided over the integers")
    n = hypergraph.vertex_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    kernel_columns = kernel_basis(matrix.transpose(), Ring.INTEGER)
    columns = matrix.columns() + kernel_columns
    system = ExactMatrix.from_columns(columns, Ring.INTEGER, rows=n)
    return solve_integer(system, candidate.to_vector(n)) is not None


def boundary_functional_injectivity_check(
    hypergraph: OrientedHypergraph, samples: int = 50, seed: int = 0
) -> bool:
    """Check that pairing functionals identify chains up to cycles.

    Verifies that the Gram matrix has the same rank as the boundary map and
    that sampled chains with a vanishing functional are themselves cycles.
    """
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    gram = matrix.transpose() @ matrix
    if image_rank(gram) != image_rank(matrix):
        return False
    import random

    rng = random.Random(seed)
    m = hypergraph.edge_count
    for _ in range(samples):
        vector = [rng.randint(-3, 3) for _ in range(m)]
        if all(x == 0 for x in gram.apply(vector)) and any(
            x != 0 for x in matrix.apply(vector)
        ):
            return False
    return True


def cohomology_hom_iso_check(hypergraph: OrientedHypergraph) -> bool:
    """Whether restricting cochain classes to cycles is an isomorphism onto
    the dual of the homology: the cohomology must be torsion-free of the
    same rank as the homology."""
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    structure = quotient_structure(matrix.transpose())
    homology_rank = hypergraph.edge_count - image_rank(matrix)
    return not structure.torsion and structure.free_rank == homology_rank
