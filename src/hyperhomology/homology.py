"""Homology and cohomology groups, cycle/cut lattices, graph-likeness.

The first homology group is the kernel of the boundary map B; the first
cohomology group is the cokernel of the coboundary map.  Over the integers
the homology, graph-likeness and decomposition reports read everything off
one Smith normal form U B V = S with divisors d_0..d_{r-1}: the rank r,
the cycles (columns r.. of V), the cohomology torsion, the annihilator of
the cycles (rows < r of V^-1) and coboundary membership, since
V^T B^T U^T = S^T factors the coboundary map too.  The
five graph-likeness conditions are equivalent; the report decides them
once, by whether every divisor is 1, and builds the witnesses from the
same factorization.  The other routes to the same conditions
(:func:`is_direct_summand`, :func:`cohomology_hom_iso_check`,
:func:`annihilator_of_cycles` with a lattice comparison) stay public and
serve as independent checks.  Over the rationals the bases come from one
reduced row echelon form of B.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .boundary import boundary_matrix, canonical_inner_product
from .core import (
    Chain,
    Cochain,
    InternalInconsistencyError,
    OrientedHypergraph,
    Ring,
)
from .exact_linalg import (
    ExactMatrix,
    ModuleStructure,
    SnfDecomposition,
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


@dataclass(frozen=True)
class HomologyReport:
    """First homology and cohomology of a hypergraph over one ring."""

    ring: Ring
    h1: ModuleStructure
    h1_basis: tuple[Chain, ...]
    h1_cohomology: ModuleStructure
    rank_image_boundary: int


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
        basis_vectors = [decomposition.v.column(j) for j in range(rank, m)]
        torsion = tuple(d for d in decomposition.diagonal if d > 1)
    else:
        tree, _, cycles = _rref_tree(matrix.entries, m)
        rank = len(tree)
        basis_vectors = list(cycles.values())
        torsion = ()
    basis = tuple(Chain.from_vector(1, vector, ring) for vector in basis_vectors)
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


@dataclass(frozen=True)
class Witness:
    """Concrete vector certifying that a condition fails.

    ``basis`` says which indexed basis the coefficients refer to ("edges"
    for 1-chains/1-cochains, "vertices" for 0-chains/0-cochains).
    """

    condition: str
    description: str
    basis: str
    coefficients: tuple


@dataclass(frozen=True)
class GraphLikenessReport:
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


def _annihilator_witness(decomposition: SnfDecomposition, coboundary: SnfDecomposition):
    """Lexicographically first cochain in the annihilator that is not a
    coboundary: standard edge cochains first, then annihilator generators.

    ``decomposition`` factors the boundary matrix, so the cycles are the
    columns from the rank on of its ``v``, and the annihilator generators
    are the rows of ``v_inverse`` before the rank; ``coboundary`` is the
    transposed factorization, which solves for coboundaries.
    """
    rank = decomposition.rank
    m = decomposition.v.cols
    for e in range(m):
        unit = [0] * m
        unit[e] = 1
        kills_cycles = not any(decomposition.v.entries[e][rank:])
        if kills_cycles and coboundary.solve(unit) is None:
            return (
                tuple(unit),
                f"standard cochain on edge e{e + 1} kills every cycle but is not a coboundary",
            )
    for i in range(rank):
        generator = decomposition.v_inverse.row(i)
        if coboundary.solve(generator) is None:
            return tuple(generator), "annihilator generator that is not a coboundary"
    raise InternalInconsistencyError("annihilator exceeds coboundary image but no witness found")


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
        # U B V = S transposes to V^T B^T U^T = S^T, a factorization of B^T
        coboundary = SnfDecomposition(
            u=decomposition.v.transpose(),
            s=decomposition.s.transpose(),
            v=decomposition.u.transpose(),
            u_inverse=decomposition.v_inverse.transpose(),
            v_inverse=decomposition.u_inverse.transpose(),
        )
        coefficients, description = _annihilator_witness(decomposition, coboundary)
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
        position = next(i for i, d in enumerate(decomposition.diagonal) if d > 1)
        divisor = decomposition.diagonal[position]
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
                tuple(coboundary.u_inverse.column(position)),
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


@dataclass(frozen=True)
class DecompositionReport:
    """Cycle and cut bases with the diagnostics of how they sit in the
    1-chain module: orthogonality, trivial intersection, and whether their
    sum is everything (over the integers it may not be)."""

    ring: Ring
    cycle_basis: tuple[Chain, ...]
    cut_basis: tuple[Chain, ...]
    mutually_orthogonal: bool
    intersection_trivial: bool
    dimensions_sum_to_edge_count: bool
    spans_all_chains: bool
    missing_chain: Chain | None


def cycle_cut_decomposition(hypergraph: OrientedHypergraph, ring: Ring) -> DecompositionReport:
    """Compute the cycle module and cut module bases over ``ring`` and
    check how they decompose the 1-chains.

    Over the rationals the two are orthogonal complements.  Over the
    integers they still intersect trivially but their sum can be a proper
    sublattice; the first standard edge chain outside the sum is reported.
    Integer cycles are columns r.. of V in the Smith form U B V = S, and the
    cuts d_i times row i of V^-1 for i < r; rational cycles and cuts are the
    fundamental cycles and cuts of the RREF of B.
    """
    m = hypergraph.edge_count
    matrix = boundary_matrix(hypergraph, Ring.INTEGER)
    if ring is Ring.INTEGER:
        decomposition = smith_normal_form(matrix)
        cycle_vectors = [decomposition.v.column(j) for j in range(decomposition.rank, m)]
        cut_vectors = [
            [d * x for x in decomposition.v_inverse.row(i)]
            for i, d in enumerate(decomposition.diagonal)
        ]
    else:
        _, cuts, cycles = _rref_tree(matrix.entries, m)
        cycle_vectors, cut_vectors = list(cycles.values()), list(cuts.values())
    cycle_basis = tuple(Chain.from_vector(1, v, ring) for v in cycle_vectors)
    cut_basis = tuple(Chain.from_vector(1, v, ring) for v in cut_vectors)

    orthogonal = all(
        canonical_inner_product(c, b) == ring.zero for c in cycle_basis for b in cut_basis
    )

    stacked = ExactMatrix.from_rows(
        [list(map(Fraction, v)) for v in cycle_vectors]
        + [list(map(Fraction, v)) for v in cut_vectors],
        Ring.RATIONAL,
        cols=m,
    )
    combined_rank = image_rank(stacked)
    intersection_trivial = combined_rank == len(cycle_vectors) + len(cut_vectors)
    dimensions_sum = len(cycle_vectors) + len(cut_vectors) == m

    missing_chain = None
    if ring is Ring.INTEGER:
        generators = ExactMatrix.from_columns(cycle_vectors + cut_vectors, Ring.INTEGER, rows=m)
        chain_sum = smith_normal_form(generators)
        for e in range(m):
            unit = [0] * m
            unit[e] = 1
            if chain_sum.solve(unit) is None:
                missing_chain = Chain.unit(1, e, Ring.INTEGER)
                break
        spans = missing_chain is None
    else:
        spans = combined_rank == m

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


@dataclass(frozen=True)
class PerpComparison:
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
