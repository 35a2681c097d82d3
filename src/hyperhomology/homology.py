"""Homology and cohomology groups, cycle/cut lattices, graph-likeness.

The first homology group is the kernel of the boundary map B; the first
cohomology group is the cokernel of the coboundary map.  Over the integers
the homology, graph-likeness and decomposition reports read everything off
one Smith normal form U B V = S with divisors d_0..d_{r-1}, the one the
hypergraph keeps once it is first factored (``_smith_form``): the rank r,
the bases, the cohomology torsion, the annihilator of the cycles (rows < r
of V^-1) and coboundary membership, which reads rows of V.  Membership is
the graded test ``exact_linalg._grade``: a cochain grades 0 when it is the
coboundary of an integer 0-cochain, 1 when only of a rational one (it then
kills every cycle) and 2 when of none.  The integer decomposition's
spanning check asks each standard edge cochain for grade 0, and the
graph-likeness witness scan takes the first that grades 1.

Both reports take their bases from one reader, ``_bases``, with one rule
per ring.  Over the integers the cycles are columns r.. of V, as the Smith
form's column log builds and keeps them (no transpose), and the cuts are
d_i times row i of V^-1 for i < r.  Over the rationals they are the
fundamental cycles and cuts of the greedy rational spanning tree of B
(``find_spanning_tree_rational``), read off one reduced row echelon form
of B.  ``cycle_cut_decomposition`` reports both bases; ``homology``
reports the cycles and takes the boundary rank by rank-nullity, m minus
the number of cycles, so an integer homology builds no cut.  In both rings
the cycles and cuts are orthogonal, independent and m in number by
construction, so the decomposition's report holds no flag for these
facts; the pass that forms every cycle-cut product lives in
``tests/oracles.py``.

The Smith form is checked without V, and V is built from its column log
when first read: by the cycles and by coboundary membership, not by the
divisors.  The five graph-likeness conditions are equivalent; the report
decides them once, by whether every divisor is 1, holds that one verdict
and builds the witnesses from the same factorization, so a positive
verdict builds no V.  The witnesses read S, V and V^-1 only; the
direct-summand one is the boundary of column p of V divided by d_p, for
the first divisor d_p above 1.  The other routes to the same conditions
(the direct summand test, the cohomology-to-dual check, the cycle
annihilator with a lattice comparison) and to the pairing-functional
lattice live in ``tests/oracles.py``, where they serve as independent
checks.
"""

from .boundary import boundary
from .core import Chain, OrientedHypergraph, Ring, _Record, _require_ring
from .exact_linalg import ModuleStructure, SnfDecomposition, _grade
from .spanning_tree import find_spanning_tree_rational


class HomologyReport(_Record):
    """First homology and cohomology of a hypergraph over one ring."""

    ring: Ring
    h1: ModuleStructure
    h1_basis: tuple[Chain, ...]
    h1_cohomology: ModuleStructure
    rank_image_boundary: int


def _bases(hypergraph: OrientedHypergraph, ring: Ring):
    """The cycle basis, as a tuple, and the cut basis, as an iterable, by
    the ring's rule in the module docstring.  The integer cuts are built
    only as they are read, so a caller that reads only the cycles wraps no
    cut."""
    if ring is Ring.INTEGER:
        decomposition = hypergraph._smith_form
        cycles = decomposition._v_columns[decomposition.rank:]
        cuts = (
            Chain._of(1, {j: d * x for j, x in row.items()}, Ring.INTEGER)
            for row, d in zip(decomposition.v_inverse.lines, decomposition.diagonal)
        )
        return tuple(Chain._of(1, v, Ring.INTEGER) for v in cycles), cuts
    tree = find_spanning_tree_rational(hypergraph)
    return tuple(tree.fundamental_cycles.values()), tree.fundamental_cuts.values()


def homology(hypergraph: OrientedHypergraph, ring: Ring) -> HomologyReport:
    """Compute the first homology (cycle module with basis) and the first
    cohomology (cochains modulo coboundaries) over the requested ring.

    Over the integers the homology is always free of rank |E| minus the
    boundary rank, while the cohomology may carry torsion; over the
    rationals only the free ranks remain.  The basis is the cycle basis of
    ``_bases``, and the boundary rank is the edge count minus its size; the
    integer torsion is the divisors of the Smith form above 1.  A ``ring``
    that is not a :class:`Ring` raises ``TypeError``.
    """
    _require_ring(ring)
    basis, _ = _bases(hypergraph, ring)
    divisors = hypergraph._smith_form.diagonal if ring is Ring.INTEGER else ()
    return HomologyReport(
        ring=ring,
        h1=ModuleStructure(len(basis), ()),
        h1_basis=basis,
        h1_cohomology=ModuleStructure(len(basis), tuple(d for d in divisors if d > 1)),
        rank_image_boundary=hypergraph.edge_count - len(basis),
    )


class Witness(_Record):
    """Concrete vector certifying that a condition fails.

    ``basis`` says which indexed basis the coefficients refer to ("edges"
    for 1-chains/1-cochains, "vertices" for 0-chains/0-cochains).
    """

    condition: str
    description: str
    basis: str
    coefficients: tuple


# the paper's five equivalent graph-likeness conditions, in its order
_CONDITIONS = (
    "canonical_iso",
    "annihilator_equals_coboundary_image",
    "cuts_equal_cycle_perp",
    "boundary_image_direct_summand",
    "hom_dual_iso",
)


class GraphLikenessReport(_Record):
    """The one verdict of the five equivalent graph-likeness conditions.

    The five are equivalent, so the report holds their common value once,
    as ``graph_like``, and :meth:`conditions` gives it under each name;
    when it is false, ``witnesses`` carries one concrete counterexample per
    condition, in the same order.
    """

    graph_like: bool
    witnesses: tuple[Witness, ...]

    def conditions(self) -> dict[str, bool]:
        """The five conditions by name, in the paper's order, each with the
        one verdict."""
        return dict.fromkeys(_CONDITIONS, self.graph_like)


def _annihilator_witness(decomposition: SnfDecomposition, position: int):
    """Lexicographically first cochain in the annihilator that is not a
    coboundary: standard edge cochains first, then annihilator generators.

    ``decomposition`` factors the boundary matrix, so the cycles are the
    columns from the rank on of its ``v``, and the annihilator generators
    are the rows of ``v_inverse`` before the rank.  Row i of V^-1 has
    V^T row = e_i, so it is a coboundary iff d_i = 1: the first generator
    that is not one is row ``position``, the first divisor above 1.

    A cochain kills every cycle exactly when it is a rational coboundary,
    so a standard edge cochain is the witness when it grades 1 under
    :func:`_grade`: a rational coboundary but not an integer one.
    """
    m = decomposition.s.cols
    for e in range(m):
        if _grade(decomposition, {e: 1}) == 1:
            return (
                tuple(int(j == e) for j in range(m)),
                f"standard cochain on edge e{e + 1} kills every cycle but is not a coboundary",
            )
    return decomposition.v_inverse.row(position), "annihilator generator that is not a coboundary"


def graph_likeness(hypergraph: OrientedHypergraph) -> GraphLikenessReport:
    """Decide the five graph-likeness conditions from one Smith normal form.

    The conditions are equivalent, and each holds exactly when every
    elementary divisor of the boundary matrix is 1, so the report holds
    that one verdict.  The canonical-isomorphism condition is witnessed
    through its computable form, the lattice equality of the cycle
    annihilator with the coboundary image.  A positive verdict reads only
    the divisors.  When the verdict is negative, the witnesses come from
    the same factorization, and the first one builds V.  The 0-chain of
    the direct-summand condition is read off V: B V = U^-1 S, so the
    boundary of column p of V is d_p times z = U^-1 e_p, a 0-chain whose
    d_p-multiple is a boundary.  z is not one itself: V is unimodular, so
    im B = U^-1 im S, which holds U^-1 e_p only when d_p = 1.  The
    division is exact, because ``smith_normal_form`` checks U B = D V^-1
    and V^-1 V = I, hence B V = U^-1 D.
    """
    decomposition = hypergraph._smith_form
    position = next((i for i, d in enumerate(decomposition.diagonal) if d > 1), None)
    if position is None:
        return GraphLikenessReport(True, ())
    divisor = decomposition.diagonal[position]
    coefficients, description = _annihilator_witness(decomposition, position)
    summand = boundary(hypergraph, Chain._of(1, decomposition._v_columns[position], Ring.INTEGER))
    perp = "chain orthogonal to every cycle that lies outside the cut lattice"
    # (description, basis, coefficients) for each condition, in its order
    found = (
        (description, "edges", coefficients),
        (description, "edges", coefficients),
        (perp, "edges", coefficients),
        (
            f"0-chain whose {divisor}-multiple is a boundary although it is not one itself",
            "vertices",
            tuple(x // divisor for x in summand.to_vector(hypergraph.vertex_count)),
        ),
        (
            f"cochain whose class has finite order {divisor} in the cohomology",
            "edges",
            decomposition.v_inverse.row(position),
        ),
    )
    return GraphLikenessReport(False, tuple(Witness(c, *w) for c, w in zip(_CONDITIONS, found)))


class DecompositionReport(_Record):
    """Cycle and cut bases and whether their sum is every 1-chain (over the
    integers it may not be).

    The report holds no flag for what the construction decides, in both
    rings.  The cycles are orthogonal to the cuts (see
    :func:`cycle_cut_decomposition` for why), each family is independent,
    and their sizes are (m - r) + r = m for m edges and boundary rank r.
    Orthogonal families meet only in 0, so the intersection is trivial,
    the dimensions sum to the edge count and, over the rationals, the
    bases span every 1-chain.  Over the integers the sum is everything
    when every standard edge chain lies in it, which the Smith form of the
    boundary matrix decides edge by edge; ``missing_chain`` is the first
    that does not, and ``spans_all_chains`` says whether there is none."""

    ring: Ring
    cycle_basis: tuple[Chain, ...]
    cut_basis: tuple[Chain, ...]
    spans_all_chains: bool
    missing_chain: Chain | None


def cycle_cut_decomposition(hypergraph: OrientedHypergraph, ring: Ring) -> DecompositionReport:
    """Compute the cycle module and cut module bases over ``ring`` and
    report how they decompose the 1-chains.

    Over the rationals the two are orthogonal complements.  Over the
    integers they still intersect trivially but their sum can be a proper
    sublattice; the first standard edge chain outside the sum is reported.
    The bases are those of ``_bases``, by the ring's rule in the module
    docstring.  Either way each family is independent (V is
    unimodular, every d_i is nonzero, the fundamental cuts and cycles have
    Kronecker patterns), and no cycle-cut product is formed, because each
    is 0 by construction:

    - over the integers, cut i times cycle k is d_i (V^-1 V)_ik = 0 for
      i < r <= k; ``smith_normal_form`` checks V^-1 V = I exactly, against
      the same column log that builds the cycles;
    - over the rationals, cycle f is e_f minus the sum over tree edges t of
      cut_t[f] e_t, and cut t has 1 at t and 0 at every other tree edge,
      so cut_t . cycle_f = cut_t[f] - cut_t[f] = 0.

    The integer spanning check needs no second factorization.  Cycles and
    cuts are orthogonal, so e_k = z + c with z a cycle and c a cut gives
    1 = |z|^2 + |c|^2: e_k is then a cycle or a cut itself.  So e_k lies in
    the sum iff edge k is empty (column k of B is zero) or e_k is an
    integer coboundary, that is, grades 0 under ``_grade``.  A ``ring``
    that is not a :class:`Ring` raises ``TypeError``.
    """
    _require_ring(ring)
    cycle_basis, cuts = _bases(hypergraph, ring)
    missing_chain = None
    if ring is Ring.INTEGER:
        decomposition = hypergraph._smith_form
        for k, (tails, heads) in enumerate(hypergraph.edges):
            if (tails or heads) and _grade(decomposition, {k: 1}) != 0:
                missing_chain = Chain.unit(1, k, Ring.INTEGER)
                break
    return DecompositionReport(
        ring=ring,
        cycle_basis=cycle_basis,
        cut_basis=tuple(cuts),
        spans_all_chains=missing_chain is None,
        missing_chain=missing_chain,
    )
