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
    Cochain,
    ExactMatrix,
    HypergraphValidationError,
    ModuleStructure,
    OrientedHypergraph,
    Ring,
    Witness,
    boundary_matrix,
    canonical_inner_product,
    chain_to_cochain,
    cochain_to_chain,
    cycle_cut_decomposition,
    find_spanning_tree_rational,
    graph_likeness,
    homology,
    main_example,
    random_hypergraph,
    smith_normal_form,
    triangle_graph,
    validation_report,
    verify_tree_axioms,
)

from oracles import pairwise_validation_report, pop_random_hypergraph


def test_overlapping_edge_rejected():
    report = validation_report(["a"], [({"a"}, {"a"})])
    assert any("overlap" in v for v in report)
    with pytest.raises(HypergraphValidationError):
        OrientedHypergraph(["a"], [({"a"}, {"a"})])


def test_inverse_pair_rejected():
    report = validation_report(["a", "b"], [({"a"}, {"b"}), ({"b"}, {"a"})])
    assert any("inverse pair" in v for v in report)


def test_parallel_edges_accepted():
    h = OrientedHypergraph(["u", "v"], [({"u"}, {"v"}), ({"u"}, {"v"})])
    assert h.edge_count == 2
    assert validation_report(h.vertices, h.edges) == []


def test_unknown_vertex_rejected():
    report = validation_report(["a"], [({"a"}, {"b"})])
    assert any("unknown vertex" in v for v in report)


def test_duplicate_vertex_rejected():
    report = validation_report(["a", "a"], [])
    assert any("duplicate vertex" in v for v in report)


def test_empty_edge_allowed_once():
    h = OrientedHypergraph(["a"], [(set(), set())])
    assert h.edge_count == 1
    # a second doubly-empty edge is its own inverse
    report = validation_report(["a"], [(set(), set()), (set(), set())])
    assert any("inverse pair" in v for v in report)


def test_violation_list_order_pinned():
    # repeated parallel inverses and three empty edges: each edge that
    # inverts an earlier one is reported once, paired with the first edge it
    # inverts, in the order of the later edges, after the other checks
    vertices = ["a", "b", "c", "a"]
    edges = [
        ({"a"}, {"b"}),
        ({"b"}, {"a"}),
        ({"b"}, {"a"}),
        ({"a"}, {"b"}),
        (set(), set()),
        ({"a", "c"}, {"c"}),
        (set(), set()),
        ({"z"}, {"a"}),
        (set(), set()),
        ({"b"}, {"a"}),
    ]
    assert validation_report(vertices, edges) == [
        "duplicate vertex 'a'",
        "edge 5: tails and heads overlap on 'c'",
        "edge 7: unknown vertex 'z'",
        "edges 0 and 1: inverse pair",
        "edges 0 and 2: inverse pair",
        "edges 1 and 3: inverse pair",
        "edges 4 and 6: inverse pair",
        "edges 4 and 8: inverse pair",
        "edges 0 and 9: inverse pair",
    ]


def test_inverse_copies_are_reported_once_each():
    # k copies of an edge and k of its inverse: one line per inverse copy,
    # each naming the first copy it inverts, not k^2 pairs
    k = 2000
    report = validation_report(["a", "b"], [({"a"}, {"b"})] * k + [({"b"}, {"a"})] * k)
    assert report == [f"edges 0 and {j}: inverse pair" for j in range(k, 2 * k)]


def test_validation_report_matches_pairwise_oracle():
    # small pools make every fault common: repeated and unknown vertices,
    # overlaps, parallel edges, inverse pairs and repeated empty edges
    rng = random.Random(41)
    pool = ["a", "b", "c", "d", "z", 0, ("t",)]
    invalid = 0
    for _ in range(600):
        vertices = [rng.choice(pool[:5]) for _ in range(rng.randint(0, 5))]
        edges = []
        for _ in range(rng.randint(0, 7)):
            if edges and rng.random() < 0.3:
                tails, heads = rng.choice(edges)
                edges.append((heads, tails) if rng.random() < 0.7 else (tails, heads))
            else:
                side = lambda: {rng.choice(pool) for _ in range(rng.randint(0, 2))}
                edges.append((side(), side()))
        expected = pairwise_validation_report(vertices, edges)
        assert validation_report(vertices, edges) == expected
        invalid += bool(expected)
        if not expected:
            h = OrientedHypergraph(vertices, edges)
            assert validation_report(h.vertices, h.edges) == []
        else:
            with pytest.raises(HypergraphValidationError) as caught:
                OrientedHypergraph(vertices, edges)
            assert list(caught.value.violations) == expected
    assert 100 < invalid < 550


def test_empty_sided_edges_allowed():
    h = OrientedHypergraph(["a", "b"], [(set(), {"a"}), ({"b"}, set())])
    assert h.edge_count == 2


def test_empty_hypergraph():
    h = OrientedHypergraph([], [])
    assert h.vertex_count == 0 and h.edge_count == 0


def test_gamma_sends_vertex_to_indicator():
    chain = Chain.unit(0, 1, Ring.INTEGER)
    cochain = chain_to_cochain(chain)
    assert cochain(Chain.unit(0, 1, Ring.INTEGER)) == 1
    assert cochain(Chain.unit(0, 0, Ring.INTEGER)) == 0


def test_cochain_evaluation_is_dot_product():
    cochain = Cochain(1, {0: 2, 2: -1}, Ring.INTEGER)
    chain = Chain(1, {0: 3, 1: 9, 2: 4}, Ring.INTEGER)
    assert cochain(chain) == 2 * 3 + (-1) * 4
    # rational results are in canonical form: 1/2 * 1 + 1/2 * 1 is the int 1,
    # from the evaluation and from the inner product alike
    half = Fraction(1, 2)
    cochain = Cochain(1, {0: half, 1: half}, Ring.RATIONAL)
    chain = Chain(1, {0: 1, 1: 1}, Ring.RATIONAL)
    for value in (cochain(chain), canonical_inner_product(cochain_to_chain(cochain), chain)):
        assert value == 1 and type(value) is int
    value = cochain(Chain(1, {0: 1}, Ring.RATIONAL))
    assert value == half and type(value) is Fraction
    value = Cochain.zero(1, Ring.RATIONAL)(chain)
    assert value == 0 and type(value) is int


def test_gamma_zero():
    zero = Chain.zero(1, Ring.INTEGER)
    assert chain_to_cochain(zero).is_zero()


def test_gamma_round_trip_fixed():
    chain = Chain(1, {0: 3, 1: -2}, Ring.INTEGER)
    assert cochain_to_chain(chain_to_cochain(chain)) == chain


def test_gamma_round_trip_random():
    rng = random.Random(5)
    for _ in range(100):
        dim = rng.randint(0, 1)
        ring = rng.choice([Ring.INTEGER, Ring.RATIONAL])
        coeffs = {i: rng.randint(-9, 9) for i in rng.sample(range(10), rng.randint(0, 6))}
        chain = Chain(dim, coeffs, ring)
        assert cochain_to_chain(chain_to_cochain(chain)) == chain
        cochain = Cochain(dim, coeffs, ring)
        assert chain_to_cochain(cochain_to_chain(cochain)) == cochain


def test_canonical_sparse_form():
    a = Chain(1, {0: 2, 1: 5}, Ring.INTEGER)
    b = Chain(1, {0: -2, 1: 1}, Ring.INTEGER)
    total = a + b
    assert 0 not in total.coefficients
    assert total == Chain(1, {1: 6}, Ring.INTEGER)
    assert a.scale(0).is_zero()
    assert (a - a).is_zero()


def test_zero_coefficients_dropped_on_construction():
    chain = Chain(1, {0: 0, 2: 7}, Ring.INTEGER)
    assert chain.support == (2,)


def test_negative_basis_indices_rejected():
    # a negative key would index from the end: boundary() would read the
    # last edge and to_vector()/coboundary() would drop the entry
    builders = [
        lambda: Chain(1, {-1: 1}, Ring.INTEGER),
        lambda: Chain(0, {0: 1, -2: 3}, Ring.RATIONAL),
        lambda: Cochain(1, {-1: 0}, Ring.INTEGER),
        lambda: Chain.unit(1, -1, Ring.INTEGER),
        lambda: Cochain.unit(0, -3, Ring.RATIONAL),
    ]
    for build in builders:
        with pytest.raises(ValueError, match="negative"):
            build()


@pytest.mark.parametrize("index", [2.7, 2.0, Fraction(5, 2), Fraction(2), "3", True, False, None])
def test_non_int_basis_indices_rejected(index):
    # int() would truncate 2.7 and 5/2 to 2, parse "3" and read True as 1,
    # so two keys that truncate alike would silently overwrite each other
    for cls, dimension, ring in ((Chain, 1, Ring.INTEGER), (Cochain, 0, Ring.RATIONAL)):
        with pytest.raises(TypeError, match="not an int"):
            cls(dimension, {index: 1}, ring)
    with pytest.raises(TypeError):
        Chain.unit(1, index, Ring.INTEGER)


_COCHAIN = Cochain.unit(1, 0, Ring.INTEGER)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: Chain(2, {}, Ring.INTEGER),
            ValueError,
            r"dimension must be 0 \(vertices\) or 1 \(edges\)",
        ),
        (
            lambda: Chain.unit(1, 3, Ring.INTEGER).to_vector(3),
            IndexError,
            "coefficient index out of range for requested length",
        ),
        (lambda: _COCHAIN.evaluate(_COCHAIN), TypeError, "cochains evaluate on chains"),
        (
            lambda: _COCHAIN.evaluate(Chain.unit(0, 0, Ring.INTEGER)),
            ValueError,
            "dimension mismatch",
        ),
        (
            lambda: _COCHAIN.evaluate(Chain.unit(1, 0, Ring.RATIONAL)),
            ValueError,
            "ring mismatch",
        ),
    ],
    ids=["dimension-2", "short-vector", "cochain-on-cochain", "wrong-dimension", "wrong-ring"],
)
def test_formal_sum_refusals(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_ring_and_dimension_mismatch():
    a = Chain(1, {0: 1}, Ring.INTEGER)
    b = Chain(1, {0: Fraction(1)}, Ring.RATIONAL)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a + Chain(0, {0: 1}, Ring.INTEGER)
    with pytest.raises(TypeError):
        a + chain_to_cochain(a)


def test_with_ring_conversion():
    a = Chain(1, {0: 2}, Ring.INTEGER).with_ring(Ring.RATIONAL)
    assert a.coefficient(0) == Fraction(2)
    back = a.with_ring(Ring.INTEGER)
    assert back.coefficient(0) == 2
    with pytest.raises(ValueError):
        Chain(1, {0: Fraction(1, 2)}, Ring.RATIONAL).with_ring(Ring.INTEGER)
    for kind in (Chain, Cochain):
        for ring in Ring:
            c = kind(1, {0: 2, 2: -1}, ring)
            assert c.with_ring(c.ring) is c


@pytest.mark.parametrize(
    "make",
    [
        lambda: Chain(1, {}, "int"),
        lambda: Cochain(0, {}, None),
        lambda: ExactMatrix([], "int"),
        lambda: boundary_matrix(triangle_graph(), "int"),
        lambda: Chain(1, {0: 1}, "int"),
        lambda: Chain.unit(1, 0, "rat"),
        lambda: ExactMatrix([[1]], "int"),
        lambda: Chain.unit(1, 0, Ring.INTEGER).with_ring("rat"),
        # the ring is checked before the dimension and the shape
        lambda: Chain(2, {}, "int"),
        lambda: ExactMatrix([[1], [1, 2]], "int"),
    ],
)
def test_chains_and_matrices_refuse_a_ring_that_is_not_a_ring(make):
    with pytest.raises(TypeError, match="^ring must be a Ring, not "):
        make()


def test_scalar_normalization():
    chain = Chain(1, {0: Fraction(6, 4)}, Ring.RATIONAL)
    value = chain.coefficient(0)
    assert value.numerator == 3 and value.denominator == 2


def test_integer_coerce_keeps_ints_and_takes_integral_fractions():
    assert Ring.INTEGER.coerce(7) == 7 and type(Ring.INTEGER.coerce(7)) is int
    for fraction, expected in ((Fraction(4, 2), 2), (Fraction(4), 4), (Fraction(-6, 3), -2)):
        value = Ring.INTEGER.coerce(fraction)
        assert value == expected and type(value) is int
    with pytest.raises(ValueError, match="1/2 is not an integer"):
        Ring.INTEGER.coerce(Fraction(1, 2))


def test_rational_coerce_makes_fractions():
    # canonical form: an int when the value is integral, else a Fraction
    # in lowest terms
    for value, expected in (
        (3, 3),
        (-5, -5),
        (Fraction(6, 3), 2),
        (Fraction(-4), -4),
        (Fraction(0, 7), 0),
        (Fraction(6, 4), Fraction(3, 2)),
        (Fraction(-1, 2), Fraction(-1, 2)),
    ):
        coerced = Ring.RATIONAL.coerce(value)
        assert coerced == expected and type(coerced) is type(expected), value
    assert Ring.RATIONAL.coerce(Fraction(6, 4)).denominator == 2


@pytest.mark.parametrize("ring", list(Ring))
@pytest.mark.parametrize("value", [True, False, 1.0, 0.5, "1", None])
def test_coerce_rejects_booleans_floats_and_other_types(ring, value):
    with pytest.raises(TypeError):
        ring.coerce(value)


def test_ring_zero_and_one_are_typed_by_ring():
    assert (Ring.INTEGER.zero, Ring.INTEGER.one) == (0, 1)
    assert type(Ring.INTEGER.zero) is int and type(Ring.INTEGER.one) is int
    assert (Ring.RATIONAL.zero, Ring.RATIONAL.one) == (0, 1)
    assert type(Ring.RATIONAL.zero) is int and type(Ring.RATIONAL.one) is int


def test_scalar_json_keeps_ints_and_writes_fractions_as_text():
    from hyperhomology.cli import _scalar_json

    assert _scalar_json(3, Ring.INTEGER) == 3 and type(_scalar_json(3, Ring.INTEGER)) is int
    assert _scalar_json(-2, Ring.INTEGER) == -2
    assert _scalar_json(Fraction(1, 2), Ring.RATIONAL) == "1/2"
    assert _scalar_json(Fraction(-3, 4), Ring.RATIONAL) == "-3/4"
    assert _scalar_json(Fraction(2), Ring.RATIONAL) == "2"
    assert _scalar_json(2, Ring.RATIONAL) == "2" and _scalar_json(-1, Ring.RATIONAL) == "-1"


def test_random_generator_always_validates():
    for seed in range(50):
        h = random_hypergraph(5, 5, seed=seed, max_arity=3)
        assert validation_report(h.vertices, h.edges) == []
        assert h.edge_count == 5
    h = random_hypergraph(4, 4, seed=7, max_arity=2, allow_empty_edges=True)
    assert validation_report(h.vertices, h.edges) == []


def test_random_generator_deterministic():
    a = random_hypergraph(6, 6, seed=42)
    b = random_hypergraph(6, 6, seed=42)
    assert a == b


def test_random_generator_output_pinned():
    # each of these draws resamples inverse candidates (a second empty edge
    # among them); the digests fix the whole draw stream
    from hyperhomology.cli import serialize_document

    pinned = {
        (3, 12, 1, 1, False): "58efb223cf92119b2dbf4d21df927ee1fac28b538601872b23245622a5619404",
        (2, 6, 5, 1, True): "b9ca28d48df36c926097f47fa94d4106a8aa63c37dfc0dc83fab5f31b5573350",
        (4, 20, 9, 2, True): "6ca15c0bafef5ca91ab3f8fd9d54366e1b23ec56502b8d381f6ea41962e077a8",
    }
    for (vertices, edges, seed, arity, empty), digest in pinned.items():
        h = random_hypergraph(vertices, edges, seed, max_arity=arity, allow_empty_edges=empty)
        text = serialize_document(h)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_generator_infeasible_params():
    with pytest.raises(ValueError):
        random_hypergraph(0, 2, seed=0)
    with pytest.raises(ValueError):
        random_hypergraph(3, 1, seed=0, max_arity=0)
    # arities beyond the vertex count are drawn and rejected every time
    with pytest.raises(ValueError, match="did not converge"):
        random_hypergraph(2, 1, seed=1, max_arity=100000)


def _draw_or_refusal(generator, *params):
    vertices, edges, seed, arity, empty = params
    try:
        return generator(vertices, edges, seed, max_arity=arity, allow_empty_edges=empty)
    except ValueError as err:
        return str(err)


def _generator_grid():
    """Every vertex count 0-13 with every max arity 0-8 and both
    ``allow_empty_edges`` values, each at ten seeds; over the grid the
    seeds run through 0-299 and the edge counts through 0-25.  A setting
    that can draw only the empty edge runs at one seed: past its first
    edge each one spends 10000 draws before it gives up."""
    combos = itertools.product(range(14), range(9), (False, True))
    for n, (vertices, arity, empty) in enumerate(combos):
        only_empty = empty and (vertices == 0 or arity == 0)
        for k in range(1 if only_empty else 10):
            yield vertices, (n + 3 * k) % 26, (10 * n + k) % 300, arity, empty


def test_random_generator_matches_pop_reference():
    # the index draw picks the vertex the reference pops from its copy of
    # the vertex list, so hypergraphs and refusals agree draw for draw
    refusals = set()
    cases = [
        *_generator_grid(),
        (0, 2, 0, 3, False),  # no nonempty edge without vertices
        (3, 1, 0, 0, False),  # nor with arity 0
        (-1, 1, 0, 3, False),  # negative counts
        (3, -1, 0, 3, False),
        (3, 1, 0, -1, False),
        (2, 1, 1, 100000, False),  # arities beyond the vertex count: no convergence
        (1, 3, 5, 0, True),  # the empty edge is its own inverse: no second edge
    ]
    for params in cases:
        expected = _draw_or_refusal(pop_random_hypergraph, *params)
        assert _draw_or_refusal(random_hypergraph, *params) == expected, params
        if isinstance(expected, str):
            refusals.add(expected.split(":")[0].split(",")[0])
    assert refusals == {
        "vertex count must not be negative",
        "edge count must not be negative",
        "max arity must not be negative",
        "no nonempty edge can be drawn with these parameters",
        "edge resampling did not converge",
    }


# Records: immutable values with field-wise equality.


def _one_record_of_each_kind():
    h = main_example()
    tree = find_spanning_tree_rational(triangle_graph())
    return [
        h,
        Chain(1, {0: 1}, Ring.INTEGER),
        Cochain(1, {0: 1}, Ring.INTEGER),
        boundary_matrix(h, Ring.INTEGER),
        smith_normal_form(boundary_matrix(h, Ring.INTEGER)),
        ModuleStructure(1, (2,)),
        homology(h, Ring.INTEGER),
        graph_likeness(h).witnesses[0],
        graph_likeness(h),
        cycle_cut_decomposition(h, Ring.INTEGER),
        tree,
        verify_tree_axioms(triangle_graph(), tree),
    ]


def test_record_fields_cannot_be_assigned_or_deleted():
    records = _one_record_of_each_kind()
    assert len({type(r) for r in records}) == 12
    for record in records:
        field = record._fields[0]
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert getattr(record, field) is before


def test_records_equal_only_within_their_class():
    for a, b in zip(_one_record_of_each_kind(), _one_record_of_each_kind()):
        assert a == b and not a != b
    chain = Chain(1, {0: 1}, Ring.INTEGER)
    cochain = Cochain(1, {0: 1}, Ring.INTEGER)
    assert chain.coefficients == cochain.coefficients
    assert chain != cochain and cochain != chain
    assert ModuleStructure(0, ()) != (0, ())
    assert Chain(1, {0: 1}, Ring.INTEGER) != Chain(1, {0: 2}, Ring.INTEGER)


def test_equal_records_hash_equal():
    pairs = [
        (
            ExactMatrix([[1, -1, -1], [-1, 1, -1], [-1, -1, 1]], Ring.INTEGER),
            boundary_matrix(main_example(), Ring.INTEGER),
        ),
        (main_example(), main_example()),
        (ModuleStructure(1, (2, 4)), ModuleStructure(1, (2, 4))),
        (graph_likeness(main_example()).witnesses[0], graph_likeness(main_example()).witnesses[0]),
    ]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
    assert len({ModuleStructure(1, (2, 4)), ModuleStructure(1, (2, 4)), ModuleStructure(0, ())}) == 2
    # a record holding a dict is unhashable, as its value can change
    with pytest.raises(TypeError):
        hash(Chain(1, {0: 1}, Ring.INTEGER))


def test_record_keyword_and_positional_construction_agree():
    assert Witness("c", "d", "edges", (1, 0)) == Witness(
        coefficients=(1, 0), basis="edges", description="d", condition="c"
    )
    assert Witness("c", "d", basis="edges", coefficients=(1, 0)) == Witness("c", "d", "edges", (1, 0))
    assert ModuleStructure(2, (3,)) == ModuleStructure(torsion=(3,), free_rank=2)
    assert Chain(1, {0: 2}, Ring.INTEGER) == Chain(dimension=1, coefficients={0: 2}, ring=Ring.INTEGER)
    assert ExactMatrix([[1, 2]], Ring.INTEGER) == ExactMatrix(entries=[[1, 2]], ring=Ring.INTEGER)
    assert main_example() == OrientedHypergraph(
        vertices=main_example().vertices, edges=main_example().edges
    )


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("c", "d", "edges"), {}),
        (("c", "d", "edges", (1,), "extra"), {}),
        (("c", "d", "edges", (1,)), {"colour": "red"}),
        (("c", "d", "edges"), {"basis": "vertices", "coefficients": (1,)}),
    ],
)
def test_record_wrong_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Witness(*args, **kwargs)


def test_record_repr_pinned():
    assert repr(homology(main_example(), Ring.INTEGER)) == (
        "HomologyReport(ring=<Ring.INTEGER: 'int'>, h1=ModuleStructure(free_rank=0, torsion=()), "
        "h1_basis=(), h1_cohomology=ModuleStructure(free_rank=0, torsion=(2, 2)), "
        "rank_image_boundary=3)"
    )
    assert repr(homology(triangle_graph(), Ring.INTEGER)) == (
        "HomologyReport(ring=<Ring.INTEGER: 'int'>, h1=ModuleStructure(free_rank=1, torsion=()), "
        "h1_basis=(Chain(dimension=1, coefficients={0: -1, 1: -1, 2: 1}, "
        "ring=<Ring.INTEGER: 'int'>),), h1_cohomology=ModuleStructure(free_rank=1, torsion=()), "
        "rank_image_boundary=2)"
    )
    assert repr(graph_likeness(main_example()).witnesses[-1]) == (
        "Witness(condition='hom_dual_iso', description='cochain whose class has finite order 2 "
        "in the cohomology', basis='edges', coefficients=(0, 0, 1))"
    )


def test_hypergraph_repr_is_the_same_under_two_hash_seeds():
    # a frozenset prints its members in hash order, which follows string
    # hashing; the hypergraph prints each side in vertex order instead
    script = "from hyperhomology import main_example; print(repr(main_example()))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    printed = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout
        for seed in ("0", "1")
    }
    assert printed == {
        "OrientedHypergraph(vertices=('v1', 'v2', 'v3'), edges=("
        "(frozenset({'v2', 'v3'}), frozenset({'v1'})), "
        "(frozenset({'v1', 'v3'}), frozenset({'v2'})), "
        "(frozenset({'v1', 'v2'}), frozenset({'v3'}))))\n"
    }


@pytest.mark.parametrize(
    "vertices, edges, text",
    [
        ([], [], "edges=()"),
        (["b", "a"], [({"a", "b"}, set())], "edges=((frozenset({'b', 'a'}), frozenset()),)"),
        ([3, 1, 2], [({1}, {2, 3}), ({2}, set())], "((frozenset({1}), frozenset({3, 2})), "),
    ],
    ids=["no_edge", "one_edge", "int_vertices"],
)
def test_hypergraph_repr_keeps_the_record_format(vertices, edges, text):
    # the format of every record, with frozensets in vertex order, so the
    # text evaluates back to an equal hypergraph
    h = OrientedHypergraph(vertices, edges)
    assert text in repr(h)
    assert eval(repr(h), {"OrientedHypergraph": OrientedHypergraph}) == h
