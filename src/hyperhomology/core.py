"""Domain types: oriented hypergraphs, chains, cochains, exact scalars.

Coefficients are plain ``int`` over ``Ring.INTEGER``.  Over
``Ring.RATIONAL`` they are in one canonical form: an ``int`` when the value
is integral, and a ``fractions.Fraction`` (lowest terms, denominator above
1) otherwise.  Python compares and hashes ``Fraction(n)`` as ``n``, so the
form changes no equality, and all arithmetic stays exact and never
overflows.  Vertex order and edge order of a hypergraph fix the bases of
the 0-chain and 1-chain groups and the layout of every matrix and report
derived from them.  ``Chain`` and ``Cochain`` put their indices in
ascending order when made, whatever order they are given in, so every
chain and cochain lists its coefficients ascending; every tree the package
returns lists its edges, and its cuts and cycles keyed by edge, ascending
too, so a caller can print them as they come.

``fractions`` (and with it ``decimal`` and ``numbers``) is imported only
on the code paths that make or test a non-integral value, never at module
level, so neither an integer query nor a rational one whose values are
all integral (every query on a graph) loads it.  Annotations are
expressions, not strings; the types they name come from
``collections.abc``, which ``functools`` loads anyway, not from
``typing``.
"""

from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property


class Ring(Enum):
    """Coefficient ring: exact integers or exact rationals."""

    INTEGER = "int"
    RATIONAL = "rat"

    def coerce(self, value):
        """Convert ``value`` into this ring, rejecting lossy conversions.

        The result is in canonical form: an ``int`` when the value is
        integral, in either ring, and otherwise (over the rationals only) a
        ``Fraction`` with denominator above 1."""
        if isinstance(value, bool):
            raise TypeError("booleans are not scalars")
        if isinstance(value, int):
            return value
        from fractions import Fraction

        if isinstance(value, Fraction):
            if value.denominator == 1:
                return int(value)
            if self is Ring.INTEGER:
                raise ValueError(f"{value} is not an integer")
            return Fraction(value)
        name = "integers" if self is Ring.INTEGER else "rationals"
        raise TypeError(f"cannot coerce {value!r} to the {name}")

    @property
    def zero(self):
        """``0``, the canonical form of zero in both rings."""
        return 0

    @property
    def one(self):
        """``1``, the canonical form of one in both rings."""
        return 1


def _require_ring(ring) -> None:
    """Raise ``TypeError`` unless ``ring`` is a :class:`Ring`, so that a
    ring's value such as ``"int"`` is refused, not read as the other ring."""
    if not isinstance(ring, Ring):
        raise TypeError(f"ring must be a Ring, not {ring!r}")


class _Record:
    """Immutable value whose fields are its class annotations, in order.

    A subclass inherits its base's fields and appends its own.  Records are
    built by position or keyword, refuse assignment and deletion, compare
    equal only to records of the very same class with equal fields, hash by
    their field tuple and print as ``Name(field=value, ...)``.  A subclass
    with its own ``__init__`` stores its fields with ``object.__setattr__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        name = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for key, value in kwargs.items():
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        if len(values) < len(names):
            missing = ", ".join(repr(key) for key in names if key not in values)
            raise TypeError(f"{name}() missing arguments: {missing}")
        for key in names:
            object.__setattr__(self, key, values[key])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class HypergraphValidationError(ValueError):
    """An oriented hypergraph violates one of its structural invariants."""

    def __init__(self, violations: Iterable[str]):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree produced different answers: a bug."""


def validation_report(vertices, edges) -> list[str]:
    """List every violated hypergraph invariant; an empty list means valid.

    Checked: duplicate vertex ids, tails/heads overlap within an edge, edge
    vertices missing from the vertex list, and edges that are inverses of
    earlier ones.  Two edges with identical (tails, heads) are allowed
    (parallel edges); an edge equal to the *inverse* of an earlier one is
    not, and is reported once, paired with the first edge it inverts, so
    k copies of an edge and k of its inverse give k lines, not k².  A
    single edge with empty tails and heads is allowed, but a second one
    counts as an inverse pair (it is its own inverse).  The duplicate
    vertices come first, then the overlaps and unknown vertices edge by
    edge, then the inverse pairs, in the order of their later edges.  A
    valid edge costs a disjointness test, two subset tests and one lookup
    of its inverse.
    """
    vertices = tuple(vertices)
    violations = []
    known = set(vertices)
    if len(known) != len(vertices):
        seen = set()
        for v in vertices:
            if v in seen:
                violations.append(f"duplicate vertex {v!r}")
            seen.add(v)
    inverse_pairs = []
    first: dict[tuple, int] = {}
    for j, (tails, heads) in enumerate(edges):
        tails = frozenset(tails)
        heads = frozenset(heads)
        if not tails.isdisjoint(heads):
            names = ", ".join(sorted(repr(v) for v in tails & heads))
            violations.append(f"edge {j}: tails and heads overlap on {names}")
        if not (known >= tails and known >= heads):
            for v in sorted((tails | heads) - known, key=repr):
                violations.append(f"edge {j}: unknown vertex {v!r}")
        if (heads, tails) in first:
            inverse_pairs.append(f"edges {first[heads, tails]} and {j}: inverse pair")
        first.setdefault((tails, heads), j)
    return violations + inverse_pairs


class OrientedHypergraph(_Record):
    """A finite ordered vertex list plus ordered oriented edges.

    Each edge is a pair (tails, heads) of disjoint vertex sets: the edge
    points away from its tails and towards its heads.  Construction
    validates the data and raises :class:`HypergraphValidationError` on any
    violation.  The integer boundary matrix B (``_boundary``) and its Smith
    form (``_smith_form``) are computed on first use and kept, so every
    integer report, tree check and the integer-tree search on one
    hypergraph share one factorization, and the rational tree eliminates
    the B that factorization read; the caches are not fields, so equality,
    hash and ``repr`` ignore them.
    """

    vertices: tuple
    edges: tuple

    def __init__(self, vertices, edges):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(
            self,
            "edges",
            tuple((frozenset(tails), frozenset(heads)) for tails, heads in edges),
        )
        problems = validation_report(self.vertices, self.edges)
        if problems:
            raise HypergraphValidationError(problems)

    def __repr__(self):
        """The record's ``repr``, with each side of an edge listed in vertex
        order, not in the hash order of its frozenset."""

        def side(members) -> str:
            ordered = sorted(members, key=self.vertex_index.__getitem__)
            return f"frozenset({{{', '.join(map(repr, ordered))}}})" if ordered else "frozenset()"

        edges = [f"({side(tails)}, {side(heads)})" for tails, heads in self.edges]
        edges_text = ", ".join(edges) + ("," if len(edges) == 1 else "")
        return f"{type(self).__qualname__}(vertices={self.vertices!r}, edges=({edges_text}))"

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _boundary(self):
        """``boundary_matrix(self, Ring.INTEGER)``, built once: the Smith
        form factors it and the rational tree eliminates it.  ``boundary``
        and ``exact_linalg`` import this module, so here and in
        ``_smith_form`` they are imported on first use, not at module
        level."""
        from .boundary import boundary_matrix

        return boundary_matrix(self, Ring.INTEGER)

    @cached_property
    def _smith_form(self):
        """``smith_normal_form(self._boundary)``, made once."""
        from .exact_linalg import smith_normal_form

        return smith_normal_form(self._boundary)


class _FormalSum(_Record):
    """Sparse formal sum over an indexed basis; shared by chains/cochains.

    Stored coefficients are always nonzero, all lie in ``ring`` and are
    keyed in ascending index order, whatever order they were given in
    (canonical sparse form); this class is the one place that orders them.
    Instances are immutable; arithmetic returns new objects of the same
    class and never mixes rings or dimensions.
    """

    dimension: int
    coefficients: Mapping
    ring: Ring

    def __init__(self, dimension: int, coefficients, ring: Ring):
        """Check each index and coerce each value into ``ring``, drop the
        zeros, then store the coefficients in ascending index order."""
        _require_ring(ring)
        if dimension not in (0, 1):
            raise ValueError("dimension must be 0 (vertices) or 1 (edges)")
        clean = {}
        for index, value in dict(coefficients).items():
            if type(index) is not int:
                raise TypeError(f"basis index {index!r} is not an int")
            if index < 0:
                raise ValueError(f"basis index {index} is negative")
            value = ring.coerce(value)
            if value:
                clean[index] = value
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "coefficients", dict(sorted(clean.items())))
        object.__setattr__(self, "ring", ring)

    @classmethod
    def _of(cls, dimension: int, coefficients: dict, ring: Ring):
        """Wrap a dict the package built itself, without the per-entry
        coercion of the constructor: its keys are ints and its values
        nonzero and in the canonical form of ``ring``, in any order.  The
        coefficients are stored in ascending index order, as the
        constructor stores them."""
        formal_sum = object.__new__(cls)
        object.__setattr__(formal_sum, "dimension", dimension)
        object.__setattr__(formal_sum, "coefficients", dict(sorted(coefficients.items())))
        object.__setattr__(formal_sum, "ring", ring)
        return formal_sum

    @classmethod
    def zero(cls, dimension: int, ring: Ring):
        return cls(dimension, {}, ring)

    @classmethod
    def unit(cls, dimension: int, index: int, ring: Ring):
        return cls(dimension, {index: 1}, ring)

    def coefficient(self, index: int):
        return self.coefficients.get(index, 0)

    @property
    def support(self) -> tuple:
        return tuple(self.coefficients)

    def is_zero(self) -> bool:
        return not self.coefficients

    def to_vector(self, length: int) -> list:
        if self.coefficients and max(self.coefficients) >= length:
            raise IndexError("coefficient index out of range for requested length")
        return [self.coefficients.get(i, 0) for i in range(length)]

    def with_ring(self, ring: Ring):
        """Convert between rings; integer -> rational always works, the
        reverse requires every coefficient to be integral."""
        if ring is self.ring:
            return self
        return type(self)(self.dimension, self.coefficients, ring)

    def _check_compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        if other.ring is not self.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        merged = dict(self.coefficients)
        for index, value in other.coefficients.items():
            merged[index] = merged.get(index, 0) + value
        return type(self)(self.dimension, merged, self.ring)

    def __neg__(self):
        return type(self)(
            self.dimension, {i: -v for i, v in self.coefficients.items()}, self.ring
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        factor = self.ring.coerce(factor)
        return type(self)(
            self.dimension, {i: factor * v for i, v in self.coefficients.items()}, self.ring
        )

    def __rmul__(self, factor):
        return self.scale(factor)


def _dot(x: _FormalSum, y: _FormalSum):
    """Coefficient-wise dot product of two formal sums over ``x``'s ring,
    in its canonical form; the callers check that the two match."""
    other = y.coefficients
    return x.ring.coerce(sum(value * other[i] for i, value in x.coefficients.items() if i in other))


class Chain(_FormalSum):
    """Formal linear combination of vertices (dim 0) or edges (dim 1)."""


class Cochain(_FormalSum):
    """Homomorphism from chains to the scalar ring, stored by its values on
    the basis.  Evaluation is the coefficient-wise dot product."""

    def evaluate(self, chain: Chain):
        if not isinstance(chain, Chain):
            raise TypeError("cochains evaluate on chains")
        if chain.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        if chain.ring is not self.ring:
            raise ValueError("ring mismatch")
        return _dot(self, chain)

    __call__ = evaluate


def chain_to_cochain(chain: Chain) -> Cochain:
    """Reinterpret a chain's coefficients as the values of a cochain."""
    return Cochain(chain.dimension, chain.coefficients, chain.ring)


def cochain_to_chain(cochain: Cochain) -> Chain:
    """Inverse reinterpretation; composed with ``chain_to_cochain`` it is
    the identity in both directions."""
    return Chain(cochain.dimension, cochain.coefficients, cochain.ring)
