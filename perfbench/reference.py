"""The benchmark's own exact arithmetic, independent of the program under test.

Answers from the CLI are checked against these routines, never against the
library itself, so a wrong answer cannot vouch for itself.  Everything works
on plain lists of ``int`` and ``Fraction``; documents are the decoded JSON
objects the benchmark wrote.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# Ranks of rational vectors are taken modulo this prime.  A rank mod p never
# exceeds the rational rank, so "rank mod p equals the vector count" is a
# sound proof of independence.
PRIME = (1 << 61) - 1


def boundary_columns(doc: dict) -> list[dict[int, int]]:
    """Boundary of each edge as a sparse column ``{vertex index: +1 or -1}``."""
    index = {v: i for i, v in enumerate(doc["vertices"])}
    columns = []
    for edge in doc["edges"]:
        column = {index[v]: 1 for v in edge["heads"]}
        column.update({index[v]: -1 for v in edge["tails"]})
        columns.append(column)
    return columns


def dense_rows(doc: dict) -> list[list[int]]:
    """The boundary matrix B as dense rows (vertices by edges)."""
    rows = [[0] * len(doc["edges"]) for _ in doc["vertices"]]
    for j, column in enumerate(boundary_columns(doc)):
        for i, value in column.items():
            rows[i][j] = value
    return rows


def apply_boundary(columns: list[dict[int, int]], chain: dict[int, object]) -> dict[int, object]:
    """Boundary of a 1-chain given as ``{edge index: coefficient}``; zero
    coefficients are dropped from the result."""
    out: dict[int, object] = {}
    for j, value in chain.items():
        for i, sign in columns[j].items():
            out[i] = out.get(i, 0) + sign * value
    return {i: v for i, v in out.items() if v}


def dot(x: dict, y: dict):
    if len(y) < len(x):
        x, y = y, x
    return sum(v * y[i] for i, v in x.items() if i in y)


def elementary_divisors(rows: list[list[int]]) -> list[int]:
    """Nonzero Smith-form diagonal of an integer matrix, in divisibility
    order, by unimodular elimination without keeping the transforms."""
    a = [list(r) for r in rows if any(r)]
    out: list[int] = []
    while a:
        a = [r for r in a if any(r)]
        if not a:
            break
        pi, pj = min(
            ((i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        p = a[pi][pj]
        settled = True
        for i, r in enumerate(a):
            if i != pi and r[pj]:
                q = r[pj] // p
                a[i] = [x - q * y for x, y in zip(r, a[pi])]
                settled = settled and not a[i][pj]
        pivot_row = a[pi]
        for j, x in enumerate(pivot_row):
            if j != pj and x:
                q = x // p
                for r in a:
                    r[j] -= q * r[pj]
                settled = settled and not pivot_row[j]
        if not settled:
            continue
        rest = [r[:pj] + r[pj + 1:] for i, r in enumerate(a) if i != pi]
        offender = next((r for r in rest if any(x % p for x in r)), None)
        if offender is not None:
            # fold an indivisible row into the pivot row; the next pass
            # finds a strictly smaller pivot
            k = rest.index(offender)
            source = [i for i in range(len(a)) if i != pi][k]
            a[pi] = [x + y for x, y in zip(a[pi], a[source])]
            continue
        out.append(abs(p))
        a = rest
    return out


def _mod(x) -> int:
    x = Fraction(x)
    return x.numerator % PRIME * pow(x.denominator % PRIME, -1, PRIME) % PRIME


def rank_mod_p(vectors) -> int:
    """Rank of rational vectors (lists) modulo :data:`PRIME`."""
    rows = [[_mod(x) for x in v] for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, PRIME)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inverse % PRIME
                rows[i] = [(x - f * y) % PRIME for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def in_row_lattice(rows: list[list[int]], vector: list[int], before=None) -> bool:
    """Whether ``vector`` is an integer combination of ``rows``.

    Adding a vector in the rational span changes the lattice index by the
    ratio of the divisor products, so equal rank and equal products mean
    the vector was already in the lattice.  ``before`` may pass the
    elementary divisors of ``rows`` when they are already known.
    """
    if not any(vector):
        return True
    if not rows:
        return False
    if before is None:
        before = elementary_divisors(rows)
    after = elementary_divisors(rows + [vector])
    return len(after) == len(before) and product(after) == product(before)


def transpose(rows: list[list[int]], width: int) -> list[list[int]]:
    return [[r[j] for r in rows] for j in range(width)]


def greedy_basis(columns: list[dict[int, int]], vertex_count: int) -> list[int]:
    """Indices of the first linearly independent boundary columns, scanning
    edges in order (the pivot columns of the row echelon form of B)."""
    kept: list[list[int]] = []
    basis = []
    for j, column in enumerate(columns):
        vector = [column.get(i, 0) for i in range(vertex_count)]
        if rank_mod_p(kept + [vector]) > len(kept):
            kept.append(vector)
            basis.append(j)
    return basis


def graph_rank(doc: dict) -> int:
    """Rank of B for a graph (one tail, one head per edge): vertex count
    minus the number of connected components."""
    parent = list(range(len(doc["vertices"])))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    index = {v: i for i, v in enumerate(doc["vertices"])}
    rank = 0
    for edge in doc["edges"]:
        a = find(index[edge["tails"][0]])
        b = find(index[edge["heads"][0]])
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def is_graph(doc: dict) -> bool:
    return all(len(e["tails"]) == 1 and len(e["heads"]) == 1 for e in doc["edges"])


def integral_basis(rows: list[list[int]], subset) -> bool:
    """Whether the columns ``subset`` of B span a saturated lattice of full
    column rank: every elementary divisor of B_T is 1."""
    sub = [[r[j] for j in subset] for r in rows]
    divisors = elementary_divisors(sub)
    return len(divisors) == len(subset) and all(d == 1 for d in divisors)


def integral_tree_search(rows: list[list[int]], rank: int, edge_count: int, max_bases=None):
    """Scan the rank-sized column subsets of B in lexicographic order for the
    first basis T that gives an integral spanning tree (all elementary
    divisors of B_T equal 1).  Returns ``(T or None, bases seen)``, where
    bases seen counts the column bases scanned, T included; the scan gives
    up with ``(None, bases seen)`` once more than ``max_bases`` are seen."""
    bases = 0
    for subset in combinations(range(edge_count), rank):
        divisors = elementary_divisors([[r[j] for j in subset] for r in rows])
        if len(divisors) < rank:
            continue
        bases += 1
        if max_bases is not None and bases > max_bases:
            break
        if all(d == 1 for d in divisors):
            return subset, bases
    return None, bases


class DocFacts:
    """Invariant facts of one hypergraph document, computed on demand."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.n = len(doc["vertices"])
        self.m = len(doc["edges"])
        self.columns = boundary_columns(doc)
        self.graph = is_graph(doc)
        self._cache: dict = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    @property
    def rows(self) -> list[list[int]]:
        return self._memo("rows", lambda: dense_rows(self.doc))

    @property
    def divisors(self) -> list[int]:
        # incidence matrices of graphs are totally unimodular
        if self.graph:
            return [1] * self.rank
        return self._memo("divisors", lambda: elementary_divisors(self.rows))

    @property
    def rank(self) -> int:
        if self.graph:
            return self._memo("rank", lambda: graph_rank(self.doc))
        return len(self.divisors)

    @property
    def torsion(self) -> list[int]:
        return [d for d in self.divisors if d > 1]

    @property
    def graph_like(self) -> bool:
        return not self.torsion

    @property
    def greedy_tree(self) -> list[int]:
        return self._memo("greedy", lambda: greedy_basis(self.columns, self.n))

    @property
    def integer_tree(self):
        """First integral tree basis, or None; only ever exists when B is
        graph-like."""
        if not self.graph_like:
            return None
        return self._memo(
            "tree", lambda: integral_tree_search(self.rows, self.rank, self.m)[0]
        )

    def row_lattice_contains(self, vector: list[int]) -> bool:
        """Whether an edge vector is an integer coboundary (in the row
        lattice of B)."""
        return in_row_lattice(self.rows, vector, self.divisors)

    def column_lattice_contains(self, vector: list[int]) -> bool:
        """Whether a vertex vector is an integer boundary."""
        cols = self._memo("cols", lambda: transpose(self.rows, self.m))
        return in_row_lattice(cols, vector, self.divisors)
