"""Exact integer and rational linear algebra on small dense matrices.

Everything is pure Python over ``int`` and ``fractions.Fraction``; no
floating point anywhere.  There are two routes, one per ring.  Over the
integers, :func:`smith_normal_form` drives every lattice-level operation
(integer kernels, image lattices, annihilators, quotient structure,
integer solving), so the returned kernel and annihilator lattices are
saturated by construction.  Over the rationals, one reduced row echelon
form (RREF) over Fractions gives ranks, rational solutions, kernels, column
bases and, read as a spanning tree, fundamental cuts and cycles.  Matrices
here are desk-scale (tens of rows/columns); correctness, not asymptotic
speed, is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import InternalInconsistencyError, Ring


@dataclass(frozen=True, init=False)
class ExactMatrix:
    """Dense rectangular matrix whose entries all lie in a single ring."""

    rows: int
    cols: int
    ring: Ring
    entries: tuple

    def __init__(self, entries, ring: Ring, cols: int | None = None):
        normalized = tuple(tuple(ring.coerce(x) for x in row) for row in entries)
        if normalized:
            width = len(normalized[0])
            if any(len(row) != width for row in normalized):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
        else:
            width = cols if cols is not None else 0
        object.__setattr__(self, "rows", len(normalized))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def from_rows(cls, rows, ring: Ring, cols: int | None = None) -> "ExactMatrix":
        return cls(rows, ring, cols)

    @classmethod
    def from_columns(cls, columns, ring: Ring, rows: int | None = None) -> "ExactMatrix":
        columns = [list(c) for c in columns]
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ValueError("columns have inconsistent lengths")
            if rows is not None and rows != height:
                raise ValueError("explicit row count disagrees with columns")
        else:
            height = rows if rows is not None else 0
        data = [[columns[j][i] for j in range(len(columns))] for i in range(height)]
        return cls(data, ring, cols=len(columns))

    @classmethod
    def identity(cls, n: int, ring: Ring = Ring.INTEGER) -> "ExactMatrix":
        return cls(
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
            ring,
            cols=n,
        )

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: Ring) -> "ExactMatrix":
        return cls([[ring.zero] * cols for _ in range(rows)], ring, cols=cols)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def column(self, j: int) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "ExactMatrix":
        data = [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        return ExactMatrix(data, self.ring, cols=self.rows)

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.rows != self.rows or other.ring is not self.ring:
            raise ValueError("shape or ring mismatch")
        data = [list(self.entries[i]) + list(other.entries[i]) for i in range(self.rows)]
        return ExactMatrix(data, self.ring, cols=self.cols + other.cols)

    def to_ring(self, ring: Ring) -> "ExactMatrix":
        if ring is self.ring:
            return self
        return ExactMatrix(self.entries, ring, cols=self.cols)

    def apply(self, vector) -> list:
        """Matrix-vector product."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return [
            sum((self.entries[i][j] * vector[j] for j in range(self.cols)), self.ring.zero)
            for i in range(self.rows)
        ]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows or self.ring is not other.ring:
            raise ValueError("shape or ring mismatch")
        data = [
            [
                sum(
                    (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                    self.ring.zero,
                )
                for j in range(other.cols)
            ]
            for i in range(self.rows)
        ]
        return ExactMatrix(data, self.ring, cols=other.cols)


def _fraction_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with the pivot columns, over Fractions."""
    matrix = [list(map(Fraction, row)) for row in rows]
    pivots: list[int] = []
    r = 0
    cols = len(matrix[0]) if matrix else 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][c]), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        factor = matrix[r][c]
        matrix[r] = [x / factor for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c]:
                scale = matrix[i][c]
                matrix[i] = [a - scale * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    return matrix, pivots


def _rref_tree(rows, cols: int, order=None):
    """Spanning tree of the row space, read off one RREF.

    Columns are scanned in ``order`` (default: left to right).  The pivot
    columns are the greedy column basis, which is the tree.  RREF row i has
    1 at its pivot and 0 at every other pivot, so it is the fundamental cut
    of that pivot.  Each free column f gives the null vector with 1 at f, 0
    at every other free column and minus the RREF entry at each pivot: the
    fundamental cycle of f.  Returns ``(tree, cuts, cycles)``: the tree
    columns in scan order, then dicts from column index to a Fraction
    vector of length ``cols``.
    """
    order = list(range(cols)) if order is None else list(order)
    reduced, pivots = _fraction_rref([[row[j] for j in order] for row in rows])
    tree = tuple(order[p] for p in pivots)
    cuts = {}
    for i, t in enumerate(tree):
        cut = [Fraction(0)] * cols
        for k, j in enumerate(order):
            cut[j] = reduced[i][k]
        cuts[t] = cut
    free = sorted(set(range(cols)) - set(pivots))
    cycles = {}
    for k in free:
        cycle = [Fraction(0)] * cols
        cycle[order[k]] = Fraction(1)
        for i, t in enumerate(tree):
            cycle[t] = -reduced[i][k]
        cycles[order[k]] = cycle
    return tree, cuts, cycles


def image_rank(matrix: ExactMatrix) -> int:
    """Rank over the fraction field, by Gaussian elimination.

    Deliberately independent of the Smith normal form so the two routes can
    be checked against each other.
    """
    _, pivots = _fraction_rref([list(row) for row in matrix.entries])
    return len(pivots)


def solve_rational(matrix: ExactMatrix, rhs) -> list[Fraction] | None:
    """One rational solution of ``matrix @ x = rhs``, or None.

    Free variables are set to zero, so the answer is deterministic; when the
    columns are independent the solution is unique anyway.
    """
    rhs = list(rhs)
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    augmented = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix.entries, rhs)]
    if not augmented:
        return [Fraction(0)] * matrix.cols
    rref, pivots = _fraction_rref(augmented)
    if matrix.cols in pivots:
        return None
    solution = [Fraction(0)] * matrix.cols
    for row, pivot in zip(rref, pivots):
        solution[pivot] = row[-1]
    return solution


@dataclass(frozen=True)
class SnfDecomposition:
    """Unimodular factors ``u @ m @ v = s`` with ``s`` in Smith form.

    The diagonal of ``s`` is nonnegative with each entry dividing the next;
    ``u_inverse`` and ``v_inverse`` are accumulated during the reduction so
    kernel and image lattice bases can be read off exactly.
    """

    u: ExactMatrix
    s: ExactMatrix
    v: ExactMatrix
    u_inverse: ExactMatrix
    v_inverse: ExactMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        """The nonzero diagonal entries (elementary divisors), in order."""
        out = []
        for i in range(min(self.s.rows, self.s.cols)):
            d = self.s.entries[i][i]
            if d == 0:
                break
            out.append(d)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def solve(self, rhs) -> list[int] | None:
        """Some integer solution of ``m @ x = rhs`` for the factored ``m``,
        or None when no integer solution exists (even if a rational one
        does).  ``u @ rhs`` must be divisible by the divisors and vanish
        beyond the rank."""
        rhs = [Ring.INTEGER.coerce(b) for b in rhs]
        if len(rhs) != self.u.cols:
            raise ValueError("right-hand side length does not match row count")
        diagonal = self.diagonal
        y = [0] * self.v.rows
        for i, value in enumerate(self.u.apply(rhs)):
            if i < len(diagonal):
                if value % diagonal[i]:
                    return None
                y[i] = value // diagonal[i]
            elif value:
                return None
        return self.v.apply(y)


def smith_normal_form(matrix: ExactMatrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The pivot at each step is a nonzero entry of minimal absolute value
    (ties broken by lowest row, then lowest column), which limits
    coefficient growth.  Before the algorithm advances, the pivot is forced
    to divide every entry of the remaining submatrix, so the diagonal comes
    out positive and in divisibility order with no post-processing.
    """
    if matrix.ring is not Ring.INTEGER:
        raise ValueError("Smith normal form requires integer entries")
    r, c = matrix.rows, matrix.cols
    s = [list(row) for row in matrix.entries]
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    u_inv = [[int(i == j) for j in range(r)] for i in range(r)]
    v = [[int(i == j) for j in range(c)] for i in range(c)]
    v_inv = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_swap(a, b):
        s[a], s[b] = s[b], s[a]
        u[a], u[b] = u[b], u[a]
        for row in u_inv:
            row[a], row[b] = row[b], row[a]

    def row_add(target, source, q):
        # row_target += q * row_source; inverse applied on u_inv columns
        s[target] = [x + q * y for x, y in zip(s[target], s[source])]
        u[target] = [x + q * y for x, y in zip(u[target], u[source])]
        for row in u_inv:
            row[source] -= q * row[target]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

    def col_swap(a, b):
        for row in s:
            row[a], row[b] = row[b], row[a]
        for row in v:
            row[a], row[b] = row[b], row[a]
        v_inv[a], v_inv[b] = v_inv[b], v_inv[a]

    def col_add(target, source, q):
        # col_target += q * col_source; inverse applied on v_inv rows
        for row in s:
            row[target] += q * row[source]
        for row in v:
            row[target] += q * row[source]
        v_inv[source] = [x - q * y for x, y in zip(v_inv[source], v_inv[target])]

    def find_pivot(k):
        best = None
        for i in range(k, r):
            for j in range(k, c):
                value = abs(s[i][j])
                if value and (best is None or value < best[0]):
                    best = (value, i, j)
        return best

    for k in range(min(r, c)):
        while True:
            pivot = find_pivot(k)
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != k:
                row_swap(k, pi)
            if pj != k:
                col_swap(k, pj)
            if s[k][k] < 0:
                row_negate(k)
            p = s[k][k]
            dirty = False
            for i in range(k + 1, r):
                if s[i][k]:
                    q = s[i][k] // p
                    if q:
                        row_add(i, k, -q)
                    if s[i][k]:
                        dirty = True
            for j in range(k + 1, c):
                if s[k][j]:
                    q = s[k][j] // p
                    if q:
                        col_add(j, k, -q)
                    if s[k][j]:
                        dirty = True
            if dirty:
                continue
            violation = None
            for i in range(k + 1, r):
                for j in range(k + 1, c):
                    if s[i][j] % p:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            # pull the offending row into row k; the next pass shrinks the pivot
            row_add(k, violation, 1)
        if find_pivot(k) is None:
            break

    result = SnfDecomposition(
        u=ExactMatrix(u, Ring.INTEGER, cols=r),
        s=ExactMatrix(s, Ring.INTEGER, cols=c),
        v=ExactMatrix(v, Ring.INTEGER, cols=c),
        u_inverse=ExactMatrix(u_inv, Ring.INTEGER, cols=r),
        v_inverse=ExactMatrix(v_inv, Ring.INTEGER, cols=c),
    )
    if (result.u @ matrix) @ result.v != result.s:
        raise InternalInconsistencyError("Smith normal form factors do not reproduce the matrix")
    return result


def kernel_basis(matrix: ExactMatrix, ring: Ring) -> list[list]:
    """Basis of the nullspace (rational) or of the kernel lattice (integer).

    Integer kernels are read off the column change-of-basis factor of the
    Smith normal form, so the returned lattice is saturated: it is a direct
    summand of the ambient lattice.  Rational kernels are the null vectors
    of the free columns of the RREF, one per free column in order.
    """
    if ring is Ring.INTEGER:
        if matrix.ring is not Ring.INTEGER:
            raise ValueError("integer kernel requires an integer matrix")
        decomposition = smith_normal_form(matrix)
        return [decomposition.v.column(j) for j in range(decomposition.rank, matrix.cols)]
    _, _, cycles = _rref_tree(matrix.entries, matrix.cols)
    return list(cycles.values())


def image_basis(matrix: ExactMatrix, ring: Ring) -> list[list]:
    """Basis of the column space (rational) or of the image lattice (integer).

    Over the rationals this is the greedy independent subset of columns,
    lowest indices first: the pivot columns of the RREF.  Over the integers
    the basis is read off the Smith factors: the nonzero diagonal entries
    times the matching columns of the inverse row transform generate exactly
    the lattice spanned by the columns.
    """
    if ring is Ring.INTEGER:
        if matrix.ring is not Ring.INTEGER:
            raise ValueError("integer image requires an integer matrix")
        decomposition = smith_normal_form(matrix)
        basis = []
        for i, d in enumerate(decomposition.diagonal):
            basis.append([d * x for x in decomposition.u_inverse.column(i)])
        return basis
    tree, _, _ = _rref_tree(matrix.entries, matrix.cols)
    return [[Fraction(x) for x in matrix.column(j)] for j in tree]


def solve_integer(matrix: ExactMatrix, rhs) -> list[int] | None:
    """Some integer solution of ``matrix @ x = rhs``, or None when no
    integer solution exists (even if a rational one does)."""
    return smith_normal_form(matrix).solve(rhs)


def is_direct_summand(matrix: ExactMatrix) -> bool:
    """Whether the lattice spanned by the columns is a direct summand of the
    ambient integer lattice: all elementary divisors are 1."""
    return all(d == 1 for d in smith_normal_form(matrix).diagonal)


def annihilator_basis(generators, ambient_dim: int) -> list[list[int]]:
    """Basis of the integer vectors orthogonal to every generator.

    This is the integer kernel of the matrix whose rows are the generators,
    so the resulting lattice is saturated.  With no generators it is the
    whole ambient lattice.
    """
    rows = [list(g) for g in generators]
    for row in rows:
        if len(row) != ambient_dim:
            raise ValueError("generator length does not match ambient dimension")
    matrix = ExactMatrix.from_rows(rows, Ring.INTEGER, cols=ambient_dim)
    return kernel_basis(matrix, Ring.INTEGER)


@dataclass(frozen=True)
class ModuleStructure:
    """Isomorphism type of a finitely generated abelian group: a free rank
    plus torsion orders in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must divide their successors")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def quotient_structure(matrix: ExactMatrix) -> ModuleStructure:
    """Structure of the ambient integer lattice modulo the column span."""
    decomposition = smith_normal_form(matrix)
    torsion = tuple(d for d in decomposition.diagonal if d > 1)
    return ModuleStructure(matrix.rows - decomposition.rank, torsion)


def _lattice_contains_all(generators, vectors, ambient_dim: int) -> bool:
    """Whether every vector lies in the integer span of the generators; the
    generator matrix is factored once for all of them."""
    vectors = [list(v) for v in vectors]
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError("vector length does not match ambient dimension")
    if not vectors:
        return True
    matrix = ExactMatrix.from_columns(generators, Ring.INTEGER, rows=ambient_dim)
    decomposition = smith_normal_form(matrix)
    return all(decomposition.solve(v) is not None for v in vectors)


def lattice_contains(generators, vector, ambient_dim: int) -> bool:
    """Whether ``vector`` lies in the integer span of the generators."""
    return _lattice_contains_all(generators, [vector], ambient_dim)


def sublattice_equal(generators_a, generators_b, ambient_dim: int) -> bool:
    """Whether two generating sets span the same integer lattice."""
    return _lattice_contains_all(
        generators_b, generators_a, ambient_dim
    ) and _lattice_contains_all(generators_a, generators_b, ambient_dim)
