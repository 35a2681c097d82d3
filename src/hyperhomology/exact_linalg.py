"""Exact integer and rational linear algebra.

Everything is pure Python over ``int`` and ``fractions.Fraction``; no
floating point anywhere.  There are two routes, one per ring.  Over the
integers, :func:`smith_normal_form` drives every lattice-level operation
(integer kernels, image lattices, annihilators, quotient structure,
integer solving), so the returned kernel and annihilator lattices are
saturated by construction.  Over the rationals, one reduced row echelon
form (RREF) gives ranks, rational solutions, kernels, column bases and,
read as a spanning tree, fundamental cuts and cycles.  The RREF is
computed fraction-free (integer-preserving, after Bareiss): every row is
held in ints as a positive multiple of the row the schoolbook elimination
over Fractions holds at the same step, so it has the same nonzeros and
leads to the same pivots, and each pivot row is divided by its pivot only
at the end, one Fraction per returned nonzero.  ``fractions`` is imported
inside the functions that build Fractions, once per call, so the integer
route never loads it.

:class:`ExactMatrix` stores one ``{column: nonzero}`` dict per row, and
its dense ``entries`` are only a view built on request, so a boundary
matrix holds at most 2 * arity nonzeros per column and transposes,
products and matrix-vector products cost in proportion to the nonzeros.
Both kernels work on such dicts: the Smith reduction starts from the
matrix's rows and its factors come back as sparse matrices, and the RREF
takes and returns dict rows.  The spanning-tree reader returns its
fundamental cuts and cycles as ``{index: nonzero}`` dicts, of Fractions
or, for an integer tree, of ints divided out exactly, which the reports
wrap as chains directly; only the public functions that return dense
lists build them, at the end.  A rank needs only the fraction-free
elimination, so it makes no Fraction.  The integer-tree search keeps a
log of unimodular row operations (swap, negate, add q times a row) and
replays it on one sparse column at a time.  The pivot rules are pinned:
the Smith form takes a nonzero of least absolute value, lowest current
row first, then lowest current column (so a unit entry whenever there is
one), and the RREF takes the first unused row of each column.  The
results are therefore exactly those of the textbook dense elimination
with the same rules.  Every Smith reduction is checked
before anything is read off it: ``u @ m @ v == s`` is compared in full,
exactly, on the sparse factors, and a mismatch raises
:class:`InternalInconsistencyError` (never an ``assert``).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .core import InternalInconsistencyError, Ring, _Record


class ExactMatrix(_Record):
    """Rectangular matrix whose entries all lie in a single ring, stored as
    one ``{column: nonzero}`` dict per row in ``lines``; ``entries`` is the
    dense view, built when asked for.  The row dicts must not be modified."""

    rows: int
    cols: int
    ring: Ring
    lines: tuple

    def __init__(self, entries, ring: Ring, cols: int | None = None):
        normalized = [[ring.coerce(x) for x in row] for row in entries]
        if normalized:
            width = len(normalized[0])
            if any(len(row) != width for row in normalized):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
        else:
            width = cols if cols is not None else 0
        lines = tuple({j: x for j, x in enumerate(row) if x} for row in normalized)
        super().__init__(len(normalized), width, ring, lines)

    @classmethod
    def _of(cls, lines, cols: int, ring: Ring = Ring.INTEGER) -> "ExactMatrix":
        """Wrap ``{column: nonzero}`` row dicts the package built itself, with
        values already in ``ring``, without the per-entry coercion of the
        constructor.  The dicts are kept, not copied."""
        matrix = object.__new__(cls)
        lines = tuple(lines)
        _Record.__init__(matrix, len(lines), cols, ring, lines)
        return matrix

    def __hash__(self):
        return hash(
            (self.rows, self.cols, self.ring, tuple(frozenset(line.items()) for line in self.lines))
        )

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
        return cls(columns, ring, cols=height).transpose()

    @classmethod
    def identity(cls, n: int, ring: Ring = Ring.INTEGER) -> "ExactMatrix":
        return cls._of([{i: ring.one} for i in range(n)], n, ring)

    @classmethod
    def zeros(cls, rows: int, cols: int, ring: Ring) -> "ExactMatrix":
        return cls._of([{} for _ in range(rows)], cols, ring)

    @property
    def entries(self) -> tuple:
        return tuple(self.row(i) for i in range(self.rows))

    def entry(self, i: int, j: int):
        return self.lines[i].get(range(self.cols)[j], self.ring.zero)

    def row(self, i: int) -> tuple:
        line, zero = self.lines[i], self.ring.zero
        return tuple(line.get(j, zero) for j in range(self.cols))

    def column(self, j: int) -> list:
        j, zero = range(self.cols)[j], self.ring.zero
        return [line.get(j, zero) for line in self.lines]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "ExactMatrix":
        lines: list[dict] = [{} for _ in range(self.cols)]
        for i, line in enumerate(self.lines):
            for j, x in line.items():
                lines[j][i] = x
        return ExactMatrix._of(lines, self.rows, self.ring)

    def apply(self, vector) -> list:
        """Matrix-vector product."""
        vector = list(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        zero = self.ring.zero
        return [sum((x * vector[j] for j, x in line.items()), zero) for line in self.lines]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows or self.ring is not other.ring:
            raise ValueError("shape or ring mismatch")
        lines = []
        for line in self.lines:
            product: dict = {}
            for k, a in line.items():
                _axpy(product, other.lines[k], a)
            lines.append(product)
        return ExactMatrix._of(lines, other.cols, self.ring)


def _integer_row(row: dict) -> dict:
    """A ``{column: nonzero}`` row of ints or Fractions times the least
    common multiple of its denominators: a positive multiple in ints."""
    scale = lcm(*[x.denominator for x in row.values()])
    if scale == 1:
        return {j: x.numerator for j, x in row.items() if x}
    return {j: x.numerator * (scale // x.denominator) for j, x in row.items() if x}


def _integer_echelon(rows: list[dict], width: int) -> tuple[list[dict], list[int]]:
    """Fraction-free reduced row echelon form with the pivot columns of the
    matrix with sparse ``rows`` (``{column: nonzero}`` dicts of ints or
    Fractions, which are not modified).  Returns the rows in their final
    order, every value a nonzero int and each pivot positive: the RREF rows
    each times its own pivot, then empty dicts.  :func:`_divide_pivots`
    turns them into the RREF; the rank is the number of pivots.

    Each row is kept with the set of rows that are nonzero in each column,
    so a step touches only the nonzeros of the rows it changes.  The pivot
    of a column is the first row, in current order, not yet used as a
    pivot; a pivot row moves up to the next free position, as in schoolbook
    elimination.

    Each row is stored in ints, as a positive multiple of the row the
    schoolbook elimination over Fractions holds at the same step: its
    denominators are cleared on entry, a pivot row is negated when its
    pivot is negative (and divided by its content when the pivot is not 1),
    and another row with b at the pivot column becomes
    ``a * row - b' * pivot_row``, where a and b' are the pivot p and b
    divided by gcd(p, b), and is divided by its content when a is not 1.
    A positive multiple has the nonzero pattern of the schoolbook row, so
    the pivots, the ``holders`` sets and, once each pivot row is divided by
    its pivot, the rows are exactly the schoolbook ones.
    """
    height = len(rows)
    matrix = [_integer_row(row) for row in rows]
    holders: list[set[int]] = [set() for _ in range(width)]
    for i, row in enumerate(matrix):
        for j in row:
            holders[j].add(i)
    order = list(range(height))  # order[p]: the stored row now at position p
    position = list(range(height))  # its inverse
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == height:
            break
        candidates = [i for i in holders[c] if position[i] >= r]
        if not candidates:
            continue
        pivot = min(candidates, key=position.__getitem__)
        displaced, moved_from = order[r], position[pivot]
        order[r], order[moved_from] = pivot, displaced
        position[pivot], position[displaced] = r, moved_from
        pivot_row = matrix[pivot]
        p = pivot_row[c]
        if p != 1:
            content = gcd(*pivot_row.values())
            if p < 0:
                content = -content
            if content != 1:
                matrix[pivot] = pivot_row = {j: x // content for j, x in pivot_row.items()}
                p = pivot_row[c]
        for i in holders[c] - {pivot}:
            row = matrix[i]
            a, b = 1, row[c]
            if p != 1:
                g = gcd(p, b)
                a, b = p // g, b // g
                if a != 1:
                    matrix[i] = row = {j: a * x for j, x in row.items()}
            for j, y in pivot_row.items():
                value = row.get(j, 0) - b * y
                if value:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = value
                else:
                    del row[j]
                    holders[j].discard(i)
            if a != 1:
                content = gcd(*row.values())
                if content > 1:
                    matrix[i] = {j: x // content for j, x in row.items()}
        pivots.append(c)
    return [matrix[i] for i in order], pivots


def _divide_pivots(reduced: list[dict], pivots: list[int], ring: Ring) -> list[dict]:
    """The RREF rows: each row of :func:`_integer_echelon` divided by its
    pivot, into Fractions over the rationals and exactly over the integers,
    where a pivot that does not divide its row raises
    :class:`InternalInconsistencyError`.  Rows past the rank are kept."""
    reduced = list(reduced)
    if ring is Ring.INTEGER:
        for k, c in enumerate(pivots):
            row = reduced[k]
            p = row[c]
            if p != 1:
                for x in row.values():
                    if x % p:
                        raise InternalInconsistencyError(
                            f"fractional integer tree: {x}/{p} is not an integer"
                        )
                reduced[k] = {j: x // p for j, x in row.items()}
        return reduced
    from fractions import Fraction

    for k, c in enumerate(pivots):
        row = reduced[k]
        p = row[c]
        if p == 1:
            reduced[k] = {j: Fraction(x) for j, x in row.items()}
        else:
            reduced[k] = {j: Fraction(x, p) for j, x in row.items()}
    return reduced


def _sparse_rref(rows: list[dict], width: int) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form with the pivot columns, over Fractions, of
    the matrix with sparse ``rows`` (``{column: nonzero}`` dicts of ints or
    Fractions, which are not modified).  Returns the rows in their final
    order (the RREF rows, then empty dicts), every value a nonzero
    Fraction, and the pivot columns: :func:`_integer_echelon` with each
    pivot row divided by its pivot at the end."""
    reduced, pivots = _integer_echelon(rows, width)
    return _divide_pivots(reduced, pivots, Ring.RATIONAL), pivots


def _dense(vector: dict, length: int) -> list[Fraction]:
    """Dense Fraction vector of a ``{index: value}`` dict."""
    from fractions import Fraction

    line = [Fraction(0)] * length
    for j, x in vector.items():
        line[j] = x
    return line


def _rref_tree(rows: list[dict], cols: int, order=None, ring: Ring = Ring.RATIONAL):
    """Spanning tree of the row space, read off one RREF.

    ``rows`` are ``{column: nonzero}`` dicts.  Columns are scanned in
    ``order`` (default: left to right).  The pivot columns are the greedy
    column basis, which is the tree.  RREF row i has 1 at its pivot and 0
    at every other pivot, so it is the fundamental cut of that pivot.  Each
    free column f gives the null vector with 1 at f, 0 at every other free
    column and minus the RREF entry at each pivot: the fundamental cycle of
    f.  Returns ``(tree, cuts, cycles)``: the tree columns in scan order,
    then dicts from tree column (in scan order) and from free column (in
    scan order) to a ``{column: nonzero}`` dict with its columns ascending.
    The values are Fractions over the rationals.  Over the integers they
    are ints: the RREF is divided exactly, and a pivot that does not divide
    its row (a tree whose cuts are not all integral) raises
    :class:`InternalInconsistencyError`.
    """
    order = list(range(cols)) if order is None else list(order)
    place = {j: k for k, j in enumerate(order)}
    reduced, pivots = _integer_echelon(
        [{place[j]: x for j, x in row.items()} for row in rows], cols
    )
    reduced = _divide_pivots(reduced, pivots, ring)
    tree = tuple(order[p] for p in pivots)
    cuts = {
        t: dict(sorted((order[k], x) for k, x in reduced[i].items()))
        for i, t in enumerate(tree)
    }
    pivot_set = set(pivots)
    one = ring.one
    cycles = {order[k]: {order[k]: one} for k in range(cols) if k not in pivot_set}
    for i, t in enumerate(tree):
        for k, x in reduced[i].items():
            j = order[k]
            if j in cycles:
                cycles[j][t] = -x
    for j, cycle in cycles.items():
        cycles[j] = dict(sorted(cycle.items()))
    return tree, cuts, cycles


def image_rank(matrix: ExactMatrix) -> int:
    """Rank over the fraction field, by Gaussian elimination.

    Deliberately independent of the Smith normal form so the two routes can
    be checked against each other.
    """
    return len(_integer_echelon(matrix.lines, matrix.cols)[1])


def solve_rational(matrix: ExactMatrix, rhs) -> list[Fraction] | None:
    """One rational solution of ``matrix @ x = rhs``, or None.

    Free variables are set to zero, so the answer is deterministic; when the
    columns are independent the solution is unique anyway.
    """
    from fractions import Fraction

    rhs = list(rhs)
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    width = matrix.cols
    augmented = []
    for line, b in zip(matrix.lines, rhs):
        b = Fraction(b)
        augmented.append({**line, width: b} if b else line)
    rref, pivots = _sparse_rref(augmented, width + 1)
    if width in pivots:
        return None
    solution = [Fraction(0)] * width
    for row, pivot in zip(rref, pivots):
        solution[pivot] = row.get(width, Fraction(0))
    return solution


class SnfDecomposition(_Record):
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

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        """The nonzero diagonal entries (elementary divisors), in order;
        read off ``s`` once per decomposition."""
        out = []
        for i, line in enumerate(self.s.lines[: self.s.cols]):
            d = line.get(i)
            if d is None:
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


def _is_coboundary(decomposition: SnfDecomposition, vector: dict) -> bool:
    """Whether the integer vector ``{index: value}`` is ``m^T y`` for some
    integer y, where ``decomposition`` factors ``m`` as U m V = S.

    Then m^T = V^-T S^T U^-T, so c = m^T y iff V^T c = S^T w for the integer
    w = U^-T y: V^T c must vanish from the rank on, and its entry i must be
    divisible by d_i below the rank.  V^T c is the sum of c_k times row k of
    V, one row per nonzero of c.
    """
    image: dict = {}
    for k, x in vector.items():
        if x:
            _axpy(image, decomposition.v.lines[k], x)
    diagonal = decomposition.diagonal
    rank = len(diagonal)
    return all(i < rank and value % diagonal[i] == 0 for i, value in image.items())


def _axpy(target: dict, source: dict, q: int) -> None:
    """``target += q * source`` on ``{index: nonzero}`` dicts."""
    for j, y in source.items():
        x = target.get(j, 0) + q * y
        if x:
            target[j] = x
        else:
            del target[j]


def _replay(ops, vector: dict) -> dict:
    """The integer ``{row: nonzero}`` vector with the unimodular row
    operations ``ops`` applied in turn; ``vector`` is not modified.  An
    operation ``(a, b, q)`` adds q times row b to row a when q is nonzero;
    with q = 0 it swaps rows a and b, or negates row a when a == b.  An
    operation whose rows are zero in the vector leaves it as it is."""
    y = dict(vector)
    for a, b, q in ops:
        if q:
            x = y.get(b)
            if x:
                x = y.get(a, 0) + q * x
                if x:
                    y[a] = x
                else:
                    del y[a]
        elif a == b:
            if a in y:
                y[a] = -y[a]
        else:
            x, z = y.pop(a, 0), y.pop(b, 0)
            if x:
                y[b] = x
            if z:
                y[a] = z
    return y


def _unit_steps(residual: dict, depth: int) -> list[tuple[int, int, int]]:
    """Row operations, in the encoding of :func:`_replay`, that take the
    primitive integer vector ``residual`` (gcd 1, every nonzero in a row
    from ``depth`` on) to the unit vector at row ``depth``, touching only
    rows from ``depth`` on.  Euclid's algorithm on its entries: swap an
    entry of least absolute value, lowest row first, into row ``depth``,
    reduce every other entry modulo it, and repeat until one entry is
    left, which is then 1 or -1, and negated if it is -1."""
    y = dict(residual)
    ops = []
    while True:
        i = min(y, key=lambda k: (abs(y[k]), k))
        if i != depth:
            ops.append((depth, i, 0))
            x = y.pop(depth, 0)
            y[depth] = y.pop(i)
            if x:
                y[i] = x
        if len(y) == 1:
            break
        p = y[depth]
        for k in [k for k in y if k != depth]:
            q = -(y[k] // p)
            ops.append((k, depth, q))
            x = y[k] + q * p
            if x:
                y[k] = x
            else:
                del y[k]
    if y[depth] < 0:
        ops.append((depth, depth, 0))
    return ops


def _smith_reduce(rows: list[dict], width: int):
    """Sparse Smith reduction of the integer matrix with ``rows`` (one
    ``{column: nonzero}`` dict per row; consumed).

    Returns ``(s, u, u_inverse, v, v_inverse)`` as lists of dicts: ``s``,
    ``u`` and ``v_inverse`` by rows, ``u_inverse`` and ``v`` by columns.
    ``s`` is also kept by columns while it is reduced.  A row operation acts
    on the rows of ``s`` and ``u`` and on the columns of ``u_inverse``; a
    column operation on the columns of ``s`` and ``v`` and on the rows of
    ``v_inverse``.  Each factor is stored along the lines its operations
    move, so both kinds run the same code on one "side" each.
    """
    height = len(rows)
    s_rows = rows
    s_cols: list[dict] = [{} for _ in range(width)]
    for i, row in enumerate(s_rows):
        for j, x in row.items():
            s_cols[j][i] = x
    u = [{i: 1} for i in range(height)]
    u_inv = [{i: 1} for i in range(height)]
    v = [{j: 1} for j in range(width)]
    v_inv = [{j: 1} for j in range(width)]
    by_rows = (s_rows, s_cols, u, u_inv)
    by_cols = (s_cols, s_rows, v, v_inv)

    def swap(side, a, b):
        lines, cross, factor, inverse = side
        for j in lines[a]:
            del cross[j][a]
        for j in lines[b]:
            del cross[j][b]
        lines[a], lines[b] = lines[b], lines[a]
        for j, x in lines[a].items():
            cross[j][a] = x
        for j, x in lines[b].items():
            cross[j][b] = x
        factor[a], factor[b] = factor[b], factor[a]
        inverse[a], inverse[b] = inverse[b], inverse[a]

    def add(side, target, source, q):
        # line target += q * line source; the inverse takes line source -= q * line target
        lines, cross, factor, inverse = side
        line = lines[target]
        for j, y in lines[source].items():
            x = line.get(j, 0) + q * y
            if x:
                line[j] = x
                cross[j][target] = x
            else:
                del line[j]
                del cross[j][target]
        _axpy(factor[target], factor[source], q)
        _axpy(inverse[source], inverse[target], -q)

    def negate(side, i):
        lines, cross, factor, inverse = side
        lines[i] = {j: -x for j, x in lines[i].items()}
        for j, x in lines[i].items():
            cross[j][i] = x
        factor[i] = {j: -x for j, x in factor[i].items()}
        inverse[i] = {j: -x for j, x in inverse[i].items()}

    def find_pivot(k):
        # Rows and columns before k are finished, so every nonzero of rows
        # k.. lies in columns k..; a unit is minimal, so the scan stops at
        # the first row holding one.
        best = None
        for i in range(k, height):
            if s_rows[i]:
                value, j = min((abs(x), j) for j, x in s_rows[i].items())
                if best is None or value < best[0]:
                    best = (value, i, j)
                    if value == 1:
                        break
        return best

    for k in range(min(height, width)):
        while True:
            pivot = find_pivot(k)
            if pivot is None:
                break
            _, pi, pj = pivot
            if pi != k:
                swap(by_rows, k, pi)
            if pj != k:
                swap(by_cols, k, pj)
            if s_rows[k][k] < 0:
                negate(by_rows, k)
            p = s_rows[k][k]
            dirty = False
            for i in [i for i in s_cols[k] if i > k]:
                q = s_cols[k][i] // p
                if q:
                    add(by_rows, i, k, -q)
                if i in s_cols[k]:
                    dirty = True
            for j in [j for j in s_rows[k] if j > k]:
                q = s_rows[k][j] // p
                if q:
                    add(by_cols, j, k, -q)
                if j in s_rows[k]:
                    dirty = True
            if dirty:
                continue
            violation = None
            if p != 1:
                violation = next(
                    (i for i in range(k + 1, height) if any(x % p for x in s_rows[i].values())),
                    None,
                )
            if violation is None:
                break
            # pull the offending row into row k; the next pass shrinks the pivot
            add(by_rows, k, violation, 1)
        if pivot is None:
            break
    return s_rows, u, u_inv, v, v_inv


def _reproduces(rows: list[dict], u: list[dict], v: list[dict], s: list[dict]) -> bool:
    """Whether ``u @ m @ v == s`` exactly, for ``m`` with sparse ``rows``,
    ``u`` and ``s`` by rows and ``v`` by columns; the work is proportional
    to the nonzeros met."""
    v_rows: list[dict] = [{} for _ in v]
    for j, column in enumerate(v):
        for i, x in column.items():
            v_rows[i][j] = x
    for u_row, s_row in zip(u, s):
        um: dict = {}
        for k, a in u_row.items():
            _axpy(um, rows[k], a)
        umv: dict = {}
        for j, x in um.items():
            _axpy(umv, v_rows[j], x)
        if umv != s_row:
            return False
    return True


def _checked_smith(rows: list[dict], width: int):
    """:func:`_smith_reduce` of a copy of the sparse ``rows``, whose factors
    are checked exactly, ``u @ m @ v == s`` by :func:`_reproduces`, before
    they are returned; a mismatch raises :class:`InternalInconsistencyError`."""
    s, u, u_inv, v, v_inv = _smith_reduce([dict(row) for row in rows], width)
    if not _reproduces(rows, u, v, s):
        raise InternalInconsistencyError("Smith normal form factors do not reproduce the matrix")
    return s, u, u_inv, v, v_inv


def smith_normal_form(matrix: ExactMatrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The pivot at each step is a nonzero entry of minimal absolute value
    (ties broken by lowest current row, then lowest current column), which
    limits coefficient growth and takes a unit entry whenever the remaining
    submatrix has one, as a boundary matrix mostly does.  While any entry in the pivot's row or column
    leaves a nonzero remainder, the step starts again from a new pivot; then
    the pivot is forced to divide every entry of the remaining submatrix
    (an offending row is added to the pivot row), so the diagonal comes out
    positive and in divisibility order with no post-processing.  The
    reduction runs on the matrix's sparse rows, and the factors are checked
    exactly, ``u @ m @ v == s`` on their nonzeros, before they are returned;
    a mismatch raises :class:`InternalInconsistencyError`.  ``u``, ``s`` and
    ``v_inverse`` come out of the reduction by rows, ``v`` and ``u_inverse``
    by columns and are transposed once.
    """
    if matrix.ring is not Ring.INTEGER:
        raise ValueError("Smith normal form requires integer entries")
    r, c = matrix.rows, matrix.cols
    s, u, u_inv, v, v_inv = _checked_smith(matrix.lines, c)
    return SnfDecomposition(
        u=ExactMatrix._of(u, r),
        s=ExactMatrix._of(s, c),
        v=ExactMatrix._of(v, c).transpose(),
        u_inverse=ExactMatrix._of(u_inv, r).transpose(),
        v_inverse=ExactMatrix._of(v_inv, c),
    )


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
    _, _, cycles = _rref_tree(matrix.lines, matrix.cols)
    return [_dense(cycle, matrix.cols) for cycle in cycles.values()]


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
    from fractions import Fraction

    tree, _, _ = _rref_tree(matrix.lines, matrix.cols)
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
    matrix = ExactMatrix(rows, Ring.INTEGER, cols=ambient_dim)
    return kernel_basis(matrix, Ring.INTEGER)


class ModuleStructure(_Record):
    """Isomorphism type of a finitely generated abelian group: a free rank
    plus torsion orders in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must divide their successors")
        super().__init__(free_rank, torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion


def quotient_structure(matrix: ExactMatrix) -> ModuleStructure:
    """Structure of the ambient integer lattice modulo the column span."""
    decomposition = smith_normal_form(matrix)
    torsion = tuple(d for d in decomposition.diagonal if d > 1)
    return ModuleStructure(matrix.rows - decomposition.rank, torsion)


def _lattice_contains_all(generators, vectors, ambient_dim: int) -> bool:
    """Whether every integer ``{index: value}`` vector lies in the integer
    span of the ``{index: value}`` generators.  The generators are the rows
    of one matrix G, factored once for all the vectors: v = G^T y for an
    integer y iff :func:`_is_coboundary` holds on the Smith form of G."""
    if not vectors:
        return True
    decomposition = smith_normal_form(ExactMatrix._of(generators, ambient_dim))
    return all(_is_coboundary(decomposition, v) for v in vectors)


def _integer_lines(vectors, ambient_dim: int) -> tuple:
    """Integer vectors of length ``ambient_dim`` as ``{index: nonzero}`` dicts."""
    return ExactMatrix(vectors, Ring.INTEGER, cols=ambient_dim).lines


def lattice_contains(generators, vector, ambient_dim: int) -> bool:
    """Whether ``vector`` lies in the integer span of the generators."""
    return _lattice_contains_all(
        _integer_lines(generators, ambient_dim), _integer_lines([vector], ambient_dim), ambient_dim
    )


def sublattice_equal(generators_a, generators_b, ambient_dim: int) -> bool:
    """Whether two generating sets span the same integer lattice."""
    a = _integer_lines(generators_a, ambient_dim)
    b = _integer_lines(generators_b, ambient_dim)
    return _lattice_contains_all(b, a, ambient_dim) and _lattice_contains_all(a, b, ambient_dim)
