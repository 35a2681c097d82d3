"""Exact integer and rational linear algebra.

Everything is pure Python over ``int`` and ``fractions.Fraction``; no
floating point anywhere.  :func:`smith_normal_form` factors an integer
matrix once; the reports read ranks, elementary divisors, cycle and cut
lattices and coboundary membership off its factors, and so does tree
verification.  Membership is one graded test, :func:`_grade`: a vector
grades 0 when it is an integer coboundary, 1 when it is only a rational
one and 2 when it is neither, so each reader compares the grade with the
bound its ring allows.  One reduced row echelon form (RREF), its
columns scanned left to right, builds the rational tree, and over the
generators with their columns reversed, the vector-space tree.  The
RREF is computed fraction-free (integer-preserving, after Bareiss): every
row is held in ints as a positive multiple of the row the elimination over
Fractions with the same pivot rows holds at the same step, so it has the
same nonzeros and leads to the same pivots, and each pivot row is divided
by its pivot only at the end.
Rational values are in the canonical form of :mod:`core`: an entry the
pivot divides is divided exactly, into an int, and only one it does not
divide becomes a Fraction.  On a graph B is totally unimodular, so every
RREF entry is integral and no Fraction is made.  ``fractions`` is imported
only where a Fraction is made, so neither the integer route nor a
rational query on a graph loads it.  The second routes to the same facts
(kernel and image bases, integer and rational solving, annihilators,
quotient structure, lattice comparison, matrix products, the rank by
elimination) live in ``tests/oracles.py``, where they check these ones.

:class:`ExactMatrix` stores one ``{column: nonzero}`` dict per row, and
its dense ``entries`` are only a view built on request, so a boundary
matrix holds at most 2 * arity nonzeros per column and a transpose costs
in proportion to the nonzeros.  Both kernels work on such dicts: the
Smith reduction starts from the matrix's rows, and the RREF takes and
returns dict rows.  The spanning-tree reader returns its fundamental
cuts and cycles as ``{index: nonzero}`` dicts in canonical form, which
the reports wrap as chains directly; only
:func:`vector_space_spanning_tree`, which returns dense lists, builds
them, at the end.  :func:`_fundamental_cycles` reads the cycles off the
cuts, for the RREF and for the integer-tree search.  A rank needs only
the fraction-free elimination, so it makes no Fraction.  Unimodular
operations (swap, negate, add q times a line) are kept as logs in one
encoding: the integer-tree search replays its row log on one sparse
column at a time, and reads its tree by applying the log, with a back
substitution appended, to whole rows; the Smith reduction hands back
its elementary divisors and logs its row and column operations instead
of building factors (the product form of the inverse); of its factors
only V^-1 is built with it, S from the divisors, and V when read (U and
U^-1 only for a caller outside the package).  V is kept by columns, as
the column log builds them from the identity, and ``v`` is their
transpose, so the integer cycles, columns of V, are read off them as
they are built.  The Smith form's pivot rule is pinned, because its
factors and the witnesses read off them
depend on it: a nonzero of least absolute value, lowest current row
first, then lowest current column (so a unit entry whenever there is
one); its S, V^-1 and V are therefore exactly those of the textbook
dense reduction with that rule.
The RREF's pivot row is free, because the RREF is unique for a given
column order: it takes the lowest-index unused row that holds the
column, and its rows are those of the textbook dense elimination with any
rule.  Every Smith form is checked exactly before anything is read off
it, through V^-1 and without building V: the divisors d_1, ..., d_r must
be positive with each dividing the next, ``u @ m`` must equal
``D @ v_inverse`` (row i is d_i times row i of V^-1 below the rank r,
empty after it) with U the product of the logged row operations, and
``v_inverse @ v`` the identity with V the product of the logged column
operations.  Together these give ``u @ m @ v == D`` with D in Smith form.
A mismatch raises :class:`InternalInconsistencyError` (never an
``assert``).
"""

from functools import cached_property
from math import gcd, lcm

from .core import InternalInconsistencyError, Ring, _Record, _require_ring


class ExactMatrix(_Record):
    """Rectangular matrix whose entries all lie in a single ring, stored as
    one ``{column: nonzero}`` dict per row in ``lines``; ``entries`` is the
    dense view, built when asked for.  The row dicts must not be modified."""

    rows: int
    cols: int
    ring: Ring
    lines: tuple

    def __init__(self, entries, ring: Ring, cols: int | None = None):
        _require_ring(ring)
        normalized = [[ring.coerce(x) for x in row] for row in entries]
        if normalized:
            width = len(normalized[0])
            if any(len(row) != width for row in normalized):
                raise ValueError("rows have inconsistent lengths")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
        elif (width := cols or 0) < 0:
            raise ValueError(f"column count {cols} is negative")
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

    @property
    def entries(self) -> tuple:
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i: int) -> tuple:
        return tuple(_dense(self.lines[i], self.cols))

    def transpose(self) -> "ExactMatrix":
        lines: list[dict] = [{} for _ in range(self.cols)]
        for i, line in enumerate(self.lines):
            for j, x in line.items():
                lines[j][i] = x
        return ExactMatrix._of(lines, self.rows, self.ring)


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
    Fractions, which are not modified), its columns scanned left to right.
    Returns the pivot rows in pivot order, every value a nonzero int and
    each pivot positive: the RREF rows each times its own pivot.  The
    pivots are the columns in ascending order.  :func:`_divide_pivots`
    turns the rows into the RREF; the rank is the number of pivots.

    Each row is kept with the set of rows that are nonzero in each column,
    so a step touches only the nonzeros of the rows it changes.  The pivot
    of a column is the lowest-index row that holds it and is not yet a
    pivot row.  Any such row gives the same RREF, which is unique for a
    given column order, so the choice changes only the work.

    Each row is stored in ints, as a positive multiple of the row the
    elimination over Fractions with the same pivots holds at the same step:
    its denominators are cleared on entry, a pivot row is negated when its
    pivot is negative (and divided by its content when the pivot is not 1),
    and another row with b at the pivot column becomes
    ``a * row - b' * pivot_row``, where a and b' are the pivot p and b
    divided by gcd(p, b), and is divided by its content when a is not 1.
    A positive multiple has the nonzero pattern of the row over Fractions,
    so the pivots, the ``holders`` sets and, once each pivot row is divided
    by its pivot, the rows are exactly those of the elimination over
    Fractions.
    """
    matrix = [_integer_row(row) for row in rows]
    holders: list[set[int]] = [set() for _ in range(width)]
    for i, row in enumerate(matrix):
        for j in row:
            holders[j].add(i)
    used: set[int] = set()
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for c in range(width):
        candidates = holders[c] - used
        if not candidates:
            continue
        pivot = min(candidates)
        used.add(pivot)
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
        pivot_rows.append(pivot)
        pivots.append(c)
    return [matrix[i] for i in pivot_rows], pivots


def _divide_pivots(reduced: list[dict], pivots: list[int]) -> list[dict]:
    """The RREF rows: each row of :func:`_integer_echelon` divided by its
    pivot, in canonical form.  An entry the pivot divides is divided
    exactly, into an int; one it does not divide becomes a Fraction."""
    reduced = list(reduced)
    for k, c in enumerate(pivots):
        row = reduced[k]
        p = row[c]
        if p == 1:
            continue
        if any(x % p for x in row.values()):
            from fractions import Fraction

            reduced[k] = {j: Fraction(x, p) if x % p else x // p for j, x in row.items()}
        else:
            reduced[k] = {j: x // p for j, x in row.items()}
    return reduced


def _dense(vector: dict, length: int) -> list:
    """Dense vector of a ``{index: value}`` dict, zeros filled with ``0``."""
    line = [0] * length
    for j, x in vector.items():
        line[j] = x
    return line


def _fundamental_cycles(cuts: dict, cols: int) -> dict:
    """The fundamental cycles of a tree with fundamental ``cuts``, each a
    ``{column: nonzero}`` dict with 1 at its own tree column and 0 at the
    others: for each other column f, ascending, the null vector of the cuts
    with 1 at f, 0 at every other free column and minus cut t's entry at f
    at each tree column t, its columns ascending."""
    cycles = {j: {j: 1} for j in range(cols) if j not in cuts}
    for t, cut in cuts.items():
        for j, x in cut.items():
            if j in cycles:
                cycles[j][t] = -x
    return {j: dict(sorted(cycle.items())) for j, cycle in cycles.items()}


def _rref_tree(rows: list[dict], cols: int):
    """Spanning tree of the row space, read off one RREF.

    ``rows`` are ``{column: nonzero}`` dicts; columns are scanned left to
    right.  The RREF is unique for a given column order, so the result
    depends neither on the order of the rows nor on which row the
    elimination takes as each pivot.  The pivot columns are the greedy
    column basis, which is the tree.  RREF row i has 1 at its pivot and 0
    at every other pivot, so it is the fundamental cut of that pivot, and
    :func:`_fundamental_cycles` reads the cycles off the cuts.  Returns
    ``(tree, cuts, cycles)``: the tree columns ascending, then dicts from
    tree column and from free column (both ascending) to a ``{column:
    nonzero}`` dict with its columns ascending.  The values are in
    canonical form: ints where the pivot divides the entry, Fractions
    elsewhere.
    """
    reduced, tree = _integer_echelon(rows, cols)
    reduced = _divide_pivots(reduced, tree)
    cuts = {t: dict(sorted(row.items())) for t, row in zip(tree, reduced)}
    return tuple(tree), cuts, _fundamental_cycles(cuts, cols)


class SnfDecomposition(_Record):
    """Unimodular factors ``u @ m @ v = s`` with ``s`` in Smith form.

    ``s`` is built from the elementary divisors the reduction hands back:
    row i holds d_i at column i below the rank, and the rows after it are
    empty.  The divisors are positive with each dividing the next, and
    ``diagonal`` reads them off the nonempty rows.  ``v_inverse`` is built
    from the reduction's column log when the decomposition is made,
    because its check reads it; the reports read it for cuts, witnesses and
    the columns the integer-tree search walks.
    Both sides are kept as logs, ``row_log`` and ``column_log``, the
    operations in the encoding of :func:`_replay`; ``u``, ``u_inverse`` and
    ``v`` are built from them when first read.  V is kept by columns, as
    the column log builds them, and ``v`` is their transpose: the cycles
    read those columns, and coboundary membership and the graph-likeness
    witnesses read the rows of ``v``.  No report reads ``u`` or
    ``u_inverse``: a graph-likeness witness replays the row log on one unit
    vector for the one column of U^-1 it needs.
    """

    s: ExactMatrix
    v_inverse: ExactMatrix
    row_log: tuple
    column_log: tuple

    @cached_property
    def u(self) -> ExactMatrix:
        return ExactMatrix._of(_apply(self.row_log, _identity(self.s.rows)), self.s.rows)

    @cached_property
    def u_inverse(self) -> ExactMatrix:
        columns = _apply(map(_undo, self.row_log), _identity(self.s.rows))
        return ExactMatrix._of(columns, self.s.rows).transpose()

    @cached_property
    def _v_columns(self) -> list[dict]:
        """The columns of V, as the column log builds them from the identity."""
        return _apply(self.column_log, _identity(self.s.cols))

    @cached_property
    def v(self) -> ExactMatrix:
        return ExactMatrix._of(self._v_columns, self.s.cols).transpose()

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        """The nonzero diagonal entries (elementary divisors), in order:
        the entries of the nonempty rows of ``s``, read once per
        decomposition."""
        return tuple(x for line in self.s.lines for x in line.values())

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def _grade(decomposition: SnfDecomposition, vector: dict) -> int:
    """How far the vector ``{index: value}`` is from ``m^T y``, where
    ``decomposition`` factors ``m`` as U m V = S: 0 when it is ``m^T y``
    for an integer y, 1 when only for a rational y, 2 when for no y.

    Then m^T = V^-T S^T U^-T, so c = m^T y iff V^T c = S^T w for w = U^-T y:
    over the rationals V^T c must vanish from the rank on, and over the
    integers its entry i must also be divisible by d_i below the rank.
    V^T c is the sum of c_k times row k of V, one row per nonzero of c.
    Each entry i of V^T c is graded 2 when i is from the rank on, 1 when
    d_i does not divide it and 0 otherwise, and the vector's grade is the
    largest, 0 when V^T c is zero.
    """
    image: dict = {}
    for k, x in vector.items():
        if x:
            _axpy(image, decomposition.v.lines[k], x)
    diagonal = decomposition.diagonal
    rank = len(diagonal)
    grades = (2 if i >= rank else int(value % diagonal[i] != 0) for i, value in image.items())
    return max(grades, default=0)


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


def _identity(n: int) -> list[dict]:
    return [{i: 1} for i in range(n)]


def _undo(op: tuple[int, int, int]) -> tuple[int, int, int]:
    """The inverse of ``(a, b, q)``, acting on the other kind of line: a row
    operation's on the columns of U^-1, a column operation's on the rows of
    V^-1."""
    return op[1], op[0], -op[2]


def _apply(ops, lines: list[dict]) -> list[dict]:
    """``lines`` (``{index: nonzero}`` dicts, modified and returned) with
    ``ops``, in the encoding of :func:`_replay`, applied to whole lines in
    turn.  On the identity, a row log gives U by rows and its :func:`_undo`
    U^-1 by columns; a column log gives V by columns and V^-1 by rows."""
    for a, b, q in ops:
        if q:
            _axpy(lines[a], lines[b], q)
        elif a == b:
            lines[a] = {j: -x for j, x in lines[a].items()}
        else:
            lines[a], lines[b] = lines[b], lines[a]
    return lines


def _smith_reduce(rows: list[dict], width: int):
    """Sparse Smith reduction of the integer matrix with ``rows`` (one
    ``{column: nonzero}`` dict per row; consumed).

    Returns ``(divisors, row_log, column_log)``: the elementary divisors,
    d_k appended when step k ends, and the row and column operations, in
    the encoding of :func:`_replay`, in the order they were made.  The
    working matrix is kept by rows and by columns while it is reduced, so a
    row operation and a column operation run the same code, each on its own
    "side": the lines it moves, the lines that cross them, and its log.
    No factor is built; :func:`_apply` builds each from its log.
    """
    height = len(rows)
    s_rows = rows
    s_cols = list(ExactMatrix._of(rows, width).transpose().lines)
    divisors: list[int] = []
    row_log: list[tuple[int, int, int]] = []
    column_log: list[tuple[int, int, int]] = []
    by_rows = (s_rows, s_cols, row_log)
    by_cols = (s_cols, s_rows, column_log)

    def swap(side, a, b):
        lines, cross, log = side
        for j in lines[a]:
            del cross[j][a]
        for j in lines[b]:
            del cross[j][b]
        lines[a], lines[b] = lines[b], lines[a]
        for j, x in lines[a].items():
            cross[j][a] = x
        for j, x in lines[b].items():
            cross[j][b] = x
        log.append((a, b, 0))

    def add(side, target, source, q):
        lines, cross, log = side
        line = lines[target]
        for j, y in lines[source].items():
            x = line.get(j, 0) + q * y
            if x:
                line[j] = x
                cross[j][target] = x
            else:
                del line[j]
                del cross[j][target]
        log.append((target, source, q))

    def negate(side, i):
        lines, cross, log = side
        lines[i] = {j: -x for j, x in lines[i].items()}
        for j, x in lines[i].items():
            cross[j][i] = x
        log.append((i, i, 0))

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
            # clear column k below the pivot by row operations, then row k
            # right of it by column operations
            dirty = False
            for side in (by_rows, by_cols):
                line = side[1][k]
                for i in [i for i in line if i > k]:
                    q = line[i] // p
                    if q:
                        add(side, i, k, -q)
                    if i in line:
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
        divisors.append(p)
    return divisors, row_log, column_log


def smith_normal_form(matrix: ExactMatrix) -> SnfDecomposition:
    """Diagonalize an integer matrix by unimodular row/column operations.

    The pivot at each step is a nonzero entry of minimal absolute value
    (ties broken by lowest current row, then lowest current column), which
    limits coefficient growth and takes a unit entry whenever the remaining
    submatrix has one, as a boundary matrix mostly does.  While any entry in
    the pivot's row or column leaves a nonzero remainder, the step starts
    again from a new pivot; then the pivot is forced to divide every entry
    of the remaining submatrix (an offending row is added to the pivot
    row), so the divisors come out positive and in divisibility order with
    no post-processing.  The reduction runs on the matrix's sparse rows,
    logs its operations and hands back the divisors d_1, ..., d_r; V^-1 is
    built from the column log, V only when read.  Before the form is
    returned it is checked exactly through V^-1, or
    :class:`InternalInconsistencyError` is raised: the divisors must be a
    chain (positive, at most one per row and column, each dividing the
    next), the row log applied to the rows of ``m`` must give D V^-1 (row
    i is d_i times row i of ``v_inverse`` below the rank, empty after it),
    and the column log applied to the columns of ``v_inverse`` the
    identity.  With U and V the products of the logged row and column
    operations, these say U m = D V^-1 and V^-1 V = I, so U m V = D, a
    Smith form, and the V later built from the same log is the exact
    inverse of ``v_inverse``.  ``s`` is then built from the divisors.
    """
    if matrix.ring is not Ring.INTEGER:
        raise ValueError("Smith normal form requires integer entries")
    r, c = matrix.rows, matrix.cols
    divisors, row_log, column_log = _smith_reduce([dict(row) for row in matrix.lines], c)
    rank = len(divisors)
    # each divisor positive and dividing the next (every d divides the closing 0)
    if rank > min(r, c) or any(a < 1 or b % a for a, b in zip(divisors, divisors[1:] + [0])):
        raise InternalInconsistencyError("the elementary divisors are not a divisor chain")
    v_inverse = ExactMatrix._of(_apply(map(_undo, column_log), _identity(c)), c)
    # the rows of D @ v_inverse: d_i times row i of V^-1 below the rank
    product = [{j: d * x for j, x in line.items()} for d, line in zip(divisors, v_inverse.lines)]
    if _apply(row_log, [dict(row) for row in matrix.lines]) != product + [{}] * (r - rank):
        raise InternalInconsistencyError("Smith normal form factors do not reproduce the matrix")
    if _apply(column_log, list(v_inverse.transpose().lines)) != _identity(c):
        raise InternalInconsistencyError("the column operations do not invert V^-1")
    s = [{i: d} for i, d in enumerate(divisors)] + [{} for _ in range(r - rank)]
    return SnfDecomposition(ExactMatrix._of(s, c), v_inverse, tuple(row_log), tuple(column_log))


class ModuleStructure(_Record):
    """Isomorphism type of a finitely generated abelian group: a free rank
    plus torsion orders, each at least 2, in divisibility order."""

    free_rank: int
    torsion: tuple[int, ...]

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        if free_rank < 0:
            raise ValueError(f"free rank {free_rank} is negative")
        for d in torsion:
            if d < 2:
                raise ValueError(f"torsion order {d} is below 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion orders must divide their successors")
        super().__init__(free_rank, torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion
