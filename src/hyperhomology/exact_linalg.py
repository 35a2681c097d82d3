"""Exact integer and rational linear algebra.

Everything is pure Python over ``int`` and ``fractions.Fraction``; no
floating point anywhere.  :func:`smith_normal_form` factors an integer
matrix once; the reports read ranks, elementary divisors, cycle and cut
lattices and coboundary membership off its factors, and so does tree
verification.  Membership is one graded test, :func:`_grade`: a vector
grades 0 when it is an integer coboundary, 1 when it is only a rational
one and 2 when it is neither, so each reader compares the grade with the
bound its ring allows.  One function, :func:`_rref_tree`, runs the
rational elimination: it reads the tree, the fundamental cuts and the
fundamental cycles off one reduced row echelon form (RREF), its columns
scanned left to right.  Over B, the matrix a hypergraph keeps
(``_boundary``) and factors, it gives the rational tree, and over the
generators with their columns reversed, the vector-space tree.  It and
the integer-tree search share their steps: both hold their rows in ints,
indexed by columns (:func:`_column_index`), take each tree column to a
pivot by the Euclid steps of :func:`_unit_steps`, which touch only the
rows from the pivot's down, and read the tree off the echelon rows by
one routine, :func:`_read_tree`: one back substitution, which states how
it stays fraction-free, gives the cuts, and the cycles are read off the
cuts as they are made.  Rational
values are in the canonical form of :mod:`core`: an entry the pivot
divides is divided exactly, into an int, and only one it does not divide
becomes a Fraction.  On a graph B is totally unimodular, so every RREF
entry is integral and no Fraction is made.  ``fractions`` is imported
only where a Fraction is made, so neither the integer route nor a
rational query on a graph loads it.  The second routes to the same facts
(kernel and image bases, integer and rational solving, annihilators,
quotient structure, lattice comparison, matrix products, the rank by
elimination) live in ``tests/oracles.py``, where they check these ones.

:class:`ExactMatrix` stores one ``{column: nonzero}`` dict per row, and
its dense ``entries`` are only a view built on request, so a boundary
matrix holds at most 2 * arity nonzeros per column and a transpose costs
in proportion to the nonzeros.  Both kernels work on such dicts: the
Smith reduction starts from the matrix's rows, and the RREF takes dict
rows and returns its fundamental cuts and cycles as ``{index: nonzero}``
dicts in canonical form, which the reports wrap as chains directly; only
:func:`vector_space_spanning_tree`, which returns dense lists, builds
them, at the end.  Unimodular operations (swap, negate, add q times a
line) are kept as logs in the encoding of :func:`_apply`, and applied,
always to whole lines, by one of two functions: :func:`_apply` applies a log to plain lines, and
:func:`_in_step` to lines kept with a cross index (the same entries
indexed the other way), which it updates entry by entry.  This module
alone builds and inverts logs (:func:`_inverse_log` undoes a row log,
:func:`_undo` turns a column operation into one on the rows of the
inverse) and reads a Smith form's logs.  The integer-tree search applies
the steps of :func:`_unit_steps` to W's rows as it accepts an edge and
their :func:`_inverse_log` as it backtracks, and reads its tree off the
same rows by :func:`_read_tree` at the end.  The Smith reduction keeps
its working matrix by rows and by columns, each the other's cross index,
applies its row and column operations by :func:`_in_step`, hands back
its elementary divisors and logs the operations instead of building
factors (the product form of the inverse); of its factors only V^-1 is
built with it, by :func:`_undo`, S from the divisors, and V when read.
The reports read S, V and V^-1 only; each factor is one pass of its log
on the identity (U and U^-1 are built only for a caller outside the
package).  V is kept by columns, as the column log builds them from the
identity, and ``v`` is their transpose, so the integer cycles, columns
of V, are read off them as they are built.  The Smith form's pivot rule
is pinned, because its factors and the witnesses read off them depend on
it: a nonzero of least absolute value, lowest current row first, then
lowest current column (so a unit entry whenever there is one); its S,
V^-1 and V are therefore exactly those of the textbook dense reduction
with that rule.  The RREF's steps are free, because the RREF is unique
for a given column order: its rows are those of the textbook dense
elimination with any pivot rule.  Every Smith form is checked exactly
before anything is read off it, through V^-1 and without building V: the
divisors d_1, ..., d_r must be positive with each dividing the next,
``u @ m`` must equal ``D @ v_inverse`` (row i is d_i times row i of V^-1
below the rank r, empty after it) with U the product of the logged row
operations, and ``v_inverse @ v`` the identity with V the product of the
logged column operations.  Together these give ``u @ m @ v == D`` with D
in Smith form.  A mismatch raises :class:`InternalInconsistencyError`
(never an ``assert``).
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


def _dense(vector: dict, length: int) -> list:
    """Dense vector of a ``{index: value}`` dict, zeros filled with ``0``."""
    line = [0] * length
    for j, x in vector.items():
        line[j] = x
    return line


def _column_index(rows: list[dict], cols: int):
    """The entries of ``rows`` also kept by columns, as ``{row: nonzero}``
    dicts, and the :func:`_in_step` function that applies a row log to
    both, so reading a column costs its nonzeros, whatever was applied
    before.  Returns ``(columns, apply)``."""
    columns = list(ExactMatrix._of(rows, cols).transpose().lines)
    return columns, _in_step(rows, columns)


def _in_step(lines: list[dict], cross: list[dict]):
    """A function that applies a log, in the encoding of :func:`_apply`,
    to ``lines`` and keeps ``cross``, the same entries indexed the other
    way (``cross[j][i]`` is ``lines[i][j]``), in step, entry by entry: an
    addition to line a changes only line a's entries, a swap re-indexes
    both lines and a negation one.  Each ``cross`` dict stays the same
    object, so a caller may hold one across applications.  This is the
    one function that applies a log to lines kept with a cross index."""

    def apply(ops) -> None:
        for a, b, q in ops:
            if q:
                line = lines[a]
                for j, y in lines[b].items():
                    x = line.get(j, 0) + q * y
                    if x:
                        line[j] = cross[j][a] = x
                    else:
                        del line[j]
                        del cross[j][a]
            elif a == b:
                lines[a] = line = {j: -x for j, x in lines[a].items()}
                for j, x in line.items():
                    cross[j][a] = x
            else:
                for j in lines[a]:
                    del cross[j][a]
                for j in lines[b]:
                    del cross[j][b]
                lines[a], lines[b] = lines[b], lines[a]
                for j, x in lines[a].items():
                    cross[j][a] = x
                for j, x in lines[b].items():
                    cross[j][b] = x

    return apply


def _rref_tree(rows: list[dict], cols: int):
    """Spanning tree of the row space, read off its reduced row echelon
    form (RREF).

    ``rows`` are ``{column: nonzero}`` dicts of ints or Fractions, which
    are not modified; columns are scanned left to right.  The RREF is
    unique for a given column order, so the result depends neither on the
    order of the rows nor on how the elimination reaches it, up to the
    order of the entries within a vector.  The pivot columns are the
    greedy column basis, which is the tree.  RREF row i has 1 at its pivot
    and 0 at every other pivot, so it is the fundamental cut of that
    pivot, and the cycles are the null vectors of the cuts.  Returns
    ``(tree, cuts, cycles)``: the tree columns ascending, then dicts from tree column and from free column (both ascending) to a
    ``{column: nonzero}`` dict in no promised order, which ``Chain`` puts
    in order when it wraps it.  The values are in canonical form: ints
    where the pivot divides the entry, Fractions elsewhere.  The rank is
    the tree's size.

    The rows are scaled to ints and indexed by columns
    (:func:`_column_index`).  The forward pass is the integer search's
    without its tests: at depth k, a column whose entries on rows k.. are
    not all zero is a tree column, and the Euclid steps of
    :func:`_unit_steps`, unimodular and on rows k.. only, take them to a
    positive pivot at row k.  :func:`_read_tree` reads the tree off the
    echelon rows.  No bound on the forward pass's entries is proven:
    unlike Kannan and Bachem's Hermite form, it reduces no entry modulo
    the pivots, and it divides no row by its content.
    """
    rows = [_integer_row(row) for row in rows]
    columns, apply = _column_index(rows, cols)
    tree: list[int] = []
    for j in range(cols):
        residual = {i: x for i, x in columns[j].items() if i >= len(tree)}
        if residual:
            apply(_unit_steps(residual, len(tree)))
            tree.append(j)
    return _read_tree(rows, columns, tree)


def _read_tree(rows: list[dict], columns, tree: list[int]):
    """The tree read off integer echelon ``rows``: ``(tree, cuts,
    cycles)``, the tree columns as a tuple, then the fundamental cuts,
    ``{tree column: cut}``, each cut the RREF row with 1 at its own tree
    column and 0 at the others, and the fundamental cycles, ``{free
    column: cycle}``, both keyed ascending.

    Row k must hold a positive pivot p at ``tree[k]`` and nothing at the
    tree columns before it, and ``columns`` must index the rows by
    columns (:func:`_column_index`).  For k from the last row up, each row
    i < k that holds b at ``tree[k]`` becomes ``a * row - b' * row_k``,
    where a and b' are p and b divided by gcd(p, b), and is divided by its
    content when a is not 1.  This is fraction-free (integer-preserving,
    after Bareiss): each row stays a positive multiple of the row the same
    pass over Fractions holds.  Row k is zero at every earlier tree column,
    so the pass never changes which rows hold those, and reads them off
    ``columns``; their values it reads off the rows, and the index is
    stale after the call.  Each row is then divided by its pivot: an entry
    the pivot divides is divided exactly, into an int, and only one it
    does not divide becomes a Fraction.  With every pivot 1, as in the
    integer search, the pass adds integer multiples of rows only, and the
    cuts are ``rows`` themselves.  The cycle of free column f is the null
    vector of the cuts with 1 at f, 0 at every other free column and minus
    cut t's entry at f at each tree column t, so each cut's entries are
    copied into the cycles as the cut is made.
    """
    for k in reversed(range(len(tree))):
        pivot_row = rows[k]
        p = pivot_row[tree[k]]
        for i in [i for i in columns[tree[k]] if i < k]:
            row = rows[i]
            a, b = 1, row[tree[k]]
            if p != 1:
                g = gcd(p, b)
                a, b = p // g, b // g
                if a != 1:
                    rows[i] = row = {j: a * x for j, x in row.items()}
            _axpy(row, pivot_row, -b)
            if a != 1:
                content = gcd(*row.values())
                if content > 1:
                    rows[i] = {j: x // content for j, x in row.items()}
    tree_set = set(tree)
    cycles = {j: {j: 1} for j in range(len(columns)) if j not in tree_set}
    cuts = {}
    for t, row in zip(tree, rows):
        p = row[t]
        if p != 1 and any(x % p for x in row.values()):
            from fractions import Fraction

            row = {j: Fraction(x, p) if x % p else x // p for j, x in row.items()}
        elif p != 1:
            row = {j: x // p for j, x in row.items()}
        cuts[t] = row
        for j, x in row.items():
            if j in cycles:
                cycles[j][t] = -x
    return tuple(tree), cuts, cycles


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
    operations in the encoding of :func:`_apply`; ``u``, ``u_inverse`` and
    ``v`` are each built from one of them, when first read, by one
    :func:`_apply` on the identity.  V is kept by columns, as the column
    log builds them, and ``v`` is their transpose: the cycles and the
    direct-summand witness read those columns, and coboundary membership
    and the other graph-likeness witnesses read the rows of ``v``.  No
    report reads ``u`` or ``u_inverse``.
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
        undone = _inverse_log(self.row_log)
        return ExactMatrix._of(_apply(undone, _identity(self.s.rows)), self.s.rows)

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


def _unit_steps(residual: dict, depth: int) -> list[tuple[int, int, int]]:
    """Row operations, in the encoding of :func:`_apply`, that take the
    nonzero integer vector ``residual`` (every nonzero in a row from
    ``depth`` on) to g times the unit vector at row ``depth``, g > 0 the
    gcd of its entries (the unit vector itself when it is primitive),
    touching only rows from ``depth`` on.  Euclid's algorithm on its
    entries: swap an entry of least absolute value, lowest row first, into
    row ``depth``, reduce every other entry modulo it, and repeat until one
    entry is left, which is then g or -g, and negated if it is -g."""
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


def _inverse_log(ops) -> list[tuple[int, int, int]]:
    """The row log that undoes the row log ``ops``: its operations last
    first, each inverted; the inverse of ``(a, b, q)`` is ``(a, b, -q)``,
    which leaves a swap or a negation (q = 0) as it is."""
    return [(a, b, -q) for a, b, q in reversed(ops)]


def _undo(op: tuple[int, int, int]) -> tuple[int, int, int]:
    """The inverse of the column operation ``(a, b, q)``, acting on the rows
    of V^-1."""
    return op[1], op[0], -op[2]


def _apply(ops, lines: list[dict]) -> list[dict]:
    """``lines`` (``{index: nonzero}`` dicts, modified and returned) with
    the unimodular operations ``ops`` applied to whole lines in turn.  An
    operation ``(a, b, q)`` adds q times line b to line a when q is
    nonzero (a != b); with q = 0 it swaps lines a and b, or negates line a
    when a == b.  This is the one encoding of every log in the package, and
    this the function that applies one to plain lines; :func:`_in_step`
    applies one to lines kept with a cross index.  On the identity, a row
    log gives U by rows and its :func:`_inverse_log` U^-1 by rows; a column
    log gives V by columns and its :func:`_undo` V^-1 by rows."""
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
    the encoding of :func:`_apply`, in the order they were made.  The
    working matrix is kept by rows and by columns while it is reduced, each
    the other's cross index, so a row operation and a column operation run
    the same code, each on its own "side": an :func:`_in_step` applier of
    the lines it moves with the lines that cross them, its log, and those
    crossing lines, from which line k's entries are read.  No factor is
    built; :func:`_apply` builds each from its log.
    """
    height = len(rows)
    s_rows = rows
    s_cols, by_rows = _column_index(s_rows, width)
    divisors: list[int] = []
    row_log: list[tuple[int, int, int]] = []
    column_log: list[tuple[int, int, int]] = []
    sides = ((by_rows, row_log, s_cols), (_in_step(s_cols, s_rows), column_log, s_rows))

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
            p, pi, pj = pivot
            # swap the pivot to (k, k) and make it positive, then clear
            # column k below it by row operations and row k right of it by
            # column operations; a side's clearing operations commute, as
            # each changes its own line and reads only line k
            moves = (
                [(k, pi, 0)] * (pi != k) + [(k, k, 0)] * (s_rows[pi][pj] < 0),
                [(k, pj, 0)] * (pj != k),
            )
            for (apply, log, _), steps in zip(sides, moves):
                apply(steps)
                log += steps
            dirty = False
            for apply, log, cross in sides:
                line = cross[k]
                steps = [(i, k, -(x // p)) for i, x in line.items() if i > k and x // p]
                apply(steps)
                log += steps
                dirty = dirty or any(i > k for i in line)
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
            by_rows([(k, violation, 1)])
            row_log.append((k, violation, 1))
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
