"""Exact integer matrices and the Smith normal form with transform tracking.

Everything runs on Python's arbitrary-precision integers, so transforms can
never overflow.  An ``IntMatrix`` keeps each row as a dict of its nonzeros,
so products and matrix-vector products visit nonzeros only.
This module only eliminates: every reading of a decomposition (Fitting
numbers, solutions, group invariants) lives in :mod:`divclass.abelian`,
whose ``AbelianPresentation.smith`` is the one caller of
``smith_normal_form``.

The Smith elimination keeps only what steers it: the rows of ``D``, each
a dict of its nonzeros.  Neither transform is built during elimination.
Every operation on the rows of ``D`` (row swaps and additions, column swaps
and additions, and the final sign changes that make the diagonal
positive) is appended to one log in elimination order.  The row loop
visits only the rows below the pivot that hold its column, listed by one
scan after the pivot is swapped into place, and a column operation
touches only the rows still nonzero in the pivot column (the pivot row
and the rows the row loop left a remainder in).  The pivot is the
nonzero entry of least absolute value, ties at the lowest (row, col).
The pivot search stops at the first row holding an entry of absolute value
1, and the divisibility fix-up is skipped for a unit pivot; neither can
change the pivot or the result.  The result is the invariant factors (the
pivots' absolute values), the shape of ``A`` and the log.  ``U A V = D`` is
checked exactly on every entry by replaying the log in order on copies of
the rows of ``A`` against the diagonal's rows, each column operation
walking every row with no index; in that order every entry is one the
elimination itself held.  ``U`` and ``V`` are built on first read by
replaying the row and the column operations on the identity, so the
transforms a caller reads are the ones that were checked, and ``U v``
replays the row operations on ``v`` alone.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    InputError,
    InternalInvariantError,
    as_integer,
    as_tuple,
    excerpt,
    integer_vector,
    require,
)


def _dimension(value, what: str) -> int:
    value = as_integer(value, what)
    if value < 0:
        raise InputError("matrix dimensions must be nonnegative")
    return value


def _entry_rows(rows: Iterable[Iterable[tuple]], cols: int) -> tuple:
    """Each row's (column, entry) pairs as a dict of its nonzeros: the constructors' one guard.

    Columns must be integers in range(cols) and entries integers, neither a bool.
    """
    out = []
    try:
        for pairs in rows:
            row = {}
            for j, e in pairs:
                if isinstance(j, bool) or isinstance(e, bool):
                    raise TypeError
                j, e = operator.index(j), operator.index(e)
                if not 0 <= j < cols:
                    raise InputError(f"column index out of range for {excerpt(cols)} columns")
                if e:
                    row[j] = e
            out.append(row)
    except TypeError:
        raise InputError("matrix entries and their columns must be integers") from None
    return tuple(out)


class IntMatrix:
    """An immutable rows x cols matrix of integers.

    Row i is kept as a dict ``{column: entry}`` of its nonzeros; every other
    entry is zero.  The constructors, ``row``, ``==``, ``hash`` and ``repr``
    all read it as the dense matrix, however it was built.

    >>> A = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> A[1, 0]
    3
    >>> (A @ IntMatrix.identity(2)) == A
    True
    >>> A.determinant()
    -2
    >>> IntMatrix([{1: 5}, {}], cols=2)
    IntMatrix.from_rows([[0, 5], [0, 0]])
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: Iterable[Mapping[int, int]], cols: int):
        """The matrix whose row i holds the ``{column: entry}`` map ``rows[i]``, zero elsewhere."""
        self.cols = _dimension(cols, "column count")
        try:
            pairs = [row.items() for row in as_tuple(rows, "matrix rows")]
        except AttributeError:
            raise InputError("each sparse row must be a mapping from columns to entries") from None
        self._rows = _entry_rows(pairs, self.cols)
        self.rows = len(self._rows)

    @classmethod
    def _of(cls, cols: int, data: Iterable[dict]) -> "IntMatrix":
        # Rows kept as built, neither copied nor validated: each a dict of
        # nonzero entries at columns in range, owned by this matrix alone.
        matrix = object.__new__(cls)
        matrix.cols, matrix._rows = cols, tuple(data)
        matrix.rows = len(matrix._rows)
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [as_tuple(r, "matrix row") for r in as_tuple(rows, "matrix rows")]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("all rows must have the same length")
            if cols is not None and _dimension(cols, "column count") != width:
                raise InputError(f"rows have length {width}, not {excerpt(cols)}")
        else:
            width = 0 if cols is None else cols
        return cls((dict(enumerate(r)) for r in rows), width)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        n = _dimension(n, "size")
        return cls._of(n, [{i: 1} for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        rows, cols = _dimension(rows, "row count"), _dimension(cols, "column count")
        return cls._of(cols, [{} for _ in range(rows)])

    def __getitem__(self, key: tuple) -> int:
        pair = as_tuple(key, "matrix index")
        if len(pair) != 2:
            raise InputError(f"matrix index must be a (row, column) pair, got {excerpt(key)}")
        i, j = as_integer(pair[0], "row index"), as_integer(pair[1], "column index")
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(
                f"index {excerpt((i, j))} out of range for a {self.rows}x{self.cols} matrix"
            )
        return self._rows[i].get(j, 0)

    def row(self, i: int) -> tuple:
        i = as_integer(i, "row index")
        if not 0 <= i < self.rows:
            raise InputError(f"row {excerpt(i)} out of range for a {self.rows}x{self.cols} matrix")
        return tuple(map(self._rows[i].get, range(self.cols), itertools.repeat(0)))

    def to_lists(self) -> list:
        """Mutable row-of-lists copy (the working form used by algorithms)."""
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product sums e * (row k of ``other``) over the nonzeros e = self[i, k]."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other._rows
        product = []
        for row in self._rows:
            acc = {}
            get = acc.get
            for k, e in row.items():
                for j, f in right[k].items():
                    acc[j] = get(j, 0) + e * f
            product.append({j: x for j, x in acc.items() if x})
        return IntMatrix._of(other.cols, product)

    def mul_vector(self, v: Sequence[int]) -> tuple:
        v = integer_vector(v, "vector")
        if len(v) != self.cols:
            raise InputError(f"vector of length {len(v)} does not match {self.cols} columns")
        return tuple(sum(e * v[k] for k, e in row.items()) for row in self._rows)

    def append_column(self, col: Sequence[int]) -> "IntMatrix":
        col = integer_vector(col, "column")
        if len(col) != self.rows:
            raise InputError(f"column of length {len(col)} does not match {self.rows} rows")
        n = self.cols
        return IntMatrix(({**row, n: c} for row, c in zip(self._rows, col)), n + 1)

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise InputError("determinant requires a square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._rows) == (other.rows, other.cols, other._rows)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self) -> str:
        if self.rows and self.cols:
            return f"IntMatrix.from_rows({[list(self.row(i)) for i in range(self.rows)]!r})"
        return f"IntMatrix.zeros({self.rows}, {self.cols})"

    def pretty(self) -> str:
        """Aligned multi-line rendering, for demos and error messages."""
        if self.rows == 0 or self.cols == 0:
            return f"({self.rows}x{self.cols} empty)"
        cells = [[str(e) for e in self.row(i)] for i in range(self.rows)]
        widths = [max(len(cells[i][j]) for i in range(self.rows)) for j in range(self.cols)]
        return "\n".join(
            "[ " + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.cols)) + " ]"
            for i in range(self.rows)
        )


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D = diag(d_1, ..., d_s, 0, ...).

    The positive diagonal entries are the invariant factors, d_1 | ... | d_s,
    and ``rank`` is s; A is ``rows`` x ``cols``.  ``ops`` logs every
    operation of the elimination in order, each a 4-tuple ``(kind, a, b, q)``:
    for kind ``"row"`` or ``"column"``, line b -= q * line a when q != 0,
    and lines a and b swap when q == 0; for kind ``"negate"``, row a changes
    sign (b == a, q == 0).  U is the row operations and the sign changes
    replayed on the identity, V the column operations; ``D``, ``U`` and
    ``V`` are built on first read, and ``U_mul_vector`` gives U v without
    building U.
    """

    invariant_factors: tuple
    rows: int
    cols: int
    ops: list = field(hash=False)  # a list, so the hash reads the other fields

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def D(self) -> IntMatrix:
        return IntMatrix._of(self.cols, _diagonal(self.invariant_factors, self.rows))

    @cached_property
    def U(self) -> IntMatrix:
        m = self.rows
        ops = [op for op in self.ops if op[0] != "column"]
        return IntMatrix._of(m, _replay([{i: 1} for i in range(m)], ops))

    @cached_property
    def V(self) -> IntMatrix:
        n = self.cols
        ops = [op for op in self.ops if op[0] == "column"]
        return IntMatrix._of(n, _replay([{j: 1} for j in range(n)], ops))

    def U_mul_vector(self, v: Sequence[int]) -> tuple:
        """U v, by replaying the row operations and sign changes on a copy of ``v``."""
        x = list(integer_vector(v, "vector"))
        if len(x) != self.rows:
            raise InputError(f"vector of length {len(x)} does not match {self.rows} rows")
        for kind, a, b, q in self.ops:
            if kind == "row":
                if q:
                    x[b] -= q * x[a]
                else:
                    x[a], x[b] = x[b], x[a]
            elif kind == "negate":
                x[a] = -x[a]
        return tuple(x)


def _diagonal(factors: tuple, length: int) -> list:
    """The first ``length`` rows of diag(factors) padded with zeros, as dicts."""
    return [{k: f} for k, f in enumerate(factors)] + [{} for _ in range(length - len(factors))]


def _add_multiple(row: dict, other: dict, q: int) -> None:
    """row += q * other, in place, dropping the entries that become zero."""
    get = row.get
    for k, b in other.items():
        e = get(k, 0) + q * b
        if e:
            row[k] = e
        else:
            del row[k]


def _replay(rows: list, ops: Sequence[tuple]) -> list:
    """Apply ``ops`` in order to the row dicts ``rows``, in place; column operations walk every row."""
    for kind, a, b, q in ops:
        if kind == "column":
            if q:
                for row in rows:
                    x = row.get(a)
                    if x is not None:
                        e = row.get(b, 0) - q * x
                        if e:
                            row[b] = e
                        else:
                            del row[b]
            else:
                for row in rows:
                    x, y = row.pop(a, None), row.pop(b, None)
                    if x is not None:
                        row[b] = x
                    if y is not None:
                        row[a] = y
        elif kind == "row":
            if q:
                target = rows[b]
                get = target.get
                for k, x in rows[a].items():
                    e = get(k, 0) - q * x
                    if e:
                        target[k] = e
                    else:
                        del target[k]
            else:
                rows[a], rows[b] = rows[b], rows[a]
        else:
            row = rows[a]
            for k, x in row.items():
                row[k] = -x
    return rows


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form of ``A`` with the log of both unimodular transforms.

    Total and deterministic; zero-dimensional matrices yield empty
    decompositions.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors
    (1, 6)
    """
    require(A, IntMatrix, "smith_normal_form needs an IntMatrix")
    m, n = A.rows, A.cols
    # Row i of the store is d[i], row i of D, without zeros.  Every pivot
    # and quotient is read off d alone, and neither U nor V is built here:
    # each operation on d is appended to ``ops``.
    d = [dict(row) for row in A._rows]
    ops = []

    def find_pivot(t):
        # Nonzero entry of least absolute value in the working submatrix,
        # ties at the lowest (row, col): the rows are scanned in order and
        # only a strictly smaller entry replaces the best so far, while
        # within a row the least (absolute value, column) wins.  Below row
        # t-1, d holds columns t..n-1 only.  No nonzero is smaller than 1,
        # so the first row holding a unit settles the search.
        best = None
        best_abs = None
        for i in range(t, m):
            row = d[i]
            if not row:
                continue
            a = min(map(abs, row.values()))
            if best is None or a < best_abs:
                best = (i, min(j for j, e in row.items() if e == a or e == -a))
                best_abs = a
                if a == 1:
                    return best
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                d[t], d[i] = d[i], d[t]
                ops.append(("row", t, i, 0))
            if j != t:
                # Rows above t are zero in both columns.
                for row in d[t:]:
                    a, b = row.pop(t, None), row.pop(j, None)
                    if b is not None:
                        row[t] = b
                    if a is not None:
                        row[j] = a
                ops.append(("column", t, j, 0))
            below = [i for i in range(t + 1, m) if t in d[i]]
            top = d[t]
            p = top[t]
            # The rows nonzero in column t after the row loop: the pivot row
            # and those left with a remainder.  No other row is touched by a
            # column operation, which subtracts a multiple of column t.
            remainders = [top]
            for i in below:
                row = d[i]
                q = row[t] // p
                if q:
                    _add_multiple(row, top, -q)
                    ops.append(("row", t, i, q))
                if t in row:
                    remainders.append(row)
            dirty = len(remainders) > 1
            for j in [k for k in top if k > t]:
                q = top[j] // p
                if q:
                    for row in remainders:
                        e = row.get(j, 0) - q * row[t]
                        if e:
                            row[j] = e
                        else:
                            del row[j]
                    ops.append(("column", t, j, q))
                if j in top:
                    dirty = True
            if dirty:
                # A nonzero remainder smaller than |p| now exists somewhere
                # in row t or column t, so the next pivot strictly shrinks.
                pivot = find_pivot(t)
                continue
            if abs(p) == 1:
                # Every integer is divisible by a unit pivot.
                break
            # Row t and column t are clear, so below row t, d holds columns
            # t+1..n-1 only.
            offender = next(
                (i for i in range(t + 1, m) if any(e % p for e in d[i].values())),
                None,
            )
            if offender is None:
                break
            # Fold the offending row into row t; re-clearing then replaces
            # the pivot by a proper divisor, which yields d_t | d_{t+1}.
            _add_multiple(top, d[offender], 1)
            ops.append(("row", offender, t, -1))
            pivot = (t, t)
        t += 1

    # The pivots are d[k][k] for k < t: the loop stops at t == min(m, n) or with rows t.. all zero.
    for k in range(t):
        if d[k][k] < 0:
            ops.append(("negate", k, k, 0))
    factors = tuple(abs(d[k][k]) for k in range(t))
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalInvariantError(f"invariant factors {factors} violate divisibility")

    # U A V = D, checked by replaying the whole log in order on fresh copies
    # of the rows of A, R_k ... R_1 A E_1 ... E_l = D: exact on every entry,
    # and each entry is one the elimination itself held.
    if _replay([dict(row) for row in A._rows], ops) != _diagonal(factors, m):
        raise InternalInvariantError("transforms do not carry the input to its Smith form")
    return SmithDecomposition(factors, m, n, ops)
