"""Exact integer matrices and the Smith normal form with transform tracking.

Everything runs on Python's arbitrary-precision integers, so transforms can
never overflow.  An ``IntMatrix`` keeps each row as a dict of its nonzeros,
so products, transposes and matrix-vector products visit nonzeros only.
This module only eliminates: every reading of a decomposition (rank,
minors, solutions, group invariants) lives in :mod:`divclass.abelian`,
whose ``AbelianPresentation.smith`` is the one caller of
``smith_normal_form``.

The Smith elimination keeps only what steers it.  Each row of the store
is two dicts of nonzeros, its ``D`` part and its ``U`` part, so a row
operation is one pass over each.  The pivot search, the divisibility
fix-up and the column updates read the ``D`` parts alone; the ``U`` parts
only follow the row operations.  ``V`` is not built during elimination:
each column swap and column addition is appended to one flat log, and a
column operation touches only the ``D`` parts still nonzero in the pivot
column (the pivot row and the rows the row loop left a remainder in).  The
pivot is the nonzero entry of least absolute value, ties at the lowest
(row, col).  The pivot search stops at the first row holding an entry of
absolute value 1, and the divisibility fix-up is skipped for a unit pivot;
neither can change the pivot or the result.  The store is local to the
elimination: the result is the invariant factors, ``U``, the width of
``A`` and the column log.  ``U A V = D`` is checked exactly on every entry
by replaying the log on the columns of ``U @ A`` and comparing them with
the columns of the diagonal.  ``D`` and ``V`` are built on first read,
``V`` by replaying the same log on the identity, so the ``V`` a caller
reads is the one that was checked.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InputError, InternalInvariantError


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
    >>> IntMatrix.from_sparse([{1: 5}, {}], cols=2)
    IntMatrix.from_rows([[0, 5], [0, 0]])
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        try:
            data = [operator.index(e) for e in entries]
        except TypeError:
            raise InputError("matrix entries must be integers") from None
        if len(data) != rows * cols:
            raise InputError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._rows = tuple(
            {j: e for j, e in enumerate(data[i * cols : (i + 1) * cols]) if e} for i in range(rows)
        )

    @classmethod
    def _of(cls, rows: int, cols: int, data: Iterable[dict]) -> "IntMatrix":
        # Rows kept as built, neither copied nor validated: each a dict of
        # nonzero entries at columns in range, owned by this matrix alone.
        matrix = object.__new__(cls)
        matrix.rows, matrix.cols, matrix._rows = rows, cols, tuple(data)
        return matrix

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("all rows must have the same length")
            if cols is not None and cols != width:
                raise InputError(f"rows have length {width}, not {cols}")
        else:
            width = 0 if cols is None else cols
        return cls(len(rows), width, (e for r in rows for e in r))

    @classmethod
    def from_sparse(cls, rows: Iterable[Mapping[int, int]], cols: int) -> "IntMatrix":
        """The matrix whose row i holds the ``{column: entry}`` map ``rows[i]``, zero elsewhere."""
        cols = operator.index(cols)
        if cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        data = []
        for row in rows:
            try:
                entries = {operator.index(j): operator.index(e) for j, e in row.items()}
            except TypeError:
                raise InputError("matrix entries and their columns must be integers") from None
            if not all(0 <= j < cols for j in entries):
                raise InputError(f"column index out of range for {cols} columns")
            data.append({j: e for j, e in entries.items() if e})
        return cls._of(len(data), cols, data)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, (int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(f"index {(i, j)} out of range for a {self.rows}x{self.cols} matrix")
        return self._rows[i].get(j, 0)

    def row(self, i: int) -> tuple:
        if not 0 <= i < self.rows:
            raise InputError(f"row {i} out of range for a {self.rows}x{self.cols} matrix")
        return tuple(map(self._rows[i].get, range(self.cols), itertools.repeat(0)))

    def column(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise InputError(f"column {j} out of range for a {self.rows}x{self.cols} matrix")
        return tuple(row.get(j, 0) for row in self._rows)

    def to_lists(self) -> list:
        """Mutable row-of-lists copy (the working form used by algorithms)."""
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, e in row.items():
                out[j][i] = e
        return IntMatrix._of(self.cols, self.rows, out)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row i of the product sums e * (row k of ``other``) over the nonzeros e = self[i, k]."""
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
        return IntMatrix._of(self.rows, other.cols, product)

    def mul_vector(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise InputError(f"vector of length {len(v)} does not match {self.cols} columns")
        return tuple(sum(e * v[k] for k, e in row.items()) for row in self._rows)

    def append_column(self, col: Sequence[int]) -> "IntMatrix":
        if len(col) != self.rows:
            raise InputError(f"column of length {len(col)} does not match {self.rows} rows")
        n = self.cols
        return IntMatrix.from_sparse(({**row, n: c} for row, c in zip(self._rows, col)), n + 1)

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
        return f"IntMatrix({self.rows}, {self.cols}, ())"

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
    and ``rank`` is s; ``cols`` is the width of A.  ``column_ops`` logs the
    elimination's column operations in order, each a triple ``(a, b, q)``:
    column b -= q * column a when q != 0, and columns a and b swap when
    q == 0.  ``D`` and ``V`` (the log replayed on the identity) are built
    on first read.
    """

    invariant_factors: tuple
    U: IntMatrix
    cols: int
    column_ops: list = field(hash=False)  # a list, so the hash reads the other fields

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @cached_property
    def D(self) -> IntMatrix:
        return IntMatrix._of(self.U.rows, self.cols, _diagonal(self.invariant_factors, self.U.rows))

    @cached_property
    def V(self) -> IntMatrix:
        columns = _replay_columns([{j: 1} for j in range(self.cols)], self.column_ops)
        return IntMatrix._of(self.cols, self.cols, columns).transpose()


def _diagonal(factors: tuple, length: int) -> list:
    """The first ``length`` rows (or columns) of diag(factors) padded with zeros, as dicts."""
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


def _replay_columns(columns: list, ops: Sequence[tuple]) -> list:
    """Apply the column log ``ops`` to ``columns``, a list of column dicts, in place."""
    for a, b, q in ops:
        if q:
            _add_multiple(columns[b], columns[a], -q)
        else:
            columns[a], columns[b] = columns[b], columns[a]
    return columns


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form of ``A`` with both unimodular transforms.

    Total and deterministic; zero-dimensional matrices yield empty
    decompositions.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors
    (1, 6)
    """
    m, n = A.rows, A.cols
    # Row i of the store is d[i], row i of D, and u[i], row i of U, each
    # without zeros.  Every pivot and quotient is read off d alone; u only
    # follows the row operations, and V is not built here at all: each
    # column operation is appended to ``ops``.
    d = [dict(row) for row in A._rows]
    u = [{i: 1} for i in range(m)]
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
            a, j = min((abs(e), j) for j, e in row.items())
            if best is None or a < best_abs:
                best, best_abs = (i, j), a
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
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
            if j != t:
                # rows above t are zero in both columns
                for row in d[t:]:
                    if t in row or j in row:
                        a, b = row.pop(t, 0), row.pop(j, 0)
                        if b:
                            row[t] = b
                        if a:
                            row[j] = a
                ops.append((t, j, 0))
            top = d[t]
            p = top[t]
            # The rows nonzero in column t after the row loop: the pivot row
            # and those left with a remainder.  No other row is touched by a
            # column operation, which subtracts a multiple of column t.
            remainders = [top]
            for i in range(t + 1, m):
                row = d[i]
                if t in row:
                    q = row[t] // p
                    if q:
                        _add_multiple(row, top, -q)
                        _add_multiple(u[i], u[t], -q)
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
                    ops.append((t, j, q))
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
            _add_multiple(u[t], u[offender], 1)
            pivot = (t, t)
        t += 1

    diag = [d[k].get(k, 0) for k in range(min(m, n))]
    for k, e in enumerate(diag):
        if e < 0:
            diag[k] = -e
            u[k] = {j: -x for j, x in u[k].items()}
    factors = tuple(e for e in diag if e)
    if any(diag[len(factors) :]):
        raise InternalInvariantError("zero invariant factor interleaved with nonzero ones")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalInvariantError(f"invariant factors {factors} violate divisibility")

    U = IntMatrix._of(m, m, u)
    # U A V = D, checked as ((U A) E_1) E_2 ... = D with the logged column
    # operations E_k replayed on the columns of U A: exact on every entry.
    columns = _replay_columns(list((U @ A).transpose()._rows), ops)
    if columns != _diagonal(factors, n):
        raise InternalInvariantError("transforms do not carry the input to its Smith form")
    return SmithDecomposition(factors, U, n, ops)
