"""Exact integer matrices and the Smith normal form with transform tracking.

Everything runs on Python's arbitrary-precision integers, so transforms can
never overflow.  This module only eliminates: every reading of a
decomposition (rank, minors, solutions, group invariants) lives in
:mod:`divclass.abelian`, whose ``AbelianPresentation.smith`` is the one
caller of ``smith_normal_form``.

The Smith elimination works on one sparse row store ``[D | U]`` plus ``V``
kept by columns, each holding only its nonzeros.  A row operation is one
pass over the nonzeros of one row of the store.  A column operation touches
only the nonzeros of one column of ``V`` and the store rows still nonzero in
the pivot column (the pivot row and the rows the row loop left a remainder
in), and a column swap of ``V`` is a list swap.  The pivot is the nonzero
entry of least absolute value, ties at the lowest (row, col).  The pivot
search stops at the first row holding an entry of absolute value 1, and the
divisibility fix-up is skipped for a unit pivot; neither can change the
pivot or the result.  Every decomposition is checked to satisfy
``U A V == D`` exactly on every entry, by sums over the sparse rows.  The
returned ``SmithDecomposition`` keeps the store; its dense ``U``, ``D`` and
``V`` are built only when read.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalInvariantError


class IntMatrix:
    """An immutable rows x cols matrix of integers, stored row-major.

    >>> A = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> A[1, 0]
    3
    >>> (A @ IntMatrix.identity(2)) == A
    True
    >>> A.determinant()
    -2
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 0 or cols < 0:
            raise InputError("matrix dimensions must be nonnegative")
        try:
            data = tuple(operator.index(e) for e in entries)
        except TypeError:
            raise InputError("matrix entries must be integers") from None
        if len(data) != rows * cols:
            raise InputError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._entries = data

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
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, (int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def __getitem__(self, key: tuple) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise InputError(f"index {(i, j)} out of range for a {self.rows}x{self.cols} matrix")
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return self._entries[j :: self.cols] if self.cols else ()

    def to_lists(self) -> list:
        """Mutable row-of-lists copy (the working form used by algorithms)."""
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols, self.rows, (self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InputError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        columns = [other.column(j) for j in range(other.cols)]
        rows = map(self.row, range(self.rows))
        out = [sum(map(operator.mul, row, col)) for row in rows for col in columns]
        return IntMatrix(self.rows, other.cols, out)

    def mul_vector(self, v: Sequence[int]) -> tuple:
        if len(v) != self.cols:
            raise InputError(f"vector of length {len(v)} does not match {self.cols} columns")
        return tuple(sum(map(operator.mul, self.row(i), v)) for i in range(self.rows))

    def append_column(self, col: Sequence[int]) -> "IntMatrix":
        if len(col) != self.rows:
            raise InputError(f"column of length {len(col)} does not match {self.rows} rows")
        entries = []
        for i in range(self.rows):
            entries.extend(self.row(i))
            entries.append(col[i])
        return IntMatrix(self.rows, self.cols + 1, entries)

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
        return (self.rows, self.cols, self._entries) == (other.rows, other.cols, other._entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

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

    The positive diagonal entries are the invariant factors and satisfy
    d_1 | d_2 | ... | d_s; ``rank`` equals s.

    The transforms are kept as the elimination left them, without zeros:
    ``store[i]`` is row i of ``[D | U]`` as ``{column: entry}``, where
    column n + k is column k of ``U`` (n the column count of A), and
    ``v_columns[j]`` is column j of ``V`` as ``{row: entry}``.  ``u_times``
    and ``v_times`` multiply off that store; the dense ``U``, ``D`` and
    ``V`` are built on first access.
    """

    invariant_factors: tuple
    rank: int
    store: tuple = field(hash=False)
    v_columns: tuple = field(hash=False)

    @cached_property
    def U(self) -> IntMatrix:
        m, n = len(self.store), len(self.v_columns)
        return IntMatrix(m, m, (row.get(n + k, 0) for row in self.store for k in range(m)))

    @cached_property
    def D(self) -> IntMatrix:
        m, n = len(self.store), len(self.v_columns)
        return IntMatrix(m, n, (row.get(j, 0) for row in self.store for j in range(n)))

    @cached_property
    def V(self) -> IntMatrix:
        n = len(self.v_columns)
        return IntMatrix(n, n, (column.get(i, 0) for i in range(n) for column in self.v_columns))

    def u_times(self, v: Sequence[int]) -> tuple:
        """U v, over the nonzeros of the ``U`` part of each store row."""
        m, n = len(self.store), len(self.v_columns)
        if len(v) != m:
            raise InputError(f"vector of length {len(v)} does not match {m} columns")
        return tuple(sum(e * v[k - n] for k, e in row.items() if k >= n) for row in self.store)

    def v_times(self, y: Sequence[int]) -> tuple:
        """V y, over the nonzeros of the columns of ``V`` that y weights."""
        n = len(self.v_columns)
        if len(y) != n:
            raise InputError(f"vector of length {len(y)} does not match {n} columns")
        x = [0] * n
        for c, column in zip(y, self.v_columns):
            if c:
                for i, w in column.items():
                    x[i] += c * w
        return tuple(x)


def _nonzeros(row: Sequence[int]) -> list:
    return [(j, row[j]) for j in itertools.compress(range(len(row)), row)]


def _add_multiple(row: dict, other: dict, q: int) -> None:
    """row += q * other, in place, dropping the entries that become zero."""
    get = row.get
    for k, b in other.items():
        e = get(k, 0) + q * b
        if e:
            row[k] = e
        else:
            del row[k]


def _carries(A: IntMatrix, store: Sequence[dict], v_columns: Sequence[dict]) -> bool:
    """Whether U @ A @ V == D, exactly, for the sparse store of a decomposition.

    Row i of U A is the sum of u_ik A[k] over the nonzero u_ik, row i of
    (U A) V the sum of x_j V[j] over the nonzero x_j of that row; row i of
    the product must equal the ``D`` part of store row i on every entry.
    Each sum runs over the nonzeros of the rows it adds, and no product
    matrix is built.
    """
    n = A.cols
    a_rows = [_nonzeros(A.row(k)) for k in range(A.rows)]
    v_rows = [[] for _ in range(n)]
    for l, column in enumerate(v_columns):
        for j, w in column.items():
            v_rows[j].append((l, w))
    for row in store:
        d = [0] * n
        x = [0] * n
        for k, e in row.items():
            if k < n:
                d[k] = e
            else:
                for j, a in a_rows[k - n]:
                    x[j] += e * a
        y = [0] * n
        for j in itertools.compress(range(n), x):
            e = x[j]
            for l, w in v_rows[j]:
                y[l] += e * w
        if y != d:
            return False
    return True


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form of ``A`` with both unimodular transforms.

    Total and deterministic; zero-dimensional matrices yield empty
    decompositions.

    >>> smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors
    (1, 6)
    """
    m, n = A.rows, A.cols
    # Row i of the store is row i of D followed by row i of U (column n + k),
    # without zeros, so every row operation is one pass over one row's
    # nonzeros.  V is kept by columns: a column swap is a list swap, and a
    # column operation on V one pass over the nonzeros of one column.
    rows = [dict(_nonzeros(A.row(i))) for i in range(m)]
    for i, row in enumerate(rows):
        row[n + i] = 1
    v = [{j: 1} for j in range(n)]
    # Positions of the store rows whose D part is zero.  Such a row is never
    # the pivot row, nor nonzero in a pivot column, so no operation changes
    # its D part again: it only moves, in a swap with the pivot row.
    empty = set()

    def find_pivot(t):
        # Nonzero entry of least absolute value in the working submatrix,
        # ties at the lowest (row, col): the rows are scanned in order and
        # only a strictly smaller entry replaces the best so far, while
        # within a row the least (absolute value, column) wins.  Below row
        # t-1 the D part lies in columns t..n-1, so it is the keys below n.
        # No nonzero is smaller than 1, so the first row holding a unit
        # settles the search.
        best = None
        best_abs = None
        for i in range(t, m):
            if i in empty:
                continue
            entries = [(abs(e), j) for j, e in rows[i].items() if j < n]
            if not entries:
                empty.add(i)
                continue
            a, j = min(entries)
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
            rows[t], rows[i] = rows[i], rows[t]
            if t in empty:
                empty.remove(t)
                empty.add(i)
            if j != t:
                # rows above t are zero in both columns
                for row in rows[t:]:
                    if t in row or j in row:
                        a, b = row.pop(t, 0), row.pop(j, 0)
                        if b:
                            row[t] = b
                        if a:
                            row[j] = a
                v[t], v[j] = v[j], v[t]
            top = rows[t]
            p = top[t]
            # The rows nonzero in column t after the row loop: the pivot row
            # and those left with a remainder.  No other row is touched by a
            # column operation, which subtracts a multiple of column t.
            remainders = [top]
            for i in range(t + 1, m):
                row = rows[i]
                if t in row:
                    q = row[t] // p
                    if q:
                        _add_multiple(row, top, -q)
                    if t in row:
                        remainders.append(row)
            dirty = len(remainders) > 1
            for j in [k for k in top if t < k < n]:
                q = top[j] // p
                if q:
                    for row in remainders:
                        e = row.get(j, 0) - q * row[t]
                        if e:
                            row[j] = e
                        else:
                            del row[j]
                    _add_multiple(v[j], v[t], -q)
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
            # Row t and column t are clear, so below row t the D part lies
            # in columns t+1..n-1.
            offender = next(
                (i for i in range(t + 1, m) if any(e % p for k, e in rows[i].items() if k < n)),
                None,
            )
            if offender is None:
                break
            # Fold the offending row into row t; re-clearing then replaces
            # the pivot by a proper divisor, which yields d_t | d_{t+1}.
            _add_multiple(top, rows[offender], 1)
            pivot = (t, t)
        t += 1

    for k in range(min(m, n)):
        if rows[k].get(k, 0) < 0:
            rows[k] = {j: -e for j, e in rows[k].items()}

    diag = [rows[k].get(k, 0) for k in range(min(m, n))]
    rank = sum(1 for e in diag if e)
    factors = tuple(diag[:rank])
    if any(e == 0 for e in factors) or any(e != 0 for e in diag[rank:]):
        raise InternalInvariantError("zero invariant factor interleaved with nonzero ones")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalInvariantError(f"invariant factors {factors} violate divisibility")

    if not _carries(A, rows, v):
        raise InternalInvariantError("transforms do not carry the input to its Smith form")
    return SmithDecomposition(invariant_factors=factors, rank=rank, store=tuple(rows), v_columns=tuple(v))
