"""Exact integer matrices and the Smith normal form with transform tracking.

Everything runs on Python's arbitrary-precision integers, so transforms can
never overflow.  This module only eliminates: every reading of a
decomposition (rank, minors, solutions, group invariants) lives in
:mod:`divclass.abelian`, whose ``AbelianPresentation.smith`` is the one
caller of ``smith_normal_form``.

The Smith elimination works on one row store ``[D | U]`` plus ``V``: a row
operation is one statement on one row of the store, a column operation one
pass over the rows of the store and of ``V``.  The pivot is the nonzero entry
of least absolute value, ties at the lowest (row, col).  The pivot search
stops at the first entry of absolute value 1, and the divisibility fix-up
is skipped for a unit pivot; neither can change the pivot or the result.
Every decomposition is checked to satisfy ``U A V == D`` exactly on every
entry, by sums that visit only nonzero entries.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
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
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariant_factors: tuple
    rank: int


def _nonzeros(row: Sequence[int]) -> list:
    return [(j, e) for j, e in enumerate(row) if e]


def _carries(A: IntMatrix, U: IntMatrix, D: IntMatrix, V: IntMatrix) -> bool:
    """Whether U @ A @ V == D, exactly, visiting only nonzero entries.

    Row i of U A is the sum of u_ik A[k] over the nonzero u_ik, row i of
    (U A) V the sum of x_j V[j] over the nonzero x_j of that row.  Each sum
    runs over the nonzeros of the rows it adds, and no product matrix is
    built.
    """
    a_rows = [_nonzeros(A.row(k)) for k in range(A.rows)]
    v_rows = [_nonzeros(V.row(j)) for j in range(V.rows)]
    for i in range(U.rows):
        x = [0] * A.cols
        for k, u in _nonzeros(U.row(i)):
            for j, a in a_rows[k]:
                x[j] += u * a
        y = [0] * V.cols
        for j, e in enumerate(x):
            if e:
                for l, w in v_rows[j]:
                    y[l] += e * w
        if tuple(y) != D.row(i):
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
    # Row i of the store is row i of D followed by row i of U, so every row
    # operation is one statement on one list; column operations run over the
    # rows of the store and of V, and never reach the U part (index >= n).
    rows = [list(A.row(i)) + [int(i == k) for k in range(m)] for i in range(m)]
    v = [[int(i == k) for k in range(n)] for i in range(n)]

    def find_pivot(t):
        # Nonzero entry of least absolute value in the working submatrix;
        # row-major scan with strict improvement fixes ties at the lowest
        # (row, col) and makes the whole computation deterministic.  The
        # first entry of absolute value 1 is that entry, since no nonzero
        # is smaller, so the scan stops there.
        best = None
        best_abs = None
        for i in range(t, m):
            row = rows[i]
            if not any(row[t:n]):
                continue
            for j in range(t, n):
                e = row[j]
                if e != 0 and (best is None or abs(e) < best_abs):
                    best, best_abs = (i, j), abs(e)
                    if best_abs == 1:
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
            if j != t:
                for row in itertools.chain(rows, v):
                    row[t], row[j] = row[j], row[t]
            top = rows[t]
            p = top[t]
            dirty = False
            for i in range(t + 1, m):
                if rows[i][t]:
                    q = rows[i][t] // p
                    if q:
                        rows[i] = [a - q * b for a, b in zip(rows[i], top)]
                    if rows[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if top[j]:
                    q = top[j] // p
                    if q:
                        for row in itertools.chain(rows, v):
                            row[j] -= q * row[t]
                    if top[j]:
                        dirty = True
            if dirty:
                # A nonzero remainder smaller than |p| now exists somewhere
                # in row t or column t, so the next pivot strictly shrinks.
                pivot = find_pivot(t)
                continue
            if abs(p) == 1:
                # Every integer is divisible by a unit pivot.
                break
            offender = None
            for i in range(t + 1, m):
                row = rows[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # Fold the offending row into row t; re-clearing then replaces
            # the pivot by a proper divisor, which yields d_t | d_{t+1}.
            rows[t] = [a + b for a, b in zip(top, rows[offender])]
            pivot = (t, t)
        t += 1

    for k in range(min(m, n)):
        if rows[k][k] < 0:
            rows[k] = [-e for e in rows[k]]

    diag = [rows[k][k] for k in range(min(m, n))]
    rank = sum(1 for e in diag if e)
    factors = tuple(diag[:rank])
    if any(e == 0 for e in factors) or any(e != 0 for e in diag[rank:]):
        raise InternalInvariantError("zero invariant factor interleaved with nonzero ones")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise InternalInvariantError(f"invariant factors {factors} violate divisibility")

    D = IntMatrix(m, n, (e for row in rows for e in row[:n]))
    U = IntMatrix(m, m, (e for row in rows for e in row[n:]))
    V = IntMatrix(n, n, (e for row in v for e in row))
    if not _carries(A, U, D, V):
        raise InternalInvariantError("transforms do not carry the input to its Smith form")
    return SmithDecomposition(U=U, D=D, V=V, invariant_factors=factors, rank=rank)
