"""Exact matrices over GF(p^n): rank and the systematic form.

MatrixF is the generator type over a tower's top field: Moore matrices,
systematic forms and the prescribed-column search.  Codes store their
basis matrices as flat rows instead (see `codes`).  Rank and the
systematic form run `fields.eliminate`, the package's one elimination
routine.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import GF, eliminate


class LinalgError(ValueError):
    """Dimension mismatch or singular input."""


@dataclass(frozen=True, eq=True)
class MatrixF:
    """Immutable matrix with entries in a declared field."""

    field: GF
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise LinalgError("ragged rows")
        for r in self.rows:
            for e in r:
                self.field.check(e)

    @classmethod
    def from_rows(cls, field: GF, rows) -> "MatrixF":
        return cls(field, tuple(tuple(r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "MatrixF":
        return MatrixF(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def submatrix(self, row_slice: slice, col_slice: slice) -> "MatrixF":
        return MatrixF(self.field, tuple(r[col_slice] for r in self.rows[row_slice]))

    def mul(self, other: "MatrixF") -> "MatrixF":
        if other.field is not self.field or self.ncols != other.nrows:
            raise LinalgError("mul mismatch")
        f = self.field
        ot = other.transpose().rows
        out = []
        for r in self.rows:
            row = []
            for c in ot:
                acc = 0
                for a, b in zip(r, c):
                    if a and b:
                        acc = f.add(acc, f.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return MatrixF(f, tuple(out))


def rank(M: MatrixF) -> int:
    """Rank by Gaussian elimination over the entry field."""
    return len(eliminate([list(r) for r in M.rows], M.field))


def systematic_form(G: MatrixF) -> tuple[MatrixF, MatrixF]:
    """(T, S) with S = T*G of shape (I_k | A); the row space is preserved.

    One reduced elimination of [G | I_k] leaves [S | T].  Raises
    LinalgError when the leftmost k x k block is singular.
    """
    k, n = G.shape
    if n < k:
        raise LinalgError("wider-than-tall generator required")
    aug = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(G.rows)]
    if eliminate(aug, G.field, reduced=True) != list(range(k)):
        raise LinalgError("leftmost k x k block is singular")
    f = G.field
    return MatrixF.from_rows(f, [r[n:] for r in aug]), MatrixF.from_rows(f, [r[:n] for r in aug])

