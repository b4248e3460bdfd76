"""Rank and the systematic form of a row array over GF(p^n).

A generator over a tower's top field is a plain tuple of row tuples;
codes store their basis matrices as flat rows instead (see `codes`).
Both functions run `fields.eliminate`, the package's one elimination
routine.  They keep a module of their own because the benchmark's traced
mode (perfbench/spans.py) times them as `linalg.rank` and
`linalg.systematic_form`.
"""

from __future__ import annotations

from .codes import CodeError
from .fields import GF, eliminate


def rank(field: GF, rows) -> int:
    """Rank by Gaussian elimination over `field`."""
    return len(eliminate(list(rows), field))


def systematic_form(field: GF, rows) -> tuple[tuple[int, ...], ...]:
    """Rows S = (I_k | A) spanning the row space of the k rows `rows`.

    One reduced elimination; raises CodeError unless the leftmost k x k
    block is invertible.
    """
    S = list(rows)
    if eliminate(S, field, reduced=True) != list(range(len(S))):
        raise CodeError("leftmost k x k block of the generator is singular")
    return tuple(map(tuple, S))
