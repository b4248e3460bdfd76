"""Ferrers diagrams as column-cardinality vectors, and the dimension bound.

A diagram [g_0, ..., g_{n-1}] has n top-aligned columns; column j carries
g_j dots in rows 0..g_j-1.  Cardinalities are non-decreasing left to
right, so rows are right-aligned with non-increasing lengths downward, the
first row has n dots and the rightmost column has m = g_{n-1} dots.  All
index math in the other modules relies on this orientation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class DiagramError(ValueError):
    """Malformed diagram or out-of-range parameters."""


@dataclass(frozen=True)
class FerrersDiagram:
    gammas: tuple[int, ...]

    def __post_init__(self):
        g = self.gammas
        if not g:
            raise DiagramError("diagram needs at least one column")
        if any(not isinstance(x, int) or x < 1 for x in g):
            raise DiagramError(f"column cardinalities must be >= 1: {g}")
        if any(a > b for a, b in zip(g, g[1:])):
            raise DiagramError(f"column cardinalities must be non-decreasing: {g}")

    @classmethod
    def parse(cls, text: str) -> "FerrersDiagram":
        m = re.fullmatch(r"\s*\[\s*(\d+(?:\s*,\s*\d+)*)\s*\]\s*", text)
        if not m:
            raise DiagramError(f"cannot parse diagram {text!r}")
        try:
            gammas = tuple(int(x) for x in m.group(1).split(","))
        except ValueError:  # a digit string past int()'s length limit
            raise DiagramError("diagram entry has too many digits")
        return cls(gammas)

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def m(self) -> int:
        return self.gammas[-1]

    @property
    def dots(self) -> int:
        return sum(self.gammas)

    def dot(self, i: int, j: int) -> bool:
        """True iff cell (row i, column j) carries a dot."""
        return 0 <= j < self.n and 0 <= i < self.gammas[j]

    def text(self) -> str:
        return "[" + ",".join(str(g) for g in self.gammas) + "]"

    def render(self) -> str:
        """ASCII dot layout, one text row per diagram row."""
        lines = []
        for i in range(self.m):
            lines.append(" ".join("•" if self.dot(i, j) else " " for j in range(self.n)))
        return "\n".join(line.rstrip() for line in lines)

    def __str__(self) -> str:
        return self.text()


def full_diagram(m: int, n: int) -> FerrersDiagram:
    if m < 1 or n < 1:
        raise DiagramError("full diagram needs m, n >= 1")
    return FerrersDiagram((m,) * n)


def singleton_bound(diagram: FerrersDiagram, delta: int) -> tuple[int, list[int]]:
    """Dimension bound min_i v_i for distance delta, with the full v list.

    v_i counts the dots outside the first i rows and the rightmost
    delta-1-i columns: v_i = sum_{j<=n-delta+i} max(g_j - i, 0).
    """
    n = diagram.n
    if not 1 <= delta <= n:
        raise DiagramError(f"delta {delta} out of range 1..{n}")
    v = []
    for i in range(delta):
        v.append(sum(max(g - i, 0) for g in diagram.gammas[: n - delta + 1 + i]))
    return min(v), v


def contains(outer: FerrersDiagram, inner: FerrersDiagram) -> bool:
    """True iff inner's columns fit under outer's, column by column."""
    if outer.n != inner.n:
        raise DiagramError("containment needs equal column counts")
    return all(a <= b for a, b in zip(inner.gammas, outer.gammas))


def combine_diagrams(
    f1: FerrersDiagram, f2: FerrersDiagram, m3: int, n3: int
) -> FerrersDiagram:
    """Diagram with f1 top-left, a full m3 x n3 block top-right, f2 bottom-right.

    The result has m2+m3 rows and n1+n3 columns; f2 sits right-aligned under
    the full block so the rightmost column keeps m2+m3 dots.
    """
    if m3 < f1.m:
        raise DiagramError(f"m3 = {m3} must be >= {f1.m} (rows of the first diagram)")
    if n3 < f2.n:
        raise DiagramError(f"n3 = {n3} must be >= {f2.n} (columns of the second diagram)")
    right = []
    for j in range(n3):
        pad = n3 - f2.n
        extra = f2.gammas[j - pad] if j >= pad else 0
        right.append(m3 + extra)
    return FerrersDiagram(tuple(f1.gammas) + tuple(right))
