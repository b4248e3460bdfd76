"""Three construction families, each output verified exhaustively.

Every construction emits an explicit basis of codeword matrices, so one
enumeration engine certifies the minimum rank distance and the dimension
against the diagram bound.
"""

from fdrm import (
    FerrersDiagram,
    build_tower,
    construct_prescribed_column,
    construct_shortened,
    construct_staircase,
    is_optimal,
    min_rank_distance,
    singleton_bound,
)
from fdrm.constructions import tower_for_prescribed, tower_for_shortened

# 1. shortening: rightmost delta-1 columns all have >= n dots
F = FerrersDiagram.parse("[2,3,3]")
tower = tower_for_shortened(2, 1, F, 2)
code = construct_shortened(tower, F, 2)
print(f"shortened: {code.describe()}")
print(f"  min rank distance (exhaustive): {min_rank_distance(code)}")
print(f"  optimal: {is_optimal(code, 2)}")
print()

# 2. prescribed first column: relaxes the (delta-1)-th column from the right
F = FerrersDiagram.parse("[2,2,4,5,5]")
tower = tower_for_prescribed(2, 1, F, 4)
code = construct_prescribed_column(tower, F, 4)
bound, _ = singleton_bound(F, 4)
print(f"prescribed column: {code.describe()}, bound {bound}")
print(f"  optimal: {is_optimal(code, 4)}")
print()

# 3. staircase over a two-level tower GF(2) < GF(4) < GF(64)
tower = build_tower(2, 1, (2, 6))
F = FerrersDiagram.parse("[4,4,6,6]")
code = construct_staircase(tower, F, delta=3, r=0, w=2)
print(f"staircase: {code.describe()}")
print(f"  min rank distance over 255 nonzero codewords: {min_rank_distance(code)}")
print(f"  optimal: {is_optimal(code, 3)}")
print()

# a staircase with one extension column (r = 1)
tower = build_tower(2, 1, (3,))
F = FerrersDiagram.parse("[1,3,3,4]")
code = construct_staircase(tower, F, delta=3, r=1, w=1)
print(f"staircase r=1: {code.describe()}, optimal: {is_optimal(code, 3)}")
print("one basis codeword (note the column below the coordinate block):")
b, n = code.basis[0], code.diagram.n  # each basis matrix is stored flat, row-major
for i in range(0, len(b), n):
    print("  ", b[i : i + n])
