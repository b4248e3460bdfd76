"""Ferrers diagram rank-metric codes: bounds, constructions, verification."""

from .fields import FieldError, FieldTower, GF, build_tower, gf
from .ferrers import (
    DiagramError,
    FerrersDiagram,
    combine_diagrams,
    contains,
    full_diagram,
    singleton_bound,
)
from .linalg import LinalgError, MatrixF, rank, systematic_form
from .codes import (
    BudgetExceeded,
    CodeError,
    DEFAULT_BUDGET,
    FdrmCode,
    certify,
    distance_at_least,
    is_optimal,
    min_rank_distance,
    mrd_check,
    sampled_min_rank,
    verify_support,
)
from .constructions import (
    ConstructionError,
    SystematicGenerator,
    build_extended_generator,
    combine_codes,
    construct_prescribed_column,
    construct_shortened,
    construct_staircase,
    construct_staircase_l2,
    full_support_code,
    gabidulin_generator,
    lift_matrix,
    lift_matrix_optimal,
    lift_vector,
    restricted_gabidulin,
    systematic_mrd_with_first_column,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
