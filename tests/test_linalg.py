"""Exact matrix operation tests."""

import itertools
import random

import pytest

from fdrm.ferrers import FerrersDiagram
from fdrm.fields import build_tower, eliminate, gf
from fdrm.linalg import (
    LinalgError,
    MatrixF,
    rank,
    systematic_form,
)


F2 = gf(2, 1)
F3 = gf(3, 1)


def identity(field, k):
    return MatrixF.from_rows(field, [[int(i == j) for j in range(k)] for i in range(k)])


def zeros(field, m, n):
    return MatrixF.from_rows(field, [[0] * n for _ in range(m)])


def random_matrix(field, m, n, rng):
    return MatrixF.from_rows(
        field, [[rng.randrange(field.order) for _ in range(n)] for _ in range(m)]
    )


def random_invertible(field, k, rng):
    while True:
        T = random_matrix(field, k, k, rng)
        if rank(T) == k:
            return T


def test_rank_basics():
    assert rank(identity(F2, 4)) == 4
    assert rank(zeros(F3, 3, 5)) == 0
    assert rank(MatrixF.from_rows(F2, [[1, 1], [1, 1]])) == 1


def test_rank_invariance_under_row_ops_and_transpose():
    for field in (F2, F3):
        rng = random.Random(3)
        for _ in range(30):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = random_matrix(field, m, n, rng)
            T = random_invertible(field, m, rng)
            assert rank(T.mul(M)) == rank(M)
            assert rank(M.transpose()) == rank(M)


def test_systematic_form_identity_passthrough():
    G = MatrixF.from_rows(F2, [[1, 0, 1, 1], [0, 1, 0, 1]])
    T, S = systematic_form(G)
    assert T.rows == identity(F2, 2).rows
    assert S.rows == G.rows


def test_systematic_form_gabidulin_left_block():
    # Moore matrices of independent elements have invertible left blocks
    for k in (2, 3):
        t = build_tower(2, 1, (4,))
        from fdrm.constructions import moore_matrix

        G = moore_matrix(t, t.betas, k)
        assert rank(G.submatrix(slice(0, k), slice(0, k))) == k  # rank oracle
        T, S = systematic_form(G)
        assert T.mul(G).rows == S.rows
        for i in range(k):
            for j in range(k):
                assert S.entry(i, j) == (1 if i == j else 0)
        assert rank(S) == k


def test_systematic_form_singular_left_block():
    G = MatrixF.from_rows(F2, [[1, 1, 0], [1, 1, 1]])
    with pytest.raises(LinalgError):
        systematic_form(G)


def valid_length(vec) -> int:
    """1-based index of the rightmost nonzero component; 0 for a zero vector."""
    return max((i + 1 for i, v in enumerate(vec) if v), default=0)


def test_valid_length():
    assert valid_length((0, 0, 0)) == 0
    assert valid_length((1, 0, 1, 0, 0)) == 3
    assert valid_length((0, 0, 0, 0, 2)) == 5
    # A column fits under diagram column j iff its valid length is at most
    # gamma_j: the per-dot support test and the valid-length test agree.
    F = FerrersDiagram((1, 3, 5))
    for vec in itertools.product(range(2), repeat=F.m):
        for j, g in enumerate(F.gammas):
            fits = all(F.dot(i, j) for i, v in enumerate(vec) if v)
            assert fits == (valid_length(vec) <= g)


def test_rref_is_canonical():
    rng = random.Random(4)
    for _ in range(20):
        M = random_matrix(F2, 3, 5, rng)
        T = random_invertible(F2, 3, rng)
        R1, R2 = [list(r) for r in M.rows], [list(r) for r in T.mul(M).rows]
        p1 = eliminate(R1, F2, reduced=True)
        p2 = eliminate(R2, F2, reduced=True)
        assert p1 == p2
        assert R1 == R2
