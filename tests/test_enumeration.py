"""Projective enumeration cross-checked against a plain walk.

`codes._min_rank` ranks one representative per line of nonzero codewords
(an F_{q^m}-line for `mrd_check`, an F_q-line otherwise).  Each test here
compares it with a reference that ranks every nonzero F_q-combination of
the basis, in plain message order: the minimum ranks must be equal and a
`floor` must give the same verdict.  The packed GF(2) kernel's coset
`offset` is unit-tested at the end.
"""

import itertools
import random

import numpy as np
import pytest

from fdrm import _gf2
from fdrm import codes
from fdrm.codes import CodeError, FdrmCode, code_from_generator, mrd_check
from fdrm.constructions import (
    build_extended_generator,
    construct_prescribed_column,
    construct_staircase,
    gabidulin_generator,
    moore_matrix,
    restricted_gabidulin,
    systematic_mrd_with_first_column,
    tower_for_prescribed,
)
from fdrm.fields import build_tower, gf
from fdrm.ferrers import FerrersDiagram, full_diagram
from fdrm.linalg import MatrixF, rank

BUDGET = 1 << 24
ENGINE = codes._min_rank


# -- plain reference: every nonzero message, no projective reduction --


def _plain_min_rank_gf2(code) -> int:
    m, n = code.ambient
    k = code.dimension
    dtype = np.min_scalar_type((1 << n) - 1)
    basis = np.array([_gf2.pack_rows(b.rows, n) for b in code.basis], dtype=dtype)
    low = min(k, 16)
    table = np.zeros((1, m), dtype=dtype)
    for b in basis[:low]:
        table = np.concatenate([table, table ^ b])  # all 2^low combinations
    best = m + 1
    for hi in range(1 << (k - low)):
        top = np.zeros(m, dtype=dtype)
        for i in range(k - low):
            if hi >> i & 1:
                top ^= basis[low + i]
        ranks = _gf2.rank_batch(table ^ top)
        if hi == 0:
            ranks[0] = m + 1  # the zero codeword
        best = min(best, int(ranks.min()))
    return best


def _field_tables(f):
    els = range(f.order)
    add = np.array([[f.add(a, b) for b in els] for a in els])
    mul = np.array([[f.mul(a, b) for b in els] for a in els])
    neg = np.array([f.neg(a) for a in els])
    inv = np.array([0] + [f.inv(a) for a in els if a])
    return add, mul, neg, inv


def _rank_batch_tables(words, tables) -> np.ndarray:
    """Ranks of a (B, m, n) batch by Gauss-Jordan elimination on field tables."""
    add, mul, neg, inv = tables
    a = words.copy()
    B, m, n = a.shape
    ar = np.arange(B)
    used = np.zeros((B, m), dtype=bool)
    for j in range(n):
        cand = (a[:, :, j] != 0) & ~used
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = mul[inv[a[ar, piv, j]][:, None], a[ar, piv]]
        factor = np.where(has[:, None], a[:, :, j], 0)
        factor[ar, piv] = 0
        a = add[a, neg[mul[factor[:, :, None], prow[:, None, :]]]]
        used[ar, piv] |= has
    return used.sum(axis=1)


def _plain_min_rank_tables(code) -> int:
    f = code.field
    m, n = code.ambient
    tables = _field_tables(f)
    add, mul = tables[0], tables[1]
    basis = np.array([b.rows for b in code.basis])
    low = min(code.dimension, 8)
    table = np.zeros((1, m, n), dtype=np.int64)
    for b in basis[:low]:
        table = np.concatenate([add[table, mul[c, b]] for c in range(f.order)])
    best = min(m, n) + 1
    for hi in itertools.product(range(f.order), repeat=code.dimension - low):
        top = np.zeros((m, n), dtype=np.int64)
        for c, b in zip(hi, basis[low:]):
            top = add[top, mul[c, b]]
        ranks = _rank_batch_tables(add[table, top], tables)
        if not any(hi):
            ranks[0] = best  # the zero codeword
        best = min(best, int(ranks.min()))
    return best


def plain_min_rank(code) -> int:
    if code.field.order == 2:
        return _plain_min_rank_gf2(code)
    return _plain_min_rank_tables(code)


def assert_matches_plain(code, line: int) -> int:
    ref = plain_min_rank(code)
    assert ENGINE(code, BUDGET, None, line) == ref
    for floor in (ref, ref + 1):
        got = ENGINE(code, BUDGET, floor, line)
        assert (got >= floor) == (ref >= floor)
        assert got >= ref  # an early exit still reports a true rank
    return ref


def test_reference_ranks_agree_with_linalg():
    rng = random.Random(5)
    for p, s in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = gf(p, s)
        mats = [MatrixF.from_rows(f, [[rng.randrange(f.order) for _ in range(4)]
                                      for _ in range(3)]) for _ in range(40)]
        got = _rank_batch_tables(np.array([b.rows for b in mats]), _field_tables(f))
        assert list(got) == [rank(b) for b in mats]


# -- every mrd_check instance of the test suite and the benchmark --


def _moore(p, n, delta):
    t = build_tower(p, 1, (n,))
    return mrd_check(t, moore_matrix(t, t.betas[:n], n - delta + 1), delta)


def _gabidulin_gf2():
    for n, delta in ((3, 2), (3, 3), (4, 2), (4, 3), (4, 4), (5, 3), (6, 4)):
        assert _moore(2, n, delta)
    t = build_tower(2, 1, (3,))
    assert mrd_check(t, gabidulin_generator(t, t.betas, 2), 2)
    t = build_tower(2, 1, (2, 4))
    assert mrd_check(t, restricted_gabidulin(t, 3, 2), 2)


def _first_column():
    t = build_tower(2, 1, (3,))
    beta = t.beta(2)
    for a in ((beta, t.beta(3)), (t.field.mul(beta, beta), beta)):
        assert systematic_mrd_with_first_column(t, a, 2, 3).verified
    for p, gam in ((2, (2, 3, 4, 4)), (2, (2, 2, 4, 5, 5)), (3, (2, 3, 4, 4))):
        F = FerrersDiagram(gam)
        construct_prescribed_column(tower_for_prescribed(p, 1, F, 4), F, 4)


def _extended_generators():
    assert build_extended_generator(build_tower(2, 1, (3,)), eta=4, r=1, d=2).verified
    assert build_extended_generator(build_tower(2, 1, (2, 6)), eta=5, r=1, d=3).verified
    construct_staircase(build_tower(2, 1, (2, 6)), FerrersDiagram((4, 4, 6, 6)), 3, 0, 2)
    construct_staircase(build_tower(3, 1, (3,)), FerrersDiagram((1, 3, 3, 4)), 3, 1, 1)


def _criterion_4():
    construct_staircase(
        build_tower(2, 1, (4, 8)),
        FerrersDiagram((1, 2, 4, 4, 8, 8, 8, 8, 9, 11)), delta=8, r=2, w=1,
    )


@pytest.mark.parametrize("scenario, want", [
    (_gabidulin_gf2, None),
    (lambda: _moore(2, 11, 10), [10]),  # k = 2 rows over GF(2^11)
    (lambda: (_moore(3, 5, 4), _moore(3, 2, 2)), [4, 2]),
    (_first_column, None),
    (_extended_generators, None),
    (_criterion_4, [6, 7, 8]),  # removal sub-contracts nu = 0, 1, 2
], ids=["gabidulin-gf2", "gabidulin-gf2-11", "gabidulin-gf3", "first-column",
        "extended-generators", "criterion-4"])
def test_mrd_check_instances_match_plain_walk(monkeypatch, scenario, want):
    seen = []

    def spy(code, budget, floor, line=1):
        if line > 1:
            seen.append((code, line))
        return ENGINE(code, budget, floor, line)

    monkeypatch.setattr(codes, "_min_rank", spy)
    scenario()
    assert seen
    ranks = [assert_matches_plain(code, line) for code, line in seen]
    if want is not None:
        assert ranks == want


# -- random codes --


def _random_generator_code(rng, tower, k, n):
    while True:
        G = MatrixF.from_rows(
            tower.field,
            [[rng.randrange(tower.field.order) for _ in range(n)] for _ in range(k)],
        )
        try:
            return code_from_generator(tower, G, 1)
        except CodeError:
            continue  # dependent rows


@pytest.mark.parametrize("p, s, degrees, max_dim", [
    (2, 1, (2, 3, 4, 5), 12),
    (3, 1, (2, 3, 4), 8),
    (2, 2, (2, 3), 6),
])
def test_random_linear_generators_match_plain_walk(p, s, degrees, max_dim):
    # max_dim caps k*m, the dimension over F_q, so the plain walk stays small
    rng = random.Random(100 * p + s)
    for m in degrees:
        tower = build_tower(p, s, (m,))
        for _ in range(3):
            n = rng.randint(2, m)
            k = rng.randint(1, min(n, max_dim // m))
            assert_matches_plain(_random_generator_code(rng, tower, k, n), m)


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_random_general_codes_match_plain_walk(p, s):
    f = gf(p, s)
    rng = random.Random(7 * p + s)
    max_dim = {2: 10, 3: 7, 4: 5, 5: 5}[f.order]
    done = 0
    while done < 8:
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        k = rng.randint(1, max_dim)
        basis = tuple(
            MatrixF.from_rows(f, [[rng.randrange(f.order) for _ in range(n)]
                                  for _ in range(m)])
            for _ in range(k)
        )
        try:
            code = FdrmCode(f, full_diagram(m, n), basis, 1, {})
        except CodeError:
            continue  # dependent basis
        assert_matches_plain(code, 1)
        done += 1


# -- packed GF(2) kernel with a coset offset --


def test_gf2_offset_empty_span_ranks_the_offset():
    assert _gf2.min_rank_exhaustive([], 3, offset=(0b001, 0b010, 0)) == 2
    assert _gf2.min_rank_exhaustive([], 3, offset=(0, 0, 0)) == 0


def test_gf2_offset_counts_the_zero_message():
    # offset alone has rank 1; offset + the one basis matrix has rank 2
    assert _gf2.min_rank_exhaustive([(0, 0b10, 0)], 3, offset=(0b01, 0, 0)) == 1
    # a zero offset makes the zero codeword part of the coset
    assert _gf2.min_rank_exhaustive([(0b11, 0b01, 0)], 3, offset=(0, 0, 0)) == 0


def test_gf2_offset_floor_exits_inside_the_coset():
    # 19 basis matrices: two outer blocks of 2^18.  The first block keeps
    # rows 0-1 of the offset (rank >= 2); the last basis matrix cancels the
    # offset, so the second block holds the zero matrix.
    offset = (0b0001, 0b0010, 0, 0)
    span = [(0, 0, i & 15, i >> 4) for i in range(1, 19)] + [offset]
    assert _gf2.min_rank_exhaustive(span, 4, offset=offset) == 0
    assert _gf2.min_rank_exhaustive(span, 4, floor=3, offset=offset) == 2
