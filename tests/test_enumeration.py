"""The verification routes cross-checked against a plain walk.

`codes._min_rank` reads the minimum rank off the side with less to walk.
`codes._projective_min_rank` ranks one representative per line of nonzero
codewords (an F_{q^m}-line for `mrd_check`, an F_q-line otherwise);
`codes._dual_distribution` walks the Delsarte dual in full and solves the
MacWilliams identities for the code's rank distribution.  Each test here
compares them with a reference that ranks every F_q-combination of the
basis, in plain message order: the minimum ranks and the rank distribution
must be equal, and a `floor` must give the same verdict.  The packed GF(2)
kernel's coset `offset` is unit-tested at the end.
"""

import itertools
import random

import numpy as np
import pytest

from fdrm import _gf2
from fdrm import codes
from fdrm.codes import CodeError, FdrmCode, certify, code_from_generator, mrd_check
from fdrm.constructions import (
    build_extended_generator,
    construct_prescribed_column,
    construct_shortened,
    construct_staircase,
    construct_staircase_l2,
    gabidulin_generator,
    moore_matrix,
    restricted_gabidulin,
    systematic_mrd_with_first_column,
    tower_for_prescribed,
    tower_for_shortened,
)
from fdrm.fields import build_tower, gf
from fdrm.ferrers import FerrersDiagram, full_diagram
from fdrm.linalg import rank

BUDGET = 1 << 24
ENGINE = codes._min_rank
# The largest dual, in codewords, that the cross-checks walk in full.  Outside
# GF(2) the odometer ranks about 10^5 matrices a second, so walking every
# dual that fits the budget would take minutes.
DUAL_WALK_CAP = 1 << 13


# -- plain reference: every message, no projective reduction --


def _plain_distribution_gf2(code) -> list[int]:
    m, n = code.ambient
    k = code.dimension
    dtype = np.min_scalar_type((1 << n) - 1)
    basis = np.array([_gf2.pack_rows([b[i : i + n] for i in range(0, m * n, n)], n)
                      for b in code.basis], dtype=dtype)
    low = min(k, 16)
    table = np.zeros((1, m), dtype=dtype)
    for b in basis[:low]:
        table = np.concatenate([table, table ^ b])  # all 2^low combinations
    hist = np.zeros(m + 1, dtype=np.int64)
    for hi in range(1 << (k - low)):
        top = np.zeros(m, dtype=dtype)
        for i in range(k - low):
            if hi >> i & 1:
                top ^= basis[low + i]
        hist += np.bincount(_gf2.rank_batch(table ^ top), minlength=m + 1)
    return hist.tolist()[: min(m, n) + 1]


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


def _plain_distribution_tables(code) -> list[int]:
    f = code.field
    m, n = code.ambient
    tables = _field_tables(f)
    add, mul = tables[0], tables[1]
    basis = np.array(code.basis).reshape(-1, m, n)
    low = min(code.dimension, 8)
    table = np.zeros((1, m, n), dtype=np.int64)
    for b in basis[:low]:
        table = np.concatenate([add[table, mul[c, b]] for c in range(f.order)])
    hist = np.zeros(min(m, n) + 1, dtype=np.int64)
    for hi in itertools.product(range(f.order), repeat=code.dimension - low):
        top = np.zeros((m, n), dtype=np.int64)
        for c, b in zip(hi, basis[low:]):
            top = add[top, mul[c, b]]
        ranks = _rank_batch_tables(add[table, top], tables)
        hist += np.bincount(ranks, minlength=len(hist))
    return hist.tolist()


def plain_distribution(code) -> list[int]:
    """Codewords of each rank 0..min(m, n), the zero codeword included."""
    if code.field.order == 2:
        return _plain_distribution_gf2(code)
    return _plain_distribution_tables(code)


def _least_nonzero_rank(dist) -> int:
    return next(i for i in range(1, len(dist)) if dist[i])


def _dual_codewords(code) -> int:
    m, n = code.ambient
    return code.field.order ** (m * n - code.dimension)


def assert_matches_plain(code, line: int) -> int:
    """Both walks and the routed engine against the plain walk; the dual
    distribution whenever the dual fits DUAL_WALK_CAP."""
    dist = plain_distribution(code)
    ref = _least_nonzero_rank(dist)
    assert ENGINE(code, BUDGET, None, line) == ref
    assert codes._projective_min_rank(code, None, line) == ref
    for floor in (ref, ref + 1):
        for got in (ENGINE(code, BUDGET, floor, line),
                    codes._projective_min_rank(code, floor, line)):
            assert (got >= floor) == (ref >= floor)
            assert got >= ref  # an early exit still reports a true rank
    if _dual_codewords(code) <= DUAL_WALK_CAP:
        assert codes._dual_distribution(code) == dist
    return ref


def test_reference_ranks_agree_with_linalg():
    rng = random.Random(5)
    for p, s in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = gf(p, s)
        mats = [[[rng.randrange(f.order) for _ in range(4)] for _ in range(3)]
                for _ in range(40)]
        got = _rank_batch_tables(np.array(mats), _field_tables(f))
        assert list(got) == [rank(f, b) for b in mats]


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
        assert mrd_check(t, systematic_mrd_with_first_column(t, a, 2, 3).matrix, 2)
    for p, gam in ((2, (2, 3, 4, 4)), (2, (2, 2, 4, 5, 5)), (3, (2, 3, 4, 4))):
        F = FerrersDiagram(gam)
        construct_prescribed_column(tower_for_prescribed(p, 1, F, 4), F, 4)


def _extended_generators():
    assert build_extended_generator(build_tower(2, 1, (3,)), eta=4, r=1, d=2)[1]
    assert build_extended_generator(build_tower(2, 1, (2, 6)), eta=5, r=1, d=3)[1]
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


def _random_flat(rng, f, m, n):
    """A random m x n matrix over f, drawn row by row and stored flat."""
    return tuple(rng.randrange(f.order) for _ in range(m * n))


def _random_generator_code(rng, tower, k, n):
    while True:
        G = [[rng.randrange(tower.field.order) for _ in range(n)] for _ in range(k)]
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
        basis = tuple(_random_flat(rng, f, m, n) for _ in range(k))
        try:
            code = FdrmCode(f, full_diagram(m, n), basis, 1, {})
        except CodeError:
            continue  # dependent basis
        assert_matches_plain(code, 1)
        done += 1


# -- the dual route: distributions, corrupted bases, tampered walks, refusals --


def _random_full_code(rng, f, m, n, k):
    while True:
        basis = tuple(_random_flat(rng, f, m, n) for _ in range(k))
        try:
            return FdrmCode(f, full_diagram(m, n), basis, 1, {})
        except CodeError:
            continue  # dependent basis


def _transpose(code):
    m, n = code.ambient
    return FdrmCode(code.field, full_diagram(n, m),
                    tuple(tuple(b[i * n + j] for j in range(n) for i in range(m))
                          for b in code.basis), 1, {})


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_random_codes_dual_distribution_matches_plain_walk(p, s):
    # k is drawn so that both the code and its dual fit DUAL_WALK_CAP; each
    # code is checked as m x n and transposed, as n x m.
    f = gf(p, s)
    rng = random.Random(11 * p + s)
    done = 0
    while done < 6:
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        ks = [k for k in range(1, m * n + 1)
              if max(f.order**k, f.order ** (m * n - k)) <= DUAL_WALK_CAP]
        if not ks:
            continue
        code = _random_full_code(rng, f, m, n, rng.choice(ks))
        for c in (code, _transpose(code)):
            assert _dual_codewords(c) <= DUAL_WALK_CAP
            assert_matches_plain(c, 1)
        done += 1


def _shortened(p, s, gammas, delta):
    diagram = FerrersDiagram(gammas)
    return construct_shortened(tower_for_shortened(p, s, diagram, delta), diagram, delta)


@pytest.mark.parametrize("p, s, gammas, delta", [
    (3, 1, (2, 3, 3), 2),
    (2, 1, (2, 3, 4, 4), 3),
    (2, 2, (2, 3, 3), 2),
])
def test_corrupted_entry_gets_the_same_verdict_on_both_routes(p, s, gammas, delta):
    code = _shortened(p, s, gammas, delta)
    m, n = code.ambient
    verdicts = []
    for i, j in itertools.product(range(m), range(n)):
        if not code.diagram.dot(i, j):
            continue
        flat = list(code.basis[0])
        flat[i * n + j] = code.field.add(flat[i * n + j], 1)
        basis = (tuple(flat),) + code.basis[1:]
        try:
            bad = FdrmCode(code.field, code.diagram, basis, delta, {})
        except CodeError:
            continue  # the corrupted matrix fell into the span of the others
        want = _least_nonzero_rank(plain_distribution(bad)) >= delta
        assert (codes._projective_min_rank(bad, delta) >= delta) == want
        assert (_least_nonzero_rank(codes._dual_distribution(bad)) >= delta) == want
        verdicts.append(want)
    assert False in verdicts  # some corruption breaks the claim


@pytest.mark.parametrize("tamper", [
    lambda h, q: [h[0], h[1] + q - 1] + h[2:],  # one line too many
    lambda h, q: h[:-1] + [h[-1] - (q - 1)],  # one line too few
    lambda h, q: [2] + h[1:],  # two zero codewords
    lambda h, q: [h[0], h[1] - (q - 1), h[2] + q - 1] + h[3:],  # a line moved
], ids=["extra-line", "missing-line", "zero-twice", "moved-line"])
def test_tampered_dual_histogram_raises(monkeypatch, tamper):
    code = _shortened(3, 1, (2, 3, 3), 2)  # 3^5 codewords, a 3^4-codeword dual
    honest = codes._rank_histogram
    monkeypatch.setattr(codes, "_rank_histogram",
                        lambda *args: tamper(honest(*args), code.field.order))
    with pytest.raises(CodeError, match="dual rank distribution"):
        codes._dual_distribution(code)
    with pytest.raises(CodeError, match="dual rank distribution"):
        certify(code)  # routed through the dual, never "verified"


def test_min_rank_walks_the_side_with_fewer_lines(monkeypatch):
    walked = []
    for name in ("_dual_distribution", "_projective_min_rank"):
        honest = getattr(codes, name)
        monkeypatch.setattr(codes, name, lambda *a, name=name, honest=honest:
                            walked.append(name) or honest(*a))
    # k' = 11 in a 4x4 ambient: 88,573 F_3-lines against 121 in the dual
    assert certify(_shortened(3, 1, (3, 4, 4, 4), 2))[1] == "verified"
    # 3^10 codewords over F_{3^5}-lines: 244 representatives against
    # 7,174,453 F_3-lines in the dual
    t = build_tower(3, 1, (5,))
    assert mrd_check(t, moore_matrix(t, t.betas[:5], 2), 4)
    assert walked == ["_dual_distribution", "_projective_min_rank"]


@pytest.mark.parametrize("p, chain, gammas, delta, w", [
    (2, (5, 15), (10,) * 5 + (15,) * 10, 12, 2),
    (2, (4, 16), (16,) * 16, 13, 4),
    (3, (3, 6), (6,) * 6, 4, 2),
], ids=["cor28-dim40", "cor28-dim64", "cor28-dim18-q3"])
def test_budget_refusal_walks_neither_side(monkeypatch, p, chain, gammas, delta, w):
    code = construct_staircase_l2(build_tower(p, 1, chain), FerrersDiagram(gammas),
                                  delta, 0, w)
    walks = []
    monkeypatch.setattr(codes, "_dual_distribution", lambda *a: walks.append(a))
    monkeypatch.setattr(codes, "_projective_min_rank", lambda *a: walks.append(a))
    assert certify(code)[1] == "unverified-at-scale"
    assert walks == []


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
