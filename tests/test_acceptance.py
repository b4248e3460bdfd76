"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check is exact (prime fields, exhaustive enumeration); the stated
wall-clock limits are asserted.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import random
import time

from fdrm.codes import (
    certificate,
    certify,
    code_from_generator,
    distance_at_least,
    is_optimal,
    min_rank_distance,
    sampled_min_rank,
    verify_support,
)
from fdrm.constructions import (
    build_extended_generator,
    combine_codes,
    construct_prescribed_column,
    construct_shortened,
    construct_staircase,
    construct_staircase_l2,
    lift_matrix_optimal,
    moore_matrix,
    tower_for_prescribed,
    tower_for_shortened,
)
from fdrm.fields import build_tower, gf
from fdrm.ferrers import FerrersDiagram, singleton_bound
from fdrm.linalg import rank

AT_SCALE_DIAGRAM = FerrersDiagram((10,) * 5 + (15,) * 10)
TALL_STAIR_DIAGRAM = FerrersDiagram((1, 2, 4, 4, 8, 8, 8, 8, 9, 11))
LIFT_TARGET_DIAGRAM = FerrersDiagram((4, 4, 6, 6, 6, 6, 10, 10))


def _finish(n, started, limit, detail=""):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {limit}s) {detail}")
    assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_bound_engine():
    t0 = time.time()
    cases = [
        ((2, 3, 3, 5), 4, 2),
        ((2, 3, 4, 4), 4, 2),
        ((2, 2, 4, 5, 5), 4, 4),
        (AT_SCALE_DIAGRAM.gammas, 12, 40),
        (TALL_STAIR_DIAGRAM.gammas, 8, 7),
        (LIFT_TARGET_DIAGRAM.gammas, 8, 4),
    ]
    for gam, delta, want in cases:
        bound, _ = singleton_bound(FerrersDiagram(gam), delta)
        assert bound == want, (gam, delta, bound, want)
    _finish(1, t0, 1, f"{len(cases)} bound values exact")


def test_criterion_2_gabidulin_mrd():
    t0 = time.time()
    for n, delta in [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]:
        tower = build_tower(2, 1, (n,))
        G = moore_matrix(tower, tower.betas[:n], n - delta + 1)
        code = code_from_generator(tower, G, delta)
        assert code.dimension == max(n, n) * (min(n, n) - delta + 1)
        assert min_rank_distance(code) == delta, (n, delta)
    _finish(2, t0, 10, "five exhaustively-checked MRD instances")


def test_criterion_3_prescribed_column_end_to_end():
    t0 = time.time()
    for gam, delta, dim in [((2, 3, 4, 4), 4, 2), ((2, 2, 4, 5, 5), 4, 4)]:
        F = FerrersDiagram(gam)
        tower = tower_for_prescribed(2, 1, F, delta)
        code = construct_prescribed_column(tower, F, delta)
        assert code.dimension == dim
        assert is_optimal(code, delta), gam
    _finish(3, t0, 1, "both diagrams optimal by exhaustive check")


def test_criterion_4_staircase_end_to_end():
    t0 = time.time()
    tower = build_tower(2, 1, (4, 8))
    code = construct_staircase(tower, TALL_STAIR_DIAGRAM, delta=8, r=2, w=1)
    assert code.dimension == 7
    assert verify_support(code)
    assert code.provenance["generator_verified"] is True
    assert min_rank_distance(code) >= 8  # 127 nonzero 11x10 matrices
    assert is_optimal(code, 8)

    tower2 = build_tower(2, 1, (2, 6))
    code2 = construct_staircase(tower2, FerrersDiagram((4, 4, 6, 6)), 3, 0, 2)
    assert code2.dimension == 8
    assert min_rank_distance(code2) >= 3  # 255 nonzero codewords
    assert is_optimal(code2, 3)
    _finish(4, t0, 30, "dimensions 7 and 8, exhaustive distances")


def test_criterion_5_staircase_at_scale():
    t0 = time.time()
    tower = build_tower(2, 1, (5, 15))
    code = construct_staircase_l2(tower, AT_SCALE_DIAGRAM, delta=12, r=0, w=2)
    assert code.dimension == 40
    assert singleton_bound(AT_SCALE_DIAGRAM, 12)[0] == 40
    assert verify_support(code)
    code, status = certify(code)  # 2^40 codewords: must not claim verified
    assert status == "unverified-at-scale"
    assert certificate(code, status == "verified")["verified"] is False
    assert sampled_min_rank(code, 100_000, seed=1) >= 12
    _finish(5, t0, 60, "dimension 40, bound equality, 1e5 samples rank >= 12")


def test_criterion_6_extended_generator_contract():
    t0 = time.time()
    tower = build_tower(2, 1, (3,))
    gen, verified = build_extended_generator(tower, eta=4, r=1, d=2)
    assert verified  # both removal sub-contracts checked exhaustively
    for nu in (0, 1):
        sub = gen.removal_submatrix(nu)
        code = code_from_generator(tower, sub, 2 + nu)
        assert code.dimension == 3 * (3 - (2 + nu) + 1)
        assert min_rank_distance(code) == 2 + nu
    _finish(6, t0, 10, "removal distances exactly 2 and 3")


def test_criterion_7_combination():
    t0 = time.time()
    F1, F2 = FerrersDiagram((2, 3, 3)), FerrersDiagram((2,))
    c1 = construct_shortened(tower_for_shortened(2, 1, F1, 3), F1, 3)
    c2 = construct_shortened(tower_for_shortened(2, 1, F2, 1), F2, 1)
    comb = combine_codes(c1, c2, 3, 1)
    assert comb.diagram.gammas == (2, 3, 3, 5)
    assert comb.dimension == 2
    assert min_rank_distance(comb) == 4  # 3 nonzero codewords
    assert is_optimal(comb, 4)
    _finish(7, t0, 1, "optimal [[2,3,3,5],2,4]_2 reproduced")


def test_criterion_8_lifts():
    t0 = time.time()
    F1, F2 = FerrersDiagram((2, 3, 3)), FerrersDiagram((2,))
    c1 = construct_shortened(tower_for_shortened(2, 2, F1, 3), F1, 3)
    c2 = construct_shortened(tower_for_shortened(2, 2, F2, 1), F2, 1)
    comb = combine_codes(c1, c2, 3, 1)  # optimal [[2,3,3,5],2,4] over F_4
    lifted = lift_matrix_optimal(comb, 2)
    assert lifted.diagram.gammas == LIFT_TARGET_DIAGRAM.gammas
    assert lifted.dimension == 4 and lifted.claimed_delta == 8
    assert min_rank_distance(lifted) >= 8  # 15 nonzero codewords
    assert singleton_bound(lifted.diagram, 8)[0] == 4
    assert is_optimal(lifted, 8)

    # multiplication-matrix expansion at least doubles ranks (50 samples)
    F4, F2f = gf(2, 2), gf(2, 1)
    t4 = build_tower(2, 1, (2,))  # GF(2) < GF(4), power basis (1, alpha)
    rng = random.Random(7)
    for _ in range(50):
        s_, t_ = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randrange(4) for _ in range(t_)] for _ in range(s_)]
        rho = rank(F4, A)
        big = [[0] * (2 * t_) for _ in range(2 * s_)]
        for i in range(s_):
            for j in range(t_):
                blk = t4.pi_expand(A[i][j])
                for u in range(2):
                    for v in range(2):
                        big[2 * i + u][2 * j + v] = blk[u][v]
        assert rank(F2f, big) >= 2 * rho
    _finish(8, t0, 5, "optimal [[4,4,6,6,6,6,10,10],4,8]_2 + rank inequality")


def _dots_outside(diagram, rows_cut, cols_cut):
    return sum(
        1
        for i in range(diagram.m)
        for j in range(diagram.n)
        if diagram.dot(i, j) and i >= rows_cut and j < diagram.n - cols_cut
    )


def test_criterion_9_property_suites():
    t0 = time.time()
    # ordered-basis products: literal set membership on (t_0, t_1, ...) chains
    for chain in [(1, 2), (1, 2, 4), (1, 2, 6)]:
        tower = build_tower(2, 1, chain)
        t1 = tower.level_degree(1)
        ws = (
            [1]
            if tower.levels == 1
            else list(range(1, tower.level_degree(2) // t1 + 1))
        )
        for w in ws:
            allowed = set(tower.betas[: w * t1])
            for i in range(1, t1 + 1):
                for j in range(1, w * t1 + 1):
                    prod = tower.field.mul(tower.beta(i), tower.beta(j))
                    coords = tower.beta_coords(prod)
                    assert not any(coords[w * t1 :]), (chain, w, i, j)
                    assert prod in allowed, (chain, w, i, j)
            for theta in range(1, tower.levels):
                deg = tower.level_degree(theta + 1)
                for i in range(1, deg + 1):
                    for j in range(1, w * t1 + 1):
                        prod = tower.field.mul(tower.beta(i), tower.beta(j))
                        assert tower.frobenius(prod, deg) == prod

    # coordinate/matrix representation laws, exhaustive on F_8 and F_9
    for p, chain in [(2, (3,)), (3, (2,))]:
        tower = build_tower(p, 1, chain)
        f, base, n = tower.field, tower.base, tower.top_degree
        for a in f.elements():
            va = tuple(r[0] for r in tower.psi((a,)))
            assert tower.psi_inv([(x,) for x in va]) == (a,)
            for b in f.elements():
                vsum = tuple(r[0] for r in tower.psi((f.add(a, b),)))
                vb = tuple(r[0] for r in tower.psi((b,)))
                assert vsum == tuple(base.add(x, y) for x, y in zip(va, vb))
                pa, pb = tower.pi_expand(a), tower.pi_expand(b)
                psum = tower.pi_expand(f.add(a, b))
                pprod = tower.pi_expand(f.mul(a, b))
                for i in range(n):
                    for j in range(n):
                        assert psum[i][j] == base.add(pa[i][j], pb[i][j])
                        acc = 0
                        for k in range(n):
                            acc = base.add(acc, base.mul(pa[i][k], pb[k][j]))
                        assert pprod[i][j] == acc

    # bound formula against the dot-grid brute force on 500 random diagrams
    rng = random.Random(99)
    for _ in range(500):
        nn = rng.randint(1, 6)
        gam, cur = [], rng.randint(1, 2)
        for _ in range(nn):
            gam.append(cur)
            cur = min(8, cur + rng.randint(0, 2))
        d = FerrersDiagram(tuple(gam))
        delta = rng.randint(1, d.n)
        _, v = singleton_bound(d, delta)
        for i in range(delta):
            assert v[i] == _dots_outside(d, i, delta - 1 - i)
    _finish(9, t0, 60, "basis products, psi/pi laws, 500 bound cross-checks")
