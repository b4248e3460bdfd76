"""Construction family tests.

Brute-force oracles: codeword enumeration by explicit message products,
rank additivity over block arrangements, and the kernel-witness MRD test
as an independent route against exhaustive enumeration.
"""

import functools
import hashlib
import json
import random

import pytest

import fdrm.constructions
from fdrm.codes import (
    CodeError,
    FdrmCode,
    canonical_basis,
    certificate,
    certify,
    distance_at_least,
    is_optimal,
    min_rank_distance,
    mrd_check,
    verify_support,
)
from fdrm.cli import main
from fdrm.constructions import (
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
    moore_matrix,
    restricted_gabidulin,
    systematic_mrd_with_first_column,
    tower_for_prescribed,
    tower_for_shortened,
)
from fdrm.fields import build_tower, gf
from fdrm.ferrers import FerrersDiagram, full_diagram, singleton_bound
from fdrm.linalg import rank, systematic_form

F2 = gf(2, 1)


# -- Gabidulin generators --


def test_gabidulin_single_row_when_delta_is_n():
    t = build_tower(2, 1, (3,))
    G = gabidulin_generator(t, t.betas, 3)
    assert G == (t.betas,)


def test_gabidulin_moore_structure():
    t = build_tower(2, 1, (4,))
    g = t.betas[:3]
    G = gabidulin_generator(t, g, 2)
    assert len(G) == 2
    for i, row in enumerate(G):
        assert row == tuple(t.frobenius(x, i) for x in g)


def test_gabidulin_is_mrd():
    t = build_tower(2, 1, (3,))
    G = gabidulin_generator(t, t.betas, 2)
    assert mrd_check(t, G, 2)


def test_gabidulin_rejects_bad_inputs():
    t = build_tower(2, 1, (3,))
    with pytest.raises(ConstructionError):
        gabidulin_generator(t, (1, 1, t.beta(2)), 2)  # dependent
    with pytest.raises(ConstructionError):
        gabidulin_generator(t, t.betas, 1)  # delta out of range
    with pytest.raises(ConstructionError):
        gabidulin_generator(t, t.betas + (0,), 2)  # too many points


def test_restricted_gabidulin():
    t = build_tower(2, 1, (2, 4))
    G = restricted_gabidulin(t, 3, 2)
    assert G[0] == t.betas[:3]
    assert mrd_check(t, G, 2)  # exhaustive over 2^8 codewords
    with pytest.raises(ConstructionError):
        restricted_gabidulin(t, 2, 2)  # n must exceed t_{l-1}
    t1 = build_tower(2, 1, (3,))
    G = restricted_gabidulin(t1, 3, 2)
    assert G[0] == t1.betas


def mrd_witness_check(tower, matrix, delta):
    """Exact MRD test by enumerating kernel-space witnesses.

    The code of a full-rank k x n generator has a nonzero codeword of rank
    below n - k + 1 iff G W is singular for some full-column-rank W over
    F_q; this enumerates one W per column space, with the witness table of
    the prescribed-column search.
    """
    k, n = len(matrix), len(matrix[0])
    if delta != n - k + 1:
        return False
    cols = tuple(zip(*matrix))
    return all(
        fdrm.constructions._gw_invertible(tower, cols, w)
        for group in fdrm.constructions._witnesses(tower, n, k)
        for w in group
    )


@pytest.mark.parametrize(
    "p, s, chain", [(2, 1, (4,)), (3, 1, (3,)), (2, 2, (3,))],
    ids=["q2-t4", "q3-t3", "q4-t3"],
)
def test_witness_check_agrees_with_enumeration(p, s, chain):
    # independent exact routes to the same MRD verdict; at q = 4 the
    # witnesses' entries go through a non-trivial base embedding
    rng = random.Random(12)
    t = build_tower(p, s, chain)
    t_l = t.top_degree
    for _ in range(20):
        k = rng.randint(1, t_l - 1)
        n = rng.randint(k + 1, t_l)
        G = tuple(
            tuple(int(i == j) for j in range(k))
            + tuple(rng.randrange(t.field.order) for _ in range(n - k))
            for i in range(k)
        )
        assert mrd_witness_check(t, G, n - k + 1) == mrd_check(t, G, n - k + 1)


@pytest.mark.parametrize(
    "p, s, n, k",
    [(2, 1, 5, 2), (2, 1, 4, 1), (3, 1, 4, 1), (2, 1, 6, 3), (2, 2, 3, 2), (3, 1, 4, 3)],
)
def test_witnesses_are_one_per_subspace(p, s, n, k):
    t = build_tower(p, s, (n,))
    groups = fdrm.constructions._witnesses(t, n, k)
    assert sum(map(len, groups)) == fdrm.codes._gaussian_binomial(n, k, t.base.order)
    embedded = {t.base_embed(v) for v in range(t.base.order)} - {0}
    for c, group in enumerate(groups):
        for w in group:
            assert len(w) == k and max(j for row in w for j, _ in row) == c
            assert all(v in embedded for row in w for _, v in row)


def mat_mul(field, A, B):
    """Plain product A B of row arrays over `field` (test reference)."""
    return tuple(
        tuple(functools.reduce(field.add, map(field.mul, r, c), 0) for c in zip(*B))
        for r in A
    )


def isometry_matrix(tower, k, n, rng):
    """The n x n matrix over the top field whose right product
    `_free_column_isometry` applies: identity on columns 0..k, free column
    c = sum_{j <= k} S[j][c] e_j + sum_u T[u][c] e_u, with T invertible over
    F_q, drawn from `rng` in the same order."""
    base, free = tower.base, range(k + 1, n)
    while True:
        T = [[rng.randrange(base.order) for _ in free] for _ in free]
        if not T or rank(base, T) == len(T):
            break
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for t, c in enumerate(free):
        for j in range(k + 1):
            rows[j][c] = rng.randrange(base.order)
        for u, r in enumerate(free):
            rows[r][c] = T[u][t]
    return [[tower.base_embed(v) for v in row] for row in rows]


@pytest.mark.parametrize("p, t_l", [(2, 3), (2, 4), (3, 3)])
def test_free_column_isometry_is_the_right_product(p, t_l):
    tower = build_tower(p, 1, (t_l,))
    for seed in range(10):
        rng = random.Random(100 + seed)
        for k in range(1, t_l):
            cols = [tuple(rng.randrange(tower.field.order) for _ in range(k))
                    for _ in range(t_l)]
            got = fdrm.constructions._free_column_isometry(tower, cols, random.Random(seed))
            P = isometry_matrix(tower, k, t_l, random.Random(seed))
            assert got == mat_mul(tower.field, tuple(zip(*cols)), P), (seed, k)


# -- prescribed first column --


def test_prescribed_column_delta2_forced():
    t = build_tower(2, 1, (3,))
    a = (t.beta(2), t.beta(3))
    gen = systematic_mrd_with_first_column(t, a, 2, 3)
    assert tuple(zip(*gen.matrix))[2] == a
    assert mrd_check(t, gen.matrix, 2)


def test_prescribed_column_power_points():
    t = build_tower(2, 1, (3,))
    beta = t.beta(2)
    a = (t.field.mul(beta, beta), beta)
    gen = systematic_mrd_with_first_column(t, a, 2, 3)
    assert mrd_check(t, gen.matrix, 2)


def test_prescribed_column_search_cost_independent_of_seed():
    t = build_tower(2, 1, (5,))
    beta = t.beta(2)
    a = (t.field.mul(beta, beta), beta)
    gens = [systematic_mrd_with_first_column(t, a, 4, 5, seed=s) for s in range(6)]
    # One search for every seed; the seed only picks the isometric copy.
    assert len({g.provenance["attempts"] for g in gens}) == 1
    assert len({g.matrix for g in gens}) > 1
    for g in gens:
        assert tuple(zip(*g.matrix))[:3] == ((1, 0), (0, 1), a)
        assert mrd_check(t, g.matrix, 4)


@pytest.mark.parametrize(
    "p, gammas, delta, attempts",
    [(2, (2, 3, 4, 4), 4, 4), (2, (2, 2, 4, 5, 5), 4, 620), (3, (2, 3, 4, 4), 4, 4)],
    ids=["2344-q2", "22455-q2", "2344-q3"],
)
def test_prescribed_search_attempts_are_pinned(monkeypatch, p, gammas, delta, attempts):
    # The benchmark's prescribed-column instances: the search draws its
    # columns in one fixed order, so it samples a fixed number of them.
    found = []
    search = fdrm.constructions.systematic_mrd_with_first_column
    monkeypatch.setattr(fdrm.constructions, "systematic_mrd_with_first_column",
                        lambda *args, **kw: found.append(search(*args, **kw)) or found[-1])
    diagram = FerrersDiagram(gammas)
    construct_prescribed_column(tower_for_prescribed(p, 1, diagram, delta), diagram, delta)
    assert [g.provenance["attempts"] for g in found] == [attempts]


def test_prescribed_column_dependence_rejected():
    t = build_tower(2, 1, (3,))
    with pytest.raises(ConstructionError):
        systematic_mrd_with_first_column(t, (1, t.beta(2)), 2, 4)


# -- shortening --


def test_shortened_2_3_3():
    F = FerrersDiagram((2, 3, 3))
    t = tower_for_shortened(2, 1, F, 2)
    code = construct_shortened(t, F, 2)
    assert code.dimension == 5
    assert min_rank_distance(code) == 2  # 31 nonzero codewords
    assert is_optimal(code, 2)


def test_shortened_full_diagram_is_mrd():
    for n, delta in [(3, 2), (4, 3)]:
        F = full_diagram(n, n)
        t = tower_for_shortened(2, 1, F, delta)
        code = construct_shortened(t, F, delta)
        assert code.dimension == n * (n - delta + 1)
        assert min_rank_distance(code) == delta


def test_shortened_precondition():
    F = FerrersDiagram((2, 2, 3))
    t = build_tower(2, 1, (3,))
    with pytest.raises(ConstructionError):
        construct_shortened(t, F, 3)  # gamma_1 = 2 < 3


def test_shortened_delta1_full_support():
    F = FerrersDiagram((2,))
    t = tower_for_shortened(2, 1, F, 1)
    code = construct_shortened(t, F, 1)
    assert code.dimension == 2
    assert min_rank_distance(code) == 1


# -- prescribed-column construction (wire id "thm23") --


def test_prescribed_column_reference_diagrams():
    for gam, delta, dim in [((2, 3, 4, 4), 4, 2), ((2, 2, 4, 5, 5), 4, 4)]:
        F = FerrersDiagram(gam)
        t = tower_for_prescribed(2, 1, F, delta)
        code = construct_prescribed_column(t, F, delta)
        assert code.dimension == dim
        assert is_optimal(code, delta)


def test_prescribed_column_delegates_to_shortening():
    F = FerrersDiagram((2, 4, 4, 4))
    t = tower_for_prescribed(2, 1, F, 3)
    code = construct_prescribed_column(t, F, 3)
    assert code.provenance.get("route") == "shortened"
    assert is_optimal(code, 3)


@pytest.fixture
def built_codes(monkeypatch):
    """Every FdrmCode built from here on, apart from those built inside
    mrd_check, which are the parent checks, not an output."""
    built, inside = [], [0]
    post, check = FdrmCode.__post_init__, fdrm.constructions.mrd_check

    def counting_post(self):
        if not inside[0]:
            built.append(self)
        post(self)

    def counting_check(*args, **kwargs):
        inside[0] += 1
        try:
            return check(*args, **kwargs)
        finally:
            inside[0] -= 1

    monkeypatch.setattr(FdrmCode, "__post_init__", counting_post)
    monkeypatch.setattr(fdrm.constructions, "mrd_check", counting_check)
    return built


@pytest.mark.parametrize(
    "build",
    [
        lambda: construct_shortened(build_tower(2, 1, (4,)), FerrersDiagram((2, 3, 4, 4)), 3),
        lambda: construct_prescribed_column(
            build_tower(2, 1, (4,)), FerrersDiagram((2, 3, 4, 4)), 3),
        lambda: construct_prescribed_column(
            build_tower(2, 1, (5,)), FerrersDiagram((2, 2, 4, 5, 5)), 4),
        lambda: construct_staircase(
            build_tower(2, 1, (3,)), FerrersDiagram((1, 3, 3, 4)), 3, r=1, w=1),
    ],
    ids=["shortened", "thm23-shortened", "thm23", "staircase-r1"],
)
def test_construction_builds_one_code(built_codes, build):
    build()
    assert len(built_codes) == 1


def test_certify_builds_no_code(built_codes):
    F = FerrersDiagram((2, 3, 4, 4))
    code = construct_shortened(build_tower(2, 1, (4,)), F, 3)
    built_codes.clear()
    assert certify(code)[1] == "verified"
    assert built_codes == []


@pytest.mark.parametrize(
    "command, codes",
    [(["verify", "c1"], 1),
     (["combine", "c1", "c2", "--m3", "3", "--n3", "1"], 3),
     (["lift", "c1", "--mode", "matrix"], 2)],
    ids=["verify", "combine", "lift-matrix"],
)
def test_cli_command_validates_each_code_once(tmp_path, built_codes, command, codes):
    # One code per certificate read and one per output; certify builds none.
    path = {name: str(tmp_path / f"{name}.json") for name in ("c1", "c2", "out")}
    for name, diagram, delta in (("c1", "[2,3,3]", "3"), ("c2", "[2]", "1")):
        assert main(["construct", "--construction", "shortened", "-F", diagram,
                     "-d", delta, "-q", "4", "--json", path[name]]) == 0
    built_codes.clear()
    assert main([path.get(a, a) for a in command] + ["--json", path["out"]]) == 0
    assert len(built_codes) == codes


def test_prescribed_column_condition_errors():
    t = build_tower(2, 1, (5,))
    with pytest.raises(ConstructionError):
        # m = 4 < n = 5 (also fails condition (1))
        construct_prescribed_column(build_tower(2, 1, (5,)),
                                    FerrersDiagram((2, 2, 2, 4, 4)), 4)
    with pytest.raises(ConstructionError, match="condition \\(1\\)"):
        construct_prescribed_column(t, FerrersDiagram((2, 2, 2, 5, 5)), 4)
    with pytest.raises(ConstructionError, match="condition \\(2\\)"):
        construct_prescribed_column(t, FerrersDiagram((1, 2, 3, 4, 5)), 4)


def test_prescribed_column_at_q3():
    F = FerrersDiagram((2, 3, 4, 4))
    t = tower_for_prescribed(3, 1, F, 4)
    code = construct_prescribed_column(t, F, 4)
    assert code.dimension == 2
    assert is_optimal(code, 4)


# -- extended staircase generator --


def _removal(rows, eta, r, nu):
    """Removal sub-matrix nu: drop the first nu rows, the leftmost nu
    columns and the rightmost r - nu columns."""
    return tuple(row[nu : eta - r + nu] for row in rows[nu:])


def test_extended_generator_r0_is_restricted_gabidulin():
    t = build_tower(2, 1, (3,))
    rows, verified = build_extended_generator(t, eta=3, r=0, d=2)
    assert rows == systematic_form(t.field, restricted_gabidulin(t, 3, 2))
    assert verified


def test_extended_generator_criterion_case():
    t = build_tower(2, 1, (3,))
    rows, verified = build_extended_generator(t, eta=4, r=1, d=2)
    assert verified
    assert rows[0][3] == 0
    for nu in (0, 1):
        assert mrd_check(t, _removal(rows, 4, 1, nu), 2 + nu)


def _assert_column_levels(t, rows, eta):
    """Each column j >= kappa lies in the first level x with j < t_x, or in
    the top level past t_l; returns the number of entries checked."""
    checked = 0
    for j in range(len(rows), eta):
        x = next((x for x in range(1, t.levels + 1) if j < t.level_degree(x)), t.levels)
        for row in rows:
            assert t.in_level(row[j], x), (j, x)
            checked += 1
    return checked


def test_extended_generator_two_level():
    t = build_tower(2, 1, (2, 6))
    rows, verified = build_extended_generator(t, eta=5, r=1, d=3)
    assert verified
    assert _assert_column_levels(t, rows, 5) == 6
    for nu in (0, 1):
        assert mrd_check(t, _removal(rows, 5, 1, nu), 3 + nu)


def test_extended_generator_three_level_columns():
    # kappa = 2 = t_1, so columns 2 and 3 must lie in F_16 and columns 4
    # and 5 in F_256; three entries of columns 2 and 3 really need F_16.
    t = build_tower(2, 1, (2, 4, 8))
    rows, verified = build_extended_generator(t, eta=6, r=1, d=4)
    assert verified
    assert _assert_column_levels(t, rows, 6) == 8
    assert all(not t.in_level(rows[i][j], 1) for i, j in ((0, 3), (1, 2), (1, 3)))
    for nu in (0, 1):
        assert mrd_check(t, _removal(rows, 6, 1, nu), 4 + nu)


def test_extended_generator_preconditions():
    t = build_tower(2, 1, (3,))
    with pytest.raises(ConstructionError):
        build_extended_generator(t, eta=4, r=2, d=2)  # r >= kappa
    with pytest.raises(ConstructionError):
        build_extended_generator(t, eta=9, r=0, d=2)  # eta - r > t_l


@pytest.mark.parametrize(
    "chain, eta, r, d",
    [((4,), 6, 2, 2), ((3,), 4, 1, 2), ((4,), 5, 1, 2), ((5,), 6, 1, 3),
     ((3,), 5, 2, 1), ((2, 6), 5, 1, 3), ((4, 8), 7, 2, 3)],
    ids=["t4-eta6-r2-d2", "t3-eta4-r1-d2", "t4-eta5-r1-d2", "t5-eta6-r1-d3",
         "t3-eta5-r2-d1", "t2.6-eta5-r1-d3", "t4.8-eta7-r2-d3"],
)
def test_staircase_zero_pattern(chain, eta, r, d):
    t = build_tower(2, 1, chain)
    rows, verified = build_extended_generator(t, eta=eta, r=r, d=d)
    assert verified
    assert len(rows) == eta - r - d + 1 and all(len(row) == eta for row in rows)
    for i in range(r):
        for j in range(eta - r + i, eta):
            assert rows[i][j] == 0
    for nu in range(r + 1):
        assert mrd_check(t, _removal(rows, eta, r, nu), d + nu)


def test_systematic_generator_requires_the_identity_block():
    t = build_tower(2, 1, (4,))
    rows, _ = build_extended_generator(t, eta=6, r=2, d=2)
    SystematicGenerator(matrix=rows, provenance={})
    flipped = ((0,) + rows[0][1:],) + rows[1:]
    with pytest.raises(ConstructionError, match="left block is not the identity"):
        SystematicGenerator(matrix=flipped, provenance={})


@pytest.mark.parametrize("eta, r", [(3, 0), (4, 1)])
@pytest.mark.parametrize(
    "fault, message",
    [(lambda S: ((S[0][0], 1) + S[0][2:],) + S[1:], "left block is not the identity"),
     (lambda S: tuple(row + (0,) for row in S), "staircase width mismatch")],
    ids=["left-block", "width"],
)
def test_extended_generator_checks_the_rows_it_assembles(monkeypatch, eta, r, fault, message):
    # Corrupt only the level-0 systematic form, from which the rows are assembled.
    calls = []

    def corrupted(field, G):
        calls.append(G)
        S = systematic_form(field, G)
        return fault(S) if len(calls) == 1 else S

    monkeypatch.setattr(fdrm.constructions, "systematic_form", corrupted)
    with pytest.raises(ConstructionError, match=message):
        build_extended_generator(build_tower(2, 1, (3,)), eta=eta, r=r, d=2)


def test_staircase_checks_the_generator_row_count(monkeypatch):
    t = build_tower(2, 1, (2, 6))
    rows, _ = build_extended_generator(t, eta=4, r=0, d=3)
    monkeypatch.setattr(fdrm.constructions, "build_extended_generator",
                        lambda *args, **kw: (rows[:-1], True))
    with pytest.raises(CodeError, match="row count mismatch"):
        construct_staircase(t, FerrersDiagram((4, 4, 6, 6)), delta=3, r=0, w=2)


def _column_level_reference(tower, j):
    """The level rule as first written, with its two special cases."""
    if tower.levels == 1:
        return 1
    if j >= tower.level_degree(tower.levels - 1):
        return tower.levels
    for x in range(1, tower.levels + 1):
        if j < tower.level_degree(x):
            return x
    return tower.levels


@pytest.mark.parametrize(
    "p, s, chain",
    [(2, 1, (3,)), (2, 2, (2,)), (2, 1, (1, 2)), (2, 1, (2, 6)), (2, 2, (2, 4)),
     (3, 1, (2, 6)), (2, 1, (1, 2, 4)), (2, 1, (2, 4, 8)), (2, 1, (2, 4, 12))],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_column_level_matches_the_reference(p, s, chain):
    t = build_tower(p, s, chain)
    for j in range(t.top_degree + 3):
        assert fdrm.constructions._column_level(t, j) == _column_level_reference(t, j)


# -- staircase construction --


def test_staircase_two_level_instance():
    t = build_tower(2, 1, (2, 6))
    F = FerrersDiagram((4, 4, 6, 6))
    code = construct_staircase(t, F, delta=3, r=0, w=2)
    assert code.dimension == 8
    assert verify_support(code)
    assert min_rank_distance(code) >= 3  # 255 nonzero codewords
    assert is_optimal(code, 3)


def test_staircase_11x10_bound():
    # the full 11x10 exhaustive run lives in the acceptance suite
    F = FerrersDiagram((1, 2, 4, 4, 8, 8, 8, 8, 9, 11))
    assert singleton_bound(F, 8)[0] == 7


def test_staircase_condition_errors_by_number():
    t = build_tower(2, 1, (2, 6))
    with pytest.raises(ConstructionError, match="condition \\(1\\)"):
        construct_staircase(t, FerrersDiagram((6, 6, 6, 6)), 3, 0, 2)
    with pytest.raises(ConstructionError, match="condition \\(2\\)"):
        construct_staircase(t, FerrersDiagram((1, 2, 6, 6)), 4, 0, 2)
    with pytest.raises(ConstructionError, match="condition \\(3\\)"):
        construct_staircase(t, FerrersDiagram((4, 4, 4, 6)), 3, 0, 2)
    t48 = build_tower(2, 1, (4, 8))
    with pytest.raises(ConstructionError, match="condition \\(4\\)"):
        construct_staircase(
            t48, FerrersDiagram((1, 2, 4, 4, 8, 8, 8, 8, 8, 11)), 8, 2, 1
        )


def test_staircase_delta1_trivial():
    t = build_tower(2, 1, (2,))
    F = FerrersDiagram((1, 2))
    code = construct_staircase(t, F, delta=1, r=0, w=1)
    assert code.dimension == F.dots
    assert min_rank_distance(code) == 1


def column_valid_lengths(code):
    """Per column, the 1-based index of the lowest nonzero row over the basis."""
    m, n = code.ambient
    return [
        max((i + 1 for b in code.basis for i in range(m) if b[i * n + j]), default=0)
        for j in range(n)
    ]


def test_staircase_valid_length_claims():
    # per-column valid lengths stay within the bounds the argument assigns
    t = build_tower(2, 1, (2, 6))
    F = FerrersDiagram((4, 4, 6, 6))
    code = construct_staircase(t, F, delta=3, r=0, w=2)
    n, k, r, w = 4, 2, 0, 2
    t1, tl = 2, 6
    vls = column_valid_lengths(code)
    for i in range(k):
        assert vls[i] <= F.gammas[i]
    # column k = t_1 with two levels: bounded by t_2
    assert vls[k] <= 6
    for j in range(k + 1, n - r):
        assert vls[j] <= tl


def test_staircase_valid_length_claims_with_r():
    t = build_tower(2, 1, (3,))
    # n=4, delta=3, r=1, k=2: condition (4) needs gamma_3 >= t_l + gamma_0
    F = FerrersDiagram((1, 3, 3, 4))
    code = construct_staircase(t, F, delta=3, r=1, w=1)
    assert code.dimension == 4
    assert is_optimal(code, 3)
    vls = column_valid_lengths(code)
    assert vls[3] <= 3 + 1  # t_l + gamma_0


def test_shortened_at_q3():
    F = FerrersDiagram((2, 3, 3))
    t = tower_for_shortened(3, 1, F, 2)
    code = construct_shortened(t, F, 2)
    assert code.dimension == 5
    assert min_rank_distance(code) == 2  # 3^5 - 1 codewords, generic path
    assert is_optimal(code, 2)


def test_staircase_at_q3_with_extension():
    # odd characteristic exercises true subtraction in the derived points
    t = build_tower(3, 1, (3,))
    F = FerrersDiagram((1, 3, 3, 4))
    code = construct_staircase(t, F, delta=3, r=1, w=1)
    assert code.dimension == 4
    assert verify_support(code)
    assert min_rank_distance(code) >= 3  # 80 nonzero codewords over GF(3)
    assert is_optimal(code, 3)


@pytest.mark.parametrize(
    "p,s,gammas,r,dimension",
    [(3, 2, (1, 3, 3, 4), 1, 4), (2, 2, (1, 1, 1, 4, 5), 2, 3)],
    ids=["q9-r1", "q4-r2"],
)
def test_staircase_over_composite_base_field(p, s, gammas, r, dimension):
    # Each extension point must be independent over F_q = GF(p^s), not
    # merely over GF(p), or a removal sub-contract loses its MRD distance.
    t = build_tower(p, s, (3,))
    code = construct_staircase(t, FerrersDiagram(gammas), delta=3, r=r, w=1)
    assert code.dimension == dimension
    assert singleton_bound(code.diagram, 3)[0] == dimension
    assert certify(code)[1] == "verified"
    assert is_optimal(code, 3)


def test_staircase_three_level_tower():
    # GF(2) < GF(2) < GF(4) < GF(16): conditions (3) bind at both thetas
    t = build_tower(2, 1, (1, 2, 4))
    F = FerrersDiagram((2, 2, 4))
    code = construct_staircase(t, F, delta=3, r=0, w=2)
    assert code.dimension == 2
    assert verify_support(code)
    assert min_rank_distance(code) >= 3
    assert is_optimal(code, 3)
    with pytest.raises(ConstructionError, match="condition \\(3\\)"):
        construct_staircase(t, FerrersDiagram((2, 2, 3)), 3, 0, 2)


def test_cor28_matches_staircase_and_validates():
    t = build_tower(2, 1, (2, 6))
    F = FerrersDiagram((4, 4, 6, 6))
    a = construct_staircase(t, F, 3, 0, 2)
    b = construct_staircase_l2(t, F, 3, 0, 2)
    assert a.basis == b.basis
    assert b.provenance["s"] == 3
    with pytest.raises(ConstructionError):
        construct_staircase_l2(build_tower(2, 1, (6,)), F, 3, 0, 2)


# -- combination --


def test_combine_reference_case():
    F1, F2 = FerrersDiagram((2, 3, 3)), FerrersDiagram((2,))
    c1 = construct_shortened(tower_for_shortened(2, 1, F1, 3), F1, 3)
    c2 = construct_shortened(tower_for_shortened(2, 1, F2, 1), F2, 1)
    comb = combine_codes(c1, c2, 3, 1)
    assert comb.diagram.gammas == (2, 3, 3, 5)
    assert comb.dimension == 2
    assert min_rank_distance(comb) == 4  # 3 nonzero codewords
    assert is_optimal(comb, 4)


def test_combine_with_rank1_blocks():
    # second code spanned by full-rank 1x1 blocks: distances add by one
    from fdrm.codes import FdrmCode

    c1 = construct_shortened(
        tower_for_shortened(2, 1, FerrersDiagram((2, 2)), 2),
        FerrersDiagram((2, 2)), 2,
    )
    ones = full_support_code(F2, FerrersDiagram((1,)))
    c2 = FdrmCode(F2, FerrersDiagram((1,)), ones.basis[:1], 1, {})
    sub1 = FdrmCode(F2, c1.diagram, c1.basis[:1], c1.claimed_delta, {})
    comb = combine_codes(sub1, c2, 2, 1)
    assert min_rank_distance(comb) >= 3  # delta_1 + 1


def test_combine_random_small_codes():
    from fdrm.codes import FdrmCode

    rng = random.Random(8)
    diag1, diag2 = FerrersDiagram((2, 2)), FerrersDiagram((1, 2))
    c1 = construct_shortened(tower_for_shortened(2, 1, diag1, 2), diag1, 2)
    c2full = construct_shortened(tower_for_shortened(2, 1, diag2, 1), diag2, 1)
    for _ in range(5):
        idx = sorted(rng.sample(range(c2full.dimension), c1.dimension))
        c2 = FdrmCode(
            c2full.field, c2full.diagram,
            tuple(c2full.basis[i] for i in idx), 1, {},
        )
        comb = combine_codes(c1, c2, m3=c1.diagram.m, n3=c2.diagram.n)
        # c1's canonical rows top-left, c2's bottom-right, zero elsewhere
        (m1, n1), (m2, n2), (m, n) = c1.ambient, c2.ambient, comb.ambient
        for x, y, z in zip(canonical_basis(c1), canonical_basis(c2), comb.basis):
            want = [[0] * n for _ in range(m)]
            for i in range(m1):
                want[i][:n1] = x[i * n1 : (i + 1) * n1]
            for i in range(m2):
                want[m - m2 + i][n - n2 :] = y[i * n2 : (i + 1) * n2]
            assert z == tuple(e for row in want for e in row)
        # brute force over all codewords: ranks add across the blocks
        assert min_rank_distance(comb) >= 3


def test_combine_dimension_mismatch():
    F1 = FerrersDiagram((2, 3, 3))
    c1 = construct_shortened(tower_for_shortened(2, 1, F1, 3), F1, 3)
    c3 = construct_shortened(tower_for_shortened(2, 1, F1, 2), F1, 2)
    with pytest.raises(ConstructionError):
        combine_codes(c1, c3, 3, 3)


# -- lifts --


def reference_combined_code_over_f4():
    F1, F2 = FerrersDiagram((2, 3, 3)), FerrersDiagram((2,))
    c1 = construct_shortened(tower_for_shortened(2, 2, F1, 3), F1, 3)
    c2 = construct_shortened(tower_for_shortened(2, 2, F2, 1), F2, 1)
    return combine_codes(c1, c2, 3, 1)


# SHA-256 of the certificate bytes of each lift of the shortened [[1,3,3],
# ., 2] code over GF(p^s), as `fdrm` writes them: a change to a lift's
# coordinates, block layout or basis order shows here.
LIFT_PINS = [  # (p, s, m, lift_vector sha256, lift_matrix sha256)
    (2, 4, 2, "ab3a65df6179ef89806a6b4e029a578b1fce33fe3b85d0099ccbb723da0dd9fb",
     "8936dffa723bdfeb665d7b58ae8f1a6b56235c835710b64d9de602f8cfa3196f"),
    (2, 4, 4, "4199874ff302a73485d151147005fdc8860427bdfd70e9f3b1fbf22a3a19aa48",
     "ca175755880b71172505265a60de31d83d0ea13c4da33c7ae5938ada2af2d16e"),
    (3, 2, 2, "28375da79bcae0aef15534708138eced1a9e606c7cd322b04da89a6ed7f1ec6a",
     "4c7fe81790853a516834413ce015539044ac3c654293f5438f53cf3aa94073eb"),
    (2, 6, 2, "96da0782f78603e87a5c87bc16adf1875252af917c29afb6e3c6bd1d8ec4384d",
     "dc8761d9cfb513fc2942ef2ce14acd1d8dd346a202c11ae23d490b1b0a59cde2"),
]


@pytest.mark.parametrize("p,s,m,vector_sha,matrix_sha", LIFT_PINS,
                         ids=[f"GF{p}^{s}-m{m}" for p, s, m, *_ in LIFT_PINS])
def test_lift_certificates_are_pinned(p, s, m, vector_sha, matrix_sha):
    F = FerrersDiagram((1, 3, 3))
    code = construct_shortened(tower_for_shortened(p, s, F, 2), F, 2)
    for lift, sha in ((lift_vector, vector_sha), (lift_matrix, matrix_sha)):
        blob = json.dumps(certificate(lift(code, m), False), sort_keys=True,
                          separators=(",", ":")) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == sha, lift.__name__


def test_lift_vector_identity_when_m_is_1():
    F = FerrersDiagram((2, 2))
    code = construct_shortened(tower_for_shortened(2, 1, F, 2), F, 2)
    assert lift_vector(code, 1) is code


def test_lift_vector_f4_code():
    code = reference_combined_code_over_f4()
    lifted = lift_vector(code, 2)
    assert lifted.diagram.gammas == (4, 6, 6, 10)
    assert lifted.dimension == 2 * code.dimension
    assert lifted.claimed_delta == 4
    assert verify_support(lifted)
    assert min_rank_distance(lifted) >= 4


def test_lift_vector_dimension_multiplies():
    rng = random.Random(19)
    F4 = gf(2, 2)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        d = full_diagram(m, n)
        from fdrm.codes import FdrmCode
        while True:
            rows_list = [
                [[rng.randrange(4) for _ in range(n)] for _ in range(m)]
                for _ in range(rng.randint(1, 2))
            ]
            try:
                code = FdrmCode(F4, d, tuple(
                    tuple(e for row in rows for e in row) for rows in rows_list), 1, {})
                break
            except CodeError:
                continue
        lifted = lift_vector(code, 2)
        assert lifted.dimension == 2 * code.dimension  # rank re-checked on build


def test_lift_matrix_reference_case():
    code = reference_combined_code_over_f4()
    lifted = lift_matrix_optimal(code, 2)
    assert lifted.diagram.gammas == (4, 4, 6, 6, 6, 6, 10, 10)
    assert lifted.dimension == 4
    assert lifted.claimed_delta == 8
    assert min_rank_distance(lifted) >= 8  # 15 nonzero codewords
    assert is_optimal(lifted, 8)
    assert singleton_bound(lifted.diagram, 8)[0] == 4


def test_lift_matrix_scalar_code():
    from fdrm.codes import FdrmCode
    F4 = gf(2, 2)
    code = FdrmCode(
        F4, full_diagram(1, 1),
        ((1,),), 1, {},
    )
    lifted = lift_matrix(code, 2)
    assert lifted.claimed_delta == 2
    assert min_rank_distance(lifted) == 2  # multiplication matrices invert


def test_lift_matrix_rank_inequality():
    # blocks of multiplication matrices at least double the rank
    rng = random.Random(7)
    F4 = gf(2, 2)
    t4 = build_tower(2, 1, (2,))  # GF(2) < GF(4), power basis (1, alpha)
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
        assert rank(F2, big) >= 2 * rho


def test_lift_matrix_optimal_rejects_bad_inputs():
    from fdrm.codes import FdrmCode

    code = reference_combined_code_over_f4()
    with pytest.raises(ConstructionError):
        # distance 1 on a two-column diagram: delta != n
        lift_matrix_optimal(full_support_code(gf(2, 2), FerrersDiagram((2, 2))))
    sub = FdrmCode(code.field, code.diagram, code.basis[:1], code.claimed_delta, {})
    with pytest.raises(ConstructionError):
        lift_matrix_optimal(sub)  # dimension != gamma_0
