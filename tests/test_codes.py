"""Code model and verification engine tests.

The fast packed-GF(2) enumeration is cross-checked against a plain
message-by-message walk ranked by `linalg.rank` on the same inputs (two
independent routes to the minimum rank).
"""

import random

import pytest

from fdrm.codes import (
    MAX_AMBIENT,
    BudgetExceeded,
    CodeError,
    FdrmCode,
    canonical_basis,
    certificate,
    certify,
    check_ambient,
    code_from_certificate,
    code_from_generator,
    distance_at_least,
    generator_subcode,
    is_optimal,
    min_rank_distance,
    mrd_check,
    sampled_min_rank,
    verify_support,
)
from fdrm.constructions import full_support_code, moore_matrix
from fdrm.fields import FieldError, build_tower, gf
from fdrm.ferrers import DiagramError, FerrersDiagram, full_diagram, singleton_bound
from fdrm.linalg import rank, systematic_form

F2 = gf(2, 1)


def make_code(field, diagram, rows_list, delta=1):
    basis = tuple(tuple(e for row in rows for e in row) for rows in rows_list)
    return FdrmCode(
        field=field,
        diagram=diagram,
        basis=basis,
        claimed_delta=delta,
        provenance={"construction": "test"},
    )


def gabidulin_code(n, delta, q_chain=None):
    t = build_tower(2, 1, q_chain or (n,))
    from fdrm.codes import code_from_generator

    G = moore_matrix(t, t.betas[:n], n - delta + 1)
    return t, G, code_from_generator(t, G, delta)


# -- min rank distance --


def test_min_rank_single_matrix():
    d = full_diagram(3, 3)
    code = make_code(F2, d, [[[1, 0, 0], [0, 1, 0], [0, 0, 0]]])
    assert min_rank_distance(code) == 2  # scalar multiples share rank


def test_min_rank_gabidulin_3x3():
    _, _, code = gabidulin_code(3, 2)
    assert code.dimension == 6
    assert min_rank_distance(code) == 2  # exhaustive over 63 codewords


def test_min_rank_budget_and_zero_dim():
    _, _, code = gabidulin_code(3, 2)
    with pytest.raises(BudgetExceeded):
        min_rank_distance(code, budget=10)
    empty = FdrmCode(F2, full_diagram(2, 2), (), 1, {})
    with pytest.raises(CodeError):
        min_rank_distance(empty)


def test_fast_path_matches_generic_path():
    # packed span-table enumeration vs a plain walk with generic ranks
    from fdrm import codes as codes_mod

    rng = random.Random(41)
    for _ in range(10):
        m, n, k = rng.randint(2, 4), rng.randint(2, 4), rng.randint(1, 4)
        while True:
            rows_list = [
                [[rng.randrange(2) for _ in range(n)] for _ in range(m)]
                for _ in range(k)
            ]
            try:
                code = make_code(F2, full_diagram(m, n), rows_list)
                break
            except CodeError:
                continue
        fast = codes_mod._projective_min_rank(code, None)
        expanded = code.basis  # over GF(2) the basis is its own GF(p)-basis
        best = m + n
        msg = [0] * len(expanded)
        cur = [0] * (m * n)
        for _ in range(2 ** len(expanded) - 1):
            i = 0
            while True:
                msg[i] += 1
                cur = [a ^ b for a, b in zip(cur, expanded[i])]
                if msg[i] < 2:
                    break
                msg[i] = 0
                i += 1
            rows = [cur[r * n : (r + 1) * n] for r in range(m)]
            best = min(best, rank(F2, rows))
        assert fast == best


def test_sampled_min_rank_upper_bounds_true_min():
    _, _, code = gabidulin_code(4, 3)
    true_min = min_rank_distance(code)
    assert sampled_min_rank(code, 500, seed=3) >= true_min


def _gabidulin_over(p, s):
    """[3 x 3, 2]-Gabidulin expansion over GF(p^s): dimension 6, distance 2."""
    from fdrm.codes import code_from_generator

    t = build_tower(p, s, (3,))
    return code_from_generator(t, moore_matrix(t, t.betas[:3], 2), 2)


# One-sample probes for seeds 0..11, recorded before the generic sampler
# moved to flat rows: the same seed must keep drawing the same codeword.
SAMPLED_GENERIC = {
    (3, 1): [3, 2, 3, 2, 2, 3, 2, 3, 3, 3, 2, 2],
    (2, 2): [3, 2, 3, 3, 3, 3, 2, 3, 3, 3, 3, 3],
}


@pytest.mark.parametrize("p, s", sorted(SAMPLED_GENERIC), ids=["gf3", "gf4"])
def test_sampled_min_rank_generic_field(p, s):
    code = _gabidulin_over(p, s)
    assert (code.field.p, code.field.degree) == (p, s)  # not the packed GF(2) kernel
    true_min = min_rank_distance(code)
    probes = [sampled_min_rank(code, 1, seed=seed) for seed in range(12)]
    assert probes == SAMPLED_GENERIC[(p, s)]
    assert min(probes) >= true_min
    assert sampled_min_rank(code, 200, seed=7) == sampled_min_rank(code, 200, seed=7)
    assert sampled_min_rank(code, 200, seed=7) >= true_min


def test_sampled_min_rank_needs_a_sample():
    _, _, code = gabidulin_code(3, 2)
    for samples in (0, -1):
        with pytest.raises(CodeError):
            sampled_min_rank(code, samples)  # no codeword drawn, no rank to report


@pytest.mark.parametrize("delta", [0, -2, 4])
def test_claimed_delta_outside_rank_range_rejected(delta):
    # a 3x3 code's ranks lie in 1..3; certify used to call delta 0 and -2 verified
    with pytest.raises(CodeError):
        make_code(F2, full_diagram(3, 3), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]], delta)


# -- support --


def test_verify_support_trivial_cases():
    assert verify_support(FdrmCode(F2, full_diagram(2, 2), (), 1, {}))  # zero code
    _, _, code = gabidulin_code(3, 2)
    assert verify_support(code)  # full diagram


def test_verify_support_detects_exterior_dot():
    d = FerrersDiagram((1, 2))
    bad = make_code(F2, d, [[[1, 0], [1, 0]]])  # (1,0) is outside the diagram
    assert not verify_support(bad)


def test_basis_shape_mismatch_rejected_at_build():
    # a 2 x 2 matrix on a 2 x 3 diagram: the shape is checked when the code is built
    with pytest.raises(CodeError):
        make_code(F2, FerrersDiagram((1, 2, 2)), [[[0, 1], [0, 1]]])


@pytest.mark.parametrize(
    "p, s, row",
    [(2, 1, (0, 1, 1)), (2, 1, (0, 1, 0, 1, 1)), (2, 1, (0, 1, 0, 2)),
     (3, 1, (0, 3, 0, 1)), (2, 2, (0, 4, 0, 1)), (2, 1, (0, -1, 0, 1)),
     (2, 1, (0, 1.0, 0, 1))],
    ids=["mn-1", "mn+1", "gf2-entry-q", "gf3-entry-q", "gf4-entry-q",
         "entry-negative", "entry-float"],
)
def test_malformed_basis_row_rejected_at_build(p, s, row):
    with pytest.raises(CodeError):
        FdrmCode(gf(p, s), full_diagram(2, 2), (row,), 1, {})


def test_ambient_cap_is_1024_cells():
    assert MAX_AMBIENT == 1024
    for gammas in ((1024,), (32,) * 32, (1, 2, 256, 256)):
        assert check_ambient(FerrersDiagram(gammas)).gammas == gammas
    for gammas in ((1025,), (1,) * 1024 + (2,), (33,) * 32):
        with pytest.raises(DiagramError, match="exceeds 1024 cells"):
            check_ambient(FerrersDiagram(gammas))


# -- optimality and MRD --


def test_is_optimal_full_mrd():
    _, _, code = gabidulin_code(3, 2)
    assert is_optimal(code, 2)
    assert not is_optimal(code, 3)  # bound shrinks, distance fails


def test_mrd_check_gabidulin():
    for n, delta in [(3, 2), (4, 3)]:
        t, G, _ = gabidulin_code(n, delta)
        assert mrd_check(t, G, delta)


def test_mrd_check_rejects_dependent_points():
    t = build_tower(2, 1, (3,))
    G = moore_matrix(t, (1, 1, t.beta(2)), 2)  # repeated evaluation points
    assert not mrd_check(t, G, 2)


def test_mrd_check_requires_m_ge_n():
    t = build_tower(2, 1, (2,))
    G = ((1, 0, 0), (0, 1, 0))
    with pytest.raises(CodeError):
        mrd_check(t, G, 2)


def test_generator_input_is_checked():
    t = build_tower(2, 1, (3,))
    G = moore_matrix(t, t.betas, 2)
    for ragged in ((G[0], G[1][:2]), (G[0][:2], G[1])):
        with pytest.raises(CodeError):
            code_from_generator(t, ragged, 2)
        assert mrd_check(t, ragged, 2) is False  # malformed, so not MRD
    with pytest.raises(CodeError):
        mrd_check(t, (), 2)  # no rows, so no columns and no distance
    for bad in (t.field.order, -1, 1.0):
        with pytest.raises(FieldError):
            code_from_generator(t, (G[0], (G[1][0], bad, G[1][2])), 2)


# -- restriction: message coordinate i confined to the first gamma_i betas --


def test_restrict_subcode_full_profile_is_parent():
    t = build_tower(2, 1, (3,))
    G = moore_matrix(t, t.betas, 2)
    S = systematic_form(t.field, G)
    code = generator_subcode(t, S, FerrersDiagram((3, 3, 3)), 2, {})
    assert code.dimension == 6  # m*k
    assert code.diagram.gammas == (3, 3, 3)
    assert min_rank_distance(code) == 2


def test_restrict_subcode_profile_1_2():
    t = build_tower(2, 1, (3,))
    G = moore_matrix(t, t.betas, 2)
    S = systematic_form(t.field, G)
    code = generator_subcode(t, S, FerrersDiagram((1, 2, 3)), 2, {})
    assert code.dimension == 3
    assert code.diagram.gammas == (1, 2, 3)
    assert verify_support(code)
    assert min_rank_distance(code) >= 2  # exhaustive over 7 codewords
    # subcode optimality: dimension matches v_0 of the bound
    bound, v = singleton_bound(code.diagram, 2)
    assert code.dimension == bound == v[0]


def test_restrict_subcode_distance_never_below_parent():
    rng = random.Random(6)
    t = build_tower(2, 1, (4,))
    G = moore_matrix(t, t.betas, 2)
    S = systematic_form(t.field, G)
    for _ in range(10):
        lo = rng.randint(1, 4)
        hi = rng.randint(lo, 4)
        code = generator_subcode(t, S, FerrersDiagram((lo, hi, 4, 4)), 3, {})
        assert code.dimension == lo + hi
        assert min_rank_distance(code) >= 3  # parent delta = n - k + 1 = 3


# -- certification --


def test_certify_sets_verified():
    _, _, code = gabidulin_code(3, 2)
    code2, status = certify(code)
    assert status == "verified" and code2 is code
    assert certificate(code, status == "verified")["verified"] is True


def test_certify_budget_exceeded_is_unverified():
    _, _, code = gabidulin_code(3, 2)
    code2, status = certify(code, budget=8)
    assert status == "unverified-at-scale" and code2 is code
    assert certificate(code, status == "verified")["verified"] is False


def test_certify_full_support_code_past_the_budget_is_verified():
    # delta = 1 needs no walk: 2^9 codewords against a budget of 8.
    code = full_support_code(F2, full_diagram(3, 3))
    assert code.claimed_delta == 1 and code.dimension == 9
    assert certify(code, budget=8) == (code, "verified")
    empty = FdrmCode(F2, full_diagram(2, 2), (), 1, {})
    with pytest.raises(CodeError):
        certify(empty)
    with pytest.raises(BudgetExceeded):
        min_rank_distance(code, budget=8)


def test_certify_rejects_false_claims():
    d = full_diagram(2, 2)
    code = make_code(F2, d, [[[1, 0], [0, 0]]], delta=2)
    with pytest.raises(CodeError):
        certify(code)


def test_certificate_roundtrip():
    t, _, code = gabidulin_code(3, 2)
    code, status = certify(code)
    data = certificate(code, status == "verified", field_serial=t.serialize())
    back = code_from_certificate(data)
    assert back.dimension == code.dimension
    assert back.diagram.gammas == code.diagram.gammas
    assert back.basis == code.basis


def test_certificate_roundtrip_f4():
    t = build_tower(2, 2, (2,))  # F_4 < F_16
    G = moore_matrix(t, t.betas, 1)
    S = systematic_form(t.field, G)
    code = generator_subcode(t, S, FerrersDiagram((2, 2)), 2, {})
    data = certificate(code, False)
    back = code_from_certificate(data)
    assert back.basis == code.basis
    assert back.field.order == 4


def test_canonical_basis_is_deterministic():
    t, _, code = gabidulin_code(3, 2)
    c1 = canonical_basis(code)
    shuffled = FdrmCode(
        code.field, code.diagram, tuple(reversed(code.basis)),
        code.claimed_delta, code.provenance,
    )
    c2 = canonical_basis(shuffled)
    assert len(c1) == code.dimension
    assert c1 == c2


def column_valid_lengths(code):
    """Per column, the 1-based index of the lowest nonzero row over the basis."""
    m, n = code.ambient
    return [
        max((i + 1 for b in code.basis for i in range(m) if b[i * n + j]), default=0)
        for j in range(n)
    ]


def test_column_valid_lengths():
    code = full_support_code(F2, FerrersDiagram((1, 3)))
    assert column_valid_lengths(code) == [1, 3]


def test_basis_independence_enforced():
    d = full_diagram(2, 2)
    with pytest.raises(CodeError):
        make_code(F2, d, [[[1, 0], [0, 0]], [[1, 0], [0, 0]]])


def test_distance_at_least():
    _, _, code = gabidulin_code(3, 3)
    assert distance_at_least(code, 3)
    assert not distance_at_least(code, 4)


def test_mrd_check_budget():
    t = build_tower(2, 1, (4,))
    G = moore_matrix(t, t.betas, 2)
    with pytest.raises(BudgetExceeded):
        mrd_check(t, G, 3, budget=100)


def test_generic_path_handles_q3():
    t = build_tower(3, 1, (2,))
    G = moore_matrix(t, t.betas, 1)
    from fdrm.codes import code_from_generator

    code = code_from_generator(t, G, 2)  # 3^2 - 1 nonzero codewords
    assert code.dimension == 2
    assert min_rank_distance(code) == 2
    assert mrd_check(t, G, 2)


def test_sampled_min_rank_zero_dimension_rejected():
    code = make_code(F2, full_diagram(2, 2), [])
    with pytest.raises(CodeError):
        sampled_min_rank(code, 10)  # no nonzero codeword to draw
