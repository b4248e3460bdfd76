"""Field kernel and tower tests.

Expected values are frozen from independent hand computation: the F_4
multiplication table, the F_8 companion matrix, and coordinate solves done
with a plain textbook elimination written here, not the library's cached
inverse.
"""

import hashlib
import itertools
import random

import pytest

from fdrm.fields import (
    FieldError,
    _canonical_root,
    build_tower,
    gf,
    smallest_primitive_modulus,
)


def solve_coords_oracle(field, basis_elems, target, p):
    """Textbook Gauss solve of sum c_i b_i = target over GF(p), c_i in GF(p)."""
    n = field.degree
    cols = [list(field.coeffs(b)) for b in basis_elems]
    rhs = list(field.coeffs(target))
    aug = [[cols[j][i] for j in range(len(basis_elems))] + [rhs[i]] for i in range(n)]
    sol = [0] * len(basis_elems)
    r = 0
    piv_of_col = {}
    for c in range(len(basis_elems)):
        sel = next((i for i in range(r, n) if aug[i][c] % p), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        piv_of_col[c] = r
        r += 1
    for c, rr in piv_of_col.items():
        sol[c] = aug[rr][-1]
    for i in range(n):  # consistency of the solve
        acc = 0
        for j in range(len(basis_elems)):
            acc = field.add(acc, field.mul(sol[j], basis_elems[j]))
    return tuple(sol)


# -- canonical moduli (hand-checked) --


def test_canonical_moduli():
    assert smallest_primitive_modulus(2, 2) == (1, 1, 1)
    assert smallest_primitive_modulus(2, 3) == (1, 0, 1, 1)
    assert smallest_primitive_modulus(3, 2) == (2, 1, 1)
    assert smallest_primitive_modulus(2, 1) == (1, 1)


# Recorded from the unfiltered search that tried every candidate in order
# (minutes for the odd-p fields), as exponent -> coefficient.
PINNED_MODULI = {
    (2, 16): {0: 1, 11: 1, 13: 1, 14: 1, 16: 1},
    (2, 20): {0: 1, 17: 1, 20: 1},
    (2, 24): {0: 1, 20: 1, 21: 1, 23: 1, 24: 1},
    (3, 12): {0: 2, 8: 1, 9: 1, 10: 1, 11: 2, 12: 1},
    (5, 8): {0: 2, 6: 2, 7: 1, 8: 1},
}


@pytest.mark.parametrize("p,n", sorted(PINNED_MODULI))
def test_large_canonical_moduli_pinned(p, n):
    want = [0] * (n + 1)
    for e, c in PINNED_MODULI[(p, n)].items():
        want[e] = c
    assert smallest_primitive_modulus(p, n) == tuple(want)


# SHA-256 of ",".join(str(alpha^i) for i in 0..order-2), recorded from tables
# built by one general polynomial product per element: a faster build must
# not change which int denotes which element.
PINNED_EXP_TABLES = {
    (2, 16): "f45493c36149d3416a0835a1f527777b811d48723cd1ab69e5463d8f326f1bc2",
    (2, 18): "8f4bda0c44d4a019ab632d3347b693b4058d5a6d23407c11502e380a1dbce9c2",
    (3, 6): "b8682bc3393d07b29bd47bf4b973274bb56d9fe0606f5e1b0cb3b6a277b956b8",
    (5, 3): "eb03311b8c7ae464e0e4b2a4877bc89be4cc386490bd7d83118527b0d8ba8266",
}


@pytest.mark.parametrize("p,n", sorted(PINNED_EXP_TABLES))
def test_exp_tables_pinned(p, n):
    F = gf(p, n)
    text = ",".join(str(F.alpha_pow(i)) for i in range(F.order - 1))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_EXP_TABLES[(p, n)]


# -- plain references for the search and the tables, on every small field --


def _mulmod(a, b, mod, p):
    """Schoolbook product of coefficient lists (low first) modulo monic `mod`."""
    n = len(mod) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for d in range(2 * n - 2, n - 1, -1):
        c = prod[d] % p
        if c:
            for i in range(n + 1):
                prod[d - n + i] -= c * mod[i]
    return [c % p for c in prod[:n]]


def _x_class(mod, p):
    n = len(mod) - 1
    return [(-mod[0]) % p] if n == 1 else [0, 1] + [0] * (n - 2)


def _reference_modulus(p, n):
    """Try every monic degree-n candidate in lexicographic order."""
    order = p**n - 1
    primes = [r for r in range(2, order + 1) if order % r == 0
              and all(r % d for d in range(2, r))]
    one = [1] + [0] * (n - 1)

    def power(a, e, mod):
        out = one
        for bit in bin(e)[2:]:
            out = _mulmod(out, out, mod, p)
            if bit == "1":
                out = _mulmod(out, a, mod, p)
        return out

    for coeffs in itertools.product(range(p), repeat=n):
        mod = list(coeffs) + [1]
        x = _x_class(mod, p)
        if power(x, order, mod) == one and all(
            power(x, order // r, mod) != one for r in primes
        ):
            return tuple(mod)
    raise AssertionError(f"no primitive polynomial of degree {n} over GF({p})")


SMALL_FIELDS = [
    (p, n)
    for p in range(2, 3001)
    if all(p % d for d in range(2, p))
    for n in range(1, 12)
    if p**n <= 3000
]


def test_filtered_search_matches_every_candidate_search():
    for p, n in SMALL_FIELDS:
        assert smallest_primitive_modulus(p, n) == _reference_modulus(p, n), (p, n)


def test_stepped_tables_match_repeated_multiplication():
    for p, n in SMALL_FIELDS:
        F = gf(p, n)
        mod = list(F.modulus)
        x = _x_class(mod, p)
        cur = [1] + [0] * (n - 1)
        exp = []
        for _ in range(F.order - 1):
            v = 0
            for c in reversed(cur):
                v = v * p + c
            exp.append(v)
            cur = _mulmod(cur, x, mod, p)
        assert cur == [1] + [0] * (n - 1), (p, n)
        assert F._exp == exp, (p, n)
        assert [F._log[v] for v in exp] == list(range(F.order - 1)), (p, n)


def test_f4_arithmetic_table():
    F4 = gf(2, 2)
    w = F4.alpha
    assert F4.mul(w, w) == F4.add(w, 1)  # w^2 = w + 1
    assert F4.mul(w, F4.add(w, 1)) == 1  # w * w^2 = w^3 = 1
    assert F4.inv(w) == F4.add(w, 1)


def test_f9_is_a_field():
    F9 = gf(3, 2)
    for a in range(9):
        for b in range(9):
            assert F9.add(a, b) == F9.add(b, a)
            assert F9.mul(a, b) == F9.mul(b, a)
            for c in range(9):
                lhs = F9.mul(a, F9.add(b, c))
                rhs = F9.add(F9.mul(a, b), F9.mul(a, c))
                assert lhs == rhs
    for a in range(1, 9):
        assert F9.mul(a, F9.inv(a)) == 1


# -- tower construction --


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (2, 21)])
def test_inv_and_pow_reject_non_elements(p, n):
    # (2, 21) is past the log/antilog tables, so the polynomial path runs.
    f = gf(p, n)
    for bad in (-1, f.order, 1.0):
        with pytest.raises(FieldError):
            f.inv(bad)
        with pytest.raises(FieldError):
            f.pow_(bad, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    a = f.order - 1
    assert f.mul(a, f.inv(a)) == 1
    assert f.pow_(a, 2) == f.mul(a, a)


def test_build_tower_basic():
    t = build_tower(2, 1, (2,))
    assert t.betas[0] == 1
    assert len(t.betas) == 2


def test_build_tower_two_levels():
    t = build_tower(2, 1, (2, 4))
    b = t.betas
    a21 = t.alphas[1][1]
    assert b[2] == t.field.mul(b[0], a21)
    assert b[3] == t.field.mul(b[1], a21)


def test_build_tower_divisibility():
    build_tower(3, 1, (2, 6))
    with pytest.raises(FieldError):
        build_tower(3, 1, (2, 5))
    with pytest.raises(FieldError):
        build_tower(4, 1, (2,))  # 4 is not prime


def test_beta_recursion_exact():
    for chain in [(2, 4), (2, 6), (3, 6), (1, 2, 4)]:
        t = build_tower(2, 1, chain)
        ts = (1,) + chain
        for x in range(2, len(ts)):
            t_prev = ts[x - 1]
            s_x = ts[x] // t_prev
            for y in range(1, s_x):
                for z in range(1, t_prev + 1):
                    lhs = t.beta(y * t_prev + z)
                    rhs = t.field.mul(t.beta(z), t.alphas[x - 1][y])
                    assert lhs == rhs


def test_betas_independent():
    for p, s, chain in [(2, 1, (2, 4)), (2, 1, (2, 6)), (3, 1, (2, 6)), (2, 2, (3,))]:
        t = build_tower(p, s, chain)
        assert t.independent_over_level(t.betas, 0)


def test_alphas_fixed_by_level_frobenius():
    t = build_tower(2, 1, (2, 6))
    for x in range(1, t.levels + 1):
        for a in t.alphas[x - 1]:
            assert t.frobenius(a, t.level_degree(x)) == a


# -- frobenius --


def test_frobenius_identity_and_subfield():
    t = build_tower(2, 1, (3,))
    for a in range(8):
        assert t.frobenius(a, 0) == a
    for a in (0, 1):  # F_2 inside F_8
        for i in range(5):
            assert t.frobenius(a, i) == a


def test_frobenius_f4_omega():
    t = build_tower(2, 1, (2,))
    w = t.field.alpha
    assert t.frobenius(w, 1) == t.field.add(w, 1)  # w^2 = w + 1


def test_frobenius_homomorphism():
    t = build_tower(3, 1, (2,))
    for a in range(9):
        for b in range(9):
            assert t.frobenius(t.field.add(a, b), 1) == t.field.add(
                t.frobenius(a, 1), t.frobenius(b, 1)
            )
            assert t.frobenius(t.field.mul(a, b), 1) == t.field.mul(
                t.frobenius(a, 1), t.frobenius(b, 1)
            )


def test_frobenius_fixed_field_sizes():
    # frobenius(., t_x) fixes exactly q^{t_x} elements, q = 2, t_l <= 4
    t = build_tower(2, 1, (2, 4))
    for x, deg in [(0, 1), (1, 2), (2, 4)]:
        fixed = [a for a in t.field.elements() if t.frobenius(a, t.level_degree(x)) == a]
        assert len(fixed) == 2 ** t.level_degree(x)


# -- psi / psi_inv --


def test_psi_zero_and_basis_columns():
    t = build_tower(2, 1, (2, 4))
    n = 3
    rows = t.psi((0,) * n)
    assert all(all(e == 0 for e in r) for r in rows)
    for i, b in enumerate(t.betas):
        rows = t.psi((b,))
        col = [rows[r][0] for r in range(t.top_degree)]
        assert col == [1 if r == i else 0 for r in range(t.top_degree)]


def test_psi_linearity_against_solve_oracle():
    for p, chain in [(2, (2, 4)), (3, (2,))]:
        t = build_tower(p, 1, chain)
        rng = random.Random(11)
        for _ in range(40):
            a = rng.randrange(t.field.order)
            b = rng.randrange(t.field.order)
            for x in range(p):
                for y in range(p):
                    v = t.field.add(t.field.mul(x, a), t.field.mul(y, b))
                    got = tuple(rows[0] for rows in t.psi((v,)))
                    want = solve_coords_oracle(t.field, t.betas, v, p)
                    assert got == want


@pytest.mark.parametrize("p, s, chain", [(2, 1, (6, 18)), (3, 1, (2, 4)), (2, 2, (3,))])
def test_psi_rows_match_the_column_transpose(p, s, chain):
    # psi builds its rows from lists; the rows are the same tuples that
    # transposing the beta-coordinate columns one generator at a time gives.
    t = build_tower(p, s, chain)
    rng = random.Random(8)
    for n in (0, 1, 2, 5, 18):
        for _ in range(20):
            vec = [rng.randrange(t.field.order) for _ in range(n)]
            cols = [t.beta_coords(v) for v in vec]
            want = tuple(tuple(col[i] for col in cols) for i in range(t.top_degree))
            assert t.psi(vec) == want


def test_psi_inv_roundtrip():
    t = build_tower(2, 1, (4,))
    rng = random.Random(5)
    for _ in range(100):
        rows = [[rng.randrange(2) for _ in range(3)] for _ in range(4)]
        vec = t.psi_inv(rows)
        assert [list(r) for r in t.psi(vec)] == rows
    with pytest.raises(FieldError):
        t.psi_inv([[0, 0]] * 3)  # wrong row count


def test_psi_inv_unit_column():
    t = build_tower(2, 1, (3,))
    e0 = [[1], [0], [0]]
    assert t.psi_inv(e0) == (1,)


# -- pi (multiplication-matrix representation) --


def _mat_mul_gfp(base, A, B):
    n = len(A)
    return tuple(
        tuple(
            _sum_gfp(base, [base.mul(A[i][k], B[k][j]) for k in range(n)])
            for j in range(n)
        )
        for i in range(n)
    )


def _sum_gfp(base, xs):
    acc = 0
    for x in xs:
        acc = base.add(acc, x)
    return acc


def test_pi_zero_one_and_companion():
    t = build_tower(2, 1, (3,))
    n = 3
    assert t.pi_expand(0) == tuple((0,) * n for _ in range(n))
    assert t.pi_expand(1) == tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    # companion matrix of x^3 + x^2 + 1 in the layout with 1s below the diagonal
    assert t.pi_expand(t.field.alpha) == ((0, 0, 1), (1, 0, 0), (0, 1, 1))


def test_pi_alpha_squared():
    t = build_tower(2, 1, (3,))
    Pa = t.pi_expand(t.field.alpha)
    Pa2 = t.pi_expand(t.field.mul(t.field.alpha, t.field.alpha))
    assert Pa2 == _mat_mul_gfp(t.base, Pa, Pa)


def test_pi_on_a_two_level_tower_is_the_companion_matrix():
    # pi reads the power basis whatever the tower's betas are: on
    # GF(2) < GF(4) < GF(16), x^4 + x^3 + 1 gives alpha^4 = 1 + alpha^3.
    t = build_tower(2, 1, (2, 4))
    assert t.field.modulus == (1, 0, 0, 1, 1)
    assert t.betas != tuple(t.field.alpha_pow(j) for j in range(4))
    assert t.pi_expand(t.field.alpha) == (
        (0, 0, 0, 1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 1),
    )


@pytest.mark.parametrize("p,chain", [(2, (3,)), (3, (2,)), (2, (2, 4))])
def test_pi_homomorphism_exhaustive(p, chain):
    t = build_tower(p, 1, chain)
    n = t.top_degree
    base = t.base
    for a in t.field.elements():
        for b in t.field.elements():
            pa, pb = t.pi_expand(a), t.pi_expand(b)
            psum = t.pi_expand(t.field.add(a, b))
            assert psum == tuple(
                tuple(base.add(pa[i][j], pb[i][j]) for j in range(n)) for i in range(n)
            )
            assert t.pi_expand(t.field.mul(a, b)) == _mat_mul_gfp(base, pa, pb)


# -- independence --


def test_independent_over_subfield():
    t = build_tower(2, 1, (2, 4))
    assert t.independent_over_level(t.betas, 0)
    b = t.beta(2)
    assert not t.independent_over_level((1, b, t.field.add(b, 1)), 0)


def test_independent_powers():
    t = build_tower(2, 1, (5,))
    beta = t.beta(2)
    powers = [1] + [t.field.pow_(beta, i) for i in range(1, 4)]
    assert t.independent_over_level(powers, 0)
    # brute-force oracle: no nonzero GF(2)-combination vanishes
    for mask in range(1, 16):
        acc = 0
        for i in range(4):
            if mask >> i & 1:
                acc = t.field.add(acc, powers[i])
        assert acc != 0


def test_independent_over_intermediate_level():
    t = build_tower(2, 1, (2, 4))
    # beta_3 is independent of 1 over F_4, but (1, beta_2) is an F_4-basis times
    assert t.independent_over_level((1, t.beta(3)), 1)
    assert not t.independent_over_level((1, t.beta(2)), 1)  # beta_2 in F_4


# -- ordered-basis product structure --


def beta_product_profile(tower, w):
    """(span_ok, set_ok) for the products beta_i * beta_j, i <= t_1, j <= w*t_1."""
    t1 = tower.level_degree(1)
    wt1 = w * t1
    span_ok = True
    set_ok = True
    allowed = set(tower.betas[:wt1])
    for i in range(1, t1 + 1):
        for j in range(1, wt1 + 1):
            prod = tower.field.mul(tower.beta(i), tower.beta(j))
            coords = tower.beta_coords(prod)
            if any(coords[wt1:]):
                span_ok = False
            if prod not in allowed:
                set_ok = False
    return span_ok, set_ok


def admissible_ws(tower):
    if tower.levels == 1:
        return [1]
    return list(range(1, tower.level_degree(2) // tower.level_degree(1) + 1))


def test_beta_products_set_membership_on_unit_t1_chains():
    # chains listing (t_0, t_1, ...) = (1, 2), (1, 2, 4), (1, 2, 6)
    for chain in [(1, 2), (1, 2, 4), (1, 2, 6)]:
        t = build_tower(2, 1, chain)
        for w in admissible_ws(t):
            span_ok, set_ok = beta_product_profile(t, w)
            assert span_ok and set_ok, (chain, w)


def test_beta_products_span_membership_general():
    for chain in [(2, 4), (2, 6), (3, 6)]:
        t = build_tower(2, 1, chain)
        for w in admissible_ws(t):
            span_ok, _ = beta_product_profile(t, w)
            assert span_ok, (chain, w)


def test_beta_products_level_fixity():
    # products beta_i * beta_j stay inside F_{q^{t_{theta+1}}}
    for chain in [(1, 2, 4), (1, 2, 6), (2, 4), (2, 6)]:
        t = build_tower(2, 1, chain)
        t1 = t.level_degree(1)
        for w in admissible_ws(t):
            for theta in range(1, t.levels):
                deg = t.level_degree(theta + 1)
                for i in range(1, t.level_degree(theta + 1) + 1):
                    for j in range(1, w * t1 + 1):
                        prod = t.field.mul(t.beta(i), t.beta(j))
                        assert t.frobenius(prod, deg) == prod


# -- serialization and misc --


def test_tower_serialization_roundtrip():
    t = build_tower(2, 1, (5, 15))
    d = t.serialize()
    assert d == {
        "p": 2,
        "s": 1,
        "chain": [5, 15],
        "modulus": list(t.field.modulus),
    }


def test_subfield_map_power_basis():
    # GF(16) over GF(4) in the power basis (1, alpha): the one-level tower.
    F16 = gf(2, 4)
    t = build_tower(2, 2, (2,))
    assert t.field is F16 and t.betas == (1, F16.alpha)
    for a in F16.elements():
        coords = t.beta_coords(a)
        assert t.from_beta_coords(coords) == a


def test_fresh_tower_searches_its_canonical_root_once():
    # The tower's one coordinate map, psi, needs the canonical root of
    # GF(p^s) once; pi and the lifts read psi and search no other root.
    _canonical_root.cache_clear()
    build_tower.__wrapped__(2, 2, (3,))  # bypass the tower cache: a fresh s = 2 tower
    assert _canonical_root.cache_info().misses == 1


def test_degree_budget():
    with pytest.raises(FieldError):
        build_tower(2, 1, (5, 25))


def test_psi_over_composite_base_field():
    # tower with q = 4: coordinates come out in the canonical GF(4)
    t = build_tower(2, 2, (3,))  # F_4 < F_64
    F4 = gf(2, 2)
    rng = random.Random(13)
    for _ in range(50):
        v = tuple(rng.randrange(t.field.order) for _ in range(2))
        rows = t.psi(v)
        assert all(e in F4.elements() for r in rows for e in r)
        assert t.psi_inv(rows) == v
    # F_q-linearity: psi(c * v) = c * psi(v) with c acting in canonical GF(4)
    for c in range(4):
        ce = t.base_embed(c)
        for _ in range(20):
            v = rng.randrange(t.field.order)
            scaled = tuple(r[0] for r in t.psi((t.field.mul(ce, v),)))
            plain = tuple(r[0] for r in t.psi((v,)))
            assert scaled == tuple(F4.mul(c, x) for x in plain)


def test_base_embed_is_field_embedding():
    t = build_tower(2, 2, (3,))
    F4 = gf(2, 2)
    for a in range(4):
        for b in range(4):
            assert t.base_embed(F4.add(a, b)) == t.field.add(
                t.base_embed(a), t.base_embed(b)
            )
            assert t.base_embed(F4.mul(a, b)) == t.field.mul(
                t.base_embed(a), t.base_embed(b)
            )
