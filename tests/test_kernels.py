"""The batch rank kernels and the probe samplers against independent references.

`_gf2.rank_batch` (packed GF(2), one (m, B) row layout) and
`codes._table_ranks` (field tables, an (m, n, B) batch) are checked against
`fields.eliminate` and `codes._flat_rank` on random and deliberately
rank-deficient batches.  The GF(2) coset walk `_gf2._coset_ranks`, whose
tables are all built by `_gf2._span_table`, is checked against the
Gray-code walk it replaced, kept here: the same blocks in the same order,
each holding the same ranks.  The samplers are checked against their earlier
loops, kept here as the reference: the byte-table GF(2) words must equal a
per-basis XOR of the same draws, and both samplers must rank the same
codewords in the same order across their chunk boundaries.  The generic
block walk `codes._coset_ranks` is checked against the odometer it
replaced, also kept here: one `_flat_rank` per member, message by message.
"""

import random

import numpy as np
import pytest

from fdrm import _gf2
from fdrm import codes
from fdrm.codes import FdrmCode, min_rank_distance, sampled_min_rank
from fdrm.fields import eliminate, gf
from fdrm.ferrers import full_diagram

F2 = gf(2, 1)


# -- packed GF(2) ranks --


def _unpack(v: int, ncols: int) -> list[int]:
    return [v >> j & 1 for j in range(ncols)]


def _packed_batch(rng, m: int, ncols: int) -> list[list[int]]:
    """Random packed m-row matrices: dense, zero, repeated rows and low rank."""
    def word():
        return rng.getrandbits(ncols)

    mats = [[word() for _ in range(m)] for _ in range(20)]
    mats.append([0] * m)
    for _ in range(20):
        rows = [word() for _ in range(m)]
        rows[rng.randrange(m)] = rows[rng.randrange(m)]  # a forced duplicate
        mats.append(rows)
    for _ in range(20):
        pool = [word() for _ in range(rng.randrange(1, 3))]
        rows = []
        for _ in range(m):
            v = 0
            for x in pool:
                if rng.randrange(2):
                    v ^= x
            rows.append(v)
        mats.append(rows)
    return mats


@pytest.mark.parametrize("ncols", [1, 8, 9, 16, 17, 32, 33, 64])
def test_rank_batch_matches_eliminate(ncols):
    rng = random.Random(ncols)
    for m in (1, 2, 5, 9):
        mats = _packed_batch(rng, m, ncols)
        rows = np.array(mats, dtype=_gf2._dtype_for(ncols)).T.copy()  # (m, B)
        got = _gf2.rank_batch(rows).tolist()
        want = [len(eliminate([_unpack(v, ncols) for v in mat], F2)) for mat in mats]
        assert got == want
        assert 0 in want  # the all-zero matrix is in every batch


# -- packed GF(2) span tables and the exhaustive coset walk --


def _gray_coset_ranks(basis_rows, ncols: int, offset):
    """The coset walk before span tables: a low Gray-code table from float
    log2 flip indices and an XOR accumulate, XORed with high-digit bases
    built one set bit at a time."""
    K = len(basis_rows)
    m = len(offset)
    dtype = _gf2._dtype_for(ncols)
    basis = np.array(basis_rows, dtype=dtype).reshape(K, m)
    low_bits = min(K, 18)
    n_low = 1 << low_bits
    t = np.arange(1, n_low, dtype=np.int64)
    flips = np.log2((t & -t).astype(np.float64)).astype(np.int64)
    steps = basis[flips]
    np.bitwise_xor.accumulate(steps, axis=0, out=steps)
    low_table = np.zeros((m, n_low), dtype=dtype)
    low_table[:, 1:] = steps.T
    for outer in range(1 << (K - low_bits)):
        base = np.array(offset, dtype=dtype)
        o, j = outer, 0
        while o:
            if o & 1:
                base ^= basis[low_bits + j]
            o >>= 1
            j += 1
        yield _gf2.rank_batch(low_table ^ base[:, None])


def _gray_min_rank(basis_rows, ncols: int, floor, offset) -> int:
    best = len(offset) + 1
    for ranks in _gray_coset_ranks(basis_rows, ncols, offset):
        best = min(best, int(ranks.min()))
        if floor is not None and best < floor:
            break
    return best


def _random_coset(rng, K: int, m: int, ncols: int, zero_offset: bool):
    basis = [tuple(rng.getrandbits(ncols) for _ in range(m)) for _ in range(K)]
    offset = (0,) * m if zero_offset else tuple(rng.getrandbits(ncols) for _ in range(m))
    return basis, offset


@pytest.mark.parametrize("ncols", [1, 8, 9, 16, 17, 33, 64])
@pytest.mark.parametrize("K", [0, 1, 7, 8, 17, 18, 19, 20])
def test_coset_walk_matches_gray_walk(K, ncols):
    rng = random.Random(100 * K + ncols)
    m = 3
    for zero_offset in (True, False):
        basis, offset = _random_coset(rng, K, m, ncols, zero_offset)
        got = list(_gf2._coset_ranks(basis, ncols, offset))
        want = list(_gray_coset_ranks(basis, ncols, offset))
        assert len(got) == len(want) == 1 << max(0, K - 18)
        for g, w in zip(got, want):
            assert np.array_equal(np.sort(g), np.sort(w))
        for floor in (None, 1, 2, m):
            assert _gf2.min_rank_exhaustive(
                basis, ncols, floor, offset=offset
            ) == _gray_min_rank(basis, ncols, floor, offset)
        want_hist = np.bincount(np.concatenate(want), minlength=m + 1).tolist()
        assert _gf2.rank_histogram(basis, ncols, offset=offset) == want_hist


@pytest.mark.parametrize("K", [0, 1, 5, 8])
def test_span_table_columns_are_xors_of_rows(K):
    rng = random.Random(K)
    m, ncols = 4, 37
    rows = np.array(
        [[rng.getrandbits(ncols) for _ in range(m)] for _ in range(K)],
        dtype=_gf2._dtype_for(ncols),
    ).reshape(K, m)
    table = _gf2._span_table(rows)
    assert table.shape == (m, 1 << K) and table.dtype == rows.dtype
    for v in range(1 << K):
        want = np.zeros(m, dtype=rows.dtype)
        for i in range(K):
            if v >> i & 1:
                want ^= rows[i]
        assert np.array_equal(table[:, v], want), v


def test_dtype_for_is_the_narrowest_unsigned_type():
    widths = ((8, np.uint8), (16, np.uint16), (32, np.uint32), (64, np.uint64))
    for n in range(65):
        want = next(t for w, t in widths if n <= w)
        assert np.dtype(_gf2._dtype_for(n)) == np.dtype(want), n
    with pytest.raises(ValueError):
        _gf2._dtype_for(65)


# -- the table kernel over other fields --


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (3, 5), (2, 8)]


def _field_batch(rng, f, m: int, n: int) -> list[list[int]]:
    """Random flat m x n matrices over f, of every rank 0..min(m, n)."""
    mats = []
    for _ in range(100):
        pool = [[rng.randrange(f.order) for _ in range(n)]
                for _ in range(rng.randrange(min(m, n) + 1))]
        flat = []
        for _ in range(m):
            row = [0] * n
            for vec in pool:
                c = rng.randrange(f.order)
                row = [f.add(a, f.mul(c, b)) for a, b in zip(row, vec)]
            flat.extend(row)
        mats.append(flat)
    return mats


@pytest.mark.parametrize("p, s", FIELDS, ids=[f"gf{p}^{s}" for p, s in FIELDS])
def test_table_ranks_match_flat_rank(p, s):
    f = gf(p, s)
    tables = codes._rank_tables(f)
    rng = random.Random(p * 100 + s)
    for m, n in ((4, 4), (3, 6), (6, 3), (1, 5), (5, 1)):
        mats = _field_batch(rng, f, m, n)
        words = np.array(mats, dtype=np.uint8).T.reshape(m, n, len(mats)).copy()
        got = codes._table_ranks(words, *tables).tolist()
        want = [codes._flat_rank(f, n, flat) for flat in mats]
        assert got == want
        assert set(want) == set(range(min(m, n) + 1))


@pytest.mark.parametrize("p, s", [(2, 1), (2, 2), (3, 2), (2, 8)])
def test_rank_tables_are_the_field(p, s):
    f = gf(p, s)
    mul, sub, inv = codes._rank_tables(f)
    els = range(f.order)
    assert mul.tolist() == [[f.mul(a, b) for b in els] for a in els]
    assert sub.tolist() == [[f.sub(a, b) for b in els] for a in els]
    assert inv.tolist() == [0] + [f.inv(a) for a in els if a]


# -- the generic coset walk against the odometer it replaced --


def _odometer_ranks(field, n: int, offset: list, span: list):
    """The rank of every member of `offset` + GF(p)-span(`span`), one
    `_flat_rank` per member; the message digits advance as an odometer, so
    each step adds one basis matrix."""
    add = field.add
    p = field.p
    K = len(span)
    msg = [0] * K
    cur = offset
    for _ in range(p**K):
        yield codes._flat_rank(field, n, cur)
        for i in range(K):
            cur = [add(a, b) for a, b in zip(cur, span[i])]
            msg[i] += 1
            if msg[i] < p:
                break
            msg[i] = 0


def _odometer_walk(field, n: int, basis: list, e: int) -> list[int]:
    """Ranks of the cosets basis[j] + span(basis[j+e:]), j = 0, e, 2e, ..."""
    return [r for j in range(0, len(basis), e)
            for r in _odometer_ranks(field, n, basis[j], basis[j + e :])]


def _rank_one(rng, f, m: int, n: int) -> tuple[int, ...]:
    """A flat m x n matrix u v^T over f, of rank at most 1, so that sums of a
    few of them take every rank."""
    u = [rng.randrange(f.order) for _ in range(m)]
    v = [rng.randrange(f.order) for _ in range(n)]
    return tuple(f.mul(a, b) for a in u for b in v)


def _low_digits(p: int) -> int:
    """L, the most span rows whose p^L combinations fill one 1024-word block
    (each case below keeps m*n*s <= 64, so the digit cap does not bind)."""
    low = 0
    while p ** (low + 1) <= 1024:
        low += 1
    return low


# (p, s, m, n): GF(3), GF(4), GF(5), GF(7), GF(8), GF(9), GF(243), GF(512), and
# GF(31), whose digit sums overflow uint8 unless each is reduced mod p
WALK_FIELDS = [(3, 1, 2, 3), (2, 2, 2, 3), (5, 1, 2, 2), (7, 1, 3, 2), (2, 3, 2, 2),
               (3, 2, 3, 2), (3, 5, 2, 3), (2, 9, 3, 2), (31, 1, 2, 2)]


@pytest.mark.parametrize("shift", [None, -1, 0, 1], ids=["empty", "below", "at", "above"])
@pytest.mark.parametrize("p, s, m, n", WALK_FIELDS, ids=[f"gf{p**s}" for p, s, *_ in WALK_FIELDS])
def test_coset_walk_matches_odometer(p, s, m, n, shift):
    """basis = [offset] + K span rows with e = 1: the cosets have K, K-1,
    ..., 0 span rows, K = 0 (an empty span) or L - 1, L, L + 1."""
    f = gf(p, s)
    low = _low_digits(p)
    K = 0 if shift is None else low + shift
    assert m * n * s <= 64 and codes._block_words(f, m, n) == 1024
    rng = random.Random(1000 * p + 10 * s + K)
    basis = [_rank_one(rng, f, m, n) for _ in range(K + 1)]
    basis[0] = tuple(f.add(a, b) for a, b in zip(basis[0], _rank_one(rng, f, m, n)))
    blocks = list(codes._coset_ranks(f, m, n, basis, 1))
    got = np.concatenate(blocks).tolist()
    want = _odometer_walk(f, n, basis, 1)
    assert sorted(got) == sorted(want)
    assert min(got) == min(want)
    assert max(map(len, blocks)) == p ** min(K, low)  # blocks reach the table's width


# (p, s, m, n, k): the first coset's span of (k - 1) s rows reaches past one
# block, bar GF(243) and GF(512), whose codes stay small for the odometer
WALK_CODES = [(3, 1, 3, 3, 8), (2, 2, 3, 3, 7), (5, 1, 2, 3, 6), (7, 1, 2, 3, 5),
              (2, 3, 2, 3, 5), (3, 2, 2, 3, 5), (3, 5, 2, 3, 2), (2, 9, 3, 2, 2)]


@pytest.mark.parametrize("p, s, m, n, k", WALK_CODES, ids=[f"gf{p**s}" for p, s, *_ in WALK_CODES])
def test_min_rank_histogram_and_floor_match_odometer(p, s, m, n, k):
    f = gf(p, s)
    rng = random.Random(p * s + k)
    while True:
        basis = tuple(_rank_one(rng, f, m, n) for _ in range(k))
        try:
            code = FdrmCode(f, full_diagram(m, n), basis, 1, {"construction": "test"})
            break
        except codes.CodeError:
            continue  # dependent basis
    packed, expanded = codes._kernel_basis(f, n, code.basis)
    assert not packed
    ref = _odometer_walk(f, n, expanded, s)
    assert codes._projective_min_rank(code, None) == min(ref)
    for floor in (min(ref), min(ref) + 1):
        got = codes._projective_min_rank(code, floor)
        assert (got >= floor) == (min(ref) >= floor)
        assert got >= min(ref)  # an early exit still reports a true rank
    hist = [(f.order - 1) * ref.count(r) for r in range(min(m, n) + 1)]
    hist[0] += 1
    assert codes._rank_histogram(f, m, n, code.basis) == hist


def test_floor_stops_the_walk_after_the_first_low_block(monkeypatch):
    """Every nonzero 3 x 3 matrix has rank below 4, so with floor 4 the
    projective walk must stop after its first block."""
    code = _random_code(gf(3, 1), 3, 3, 8, seed=5)
    walk, seen = codes._coset_ranks, []

    def counted(*args):
        for ranks in walk(*args):
            seen.append(len(ranks))
            yield ranks

    monkeypatch.setattr(codes, "_coset_ranks", counted)
    codes._projective_min_rank(code, None)
    blocks = len(seen)
    seen.clear()
    assert codes._projective_min_rank(code, 4) < 4
    assert len(seen) == 1 < blocks


# -- the samplers against their earlier loops --


def _rank_batch_rows(a: np.ndarray) -> np.ndarray:
    """Ranks of a (B, m) packed batch, column sweep by column sweep: the
    layout `rank_batch` had before it took (m, B)."""
    b, m = a.shape
    rank = np.zeros(b, dtype=np.uint8)
    for i in range(m):
        r = a[:, i]
        rank += r != 0
        if i + 1 < m:
            low = r & (~r + np.asarray(1, dtype=a.dtype))
            rest = a[:, i + 1 :]
            hit = (rest & low[:, None]) != 0
            rest ^= np.where(hit, r[:, None], np.asarray(0, dtype=a.dtype))
    return rank


def _xor_words(basis_rows, ncols: int, samples: int, seed: int):
    """The GF(2) sampler's (b, m) words, one np.where per basis matrix."""
    K = len(basis_rows)
    m = len(basis_rows[0])
    dtype = _gf2._dtype_for(ncols)
    basis = np.array(basis_rows, dtype=dtype)
    rng = np.random.default_rng(seed)
    zero = np.asarray(0, dtype=dtype)
    done = 0
    while done < samples:
        b = min(1 << 14, samples - done)
        sel = rng.integers(0, 2, size=(b, K), dtype=np.uint8)
        sel[sel.sum(axis=1) == 0, 0] = 1  # nonzero message guarantee
        words = np.zeros((b, m), dtype=dtype)
        for i in range(K):
            words ^= np.where(sel[:, i : i + 1].astype(bool), basis[i][None, :], zero)
        yield words
        done += b


def _loop_ranks(field, n: int, basis: list, samples: int, seed: int) -> list[int]:
    """The generic sampler one codeword at a time: digits from
    random.Random(seed), redrawn while all zero, and `_flat_rank`."""
    p = field.p
    add = field.add
    multiples = [
        [None] + [[field.mul(d, x) for x in b] for d in range(1, p)] for b in basis
    ]
    rng = random.Random(seed)
    K = len(basis)
    out = []
    for _ in range(samples):
        while True:
            digits = [rng.randrange(p) for _ in range(K)]
            if any(digits):
                break
        cur = [0] * len(basis[0])
        for d, mult in zip(digits, multiples):
            if d:
                cur = [add(a, b) for a, b in zip(cur, mult[d])]
        out.append(codes._flat_rank(field, n, cur))
    return out


@pytest.mark.parametrize("K", [1, 7, 8, 9, 40, 64])
def test_byte_table_words_equal_per_basis_xor(K):
    rng = random.Random(K)
    m, ncols = 5, 13
    basis = [tuple(rng.getrandbits(ncols) for _ in range(m)) for _ in range(K)]
    # 4000 draws, so the zero fix-up runs at K = 9 too (six messages)
    got = np.concatenate(list(_gf2._sampled_words(basis, ncols, 4000, seed=K)), axis=1)
    want = np.concatenate(list(_xor_words(basis, ncols, 4000, seed=K)))
    assert got.flags["C_CONTIGUOUS"] and got.shape == (m, 4000)
    assert np.array_equal(got, want.T)


def _random_code(field, m: int, n: int, k: int, seed: int) -> FdrmCode:
    rng = random.Random(seed)
    basis = tuple(tuple(rng.randrange(field.order) for _ in range(m * n)) for _ in range(k))
    return FdrmCode(field, full_diagram(m, n), basis, 1, {"construction": "test"})


# Probes of two random GF(2) codes, recorded before the byte tables and the
# (m, B) layout: (m, n, k, code seed) -> one-sample probes for seeds 0..11,
# then 200-sample probes for seeds 0..11.  K = 13 and 21 are not multiples
# of 8, so the last byte group is partial; n = 7 packs into uint8, n = 10
# into uint16.
SAMPLED_GF2 = {
    (6, 7, 13, 1): ([6, 6, 5, 6, 6, 6, 5, 6, 6, 6, 5, 6],
                    [4, 3, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4]),
    (13, 10, 21, 2): ([10, 10, 10, 10, 10, 10, 10, 10, 9, 10, 10, 10],
                      [9, 9, 8, 9, 8, 8, 9, 9, 8, 9, 9, 8]),
}


@pytest.mark.parametrize("shape", sorted(SAMPLED_GF2), ids=["uint8", "uint16"])
def test_sampled_min_rank_gf2_pinned(shape):
    m, n, k, seed = shape
    code = _random_code(F2, m, n, k, seed)
    assert codes._kernel_basis(F2, n, code.basis)[0]  # the packed kernel
    one, many = SAMPLED_GF2[shape]
    assert [sampled_min_rank(code, 1, seed=s) for s in range(12)] == one
    assert [sampled_min_rank(code, 200, seed=s) for s in range(12)] == many


@pytest.mark.parametrize("samples", [1024, 1025, 16385])
def test_gf2_sampler_across_chunks(samples):
    code = _random_code(F2, 13, 10, 21, seed=2)
    packed, basis = codes._kernel_basis(F2, 10, code.basis)
    assert packed
    got = np.concatenate(
        [_gf2.rank_batch(w) for w in _gf2._sampled_words(basis, 10, samples, 5)]
    )
    want = np.concatenate(
        [_rank_batch_rows(w) for w in _xor_words(basis, 10, samples, 5)]
    )
    assert got.tolist() == want.tolist()
    assert sampled_min_rank(code, samples, seed=5) == int(want.min())


# 12 x 12 over GF(3) holds 144 digits a draw, so its chunks are 455 draws.
GENERIC_CHUNKS = [(3, 1, 3, 3, c) for c in (1024, 1025, 16385)] + [
    (2, 2, 2, 3, 1025), (2, 9, 2, 2, 1025), (3, 1, 12, 12, 911)]


@pytest.mark.parametrize("p, s, m, n, samples", GENERIC_CHUNKS,
                         ids=[f"gf{p**s}-{c}" for p, s, _, _, c in GENERIC_CHUNKS])
def test_generic_sampler_across_chunks(p, s, m, n, samples):
    f = gf(p, s)
    code = _random_code(f, m, n, 3, seed=p + s)
    packed, basis = codes._kernel_basis(f, n, code.basis)
    assert not packed
    got = np.concatenate(list(codes._sampled_ranks(f, m, n, basis, samples, 9)))
    want = _loop_ranks(f, n, basis, samples, 9)
    assert got.tolist() == want
    assert sampled_min_rank(code, samples, seed=9) == min(want)


# -- edge paths against the exact minimum --


def test_probe_of_a_64_column_code():
    """uint64 rows, bit 63 set in every pool vector."""
    rng = random.Random(64)
    pool = [rng.getrandbits(63) | 1 << 63 for _ in range(3)]
    basis = []
    for _ in range(6):
        rows = []
        for _ in range(3):
            v = 0
            for x in pool:
                if rng.randrange(2):
                    v ^= x
            rows.append(_unpack(v, 64))
        basis.append(tuple(e for row in rows for e in row))
    code = FdrmCode(F2, full_diagram(3, 64), tuple(basis), 1, {"construction": "test"})
    exact = min(
        len(eliminate([[sum(c * b[i] for c, b in zip(msg, basis)) % 2
                        for i in range(r * 64, (r + 1) * 64)] for r in range(3)], F2))
        for msg in np.ndindex(*(2,) * 6) if any(msg)
    )
    assert exact == min_rank_distance(code) < 3
    assert sampled_min_rank(code, 2000, seed=1) == exact


@pytest.mark.parametrize("p, s", [(2, 9), (257, 1)], ids=["gf512", "gf257"])
def test_probe_over_an_entry_field_past_256(p, s):
    """diag(a, b) has rank 1 exactly when one of a, b is zero."""
    f = gf(p, s)
    code = FdrmCode(f, full_diagram(2, 2), ((1, 0, 0, 0), (0, 0, 0, 1)), 1,
                    {"construction": "test"})
    assert min_rank_distance(code) == 1
    assert sampled_min_rank(code, 5000, seed=3) == 1
