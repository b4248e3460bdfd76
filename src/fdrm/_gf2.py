"""Vectorized GF(2) rank enumeration kernels.

Codewords of a binary coset (an offset plus the span of a basis) are
generated in Gray-code order (one basis matrix XORed per step) and ranked
in numpy batches.  Rows of an m x n binary matrix are packed into one
unsigned integer each, so a batch is a (B, m) array and elimination runs
as m column sweeps over the whole batch.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BITS = 18


def _dtype_for(ncols: int):
    if ncols <= 8:
        return np.uint8
    if ncols <= 16:
        return np.uint16
    if ncols <= 32:
        return np.uint32
    if ncols <= 64:
        return np.uint64
    raise ValueError("packed kernel supports at most 64 columns")


def pack_rows(rows, ncols: int) -> tuple[int, ...]:
    """Pack 0/1 row tuples into one int per row, bit j = column j."""
    out = []
    for r in rows:
        v = 0
        for j, e in enumerate(r):
            if e:
                v |= 1 << j
        out.append(v)
    return tuple(out)


def rank_batch(rows: np.ndarray) -> np.ndarray:
    """Ranks of a (B, m) batch of packed binary matrices (consumes `rows`)."""
    a = rows
    b, m = a.shape
    rank = np.zeros(b, dtype=np.uint8)
    for i in range(m):
        r = a[:, i]
        nz = r != 0
        rank += nz
        if i + 1 < m:
            low = r & (~r + np.asarray(1, dtype=a.dtype))
            rest = a[:, i + 1 :]
            hit = (rest & low[:, None]) != 0
            rest ^= np.where(hit, r[:, None], np.asarray(0, dtype=a.dtype))
    return rank


def _gray_flip_indices(start: int, stop: int) -> np.ndarray:
    """Index of the bit flipped at each Gray-code step t in [start, stop)."""
    t = np.arange(start, stop, dtype=np.int64)
    lows = t & -t
    return np.log2(lows.astype(np.float64)).astype(np.int64)


def _coset_ranks(basis_rows, ncols: int, offset):
    """Rank arrays of the coset `offset` + GF(2)-span(`basis_rows`).

    All 2^K members are ranked, the zero message included, in blocks of up
    to 2^18 (a low-digit Gray-code table XORed with one high-digit base).
    """
    K = len(basis_rows)
    m = len(offset)
    dtype = _dtype_for(ncols)
    basis = np.array(basis_rows, dtype=dtype).reshape(K, m)

    low_bits = min(K, _CHUNK_BITS)
    n_low = 1 << low_bits
    flips = _gray_flip_indices(1, n_low)
    steps = basis[flips]
    low_table = np.zeros((n_low, m), dtype=dtype)
    np.bitwise_xor.accumulate(steps, axis=0, out=steps)
    low_table[1:] = steps

    high = K - low_bits
    for outer in range(1 << high):
        base = np.array(offset, dtype=dtype)
        o = outer
        j = 0
        while o:
            if o & 1:
                base ^= basis[low_bits + j]
            o >>= 1
            j += 1
        yield rank_batch(low_table ^ base[None, :])


def min_rank_exhaustive(
    basis_rows,
    ncols: int,
    floor: int | None = None,
    *,
    offset,
) -> int:
    """Exact minimum rank over the coset `offset` + GF(2)-span of the basis.

    `offset` is one packed-row tuple (length m) and `basis_rows` a sequence
    of K >= 0 such tuples.  All 2^K messages are ranked, the zero message
    included, so a coset that misses zero holds only nonzero codewords; an
    empty basis ranks the offset alone.  When `floor` is given, enumeration
    stops early once a codeword of rank below `floor` is found (the returned
    value is still a true rank of some coset member, just not necessarily
    the minimum).
    """
    best = len(offset) + 1
    for ranks in _coset_ranks(basis_rows, ncols, offset):
        best = min(best, int(ranks.min()))
        if floor is not None and best < floor:
            break
    return best


def rank_histogram(basis_rows, ncols: int, *, offset) -> list[int]:
    """Count of the coset members of each rank 0..m, over all 2^K messages."""
    m = len(offset)
    hist = np.zeros(m + 1, dtype=np.int64)
    for ranks in _coset_ranks(basis_rows, ncols, offset):
        hist += np.bincount(ranks, minlength=m + 1)
    return hist.tolist()


def min_rank_sampled(
    basis_rows,
    ncols: int,
    samples: int,
    seed: int,
) -> int:
    """Minimum rank over `samples` random nonzero GF(2) combinations."""
    K = len(basis_rows)
    m = len(basis_rows[0])
    dtype = _dtype_for(ncols)
    basis = np.array(basis_rows, dtype=dtype)
    rng = np.random.default_rng(seed)
    best = m + 1
    chunk = 1 << 14
    zero = np.asarray(0, dtype=dtype)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        sel = rng.integers(0, 2, size=(b, K), dtype=np.uint8)
        sel[sel.sum(axis=1) == 0, 0] = 1  # nonzero message guarantee
        words = np.zeros((b, m), dtype=dtype)
        for i in range(K):
            words ^= np.where(sel[:, i : i + 1].astype(bool), basis[i][None, :], zero)
        best = min(best, int(rank_batch(words).min()))
        done += b
    return best
