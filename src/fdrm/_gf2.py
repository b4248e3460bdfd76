"""Vectorized GF(2) rank kernels: exhaustive cosets and random probes.

Rows of an m x n binary matrix are packed into one unsigned integer each,
bit j = column j.  A batch of B matrices is an (m, B) array: row i of
every matrix, contiguous over the batch, so `rank_batch` eliminates with
m whole-row sweeps.  Codewords of a binary coset (an offset plus the span
of a basis) are generated in Gray-code order (one basis matrix XORed per
step); random probes assemble each codeword from byte-group XOR tables of
the basis.
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
    """Ranks of a batch of packed binary matrices, given as an (m, B) array
    whose row i holds row i of every matrix.

    Sweep i adds row i, with its lowest set bit as pivot, to every later
    row that has that bit set.  The sweeps work in place, so `rows` is
    consumed.
    """
    m, b = rows.shape
    rank = np.zeros(b, dtype=np.uint8)
    for i in range(m):
        r = rows[i]
        rank += r != 0
        if i + 1 < m:
            low = r & (~r + np.asarray(1, dtype=rows.dtype))
            rest = rows[i + 1 :]
            rest ^= r * ((rest & low) != 0)
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
    np.bitwise_xor.accumulate(steps, axis=0, out=steps)
    low_table = np.zeros((m, n_low), dtype=dtype)
    low_table[:, 1:] = steps.T

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
        yield rank_batch(low_table ^ base[:, None])


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


def _sampled_words(basis_rows, ncols: int, samples: int, seed: int):
    """Packed (m, b) batches of `samples` random nonzero GF(2) combinations.

    Each chunk of b <= 2^14 messages is drawn as a (b, K) 0/1 array, and a
    zero message gets its first digit set.  The words are assembled from
    byte-group tables: table g holds, at column v, the XOR of basis
    matrices 8g + i over the set bits i of v, and each message's bytes
    pick one column per table.
    """
    K = len(basis_rows)
    m = len(basis_rows[0])
    dtype = _dtype_for(ncols)
    basis = np.array(basis_rows, dtype=dtype)
    tables = []
    for g in range(0, K, 8):
        table = np.zeros((m, 256), dtype=dtype)
        for i, row in enumerate(basis[g : g + 8]):
            table[:, 1 << i : 2 << i] = table[:, : 1 << i] ^ row[:, None]
        tables.append(table)
    rng = np.random.default_rng(seed)
    chunk = 1 << 14
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        sel = rng.integers(0, 2, size=(b, K), dtype=np.uint8)
        byte = np.packbits(sel, axis=1, bitorder="little")
        del sel  # not held while the consumer ranks the words
        byte[~byte.any(axis=1), 0] = 1  # nonzero message guarantee: digit 0
        # np.take keeps the (m, b) result C-ordered; table[:, idx] would not
        words = np.take(tables[0], byte[:, 0], axis=1)
        for g in range(1, len(tables)):
            words ^= np.take(tables[g], byte[:, g], axis=1)
        yield words
        done += b


def min_rank_sampled(
    basis_rows,
    ncols: int,
    samples: int,
    seed: int,
) -> int:
    """Minimum rank over `samples` random nonzero GF(2) combinations."""
    return min(
        int(rank_batch(words).min())
        for words in _sampled_words(basis_rows, ncols, samples, seed)
    )
