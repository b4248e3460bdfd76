"""Vectorized GF(2) rank kernels: exhaustive cosets and random probes.

Rows of an m x n binary matrix are packed into one unsigned integer each,
bit j = column j.  A batch of B matrices is an (m, B) array: row i of
every matrix, contiguous over the batch, so `rank_batch` eliminates with
m whole-row sweeps.  Every table of codewords is a span table
(`_span_table`): column v is the XOR of the basis matrices at the set bits
of v.  A binary coset (an offset plus the span of a basis) is walked as one
low span table XORed with each column of a high one; random probes
assemble each codeword from byte-group span tables of the basis.
"""

from __future__ import annotations

import numpy as np

_CHUNK_BITS = 18


def _dtype_for(ncols: int):
    if ncols > 64:
        raise ValueError("packed kernel supports at most 64 columns")
    return np.min_scalar_type((1 << ncols) - 1)


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


def _span_table(rows: np.ndarray) -> np.ndarray:
    """The (m, 2^K) table of every XOR combination of the K packed matrices
    in `rows`, a (K, m) array: column v is the XOR of rows i over the set
    bits i of v."""
    K, m = rows.shape
    table = np.zeros((m, 1 << K), dtype=rows.dtype)
    for i, row in enumerate(rows):
        table[:, 1 << i : 2 << i] = table[:, : 1 << i] ^ row[:, None]
    return table


def _coset_ranks(basis_rows, ncols: int, offset):
    """Rank arrays of the coset `offset` + GF(2)-span(`basis_rows`).

    All 2^K members are ranked, the zero message included, one block per
    column of the base table: the span table of the first 18 matrices XORed
    with one base, the offset plus a combination of the remaining K - 18.
    """
    dtype = _dtype_for(ncols)
    basis = np.array(basis_rows, dtype=dtype).reshape(len(basis_rows), len(offset))
    low = _span_table(basis[:_CHUNK_BITS])
    bases = _span_table(basis[_CHUNK_BITS:]) ^ np.array(offset, dtype=dtype)[:, None]
    for j in range(bases.shape[1]):
        yield rank_batch(low ^ bases[:, j : j + 1])


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
    empty basis ranks the offset alone.  The walk goes in blocks of 2^18
    (the span table of the first 18 matrices), one per column of a base
    table of 2^(K-18) columns; K <= 24 on every route the default budget
    admits.  When `floor` is given, enumeration stops early after a block
    holding a rank below `floor` (the returned value is still a true rank
    of some coset member, just not necessarily the minimum).
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
    byte-group span tables: table g is the span table of basis matrices
    8g .. 8g + 7, and each message's bytes pick one column per table.
    """
    K = len(basis_rows)
    basis = np.array(basis_rows, dtype=_dtype_for(ncols))
    tables = [_span_table(basis[g : g + 8]) for g in range(0, K, 8)]
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
