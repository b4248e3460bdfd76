"""FDRM code model: exhaustive rank-distance verification and MRD checks.

A code is its basis: codeword matrices over its entry field, each stored
flat, as its m*n entries in row-major order, so that the Delsarte pairing
sum_ij a_ij b_ij is a dot product and elimination, the rank kernels and
the dual read the rows as stored.  The basis is validated once, when the
code is built, so one enumeration engine verifies every construction.
Whether a claim was checked is the status `certify` returns, not part of
the code.  Every nonzero multiple of a codeword has its rank, so the
engine ranks one representative per line of nonzero codewords: per
F_q-line for any code, per F_{q^m}-line for the generator expansions
`mrd_check` verifies.  When the Delsarte dual has fewer F_q-lines than the
code has representatives, the engine walks the dual in full instead and
reads the code's exact rank distribution off the MacWilliams identities
(Delsarte 1978).  A budget (default 2^24) counts the claim's q^k'
codewords, whichever side is walked, and turns oversized requests into a
distinct, recoverable signal rather than a silent skip.

Every generator-derived code is built once, on its final diagram, by
`generator_subcode` from its generator's rows, a tuple of row tuples over
the tower's top field; `json_value` reads untrusted certificate fields at
their exact JSON type, and a certificate row is read only as it would be
written.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import _gf2
from .fields import GF, FieldTower, eliminate, gf
from .ferrers import DiagramError, FerrersDiagram, full_diagram, singleton_bound

DEFAULT_BUDGET = 1 << 24

# Largest m*n of a code's ambient: building, validating and walking a basis
# all take time that grows with it, so a larger diagram is refused up front.
MAX_AMBIENT = 1024


class CodeError(ValueError):
    """Structural problem with a code or an operation's preconditions."""


class BudgetExceeded(RuntimeError):
    """Enumeration would exceed the codeword budget: a desk-scale limit,
    not a verification failure."""


@dataclass(frozen=True, eq=False)
class FdrmCode:
    """Linear rank-metric code supported on a Ferrers diagram.

    `basis` holds k' matrices over `field` (the entry field), each a flat
    row-major tuple of m*n entries; the code is their `field`-span, so k'
    is its dimension over the entry field.  `claimed_delta` is the designed
    distance; `certify` checks it.  The basis is validated once, here.
    """

    field: GF
    diagram: FerrersDiagram
    basis: tuple[tuple[int, ...], ...]
    claimed_delta: int
    provenance: dict

    def __post_init__(self):
        m, n = self.diagram.m, self.diagram.n
        if not 1 <= self.claimed_delta <= min(m, n):
            raise CodeError(f"claimed distance {self.claimed_delta} outside 1..{min(m, n)}")
        q = self.field.order
        for b in self.basis:
            if len(b) != m * n:
                raise CodeError(f"basis matrix of {len(b)} entries != ambient {m} x {n}")
            if not all(isinstance(e, int) and 0 <= e < q for e in b):
                raise CodeError(f"basis matrix has an entry outside GF({q})")
        if len(eliminate(list(self.basis), self.field)) != len(self.basis):
            raise CodeError("basis matrices are not linearly independent")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def ambient(self) -> tuple[int, int]:
        return (self.diagram.m, self.diagram.n)

    def describe(self) -> str:
        return (
            f"[{self.diagram.text()}, {self.dimension}, {self.claimed_delta}]"
            f"_{self.field.order} code"
        )


def check_ambient(diagram: FerrersDiagram) -> FerrersDiagram:
    """`diagram`, or DiagramError when its m x n exceeds MAX_AMBIENT cells."""
    if diagram.m * diagram.n > MAX_AMBIENT:
        raise DiagramError(f"ambient {diagram.m} x {diagram.n} exceeds {MAX_AMBIENT} cells")
    return diagram


def verify_support(code: FdrmCode) -> bool:
    """True iff every basis matrix vanishes outside the diagram's dots."""
    n = code.diagram.n
    return all(
        code.diagram.dot(*divmod(x, n)) for b in code.basis for x, e in enumerate(b) if e
    )


def _kernel_basis(field: GF, n: int, flat: list) -> tuple[bool, list]:
    """The GF(p)-basis of the span of the flat rows, laid out for its rank kernel.

    Each row r is followed by alpha^j r for j = 1..degree-1, so block i of
    `degree` rows spans the F_q-line of row i.  Returns (packed, rows):
    GF(2) matrices of at most 64 columns go to the numpy kernels in `_gf2`,
    one packed int per matrix row; every other code goes to the table kernel
    (`_coset_ranks`, `_sampled_ranks`) as flat row-major entry lists.
    """
    powers = [field.alpha_pow(j) for j in range(1, field.degree)]
    expanded = []
    for row in flat:
        expanded.append(row)
        expanded.extend([field.mul(a, x) for x in row] for a in powers)
    if field.p == 2 and field.degree == 1 and n <= 64:
        return True, [_gf2.pack_rows([r[i : i + n] for i in range(0, len(r), n)], n)
                      for r in expanded]
    return False, expanded


def _flat_rank(field: GF, n: int, flat: list) -> int:
    """Rank of the matrix with n columns stored row-major in `flat`."""
    return len(eliminate([flat[i : i + n] for i in range(0, len(flat), n)], field))


def _coset_ranks(field: GF, m: int, n: int, basis: list, e: int):
    """Rank arrays of every member of the cosets basis[j] + GF(p)-span(basis[j+e:]),
    j = 0, e, 2e, ..., in blocks: the walk for every entry field but packed GF(2).

    A table, built once, holds the p^L digit combinations of the last L
    rows, L the most that fit one block, the last row's digit fastest, so
    its first p^k columns combine the last k rows.  A coset of K span rows
    ranks one block per combination of its first K - L rows: that base,
    plus its first row, added to the table's first p^min(K, L) columns mod p.
    """
    p, rows = field.p, len(basis)
    if not rows:
        return
    digits = _digit_rows(field, basis)
    low = 0
    while low < rows - e and p ** (low + 1) <= _block_words(field, m, n):
        low += 1
    dtype = np.min_scalar_type(2 * p - 2)
    table = np.zeros((len(digits), 1), dtype=dtype)
    for row in digits[:, rows - low :].T:  # each later row's digit runs faster
        steps = (row[:, None] * np.arange(p) % p).astype(dtype)
        table = ((table[:, :, None] + steps[:, None, :]) % p).reshape(len(digits), -1)
    tables = _rank_tables(field) if field.order <= 256 else None
    for j in range(0, rows, e):
        span = min(rows - j - e, low)
        high = digits[:, j + e : rows - span]
        for combo in itertools.product(range(p), repeat=high.shape[1]):
            base = ((high @ np.array(combo, dtype=np.int64) + digits[:, j]) % p).astype(dtype)
            yield _word_ranks(field, m, n, (table[:, : p**span] + base[:, None]) % p, tables)


def _min_rank(code: FdrmCode, budget: int, floor: int | None, line: int = 1) -> int:
    """Minimum rank over the nonzero codewords, from the side with less to walk.

    The budget counts the claim's q^k' codewords, whichever side is walked.
    The projective walk ranks (q^k' - 1)/(q^line - 1) representatives; the
    Delsarte dual has (q^{mn-k'} - 1)/(q - 1) F_q-lines.  When the dual has
    fewer, `_dual_distribution` walks it in full and the exact minimum is
    read off the code's rank distribution.  Otherwise `_projective_min_rank`
    runs, and with `floor` set may stop at the first block with a rank below
    `floor`, which then only means the claim fails.  Either side is walked
    by the packed GF(2) kernel or, over other fields, by `_coset_ranks`.
    """
    kp = code.dimension
    if kp < 1:
        raise CodeError("zero-dimensional code has no distance")
    q = code.field.order
    total = q**kp
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}")
    m, n = code.ambient
    if (q ** (m * n - kp) - 1) // (q - 1) < (total - 1) // (q**line - 1):
        dist = _dual_distribution(code)
        return next(i for i in range(1, len(dist)) if dist[i])
    return _projective_min_rank(code, floor, line)


def _projective_min_rank(code: FdrmCode, floor: int | None, line: int = 1) -> int:
    """Minimum rank over one representative of every line of nonzero codewords.

    `_kernel_basis` lists the GF(p)-basis in blocks of e = degree * `line`
    matrices, block j spanning the F_{p^e}-line {lambda b_j}.  Every nonzero
    multiple of a codeword has its rank (psi(lambda c) = M_lambda psi(c) with
    M_lambda invertible), and every nonzero codeword is a multiple of exactly
    one member of the cosets b_j + span(blocks after j).  Walking those
    cosets ranks (p^{eK} - 1)/(p^e - 1) codewords instead of p^{eK} - 1.
    `line` > 1 is sound only for an F_{q^line}-linear code whose basis
    lists `FieldTower.expand` blocks of generator rows; the default covers
    every code, since each basis matrix spans an F_q-line.  With `floor`,
    the walk stops after the first coset or block with a rank below `floor`.
    """
    field = code.field
    mrows, n = code.ambient
    packed, basis = _kernel_basis(field, n, code.basis)
    e = field.degree * line
    if packed:
        lows = (_gf2.min_rank_exhaustive(basis[j + e :], n, floor=floor, offset=basis[j])
                for j in range(0, len(basis), e))
    else:
        lows = (int(ranks.min()) for ranks in _coset_ranks(field, mrows, n, basis, e))
    best = min(mrows, n) + 1
    for low in lows:
        best = min(best, low)
        if floor is not None and best < floor:
            break
    return best


def _dual_rows(code: FdrmCode) -> list[list[int]]:
    """Flat rows spanning the Delsarte dual {B : sum_ij a_ij b_ij = 0 for all A}.

    One reduced elimination of the flat basis rows leaves rows R with pivot
    columns P; each free column f gives the null vector with 1 at f and
    -R[i][f] at P[i].  The dual has dimension mn - k'.
    """
    field = code.field
    m, n = code.ambient
    rows = list(code.basis)
    pivots = eliminate(rows, field, reduced=True)
    dual = []
    for f in sorted(set(range(m * n)).difference(pivots)):
        v = [0] * (m * n)
        v[f] = 1
        for r, c in zip(rows, pivots):
            v[c] = field.neg(r[f])
        dual.append(v)
    return dual


def _rank_histogram(field: GF, m: int, n: int, flat: list) -> list[int]:
    """Count of codewords of each rank 0..min(m, n) in the F_q-span of the flat
    rows, from one walk (packed GF(2) or `_coset_ranks`) over a member per F_q-line."""
    reps = [0] * (min(m, n) + 1)
    packed, basis = _kernel_basis(field, n, flat)
    e = field.degree
    if packed:
        blocks = (_gf2.rank_histogram(basis[j + e :], n, offset=basis[j])
                  for j in range(0, len(basis), e))
    else:
        blocks = (np.bincount(r, minlength=len(reps)).tolist()
                  for r in _coset_ranks(field, m, n, basis, e))
    for block in blocks:
        reps = [a + b for a, b in zip(reps, block)]
    hist = [(field.order - 1) * c for c in reps]
    hist[0] += 1  # the zero codeword
    return hist


def _gaussian_binomial(a: int, b: int, q: int) -> int:
    """[a, b]_q, the number of b-dimensional subspaces of F_q^a."""
    if not 0 <= b <= a:
        return 0
    num = den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _macwilliams(dual: list[int], q: int, kp: int, m: int, n: int) -> list[int]:
    """Rank distribution A of a k'-dimensional code from its dual's, B.

    With s = min(m, n) and M = max(m, n), for nu = s, ..., 0 (Delsarte 1978,
    "Bilinear forms over a finite field"; Ravagnani 2016, "Rank-metric codes
    and their duality theory"):
        sum_{i <= s-nu} A_i [s-i, nu]_q = q^{k'-M nu} sum_{j <= nu} B_j [s-j, nu-j]_q.
    The equation for nu holds A_{s-nu} with coefficient 1 and the A_i found
    before it, so A_0, ..., A_s follow in exact integers.  Raises CodeError
    unless every A_i is a non-negative integer, A_0 = 1 and sum(A) = q^k'.
    """
    s, M = min(m, n), max(m, n)
    dist = []
    for nu in range(s, -1, -1):
        rhs = sum(dual[j] * _gaussian_binomial(s - j, nu - j, q) for j in range(nu + 1))
        shift = kp - M * nu
        if shift >= 0:
            rhs *= q**shift
        else:
            rhs, rem = divmod(rhs, q**-shift)
            if rem:
                raise CodeError(f"dual rank distribution gives a non-integer A_{s - nu}")
        a = rhs - sum(x * _gaussian_binomial(s - i, nu, q) for i, x in enumerate(dist))
        if a < 0:
            raise CodeError(f"dual rank distribution gives A_{s - nu} = {a} < 0")
        dist.append(a)
    if dist[0] != 1 or sum(dist) != q**kp:
        raise CodeError(
            f"dual rank distribution gives A_0 = {dist[0]} and {sum(dist)} "
            f"codewords, not 1 and {q**kp}"
        )
    return dist


def _dual_distribution(code: FdrmCode) -> list[int]:
    """The code's rank distribution A_0..A_s, read off a full walk of its
    Delsarte dual through the MacWilliams identities."""
    m, n = code.ambient
    dual = _rank_histogram(code.field, m, n, _dual_rows(code))
    return _macwilliams(dual, code.field.order, code.dimension, m, n)


def min_rank_distance(code: FdrmCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum rank over all nonzero codewords."""
    return _min_rank(code, budget, floor=None)


def distance_at_least(code: FdrmCode, delta: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Exhaustive check that every nonzero codeword has rank >= delta.

    delta <= 1 needs no walk, whatever the budget: every nonzero matrix has
    rank >= 1, and the basis was checked independent when the code was built.
    """
    if delta <= 1 and code.dimension:
        return True
    return _min_rank(code, budget, floor=delta) >= delta


def _rank_tables(field: GF):
    """The entry field's mul, sub and inv tables as uint8 numpy arrays, for
    orders up to 256 (inv[0] = 0)."""
    q, p = field.order, field.p
    exp = np.array([field.alpha_pow(i) for i in range(q - 1)])
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
    mul[0, :] = mul[:, 0] = 0
    inv = exp[-log % (q - 1)]
    inv[0] = 0
    powers = p ** np.arange(field.degree)
    digits = np.arange(q)[:, None] // powers % p
    sub = ((digits[:, None, :] - digits[None, :, :]) % p) @ powers
    return mul.astype(np.uint8), sub.astype(np.uint8), inv.astype(np.uint8)


def _table_ranks(words, mul, sub, inv) -> np.ndarray:
    """Ranks of an (m, n, B) uint8 batch of matrices over a field of order
    <= 256, row i of every matrix at words[i], from `_rank_tables`.

    Sweep i takes the first nonzero entry of row i as its pivot and
    subtracts the multiple of row i that clears the pivot column from every
    later row, like `_gf2.rank_batch`.  The sweeps work in place, so
    `words` is consumed.
    """
    m, n, b = words.shape
    rank = np.zeros(b, dtype=np.int64)
    cols = np.arange(b)
    for i in range(m):
        r = words[i]
        nz = r != 0
        rank += nz.any(axis=0)
        if i + 1 < m:
            piv = nz.argmax(axis=0)
            rest = words[i + 1 :]
            factor = mul[rest[:, piv, cols], inv[r[piv, cols]]]
            rest[:] = sub[rest, mul[factor[:, None, :], r]]
    return rank


def _block_words(field: GF, m: int, n: int) -> int:
    """Most words in one block or chunk: 1024, and at most 2^16 base-p digits."""
    return max(1, min(1024, (1 << 16) // (m * n * field.degree)))


def _digit_rows(field: GF, rows: list) -> np.ndarray:
    """The base-p digits of flat rows over `field`, one column per row: digit
    t of entry x in row x*s + t (int64)."""
    digits = np.array(rows, dtype=np.int64)[:, :, None] // field.p ** np.arange(field.degree)
    return (digits % field.p).reshape(len(rows), -1).T


def _word_ranks(field: GF, m: int, n: int, words: np.ndarray, tables) -> np.ndarray:
    """Ranks of the B matrices whose base-p digits (laid out as `_digit_rows`)
    are the columns of the (m*n*s, B) array `words`, packed into field
    elements and ranked by `_table_ranks` with `tables` (`_rank_tables`), or
    past order 256 (`tables` None) by `_flat_rank` one word at a time."""
    p, s, b = field.p, field.degree, words.shape[1]
    dtype = np.uint8 if tables else np.int64
    elems = (p ** np.arange(s)).astype(dtype) @ words.reshape(m * n, s, b).astype(dtype)
    if tables:
        return _table_ranks(elems.reshape(m, n, b), *tables)
    return np.array([_flat_rank(field, n, w) for w in elems.T.tolist()])


def _sampled_ranks(field: GF, m: int, n: int, basis: list, samples: int, seed: int):
    """Rank arrays of `samples` random nonzero codewords over GF(p)-digits.

    Every sample draws K digits from `random.Random(seed)` in order, again
    while they are all zero, so a seed keeps its codewords.  A chunk of
    `_block_words` draws becomes the base-p digit words (coeffs @ digits) % p
    of the basis rows' digits, ranked by `_word_ranks`.
    """
    p, K = field.p, len(basis)
    coeffs = _digit_rows(field, basis)
    tables = _rank_tables(field) if field.order <= 256 else None
    chunk = _block_words(field, m, n)
    rng = random.Random(seed)
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        digits = np.zeros((b, K), dtype=np.int64)
        for i in range(b):
            while True:
                draw = [rng.randrange(p) for _ in range(K)]
                if any(draw):
                    break
            digits[i] = draw
        words = coeffs @ digits.T
        words %= p
        yield _word_ranks(field, m, n, words, tables)
        done += b


def sampled_min_rank(code: FdrmCode, samples: int, seed: int = 0) -> int:
    """Minimum rank over random nonzero codewords (probe, not a proof).

    Over GF(2) the packed kernel draws numpy messages in chunks of 2^14;
    over any other entry field the digits come from `random.Random(seed)`
    in chunks of at most 1024.  Either way a seed draws the same codewords in the
    same order whatever the chunking.
    """
    if samples < 1:
        raise CodeError(f"a probe needs at least one sample, got {samples}")
    if code.dimension < 1:
        raise CodeError("zero-dimensional code has no nonzero codeword")
    field, (m, n) = code.field, code.ambient
    packed, basis = _kernel_basis(field, n, code.basis)
    if packed:
        return _gf2.min_rank_sampled(basis, n, samples, seed)
    return min(int(r.min()) for r in _sampled_ranks(field, m, n, basis, samples, seed))


def is_optimal(code: FdrmCode, delta: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Dimension meets the diagram bound, support holds, min rank >= delta."""
    bound, _ = singleton_bound(code.diagram, delta)
    if code.dimension != bound or not verify_support(code):
        return False
    return distance_at_least(code, delta, budget)


def certify(code: FdrmCode, budget: int = DEFAULT_BUDGET) -> tuple[FdrmCode, str]:
    """Run in-budget verification; returns (the same code, status).

    Status is "verified" when the exhaustive distance check confirms the
    claimed distance, "unverified-at-scale" when enumeration exceeds the
    budget.  A failed check raises CodeError: constructions must not emit
    wrong codes quietly.
    """
    if not verify_support(code):
        raise CodeError("support check failed")
    try:
        ok = distance_at_least(code, code.claimed_delta, budget)
    except BudgetExceeded:
        return code, "unverified-at-scale"
    if not ok:
        raise CodeError(f"exhaustive distance below claimed {code.claimed_delta}")
    return code, "verified"


def generator_subcode(tower: FieldTower, G, diagram: FerrersDiagram, delta: int,
                      provenance: dict, r: int = 0) -> FdrmCode:
    """The F_q-code of generator G with message coordinate i confined to
    span(beta_1, ..., beta_{gamma_i}), laid out on `diagram`.

    G is a tuple of row tuples over the tower's top field, each of
    diagram.n entries.  The one builder behind every generator-derived
    code: full expansions, shortened, thm23 and staircase codes.  The basis
    matrix for u = beta_{t+1} e_i is psi(beta_{t+1} g_i), a t_l-row block
    over diagram.m - t_l zero rows; for r > 0 it also carries a 1 in each
    staircase column n-r+h, h >= i, at row t_l + gamma_{i+1} + ... +
    gamma_h + t.
    """
    m, n = diagram.m, diagram.n
    t_l = tower.top_degree
    gam = diagram.gammas
    if len(G) > n:
        raise CodeError(f"{len(G)} generator rows exceed {n} diagram columns")
    if any(len(g) != n for g in G):
        raise CodeError(f"generator rows must each have {n} entries")
    check_ambient(diagram)
    basis = []
    for i, g in enumerate(G):
        for t, top in enumerate(tower.expand(g, gam[i])):
            flat = [e for row in top for e in row] + [0] * ((m - t_l) * n)
            for h in range(i, r):
                flat[(t_l + sum(gam[i + 1 : h + 1]) + t) * n + n - r + h] = 1
            basis.append(tuple(flat))
    return FdrmCode(tower.base, diagram, tuple(basis), delta, provenance)


def code_from_generator(tower: FieldTower, G, delta: int) -> FdrmCode:
    """Full-diagram code {psi(u G)} over F_q from the k rows G, each of n
    entries over the top field."""
    diagram = full_diagram(tower.top_degree, len(G[0]) if G else 0)
    return generator_subcode(tower, G, diagram, delta, {"construction": "generator-expansion"})


def mrd_check(tower: FieldTower, G, delta: int, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the code of the generator rows G is MRD[t_l x n, delta]_q.

    Checks the dimension against max(m,n)(min(m,n)-delta+1) and then the
    exhaustive minimum rank.  Assumes the standing m >= n orientation.
    Rows that are dependent, or not all n entries wide, give False.
    """
    m = tower.top_degree
    n = len(G[0]) if G else 0
    if m < n:
        raise CodeError(f"m = {m} < n = {n}: transpose the problem first")
    if not 1 <= delta <= n:
        raise CodeError(f"delta {delta} out of range")
    expected = max(m, n) * (min(m, n) - delta + 1)
    total = tower.base.order ** (m * len(G))
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}")
    try:
        code = code_from_generator(tower, G, delta)
    except CodeError:
        return False  # dependent or ragged rows cannot reach the MRD dimension
    if code.dimension != expected:
        return False
    return _min_rank(code, budget, floor=delta, line=m) >= delta


def canonical_basis(code: FdrmCode) -> tuple[tuple[int, ...], ...]:
    """The code's basis rows in reduced echelon form (a deterministic
    representative of the same span)."""
    rows = list(code.basis)
    eliminate(rows, code.field, reduced=True)
    return tuple(map(tuple, rows))


# -- certificate serialization --


def _matrix_rows(field: GF, flat, n: int) -> list[str]:
    """A flat basis matrix as its row strings of n entries: up to GF(16)
    one lower-case hex digit per entry, written as one string and cut into
    rows, beyond that dot-separated decimals per row."""
    if field.order <= 16:
        text = bytes(flat).hex()[1::2]  # each entry one byte "0x": keep the x
        return [text[i : i + n] for i in range(0, len(text), n)]
    return [".".join(map(str, flat[i : i + n])) for i in range(0, len(flat), n)]


def _matrix_parse(field: GF, rows: list, n: int) -> tuple[int, ...]:
    """The flat entries of a basis matrix's row strings, read only in the
    exact form `_matrix_rows` writes (int() alone takes signs, spaces, "_",
    upper-case hex and non-ASCII digits): up to GF(16) rows of n lower-case
    hex digits, beyond that decimals that write back to `rows`."""
    try:
        if field.order <= 16:
            if set(map(len, rows)) == {n}:
                return tuple(map("0123456789abcdef".index, "".join(rows)))
        else:
            vals = tuple(map(int, ".".join(rows).split(".")))
            if len(vals) == len(rows) * n and _matrix_rows(field, vals, n) == rows:
                return vals
    except ValueError:
        pass
    raise CodeError(
        f"basis matrix {rows!r:.60} is not {len(rows)} rows of {n} entries "
        f"over GF({field.order})"
    )


def certificate(code: FdrmCode, verified: bool, field_serial: dict | None = None) -> dict:
    """Machine-readable certificate for a code; `verified` says whether its
    claimed distance was checked (`certify` returned "verified")."""
    n = code.diagram.n
    return {
        "field": field_serial
        or {"p": code.field.p, "s": code.field.degree, "chain": [1],
            "modulus": list(code.field.modulus)},
        "entry_field": {
            "p": code.field.p,
            "degree": code.field.degree,
            "modulus": list(code.field.modulus),
        },
        "diagram": code.diagram.text(),
        "dimension": code.dimension,
        "delta": code.claimed_delta,
        "verified": verified,
        "provenance": code.provenance,
        "basis": [_matrix_rows(code.field, b, n) for b in code.basis],
    }


def json_value(obj: dict, key: str, kind: type, default=None):
    """obj[key] (or `default` when absent) if it has the JSON type `kind`.

    Certificates and requests are untrusted, so nothing is coerced: int
    means a JSON integer, never a bool, float or string, and list means a
    list of JSON integers.  Anything else, or a missing key without a
    default, raises CodeError.
    """
    if key not in obj:
        if default is None:
            raise CodeError(f"{key} is missing")
        return default
    value = obj[key]
    ok = type(value) is kind
    if ok and kind is list:
        ok = all(type(x) is int for x in value)
    if not ok:
        want = "list of int" if kind is list else kind.__name__
        raise CodeError(f"{key} must be JSON {want}, not {type(value).__name__}")
    return value


def code_from_certificate(data: dict) -> FdrmCode:
    """Rebuild a code from its certificate.

    Only `entry_field`, `diagram`, `dimension`, `delta`, `verified`,
    `provenance` and `basis` are read; the `field` block is informational,
    and `verified` is type-checked and dropped, since only `certify` can
    tell.  `gf` refuses an entry field past the size cap before building
    it.  Every malformed certificate raises CodeError, DiagramError or
    FieldError.
    """
    if type(data) is not dict:
        raise CodeError(f"certificate must be a JSON object, not {type(data).__name__}")
    json_value(data, "verified", bool, False)
    ef = json_value(data, "entry_field", dict)
    field = gf(json_value(ef, "p", int), json_value(ef, "degree", int))
    if "modulus" in ef and tuple(json_value(ef, "modulus", list)) != field.modulus:
        raise CodeError("certificate modulus does not match canonical modulus")
    diagram = check_ambient(FerrersDiagram.parse(json_value(data, "diagram", str)))
    provenance = json_value(data, "provenance", dict, {})
    matrices = data.get("basis")
    if type(matrices) is not list or not all(
        type(rows) is list and len(rows) == diagram.m
        and all(type(r) is str for r in rows)
        for rows in matrices
    ):
        raise CodeError(
            f"basis must be a JSON list of matrices, each a list of {diagram.m} row strings"
        )
    if not matrices:
        raise CodeError("certificate has an empty basis")
    basis = tuple(_matrix_parse(field, rows, diagram.n) for rows in matrices)
    code = FdrmCode(field, diagram, basis, json_value(data, "delta", int), dict(provenance))
    if code.dimension != json_value(data, "dimension", int):
        raise CodeError("certificate dimension mismatch")
    return code
