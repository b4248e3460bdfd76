"""Construction families for optimal Ferrers diagram rank-metric codes.

Four routes to a code, all emitting an explicit basis for uniform
verification.  Apart from the trivial delta = 1 codes, the first three
hand a generator, a plain tuple of row tuples over the tower's top field,
and the target diagram to `codes.generator_subcode`, which builds the one
code each returns:

* shortening a Gabidulin code onto a diagram whose rightmost columns are
  tall enough ("shortened");
* a systematic MRD generator with a prescribed first column, relaxing the
  height requirement on one more column ("thm23");
* restricted Gabidulin codes over a divisibility tower extended by a
  staircase of extra columns ("staircase", and its two-level special case
  "cor28");
* assembling two codes block-diagonally ("combine"), and re-representing
  entries of an extension field by coordinate columns ("lift_vector") or
  multiplication matrices ("lift_matrix").

The staircase extension keeps, for every removal level nu, an exact
derived Gabidulin structure: level nu is the systematic form of a Moore
matrix on points obtained from the previous level's points by the kernel
map x -> x^q - c^{q-1} x and one fresh extension point, so each sub-matrix
contract holds by construction and exhaustive verification only confirms
it.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field

from .codes import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    CodeError,
    FdrmCode,
    canonical_basis,
    check_ambient,
    generator_subcode,
    is_optimal,
    mrd_check,
    verify_support,
)
from .fields import GF, FieldTower, build_tower, eliminate, gf
from .ferrers import FerrersDiagram, combine_diagrams, singleton_bound
from .linalg import rank, systematic_form


# Column samples the prescribed-column search may draw before it gives up.
SEARCH_BUDGET = 100_000


class ConstructionError(ValueError):
    """A construction's stated preconditions reject the input."""


@dataclass(frozen=True, eq=False)
class SystematicGenerator:
    """Generator of shape (I_k | A) over the tower's top field.

    `matrix` is its tuple of row tuples.  `delta` is the designed distance
    of the code generated on the leftmost eta - r columns.  `staircase`,
    when set, is (r, eta, d): entry (i, j) is zero for i < r and
    j >= eta - r + i, and removing the first nu rows, leftmost nu columns
    and rightmost r - nu columns leaves a systematic MRD generator for
    distance d + nu, for every 0 <= nu <= r.
    """

    tower: FieldTower
    matrix: tuple[tuple[int, ...], ...]
    delta: int
    staircase: tuple[int, int, int] | None = None
    provenance: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        G, k = self.matrix, self.k
        for i in range(k):
            for j in range(k):
                if G[i][j] != (1 if i == j else 0):
                    raise ConstructionError("left block is not the identity")
        if self.staircase is not None:
            r, eta, _ = self.staircase
            if any(len(row) != eta for row in G):
                raise ConstructionError("staircase width mismatch")
            for i in range(min(r, k)):
                for j in range(eta - r + i, eta):
                    if G[i][j] != 0:
                        raise ConstructionError(
                            f"staircase zero violated at ({i}, {j})"
                        )

    @property
    def k(self) -> int:
        return len(self.matrix)

    def removal_submatrix(self, nu: int) -> tuple[tuple[int, ...], ...]:
        """Drop the first nu rows, leftmost nu columns, rightmost r - nu columns."""
        if self.staircase is None:
            raise ConstructionError("generator carries no staircase metadata")
        r, eta, _ = self.staircase
        if not 0 <= nu <= r:
            raise ConstructionError(f"nu = {nu} outside 0..{r}")
        return tuple(row[nu : eta - r + nu] for row in self.matrix[nu:])


# -- Moore / Gabidulin generators --


def moore_matrix(tower: FieldTower, points, nrows: int) -> tuple[tuple[int, ...], ...]:
    """Rows g^[0], g^[1], ..., g^[nrows-1] of Frobenius powers of `points`."""
    rows = []
    cur = tuple(tower.field.check(g) for g in points)
    for _ in range(nrows):
        rows.append(cur)
        cur = tuple(tower.frobenius(g, 1) for g in cur)
    return tuple(rows)


def gabidulin_generator(tower: FieldTower, g, delta: int) -> tuple[tuple[int, ...], ...]:
    """Moore generator of the Gabidulin code on evaluation points g.

    Requires independent points, n <= t_l and 2 <= delta <= n; the
    generated code is MRD[t_l x n, delta]_q.
    """
    g = tuple(g)
    n = len(g)
    if n > tower.top_degree:
        raise ConstructionError(
            f"{n} evaluation points exceed top degree {tower.top_degree}"
        )
    if not 2 <= delta <= n:
        raise ConstructionError(f"delta {delta} out of range 2..{n}")
    if not tower.independent_over_level(g, 0):
        raise ConstructionError("evaluation points are dependent over F_q")
    return moore_matrix(tower, g, n - delta + 1)


def restricted_gabidulin(tower: FieldTower, n: int, delta: int) -> tuple[tuple[int, ...], ...]:
    """Gabidulin generator on the initial beta segment (beta_1, ..., beta_n).

    The window t_{l-1} < n <= t_l pins the points to the top tower level.
    """
    lower = tower.level_degree(tower.levels - 1)
    if not lower < n <= tower.top_degree:
        raise ConstructionError(
            f"n = {n} outside ({lower}, {tower.top_degree}]"
        )
    return gabidulin_generator(tower, tower.betas[:n], delta)


# -- exact MRD witness test (kernel-space enumeration) --
# A full-rank k x n generator G has a nonzero codeword of rank below
# n - k + 1 iff G W is singular for some full-column-rank n x k W over F_q;
# one W per column space suffices, far fewer than the codewords.


def _subspace_reps(base: GF, n: int, k: int):
    """RREF representatives of the k-dimensional subspaces of F_q^n."""
    for pivots in itertools.combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivots
        ]
        for fill in itertools.product(range(base.order), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, pc in enumerate(pivots):
                rows[i][pc] = 1
            for (i, j), v in zip(free, fill):
                rows[i][j] = v
            yield rows


@functools.lru_cache(maxsize=None)
def _witness_groups(p: int, s: int, n: int, k: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
    """Kernel witnesses grouped by their rightmost involved generator column.

    groups[c] holds the RREF representatives (rows of W^T) whose support
    ends exactly at column c, so a candidate column can be screened as soon
    as it is sampled.
    """
    base = gf(p, s)
    groups: list[list] = [[] for _ in range(n)]
    for rows in _subspace_reps(base, n, k):
        support_max = max(j for r in rows for j, v in enumerate(r) if v)
        groups[support_max].append(tuple(tuple(r) for r in rows))
    return tuple(tuple(g) for g in groups)


def _prepare_witnesses(tower: FieldTower, group) -> tuple:
    """Embed witness coefficients once: ((col, value) pairs per GW column)."""
    emb = [tower.base_embed(v) for v in range(tower.base.order)]
    out = []
    for w_rows in group:
        out.append(
            tuple(
                tuple((j, emb[wv]) for j, wv in enumerate(wr) if wv)
                for wr in w_rows
            )
        )
    return tuple(out)


def _det_nonzero(f, gw, k: int) -> bool:
    """True iff the k x k matrix `gw` (row lists, consumed) is invertible.

    Closed-form determinants for k <= 3 keep the prescribed-column search
    about twice as fast as elimination would.
    """
    if k == 1:
        return gw[0][0] != 0
    if k == 2:
        return f.sub(f.mul(gw[0][0], gw[1][1]), f.mul(gw[0][1], gw[1][0])) != 0
    if k == 3:
        pos = f.add(
            f.add(
                f.mul(gw[0][0], f.mul(gw[1][1], gw[2][2])),
                f.mul(gw[0][1], f.mul(gw[1][2], gw[2][0])),
            ),
            f.mul(gw[0][2], f.mul(gw[1][0], gw[2][1])),
        )
        neg = f.add(
            f.add(
                f.mul(gw[0][2], f.mul(gw[1][1], gw[2][0])),
                f.mul(gw[0][0], f.mul(gw[1][2], gw[2][1])),
            ),
            f.mul(gw[0][1], f.mul(gw[1][0], gw[2][2])),
        )
        return f.sub(pos, neg) != 0
    return len(eliminate(gw, f)) == k


def _gw_invertible(tower: FieldTower, cols, prepared) -> bool:
    """True iff G W is invertible; G given by column tuples, W prepared."""
    f = tower.field
    add, mul = f.add, f.mul
    k = len(cols[0])
    gw = []
    for i in range(k):
        row = []
        for pairs in prepared:
            acc = 0
            for j, ev in pairs:
                v = cols[j][i]
                if v:
                    acc = add(acc, v if ev == 1 else mul(v, ev))
            row.append(acc)
        gw.append(row)
    return _det_nonzero(f, gw, k)


def _free_column_isometry(tower: FieldTower, cols, rng) -> tuple[tuple[int, ...], ...]:
    """Rows of the k x n generator with columns `cols` after random F_q-column
    operations that fix columns 0..k and mix the rest.

    Free column c becomes sum_u T[u][c] col_u (u free, T invertible) plus
    sum_{j <= k} S[j][c] col_j: right multiplication by an invertible
    F_q-matrix, which keeps the rank of every codeword.
    """
    f, base = tower.field, tower.base
    k, n = len(cols[0]), len(cols)
    free = range(k + 1, n)
    while True:
        T = [[rng.randrange(base.order) for _ in free] for _ in free]
        if not T or rank(base, T) == len(T):
            break
    emb = [tower.base_embed(v) for v in range(base.order)]
    out = list(cols[: k + 1])
    for t in range(len(free)):
        coeffs = [emb[rng.randrange(base.order)] for _ in range(k + 1)]
        coeffs += [emb[row[t]] for row in T]
        new = [0] * k
        for a, col in zip(coeffs, cols):
            if a:
                new = [f.add(x, f.mul(a, v)) for x, v in zip(new, col)]
        out.append(tuple(new))
    return tuple(zip(*out))


def systematic_mrd_with_first_column(
    tower: FieldTower,
    a,
    delta: int,
    n: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> SystematicGenerator:
    """Verified systematic MRD generator whose A-block starts with column a.

    Existence is guaranteed for independent (1, a_1, ..., a_k); the cited
    construction is replaced by a column-incremental search: each free
    column is sampled until the kernel witnesses ending at it pass, with
    global restarts.  The search runs in one fixed pseudo-random order, so
    its cost does not depend on `seed`.  The seed then picks an isometric
    copy: F_q-column operations that map each free column to an invertible
    combination of the free columns plus any combination of the first k+1
    columns preserve every codeword's rank and fix [I | a].  The result is
    checked exhaustively.  The first column is exact, never approximated.
    """
    a = tuple(tower.field.check(x) for x in a)
    m = tower.top_degree
    k = n - delta + 1
    if not m >= n >= delta >= 2:
        raise ConstructionError(f"need m >= n >= delta >= 2, got {(m, n, delta)}")
    if len(a) != k:
        raise ConstructionError(f"need k = {k} prescribed entries, got {len(a)}")
    if not tower.independent_over_level((1,) + a, 0):
        raise ConstructionError("(1, a_1, ..., a_k) dependent over F_q")

    groups = [
        _prepare_witnesses(tower, g) for g in _witness_groups(tower.p, tower.s, n, k)
    ]
    cols: list[tuple[int, ...] | None] = [
        tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
    ]
    cols.append(a)
    cols.extend([None] * (n - k - 1))
    for c in range(k + 1):
        for prepared in groups[c]:
            if not _gw_invertible(tower, cols, prepared):
                raise CodeError(
                    "prescribed column fails a fixed witness despite the "
                    "independence precondition"
                )

    rng = random.Random(0)
    attempts = 0
    # Most sampled prefixes leave no valid next column at all (at q^m = 32,
    # k = 2 about 7 in 8 do), so a column gets few tries before a restart.
    per_column = 32
    while True:
        done = True
        for c in range(k + 1, n):
            placed = False
            for _ in range(per_column):
                attempts += 1
                if attempts > SEARCH_BUDGET:
                    raise ConstructionError(
                        f"no verified candidate within {SEARCH_BUDGET} sampled "
                        "columns, although one exists: the search gave up"
                    )
                cols[c] = tuple(rng.randrange(tower.field.order) for _ in range(k))
                if all(_gw_invertible(tower, cols, w) for w in groups[c]):
                    placed = True
                    break
            if not placed:
                done = False
                break
        if done:
            break

    G = _free_column_isometry(tower, cols, random.Random(seed))
    if not mrd_check(tower, G, delta, budget):
        raise CodeError("witness filter and exhaustive check disagree")
    return SystematicGenerator(
        tower=tower,
        matrix=G,
        delta=delta,
        provenance={"construction": "prescribed-first-column",
                    "seed": seed, "attempts": attempts},
    )


# -- shortening construction --


def full_support_code(base: GF, diagram: FerrersDiagram, provenance=None) -> FdrmCode:
    """All matrices supported on the diagram: the trivial distance-1 code."""
    check_ambient(diagram)
    basis = []
    m, n = diagram.m, diagram.n
    for j in range(n):
        for i in range(diagram.gammas[j]):
            flat = [0] * (m * n)
            flat[i * n + j] = 1
            basis.append(tuple(flat))
    return FdrmCode(
        field=base,
        diagram=diagram,
        basis=tuple(basis),
        claimed_delta=1,
        provenance=provenance or {"construction": "full-support"},
    )


def construct_shortened(
    tower: FieldTower, diagram: FerrersDiagram, delta: int
) -> FdrmCode:
    """Optimal code on a diagram whose rightmost delta-1 columns have >= n dots.

    Shortens a Gabidulin [t_l x n, delta] code by confining the systematic
    message coordinates to beta spans of sizes gamma_0, ..., gamma_{k-1};
    the t_l-row codewords sit over zero rows up to m.
    """
    prov = {"construction": "shortened", "diagram": diagram.text(), "delta": delta}
    return _shortened(tower, diagram, delta, prov)


def _shortened(tower: FieldTower, diagram: FerrersDiagram, delta: int, prov: dict) -> FdrmCode:
    """`construct_shortened` under the caller's provenance."""
    n = diagram.n
    if not 1 <= delta <= n:
        raise ConstructionError(f"delta {delta} out of range 1..{n}")
    if delta == 1:
        return full_support_code(tower.base, diagram, provenance=prov)
    k = n - delta + 1
    if diagram.gammas[k] < n:
        raise ConstructionError(
            f"rightmost {delta - 1} columns need >= {n} dots; "
            f"gamma_{k} = {diagram.gammas[k]}"
        )
    t_l = tower.top_degree
    if t_l < n:
        raise ConstructionError(f"tower top degree {t_l} < n = {n}")
    if diagram.gammas[k - 1] > t_l:
        raise ConstructionError(
            f"gamma_{k-1} = {diagram.gammas[k-1]} exceeds tower top degree {t_l}"
        )
    if diagram.gammas[k] < t_l:
        raise ConstructionError(
            f"gamma_{k} = {diagram.gammas[k]} below tower top degree {t_l}: "
            "use a tighter tower"
        )
    S = systematic_form(tower.field, gabidulin_generator(tower, tower.betas[:n], delta))
    return generator_subcode(tower, S, diagram, delta, prov)


def construct_prescribed_column(
    tower: FieldTower,
    diagram: FerrersDiagram,
    delta: int,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> FdrmCode:
    """Optimal code relaxing the dot requirement on the (delta-1)-th column
    from the right (wire id "thm23").

    Condition (1): gamma_k >= n, or gamma_k - k >= gamma_i - i for all
    i < k.  Condition (2): gamma_{k+1} >= n.  When gamma_k >= n this is
    plain shortening; otherwise a systematic MRD generator with prescribed
    first column (beta^k, ..., beta) is restricted onto the diagram and the
    code's support is checked to fit inside it.
    """
    gam = diagram.gammas
    n, m = diagram.n, diagram.m
    if not m >= n >= delta >= 2:
        raise ConstructionError(f"need m >= n >= delta >= 2, got {(m, n, delta)}")
    k = n - delta + 1
    cond1 = gam[k] >= n or all(gam[k] - k >= gam[i] - i for i in range(k))
    if not cond1:
        raise ConstructionError("condition (1) fails: column k too short")
    if k + 1 <= n - 1 and gam[k + 1] < n:
        raise ConstructionError(
            f"condition (2) fails: gamma_{k+1} = {gam[k+1]} < n = {n}"
        )
    prov = {
        "construction": "thm23",
        "diagram": diagram.text(),
        "delta": delta,
        "seed": seed,
    }
    if gam[k] >= n:
        return _shortened(tower, diagram, delta, {**prov, "route": "shortened"})
    if tower.levels != 1 or tower.top_degree != n:
        raise ConstructionError(
            f"prescribed-column route needs the power-basis tower with chain ({n},)"
        )
    beta = tower.beta(2)  # the tower generator; betas are its power basis
    a = tuple(tower.field.pow_(beta, k - i) for i in range(k))
    gen = systematic_mrd_with_first_column(tower, a, delta, n, seed=seed, budget=budget)
    code = generator_subcode(tower, gen.matrix, diagram, delta, prov)
    if not verify_support(code):
        raise CodeError(f"produced code escapes the diagram {diagram.text()}")
    return code


# -- staircase-extended restricted Gabidulin construction --


def _column_level(tower: FieldTower, j: int) -> int:
    """Tower level whose field must contain entries of generator column j."""
    if tower.levels == 1:
        return 1
    if j >= tower.level_degree(tower.levels - 1):
        return tower.levels
    for x in range(1, tower.levels + 1):
        if j < tower.level_degree(x):
            return x
    return tower.levels


def build_extended_generator(
    tower: FieldTower,
    eta: int,
    r: int,
    d: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[SystematicGenerator, bool]:
    """Staircase generator (I_kappa | A_1 | ... | A_l) with verified removals.

    Level 0 is the systematic restricted Gabidulin code on
    (beta_1, ..., beta_{eta-r}); each further level nu maps the previous
    points through x -> x^q - c^{q-1} x (c the previous leading point),
    appends the smallest independent extension point, and takes the
    systematic Moore form.  Shorten-puncture uniqueness makes consecutive
    levels agree on their shared columns, so the assembled matrix carries
    the staircase zeros exactly and every removal sub-matrix generates an
    MRD[t_l x (eta-r), d+nu]_q code.  All r+1 sub-contracts are then
    verified exhaustively.  Returns (generator, all_verified): all_verified
    is False when some sub-contract exceeds the codeword budget, which the
    Moore structure guarantees regardless.
    """
    t_l = tower.top_degree
    lower = tower.level_degree(tower.levels - 1)
    L = eta - r
    kappa = L - d + 1
    if r < 0 or d < 1:
        raise ConstructionError("need r >= 0 and d >= 1")
    if not lower < L <= t_l:
        raise ConstructionError(
            f"eta - r = {L} outside ({lower}, {t_l}]"
        )
    if not r < kappa <= tower.level_degree(1):
        raise ConstructionError(
            f"need r < kappa <= t_1, got r={r}, kappa={kappa}, t_1={tower.level_degree(1)}"
        )

    f = tower.field
    points = list(tower.betas[:L])
    S0 = systematic_form(f, moore_matrix(tower, points, kappa))
    rows = [list(row) + [0] * r for row in S0]

    prev = points
    for nu in range(1, r + 1):
        c = prev[0]
        factor = f.div(tower.frobenius(c, 1), c)  # c^{q-1}
        core = [f.sub(tower.frobenius(x, 1), f.mul(factor, x)) for x in prev[1:]]
        ext = next(
            (x for x in range(1, f.order) if tower.independent_over_level(core + [x], 0)),
            None,
        )
        if ext is None:
            raise ConstructionError("no point extends the core independently over F_q")
        pts = core + [ext]
        S = systematic_form(f, moore_matrix(tower, pts, kappa - nu))
        for i in range(kappa - nu):
            for j in range(L - 1):
                if S[i][j] != rows[nu + i][nu + j]:
                    raise CodeError(
                        "derived level disagrees with shared columns: "
                        f"level {nu}, entry ({i}, {j})"
                    )
            rows[nu + i][L + nu - 1] = S[i][L - 1]
        prev = pts

    for j in range(kappa, eta):
        x = _column_level(tower, j)
        for i in range(kappa):
            if not tower.in_level(rows[i][j], x):
                raise CodeError(
                    f"entry ({i}, {j}) escapes level-{x} field"
                )

    gen = SystematicGenerator(
        tower=tower,
        matrix=tuple(map(tuple, rows)),
        delta=d,
        staircase=(r, eta, d),
        provenance={"construction": "extended-staircase", "eta": eta, "r": r, "d": d},
    )
    all_verified = True
    for nu in range(r + 1):
        sub = gen.removal_submatrix(nu)
        try:
            if not mrd_check(tower, sub, d + nu, budget):
                raise CodeError(f"removal sub-contract nu={nu} fails MRD check")
        except BudgetExceeded:
            all_verified = False
    return gen, all_verified


def construct_staircase(
    tower: FieldTower,
    diagram: FerrersDiagram,
    delta: int,
    r: int,
    w: int,
    budget: int = DEFAULT_BUDGET,
) -> FdrmCode:
    """Optimal code from a staircase-extended restricted Gabidulin generator.

    Codewords stack the coordinate matrix of u G over shifted truncated
    message columns over a zero block; messages are confined to beta spans
    of sizes gamma_0, ..., gamma_{k-1} (`generator_subcode` with r
    staircase columns).
    """
    gam = diagram.gammas
    n = diagram.n
    t_1 = tower.level_degree(1)
    t_l = tower.top_degree
    l = tower.levels
    if delta == 1:
        if r != 0:
            raise ConstructionError("delta = 1 requires r = 0")
        return full_support_code(
            tower.base, diagram,
            provenance={"construction": "staircase", "trivial": True},
        )
    if not r + 1 <= delta <= n - r:
        raise ConstructionError(f"need r+1 <= delta <= n-r, got r={r}, delta={delta}")
    lower = tower.level_degree(l - 1)
    if not lower < n - r <= t_l:
        raise ConstructionError(f"n - r = {n - r} outside ({lower}, {t_l}]")
    k = n - delta + 1
    if k > t_1:
        raise ConstructionError(f"k = {k} exceeds t_1 = {t_1}")
    if l == 1:
        if w != 1:
            raise ConstructionError("w must be 1 for a single-level tower")
    else:
        s_2 = tower.level_degree(2) // t_1
        if not 1 <= w <= s_2:
            raise ConstructionError(f"w = {w} outside 1..{s_2}")
    if gam[k - 1] > w * t_1:
        raise ConstructionError(
            f"condition (1) fails: gamma_{k-1} = {gam[k-1]} > w*t_1 = {w * t_1}"
        )
    if k < t_1 and delta >= 2 and gam[k] < w * t_1:
        raise ConstructionError(
            f"condition (2) fails: gamma_{k} = {gam[k]} < w*t_1 = {w * t_1}"
        )
    for theta in range(1, l):
        t_th = tower.level_degree(theta)
        t_next = tower.level_degree(theta + 1)
        if gam[t_th] < t_next:
            raise ConstructionError(
                f"condition (3) fails at theta = {theta}: "
                f"gamma_{t_th} = {gam[t_th]} < t_{theta + 1} = {t_next}"
            )
    for h in range(r):
        need = t_l + sum(gam[: h + 1])
        if gam[n - r + h] < need:
            raise ConstructionError(
                f"condition (4) fails at h = {h}: "
                f"gamma_{n - r + h} = {gam[n - r + h]} < {need}"
            )

    gen, verified = build_extended_generator(tower, eta=n, r=r, d=delta - r, budget=budget)
    if gen.k != k:
        raise CodeError("staircase generator row count mismatch")

    prov = {
        "construction": "staircase",
        "diagram": diagram.text(),
        "delta": delta,
        "r": r,
        "w": w,
        "chain": list(tower.chain),
        "generator_verified": verified,
    }
    return generator_subcode(tower, gen.matrix, diagram, delta, prov, r=r)


def construct_staircase_l2(
    tower: FieldTower,
    diagram: FerrersDiagram,
    delta: int,
    r: int,
    w: int,
    budget: int = DEFAULT_BUDGET,
) -> FdrmCode:
    """Two-level special case of the staircase construction (wire id "cor28").

    The tower must be exactly F_q < F_{q^{t_1}} < F_{q^{s t_1}}.
    """
    if tower.levels != 2:
        raise ConstructionError(
            f"two-level construction needs chain (t_1, t_2), got {tower.chain}"
        )
    t_1, t_2 = tower.chain
    if t_2 % t_1:
        raise ConstructionError(f"t_2 = {t_2} is not a multiple of t_1 = {t_1}")
    code = construct_staircase(tower, diagram, delta, r, w, budget=budget)
    code.provenance["construction"] = "cor28"
    code.provenance["s"] = t_2 // t_1
    return code


# -- combining and lifting --


def combine_codes(
    c1: FdrmCode, c2: FdrmCode, m3: int, n3: int
) -> FdrmCode:
    """Block combination: c1 top-left, c2 bottom-right, full block in between.

    Bases are paired index-wise after deterministic canonicalization; the
    full top-right block region stays zero, so every nonzero codeword's
    rank adds across the two diagonal blocks and the distances sum.
    """
    if c1.field is not c2.field:
        raise ConstructionError("codes must share one base field")
    if c1.dimension != c2.dimension:
        raise ConstructionError(
            f"dimension mismatch: {c1.dimension} != {c2.dimension}"
        )
    diagram = check_ambient(combine_diagrams(c1.diagram, c2.diagram, m3, n3))
    m, n = diagram.m, diagram.n
    (m1, n1), (m2, n2) = c1.ambient, c2.ambient
    basis = []
    for x, y in zip(canonical_basis(c1), canonical_basis(c2)):
        flat = [0] * (m * n)
        for i in range(m1):
            flat[i * n : i * n + n1] = x[i * n1 : (i + 1) * n1]
        for i in range(m2):
            flat[(m3 + i + 1) * n - n2 : (m3 + i + 1) * n] = y[i * n2 : (i + 1) * n2]
        basis.append(tuple(flat))
    return FdrmCode(
        field=c1.field,
        diagram=diagram,
        basis=tuple(basis),
        claimed_delta=c1.claimed_delta + c2.claimed_delta,
        provenance={
            "construction": "combine",
            "parts": [c1.provenance.get("construction"), c2.provenance.get("construction")],
            "deltas": [c1.claimed_delta, c2.claimed_delta],
            "m3": m3,
            "n3": n3,
        },
    )


def _lift(code: FdrmCode, m: int | None, matrix: bool) -> FdrmCode:
    """Shared body of `lift_vector` and `lift_matrix`, read off psi on the
    one-level tower of the entry field over its degree-(N/m) subfield, whose
    betas are the power basis (1, alpha, ..., alpha^{m-1}).  Basis matrix b
    gives the lifts of theta b for each beta theta; a nonzero entry x of
    theta b becomes the m x width block psi(x beta_v for v < width): the
    multiplication-by-x matrix when `matrix` (width m), else its column 0,
    the coordinates of x itself as beta_1 = 1 (width 1)."""
    field = code.field
    degree = field.degree
    m = degree if m is None else m
    if m < 1 or degree % m:
        raise ConstructionError(f"lift degree {m} does not divide {degree}")
    if m == 1:
        return code
    width = m if matrix else 1
    gammas = tuple(m * g for g in code.diagram.gammas for _ in range(width))
    diagram = check_ambient(FerrersDiagram(gammas))
    tower = build_tower(field.p, degree // m, (m,))
    n, wide = code.diagram.n, diagram.n
    basis = []
    for theta in tower.betas:
        for b in code.basis:
            flat = [0] * (diagram.m * wide)
            for cell, e in enumerate(b):
                if e:
                    i, j = divmod(cell, n)
                    x = field.mul(theta, e)
                    for v, a in enumerate(tower.betas[:width]):  # block column v
                        for u, c in enumerate(tower.beta_coords(field.mul(x, a))):
                            flat[(i * m + u) * wide + j * width + v] = c
            basis.append(tuple(flat))
    return FdrmCode(
        field=tower.base,
        diagram=diagram,
        basis=tuple(basis),
        claimed_delta=width * code.claimed_delta,
        provenance={"construction": "lift_matrix" if matrix else "lift_vector", "m": m,
                    "inner": code.provenance.get("construction")},
    )


def lift_vector(code: FdrmCode, m: int | None = None) -> FdrmCode:
    """Re-represent each entry as its coordinate column over a subfield.

    An [F, k, delta] code over the degree-m extension becomes an
    [mF, mk, delta] code over the subfield, with mF = [m*gamma_j]_j.
    """
    return _lift(code, m, matrix=False)


def lift_matrix(code: FdrmCode, m: int | None = None) -> FdrmCode:
    """Re-represent each entry as its multiplication matrix over a subfield.

    An [F, k, delta] code over the degree-m extension becomes an
    [F', mk, m*delta] code over the subfield, where F' repeats each column
    height m*gamma_j m times.  Ranks multiply by at least m because an
    invertible minor maps to an invertible block minor.
    """
    return _lift(code, m, matrix=True)


def lift_matrix_optimal(
    code: FdrmCode, m: int | None = None, budget: int = DEFAULT_BUDGET
) -> FdrmCode:
    """Matrix lift of an optimal full-distance code, re-certified optimal.

    Requires delta = n and dimension gamma_0 on the input; the lifted code
    attains the bound for distance m*n on the repeated diagram.
    """
    n = code.diagram.n
    if code.claimed_delta != n:
        raise ConstructionError(
            f"input distance {code.claimed_delta} != column count {n}"
        )
    if code.dimension != code.diagram.gammas[0]:
        raise ConstructionError(
            f"input dimension {code.dimension} != gamma_0 = {code.diagram.gammas[0]}"
        )
    if not is_optimal(code, n, budget):
        raise ConstructionError("input code is not certified optimal")
    out = lift_matrix(code, m)
    bound, _ = singleton_bound(out.diagram, out.claimed_delta)
    if bound != out.dimension:
        raise CodeError(
            f"lifted bound {bound} != lifted dimension {out.dimension}"
        )
    out.provenance["construction"] = "lift_matrix_optimal"
    return out


# -- canonical towers for the CLI and tests --


def tower_for_shortened(p: int, s: int, diagram: FerrersDiagram, delta: int) -> FieldTower:
    """Smallest single-level tower serving the shortening construction."""
    n = diagram.n
    if delta == 1:
        return build_tower(p, s, (max(n, 1),))
    k = n - delta + 1
    t_l = max(n, diagram.gammas[k - 1])
    return build_tower(p, s, (t_l,))


def tower_for_prescribed(p: int, s: int, diagram: FerrersDiagram, delta: int) -> FieldTower:
    """Tower for the prescribed-first-column construction (wire id "thm23")."""
    n = diagram.n
    k = n - delta + 1
    if delta >= 2 and diagram.gammas[k] >= n:
        return tower_for_shortened(p, s, diagram, delta)
    return build_tower(p, s, (n,))
