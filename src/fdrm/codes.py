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

import random
from dataclasses import dataclass

from . import _gf2
from .fields import DEFAULT_MAX_DEGREE, GF, FieldTower, eliminate, gf
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
            raise CodeError(
                f"claimed distance {self.claimed_delta} outside 1..{min(m, n)}"
            )
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
    one packed int per matrix row; every other code goes to `_flat_rank`
    as flat row-major entry lists.
    """
    powers = [field.alpha_pow(j) for j in range(1, field.degree)]
    expanded = []
    for row in flat:
        expanded.append(row)
        expanded.extend([field.mul(a, x) for x in row] for a in powers)
    if field.p == 2 and field.degree == 1 and n <= 64:
        return True, [
            _gf2.pack_rows([r[i : i + n] for i in range(0, len(r), n)], n)
            for r in expanded
        ]
    return False, expanded


def _flat_rank(field: GF, n: int, flat: list) -> int:
    """Rank of the matrix with n columns stored row-major in `flat`."""
    return len(eliminate([flat[i : i + n] for i in range(0, len(flat), n)], field))


def _odometer_ranks(field: GF, n: int, offset: list, span: list):
    """Generic kernel: the rank of every member of `offset` + GF(p)-span(`span`).

    Matrices are flat row-major entry lists with n columns; the message
    digits advance as an odometer, so each step adds one basis matrix.
    """
    add = field.add
    p = field.p
    K = len(span)
    msg = [0] * K
    cur = offset
    for _ in range(p**K):
        yield _flat_rank(field, n, cur)
        for i in range(K):
            cur = [add(a, b) for a, b in zip(cur, span[i])]
            msg[i] += 1
            if msg[i] < p:
                break
            msg[i] = 0


def _min_rank(
    code: FdrmCode, budget: int, floor: int | None, line: int = 1
) -> int:
    """Minimum rank over the nonzero codewords, from the side with less to walk.

    The budget counts the claim's q^k' codewords, whichever side is walked.
    The projective walk ranks (q^k' - 1)/(q^line - 1) representatives; the
    Delsarte dual has (q^{mn-k'} - 1)/(q - 1) F_q-lines.  When the dual has
    fewer, `_dual_distribution` walks it in full and the exact minimum is
    read off the code's rank distribution.  Otherwise `_projective_min_rank`
    runs, and with `floor` set it may stop at the first rank below `floor`,
    which then only means the claim fails.
    """
    kp = code.dimension
    if kp < 1:
        raise CodeError("zero-dimensional code has no distance")
    q = code.field.order
    total = q**kp
    if total > budget:
        raise BudgetExceeded(
            f"{total} codewords exceed budget {budget}"
        )
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
    the walk stops once it sees a rank below `floor`.
    """
    field = code.field
    mrows, n = code.ambient
    packed, basis = _kernel_basis(field, n, code.basis)
    e = field.degree * line
    best = min(mrows, n) + 1
    for j in range(0, len(basis), e):
        offset, span = basis[j], basis[j + e :]
        if packed:
            ranks = [_gf2.min_rank_exhaustive(span, n, floor=floor, offset=offset)]
        else:
            ranks = _odometer_ranks(field, n, offset, span)
        for r in ranks:
            if r < best:
                best = r
                if floor is not None and best < floor:
                    return best
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
    """Count of codewords of each rank 0..min(m, n) in the F_q-span of the
    flat rows, from a full walk over one representative per F_q-line."""
    reps = [0] * (min(m, n) + 1)
    packed, basis = _kernel_basis(field, n, flat)
    e = field.degree
    for j in range(0, len(basis), e):
        offset, span = basis[j], basis[j + e :]
        if packed:
            reps = [a + b for a, b in zip(reps, _gf2.rank_histogram(span, n, offset=offset))]
        else:
            for r in _odometer_ranks(field, n, offset, span):
                reps[r] += 1
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
        a = rhs - sum(
            x * _gaussian_binomial(s - i, nu, q) for i, x in enumerate(dist)
        )
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


def sampled_min_rank(
    code: FdrmCode, samples: int, seed: int = 0
) -> int:
    """Minimum rank over random nonzero codewords (probe, not a proof)."""
    if samples < 1:
        raise CodeError(f"a probe needs at least one sample, got {samples}")
    if code.dimension < 1:
        raise CodeError("zero-dimensional code has no nonzero codeword")
    field, n = code.field, code.diagram.n
    packed, basis = _kernel_basis(field, n, code.basis)
    if packed:
        return _gf2.min_rank_sampled(basis, n, samples, seed)
    p = field.p
    add = field.add
    # multiples[i][d] = d * basis[i] for each digit d
    multiples = [
        [None] + [[field.mul(d, x) for x in b] for d in range(1, p)] for b in basis
    ]
    rng = random.Random(seed)
    best = min(code.diagram.m, n) + 1
    K = len(basis)
    for _ in range(samples):
        while True:
            digits = [rng.randrange(p) for _ in range(K)]
            if any(digits):
                break
        cur = [0] * len(basis[0])
        for d, mult in zip(digits, multiples):
            if d:
                cur = [add(a, b) for a, b in zip(cur, mult[d])]
        best = min(best, _flat_rank(field, n, cur))
    return best


def is_optimal(code: FdrmCode, delta: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Dimension meets the diagram bound, support holds, min rank >= delta."""
    bound, _ = singleton_bound(code.diagram, delta)
    if code.dimension != bound:
        return False
    if not verify_support(code):
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
        raise CodeError(
            f"exhaustive distance below claimed {code.claimed_delta}"
        )
    return code, "verified"


def generator_subcode(
    tower: FieldTower, G, diagram: FerrersDiagram, delta: int,
    provenance: dict, r: int = 0,
) -> FdrmCode:
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
    return generator_subcode(
        tower, G, diagram, delta, {"construction": "generator-expansion"}
    )


def mrd_check(
    tower: FieldTower,
    G,
    delta: int,
    budget: int = DEFAULT_BUDGET,
) -> bool:
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


def _row_string(field: GF, row) -> str:
    if field.order <= 16:
        return "".join(f"{e:x}" for e in row)
    return ".".join(str(e) for e in row)


def _row_parse(field: GF, text: str, ncols: int) -> tuple[int, ...]:
    """The entries of a row string, read only in the exact form `_row_string`
    writes (int() alone takes signs, spaces, "_", upper-case hex and
    non-ASCII digits): up to GF(16) one lower-case hex digit per entry,
    beyond that decimals that write back to `text`."""
    try:
        if field.order <= 16:
            vals = tuple(map("0123456789abcdef".index, text))
        else:
            vals = tuple(map(int, text.split(".")))
            if _row_string(field, vals) != text:
                vals = None
    except ValueError:
        vals = None
    if vals is None or len(vals) != ncols:
        raise CodeError(f"row {text!r} is not {ncols} entries over GF({field.order})")
    return vals


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
        "basis": [
            [_row_string(code.field, b[i : i + n]) for i in range(0, len(b), n)]
            for b in code.basis
        ],
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
    tell.  The entry field is checked against degree DEFAULT_MAX_DEGREE and
    order 2^DEFAULT_MAX_DEGREE before it is built, since building a field
    costs time that grows with its order.  Every malformed certificate
    raises CodeError, DiagramError or FieldError.
    """
    if type(data) is not dict:
        raise CodeError(f"certificate must be a JSON object, not {type(data).__name__}")
    json_value(data, "verified", bool, False)
    ef = json_value(data, "entry_field", dict)
    p, degree = json_value(ef, "p", int), json_value(ef, "degree", int)
    if not 1 <= degree <= DEFAULT_MAX_DEGREE or abs(p) ** degree > 1 << DEFAULT_MAX_DEGREE:
        raise CodeError(
            f"entry field GF({p}^{degree}) is outside degree 1..{DEFAULT_MAX_DEGREE}"
            f" and order 2^{DEFAULT_MAX_DEGREE}"
        )
    field = gf(p, degree)
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
    basis = tuple(
        tuple(e for r in rows for e in _row_parse(field, r, diagram.n))
        for rows in matrices
    )
    code = FdrmCode(field, diagram, basis, json_value(data, "delta", int), dict(provenance))
    if code.dimension != json_value(data, "dimension", int):
        raise CodeError("certificate dimension mismatch")
    return code
