"""Exact arithmetic in prime-power fields and divisibility towers.

Elements of GF(p^n) are plain ints in [0, p**n).  The base-p digits of an
int are the coefficients, lowest degree first, of its residue polynomial
modulo a fixed modulus.  The modulus is the lexicographically smallest
primitive polynomial of degree n over GF(p), coefficient vectors compared
low-degree-first, so every field here is canonical: two ints from fields
with equal (p, n) denote the same element.

A FieldTower models a chain F_q < F_{q^{t_1}} < ... < F_{q^{t_l}} with
q = p^s and consecutive divisibility t_{x-1} | t_x.  It carries, per level,
an ordered basis (alpha_{x,0}=1, alpha_{x,1}, ...) over the previous level,
and the derived ordered basis (beta_1=1, beta_2, ..., beta_{t_l}) of the
top field over F_q obtained by multiplying lower-level basis elements
through the chain.  The tower is the module's one coordinate map: psi, from
length-n vectors over the top field to t_l x n matrices over F_q, is taken
with respect to the betas, and the matrix representation pi and both lifts
read psi of products.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass


DEFAULT_MAX_DEGREE = 24


class FieldError(ValueError):
    """Invalid field construction or element usage."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p**s with p prime, or raise FieldError.

    Sizes above 2^DEFAULT_MAX_DEGREE are refused before trial division,
    whose cost grows with the square root of q.
    """
    if q > 1 << DEFAULT_MAX_DEGREE:
        raise FieldError(f"{q} exceeds the field order cap 2^{DEFAULT_MAX_DEGREE}")
    fs = prime_factors(q)
    if len(fs) != 1:
        raise FieldError(f"{q} is not a prime power")
    p = fs[0]
    s = 0
    while q > 1:
        q //= p
        s += 1
    return p, s


# -- polynomial helpers over GF(p), coefficients as digit lists (low first) --


def _digits(v: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(v % p)
        v //= p
    return out


def _undigits(ds, p: int) -> int:
    v = 0
    for d in reversed(ds):
        v = v * p + d
    return v


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """(a*b) mod the monic polynomial `mod` (degree n, length n+1)."""
    n = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for i in range(n):
                prod[d - n + i] = (prod[d - n + i] - c * mod[i]) % p
    return [c % p for c in prod[:n]] + [0] * max(0, n - len(prod))


def _poly_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    n = len(mod) - 1
    result = [1] + [0] * (n - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, mod, p)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, mod, p)
    return result


def _x_has_order(mod: list[int], p: int, group_order: int, factors: list[int]) -> bool:
    """True iff the class of x modulo `mod` has multiplicative order group_order."""
    n = len(mod) - 1
    x = [(-mod[0]) % p] if n == 1 else [0, 1] + [0] * (n - 2)
    one = [1] + [0] * (n - 1)
    if _poly_powmod(x, group_order, mod, p) != one:
        return False
    for r in factors:
        if _poly_powmod(x, group_order // r, mod, p) == one:
            return False
    return True


def smallest_primitive_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest primitive polynomial of degree n over GF(p).

    Returned as coefficients (c_0, ..., c_{n-1}, 1), low degree first.
    Candidates are compared on (c_0, ..., c_{n-1}).

    Only constant terms that pass the norm test are visited.  If f is
    primitive with root a, then c_0 = (-1)^n * a * a^p * ... * a^(p^(n-1)),
    and that product, the norm a^((p^n - 1)/(p - 1)), has order p - 1: it
    generates GF(p)^*.  A c_0 for which (-1)^n c_0 is not a generator
    (c_0 = 0 among them) therefore rules out every polynomial in its block,
    so skipping the block, in the same order, returns the same modulus as
    testing every candidate.  For p = 2 this leaves c_0 = 1; for GF(3^12) it
    skips the 3^11 candidates with c_0 = 1.
    """
    group_order = p**n - 1
    factors = prime_factors(group_order)
    sign = -1 if n % 2 else 1
    norm_factors = prime_factors(p - 1)
    for c0 in range(1, p):
        g = sign * c0 % p
        if any(pow(g, (p - 1) // r, p) == 1 for r in norm_factors):
            continue
        for rest in itertools.product(range(p), repeat=n - 1):
            mod = [c0, *rest, 1]
            if _x_has_order(mod, p, group_order, factors):
                return tuple(mod)
    raise FieldError(f"no primitive polynomial of degree {n} over GF({p})")


_TABLE_LIMIT = 1 << 20


class GF:
    """The finite field GF(p^n) with canonical primitive modulus.

    Elements are ints in [0, p**n).  For orders up to 2**20 discrete
    log/antilog tables back multiplication; beyond that polynomial
    arithmetic is used directly.  Building costs time that grows with the
    order, so degree 1..DEFAULT_MAX_DEGREE and order 2^DEFAULT_MAX_DEGREE
    are checked first, before p is tested for primality.

    `inv` and `pow_` raise FieldError on anything `check` rejects.  `add`,
    `sub`, `neg` and `mul` run once per matrix entry, so they do not check:
    they take only elements that `check` accepts.
    """

    def __init__(self, p: int, n: int):
        if not 1 <= n <= DEFAULT_MAX_DEGREE or abs(p) ** n > 1 << DEFAULT_MAX_DEGREE:
            raise FieldError(
                f"GF({p}^{n}) is outside degree 1..{DEFAULT_MAX_DEGREE}"
                f" and order 2^{DEFAULT_MAX_DEGREE}"
            )
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        self.p = p
        self.degree = n
        self.order = p**n
        self.modulus = smallest_primitive_modulus(p, n)
        self._mod_list = list(self.modulus)
        # The class of x is the canonical primitive element; for n == 1 the
        # modulus is x + c0 and the class of x is the scalar -c0.
        self.alpha = p if n > 1 else (-self.modulus[0]) % p
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.degree})"

    def __reduce__(self):
        return (gf, (self.p, self.degree))

    def _build_tables(self) -> None:
        """Fill exp[i] = alpha^i and its inverse log by stepping alpha^i * x.

        alpha is the class of x, so each step multiplies by x: shift the
        coefficients up one degree and, if a degree-n term `lead` appears,
        subtract lead times the modulus.  For p = 2 the int is the
        coefficient bit vector, so a step is a shift and at most one xor with
        the modulus.  For odd p the int's base-p digits are the coefficients:
        a step splits off the top digit, multiplies the rest by p, and
        rewrites digit j to (digit - lead * c_j) mod p for each nonzero c_j
        of the modulus (digit by digit, as a plain int sum would carry).
        Either way a step costs O(n), where a general product costs O(n^2).
        As the modulus is primitive the walk returns to 1 after exactly
        order - 1 steps, which is checked.
        """
        p, n, order = self.p, self.degree, self.order
        exp = [0] * (order - 1)
        log = [0] * order
        if p == 2:
            top = 1 << n
            mod = _undigits(self._mod_list, 2)
            cur = 1
            for i in range(order - 1):
                exp[i] = cur
                log[cur] = i
                cur <<= 1
                if cur & top:
                    cur ^= mod
        else:
            top = p ** (n - 1)
            terms = [(p**j, c) for j, c in enumerate(self._mod_list[:n]) if c]
            cur = 1
            for i in range(order - 1):
                exp[i] = cur
                log[cur] = i
                lead, cur = divmod(cur, top)
                cur *= p
                if lead:
                    for w, c in terms:
                        d = cur // w % p
                        cur += ((d - lead * c) % p - d) * w
        if cur != 1:
            raise FieldError("internal: modulus is not primitive")
        self._exp = exp
        self._log = log

    # -- element views --

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector of a over GF(p), low degree first."""
        return tuple(_digits(a, self.p, self.degree))

    def from_coeffs(self, cs) -> int:
        return _undigits([c % self.p for c in cs], self.p)

    def elements(self) -> range:
        return range(self.order)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldError(f"{a!r} is not an element of {self}")
        return a

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        while a:
            out += (-a % p) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        prod = _poly_mulmod(
            _digits(a, self.p, self.degree),
            _digits(b, self.p, self.degree),
            self._mod_list,
            self.p,
        )
        return _undigits(prod, self.p)

    def inv(self, a: int) -> int:
        if self.check(a) == 0:
            raise ZeroDivisionError("zero has no inverse")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow_(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_(self, a: int, e: int) -> int:
        self.check(a)
        if e == 0:
            return 1
        if a == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] * (e % (self.order - 1)) % (self.order - 1)]
        out = _poly_powmod(
            _digits(a, self.p, self.degree), e, self._mod_list, self.p
        )
        return _undigits(out, self.p)

    def alpha_pow(self, i: int) -> int:
        """alpha**i for the canonical primitive element alpha."""
        if self._exp is not None:
            return self._exp[i % (self.order - 1)]
        return self.pow_(self.alpha, i)

    def frob_p(self, a: int, i: int = 1) -> int:
        """a**(p**i), the i-fold absolute Frobenius."""
        if a == 0:
            return 0
        return self.pow_(a, pow(self.p, i, self.order - 1))

    def in_subfield(self, a: int, sub_degree: int) -> bool:
        """True iff a lies in the subfield GF(p^sub_degree)."""
        if self.degree % sub_degree:
            return False
        return self.frob_p(a, sub_degree) == a


@functools.lru_cache(maxsize=None)
def gf(p: int, n: int) -> GF:
    """Canonical GF(p^n) instance (cached per (p, n))."""
    return GF(p, n)


# -- Gaussian elimination --


def eliminate(rows: list[list[int]], field: GF, reduced: bool = False) -> list[int]:
    """Row-reduce `rows` over `field` in place; return the pivot columns.

    The one elimination routine of the package: rank, echelon and reduced
    forms, inverses and independence tests over GF(p) coordinates all run
    it.  The pivot is the first nonzero entry scanning top to bottom (exact
    fields have no magnitude to prefer), and each pivot row is scaled to a
    leading 1.  Pivot rows end up first, in order; with `reduced` every
    pivot column is cleared above its pivot as well, giving the reduced row
    echelon form.  The list is rewritten with new row lists, so the caller's
    row objects are never mutated.  The rank is len(pivots).
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    inv, mul, sub = field.inv, field.mul, field.sub
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        lead = inv(rows[r][c])
        prow = rows[r] = [mul(lead, x) for x in rows[r]]
        for i in range(nrows) if reduced else range(r + 1, nrows):
            fct = rows[i][c]
            if i != r and fct:
                rows[i] = [sub(x, mul(fct, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


@functools.lru_cache(maxsize=None)
def _canonical_root(p: int, n: int, e: int) -> int:
    """Element of GF(p^e) inside GF(p^n) satisfying the canonical GF(p^e) modulus.

    Searched once per (p, n, e): every tower over GF(p^e) with top field
    GF(p^n) shares it, among them the one-level tower `pi_expand` reads.
    """
    field, sub = gf(p, n), gf(p, e)
    if e == 1:
        return (-sub.modulus[0]) % p
    step = (field.order - 1) // (sub.order - 1)
    for u in range(1, sub.order):
        cand = field.alpha_pow(step * u)
        acc = 0
        for c in reversed(sub.modulus):
            acc = field.add(field.mul(acc, cand), c % p)
        if acc == 0:
            return cand
    raise FieldError("internal: no root of canonical modulus in subfield")


def _subfield_basis(field: GF, sub_deg: int) -> list[int]:
    """GF(p)-basis g^0, ..., g^{sub_deg-1} of the degree-sub_deg subfield,
    g = alpha^((p^n - 1)/(p^sub_deg - 1)) its primitive element."""
    g = field.alpha_pow((field.order - 1) // (field.p**sub_deg - 1))
    return [field.pow_(g, j) for j in range(sub_deg)]


def _extend_independent(field: GF, echelon: list, elems, sub_basis) -> list | None:
    """`echelon` and the GF(p) digits of e * b, for e in `elems` and b in
    `sub_basis`, row-reduced; None if these rows are dependent, that is, if
    `elems` are dependent modulo `echelon`'s span over the subfield that
    `sub_basis` spans over GF(p)."""
    rows = echelon + [list(field.coeffs(field.mul(e, b))) for e in elems for b in sub_basis]
    return rows if len(eliminate(rows, gf(field.p, 1))) == len(rows) else None


@dataclass(frozen=True, eq=False)
class FieldTower:
    """F_q < F_{q^{t_1}} < ... < F_{q^{t_l}} with ordered bases, q = p^s."""

    p: int
    s: int
    chain: tuple[int, ...]
    field: GF
    base: GF
    alphas: tuple[tuple[int, ...], ...]
    betas: tuple[int, ...]
    # r^0, ..., r^{s-1}, r the canonical root of F_q's modulus in the top field
    _root_pows: tuple[int, ...]
    # inverse of the GF(p) matrix whose columns are the digits of beta_i * r^j
    _coord_inv: tuple[tuple[int, ...], ...]

    @property
    def q(self) -> int:
        return self.p**self.s

    @property
    def levels(self) -> int:
        """l, the number of proper extension steps above F_q."""
        return len(self.chain)

    @property
    def top_degree(self) -> int:
        """t_l, the degree of the top field over F_q."""
        return self.chain[-1]

    def level_degree(self, x: int) -> int:
        """t_x with t_0 = 1."""
        if not 0 <= x <= len(self.chain):
            raise FieldError(f"level {x} outside tower with l={len(self.chain)}")
        return 1 if x == 0 else self.chain[x - 1]

    def __repr__(self) -> str:
        return f"FieldTower(q={self.q}, chain={self.chain})"

    # -- operations --

    def frobenius(self, a: int, i: int = 1) -> int:
        """a**(q**i)."""
        self.field.check(a)
        if i < 0:
            raise FieldError("Frobenius exponent must be >= 0")
        return self.field.frob_p(a, self.s * i)

    def in_level(self, a: int, x: int) -> bool:
        """True iff a lies in F_{q^{t_x}} (x = 0 means F_q)."""
        return self.field.in_subfield(a, self.s * self.level_degree(x))

    def beta(self, i: int) -> int:
        """beta_i, 1-indexed as in the ordered-basis notation."""
        return self.betas[i - 1]

    def beta_coords(self, a: int) -> tuple[int, ...]:
        """Coordinates of a in the beta basis, over canonical F_q."""
        av, s = self.field.coeffs(a), self.s
        digits = [sum(r * v for r, v in zip(row, av)) for row in self._coord_inv]
        # tuple of a list: tuple(genexpr) leaves a GC-counted object per call
        return tuple([self.base.from_coeffs(digits[i : i + s]) for i in range(0, len(digits), s)])

    def from_beta_coords(self, coords) -> int:
        """Inverse of beta_coords: sum coords_i * beta_i in the top field."""
        out = 0
        for c, b in zip(coords, self.betas):
            out = self.field.add(out, self.field.mul(self.base_embed(c), b))
        return out

    def base_embed(self, c: int) -> int:
        """Embed a canonical F_q element into the top field."""
        out = 0
        for d, rp in zip(self.base.coeffs(c), self._root_pows):
            out = self.field.add(out, self.field.mul(d, rp))
        return out

    def psi(self, vec) -> tuple[tuple[int, ...], ...]:
        """Row tuples of the t_l x n coordinate matrix of `vec` over F_q.

        Column j holds the beta coordinates of vec[j]; the map is F_q-linear
        and from_psi inverts it exactly.
        """
        cols = [self.beta_coords(self.field.check(v)) for v in vec]
        # built from lists: tuple(genexpr) leaves a GC-counted object per row
        return tuple([tuple([col[i] for col in cols]) for i in range(self.top_degree)])

    def expand(self, vec, count: int) -> list[tuple[tuple[int, ...], ...]]:
        """Coordinate matrices psi(beta_t * vec) for t = 1, ..., count, in order.

        Every construction turns a generator row into F_q-basis matrices
        here.  count = t_l spans the row's whole F_{q^{t_l}}-line, the block
        that `_min_rank(..., line=t_l)` walks as one; a smaller count
        confines the row's message coordinate to span(beta_1, ..., beta_count).
        Raises FieldError on an entry outside the top field.
        """
        mul, check = self.field.mul, self.field.check
        vec = [check(v) for v in vec]
        return [self.psi([mul(b, v) for v in vec]) for b in self.betas[:count]]

    def psi_inv(self, rows) -> tuple[int, ...]:
        rows = [tuple(r) for r in rows]
        if len(rows) != self.top_degree:
            raise FieldError(
                f"expected {self.top_degree} rows, got {len(rows)}"
            )
        n = len(rows[0]) if rows else 0
        return tuple(
            self.from_beta_coords(tuple(rows[i][j] for i in range(self.top_degree)))
            for j in range(n)
        )

    def pi_expand(self, a: int) -> tuple[tuple[int, ...], ...]:
        """Multiplication-by-a matrix in the power basis, over canonical F_q.

        Column j is psi(a * alpha^j) on the one-level tower over F_q (this
        tower, if it has one level), whose greedy betas are the power basis
        1, alpha, ..., alpha^{t_l - 1} because alpha has degree t_l over F_q.
        A field isomorphism onto its image: additive, multiplicative, and
        sending 1 to the identity matrix.  Requires the (always primitive)
        canonical modulus, so the image of the top-field generator is the
        companion matrix of its minimal polynomial over F_q.
        """
        self.field.check(a)
        power = build_tower(self.p, self.s, (self.top_degree,))
        return power.psi([self.field.mul(a, b) for b in power.betas])

    def independent_over_level(self, elems, x: int) -> bool:
        """True iff `elems` are linearly independent over F_{q^{t_x}}.

        Decided by the rank over GF(p) of the expanded coordinate matrix of
        {e * b : e in elems, b a GF(p)-basis of the level-x field}.
        """
        elems = [self.field.check(e) for e in elems]
        sub_deg = self.s * self.level_degree(x)
        if self.field.degree % sub_deg:
            raise FieldError("level field does not embed in the top field")
        sub_basis = _subfield_basis(self.field, sub_deg)
        return _extend_independent(self.field, [], elems, sub_basis) is not None

    def serialize(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "chain": list(self.chain),
            "modulus": list(self.field.modulus),
        }


def _greedy_level_basis(field: GF, p: int, s: int, t_prev: int, t_cur: int) -> tuple[int, ...]:
    """Ordered basis (1, ...) of F_{q^{t_cur}} over F_{q^{t_prev}}.

    After the forced leading 1, takes the smallest powers of the top-field
    primitive element that lie in F_{q^{t_cur}} and extend independence over
    F_{q^{t_prev}}.
    """
    count = t_cur // t_prev
    step = (field.order - 1) // (p ** (s * t_cur) - 1)
    # Computed once per call: every candidate's test reuses it.
    lower_basis = _subfield_basis(field, s * t_prev)
    chosen = [1]
    echelon = _extend_independent(field, [], chosen, lower_basis)
    j = step
    while len(chosen) < count:
        if j >= field.order - 1:
            raise FieldError("internal: ran out of powers building level basis")
        cand = field.alpha_pow(j)
        trial = _extend_independent(field, echelon, [cand], lower_basis)
        if trial is not None:
            echelon = trial
            chosen.append(cand)
        j += step
    return tuple(chosen)


@functools.lru_cache(maxsize=None)
def build_tower(p: int, s: int, chain: tuple[int, ...]) -> FieldTower:
    """Build the tower F_q < F_{q^{t_1}} < ... < F_{q^{t_l}}, q = p**s.

    `chain` is (t_1, ..., t_l); t_0 = 1 is implied.  Each t_{x-1} must
    divide t_x.  Deterministic for fixed inputs: canonical modulus, greedy
    canonical level bases.  `GF` checks the top field's size cap and p.
    """
    if s < 1:
        raise FieldError("base exponent s must be >= 1")
    chain = tuple(int(t) for t in chain)
    if not chain:
        raise FieldError("chain must contain at least t_1")
    prev = 1
    for t in chain:
        if t < prev or (t != prev and t % prev):
            raise FieldError(f"chain {chain} violates consecutive divisibility")
        if t == prev and t != 1:
            raise FieldError(f"chain {chain} must be strictly increasing")
        prev = t
    if len(set(chain)) != len(chain):
        raise FieldError(f"chain {chain} must be strictly increasing")
    n = s * chain[-1]
    field = gf(p, n)
    base = gf(p, s)

    alphas = [_greedy_level_basis(field, p, s, lo, hi) for lo, hi in zip((1,) + chain, chain)]
    # beta_{y*t_{x-1} + z} = beta_z * alpha_{x,y}: each level's basis times
    # the betas below it, lower index fastest.
    betas = [1]
    for level in alphas:
        betas = [field.mul(b, a) for a in level for b in betas]
    betas = tuple(betas)

    if betas[0] != 1:
        raise FieldError("internal: beta_1 != 1")
    for x in range(1, len(chain) + 1):
        deg = s * chain[x - 1]
        for a in alphas[x - 1]:
            if not field.in_subfield(a, deg):
                raise FieldError("internal: level basis element escapes its level")

    root = _canonical_root(p, n, s)
    root_pows = tuple(field.pow_(root, j) for j in range(s))
    # Columns of the matrix are the GF(p) digits of beta_i * root^j.
    digits = [field.coeffs(field.mul(b, rp)) for b in betas for rp in root_pows]
    aug = [[col[i] for col in digits] + [int(i == j) for j in range(n)] for i in range(n)]
    if eliminate(aug, gf(p, 1), reduced=True) != list(range(n)):
        raise FieldError("coordinate basis matrix is singular")

    return FieldTower(
        p=p,
        s=s,
        chain=chain,
        field=field,
        base=base,
        alphas=tuple(alphas),
        betas=betas,
        _root_pows=root_pows,
        _coord_inv=tuple(tuple(r[n:]) for r in aug),
    )
