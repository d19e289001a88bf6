"""Finite rings with exact dense-table arithmetic.

Rings are described by small composable specs (integers mod m, a prime
field extended by a monic irreducible polynomial, matrix rings,
products, explicit validated multiplication tables, radical quotients)
and built into Ring objects holding dense numpy operation tables.

Additively every ring here is a product of cyclic groups
Z/m_1 x ... x Z/m_k, called the coordinate shape, and the shape alone
fixes addition: it is coordinatewise modulo the m_i. Multiplication is
biadditive, so it is fixed by the structure constants c[i, j], the
coordinates of e_i*e_j for the coordinate unit vectors e_i: coordinate
l of x*y is sum(x_i y_j c[i, j, l]) mod m_l. A builder supplies only the
moduli, the constants and the identity, and `_tables` is the one place
that turns constants into a multiplication table; `Ring.constants` reads
them back off any table. An element is the integer index of its
coordinate tuple in mixed radix (coordinate 0 least significant), so
index 0 is the additive zero, element equality is integer equality, and
subsets of a ring pack into bitmasks. `_mixed_radix` is the one decoder
of such indices and `_encode` the one encoder; group algebras use them
too, and Cayley tables share `_read_table` and `_audit_monoid`.

Structural queries (unit group, Jacobson radical, locality, existence
of a generating character) are computed exhaustively from the tables
and cached on the Ring instance.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Union

import numpy as np

from .config import AUDIT_LIMIT, DEFAULT_FROBENIUS_BOUND, TABLE_LIMIT
from .errors import ConstructionError, FalsificationError, ScaleError
from .records import Record


# ---------------------------------------------------------------------------
# specs

class Zmod(Record):
    """Integers modulo m, m >= 2."""
    m: int


class PolyQuot(Record):
    """Z/p extended by a monic irreducible polynomial.

    `modulus` lists coefficients constant term first; the leading
    coefficient must be 1. Reducible moduli are rejected with a factor
    named in the error.
    """
    p: int
    modulus: tuple[int, ...]


class MatrixRing(Record):
    """n x n matrices over a base ring."""
    n: int
    base: "RingSpec"


class ProductRing(Record):
    """Direct product of rings with componentwise operations."""
    factors: tuple["RingSpec", ...]


class TableRing(Record):
    """Ring given by an explicit multiplication table.

    Addition is coordinatewise in the declared moduli; the
    multiplication table is audited at load (associativity, both
    distributive laws, existence of an identity).
    """
    moduli: tuple[int, ...]
    mul: tuple[tuple[int, ...], ...]
    label: str = "table"


class RadicalQuotient(Record):
    """Quotient of a local base ring by its Jacobson radical."""
    base: "RingSpec"


RingSpec = Union[Zmod, PolyQuot, MatrixRing, ProductRing, TableRing, RadicalQuotient]


# ---------------------------------------------------------------------------
# small numeric helpers

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_text(coeffs) -> str:
    """Render a coefficient list (constant first) as a readable polynomial."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(terms) if terms else "0"


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num by monic den over Z/p, constant term first."""
    num = [c % p for c in num]
    d = len(den) - 1
    while len(num) > d:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - d
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while len(num) < d:
        num.append(0)
    return num


def _mixed_radix(radices) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the mixed-radix index over `radices` (digit 0 least
    significant) and the digits of every index, one row per index."""
    weights = np.cumprod((1,) + tuple(radices)[:-1], dtype=np.int64)
    idx = np.arange(math.prod(radices), dtype=np.int64)
    digits = (idx[:, None] // weights) % np.array(radices, dtype=np.int64)
    return weights, digits.astype(np.int32)


def _encode(digits, radices, weights, noun: str) -> int:
    """The mixed-radix index of one digit per radix; ValueError names
    a wrong count or the first `noun` out of range."""
    digits = [int(d) for d in digits]
    if len(digits) != len(radices):
        raise ValueError(f"expected {len(radices)} {noun}s, got {len(digits)}")
    for d, r in zip(digits, radices):
        if not 0 <= d < r:
            raise ValueError(f"{noun} {d} out of range [0, {r})")
    return sum(d * int(w) for d, w in zip(digits, weights))


def _add_table(moduli) -> np.ndarray:
    """The (card, card) int32 addition table on the coordinate shape
    `moduli`. Addition is coordinatewise, so the table is the sum of the
    tables of the low and the high half of the coordinates, the high
    one scaled by the low half's card."""
    if len(moduli) == 1:
        ar = np.arange(moduli[0], dtype=np.int32)
        return (ar[:, None] + ar) % moduli[0]
    lo = _add_table(moduli[:len(moduli) // 2])
    hi = _add_table(moduli[len(moduli) // 2:])
    table = hi[:, None, :, None] * len(lo) + lo[:, None, :]
    return table.reshape(len(lo) * len(hi), -1)


def _tables(moduli, c) -> tuple[np.ndarray, np.ndarray]:
    """The addition and multiplication tables on the coordinate shape
    `moduli` with structure constants `c`, c[i, j] the coordinates of
    e_i*e_j: coordinate l of x*y is X C_l Y^T mod m_l. By distributivity
    x*y = x*y_lo + x*y_hi, where y_lo keeps the low half of y's
    coordinates and y_hi the high half, so only the products with the
    elements of each half are computed (for GF(4096), 2 x 64 columns
    instead of 4096), and the table gathers their sums from `add`."""
    add = _add_table(moduli)
    weights, coords = _mixed_radix(moduli)
    c = np.asarray(c, dtype=np.int32)
    split = math.prod(moduli[:len(moduli) // 2])    # y = y_lo + y_hi
    ys = np.r_[0:split, 0:len(coords):split]        # the elements of each half
    # at most k * m_l * max(m) <= card^2 before the remainder: int32, as
    # card <= TABLE_LIMIT
    part = np.zeros((len(coords), len(ys)), dtype=np.int32)
    for l, m in enumerate(moduli):
        part += (coords @ c[:, :, l] % m) @ coords[ys].T % m * int(weights[l])
    lo, hi = part[:, :split], part[:, split:]
    # x*y at y = y_lo + split * b: x*y_lo + hi[x, b]
    return add, add[lo[:, None, :], hi[:, :, None]].reshape(add.shape)


def _read_table(rows, n: int, what: str) -> tuple[np.ndarray, int]:
    """The n x n int32 table of explicit rows and its least identity.
    The row count, each row's length and each entry's range are checked
    on the rows as given, before any array exists."""
    if len(rows) != n:
        raise ConstructionError(f"{what} must be {n}x{n}, got {len(rows)} rows")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ConstructionError(f"{what} is not square: row {i} has "
                                    f"{len(row)} entries, not {n}")
        if min(row) < 0 or max(row) >= n:
            j, v = next((j, v) for j, v in enumerate(row) if not 0 <= v < n)
            raise ConstructionError(f"{what} entry {v} at ({i}, {j}) out of "
                                    f"range [0, {n})")
    table = np.array(rows, dtype=np.int32).reshape(n, n)
    ar = np.arange(n, dtype=np.int32)
    ones = np.flatnonzero((table == ar).all(axis=1)
                          & (table == ar[:, None]).all(axis=0))
    if not len(ones):
        raise ConstructionError(f"{what} has no identity element")
    return table, int(ones[0])


def _audit_monoid(label: str, mul: np.ndarray, one: int) -> None:
    """Raise unless `one` acts as 1 on both sides of the table and the
    operation is associative, naming a failing triple and its products."""
    ar = np.arange(len(mul), dtype=np.int32)
    if not (np.array_equal(mul[one], ar) and np.array_equal(mul[:, one], ar)):
        raise ConstructionError(f"{label}: identity {one} does not act as 1")
    for b in range(len(mul)):
        # (a*b)*c against a*(b*c), all a and c at once
        left = mul[mul[:, b], :]
        right = mul[:, mul[b, :]]
        if not np.array_equal(left, right):
            a, c = map(int, np.argwhere(left != right)[0])
            raise ConstructionError(
                f"{label}: not associative at ({a}, {b}, {c}): ({a}*{b})*{c} "
                f"= {int(left[a, c])}, {a}*({b}*{c}) = {int(right[a, c])}")


def spec_label(spec: RingSpec) -> str:
    if isinstance(spec, Zmod):
        return f"Z{spec.m}"
    if isinstance(spec, PolyQuot):
        deg = len(spec.modulus) - 1
        # a field past the table limit is never built, and p^deg may run
        # to thousands of digits: it prints as a power
        if _past_limit(Counter({spec.p: deg})):
            return f"GF({spec.p}^{deg})"
        return f"GF({spec.p ** deg})"
    if isinstance(spec, MatrixRing):
        return f"M{spec.n}({spec_label(spec.base)})"
    if isinstance(spec, ProductRing):
        return "x".join(spec_label(f) for f in spec.factors)
    if isinstance(spec, TableRing):
        return spec.label
    if isinstance(spec, RadicalQuotient):
        return f"{spec_label(spec.base)}/rad"
    raise TypeError(f"not a ring spec: {spec!r}")


# ---------------------------------------------------------------------------
# the Ring object

class Ring:
    """A finite ring with dense operation tables.

    Elements are integers in [0, card). Index 0 is the additive zero.
    `add` and `mul` are (card, card) int32 tables, `neg` is the
    additive inverse permutation, `coords` decodes indices to
    coordinate tuples in the declared shape. `add` is `_add_table` of
    the moduli, and `neg` is built here, coordinatewise modulo them.
    """

    def __init__(self, spec: RingSpec, label: str, moduli: tuple[int, ...],
                 add: np.ndarray, mul: np.ndarray, one: int):
        self.spec = spec
        self.label = label
        self.moduli = tuple(int(m) for m in moduli)
        self.card = math.prod(self.moduli)
        self.add = add
        self.mul = mul
        self.one = int(one)
        self.zero = 0
        self._weights, self.coords = _mixed_radix(self.moduli)
        self.neg = ((-self.coords % np.array(self.moduli, dtype=np.int32))
                    @ self._weights).astype(np.int32)
        self._structure: RingStructure | None = None
        self._frobenius: FrobeniusVerdict | None = None
        self._quotient: QuotientData | None = None

    # -- element codec -----------------------------------------------------
    def decode(self, x: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.coords[x])

    def encode(self, coords) -> int:
        return _encode(coords, self.moduli, self._weights, "coordinate")

    @property
    def constants(self) -> np.ndarray:
        """The (k, k, k) structure constants read off the table: c[i, j]
        is the coordinate vector of e_i*e_j."""
        w = self._weights
        return self.coords[self.mul[np.ix_(w, w)]]

    @property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def __repr__(self) -> str:
        return f"Ring({self.label}, card={self.card})"


# ---------------------------------------------------------------------------
# builders

def build_ring(spec: RingSpec) -> Ring:
    """Build a ring from its spec, validating as required by the kind."""
    if type(spec) not in _BUILDERS:
        raise TypeError(f"not a ring spec: {spec!r}")
    return _BUILDERS[type(spec)](spec)


def _size(spec: RingSpec) -> tuple[Counter, bool]:
    """|R| as {b: e}, the product of the powers b^e, from the spec alone,
    and whether that is exact. A radical quotient, whose size needs its
    base ring's tables, counts as 2, the fewest a nonzero ring has."""
    if isinstance(spec, Zmod):
        return Counter({spec.m: 1}), True
    if isinstance(spec, PolyQuot):
        return Counter({spec.p: len(spec.modulus) - 1}), True
    if isinstance(spec, TableRing):
        return Counter(spec.moduli), True
    if isinstance(spec, MatrixRing):
        base, exact = _size(spec.base)
        return Counter({b: e * spec.n ** 2 for b, e in base.items()}), exact
    if isinstance(spec, ProductRing):
        sizes = [_size(f) for f in spec.factors]
        return sum((s for s, _ in sizes), Counter()), all(e for _, e in sizes)
    if isinstance(spec, RadicalQuotient):
        return Counter({2: 1}), False
    raise TypeError(f"not a ring spec: {spec!r}")


def _past_limit(size: Counter, limit: int = TABLE_LIMIT) -> bool:
    """Whether the product of the powers b^e exceeds the limit, decided
    without expanding it."""
    card = 1
    for b, e in size.items():
        for _ in range(e if b >= 2 else 0):   # card at least doubles
            card *= b
            if card > limit:
                return True
    return False


def _powers(size: Counter) -> str:
    """The product of the powers b^e as text, never expanded."""
    return " * ".join(f"{b}^{e}" if e > 1 else str(b)
                      for b, e in size.items() if e)


def _check_card(label: str, size: Counter, exact: bool = True) -> None:
    """Reject a ring past TABLE_LIMIT without expanding its size, which
    is printed as powers b^e; a lower bound prints as "at least"."""
    if _past_limit(size):
        raise ScaleError(f"{label}: {'' if exact else 'at least '}"
                         f"{_powers(size)} elements exceeds the dense-table "
                         f"limit {TABLE_LIMIT}")


def _build_zmod(spec: Zmod) -> Ring:
    m = spec.m
    if m < 2:
        raise ConstructionError(f"zmod modulus must be at least 2, got {m}")
    _check_card(f"Z{m}", *_size(spec))
    return Ring(spec, spec_label(spec), (m,), *_tables((m,), [[[1]]]), 1)


def _build_polyquot(spec: PolyQuot) -> Ring:
    p = spec.p
    mod = list(spec.modulus)
    if len(mod) < 2:
        raise ConstructionError("polyquot modulus must have degree at least 1")
    # before the primality test, which grows with p, and the factor
    # search, which grows with p^deg
    _check_card(spec_label(spec), *_size(spec))
    if not _is_prime(p):
        raise ConstructionError(f"polyquot base {p} is not prime")
    if any(not 0 <= c < p for c in mod):
        raise ConstructionError(f"polyquot modulus coefficients must lie in [0, {p})")
    if mod[-1] != 1:
        raise ConstructionError(f"polyquot modulus must be monic: {_poly_text(mod)}")
    deg = len(mod) - 1
    factor = _find_poly_factor(mod, p)
    if factor is not None:
        raise ConstructionError(
            f"polyquot modulus {_poly_text(mod)} over Z/{p} is reducible: "
            f"divisible by {_poly_text(factor)}")

    # x^i * x^j = x^(i + j) mod f, for i + j < 2 deg - 1
    power = np.array([_poly_mod([0] * k + [1], mod, p)
                      for k in range(2 * deg - 1)], dtype=np.int32)
    i = np.arange(deg)
    moduli = (p,) * deg
    return Ring(spec, spec_label(spec), moduli,
                *_tables(moduli, power[i[:, None] + i]), 1)


def _find_poly_factor(mod: list[int], p: int) -> list[int] | None:
    """Search for a monic divisor of degree 1..deg/2; None if irreducible."""
    deg = len(mod) - 1
    for fdeg in range(1, deg // 2 + 1):
        for tail in _mixed_radix((p,) * fdeg)[1].tolist():
            cand = tail + [1]
            if all(c == 0 for c in _poly_mod(list(mod), cand, p)):
                return cand
    return None


def _build_matrix(spec: MatrixRing) -> Ring:
    if spec.n < 1:
        raise ConstructionError(f"matrix size must be at least 1, got {spec.n}")
    n = spec.n
    label = spec_label(spec)
    _check_card(label, *_size(spec))
    base = build_ring(spec.base)
    # exact also when _size gave a lower bound for a radical quotient
    _check_card(label, Counter({base.card: n * n}))

    # (E_ij e_a)(E_jl e_b) = E_il (e_a e_b), coordinates in (entry, base
    # coordinate) order with row-major entries
    eye = np.eye(n, dtype=np.int32)
    c = np.einsum("ip,jq,lr,abd->ijaqlbprd", eye, eye, eye, base.constants)
    moduli = tuple(base.moduli) * (n * n)
    k = len(moduli)
    one = base.one * sum(base.card ** (i * n + i) for i in range(n))
    return Ring(spec, label, moduli, *_tables(moduli, c.reshape(k, k, k)), one)


def _build_product(spec: ProductRing) -> Ring:
    if not spec.factors:
        raise ConstructionError("product ring needs at least one factor")
    label = spec_label(spec)
    _check_card(label, *_size(spec))
    rings = [build_ring(f) for f in spec.factors]
    # exact also when _size gave a lower bound for a radical quotient
    _check_card(label, Counter(r.card for r in rings))
    weights, _ = _mixed_radix([r.card for r in rings])
    one = int(weights @ [r.one for r in rings])
    moduli = sum((r.moduli for r in rings), ())
    # block-diagonal constants: coordinates of different factors multiply to 0
    c = np.zeros((len(moduli),) * 3, dtype=np.int32)
    at = 0
    for r in rings:
        block = slice(at, at + len(r.moduli))
        c[block, block, block] = r.constants
        at = block.stop
    return Ring(spec, label, moduli, *_tables(moduli, c), one)


def _build_table(spec: TableRing) -> Ring:
    moduli = tuple(spec.moduli)
    if not moduli or any(m < 2 for m in moduli):
        raise ConstructionError(f"table ring moduli must all be at least 2: {moduli}")
    card = math.prod(moduli)
    if card > AUDIT_LIMIT:
        raise ScaleError(
            f"table ring with {card} elements exceeds the audit limit {AUDIT_LIMIT}")
    mul, one = _read_table(spec.mul, card, f"table ring {spec.label!r}")
    ring = Ring(spec, spec.label, moduli, _add_table(moduli), mul, one)
    audit_ring(ring)
    return ring


_BUILDERS = {Zmod: _build_zmod, PolyQuot: _build_polyquot,
             MatrixRing: _build_matrix, ProductRing: _build_product,
             TableRing: _build_table,
             RadicalQuotient: lambda spec: radical_quotient(
                 build_ring(spec.base)).ring}


# ---------------------------------------------------------------------------
# axiom audit

def audit_ring(ring: Ring) -> None:
    """Exhaustively audit the ring axioms; raises on the first violation.

    Cubic in |R|, so gated at AUDIT_LIMIT elements. Additive structure
    is coordinatewise cyclic by construction, so the one additive check
    is commutativity.
    """
    card = ring.card
    if card > AUDIT_LIMIT:
        raise ScaleError(
            f"{ring.label}: exhaustive axiom audit limited to {AUDIT_LIMIT} elements")
    add, mul = ring.add, ring.mul
    if not np.array_equal(add, add.T):
        a, b = map(int, np.argwhere(add != add.T)[0])
        raise ConstructionError(f"{ring.label}: addition not commutative at ({a}, {b})")
    for b in range(card):
        # left distributivity: a*(b+c) against a*b + a*c, rows a, cols c
        ld = mul[:, add[b, :]]
        ls = add[mul[:, b][:, None], mul]
        if not np.array_equal(ld, ls):
            a, c = map(int, np.argwhere(ld != ls)[0])
            raise ConstructionError(
                f"{ring.label}: left distributivity fails at ({a}, {b}, {c})")
        # right distributivity: (b+c)*a against b*a + c*a, rows c, cols a
        rd = mul[add[b, :], :]
        rs = add[mul[b, :][None, :], mul]
        if not np.array_equal(rd, rs):
            c, a = map(int, np.argwhere(rd != rs)[0])
            raise ConstructionError(
                f"{ring.label}: right distributivity fails at ({a}, {b}, {c})")
    _audit_monoid(ring.label, mul, ring.one)


# ---------------------------------------------------------------------------
# structure: units, radical, locality

class RingStructure(Record):
    """Unit group and Jacobson radical of a ring, fully materialized."""
    units: np.ndarray
    radical: np.ndarray
    nilpotency_index: int
    is_local: bool


def structure(ring: Ring) -> RingStructure:
    """Compute (and cache) units, radical, nilpotency index, locality."""
    if ring._structure is not None:
        return ring._structure
    card = ring.card
    eq_one = ring.mul == ring.one
    is_unit = (eq_one & eq_one.T).any(axis=1)
    units = np.flatnonzero(is_unit).astype(np.int64)

    # quasi-regularity: x is radical iff 1 - r*x is a unit for every r
    one_minus = ring.add[ring.one, ring.neg]          # t -> 1 - t
    quasi_regular = is_unit[one_minus[ring.mul]]
    in_radical = quasi_regular.all(axis=0)
    if not np.array_equal(in_radical, quasi_regular.all(axis=1)):
        raise FalsificationError(
            f"{ring.label}: left and right quasi-regularity disagree")
    radical = np.flatnonzero(in_radical).astype(np.int64)

    # the radical must be a two-sided ideal
    if not in_radical[ring.add[np.ix_(radical, radical)]].all():
        raise FalsificationError(f"{ring.label}: radical not closed under addition")
    if (not in_radical[ring.mul[:, radical]].all()
            or not in_radical[ring.mul[radical, :]].all()):
        raise FalsificationError(f"{ring.label}: radical not a two-sided ideal")

    # nilpotency index: smallest f with J^f = 0. J^f is spanned by the
    # f-fold products of radical elements, so it is 0 exactly when they
    # all are; `prods` is the mask of the f-fold products, with no span
    f = 1
    prods = in_radical
    while prods[1:].any():
        grown = np.zeros(card, dtype=bool)
        grown[ring.mul[np.ix_(np.flatnonzero(prods), radical)]] = True
        prods = grown
        f += 1
        if f > card:
            raise FalsificationError(f"{ring.label}: radical fails to be nilpotent")

    local = bool(np.array_equal(~is_unit, in_radical))
    ring._structure = RingStructure(
        units=units, radical=radical, nilpotency_index=f, is_local=local)
    return ring._structure


# ---------------------------------------------------------------------------
# generating characters

class FrobeniusVerdict(Record):
    """Outcome of the generating-character search.

    status is one of "frobenius", "not-frobenius", "undecided".
    For a positive verdict, `character` holds one numerator per
    additive coordinate: the witness maps coordinate vector (c_i) to
    sum(c_i * k_i / m_i) in Q/Z, evaluated exactly over a common
    denominator.
    """
    status: str
    character: tuple[int, ...] | None


def frobenius(ring: Ring) -> FrobeniusVerdict:
    """Search for an additive character whose kernel contains no nonzero
    one-sided ideal; existence is the Frobenius criterion used here.

    The search is exhaustive over all |R| characters of (R, +). Since
    chi(r*x) = sum_i r_i chi(e_i*x), Rx lies in ker chi exactly when
    every e_i*x does, so the k coordinate unit vectors e_i are the only
    multipliers tried, on each side. It is O(k |R|^2) and returns an
    explicit "undecided" verdict over DEFAULT_FROBENIUS_BOUND elements
    rather than a silent false. The verdict is kept on the ring.
    """
    if ring._frobenius is not None:
        return ring._frobenius
    if ring.card > DEFAULT_FROBENIUS_BOUND:
        ring._frobenius = FrobeniusVerdict("undecided", None)
        return ring._frobenius
    moduli = ring.moduli
    lcm = math.lcm(*moduli)
    steps = np.array([lcm // m for m in moduli], dtype=np.int64)
    coords = ring.coords.astype(np.int64)
    left = ring.mul[ring._weights]          # e_i*x, one row per i
    right = ring.mul[:, ring._weights]      # x*e_i, one column per i

    verdict = FrobeniusVerdict("not-frobenius", None)
    for knum in ring.coords.tolist():
        nz = (coords @ (np.array(knum, dtype=np.int64) * steps)) % lcm != 0
        # no nonzero left ideal Rx and no nonzero right ideal xR in ker
        if nz[left].any(axis=0)[1:].all() and nz[right].any(axis=1)[1:].all():
            verdict = FrobeniusVerdict("frobenius", tuple(knum))
            break
    ring._frobenius = verdict
    return verdict


# ---------------------------------------------------------------------------
# radical quotient of a local ring

class QuotientData(Record):
    """A local ring's residue field together with the projection maps.

    proj maps base indices onto quotient indices (a surjective ring
    map); lift maps each quotient index to the least base preimage.
    """
    ring: Ring
    proj: np.ndarray
    lift: np.ndarray


def radical_quotient(ring: Ring) -> QuotientData:
    """Residue field of a local ring, built as a coordinate table ring;
    a field is its own residue field."""
    if ring._quotient is not None:
        return ring._quotient
    st = structure(ring)
    if not st.is_local:
        raise ConstructionError(
            f"{ring.label}: residue construction requires a local ring")
    card = ring.card
    rad = st.radical
    if len(rad) == 1:
        # R/{0} is R: no copy to build, only the field audit to keep
        if len(st.units) != card - 1:
            raise FalsificationError(f"{ring.label}: residue ring is not a field")
        same = np.arange(card, dtype=np.int64)
        ring._quotient = QuotientData(ring=ring, proj=same, lift=same)
        return ring._quotient
    qcard = card // len(rad)

    # the least element of each coset x + J
    rep_of = ring.add[:, rad].min(axis=1).astype(np.int64)
    reps = np.flatnonzero(rep_of == np.arange(card))
    if len(reps) != qcard:
        raise FalsificationError(f"{ring.label}: coset partition of radical broken")

    # residue field characteristic: additive order of the image of 1,
    # read off the integer multiples n*1 up to the additive exponent
    one_rep = int(rep_of[ring.one])
    n = np.arange(math.lcm(*ring.moduli) + 1, dtype=np.int64)
    ones = rep_of[(n[:, None] * ring.coords[ring.one] % ring.moduli)
                  @ ring._weights]
    p = int(np.flatnonzero(ones[1:] == 0)[0]) + 1
    ones = ones[:p]                     # the images of 0, 1, ..., p - 1
    k = 0
    q = qcard
    while q % p == 0 and q > 1:
        q //= p
        k += 1
    if q != 1:
        raise FalsificationError(
            f"{ring.label}: residue ring size {qcard} is not a power of char {p}")

    # greedy basis of the elementary abelian additive group of the
    # quotient, each new element the least representative outside the
    # span; `order` lists the span in coordinate order, sum(c_i * basis_i)
    # at the mixed-radix index of c, one gather per basis element
    order = np.zeros(1, dtype=np.int64)
    spanned = np.zeros(card, dtype=bool)
    spanned[0] = True
    basis: list[int] = []
    while len(basis) <= k:
        outside = reps[~spanned[reps]]
        if not len(outside):
            break
        basis.append(int(outside[0]))
        multiples = rep_of[ring.mul[ones, basis[-1]]]    # c * basis_i
        order = rep_of[ring.add[multiples[:, None], order]].ravel()
        spanned[order] = True
    if len(basis) != k:
        raise FalsificationError(f"{ring.label}: residue additive basis size mismatch")
    if np.bincount(order, minlength=card).max() > 1:
        raise FalsificationError(f"{ring.label}: residue coordinates collide")
    rep_to_new = np.zeros(card, dtype=np.int64)  # only rep positions used
    rep_to_new[order] = np.arange(qcard)

    qmul = rep_to_new[rep_of[ring.mul[np.ix_(order, order)]]].astype(np.int32)

    qspec = RadicalQuotient(ring.spec)
    qone = int(rep_to_new[one_rep])
    qring = Ring(qspec, spec_label(qspec), (p,) * k, _add_table((p,) * k),
                 qmul, qone)

    proj = rep_to_new[rep_of].astype(np.int64)
    lift = order  # reps are the least elements of their cosets

    # audit: proj must be a surjective ring map and the quotient a field
    if not np.array_equal(proj[ring.add], qring.add[np.ix_(proj, proj)]):
        raise FalsificationError(f"{ring.label}: residue projection not additive")
    if not np.array_equal(proj[ring.mul], qmul[np.ix_(proj, proj)]):
        raise FalsificationError(f"{ring.label}: residue projection not multiplicative")
    if int(proj[ring.one]) != qone:
        raise FalsificationError(f"{ring.label}: residue projection moves identity")
    if len(structure(qring).units) != qcard - 1:
        raise FalsificationError(f"{ring.label}: residue ring is not a field")

    ring._quotient = QuotientData(ring=qring, proj=proj, lift=lift)
    return ring._quotient
