"""Finite rings with exact dense-table arithmetic.

Rings are described by small composable specs (integers mod m, a prime
field extended by a monic irreducible polynomial, matrix rings,
products, explicit validated multiplication tables, radical quotients)
and built into Ring objects holding dense numpy operation tables.

Additively every ring here is a product of cyclic groups
Z/m_1 x ... x Z/m_k, called the coordinate shape. An element is the
integer index of its coordinate tuple in mixed radix (coordinate 0
least significant), so index 0 is the additive zero, element equality
is integer equality, and subsets of a ring pack into bitmasks.

Structural queries (unit group, Jacobson radical, locality, existence
of a generating character) are computed exhaustively from the tables
and cached on the Ring instance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

from .config import DEFAULT_FROBENIUS_BOUND, TABLE_LIMIT
from .errors import ConstructionError, FalsificationError, ScaleError

AUDIT_LIMIT = 256  # full ring-axiom audit is cubic in |R|


# ---------------------------------------------------------------------------
# specs

@dataclass(frozen=True)
class Zmod:
    """Integers modulo m, m >= 2."""
    m: int


@dataclass(frozen=True)
class PolyQuot:
    """Z/p extended by a monic irreducible polynomial.

    `modulus` lists coefficients constant term first; the leading
    coefficient must be 1. Reducible moduli are rejected with a factor
    named in the error.
    """
    p: int
    modulus: tuple[int, ...]


@dataclass(frozen=True)
class MatrixRing:
    """n x n matrices over a base ring."""
    n: int
    base: "RingSpec"


@dataclass(frozen=True)
class ProductRing:
    """Direct product of rings with componentwise operations."""
    factors: tuple["RingSpec", ...]


@dataclass(frozen=True)
class TableRing:
    """Ring given by an explicit multiplication table.

    Addition is coordinatewise in the declared moduli; the
    multiplication table is audited at load (associativity, both
    distributive laws, existence of an identity).
    """
    moduli: tuple[int, ...]
    mul: tuple[tuple[int, ...], ...]
    label: str = "table"


@dataclass(frozen=True)
class RadicalQuotient:
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


def spec_label(spec: RingSpec) -> str:
    if isinstance(spec, Zmod):
        return f"Z{spec.m}"
    if isinstance(spec, PolyQuot):
        return f"GF({spec.p ** (len(spec.modulus) - 1)})"
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
    coordinate tuples in the declared shape.
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
        self.neg = np.argmax(add == 0, axis=1).astype(np.int32)
        if not np.all(add[np.arange(self.card), self.neg] == 0):
            raise ConstructionError(f"{label}: addition table has no inverses")
        weights = []
        w = 1
        for m in self.moduli:
            weights.append(w)
            w *= m
        self._weights = np.array(weights, dtype=np.int64)
        idx = np.arange(self.card, dtype=np.int64)
        self.coords = ((idx[:, None] // self._weights[None, :])
                       % np.array(self.moduli, dtype=np.int64)).astype(np.int32)
        self._structure: RingStructure | None = None
        self._frobenius: dict[int, FrobeniusVerdict] = {}
        self._quotient: QuotientData | None = None

    # -- element codec -----------------------------------------------------
    def decode(self, x: int) -> tuple[int, ...]:
        return tuple(int(c) for c in self.coords[x])

    def encode(self, coords) -> int:
        if len(coords) != len(self.moduli):
            raise ValueError(f"{self.label}: expected {len(self.moduli)} coordinates")
        total = 0
        for c, m, w in zip(coords, self.moduli, self._weights):
            c = int(c)
            if not 0 <= c < m:
                raise ValueError(f"coordinate {c} out of range for modulus {m}")
            total += c * int(w)
        return total

    # -- scalar arithmetic -------------------------------------------------
    def a(self, x: int, y: int) -> int:
        return int(self.add[x, y])

    def m(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def s(self, x: int, y: int) -> int:
        return int(self.add[x, self.neg[y]])

    @property
    def elements(self) -> range:
        return range(self.card)

    @property
    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def __repr__(self) -> str:
        return f"Ring({self.label}, card={self.card})"


# ---------------------------------------------------------------------------
# builders

def build_ring(spec: RingSpec) -> Ring:
    """Build a ring from its spec, validating as required by the kind."""
    if isinstance(spec, Zmod):
        return _build_zmod(spec)
    if isinstance(spec, PolyQuot):
        return _build_polyquot(spec)
    if isinstance(spec, MatrixRing):
        return _build_matrix(spec)
    if isinstance(spec, ProductRing):
        return _build_product(spec)
    if isinstance(spec, TableRing):
        return _build_table(spec)
    if isinstance(spec, RadicalQuotient):
        base = build_ring(spec.base)
        return radical_quotient(base).ring
    raise TypeError(f"not a ring spec: {spec!r}")


def _size(spec: RingSpec) -> Counter | None:
    """|R| as {b: e}, the product of the powers b^e, from the spec alone;
    None when a radical quotient's size needs its base ring's tables."""
    if isinstance(spec, Zmod):
        return Counter({spec.m: 1})
    if isinstance(spec, PolyQuot):
        return Counter({spec.p: len(spec.modulus) - 1})
    if isinstance(spec, TableRing):
        return Counter(spec.moduli)
    if isinstance(spec, MatrixRing):
        base = _size(spec.base)
        return None if base is None else Counter(
            {b: e * spec.n ** 2 for b, e in base.items()})
    if isinstance(spec, ProductRing):
        sizes = [_size(f) for f in spec.factors]
        return None if None in sizes else sum(sizes, Counter())
    return None


def _check_card(label: str, size: Counter | None) -> None:
    """Reject a ring past TABLE_LIMIT without expanding its size, which
    is printed as powers b^e."""
    card = 1
    for b, e in (size or {}).items():
        for _ in range(e if b >= 2 else 0):   # card at least doubles
            card *= b
            if card > TABLE_LIMIT:
                text = " * ".join(f"{b}^{e}" if e > 1 else str(b)
                                  for b, e in size.items() if e)
                raise ScaleError(f"{label}: {text} elements exceeds the "
                                 f"dense-table limit {TABLE_LIMIT}")


def _build_zmod(spec: Zmod) -> Ring:
    m = spec.m
    if m < 2:
        raise ConstructionError(f"zmod modulus must be at least 2, got {m}")
    _check_card(f"Z{m}", _size(spec))
    idx = np.arange(m, dtype=np.int64)
    add = ((idx[:, None] + idx[None, :]) % m).astype(np.int32)
    mul = ((idx[:, None] * idx[None, :]) % m).astype(np.int32)
    return Ring(spec, spec_label(spec), (m,), add, mul, 1)


def _build_polyquot(spec: PolyQuot) -> Ring:
    p = spec.p
    mod = list(spec.modulus)
    if not _is_prime(p):
        raise ConstructionError(f"polyquot base {p} is not prime")
    if len(mod) < 2:
        raise ConstructionError("polyquot modulus must have degree at least 1")
    if any(not 0 <= c < p for c in mod):
        raise ConstructionError(f"polyquot modulus coefficients must lie in [0, {p})")
    if mod[-1] != 1:
        raise ConstructionError(f"polyquot modulus must be monic: {_poly_text(mod)}")
    deg = len(mod) - 1
    _check_card(spec_label(spec), _size(spec))
    card = p ** deg
    factor = _find_poly_factor(mod, p)
    if factor is not None:
        raise ConstructionError(
            f"polyquot modulus {_poly_text(mod)} over Z/{p} is reducible: "
            f"divisible by {_poly_text(factor)}")

    idx = np.arange(card, dtype=np.int64)
    pw = p ** np.arange(deg, dtype=np.int64)
    cf = ((idx[:, None] // pw[None, :]) % p).astype(np.int64)
    add = (((cf[:, None, :] + cf[None, :, :]) % p) @ pw).astype(np.int32)

    # x^(deg+k) expressed in the standard basis, k = 0..deg-2
    reps: list[list[int]] = []
    cur = [(-c) % p for c in mod[:deg]]
    reps.append(list(cur))
    for _ in range(deg - 2):
        cur = _poly_mod([0] + cur, mod, p)
        reps.append(list(cur))
    rep_arr = np.array(reps, dtype=np.int64) if reps else np.zeros((0, deg), np.int64)

    mul = np.zeros((card, card), dtype=np.int32)
    for a_i in range(card):
        raw = np.zeros((card, 2 * deg - 1), dtype=np.int64)
        ac = cf[a_i]
        for i in range(deg):
            if ac[i]:
                raw[:, i:i + deg] += ac[i] * cf
        res = raw[:, :deg] % p
        for k in range(deg - 1):
            res = (res + raw[:, deg + k:deg + k + 1] * rep_arr[k][None, :]) % p
        mul[a_i] = (res @ pw).astype(np.int32)
    return Ring(spec, spec_label(spec), (p,) * deg, add, mul, 1)


def _find_poly_factor(mod: list[int], p: int) -> list[int] | None:
    """Search for a monic divisor of degree 1..deg/2; None if irreducible."""
    deg = len(mod) - 1
    for fdeg in range(1, deg // 2 + 1):
        for tail in range(p ** fdeg):
            cand = []
            t = tail
            for _ in range(fdeg):
                cand.append(t % p)
                t //= p
            cand.append(1)
            if all(c == 0 for c in _poly_mod(list(mod), cand, p)):
                return cand
    return None


def _build_matrix(spec: MatrixRing) -> Ring:
    if spec.n < 1:
        raise ConstructionError(f"matrix size must be at least 1, got {spec.n}")
    n = spec.n
    label = spec_label(spec)
    _check_card(label, _size(spec))
    base = build_ring(spec.base)
    # exact also when _size gave None for a radical quotient
    _check_card(label, Counter({base.card: n * n}))
    card = base.card ** (n * n)

    idx = np.arange(card, dtype=np.int64)
    bw = base.card ** np.arange(n * n, dtype=np.int64)
    ent = ((idx[:, None] // bw[None, :]) % base.card).astype(np.int32)

    add = np.zeros((card, card), dtype=np.int64)
    for k in range(n * n):
        add += base.add[ent[:, None, k], ent[None, :, k]].astype(np.int64) * int(bw[k])
    mul = np.zeros((card, card), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            acc = np.zeros((card, card), dtype=np.int32)
            for k in range(n):
                prod = base.mul[ent[:, None, i * n + k], ent[None, :, k * n + j]]
                acc = base.add[acc, prod]
            mul += acc.astype(np.int64) * int(bw[i * n + j])
    one_entries = [base.one if i == j else 0 for i in range(n) for j in range(n)]
    one = int(np.dot(one_entries, bw))
    moduli = tuple(base.moduli) * (n * n)
    return Ring(spec, label, moduli, add.astype(np.int32), mul.astype(np.int32), one)


def _build_product(spec: ProductRing) -> Ring:
    if not spec.factors:
        raise ConstructionError("product ring needs at least one factor")
    label = spec_label(spec)
    _check_card(label, _size(spec))
    rings = [build_ring(f) for f in spec.factors]
    # exact also when _size gave None for a radical quotient
    _check_card(label, Counter(r.card for r in rings))
    card = math.prod(r.card for r in rings)

    idx = np.arange(card, dtype=np.int64)
    add = np.zeros((card, card), dtype=np.int64)
    mul = np.zeros((card, card), dtype=np.int64)
    w = 1
    one = 0
    moduli: tuple[int, ...] = ()
    for r in rings:
        comp = ((idx // w) % r.card).astype(np.int32)
        add += r.add[comp[:, None], comp[None, :]].astype(np.int64) * w
        mul += r.mul[comp[:, None], comp[None, :]].astype(np.int64) * w
        one += r.one * w
        moduli = moduli + r.moduli
        w *= r.card
    return Ring(spec, label, moduli, add.astype(np.int32), mul.astype(np.int32), one)


def _build_table(spec: TableRing) -> Ring:
    moduli = tuple(spec.moduli)
    if not moduli or any(m < 2 for m in moduli):
        raise ConstructionError(f"table ring moduli must all be at least 2: {moduli}")
    card = math.prod(moduli)
    if card > AUDIT_LIMIT:
        raise ScaleError(
            f"table ring with {card} elements exceeds the audit limit {AUDIT_LIMIT}")
    mul = np.array(spec.mul, dtype=np.int32)
    if mul.shape != (card, card):
        raise ConstructionError(
            f"table ring multiplication table must be {card}x{card}, got "
            f"{'x'.join(str(s) for s in mul.shape)}")
    if mul.min() < 0 or mul.max() >= card:
        raise ConstructionError("table ring multiplication entries out of range")

    idx = np.arange(card, dtype=np.int64)
    w = 1
    add = np.zeros((card, card), dtype=np.int64)
    for m in moduli:
        comp = (idx // w) % m
        add += ((comp[:, None] + comp[None, :]) % m) * w
        w *= m
    add = add.astype(np.int32)

    ar = np.arange(card, dtype=np.int32)
    ones = [e for e in range(card)
            if np.array_equal(mul[e], ar) and np.array_equal(mul[:, e], ar)]
    if not ones:
        raise ConstructionError(f"table ring {spec.label!r} has no identity element")
    ring = Ring(spec, spec.label, moduli, add, mul, ones[0])
    audit_ring(ring)
    return ring


# ---------------------------------------------------------------------------
# axiom audit

def audit_ring(ring: Ring) -> None:
    """Exhaustively audit the ring axioms; raises on the first violation.

    Cubic in |R|, so gated at AUDIT_LIMIT elements. Additive structure
    is coordinatewise cyclic by construction, so the additive checks
    are commutativity and inverses only.
    """
    card = ring.card
    if card > AUDIT_LIMIT:
        raise ScaleError(
            f"{ring.label}: exhaustive axiom audit limited to {AUDIT_LIMIT} elements")
    add, mul = ring.add, ring.mul
    if not np.array_equal(add, add.T):
        a, b = map(int, np.argwhere(add != add.T)[0])
        raise ConstructionError(f"{ring.label}: addition not commutative at ({a}, {b})")
    ar = np.arange(card, dtype=np.int32)
    if not (np.array_equal(mul[ring.one], ar) and np.array_equal(mul[:, ring.one], ar)):
        raise ConstructionError(f"{ring.label}: identity {ring.one} does not act as 1")
    for b in range(card):
        # associativity: (a*b)*c against a*(b*c), all a and c at once
        left = mul[mul[:, b], :]
        right = mul[:, mul[b, :]]
        if not np.array_equal(left, right):
            a, c = map(int, np.argwhere(left != right)[0])
            raise ConstructionError(
                f"{ring.label}: multiplication not associative at ({a}, {b}, {c}): "
                f"({a}*{b})*{c} = {int(left[a, c])}, a*(b*c) = {int(right[a, c])}")
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


# ---------------------------------------------------------------------------
# structure: units, radical, locality

@dataclass(frozen=True)
class RingStructure:
    """Unit group and Jacobson radical of a ring, fully materialized."""
    units: np.ndarray
    unit_mask: np.ndarray
    radical: np.ndarray
    radical_mask: np.ndarray
    nilpotency_index: int
    is_local: bool


def structure(ring: Ring) -> RingStructure:
    """Compute (and cache) units, radical, nilpotency index, locality."""
    if ring._structure is not None:
        return ring._structure
    card = ring.card
    eq_one = ring.mul == ring.one
    unit_mask = (eq_one & eq_one.T).any(axis=1)
    units = np.flatnonzero(unit_mask).astype(np.int64)

    # quasi-regularity: x is radical iff 1 - r*x is a unit for every r
    one_minus = ring.add[ring.one, ring.neg]          # t -> 1 - t
    rad_left = unit_mask[one_minus[ring.mul]].all(axis=0)
    rad_right = unit_mask[one_minus[ring.mul]].all(axis=1)
    if not np.array_equal(rad_left, rad_right):
        raise FalsificationError(
            f"{ring.label}: left and right quasi-regularity disagree")
    radical_mask = rad_left
    radical = np.flatnonzero(radical_mask).astype(np.int64)

    # the radical must be a two-sided ideal
    ji = radical.astype(np.int64)
    if not radical_mask[ring.add[np.ix_(ji, ji)]].all():
        raise FalsificationError(f"{ring.label}: radical not closed under addition")
    if not radical_mask[ring.mul[:, ji]].all() or not radical_mask[ring.mul[ji, :]].all():
        raise FalsificationError(f"{ring.label}: radical not a two-sided ideal")

    # nilpotency index: smallest f with J^f = 0
    f = 1
    cur = set(int(x) for x in radical)
    while cur != {0}:
        prods = {ring.m(x, y) for x in cur for y in radical}
        cur = _additive_span(ring, prods)
        f += 1
        if f > card:
            raise FalsificationError(f"{ring.label}: radical fails to be nilpotent")

    local = bool(np.array_equal(~unit_mask, radical_mask))
    ring._structure = RingStructure(
        units=units, unit_mask=unit_mask, radical=radical,
        radical_mask=radical_mask, nilpotency_index=f, is_local=local)
    return ring._structure


def _additive_span(ring: Ring, seed) -> set[int]:
    """Subgroup of (R, +) generated by seed."""
    span = {0}
    work = [int(x) for x in seed]
    while work:
        x = work.pop()
        if x in span:
            continue
        new = [ring.a(x, s) for s in span]
        span.add(x)
        work.extend(n for n in new if n not in span)
    return span


# ---------------------------------------------------------------------------
# generating characters

@dataclass(frozen=True)
class FrobeniusVerdict:
    """Outcome of the generating-character search.

    status is one of "frobenius", "not-frobenius", "undecided".
    For a positive verdict, `character` holds one numerator per
    additive coordinate: the witness maps coordinate vector (c_i) to
    sum(c_i * k_i / m_i) in Q/Z, evaluated exactly over a common
    denominator.
    """
    status: str
    character: tuple[int, ...] | None

    @property
    def decided(self) -> bool:
        return self.status != "undecided"


def frobenius(ring: Ring, bound: int = DEFAULT_FROBENIUS_BOUND) -> FrobeniusVerdict:
    """Search for an additive character whose kernel contains no nonzero
    one-sided ideal; existence is the Frobenius criterion used here.

    The search is exhaustive over all |R| characters of (R, +) and is
    O(|R|^3), so it returns an explicit "undecided" verdict over the
    bound rather than a silent false.
    """
    if bound in ring._frobenius:
        return ring._frobenius[bound]
    card = ring.card
    if card > bound:
        verdict = FrobeniusVerdict("undecided", None)
        ring._frobenius[bound] = verdict
        return verdict
    moduli = ring.moduli
    lcm = math.lcm(*moduli)
    steps = np.array([lcm // m for m in moduli], dtype=np.int64)
    coords = ring.coords.astype(np.int64)
    mul = ring.mul

    verdict = FrobeniusVerdict("not-frobenius", None)
    for knum in _numerator_tuples(moduli):
        vals = (coords @ (np.array(knum, dtype=np.int64) * steps)) % lcm
        nz = vals != 0
        hit = nz[mul]
        left_ok = bool(hit.any(axis=0)[1:].all())    # no nonzero left ideal Rx in ker
        right_ok = bool(hit.any(axis=1)[1:].all())   # no nonzero right ideal xR in ker
        if left_ok and right_ok:
            verdict = FrobeniusVerdict("frobenius", tuple(knum))
            break
    ring._frobenius[bound] = verdict
    return verdict


def _numerator_tuples(moduli):
    """All numerator tuples, first coordinate fastest (deterministic order)."""
    k = len(moduli)
    total = math.prod(moduli)
    for t in range(total):
        out = []
        rem = t
        for m in moduli:
            out.append(rem % m)
            rem //= m
        yield tuple(out)


# ---------------------------------------------------------------------------
# radical quotient of a local ring

@dataclass(frozen=True)
class QuotientData:
    """A local ring's residue field together with the projection maps.

    proj maps base indices onto quotient indices (a surjective ring
    map); lift maps each quotient index to the least base preimage.
    """
    ring: Ring
    proj: np.ndarray
    lift: np.ndarray


def radical_quotient(ring: Ring) -> QuotientData:
    """Residue field of a local ring, built as a coordinate table ring."""
    if ring._quotient is not None:
        return ring._quotient
    st = structure(ring)
    if not st.is_local:
        raise ConstructionError(
            f"{ring.label}: residue construction requires a local ring")
    card = ring.card
    rad = st.radical
    jn = len(rad)

    # ascending scan puts the least element of each coset first
    rep_of = np.full(card, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(card):
        if rep_of[x] >= 0:
            continue
        coset = ring.add[x, rad]
        rep_of[coset] = x
        reps.append(x)
    qcard = card // jn
    if len(reps) != qcard:
        raise FalsificationError(f"{ring.label}: coset partition of radical broken")

    # residue field characteristic: additive order of the image of 1
    one_rep = int(rep_of[ring.one])
    p = 1
    acc = one_rep
    while acc != 0:
        acc = int(rep_of[ring.add[acc, ring.one]])
        p += 1
    k = 0
    q = qcard
    while q % p == 0 and q > 1:
        q //= p
        k += 1
    if q != 1:
        raise FalsificationError(
            f"{ring.label}: residue ring size {qcard} is not a power of char {p}")

    # greedy basis of the elementary abelian additive group of the quotient
    basis: list[int] = []
    span = {0}
    for r in reps:
        if r in span:
            continue
        basis.append(r)
        multiples = []
        t = r
        while t != 0:
            multiples.append(t)
            t = int(rep_of[ring.add[t, r]])
        span = {int(rep_of[ring.add[s, m]]) for s in span for m in multiples} | span
    if len(basis) != k:
        raise FalsificationError(f"{ring.label}: residue additive basis size mismatch")

    # coordinates: quotient index of sum(c_i * basis_i), c in mixed radix base p
    new_index: dict[int, int] = {}
    for t in range(qcard):
        rem = t
        elem = 0
        for b in basis:
            c = rem % p
            rem //= p
            for _ in range(c):
                elem = int(rep_of[ring.add[elem, b]])
        if elem in new_index:
            raise FalsificationError(f"{ring.label}: residue coordinates collide")
        new_index[elem] = t
    rep_arr = np.array(reps, dtype=np.int64)
    rep_to_new = np.zeros(card, dtype=np.int64)  # only rep positions used
    for rep, t in new_index.items():
        rep_to_new[rep] = t

    qadd = np.zeros((qcard, qcard), dtype=np.int32)
    qmul = np.zeros((qcard, qcard), dtype=np.int32)
    order = sorted(new_index, key=new_index.get)
    order_arr = np.array(order, dtype=np.int64)
    qadd[:, :] = rep_to_new[rep_of[ring.add[np.ix_(order_arr, order_arr)]]]
    qmul[:, :] = rep_to_new[rep_of[ring.mul[np.ix_(order_arr, order_arr)]]]

    qspec = RadicalQuotient(ring.spec)
    qone = int(rep_to_new[one_rep])
    qring = Ring(qspec, spec_label(qspec), (p,) * k, qadd, qmul, qone)

    proj = rep_to_new[rep_of].astype(np.int64)
    lift = order_arr.copy()  # reps are the least elements of their cosets

    # audit: proj must be a surjective ring map and the quotient a field
    if not np.array_equal(proj[ring.add], qadd[np.ix_(proj, proj)]):
        raise FalsificationError(f"{ring.label}: residue projection not additive")
    if not np.array_equal(proj[ring.mul], qmul[np.ix_(proj, proj)]):
        raise FalsificationError(f"{ring.label}: residue projection not multiplicative")
    if int(proj[ring.one]) != qone:
        raise FalsificationError(f"{ring.label}: residue projection moves identity")
    if len(structure(qring).units) != qcard - 1:
        raise FalsificationError(f"{ring.label}: residue ring is not a field")

    ring._quotient = QuotientData(ring=qring, proj=proj, lift=lift)
    return ring._quotient
