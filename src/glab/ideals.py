"""One-sided ideals of a group algebra as materialized element sets.

A CodeSet is an additive subgroup of RG held as a boolean mask over
the element index space, optionally carrying a one-sided ideal claim
("right" or "left"). Spans, sums, intersections, duals, annihilators,
principality tests, and the full right-ideal census all operate on
masks; every operation is exhaustive and exact.

The dual orientation follows the side. Right ideals (and bare sets)
put their elements in the second slot: dual(C) = {a : <a, c> = 0 for
all c in C}, which for right ideals equals the involution image of
the left annihilator. Left ideals put their elements in the first
slot: dual(C) = {a : <c, a> = 0}, the involution image of the right
annihilator. Both identities hold with no commutativity assumption
and are used as cross-audits; the mirrored orientation is what makes
the size product law hold on both sides. Over a noncommutative base
ring the dual of a one-sided ideal need not be one-sided; the result
then carries no side claim.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_CENSUS_BOUND
from .errors import ConstructionError, FalsificationError, ScaleError
from .finring import frobenius, structure
from .galg import GroupAlgebra

_SUMSET_PAIRS = 1 << 18     # sums formed per chunk of _sumset


class CodeSet:
    """An additive subgroup of RG as a frozen boolean mask."""

    __slots__ = ("alg", "mask", "side", "generators", "_card")

    def __init__(self, alg: GroupAlgebra, mask: np.ndarray,
                 side: Optional[str] = None, generators: tuple[int, ...] = ()):
        if side not in (None, "right", "left"):
            raise ConstructionError(f"unknown ideal side {side!r}")
        self.alg = alg
        mask = np.asarray(mask, dtype=bool).copy()
        if mask.shape != (alg.card,):
            raise ConstructionError(
                f"{alg.label}: mask has shape {mask.shape}, need ({alg.card},)")
        if not mask[0]:
            raise ConstructionError(f"{alg.label}: code set must contain 0")
        mask.setflags(write=False)
        self.mask = mask
        self.side = side
        self.generators = tuple(int(g) for g in generators)
        self._card = int(mask.sum())

    @property
    def cardinality(self) -> int:
        return self._card

    def elements(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains(self, x: int) -> bool:
        return bool(self.mask[x])

    def same_set(self, other: "CodeSet") -> bool:
        return self.alg is other.alg and np.array_equal(self.mask, other.mask)

    def is_zero(self) -> bool:
        return self._card == 1

    def is_full(self) -> bool:
        return self._card == self.alg.card

    def key(self) -> bytes:
        return np.packbits(self.mask, bitorder="little").tobytes()

    def __repr__(self) -> str:
        side = self.side or "set"
        return f"CodeSet({self.alg.label}, {side}, card={self._card})"


# ---------------------------------------------------------------------------
# mask plumbing

def _sumset(alg: GroupAlgebra, amask: np.ndarray, bmask: np.ndarray) -> np.ndarray:
    """Mask of {a + b} over the two masks, chunked to bound memory."""
    ia = np.flatnonzero(amask)
    ib = np.flatnonzero(bmask)
    if len(ia) == 0 or len(ib) == 0:
        raise ConstructionError("sumset of an empty set")
    out = np.zeros(alg.card, dtype=bool)
    step = max(1, _SUMSET_PAIRS // len(ib))
    for start in range(0, len(ia), step):
        out[alg.add(ia[start:start + step, None], ib[None, :]).ravel()] = True
    return out


def _cyclic_mask(alg: GroupAlgebra, x: int) -> np.ndarray:
    """Mask of the additive cyclic group generated by x."""
    out = np.zeros(alg.card, dtype=bool)
    t = 0
    while True:
        out[t] = True
        t = alg.add(t, x)
        if t == 0:
            return out


def additive_basis(alg: GroupAlgebra, mask: np.ndarray) -> list[int]:
    """Greedy small generating set of an additive subgroup mask."""
    span = np.zeros(alg.card, dtype=bool)
    span[0] = True
    basis: list[int] = []
    for x in np.flatnonzero(mask):
        if span[x]:
            continue
        basis.append(int(x))
        span = _sumset(alg, span, _cyclic_mask(alg, int(x)))
    if not np.array_equal(span & mask, span):
        raise ConstructionError(f"{alg.label}: set is not additively closed")
    return basis


def side_closed(code: CodeSet, side: str) -> bool:
    """Whether the set is closed under all one-sided multiplications.

    The algebra's generators (group elements and scalars) and addition
    generate every one-sided multiplication, so checking those
    suffices once additive closure is known.
    """
    alg = code.alg
    elems = code.elements()
    for g in alg.generators:
        row = alg.mul_col(g) if side == "right" else alg.mul_row(g)
        if not code.mask[row[elems]].all():
            return False
    return True


def audit_ideal(code: CodeSet) -> None:
    """Full closure audit: additive subgroup plus the declared side."""
    alg = code.alg
    if not np.array_equal(_sumset(alg, code.mask, code.mask), code.mask):
        raise ConstructionError(f"{alg.label}: set not closed under addition")
    if code.side is not None and not side_closed(code, code.side):
        raise ConstructionError(
            f"{alg.label}: set not closed under {code.side} multiplication")


# ---------------------------------------------------------------------------
# spans and lattice operations

def _side_map(alg: GroupAlgebra, u: int, side: str) -> np.ndarray:
    """x -> u*x for a right ideal, x -> x*u for a left one."""
    return alg.mul_row(u) if side == "right" else alg.mul_col(u)


def principal(alg: GroupAlgebra, u: int, side: str) -> CodeSet:
    """The one-sided principal ideal generated by u."""
    row = _side_map(alg, u, side)
    mask = np.zeros(alg.card, dtype=bool)
    mask[row] = True
    return CodeSet(alg, mask, side=side, generators=(u,))


def span(alg: GroupAlgebra, generators: Iterable[int], side: str) -> CodeSet:
    """Smallest one-sided ideal containing the generators.

    The span of each generator is already closed under the side
    multiplications and under addition, so the full span is the
    iterated sumset of the principal pieces; no fixpoint is needed.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    gens = tuple(int(u) for u in generators)
    mask = np.zeros(alg.card, dtype=bool)
    mask[0] = True
    for u in gens:
        mask = _sumset(alg, mask, principal(alg, u, side).mask)
    return CodeSet(alg, mask, side=side, generators=gens)


def _require_same(a: CodeSet, b: CodeSet) -> None:
    if a.alg is not b.alg:
        raise ConstructionError("code sets live in different algebras")
    if a.side != b.side:
        raise ConstructionError(f"mixed sides: {a.side} vs {b.side}")


def ideal_sum(a: CodeSet, b: CodeSet) -> CodeSet:
    _require_same(a, b)
    return CodeSet(a.alg, _sumset(a.alg, a.mask, b.mask), side=a.side,
                   generators=a.generators + b.generators)


def ideal_intersect(a: CodeSet, b: CodeSet) -> CodeSet:
    _require_same(a, b)
    return CodeSet(a.alg, a.mask & b.mask, side=a.side)


# ---------------------------------------------------------------------------
# duals and annihilators

def dual_code(code: CodeSet, check_wood: bool = True) -> CodeSet:
    """The orthogonal set of the code under the coefficientwise form.

    Right ideals and bare sets sit in the second slot ({a : <a,c> = 0});
    left ideals sit in the first ({a : <c,a> = 0}). Biadditivity
    reduces the filter to an additive basis of the set. The result is
    cross-audited against the annihilator identity for its side, and
    the size product against the whole algebra is asserted for sided
    inputs whenever the base ring is known to admit a generating
    character.
    """
    alg = code.alg
    basis = additive_basis(alg, code.mask)
    mask = np.ones(alg.card, dtype=bool)
    for b in basis:
        row = alg.form_row(b) if code.side == "left" else alg.form_col(b)
        mask &= row == 0
    hat = alg.hat_all()

    if code.side == "right":
        ann = ann_left(code)
    elif code.side == "left":
        ann = ann_right(code)
    else:
        ann = None
    if ann is not None:
        hat_image = np.zeros(alg.card, dtype=bool)
        hat_image[hat[ann.elements()]] = True
        if not np.array_equal(mask, hat_image):
            raise FalsificationError(
                f"{alg.label}: dual of a {code.side} ideal differs from the "
                f"involution image of its "
                f"{'left' if code.side == 'right' else 'right'} annihilator")

    if check_wood and code.side is not None:
        if frobenius(alg.ring).status == "frobenius":
            if code.cardinality * int(mask.sum()) != alg.card:
                raise FalsificationError(
                    f"{alg.label}: size product |C| * |dual| = "
                    f"{code.cardinality} * {int(mask.sum())} != {alg.card}")

    out = CodeSet(alg, mask)
    if code.side is not None and side_closed(out, code.side):
        out = CodeSet(alg, mask, side=code.side)
    return out


def ann_left(code: CodeSet) -> CodeSet:
    """All a with a*c = 0 for every c in the set; always a left ideal."""
    alg = code.alg
    mask = np.ones(alg.card, dtype=bool)
    for b in additive_basis(alg, code.mask):
        mask &= alg.mul_col(b) == 0
    return CodeSet(alg, mask, side="left")


def ann_right(code: CodeSet) -> CodeSet:
    """All a with c*a = 0 for every c in the set; always a right ideal."""
    alg = code.alg
    mask = np.ones(alg.card, dtype=bool)
    for b in additive_basis(alg, code.mask):
        mask &= alg.mul_row(b) == 0
    return CodeSet(alg, mask, side="right")


def ann_left_of_element(alg: GroupAlgebra, u: int) -> CodeSet:
    """All a with a*u = 0."""
    return CodeSet(alg, alg.mul_col(u) == 0, side="left")


def ann_right_of_element(alg: GroupAlgebra, u: int) -> CodeSet:
    """All a with u*a = 0."""
    return CodeSet(alg, alg.mul_row(u) == 0, side="right")


# ---------------------------------------------------------------------------
# principality and the census

def is_principal(code: CodeSet) -> Optional[int]:
    """First element (in canonical order) generating the set as a
    one-sided ideal, or None if no single element does."""
    if code.side is None:
        raise ConstructionError("principality needs a declared side")
    for u in code.elements():
        u = int(u)
        if principal(code.alg, u, code.side).same_set(code):
            return u
    return None


def enumerate_ideals(alg: GroupAlgebra, side: str = "right",
                     bound: int = DEFAULT_CENSUS_BOUND) -> list[CodeSet]:
    """The complete lattice of one-sided ideals.

    Every ideal is a finite sum of principal ideals, so the principal
    ones closed under pairwise sum to a fixpoint give the full
    lattice. Deterministic order: by cardinality, then by mask bytes.

    For a unit v, uvRG = uRG (and RGvu = RGu), so once u is scanned its
    products with the trivial units v = r*g (r a unit of R, g in G) are
    skipped. A skipped element generates the same ideal as one scanned
    before it, so each principal ideal keeps its least generator.
    """
    if alg.card > bound:
        raise ScaleError(
            f"{alg.label}: ideal census over {alg.card} elements exceeds the "
            f"bound {bound}")
    trivial_units = [alg.mul(alg.scalar_elem(r), alg.basis_elem(g))
                     for r in structure(alg.ring).units
                     for g in range(alg.group.order)]
    seen = np.zeros(alg.card, dtype=bool)
    found: dict[bytes, CodeSet] = {}
    for u in alg.elements:
        if seen[u]:
            continue
        c = principal(alg, u, side)
        found.setdefault(c.key(), c)
        seen[_side_map(alg, u, side)[trivial_units]] = True
    while True:
        items = sorted(found.values(), key=lambda c: (c.cardinality, c.key()))
        grew = False
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                s = ideal_sum(items[i], items[j])
                k = s.key()
                if k not in found:
                    found[k] = s
                    grew = True
        if not grew:
            break
    return sorted(found.values(), key=lambda c: (c.cardinality, c.key()))
