"""One-sided ideals of a group algebra as materialized element sets.

A CodeSet is an additive subgroup of RG held as a boolean mask over
the element index space, optionally carrying a one-sided ideal claim
("right" or "left"). Spans, sums, intersections, duals, annihilators,
principality tests, and the full right-ideal census all operate on
masks; every operation is exhaustive and exact.

Sums come from one kernel over a stack of masks: A_1 + B, ..., A_k + B
for one B are the (k, |RG|) stack of the A_i closed under each element
x of B's additive basis, with one map z -> z - x per x gathering the
columns of every row that still misses x. A single sum (a span or an
ideal_sum) is a stack of one row. Each row's basis grows with the x it
was closed under, so a sum carries its basis out of the kernel.

The principal ideals of one side come from the canonical forms of
glab.galg: the least element of each orbit of the trivial units is
reduced to the Howell form of its ideal in one batched pass, each
class of equal forms keeps its least element as generator, and its
mask is enumerated from the form. The census builds on that table,
the checkable routes read principality from it, and a principal ideal
of a side whose table exists is read from it.

Annihilators come from the kernel classes the same way: one batched
pass per side keys Ann_r(u) (Ann_l(u)) once per left (right)
principal ideal, on which it depends alone, and each class's mask is
enumerated once. Ann_r(C) is the meet of Ann_r(b) over an
additive basis of C, as c*a = 0 for every c in C exactly when b*a = 0
for every basis element b.

The dual orientation follows the side. Right ideals (and bare sets)
put their elements in the second slot: dual(C) = {a : <a, c> = 0 for
all c in C}, which for right ideals equals the involution image of
the left annihilator. Left ideals put their elements in the first
slot: dual(C) = {a : <c, a> = 0}, the involution image of the right
annihilator. Both identities hold with no commutativity assumption;
the mirrored orientation is what makes the size product law hold on
both sides. Over a noncommutative base ring the dual of a one-sided
ideal need not be one-sided; the result then carries no side claim.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND
from .errors import ConstructionError, ScaleError
from .galg import GroupAlgebra


class CodeSet:
    """An additive subgroup of RG as a frozen boolean mask."""

    __slots__ = ("alg", "mask", "side", "generators", "_card", "_basis",
                 "_key")

    def __init__(self, alg: GroupAlgebra, mask: np.ndarray,
                 side: Optional[str] = None, generators: tuple[int, ...] = (),
                 basis: Optional[tuple[int, ...]] = None):
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
        self._basis = basis
        self._key: Optional[bytes] = None

    @property
    def cardinality(self) -> int:
        return self._card

    @property
    def basis(self) -> tuple[int, ...]:
        """An additive generating set in which no element lies in the
        span of those before it: the one a sum grew in the kernel, or
        else the greedy basis, found on first use (which raises if the
        set is not additively closed)."""
        if self._basis is None:
            self._basis = tuple(additive_basis(self.alg, self.mask))
        return self._basis

    def elements(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains(self, x: int) -> bool:
        return bool(self.mask[x])

    def same_set(self, other: "CodeSet") -> bool:
        return self.alg is other.alg and np.array_equal(self.mask, other.mask)

    def key(self) -> bytes:
        if self._key is None:
            self._key = packed(self.mask).tobytes()
        return self._key

    def __repr__(self) -> str:
        side = self.side or "set"
        return f"CodeSet({self.alg.label}, {side}, card={self._card})"


# ---------------------------------------------------------------------------
# subgroup arithmetic on stacks of masks

def packed(masks: np.ndarray) -> np.ndarray:
    """Each row of a stack of masks packed eight columns to a byte, in
    the bit order of `CodeSet.key`."""
    return np.packbits(masks, axis=-1, bitorder="little")


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether rows a_i and b_j of two packed stacks share a set bit,
    for every (i, j): one stacked `&`, in chunks of rows of a that keep
    the (rows, len(b), bytes) intermediate near 256 KiB."""
    out = np.empty((len(a), len(b)), dtype=bool)
    step = max(1, (1 << 18) // max(1, b.size))
    for i in range(0, len(a), step):
        out[i:i + step] = (a[i:i + step, None] & b[None]).any(axis=-1)
    return out


def _close(masks: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Close each row S of a stack of subgroup masks under x, where
    `back` is the map z -> z - x on the stack's columns (column 0 holds
    0): S + <x> is S, S + x, ..., S + (n - 1)x for the additive order n
    of x, the length of the cycle of 0 under the map, and gathering
    columns through the map adds one more multiple of x."""
    z = int(back[0])
    while z:
        masks = masks | masks[:, back]
        z = int(back[z])
    return masks


def additive_basis(alg: GroupAlgebra, mask: np.ndarray) -> list[int]:
    """Greedy small generating set of an additive subgroup mask: each
    element is the least one not yet spanned. The span is closed in the
    mask's own columns, through z -> z - x restricted to the mask;
    raises if that leaves the mask, which happens for some basis
    element exactly when the mask is not additively closed."""
    elems = np.flatnonzero(mask)
    col = np.cumsum(mask) - 1       # each element's column in the mask
    span = (elems == 0)[None]       # a stack of one row
    basis: list[int] = []
    while not span.all():
        x = int(elems[span[0].argmin()])
        back = alg.sub(elems, x)
        if not mask[back].all():
            raise ConstructionError(f"{alg.label}: set is not additively closed")
        basis.append(x)
        span = _close(span, col[back])
    return basis


def _sumset(ops: list[CodeSet], b: CodeSet) -> tuple[np.ndarray, np.ndarray]:
    """Masks of A + B for additive subgroups A in `ops` and B, one row
    per A: the whole stack closed under each element x of B's basis,
    with one z -> z - x map for all the rows missing x. Also which x
    each row was closed under, a (len(ops), len(B.basis)) matrix: A's
    basis and those x are a basis of A + B (see `_grown_basis`)."""
    for code in (*ops, b):
        code.basis          # an unclosed operand raises here
    masks = np.array([a.mask for a in ops])
    grew = np.zeros((len(ops), len(b.basis)), dtype=bool)
    for k, x in enumerate(b.basis):
        rows = np.flatnonzero(~masks[:, x])
        if len(rows):
            masks[rows] = _close(masks[rows], b.alg.sub_col(x))
            grew[rows, k] = True
    return masks, grew


def _grown_basis(a: CodeSet, b: CodeSet, grew: np.ndarray) -> tuple[int, ...]:
    """The basis of A + B from A's and the row `grew` of `_sumset`."""
    return a.basis + tuple(x for x, took in zip(b.basis, grew) if took)


def side_closed(code: CodeSet, side: str) -> bool:
    """Whether the set is closed under all one-sided multiplications.

    The algebra's generators (group elements and scalars) and addition
    generate every one-sided multiplication, so checking those
    suffices once additive closure is known.
    """
    alg = code.alg
    elems = code.elements()
    for g in alg.generators:
        if not code.mask[alg.fixed_map(g, side == "left")[elems]].all():
            return False
    return True


# ---------------------------------------------------------------------------
# spans and lattice operations

def _side_map(alg: GroupAlgebra, u: int, side: str) -> np.ndarray:
    """x -> u*x for a right ideal, x -> x*u for a left one."""
    return alg.mul_row(u) if side == "right" else alg.mul_col(u)


def principal(alg: GroupAlgebra, u: int, side: str) -> CodeSet:
    """The one-sided principal ideal generated by u: read from the
    side's table once `principal_ideals` has built it, else the image
    of u's map. The set is the same either way; only whether a map is
    computed depends on the table."""
    u = int(u)
    table = alg.principal_sets.get(side)
    if table is None:
        mask = np.zeros(alg.card, dtype=bool)
        mask[_side_map(alg, u, side)] = True
        return CodeSet(alg, mask, side=side, generators=(u,))
    got = table[int(alg.canonical_classes(side)[0][u])]
    return got if got.generators == (u,) else CodeSet(
        alg, got.mask, side=side, generators=(u,), basis=got._basis)


def span(alg: GroupAlgebra, generators: Iterable[int], side: str) -> CodeSet:
    """Smallest one-sided ideal containing the generators.

    The span of each generator is already closed under the side
    multiplications and under addition, so the full span is the
    iterated sumset of the principal pieces; no fixpoint is needed.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    gens = tuple(int(u) for u in generators)
    if not gens:
        return CodeSet(alg, np.arange(alg.card) == 0, side=side)
    out = principal(alg, gens[0], side)
    for u in gens[1:]:
        out = ideal_sum(out, principal(alg, u, side))
    return out


def _require_same(a: CodeSet, b: CodeSet) -> None:
    if a.alg is not b.alg:
        raise ConstructionError("code sets live in different algebras")
    if a.side != b.side:
        raise ConstructionError(f"mixed sides: {a.side} vs {b.side}")


def ideal_sum(a: CodeSet, b: CodeSet) -> CodeSet:
    _require_same(a, b)
    (mask,), (grew,) = _sumset([a], b)
    return CodeSet(a.alg, mask, side=a.side,
                   generators=a.generators + b.generators,
                   basis=_grown_basis(a, b, grew))


# ---------------------------------------------------------------------------
# duals and annihilators

def dual_code(code: CodeSet) -> CodeSet:
    """The orthogonal set of the code under the coefficientwise form.

    Right ideals and bare sets sit in the second slot ({a : <a,c> = 0});
    left ideals sit in the first ({a : <c,a> = 0}). Biadditivity
    reduces the filter to an additive basis of the set. The result
    keeps the input's side when it is closed under that side.
    """
    alg = code.alg
    mask = np.ones(alg.card, dtype=bool)
    for b in code.basis:
        row = alg.form_row(b) if code.side == "left" else alg.form_col(b)
        mask &= row == 0
    out = CodeSet(alg, mask)
    if code.side is not None and side_closed(out, code.side):
        out = CodeSet(alg, mask, side=code.side)
    return out


def annihilator_classes(alg: GroupAlgebra, side: str,
                        bound: int = DEFAULT_OP_BOUND
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classes of equal Ann_r(u) (side "right") or Ann_l(u) ("left")
    over all u: the least element of each, ascending, the annihilator it
    shares as a mask, one row each, and the row of every element. From
    `GroupAlgebra.classes` of the kernels, gated by `bound` and built
    once per algebra and side."""
    check_scale(alg, bound, "annihilator table")
    got = alg.annihilator_sets.get(side)
    if got is None:
        least, masks = alg.classes(side, kernel=True)
        rows = np.searchsorted(least, alg.canonical_classes(side, kernel=True)[0])
        got = alg.annihilator_sets[side] = (least, masks, rows)
    return got


def _annihilator(alg: GroupAlgebra, elems, side: str, bound: int) -> np.ndarray:
    """The mask of the side annihilator of the elements: the meet of
    their classes' masks in `annihilator_classes`."""
    _, masks, rows = annihilator_classes(alg, side, bound)
    return np.logical_and.reduce(masks[rows[list(elems)]], axis=0)


def ann_left(code: CodeSet, bound: int = DEFAULT_OP_BOUND) -> CodeSet:
    """All a with a*c = 0 for every c in the set; always a left ideal.
    By biadditivity, the meet of Ann_l(b) over the set's basis."""
    return CodeSet(code.alg, _annihilator(code.alg, code.basis, "left", bound),
                   side="left")


def ann_right(code: CodeSet, bound: int = DEFAULT_OP_BOUND) -> CodeSet:
    """All a with c*a = 0 for every c in the set; always a right ideal.
    By biadditivity, the meet of Ann_r(b) over the set's basis."""
    return CodeSet(code.alg, _annihilator(code.alg, code.basis, "right", bound),
                   side="right")


def ann_right_of_element(alg: GroupAlgebra, u: int,
                         bound: int = DEFAULT_OP_BOUND) -> CodeSet:
    """All a with u*a = 0."""
    return CodeSet(alg, _annihilator(alg, [u], "right", bound), side="right")


# ---------------------------------------------------------------------------
# principality and the census

def check_scale(alg: GroupAlgebra, bound: int, what: str) -> None:
    """Refuse a pass over all of RG, before any table is built, when
    the algebra has more than `bound` elements."""
    if alg.card > bound:
        raise ScaleError(
            f"{alg.label}: {what} over {alg.card} elements exceeds the "
            f"bound {bound}")


def principal_ideals(alg: GroupAlgebra, side: str,
                     bound: int = DEFAULT_CENSUS_BOUND) -> dict[bytes, CodeSet]:
    """Every principal ideal of one side by mask key, in the order of
    their least generators, each generated by its least generator; the
    whole of RG is classified first, gated by `bound`.

    The classes and masks are `GroupAlgebra.classes`: the least element
    of each orbit of the trivial units is reduced to a canonical form of
    its ideal, in one batched pass, and each class's mask is enumerated
    from its form, so no map is computed. The table is built once per
    algebra and side; `principal` reads it.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    check_scale(alg, bound, "principal-ideal census")
    table = alg.principal_sets.get(side)
    if table is None:
        gens, masks = alg.classes(side)
        table = {u: CodeSet(alg, mask, side=side, generators=(u,))
                 for u, mask in zip(gens.tolist(), masks)}
        alg.principal_sets[side] = table
    return {c.key(): c for c in table.values()}


def enumerate_ideals(alg: GroupAlgebra, side: str = "right",
                     bound: int = DEFAULT_CENSUS_BOUND) -> list[CodeSet]:
    """The complete lattice of one-sided ideals, built on the table of
    principal ideals, `principal_ideals` of the side.

    Every ideal is a finite sum of principal ideals, so adding each
    principal ideal to each member found, from a worklist, gives the
    full lattice. Sorted by cardinality, then by mask bytes.

    A member I and a principal P = uRG are summed only when the sum is
    new: I + P = I when u is in I, and otherwise a member K of size
    |I||P|/|I & P| holding I and P is I + P, as K contains I + P. The
    meets and unions of I with every principal come from one stacked
    operation, and containment in the members from one `overlaps` of
    the packed masks. The new sums of I come from one kernel call,
    added in principal order.
    """
    principals = principal_ideals(alg, side, bound)    # gated by `bound`
    found = dict(principals)
    ps = list(principals.values())
    stack = np.array([p.mask for p in ps])
    gens = np.array([p.generators[0] for p in ps])
    sizes = np.array([p.cardinality for p in ps])
    outside = ~packed(stack)            # one row per member found
    member_sizes = sizes
    work = list(ps)
    while work:
        c = work.pop()
        todo = np.flatnonzero(~c.mask[gens])
        if not len(todo):
            continue
        card = c.cardinality * sizes[todo] // np.count_nonzero(
            stack[todo] & c.mask, axis=1)
        inside = ~overlaps(packed(stack[todo] | c.mask), outside)
        todo = todo[~(inside & (member_sizes == card[:, None])).any(axis=1)]
        if not len(todo):
            continue
        masks, grew = _sumset([ps[k] for k in todo], c)
        for k, mask, took in zip(todo.tolist(), masks, grew):
            row = packed(mask)
            if row.tobytes() not in found:
                s = found[row.tobytes()] = CodeSet(
                    alg, mask, side=side,
                    basis=_grown_basis(ps[k], c, took),
                    generators=c.generators + ps[k].generators)
                outside = np.vstack([outside, ~row])
                member_sizes = np.append(member_sizes, s.cardinality)
                work.append(s)
    return sorted(found.values(), key=lambda c: (c.cardinality, c.key()))
