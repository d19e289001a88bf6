"""One-sided ideals of a group algebra as materialized element sets.

A CodeSet is an additive subgroup of RG held as a boolean mask over
the element index space, optionally carrying a one-sided ideal claim
("right" or "left"), with its canonical form from glab.galg. The mask
is the set's identity: tables and caches find a set by its packed
bytes, and the census sorts by them. The form is its arithmetic: two
sets are equal exactly when their forms are, a sum is the form of the
two forms stacked, and the rows of a form generate the set. A producer
that has the form hands it over; otherwise it is found once from the
elements, which raises if the set is not additively closed.

Spans, sums and the census add forms, many at once in one batched
reduction; a sum's mask is enumerated from its form only when no set
with that form is known. Meets are masks. The principal ideals of one
side, and the annihilators of elements, come from the class tables of
glab.galg, each class keeping its least element: the census builds on
the principal table, the checkable routes read principality from it,
and `principal` reads a side's ideal from it once it exists. Ann_r(C)
is the meet of Ann_r(b) over the rows b of C's form, as c*a = 0 for
every c in C exactly when b*a = 0 for every b in a generating set.

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

from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND
from .errors import ConstructionError, ScaleError
from .galg import GroupAlgebra


class CodeSet:
    """An additive subgroup of RG as a frozen boolean mask."""

    __slots__ = ("alg", "mask", "side", "_card", "_form", "_key")

    def __init__(self, alg: GroupAlgebra, mask: np.ndarray,
                 side: Optional[str] = None, form: Optional[np.ndarray] = None):
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
        self._card = int(mask.sum())
        self._form = form
        self._key: Optional[bytes] = None

    @property
    def cardinality(self) -> int:
        return self._card

    @property
    def form(self) -> np.ndarray:
        """The canonical form of the set (`GroupAlgebra.subgroup_form`):
        the producer's, or else found from the elements on first use,
        which raises if the set is not additively closed."""
        if self._form is None:
            form = self.alg.subgroup_form(self.elements())
            if self.alg.form_rows(form)[1] != self._card:
                raise ConstructionError(
                    f"{self.alg.label}: set is not additively closed")
            self._form = form
        return self._form

    def elements(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

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
# masks and forms

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


def pair_sums(codes: list[CodeSet]) -> np.ndarray:
    """The form of C_i + C_j for every ordered pair of the codes, a
    (k, k, key length) array. Where one code holds the other, which one
    `overlaps` of the packed masks tells, the sum is the larger; the
    other pairs i < j are one batched reduction, mirrored."""
    forms = np.array([c.form for c in codes])
    masks = packed(np.array([c.mask for c in codes]))
    inside = ~overlaps(masks, ~masks)           # C_i within C_j
    out = np.where(inside[:, :, None], forms[None], forms[:, None])
    i, j = np.nonzero(np.triu(~(inside | inside.T)))
    if len(i):
        out[i, j] = out[j, i] = codes[0].alg.sum_forms(forms[i], forms[j])
    return out


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

def principal(alg: GroupAlgebra, u: int, side: str) -> CodeSet:
    """The one-sided principal ideal generated by u: read from the
    side's table once `principal_ideals` has built it, else the image
    of u's map, x -> u*x (right) or x -> x*u (left). The set is the same
    either way; only whether a map is computed depends on the table."""
    u = int(u)
    table = alg.principal_sets.get(side)
    if table is None:
        mask = np.zeros(alg.card, dtype=bool)
        mask[alg.mul_row(u) if side == "right" else alg.mul_col(u)] = True
        return CodeSet(alg, mask, side=side)
    return table[int(alg.canonical_classes(side)[0][u])]


def span(alg: GroupAlgebra, generators: Iterable[int], side: str) -> CodeSet:
    """Smallest one-sided ideal containing the generators.

    The span of each generator is already closed under the side
    multiplications and under addition, so the full span is the
    iterated sum of the principal pieces; no fixpoint is needed.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    gens = [int(u) for u in generators]
    if not gens:
        return CodeSet(alg, np.arange(alg.card) == 0, side=side)
    return reduce(ideal_sum, (principal(alg, u, side) for u in gens))


def ideal_sum(a: CodeSet, b: CodeSet) -> CodeSet:
    """A + B from the sum of the forms, its mask enumerated from it."""
    if a.alg is not b.alg:
        raise ConstructionError("code sets live in different algebras")
    if a.side != b.side:
        raise ConstructionError(f"mixed sides: {a.side} vs {b.side}")
    form = a.alg.sum_forms(a.form[None], b.form[None])[0]
    return CodeSet(a.alg, a.alg.subgroup_mask(form), side=a.side, form=form)


# ---------------------------------------------------------------------------
# duals and annihilators

def dual_code(code: CodeSet) -> CodeSet:
    """The orthogonal set of the code under the coefficientwise form.

    Right ideals and bare sets sit in the second slot ({a : <a,c> = 0});
    left ideals sit in the first ({a : <c,a> = 0}). Biadditivity
    reduces the filter to the rows of the set's form. The result keeps
    the input's side when it is closed under that side.
    """
    alg = code.alg
    mask = np.ones(alg.card, dtype=bool)
    for b in alg.form_rows(code.form)[0].tolist():
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
        least, _, masks = alg.classes(side, kernel=True)
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
    By biadditivity, the meet of Ann_l(b) over the rows b of the form."""
    return CodeSet(code.alg, _annihilator(
        code.alg, code.alg.form_rows(code.form)[0], "left", bound), side="left")


def ann_right(code: CodeSet, bound: int = DEFAULT_OP_BOUND) -> CodeSet:
    """All a with c*a = 0 for every c in the set; always a right ideal.
    By biadditivity, the meet of Ann_r(b) over the rows b of the form."""
    return CodeSet(code.alg, _annihilator(
        code.alg, code.alg.form_rows(code.form)[0], "right", bound),
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
                     bound: int = DEFAULT_CENSUS_BOUND) -> dict[bytes, int]:
    """Every principal ideal of one side as its mask key and least
    generator, in the order of those generators; the whole of RG is
    classified first, gated by `bound`. The table of ideals by least
    generator, from `GroupAlgebra.classes` with no map computed, is
    built once per algebra and side; `principal` reads it.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    check_scale(alg, bound, "principal-ideal census")
    table = alg.principal_sets.get(side)
    if table is None:
        table = alg.principal_sets[side] = {
            u: CodeSet(alg, mask, side=side, form=form)
            for u, form, mask in zip(*alg.classes(side))}
    return {c.key(): u for u, c in table.items()}


def enumerate_ideals(alg: GroupAlgebra, side: str = "right",
                     bound: int = DEFAULT_CENSUS_BOUND) -> list[CodeSet]:
    """The complete lattice of one-sided ideals, built on the table of
    principal ideals, `principal_ideals` of the side.

    Every ideal is a finite sum of principal ideals, so adding each
    principal ideal to each member found, round by round, gives the
    full lattice. Sorted by cardinality, then by mask bytes.

    A member I and a principal P = uRG are summed only when the sum is
    new: I + P = I when u is in I, and otherwise a member K of size
    |I||P|/|I & P| holding I and P is I + P, as K contains I + P. The
    meets and unions of I with every principal come from one stacked
    operation, and containment in the members from one `overlaps` of
    the packed masks. Pairs with the same union span the same sum, so
    the new sums of a round are one batched sum of forms with one pair
    per union, and a sum whose form no member has is enumerated from it.
    """
    principal_ideals(alg, side, bound)      # the table, gated by `bound`
    table = alg.principal_sets[side]
    gens, ps = np.array(list(table)), list(table.values())
    found = {p.form.tobytes(): p for p in ps}
    stack = np.array([p.mask for p in ps])
    forms = np.array([p.form for p in ps])
    sizes = np.array([p.cardinality for p in ps])
    outside = ~packed(stack)            # one row per member found
    member_sizes = sizes

    def unknown(c: CodeSet) -> dict[bytes, tuple[np.ndarray, np.ndarray]]:
        """The forms of c and of each principal whose sum with c is not
        known by size, by the packed union of the two masks."""
        todo = np.flatnonzero(~c.mask[gens])
        card = c.cardinality * sizes[todo] // np.count_nonzero(
            stack[todo] & c.mask, axis=1)
        unions = packed(stack[todo] | c.mask)
        inside = ~overlaps(unions, outside)
        new = ~(inside & (member_sizes == card[:, None])).any(axis=1)
        return {u.tobytes(): (forms[k], c.form)
                for u, k in zip(unions[new], todo[new])}

    work = list(ps)
    while work:
        todo = {u: pair for c in work for u, pair in unknown(c).items()}
        work = []
        pairs = map(np.array, zip(*todo.values()))
        for form in alg.sum_forms(*pairs) if todo else ():
            if form.tobytes() not in found:
                s = found[form.tobytes()] = CodeSet(
                    alg, alg.subgroup_mask(form), side=side, form=form)
                outside = np.vstack([outside, ~packed(s.mask)])
                member_sizes = np.append(member_sizes, s.cardinality)
                work.append(s)
    return sorted(found.values(), key=lambda c: (c.cardinality, c.key()))
