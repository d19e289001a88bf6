"""One-sided ideals of a group algebra as additive subgroups of RG.

A CodeSet is an additive subgroup of RG, optionally carrying a
one-sided ideal claim ("right" or "left"), identified by its canonical
form from glab.galg: two sets are equal exactly when their forms are,
`key` is the form's bytes, and tables and caches find a set by it.
Every producer hands over a form: principal ideals from the class
tables of glab.galg, sums of two forms stacked, duals and annihilators
as kernels of matrices built from the rows of the set's form, which
generate it. A set built from a mask alone finds its form once from
its elements and refuses one that is not additively closed. The mask
is enumerated from the form when it is first read, the masks of a list
of sets in one batch (`masks`); the census keeps the masks it builds,
sorts by cardinality then packed mask, and tests containment on packed
masks, from which the meets come. Whether a set is closed under one
side's multiplications is decided by forms (`side_closed`).

The dual orientation follows the side. Right ideals (and bare sets)
put their elements in the second slot: dual(C) = {a : <a, c> = 0 for
all c in C}, which for right ideals equals the involution image of
the left annihilator. Left ideals put their elements in the first
slot: dual(C) = {a : <c, a> = 0}, the involution image of the right
annihilator. Both identities hold with no commutativity assumption;
the mirrored orientation is what makes the size product law hold on
both sides. Over a noncommutative base ring the dual of a one-sided
ideal need not be one-sided; the result then carries no side claim.
Duals, annihilators and images take a list of sets, keyed in one batch.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND
from .errors import ConstructionError, ScaleError
from .galg import GroupAlgebra


class CodeSet:
    """An additive subgroup of RG, identified by its canonical form."""

    __slots__ = ("alg", "form", "side", "_card", "_mask")

    def __init__(self, alg: GroupAlgebra, mask: Optional[np.ndarray] = None,
                 side: Optional[str] = None, form: Optional[np.ndarray] = None):
        if side not in (None, "right", "left"):
            raise ConstructionError(f"unknown ideal side {side!r}")
        self.alg = alg
        self.side = side
        self._card: Optional[int] = None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool).copy()
            if mask.shape != (alg.card,):
                raise ConstructionError(f"{alg.label}: mask has shape "
                                        f"{mask.shape}, need ({alg.card},)")
            if not mask[0]:
                raise ConstructionError(
                    f"{alg.label}: code set must contain 0")
            mask.setflags(write=False)
            self._card = int(np.count_nonzero(mask))
            if form is None:
                form = alg.subgroup_form(np.flatnonzero(mask))
                if alg.form_rows(form)[1] != self._card:
                    raise ConstructionError(
                        f"{alg.label}: set is not additively closed")
        self._mask = mask
        self.form = form

    @property
    def cardinality(self) -> int:
        if self._card is None:
            self._card = self.alg.form_rows(self.form)[1]
        return self._card

    @property
    def mask(self) -> np.ndarray:
        """The set as a read-only boolean mask over RG: the producer's,
        or else enumerated from the form on first use (`masks`)."""
        if self._mask is None:
            masks([self])
        return self._mask

    def elements(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def same_set(self, other: "CodeSet") -> bool:
        return self.alg is other.alg and np.array_equal(self.form, other.form)

    def key(self) -> bytes:
        return self.form.tobytes()

    def __repr__(self) -> str:
        side = self.side or "set"
        return f"CodeSet({self.alg.label}, {side}, card={self.cardinality})"


# ---------------------------------------------------------------------------
# masks and forms

def masks(codes: list[CodeSet]) -> np.ndarray:
    """The masks of the codes as one stack, not to be written. Those not
    yet enumerated come from one batched `GroupAlgebra.subgroup_mask` of
    their forms and are kept on their sets, with their sizes."""
    todo = [c for c in codes if c._mask is None]
    if todo:
        got = todo[0].alg.subgroup_mask(np.array([c.form for c in todo]))
        got.setflags(write=False)
        for c, mask, card in zip(todo, got, np.count_nonzero(got, axis=1)):
            c._mask, c._card = mask, int(card)
        if len(todo) == len(codes):
            return got
    return np.array([c._mask for c in codes])


def packed(stack: np.ndarray) -> np.ndarray:
    """Each row of a stack of masks packed eight columns to a byte."""
    return np.packbits(stack, axis=-1, bitorder="little")


def overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether rows a_i and b_j of two packed stacks share a set bit,
    for every (i, j): one stacked `&`, in chunks of rows of a that keep
    the (rows, len(b), bytes) intermediate near 256 KiB."""
    out = np.empty((len(a), len(b)), dtype=bool)
    step = max(1, (1 << 18) // max(1, b.size))
    for i in range(0, len(a), step):
        out[i:i + step] = (a[i:i + step, None] & b[None]).any(axis=-1)
    return out


def containment(codes: list[CodeSet]) -> np.ndarray:
    """Whether C_i lies within C_j, for every (i, j) of the codes: one
    `overlaps` of the packed masks with their complements."""
    stack = packed(masks(codes))
    return ~overlaps(stack, ~stack)


def pair_sums(codes: list[CodeSet]) -> np.ndarray:
    """The form of C_i + C_j for every ordered pair of the codes, a
    (k, k, key length) array. Where one code holds the other, which
    `containment` tells, the sum is the larger; the other pairs i < j
    are one batched reduction, mirrored."""
    forms = np.array([c.form for c in codes])
    inside = containment(codes)
    out = np.where(inside[:, :, None], forms[None], forms[:, None])
    i, j = np.nonzero(np.triu(~(inside | inside.T)))
    if len(i):
        out[i, j] = out[j, i] = codes[0].alg.sum_forms(forms[i], forms[j])
    return out


def meets(codes: list[CodeSet]) -> np.ndarray:
    """The position of C_i & C_j among the codes, for every (i, j), when
    the codes are sorted by cardinality and hold every meet, as a full
    census does: the largest code within both, from `containment`.
    Raises unless that code is C_i & C_j."""
    inside = containment(codes)
    k = len(codes)
    at = k - 1 - (inside[::-1, :, None] & inside[::-1, None, :]).argmax(axis=0)
    stack = packed(masks(codes))
    for i in range(k):
        if (stack[at[i]] != stack[i] & stack).any():
            raise ConstructionError(
                f"{codes[0].alg.label}: a meet is not among the sets")
    return at


def side_closed(codes: list[CodeSet], sides: list[str]) -> np.ndarray:
    """Whether each set is closed under all multiplications of its side.

    The rows of a set's form generate it additively, so the ideal of
    that side they generate, `GroupAlgebra.canonical_keys` of the rows
    (the sum of their principal ideals, spanned by their products with
    the coordinate basis), is the smallest one holding the set, and it
    is the set itself exactly when the set is closed: one batched
    reduction per side.
    """
    rows, sides = _rows(codes), np.array(sides)
    forms = np.array([c.form for c in codes])
    out = np.empty(len(codes), dtype=bool)
    for side in set(sides.tolist()):
        at = sides == side
        out[at] = (codes[0].alg.canonical_keys(rows[at], side)
                   == forms[at]).all(axis=1)
    return out


# ---------------------------------------------------------------------------
# spans and lattice operations

def principal(alg: GroupAlgebra, u: int, side: str) -> CodeSet:
    """The one-sided principal ideal generated by u: read from the
    side's table once `principal_ideals` has built it, else keyed as
    the image of u's map, x -> u*x (right) or x -> x*u (left), by
    `GroupAlgebra.canonical_keys`. The set is the same either way."""
    table = alg.principal_sets.get(side)
    if table is None:
        return CodeSet(alg, side=side, form=alg.canonical_keys([u], side)[0])
    leasts, _, rows = alg.canonical_classes(side)
    return table[int(leasts[rows[u]])]


def span(alg: GroupAlgebra, generators: Iterable[int], side: str) -> CodeSet:
    """Smallest one-sided ideal containing the generators.

    The span of each generator is already closed under the side
    multiplications and under addition, so the full span is the
    iterated sum of the principal pieces; no fixpoint is needed.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    gens = [int(u) for u in generators] or [0]
    return reduce(ideal_sum, (principal(alg, u, side) for u in gens))


def ideal_sum(a: CodeSet, b: CodeSet) -> CodeSet:
    """A + B, keyed by the sum of the forms."""
    if a.alg is not b.alg:
        raise ConstructionError("code sets live in different algebras")
    if a.side != b.side:
        raise ConstructionError(f"mixed sides: {a.side} vs {b.side}")
    return CodeSet(a.alg, side=a.side,
                   form=a.alg.sum_forms(a.form[None], b.form[None])[0])


# ---------------------------------------------------------------------------
# duals and annihilators

def _rows(codes: list[CodeSet]) -> np.ndarray:
    """The rows of each code's form, which generate it, as elements."""
    return codes[0].alg.stacked_rows(np.array([c.form for c in codes]))


def dual_code(codes: list[CodeSet]) -> list[CodeSet]:
    """The orthogonal set of each code under the coefficientwise form.

    Right ideals and bare sets sit in the second slot ({a : <a,c> = 0});
    left ideals sit in the first ({a : <c,a> = 0}). By biadditivity the
    rows of a code's form stand for the code: the dual is the kernel of
    the pairing with them, one batched `GroupAlgebra.dual_keys`. Each
    result keeps its input's side when it is closed under that side,
    which `side_closed` decides by forms for the batch at once.
    """
    alg = codes[0].alg
    keys = alg.dual_keys(_rows(codes), [c.side == "left" for c in codes])
    out = [CodeSet(alg, form=key) for key in keys]
    sided = [(c.side, d) for c, d in zip(codes, out) if c.side is not None]
    if sided:
        sides, duals = zip(*sided)
        for side, d, closed in zip(sides, duals, side_closed(duals, sides)):
            if closed:
                d.side = side
    return out


def hat_image(codes: list[CodeSet]) -> list[CodeSet]:
    """The image of each code under the involution, which is additive:
    the images of the rows of a form generate it."""
    alg = codes[0].alg
    return [CodeSet(alg, form=key)
            for key in alg.subgroup_form(alg.hat_all()[_rows(codes)])]


def ann_left(codes: list[CodeSet],
             bound: int = DEFAULT_OP_BOUND) -> list[CodeSet]:
    """For each code, all a with a*c = 0 for every c in it: a left ideal,
    the kernel of the maps x -> x*b of the rows b of its form side by
    side. One batch, gated by `bound` like the annihilators of elements."""
    return _kernels(codes, "left", bound)


def ann_right(codes: list[CodeSet],
              bound: int = DEFAULT_OP_BOUND) -> list[CodeSet]:
    """For each code, all a with c*a = 0 for every c in it; as `ann_left`."""
    return _kernels(codes, "right", bound)


def _kernels(codes: list[CodeSet], side: str, bound: int) -> list[CodeSet]:
    alg = codes[0].alg
    check_scale(alg, bound, "annihilator table")
    return [CodeSet(alg, side=side, form=key) for key in
            alg.canonical_keys(_rows(codes), side, kernel=True)]


def ann_right_of_element(alg: GroupAlgebra, u: int,
                         bound: int = DEFAULT_OP_BOUND) -> CodeSet:
    """All a with u*a = 0: the key of u's class in the table of right
    kernels, `GroupAlgebra.canonical_classes`, gated by `bound`."""
    check_scale(alg, bound, "annihilator table")
    _, keys, rows = alg.canonical_classes("right", kernel=True)
    return CodeSet(alg, side="right", form=keys[rows[u]])


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
    """Every principal ideal of one side as its key and least
    generator, in the order of those generators; the whole of RG is
    classified first, gated by `bound`. The table of ideals by least
    generator, from `GroupAlgebra.canonical_classes` with no map computed, is
    built once per algebra and side; `principal` reads it.
    """
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    check_scale(alg, bound, "principal-ideal census")
    table = alg.principal_sets.get(side)
    if table is None:
        leasts, keys, _ = alg.canonical_classes(side)
        table = alg.principal_sets[side] = {
            u: CodeSet(alg, side=side, form=key)
            for u, key in zip(leasts.tolist(), keys)}
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
    per union, and the sums whose forms no member has are enumerated
    from them in one batch (`masks`), as are the principal ideals.
    """
    principal_ideals(alg, side, bound)      # the table, gated by `bound`
    table = alg.principal_sets[side]
    gens, ps = np.array(list(table)), list(table.values())
    found = {p.key(): p for p in ps}
    stack = masks(ps)
    forms = np.array([p.form for p in ps])
    sizes = np.count_nonzero(stack, axis=1)
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
                s = found[form.tobytes()] = CodeSet(alg, side=side, form=form)
                work.append(s)
        if work:
            outside = np.vstack([outside, ~packed(masks(work))])
            member_sizes = np.append(member_sizes,
                                     [s.cardinality for s in work])
    return sorted(found.values(),
                  key=lambda c: (c.cardinality, packed(c.mask).tobytes()))
