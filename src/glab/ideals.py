"""One-sided ideals of a group algebra as additive subgroups of RG.

A CodeSet is an additive subgroup of RG, optionally carrying a
one-sided ideal claim ("right" or "left"), identified by its canonical
form from glab.galg and nothing else: two sets are equal exactly when
their forms are, `key` is the form's bytes, and tables and caches find
a set by it. Every producer hands over a form: principal ideals from
the class tables of glab.galg, spans as the ideal a row of elements
generates, sums of forms, duals and annihilators as kernels of
matrices built from the rows of the set's form, which generate it. The
lattice is read from sums of forms (`pair_sums`): A lies within B
exactly when A + B is B, and |A & B| = |A| |B| / |A + B| finds the
meets. Whether a set is closed under one side's multiplications is
decided by forms too (`side_closed`). Elements are enumerated only for
the census's order by cardinality, then packed mask.

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

from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT_CENSUS_BOUND, DEFAULT_OP_BOUND
from .errors import ConstructionError, ScaleError
from .galg import GroupAlgebra


class CodeSet:
    """An additive subgroup of RG, identified by its canonical form."""

    __slots__ = ("alg", "form", "side", "_card")

    def __init__(self, alg: GroupAlgebra, form: np.ndarray,
                 side: Optional[str] = None):
        if side not in (None, "right", "left"):
            raise ConstructionError(f"unknown ideal side {side!r}")
        self.alg = alg
        self.form = form
        self.side = side
        self._card: Optional[int] = None

    @property
    def cardinality(self) -> int:
        if self._card is None:
            self._card = int(self.alg.subgroup_sizes(self.form[None])[0])
        return self._card

    def same_set(self, other: "CodeSet") -> bool:
        return self.alg is other.alg and np.array_equal(self.form, other.form)

    def key(self) -> bytes:
        return self.form.tobytes()

    def __repr__(self) -> str:
        side = self.side or "set"
        return f"CodeSet({self.alg.label}, {side}, card={self.cardinality})"


# ---------------------------------------------------------------------------
# the lattice from sums of forms

def pair_sums(codes: list[CodeSet]) -> np.ndarray:
    """The form of C_i + C_j for every ordered pair of the codes, a
    (k, k, key length) array: each code's own form on the diagonal, and
    every pair i < j in one batched reduction, mirrored. Containment,
    meets and complementarity are read from it."""
    forms = np.array([c.form for c in codes])
    k = len(codes)
    out = np.empty((k, k, forms.shape[1]), dtype=forms.dtype)
    out[np.arange(k), np.arange(k)] = forms
    i, j = np.triu_indices(k, 1)
    if len(i):
        out[i, j] = out[j, i] = codes[0].alg.sum_forms(forms[i], forms[j])
    return out


def containment(sums: np.ndarray) -> np.ndarray:
    """Whether C_i lies within C_j, for every (i, j), from the codes'
    `pair_sums`: exactly when C_i + C_j is C_j."""
    return (sums == np.diagonal(sums).T[None]).all(axis=-1)


def meets(codes: list[CodeSet], sums: np.ndarray) -> np.ndarray:
    """The position of C_i & C_j among the codes, for every (i, j), when
    the codes are sorted by cardinality and hold every meet, as a full
    census does, from their `pair_sums`: the largest code M within both,
    which is the meet exactly when |M| |C_i + C_j| = |C_i| |C_j|, the
    size of the meet of two subgroups. Raises unless each is."""
    inside = containment(sums)
    k = len(codes)
    at = k - 1 - (inside[::-1, :, None] & inside[::-1, None, :]).argmax(axis=0)
    sizes = np.array([c.cardinality for c in codes])
    joins = codes[0].alg.subgroup_sizes(sums.reshape(k * k, -1)).reshape(k, k)
    if (sizes[at] * joins != np.outer(sizes, sizes)).any():
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
    """Smallest one-sided ideal containing the generators: `principal`
    for one (or none, the zero ideal), else the ideal the row of
    generators generates, one `GroupAlgebra.canonical_keys` row."""
    if side not in ("right", "left"):
        raise ConstructionError(f"unknown ideal side {side!r}")
    gens = [int(u) for u in generators] or [0]
    if len(gens) == 1:
        return principal(alg, gens[0], side)
    return CodeSet(alg, side=side, form=alg.canonical_keys([gens], side)[0])


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

    Every ideal is a finite sum of principal ideals, so the sets closed
    under adding each principal ideal that hold them all are the full
    lattice. The census works in rounds of one batched sum of forms
    each, deduplicated by form: the first sums every pair of principal
    ideals, each later one every member new in the round before with
    every principal ideal, until a round finds no new member. Sorted by
    cardinality, then by the packed mask, the masks enumerated in one
    batch, `GroupAlgebra.subgroup_mask`, and not kept.
    """
    principal_ideals(alg, side, bound)      # the table, gated by `bound`
    ps = list(alg.principal_sets[side].values())
    found = {p.key(): p for p in ps}
    forms = np.array([p.form for p in ps])
    i, j = np.triu_indices(len(ps), 1)
    pairs = forms[i], forms[j]
    while len(pairs[0]):
        new = []
        for form in alg.sum_forms(*pairs):
            if form.tobytes() not in found:
                found[form.tobytes()] = CodeSet(alg, side=side, form=form)
                new.append(form)
        new = np.array(new, dtype=forms.dtype).reshape(-1, forms.shape[1])
        pairs = np.repeat(new, len(ps), axis=0), np.tile(forms, (len(new), 1))
    codes = list(found.values())
    masks = alg.subgroup_mask(np.array([c.form for c in codes]))
    for c, card in zip(codes, np.count_nonzero(masks, axis=1).tolist()):
        c._card = card
    packed = np.packbits(masks, axis=1, bitorder="little")
    order = sorted(range(len(codes)),
                   key=lambda i: (codes[i].cardinality, packed[i].tobytes()))
    return [codes[i] for i in order]
