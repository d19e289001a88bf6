"""Idempotents of a group algebra: census, primitivity, orthogonal
decompositions of 1, and lifting along the coefficient radical.

Everything here is exhaustive: idempotents come from a full scan of
the squaring map, and their order (which idempotents split which) from
one table of the products of all pairs, `IdempotentOrder`, which
primitivity and every decomposition read. Lifts and decompositions
are returned as computed; the law matrix in glab.verify re-checks
them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import DEFAULT_OP_BOUND
from .errors import ConstructionError, ScaleError
from .finring import structure
from .galg import GroupAlgebra, ResidueMap
from .records import record


def enumerate_idempotents(alg: GroupAlgebra,
                          bound: int = DEFAULT_OP_BOUND) -> list[int]:
    """All e with e*e = e, ascending, by exhaustive scan."""
    if alg.card > bound:
        raise ScaleError(
            f"{alg.label}: idempotent scan over {alg.card} elements exceeds "
            f"the bound {bound}")
    sq = alg.square_all()
    return [int(e) for e in np.flatnonzero(sq == np.arange(alg.card))]


def is_idempotent(alg: GroupAlgebra, e: int) -> bool:
    return alg.mul(e, e) == e


def _not_idempotent(alg: GroupAlgebra, e: int) -> ConstructionError:
    return ConstructionError(
        f"{alg.label}: element {alg.text(e)} is not idempotent")


@record
class IdempotentOrder(NamedTuple):
    """The idempotent census, ascending, and its order: below[i, j]
    when f = elements[j] splits e = elements[i] into the orthogonal
    idempotents f and e - f, that is when ef = fe = f, f not in {0, e}.
    A nonzero e with nothing below it is primitive."""
    elements: np.ndarray
    below: np.ndarray


# rows of the |E| x |E| product table of the idempotents per product call
CENSUS_CHUNK_ROWS = 32


def idempotent_order(alg: GroupAlgebra, idems: list[int]) -> IdempotentOrder:
    """The order of the idempotent census `idems` (ascending), from the
    products e*f of all pairs, one product per chunk of rows of the
    table; the diagonal re-checks idempotence."""
    es = np.array(idems, dtype=np.int64)
    table = np.concatenate([alg.mul(es[i:i + CENSUS_CHUNK_ROWS, None], es)
                            for i in range(0, len(es), CENSUS_CHUNK_ROWS)])
    wrong = es[np.diagonal(table) != es]
    if len(wrong):
        raise _not_idempotent(alg, int(wrong[0]))
    return IdempotentOrder(es, (table == es) & (table.T == es) & (es != 0)
                           & (es[:, None] != es))


@record
class IdempotentInfo(NamedTuple):
    element: int
    central: bool
    primitive: bool


def idempotent_census(alg: GroupAlgebra,
                      order: IdempotentOrder) -> list[IdempotentInfo]:
    """Central and primitive flags of every idempotent in the census:
    a nonzero e is primitive when nothing lies below it in `order`.
    Centrality is `central` on the whole list at once."""
    es = order.elements
    primitive = (es != 0) & ~order.below.any(axis=1)
    return [IdempotentInfo(e, central, prim) for e, central, prim in zip(
        es.tolist(), alg.central(es).tolist(), primitive.tolist())]


def decompose_idempotent(alg: GroupAlgebra, e: int,
                         order: IdempotentOrder) -> list[int]:
    """Orthogonal primitive idempotents summing to e (empty for e = 0).

    Greedy refinement, deterministic: each part is split by the first
    idempotent below it in census order, read from `order`, so no
    product is computed; a part with none below is primitive.
    split-refine.partition checks the parts of every certificate.
    """
    es = order.elements
    if e not in es:
        raise _not_idempotent(alg, e)
    parts, done = [e], []
    while parts:     # each part is an idempotent of the census
        cur = parts.pop()
        below = order.below[np.searchsorted(es, cur)]
        if below.any():
            f = int(es[below.argmax()])
            parts += [f, alg.sub(cur, f)]
        elif cur != 0:
            done.append(cur)
    return sorted(done)


# ---------------------------------------------------------------------------
# lifting along the coefficient radical

def _int_scale(alg: GroupAlgebra, k: int, x: int) -> int:
    acc = 0
    for _ in range(k):
        acc = alg.add(acc, x)
    return acc


def lift_idempotent(alg: GroupAlgebra, rm: ResidueMap, ebar: int) -> int:
    """Idempotent of the full algebra reducing to a given idempotent
    of the residue algebra.

    Starts from the coordinatewise least preimage and applies the
    cubic correction h -> 3h^2 - 2h^3, which at least squares the
    nilpotency degree of the error each step. radical-lift.iteration
    checks that the result is idempotent and reduces to the input.
    """
    res = rm.residue
    if res.mul(ebar, ebar) != ebar:
        raise ConstructionError(
            f"{res.label}: residue element {res.text(ebar)} is not idempotent")
    h = int(rm.lift[ebar])
    f = structure(alg.ring).nilpotency_index
    for _ in range(max(f - 1, 1)):
        sq = alg.mul(h, h)
        cube = alg.mul(sq, h)
        nxt = alg.sub(_int_scale(alg, 3, sq), _int_scale(alg, 2, cube))
        if nxt == h:
            break
        h = nxt
    return h
