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

import numpy as np

from .config import DEFAULT_OP_BOUND
from .errors import ConstructionError
from .finring import structure
from .galg import GroupAlgebra, ResidueMap
from .ideals import check_scale
from .records import Record


def enumerate_idempotents(alg: GroupAlgebra,
                          bound: int = DEFAULT_OP_BOUND) -> list[int]:
    """All e with e*e = e, ascending, by exhaustive scan."""
    check_scale(alg, bound, "idempotent scan")
    every = np.arange(alg.card)
    return np.flatnonzero(alg.mul(every, every) == every).tolist()


def is_idempotent(alg: GroupAlgebra, e: int) -> bool:
    return alg.mul(e, e) == e


def _not_idempotent(alg: GroupAlgebra, e: int) -> ConstructionError:
    return ConstructionError(
        f"{alg.label}: element {alg.text(e)} is not idempotent")


class IdempotentOrder(Record):
    """The idempotent census, ascending, and its order: below[i, j]
    when f = elements[j] splits e = elements[i] into the orthogonal
    idempotents f and e - f, that is when ef = fe = f, f not in {0, e}."""
    elements: np.ndarray
    below: np.ndarray

    @property
    def primitive(self) -> np.ndarray:
        """Whether each idempotent is primitive: nonzero, with nothing
        below it in the order."""
        return (self.elements != 0) & ~self.below.any(axis=1)


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

def lift_idempotent(alg: GroupAlgebra, rm: ResidueMap, ebar: int) -> int:
    """Idempotent of the full algebra reducing to a given idempotent
    of the residue algebra.

    Starts from the coordinatewise least preimage and applies the
    cubic correction h -> 3h^2 - 2h^3, which at least squares the
    nilpotency degree of the error each step. radical-lift.iteration
    checks that the result is idempotent and reduces to the input.
    """
    if not is_idempotent(rm.residue, ebar):
        raise _not_idempotent(rm.residue, ebar)
    h = int(rm.lift[ebar])
    f = structure(alg.ring).nilpotency_index
    for _ in range(max(f - 1, 1)):
        sq = alg.mul(h, h)
        cube = alg.mul(sq, h)
        step = alg.sub(sq, cube)                  # 3h^2 - 2h^3
        nxt = alg.add(sq, alg.add(step, step))
        if nxt == h:
            break
        h = nxt
    return h
