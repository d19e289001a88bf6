"""Idempotents of a group algebra: census, primitivity, orthogonal
decompositions of 1, and lifting along the coefficient radical.

Everything here is exhaustive: idempotents come from a full scan of
the squaring map, primitivity from a full scan against all other
idempotents. Lifts and decompositions are returned as computed; the
law matrix in glab.verify re-checks them.
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


def _require_idempotent(alg: GroupAlgebra, e: int) -> None:
    if not is_idempotent(alg, e):
        raise ConstructionError(
            f"{alg.label}: element {alg.text(e)} is not idempotent")


def _sub_idempotent(alg: GroupAlgebra, e: int,
                    idems: list[int]) -> int | None:
    """First idempotent f with 0 != f != e and ef = fe = f, if any.

    Such an f splits e as f + (e - f), an orthogonal idempotent pair;
    its absence makes e primitive.
    """
    fs = np.array(idems, dtype=np.int64)
    below = ((alg.mul(e, fs) == fs) & (alg.mul(fs, e) == fs)
             & (fs != 0) & (fs != e))
    return int(fs[below.argmax()]) if below.any() else None


@record
class IdempotentInfo(NamedTuple):
    element: int
    central: bool
    primitive: bool


# rows of the |E| x |E| product table of the idempotents per product call
CENSUS_CHUNK_ROWS = 32


def idempotent_census(alg: GroupAlgebra,
                      idems: list[int]) -> list[IdempotentInfo]:
    """Central and primitive flags of every idempotent in the census.

    The products e*f of all pairs come from one product per chunk of
    rows of the table: the diagonal re-checks idempotence, and a
    nonzero e is primitive (admits no orthogonal splitting) when no f
    outside {0, e} has ef = fe = f (see `_sub_idempotent`). Centrality
    is `central` on the whole list at once."""
    es = np.array(idems, dtype=np.int64)
    table = np.concatenate([alg.mul(es[i:i + CENSUS_CHUNK_ROWS, None], es)
                            for i in range(0, len(es), CENSUS_CHUNK_ROWS)])
    wrong = es[np.diagonal(table) != es]
    if len(wrong):
        _require_idempotent(alg, int(wrong[0]))     # raises
    below = ((table == es) & (table.T == es) & (es != 0)
             & (es[:, None] != es))
    primitive = (es != 0) & ~below.any(axis=1)
    return [IdempotentInfo(e, central, prim) for e, central, prim in zip(
        idems, alg.central(es).tolist(), primitive.tolist())]


def decompose_idempotent(alg: GroupAlgebra, e: int,
                         idems: list[int]) -> list[int]:
    """Orthogonal primitive idempotents summing to e (empty for e = 0).

    Greedy refinement, deterministic: each non-primitive part is split
    by the least idempotent below it, taken from the census `idems`.
    split-refine.partition checks the parts of every certificate.
    """
    _require_idempotent(alg, e)
    parts: list[int] = [] if e == 0 else [e]
    done: list[int] = []
    while parts:
        cur = parts.pop()
        f = _sub_idempotent(alg, cur, idems)
        if f is None:
            done.append(cur)
        else:
            parts.append(f)
            parts.append(alg.sub(cur, f))
    return sorted(done)


def decompose_one(alg: GroupAlgebra, idems: list[int]) -> list[int]:
    """Orthogonal primitive idempotents summing to 1."""
    return decompose_idempotent(alg, alg.one, idems)


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
