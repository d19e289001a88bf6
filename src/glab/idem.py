"""Idempotents of a group algebra: census, primitivity, orthogonal
decompositions of 1, and lifting along the coefficient radical.

Everything here is exhaustive: idempotents come from a full scan of
the squaring map, primitivity from a full scan against all other
idempotents, and every lift or decomposition is re-verified after the
fact, raising FalsificationError if a claimed law fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_OP_BOUND
from .errors import ConstructionError, FalsificationError, ScaleError
from .finring import structure
from .galg import GroupAlgebra, ResidueMap


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
    row, col = alg.mul_row(e), alg.mul_col(e)
    for f in idems:
        if f == 0 or f == e:
            continue
        if row[f] == f and col[f] == f:
            return f
    return None


def is_primitive(alg: GroupAlgebra, e: int, idems: list[int]) -> bool:
    """Whether a nonzero idempotent admits no orthogonal splitting."""
    _require_idempotent(alg, e)
    if e == 0:
        return False
    return _sub_idempotent(alg, e, idems) is None


@dataclass(frozen=True)
class IdempotentInfo:
    element: int
    central: bool
    primitive: bool


def idempotent_census(alg: GroupAlgebra,
                      idems: list[int]) -> list[IdempotentInfo]:
    """Central and primitive flags of every idempotent in the census."""
    return [IdempotentInfo(e, alg.is_central(e), is_primitive(alg, e, idems))
            for e in idems]


def decompose_idempotent(alg: GroupAlgebra, e: int,
                         idems: list[int]) -> list[int]:
    """Orthogonal primitive idempotents summing to e (empty for e = 0).

    Greedy refinement, deterministic: each non-primitive part is split
    by the least idempotent below it, taken from the census `idems`.
    The result is re-verified: parts are idempotent, pairwise
    orthogonal both ways, primitive, and sum back to e.
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
    done.sort()

    total = 0
    for p in done:
        total = alg.add(total, p)
        if not is_idempotent(alg, p) or not is_primitive(alg, p, idems):
            raise FalsificationError(
                f"{alg.label}: refinement produced a non-primitive part")
    if total != e:
        raise FalsificationError(
            f"{alg.label}: refinement parts do not sum back to the input")
    for i, p in enumerate(done):
        for q in done[i + 1:]:
            if alg.mul(p, q) != 0 or alg.mul(q, p) != 0:
                raise FalsificationError(
                    f"{alg.label}: refinement parts are not orthogonal")
    return done


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
    nilpotency degree of the error each step. The result is re-checked
    exactly: it must be idempotent and reduce to the input.
    """
    res = rm.residue
    if res.mul(ebar, ebar) != ebar:
        raise ConstructionError(
            f"{res.label}: residue element {res.text(ebar)} is not idempotent")
    h = rm.raise_least(ebar)
    f = structure(alg.ring).nilpotency_index
    for _ in range(max(f - 1, 1)):
        sq = alg.mul(h, h)
        cube = alg.mul(sq, h)
        nxt = alg.sub(_int_scale(alg, 3, sq), _int_scale(alg, 2, cube))
        if nxt == h:
            break
        h = nxt
    if not is_idempotent(alg, h):
        raise FalsificationError(
            f"{alg.label}: cubic iteration failed to reach an idempotent "
            f"above {res.text(ebar)}")
    if rm.reduce(h) != ebar:
        raise FalsificationError(
            f"{alg.label}: lifted idempotent does not reduce to its source")
    return h
