"""Checkable codes: right ideals cut out by a single check element.

A right ideal C is checkable when C = Ann_r(u) for some u; the engine
decides this by exhaustive search and cross-checks it against the
principality of the left annihilator (equivalent over a base ring
with a generating character, via double annihilators — asserted) and
against the principality of the dual as a right ideal (equivalent
over commutative base rings — asserted there, recorded elsewhere,
since over matrix base rings the dual of a checkable ideal can fail
to be a right ideal at all).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_OP_BOUND
from .errors import ConstructionError, FalsificationError, ScaleError
from .ideals import (CodeSet, ann_left, ann_right, ann_right_of_element,
                     dual_code, is_principal, span)


@dataclass(frozen=True)
class CheckabilityVerdict:
    checkable: bool
    check_element: int | None
    ann_generator: int | None
    dual_is_right_ideal: bool
    dual_generator: int | None
    dual_principal_matches: bool
    consistency: bool


def _check_element(c: CodeSet) -> int | None:
    """Least u with Ann_r(u) = C, by exhaustive scan."""
    alg = c.alg
    want = c.cardinality
    for u in alg.elements:
        row = alg.mul_row(u)
        zero = row == 0
        if int(zero.sum()) != want:
            continue
        if np.array_equal(zero, c.mask):
            return int(u)
    return None


def is_checkable(c: CodeSet, bound: int = DEFAULT_OP_BOUND) -> CheckabilityVerdict:
    """Decide checkability three ways and cross-assert what must agree.

    (i) exhaustive search for a check element; (ii) principality of
    the dual as a right ideal; (iii) principality of the left
    annihilator. (i) and (iii) must agree whenever the base ring has a
    generating character; (i) and (ii) must additionally agree when
    the base ring is commutative. Disagreement raises
    FalsificationError; the verdict records everything found.
    """
    alg = c.alg
    if c.side != "right":
        raise ConstructionError("checkability is defined for right ideals")
    if alg.card > bound:
        raise ScaleError(
            f"{alg.label}: check-element scan over {alg.card} elements "
            f"exceeds the bound {bound}")

    u = _check_element(c)
    if u is not None:
        # a single check element and the left span it generates cut
        # out the same right annihilator
        if not ann_right(span(alg, [u], "left")).same_set(c):
            raise FalsificationError(
                f"{alg.label}: check element and its left span disagree")

    al = ann_left(c)
    v = is_principal(al)

    d = dual_code(c)
    dual_right = d.side == "right"
    w = is_principal(d) if dual_right else None

    from .finring import frobenius
    if frobenius(alg.ring).status == "frobenius":
        if (u is None) != (v is None):
            raise FalsificationError(
                f"{alg.label}: check-element existence and principality of "
                f"the left annihilator disagree on an ideal of size "
                f"{c.cardinality}")
    dual_matches = (u is None) == (w is None)
    if alg.ring.is_commutative and not dual_matches:
        raise FalsificationError(
            f"{alg.label}: commutative base but checkability and dual "
            f"principality disagree on an ideal of size {c.cardinality}")

    return CheckabilityVerdict(
        checkable=u is not None,
        check_element=u,
        ann_generator=v,
        dual_is_right_ideal=dual_right,
        dual_generator=w,
        dual_principal_matches=dual_matches,
        consistency=((u is None) == (v is None)) and dual_matches,
    )


@dataclass(frozen=True)
class CheckableCensus:
    algebra_label: str
    all_checkable: bool
    verdicts: list[tuple[CodeSet, CheckabilityVerdict]]


def code_checkable_census(census: list[CodeSet],
                          bound: int) -> CheckableCensus:
    """The checkability verdict of every ideal in a full right-ideal
    census, each check-element scan gated by `bound`."""
    rows = [(c, is_checkable(c, bound)) for c in census]
    return CheckableCensus(
        algebra_label=census[0].alg.label,
        all_checkable=all(v.checkable for _, v in rows),
        verdicts=rows,
    )


# ---------------------------------------------------------------------------
# the central-decomposition intersection form

@dataclass(frozen=True)
class CentralIntersection:
    status: str  # "ok" | "non-central-parts" | "not-a-block-sum"
    intersection_matches: bool | None
    chain_matches: bool | None
    support: tuple[int, ...]


def ann_intersection_check(c: CodeSet, parts: list[int]) -> CentralIntersection:
    """Express a right ideal through the central block decomposition.

    When 1 splits into CENTRAL primitive orthogonal idempotents `parts`
    (the canonical ones come from idem.decompose_one) and C
    is the span of a subset of them, C must equal both the
    intersection of the right annihilators of the complementary
    blocks and the right annihilator of the complementary blocks'
    sum. Both equalities are computed exhaustively; a failure under a
    satisfied hypothesis raises FalsificationError. A non-central
    decomposition reports "non-central-parts"; a C that is not a
    block sum reports "not-a-block-sum".
    """
    alg = c.alg
    if c.side != "right":
        raise ConstructionError("the intersection form needs a right ideal")
    if not all(alg.is_central(p) for p in parts):
        return CentralIntersection("non-central-parts", None, None, ())

    inside = tuple(p for p in parts
                   if bool(c.mask[span(alg, [p], "right").elements()].all()))
    if not span(alg, list(inside), "right").same_set(c):
        return CentralIntersection("not-a-block-sum", None, None, ())

    complement = [p for p in parts if p not in inside]
    inter_mask = np.ones(alg.card, dtype=bool)
    for p in complement:
        inter_mask &= ann_right(span(alg, [p], "left")).mask
    inter_ok = bool(np.array_equal(inter_mask, c.mask))

    total = 0
    for p in complement:
        total = alg.add(total, p)
    chain_ok = ann_right_of_element(alg, total).same_set(c)

    if not (inter_ok and chain_ok):
        raise FalsificationError(
            f"{alg.label}: central block decomposition fails the "
            f"annihilator-intersection form on an ideal of size "
            f"{c.cardinality}")
    return CentralIntersection("ok", inter_ok, chain_ok, inside)

