"""Checkable codes: right ideals cut out by a single check element.

A right ideal C is checkable when C = Ann_r(u) for some u; the engine
decides this from the least u of every right annihilator Ann_r(u),
found for all of RG by the canonical forms of the kernels of the maps
x -> u*x (one batched Howell reduction, see glab.galg), and records
two more routes beside it: the principality of the left annihilator
(equivalent over a base ring with a generating character, via double
annihilators) and the principality of the dual as a right ideal
(equivalent over commutative base rings; over matrix base rings the
dual of a checkable ideal can fail to be a right ideal at all).
Principality is read from the tables of `ideals.principal_ideals`,
which the check elements do not use. The verdict says whether the
routes agree; the checkable-routes laws count it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .config import DEFAULT_OP_BOUND
from .errors import ConstructionError
from .galg import GroupAlgebra
from .ideals import CodeSet, ann_right_of_element, check_scale, span
from .records import record


@record
class CheckabilityVerdict(NamedTuple):
    check_element: int | None
    ann_generator: int | None
    dual_is_right_ideal: bool
    dual_generator: int | None

    @property
    def checkable(self) -> bool:
        return self.check_element is not None

    @property
    def ann_route_agrees(self) -> bool:
        """A check element exists iff the left annihilator is principal."""
        return self.checkable == (self.ann_generator is not None)

    @property
    def dual_principal_matches(self) -> bool:
        """A check element exists iff the dual is a principal right ideal."""
        return self.checkable == (self.dual_generator is not None)

    @property
    def consistency(self) -> bool:
        return self.ann_route_agrees and self.dual_principal_matches


def check_elements(alg: GroupAlgebra, bound: int) -> dict[bytes, int]:
    """The least u with Ann_r(u) = C for every right annihilator C of an
    element, keyed by C's key, in the order of those u: the classes of
    right kernels of `GroupAlgebra.canonical_classes`, which read no
    principal table and compute no map; gated by `bound`."""
    check_scale(alg, bound, "check-element scan")
    leasts, keys, _ = alg.canonical_classes("right", kernel=True)
    return {key.tobytes(): u for u, key in zip(leasts.tolist(), keys)}


# each side's `principal_ideals`: least generators by key
Principals = dict[str, dict[bytes, int]]


def _least_generator(principals: Principals, code: CodeSet) -> int | None:
    return principals[code.side].get(code.key())


def is_checkable(c: CodeSet, dual: CodeSet, ann: CodeSet,
                 checks: dict[bytes, int],
                 principals: Principals) -> CheckabilityVerdict:
    """Decide checkability three ways: (i) the least check element, from
    the table `checks` of `check_elements`; (ii) principality of `dual`,
    the dual of C, as a right ideal; (iii) principality of `ann`, the
    left annihilator of C. Principality is the least generator in
    `principals`, the table of `principal_ideals` of each side."""
    if c.side != "right":
        raise ConstructionError("checkability is defined for right ideals")
    dual_right = dual.side == "right"
    return CheckabilityVerdict(
        check_element=checks.get(c.key()),
        ann_generator=_least_generator(principals, ann),
        dual_is_right_ideal=dual_right,
        dual_generator=(_least_generator(principals, dual)
                        if dual_right else None),
    )


@record
class CheckableCensus(NamedTuple):
    algebra_label: str
    all_checkable: bool
    verdicts: list[tuple[CodeSet, CheckabilityVerdict]]


def code_checkable_census(census: list[CodeSet],
                          dual: Callable[[CodeSet], CodeSet],
                          ann: Callable[[CodeSet], CodeSet],
                          checks: dict[bytes, int],
                          principals: Principals) -> CheckableCensus:
    """The checkability verdict of every ideal in a full right-ideal
    census, with each ideal's dual from `dual`, its left annihilator
    from `ann`, its check element from the table `checks` of
    `check_elements` and principality from the tables `principals`."""
    rows = [(c, is_checkable(c, dual(c), ann(c), checks, principals))
            for c in census]
    return CheckableCensus(
        algebra_label=census[0].alg.label,
        all_checkable=all(v.checkable for _, v in rows),
        verdicts=rows,
    )


# ---------------------------------------------------------------------------
# the central-decomposition intersection form

@record
class CentralIntersection(NamedTuple):
    # "ok" | "not-a-block-sum" | "form-fails"
    status: str
    intersection_matches: bool | None
    chain_matches: bool | None
    support: tuple[int, ...]


def ann_intersection_check(codes: list[CodeSet], parts: list[int],
                           ann: Callable[[CodeSet], CodeSet],
                           bound: int = DEFAULT_OP_BOUND
                           ) -> list[CentralIntersection]:
    """Express each right ideal of a list through the central block
    decomposition.

    `parts` must be CENTRAL primitive orthogonal idempotents summing to
    1 (the canonical ones are `Workspace.parts_of_one`); the caller
    decides centrality once, not per ideal. When C is the span of a
    subset of them, C must equal both the intersection of the right
    annihilators of the complementary blocks, which is the right
    annihilator of the left ideal they span, taken from `ann` (the
    run's shared annihilators), and the right annihilator of the
    complementary blocks' sum as an element, gated by `bound`. Both
    equalities are computed exhaustively; "form-fails" reports a block
    sum where either does not hold. A C that is not a block sum reports
    "not-a-block-sum".
    """
    if any(c.side != "right" for c in codes):
        raise ConstructionError("the intersection form needs a right ideal")
    alg = codes[0].alg
    # a right ideal holds pRG exactly when it holds p, that is when the
    # sum of C and the subgroup p generates is C: one batched sum for
    # every code and part
    forms = np.repeat(np.array([c.form for c in codes]), len(parts), axis=0)
    cyclic = alg.subgroup_form(np.array(parts)[:, None])
    held = (alg.sum_forms(forms, np.tile(cyclic, (len(codes), 1))) == forms
            ).all(axis=1).reshape(len(codes), len(parts))
    out = []
    for c, row in zip(codes, held.tolist()):
        inside = tuple(p for p, h in zip(parts, row) if h)
        if not span(alg, list(inside), "right").same_set(c):
            out.append(CentralIntersection("not-a-block-sum", None, None, ()))
            continue
        complement = [p for p in parts if p not in inside]
        inter_ok = ann(span(alg, complement, "left")).same_set(c)
        total = 0
        for p in complement:
            total = alg.add(total, p)
        chain_ok = ann_right_of_element(alg, total, bound).same_set(c)
        status = "ok" if inter_ok and chain_ok else "form-fails"
        out.append(CentralIntersection(status, inter_ok, chain_ok, inside))
    return out
