"""Complementary pairs of one-sided ideals.

A pair (C, D) is complementary when C meets D only in 0 and together
they span the whole algebra. Every such pair of right ideals is split
by a unique idempotent certificate e with C = e*RG and D = (1-e)*RG;
this module finds certificates, refines them into primitive
orthogonal families, and transfers pairs across the coefficient-radical
projection over local base rings. The functions compute and return;
the laws these results must satisfy are counted by the law matrix in
glab.verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstructionError
from .galg import ResidueMap
from .idem import decompose_idempotent, lift_idempotent
from .ideals import CodeSet, span


def _require_pair(c: CodeSet, d: CodeSet) -> None:
    if c.alg is not d.alg:
        raise ConstructionError("pair members live in different algebras")
    if c.side != d.side or c.side is None:
        raise ConstructionError(
            f"pair members need one matching side, got {c.side} and {d.side}")


def is_lcp(c: CodeSet, d: CodeSet) -> bool:
    """Trivial intersection and full joint span, by exhaustive masks."""
    _require_pair(c, d)
    if int((c.mask & d.mask).sum()) != 1:
        return False
    return c.cardinality * d.cardinality == c.alg.card


def lcp_certificate(c: CodeSet, d: CodeSet) -> int | None:
    """The split of 1 across a complementary pair: the element e of C
    with 1 - e in D, or None unless exactly one such e exists.

    The split is not judged here; lcp-split.biconditional checks that
    it is an idempotent whose split regenerates both members.
    """
    _require_pair(c, d)
    if not is_lcp(c, d):
        raise ConstructionError(
            f"{c.alg.label}: ideals of sizes {c.cardinality} and "
            f"{d.cardinality} are not a complementary pair")
    alg = c.alg
    members = c.elements()
    hits = members[d.mask[alg.sub(alg.one, members)]]
    return int(hits[0]) if len(hits) == 1 else None


@dataclass(frozen=True)
class LcpPair:
    c: CodeSet
    d: CodeSet
    certificate: int | None


def lcp_scan(census: list[CodeSet]) -> list[LcpPair]:
    """All ordered complementary pairs of a full one-sided ideal census."""
    return [LcpPair(c, d, lcp_certificate(c, d))
            for c in census for d in census if is_lcp(c, d)]


def refine_certificate(c: CodeSet, d: CodeSet,
                       idems: list[int]) -> tuple[list[int], list[int]]:
    """Primitive orthogonal idempotents refining a pair's certificate,
    split by members of the idempotent census `idems`: the parts of e
    and the parts of 1-e."""
    alg = c.alg
    e = lcp_certificate(c, d)
    return (decompose_idempotent(alg, e, idems),
            decompose_idempotent(alg, alg.one_minus(e), idems))


# ---------------------------------------------------------------------------
# residue transfer

@dataclass(frozen=True)
class ResidueTransfer:
    lcp_base: bool
    lcp_residue: bool
    biconditional: bool
    # whether the lifted certificate splits off exactly (C, D), and
    # whether its split is a complementary pair over the residue pair;
    # None when the residue pair is not complementary
    members_idempotent_generated: bool | None
    lift_splits: bool | None
    certificate: int | None
    residue_certificate: int | None
    lifted_certificate: int | None


def project_code(rm: ResidueMap, code: CodeSet) -> CodeSet:
    """Image of an ideal under the coefficientwise residue projection."""
    mask = np.zeros(rm.residue.card, dtype=bool)
    mask[rm.proj[code.elements()]] = True
    return CodeSet(rm.residue, mask, side=code.side)


def lcp_residue_correspondence(c: CodeSet, d: CodeSet, rm: ResidueMap,
                               project: Callable[[CodeSet], CodeSet]
                               ) -> ResidueTransfer:
    """How complementarity transfers across the residue projection.

    Records whether the base pair and its residue image are
    complementary, and, when the image is, the residue certificate,
    its lift, and whether the lift's split is a complementary pair over
    the image and equals (C, D). Over a local base ring a
    complementary base pair projects to a complementary pair split by
    the reduced certificate, and an idempotent-generated pair is
    complementary exactly when its image is; the raw biconditional
    fails when a member is not generated by an idempotent (e.g. the
    whole algebra against a radical multiple projects onto the trivial
    complementary pair). The residue laws count each of these. Each
    member's image comes from `project`, the residue projection of rm.
    """
    alg = c.alg
    cbar = project(c)
    dbar = project(d)
    base = is_lcp(c, d)
    res = is_lcp(cbar, dbar)
    e = lcp_certificate(c, d) if base else None
    if not res:
        return ResidueTransfer(lcp_base=base, lcp_residue=False,
                               biconditional=not base,
                               members_idempotent_generated=None,
                               lift_splits=None, certificate=e,
                               residue_certificate=None,
                               lifted_certificate=None)

    ebar = lcp_certificate(cbar, dbar)
    lifted = lift_idempotent(alg, rm, ebar)
    lifted_c = span(alg, [lifted], c.side)
    lifted_d = span(alg, [alg.one_minus(lifted)], d.side)
    return ResidueTransfer(
        lcp_base=base, lcp_residue=True, biconditional=base,
        members_idempotent_generated=(lifted_c.same_set(c)
                                      and lifted_d.same_set(d)),
        lift_splits=(is_lcp(lifted_c, lifted_d)
                     and project(lifted_c).same_set(cbar)
                     and project(lifted_d).same_set(dbar)),
        certificate=e, residue_certificate=ebar, lifted_certificate=lifted)
