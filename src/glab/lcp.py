"""Complementary pairs of one-sided ideals.

A pair (C, D) is complementary when C meets D only in 0 and together
they span the whole algebra. Every such pair of right ideals is split
by a unique idempotent certificate e with C = e*RG and D = (1-e)*RG;
this module finds certificates, refines them into primitive
orthogonal families, transfers pairs across the coefficient-radical
projection over local base rings, and relates the involution image of
one member to the dual of the other. All claimed laws are re-verified
exactly; failures raise FalsificationError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError, FalsificationError
from .galg import GroupAlgebra, ResidueMap
from .idem import decompose_idempotent, is_idempotent, lift_idempotent
from .ideals import CodeSet, dual_code, span


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


def lcp_certificate(c: CodeSet, d: CodeSet) -> int:
    """The unique element of C whose complement to 1 lies in D.

    Requires a complementary pair. The witness is verified to be
    idempotent and to regenerate both members; non-uniqueness or any
    verification failure raises FalsificationError.
    """
    _require_pair(c, d)
    if not is_lcp(c, d):
        raise ConstructionError(
            f"{c.alg.label}: ideals of sizes {c.cardinality} and "
            f"{d.cardinality} are not a complementary pair")
    alg = c.alg
    hits = [int(x) for x in c.elements() if d.contains(alg.one_minus(int(x)))]
    if len(hits) != 1:
        raise FalsificationError(
            f"{alg.label}: expected one split of 1 across the pair, "
            f"found {len(hits)}")
    e = hits[0]
    if not is_idempotent(alg, e):
        raise FalsificationError(
            f"{alg.label}: pair split {alg.text(e)} is not idempotent")
    if not span(alg, [e], c.side).same_set(c):
        raise FalsificationError(
            f"{alg.label}: certificate does not regenerate the first member")
    if not span(alg, [alg.one_minus(e)], d.side).same_set(d):
        raise FalsificationError(
            f"{alg.label}: certificate complement does not regenerate the "
            f"second member")
    return e


def complement_pair(alg: GroupAlgebra, e: int,
                    side: str = "right") -> tuple[CodeSet, CodeSet]:
    """The complementary pair split by an idempotent."""
    if not is_idempotent(alg, e):
        raise ConstructionError(
            f"{alg.label}: element {alg.text(e)} is not idempotent")
    c = span(alg, [e], side)
    d = span(alg, [alg.one_minus(e)], side)
    if not is_lcp(c, d):
        raise FalsificationError(
            f"{alg.label}: idempotent {alg.text(e)} fails to split the "
            f"algebra into a complementary pair")
    return c, d


@dataclass(frozen=True)
class LcpPair:
    c: CodeSet
    d: CodeSet
    certificate: int


def lcp_scan(census: list[CodeSet], idems: list[int]) -> list[LcpPair]:
    """All ordered complementary pairs of a full one-sided ideal census.

    Cross-checked against the idempotent census `idems`: the pairs
    found by lattice inspection must be exactly the splits of the
    idempotents, one pair per idempotent.
    """
    alg, side = census[0].alg, census[0].side
    pairs = []
    for c in census:
        for d in census:
            if is_lcp(c, d):
                pairs.append(LcpPair(c, d, lcp_certificate(c, d)))

    via_idems = set()
    for e in idems:
        cc, dd = complement_pair(alg, e, side)
        via_idems.add((cc.key(), dd.key()))
    via_lattice = {(p.c.key(), p.d.key()) for p in pairs}
    if via_lattice != via_idems or len(pairs) != len(idems):
        raise FalsificationError(
            f"{alg.label}: complementary pairs and idempotents do not "
            f"correspond one to one ({len(pairs)} pairs, {len(idems)} "
            f"idempotents)")
    return pairs


# ---------------------------------------------------------------------------
# primitive refinement

def refine_certificate(c: CodeSet, d: CodeSet,
                       idems: list[int]) -> tuple[list[int], list[int]]:
    """Primitive orthogonal idempotents refining a pair's certificate,
    split by members of the idempotent census `idems`.

    Returns the parts of e and of 1-e. Verified: all parts from both
    lists are pairwise orthogonal, they sum to 1, the parts of each
    member regenerate it, and member sizes factor through the parts
    (so each member is the direct sum of its primitive pieces).
    """
    alg = c.alg
    e = lcp_certificate(c, d)
    parts_c = decompose_idempotent(alg, e, idems)
    parts_d = decompose_idempotent(alg, alg.one_minus(e), idems)

    for p in parts_c:
        for q in parts_d:
            if alg.mul(p, q) != 0 or alg.mul(q, p) != 0:
                raise FalsificationError(
                    f"{alg.label}: refinement parts of the two members are "
                    f"not orthogonal")
    total = 0
    for p in parts_c + parts_d:
        total = alg.add(total, p)
    if total != alg.one:
        raise FalsificationError(
            f"{alg.label}: refinement parts do not sum to 1")

    for code, parts in ((c, parts_c), (d, parts_d)):
        if not span(alg, parts, code.side).same_set(code):
            raise FalsificationError(
                f"{alg.label}: refinement parts do not regenerate the member")
        size = 1
        for p in parts:
            size *= span(alg, [p], code.side).cardinality
        if size != code.cardinality:
            raise FalsificationError(
                f"{alg.label}: member is not the direct sum of its parts")
    return parts_c, parts_d


# ---------------------------------------------------------------------------
# involution equivalence

@dataclass(frozen=True)
class HatEquivalence:
    certificate: int
    central: bool
    sizes_match: bool
    hat_image_matches: bool


def hat_equivalence(c: CodeSet, d: CodeSet) -> HatEquivalence:
    """How the involution image of C relates to the dual of D.

    For a central certificate the image must equal the dual exactly;
    the size equality |C| = |dual(D)| must hold regardless. Violations
    raise FalsificationError; the record keeps what held.
    """
    alg = c.alg
    e = lcp_certificate(c, d)
    central = alg.is_central(e)
    dd = dual_code(d)
    hat_image = np.zeros(alg.card, dtype=bool)
    hat_image[alg.hat_all()[c.elements()]] = True

    sizes_match = c.cardinality == dd.cardinality
    image_matches = bool(np.array_equal(hat_image, dd.mask))
    if not sizes_match:
        raise FalsificationError(
            f"{alg.label}: |C| = {c.cardinality} differs from |dual(D)| = "
            f"{dd.cardinality}")
    if central and not image_matches:
        raise FalsificationError(
            f"{alg.label}: central certificate but the involution image of "
            f"C is not the dual of D")
    return HatEquivalence(certificate=e, central=central,
                          sizes_match=sizes_match,
                          hat_image_matches=image_matches)


# ---------------------------------------------------------------------------
# residue transfer

@dataclass(frozen=True)
class ResidueTransfer:
    lcp_base: bool
    lcp_residue: bool
    biconditional: bool
    members_idempotent_generated: bool | None
    certificate: int | None
    residue_certificate: int | None
    lifted_certificate: int | None


def project_code(rm: ResidueMap, code: CodeSet) -> CodeSet:
    """Image of an ideal under the coefficientwise residue projection."""
    mask = np.zeros(rm.residue.card, dtype=bool)
    mask[rm.proj[code.elements()]] = True
    return CodeSet(rm.residue, mask, side=code.side)


def lcp_residue_correspondence(c: CodeSet, d: CodeSet,
                               rm: ResidueMap) -> ResidueTransfer:
    """How complementarity transfers across the residue projection.

    Over a local base ring the following hold and are asserted here:
    a complementary base pair projects to a complementary residue pair
    whose certificate is the reduction of the base certificate; and
    every complementary residue pair is the image of the complementary
    base pair split by the lifted certificate. The raw biconditional
    for an arbitrary pair is REPORTED, not asserted: it genuinely
    fails when a member is not generated by an idempotent (e.g. the
    whole algebra against a radical multiple projects onto the trivial
    complementary pair). When both members are generated by
    idempotents the biconditional is asserted.
    """
    alg = c.alg
    cbar = project_code(rm, c)
    dbar = project_code(rm, d)
    base = is_lcp(c, d)
    res = is_lcp(cbar, dbar)

    if base and not res:
        raise FalsificationError(
            f"{alg.label}: a complementary pair projected to a "
            f"non-complementary residue pair")
    if not res:
        return ResidueTransfer(lcp_base=False, lcp_residue=False,
                               biconditional=True,
                               members_idempotent_generated=None,
                               certificate=None, residue_certificate=None,
                               lifted_certificate=None)

    ebar = lcp_certificate(cbar, dbar)
    lifted = lift_idempotent(alg, rm, ebar)
    lifted_c = span(alg, [lifted], c.side)
    lifted_d = span(alg, [alg.one_minus(lifted)], d.side)
    if not is_lcp(lifted_c, lifted_d):
        raise FalsificationError(
            f"{alg.label}: lifted certificate fails to split the algebra")
    if not (project_code(rm, lifted_c).same_set(cbar)
            and project_code(rm, lifted_d).same_set(dbar)):
        raise FalsificationError(
            f"{alg.label}: lifted pair does not project back onto the "
            f"residue pair")

    generated = lifted_c.same_set(c) and lifted_d.same_set(d)
    if base:
        e = lcp_certificate(c, d)
        if rm.reduce(e) != ebar:
            raise FalsificationError(
                f"{alg.label}: base certificate does not reduce to the "
                f"residue certificate")
        if not generated:
            raise FalsificationError(
                f"{alg.label}: lifted certificate differs from the base "
                f"certificate on a complementary pair")
        return ResidueTransfer(lcp_base=True, lcp_residue=True,
                               biconditional=True,
                               members_idempotent_generated=True,
                               certificate=e, residue_certificate=ebar,
                               lifted_certificate=lifted)

    if generated:
        raise FalsificationError(
            f"{alg.label}: idempotent-generated pair with complementary "
            f"residue images must itself be complementary")
    return ResidueTransfer(lcp_base=False, lcp_residue=True,
                           biconditional=False,
                           members_idempotent_generated=False,
                           certificate=None, residue_certificate=ebar,
                           lifted_certificate=lifted)
