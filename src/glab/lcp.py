"""Complementary pairs of one-sided ideals.

A pair (C, D) is complementary when C meets D only in 0 and together
they span the whole algebra, that is when |C + D| = |C| |D| = |RG|,
decided for lists of sets by sizes and sums of forms. Every such pair
of right ideals is split by a unique idempotent certificate e with
C = e*RG and D = (1-e)*RG, read for a list of pairs from one batched
reduction, `GroupAlgebra.certificates`; for a single pair that one
reduction also decides complementarity (`lcp_certificate`). This
module finds certificates, refines them by the idempotent order, and
transfers pairs across the coefficient-radical projection over local
base rings.
The functions compute and return; the laws these results must satisfy
are counted by the law matrix in glab.verify.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConstructionError
from .galg import GroupAlgebra, ResidueMap
from .idem import IdempotentOrder, decompose_idempotent
from .ideals import CodeSet, span
from .records import Record


def _require_pair(c: CodeSet, d: CodeSet) -> None:
    if c.alg is not d.alg:
        raise ConstructionError("pair members live in different algebras")
    if c.side != d.side or c.side is None:
        raise ConstructionError(
            f"pair members need one matching side, got {c.side} and {d.side}")


def complementarity(cs: list[CodeSet], ds: list[CodeSet]) -> np.ndarray:
    """Whether (C_i, D_j) is complementary, for every i and j: exactly
    when |C_i + D_j| = |C_i| |D_j| = |RG|, as |C + D| |C & D| = |C| |D|.
    Only the pairs whose sizes multiply to |RG| are summed, in one
    batched reduction."""
    alg = cs[0].alg
    sizes = np.outer([c.cardinality for c in cs], [d.cardinality for d in ds])
    i, j = np.nonzero(sizes == alg.card)
    out = np.zeros(sizes.shape, dtype=bool)
    if len(i):
        joins = alg.sum_forms(np.array([cs[k].form for k in i]),
                              np.array([ds[k].form for k in j]))
        out[i, j] = alg.subgroup_sizes(joins) == alg.card
    return out


def _certificates(pairs: list[tuple[CodeSet, CodeSet]]) -> list[int | None]:
    """The split of 1 across each pair, None where there is none: one
    batched `GroupAlgebra.certificates` of the pairs' forms."""
    found = pairs[0][0].alg.certificates(np.array([c.form for c, _ in pairs]),
                                         np.array([d.form for _, d in pairs]))
    return [None if e < 0 else e for e in found.tolist()]


def lcp_certificate(c: CodeSet, d: CodeSet) -> int | None:
    """The split of 1 across a complementary pair: the element e of C
    with 1 - e in D, or None unless exactly one such e exists, which is
    exactly when the pair is complementary.

    For one-sided ideals of one side the splits form a coset of C & D
    or none: two splits differ by an element of C whose negative lies
    in D, and a split plus an element of C & D is one. A split exists
    exactly when 1 lies in the ideal C + D, that is when C + D = RG. So
    a unique split is complementarity, and one reduction decides both.

    The split is not judged here; lcp-split.biconditional checks that
    it is an idempotent whose split regenerates both members.
    """
    _require_pair(c, d)
    return _certificates([(c, d)])[0]


class LcpPair(Record):
    c: CodeSet
    d: CodeSet
    certificate: int


def lcp_scan(census: list[CodeSet],
             complementary: np.ndarray) -> list[LcpPair]:
    """All ordered complementary pairs of a full one-sided ideal census,
    read row-major from its `complementarity` with itself, each with its
    certificate, all from one batched `GroupAlgebra.certificates`."""
    pairs = [(census[i], census[j]) for i, j in np.argwhere(complementary)]
    found = _certificates(pairs)
    if None in found:
        raise ConstructionError(
            f"{census[0].alg.label}: a complementary pair has no split of 1")
    return [LcpPair(c, d, e) for (c, d), e in zip(pairs, found)]


def refine_certificate(alg: GroupAlgebra, e: int, order: IdempotentOrder
                       ) -> tuple[list[int], list[int]]:
    """The primitive orthogonal parts of a pair's certificate e and of
    1 - e, read from the idempotent order."""
    return (decompose_idempotent(alg, e, order),
            decompose_idempotent(alg, alg.one_minus(e), order))


# ---------------------------------------------------------------------------
# residue transfer

class ResidueTransfer(Record):
    lcp_base: bool
    lcp_residue: bool
    biconditional: bool
    # whether the lifted certificate splits off exactly (C, D), and
    # whether its split is a complementary pair over the residue pair;
    # None, as the residue certificate and its lift, when the residue
    # pair is not complementary
    members_idempotent_generated: bool | None = None
    lift_splits: bool | None = None
    certificate: int | None = None
    residue_certificate: int | None = None
    lifted_certificate: int | None = None


def project_code(rm: ResidueMap, codes: list[CodeSet]) -> list[CodeSet]:
    """The image of each ideal under the coefficientwise residue
    projection, which is additive: the images of the rows of a form
    generate the image, keyed in one batched reduction. Equal images
    are one set."""
    keys = rm.residue.subgroup_form(
        rm.proj[rm.base.stacked_rows(np.array([c.form for c in codes]))])
    images: dict = {}
    return [images.setdefault((c.side, key.tobytes()), CodeSet(
        rm.residue, side=c.side, form=key)) for c, key in zip(codes, keys)]


def lcp_residue_correspondence(pairs: list[tuple[CodeSet, CodeSet]],
                               certificates: list[int | None],
                               residue_certificates: list[int | None],
                               rm: ResidueMap,
                               project: Callable[[CodeSet], CodeSet],
                               lift: Callable[[int], int]
                               ) -> list[ResidueTransfer]:
    """How complementarity transfers across the residue projection, for
    each pair (C, D) of the list.

    Records whether the base pair and its residue image are
    complementary, and, when the image is, the residue certificate,
    its lift, and whether the lift's split is a complementary pair over
    the image and equals (C, D). Over a local base ring a
    complementary base pair projects to a complementary pair split by
    the reduced certificate, and an idempotent-generated pair is
    complementary exactly when its image is; the raw biconditional
    fails when a member is not generated by an idempotent (e.g. the
    whole algebra against a radical multiple projects onto the trivial
    complementary pair). The residue laws count each of these.

    Each pair's certificate and its image's residue certificate, None
    where that pair is not complementary, come from the caller, as
    `lcp_certificate` or `lcp_scan` found them; each member's image
    comes from `project`, the residue projection of rm, and each
    residue certificate's idempotent lift from `lift`. The lift's
    split, its complementarity and its images depend on the residue
    certificate alone, and are found once for each.
    """
    alg = rm.base
    splits: dict = {}       # by (residue certificate, side)
    out = []
    for (c, d), e, ebar in zip(pairs, certificates, residue_certificates):
        base = e is not None
        if ebar is None:
            out.append(ResidueTransfer(lcp_base=base, lcp_residue=False,
                                       biconditional=not base, certificate=e))
            continue
        if (ebar, c.side) not in splits:
            lifted = lift(ebar)
            lc, ld = (span(alg, [x], c.side)
                      for x in (lifted, alg.one_minus(lifted)))
            splits[ebar, c.side] = (lifted, lc, ld, complementarity(
                [lc], [ld])[0, 0] and (project(lc), project(ld)))
        lifted, lifted_c, lifted_d, split_images = splits[ebar, c.side]
        out.append(ResidueTransfer(
            lcp_base=base, lcp_residue=True, biconditional=base,
            members_idempotent_generated=(lifted_c.same_set(c)
                                          and lifted_d.same_set(d)),
            lift_splits=(bool(split_images)
                         and split_images[0].same_set(project(c))
                         and split_images[1].same_set(project(d))),
            certificate=e, residue_certificate=ebar,
            lifted_certificate=lifted))
    return out
