"""The law matrix: every identity the package stands on, as checks.

Each law is verified exhaustively over one built instance and
reported as a line (check id, law, status, witness) instead of an
exception, so that genuinely failing laws show up as counted
counterexamples rather than aborting the run. Statuses: "pass",
"fail" (counterexample found, witness says where), "skip" (the law's
hypothesis is not met by this instance, witness says why), "info"
(a reported fact, not a pass/fail claim).

Laws whose hypotheses hold on desk instances but that still fail do
fail here, on purpose: the report is the record of what is actually
true.

The workspace, the report records and the tally live in
`glab.workspace`, which every command reads; only `verify-all` imports
this module.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterable

import numpy as np

from .chk import ann_intersection_check
from .errors import ConstructionError, FalsificationError
from .finring import frobenius, structure
from .galg import ResidueMap
from .ideals import (CodeSet, check_scale, containment, hat_image, meets,
                     principal_ideals, span)
from .idem import enumerate_idempotents, is_idempotent
from .lcp import ResidueTransfer
from .workspace import (FAIL, SKIP, CheckLine, Report, Workspace, _tally,
                        certificate_splits, hat_transfer, is_partition_of_one,
                        pairs_match_idempotents)


# ---------------------------------------------------------------------------
# gating and tallying

def _needs_frobenius(law):
    """Skip the law unless the base ring has a generating character."""
    def gated(ws: Workspace):
        status = frobenius(ws.alg.ring).status
        if status != "frobenius":
            return (SKIP, f"needs a generating character; ring reports "
                          f"{status!r}")
        return law(ws)
    return gated


def _needs_local_radical(law):
    """Skip the law unless the base ring is local with a nonzero radical."""
    def gated(ws: Workspace):
        st = structure(ws.alg.ring)
        if not st.is_local:
            return (SKIP, "needs a local coefficient ring")
        if len(st.radical) <= 1:
            return (SKIP, "coefficient ring has a trivial radical")
        return law(ws)
    return gated


def _ideals(rows: Iterable[tuple[CodeSet, bool]]):
    """(where, ok) checks from (ideal, ok) rows in census order."""
    return ((f"ideal {i} (size {c.cardinality})", ok)
            for i, (c, ok) in enumerate(rows))


def _each_ideal(side: str, unit: str, ok: Callable[[Workspace, CodeSet], bool]):
    """The law that ok(ws, c) holds for every ideal c of one side."""
    return lambda ws: _tally(unit, _ideals((c, ok(ws, c))
                                           for c in ws.ideals(side)))


# ---------------------------------------------------------------------------
# the laws

def _dual_sum_meet(ws: Workspace):
    """dual(A + B) = dual(A) & dual(B), by forms: X = Y & Z exactly when
    X lies within Y and within Z and |X| |Y + Z| = |Y| |Z|. A + B is
    read from the census's `pair_sums`, X as the dual of its member (a
    sum outside the census fails its pair), and containment and the
    sums of duals from `Workspace.dual_sums`."""
    sums = ws.dual_sums
    k = len(sums)
    inside = containment(sums)
    sizes = ws.alg.subgroup_sizes(sums.reshape(k * k, -1)).reshape(k, k)
    duals = np.diag(sizes)
    x = ws.positions(ws.right_sums)
    i, j = np.indices((k, k))
    return _tally("ideal pairs", (), results=(x >= 0) & inside[x, i]
                  & inside[x, j] & (duals[x] * sizes == np.outer(duals, duals)))


@_needs_frobenius
def _dual_meet_join(ws: Workspace):
    """dual(A & B) = dual(A) + dual(B), compared by forms: the meets read
    from the census's pair sums (`meets`), the sums of duals from
    `Workspace.dual_sums`."""
    R = ws.right_ideals
    forms = np.diagonal(ws.dual_sums).T
    return _tally("ideal pairs", (), results=(
        ws.dual_sums == forms[meets(R, ws.right_sums)]).all(axis=-1))


_dual_size_product = _needs_frobenius(_each_ideal("right", "ideals", lambda ws, c: (
    c.cardinality * ws.dual(c).cardinality == ws.alg.card)))


def _lcp_biconditional(ws: Workspace):
    """Each complementary pair is the split of its certificate, read
    from `Workspace.pairs`, which lists the matrix's pairs row-major."""
    ok = np.ones_like(ws.complementary)
    for (i, j), split in zip(np.argwhere(ws.complementary).tolist(),
                             certificate_splits(ws.alg, ws.pairs)):
        ok[i, j] = split
    return _tally("ideal pairs", (), results=ok)


def _direct_sum(code: CodeSet, parts: list[int]) -> bool:
    """The spans of the parts regenerate the member, as a direct sum:
    the span of all parts is the member, and the sizes of the parts'
    spans multiply to its size (no parts: the member is {0})."""
    alg, side = code.alg, code.side
    return (span(alg, parts, side).same_set(code)
            and math.prod(span(alg, [p], side).cardinality
                          for p in parts) == code.cardinality)


def _refine_partition(ws: Workspace):
    alg = ws.alg
    parts = sum(len(pc) + len(pd) for pc, pd in ws.refinements)
    return _tally("complementary pairs", (
        (f"pair {k} (certificate {pair.certificate})",
         is_partition_of_one(alg, pc + pd)
         and _direct_sum(pair.c, pc) and _direct_sum(pair.d, pd))
        for k, (pair, (pc, pd)) in enumerate(zip(ws.pairs, ws.refinements))),
        passed=f"refined {len(ws.pairs)} certificates into {parts} "
               f"primitive parts")


@_needs_frobenius
def _refine_dual_of_sum(ws: Workspace):
    alg = ws.alg
    return _tally("complementary pairs", (
        (f"pair {k} (certificate {pair.certificate})",
         ws.dual(pair.c).same_set(span(alg, alg.hat_all[pd], "right")))
        for k, (pair, (_, pd)) in enumerate(zip(ws.pairs, ws.refinements))))


_idem_dual_formula = _needs_frobenius(lambda ws: _tally("idempotents", (
    (f"idempotent {e}", ws.dual(span(ws.alg, [e], "right")).same_set(
        span(ws.alg, [ws.alg.one_minus(ws.alg.hat_all[e])], "right")))
    for e in ws.idempotents)))


@_needs_frobenius
def _hat_central_image(ws: Workspace):
    flags = ws.alg.central([p.certificate for p in ws.pairs])
    central = [p for p, ok in zip(ws.pairs, flags) if ok]
    return _tally("central certificates", (
        (f"certificate {p.certificate}", hat_transfer(ws, p.c, p.d)[1])
        for p in central), note=f" of {len(ws.pairs)} pairs")


_hat_size = _needs_frobenius(lambda ws: _tally("complementary pairs", (
    (f"certificate {p.certificate}",
     p.c.cardinality == ws.dual(p.d).cardinality) for p in ws.pairs)))


def _forward(rm: ResidueMap, rt: ResidueTransfer) -> bool:
    """A complementary base pair projects to a complementary pair split
    by the reduced certificate, and is the split of the lifted one."""
    return not rt.lcp_base or bool(
        rt.lcp_residue and rt.members_idempotent_generated
        and rt.certificate is not None
        and rm.proj[rt.certificate] == rt.residue_certificate)


def _residue_pairs(ws: Workspace,
                   ok: Callable[[ResidueTransfer], bool]) -> np.ndarray:
    """ok of each pair's transfer as a matrix over the ordered
    right-ideal pairs; the pairs with no transfer row, complementary on
    neither side, hold trivially."""
    out = np.ones_like(ws.complementary)
    for (i, j), rt in ws.residue_rows.items():
        out[i, j] = ok(rt)
    return out


_residue_forward = _needs_local_radical(lambda ws: _tally(
    "ideal pairs", (), results=_residue_pairs(
        ws, lambda rt: _forward(ws.residue, rt))))

# complementarity over RG and over the residue algebra agree
_residue_biconditional = _needs_local_radical(lambda ws: _tally(
    "ideal pairs", (),
    results=ws.complementary == ws.residue_complementary))


@_needs_local_radical
def _residue_restricted(ws: Workspace):
    return _tally("idempotent-generated pairs", (
        (f"pair ({i}, {j})", rt.biconditional)
        for (i, j), rt in ws.residue_rows.items()
        if rt.members_idempotent_generated),
        note=f" of {ws.complementary.size}")


@_needs_local_radical
def _radical_lift(ws: Workspace):
    """Each residue idempotent lifts to an idempotent reducing to it, and
    the lifted certificate of each complementary residue pair splits RG
    into a complementary pair projecting onto it."""
    alg = ws.alg
    rm = ws.residue
    residue_idems = enumerate_idempotents(rm.residue, bound=ws.built.bound)
    lifts = [ws.lift(ebar) for ebar in residue_idems]
    f = structure(alg.ring).nilpotency_index
    return _tally("lifts", (
        (f"residue idempotent {ebar}",
         is_idempotent(alg, h) and rm.proj[h] == ebar)
        for ebar, h in zip(residue_idems, lifts)),
        results=_residue_pairs(ws, lambda rt: rt.lift_splits is not False),
        passed=f"lifted {len(residue_idems)} residue idempotents in "
               f"<= {max(f - 1, 1)} iterations")


@_needs_frobenius
def _checkable_ann_principal(ws: Workspace):
    verdicts = ws.checkable_census
    checkable = sum(v.checkable for _, v in verdicts)
    return _tally("right ideals", _ideals(
        (c, v.ann_route_agrees) for c, v in verdicts),
        note=f"; {checkable} checkable")


_checkable_dual_principal = _needs_frobenius(lambda ws: _tally(
    "right ideals", _ideals((c, v.dual_principal_matches)
                            for c, v in ws.checkable_census)))

def _dual_hat_ann(ws: Workspace):
    """dual(C) = hat(Ann_l(C)) for every right ideal C, the involution
    images in one batch."""
    R = ws.right_ideals
    hats = hat_image([ws.ann("left", c) for c in R])
    return _tally("right ideals", _ideals(
        (c, ws.dual(c).same_set(h)) for c, h in zip(R, hats)))


def _block_intersection(ws: Workspace):
    parts = ws.parts_of_one
    if not ws.alg.central(parts).all():
        return (SKIP, "the canonical refinement of 1 is not central")
    # the spans of blocks are left census members, whose right
    # annihilators then come in one batch
    ws.ideals("left")
    R = ws.right_ideals
    statuses = ann_intersection_check(
        R, parts, lambda block: ws.ann("right", block), ws.built.bound)
    return _tally("right ideals", _ideals(
        (c, status != "form-fails") for c, status in zip(R, statuses)),
        passed=f"{statuses.count('ok')} block sums of {len(R)} right ideals "
               "verified")


# The annihilator identities come in left/right mirror pairs; each
# function below builds the law for one side.
_OTHER = {"right": "left", "left": "right"}


def _ann_of_element(side: str):
    """Ann_side(u) is the side annihilator of the other-sided span of u.

    Each element's Ann_side(u) is its class's key in the side's table of
    kernels, `GroupAlgebra.canonical_classes`. Its span is read from the
    other side's principal table: the principal ideal of its least
    generator, a member of the other side's census, so that the
    annihilators of the members come in one batch. Each principal
    class's annihilator is found once, as the row of its key in the
    table, and every element is tallied by its two rows."""
    other = _OTHER[side]

    def law(ws: Workspace):
        alg, bound = ws.alg, ws.built.bound
        principal_ideals(alg, other, bound)     # the table, gated
        check_scale(alg, bound, "annihilator table")
        ws.ideals(other)
        _, keys, kernel = alg.canonical_classes(side, kernel=True)
        reps, _, spans = alg.canonical_classes(other)
        row = {key.tobytes(): i for i, key in enumerate(keys)}
        anns = np.array([row.get(ws.ann(side, span(alg, [u], other))
                                 .key(), -1) for u in reps])
        return _tally("elements", (), results=anns[spans] == kernel,
                      where="element {}")
    return law


def _ann_double(side: str):
    """Each side ideal is the side annihilator of its other annihilator."""
    return _needs_frobenius(_each_ideal(side, f"{side} ideals", lambda ws, c: (
        ws.ann(side, ws.ann(_OTHER[side], c)).same_set(c))))


def _ann_size(side: str):
    """A side ideal and its other annihilator have sizes multiplying to |RG|."""
    return _needs_frobenius(_each_ideal(side, f"{side} ideals", lambda ws, c: (
        c.cardinality * ws.ann(_OTHER[side], c).cardinality == ws.alg.card)))


# check_id and function of every law, in report order; the law is the
# check id's first part
LAW_TABLE: list[tuple[str, str, Callable]] = [
    (check_id, check_id.split(".")[0], fn) for check_id, fn in [
        ("dual-lattice.sum-meet", _dual_sum_meet),
        ("dual-lattice.meet-join", _dual_meet_join),
        ("dual-lattice.size-product", _dual_size_product),
        ("lcp-split.biconditional", _lcp_biconditional),
        ("lcp-split.pair-idempotent-count", pairs_match_idempotents),
        ("split-refine.partition", _refine_partition),
        ("split-refine.dual-of-sum", _refine_dual_of_sum),
        ("idem-dual.formula", _idem_dual_formula),
        ("hat-transfer.central-image", _hat_central_image),
        ("hat-transfer.size", _hat_size),
        ("residue-lcp.forward", _residue_forward),
        ("residue-lcp.biconditional", _residue_biconditional),
        ("residue-lcp.idempotent-restricted", _residue_restricted),
        ("radical-lift.iteration", _radical_lift),
        ("checkable-routes.ann-principal", _checkable_ann_principal),
        ("checkable-routes.dual-principal", _checkable_dual_principal),
        ("checkable-routes.dual-hat-ann", _dual_hat_ann),
        ("checkable-routes.block-intersection", _block_intersection),
        ("ann-identities.right-of-element", _ann_of_element("right")),
        ("ann-identities.left-of-element", _ann_of_element("left")),
        ("ann-identities.double-left", _ann_double("left")),
        ("ann-identities.double-right", _ann_double("right")),
        ("ann-identities.size-left", _ann_size("left")),
        ("ann-identities.size-right", _ann_size("right")),
    ]]


def verify_all(ws: Workspace, timing: bool = False) -> Report:
    """Run the whole law matrix over one instance's workspace.

    FalsificationError and ConstructionError inside a law become fail
    lines carrying the message; ScaleError propagates (the caller
    chose bounds that the instance exceeds).
    """
    lines: list[CheckLine] = []
    for check_id, law, fn in LAW_TABLE:
        started = time.perf_counter_ns()
        try:
            status, witness = fn(ws)
        except (FalsificationError, ConstructionError) as exc:
            status, witness = FAIL, str(exc)
        micros = (time.perf_counter_ns() - started) // 1000 if timing else None
        lines.append(CheckLine(check_id, law, status, witness, micros))
    return Report(command="verify-all", digest=ws.built.digest,
                  algebra_label=ws.alg.label, lines=lines)
