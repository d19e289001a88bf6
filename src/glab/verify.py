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
"""

from __future__ import annotations

import math
import time
from functools import cache, cached_property, reduce
from itertools import chain
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .chk import (CheckableCensus, Principals, ann_intersection_check,
                  check_elements, code_checkable_census)
from .errors import ConstructionError, FalsificationError
from .finring import FrobeniusVerdict, RingStructure, frobenius, structure
from .galg import GroupAlgebra, ResidueMap, residue_map
from .ideals import (CodeSet, _sumset, ann_left, ann_right,
                     annihilator_classes, dual_code, enumerate_ideals,
                     ideal_sum, packed, principal, principal_ideals, span)
from .idem import (decompose_one, enumerate_idempotents, is_idempotent,
                   lift_idempotent)
from .instance import BuiltInstance
from .lcp import (LcpPair, ResidueTransfer, lcp_certificate,
                  lcp_matrix, lcp_residue_correspondence, lcp_scan,
                  project_code, refine_certificate)
from .records import record

PASS, FAIL, SKIP, INFO = "pass", "fail", "skip", "info"


@record
class CheckLine(NamedTuple):
    check_id: str
    law: str
    status: str
    witness: str = "-"
    micros: int | None = None


@record
class Report(NamedTuple):
    command: str
    digest: str
    algebra_label: str
    lines: list[CheckLine]

    @property
    def failed(self) -> bool:
        return any(line.status == FAIL for line in self.lines)


# ---------------------------------------------------------------------------
# shared per-instance workspace

class Workspace:
    """The objects that several commands or laws share, each computed
    on first use and then held for the rest of the run.

    Duals and annihilators that are members of a census computed so far
    resolve to the member, so each member's basis is found once."""

    def __init__(self, built: BuiltInstance):
        self.built = built
        self.alg: GroupAlgebra = built.algebra
        # each side's census members by mask key
        self._members: dict[str, dict[bytes, CodeSet]] = {}
        # by (side, mask key): the dual's orientation and the
        # projection's side claim follow the side
        self._duals: dict[tuple[str | None, bytes], CodeSet] = {}
        self._projections: dict[tuple[str | None, bytes], CodeSet] = {}
        # by (side of the annihilator, mask key of the set)
        self._anns: dict[tuple[str, bytes], CodeSet] = {}

    @cached_property
    def frobenius_verdict(self) -> FrobeniusVerdict:
        return frobenius(self.alg.ring)

    @cached_property
    def ring_structure(self) -> RingStructure:
        return structure(self.alg.ring)

    def _census(self, side: str) -> list[CodeSet]:
        bound = self.built.census_bound
        census = enumerate_ideals(self.alg, side, bound)
        self._members[side] = {c.key(): c for c in census}
        return census

    @cached_property
    def right_ideals(self) -> list[CodeSet]:
        return self._census("right")

    @cached_property
    def left_ideals(self) -> list[CodeSet]:
        return self._census("left")

    def ideals(self, side: str) -> list[CodeSet]:
        return self.right_ideals if side == "right" else self.left_ideals

    def _member(self, code: CodeSet) -> CodeSet:
        """The census member with the code's side and mask, if that
        side's census is computed; else the code."""
        return self._members.get(code.side, {}).get(code.key(), code)

    @cached_property
    def right_masks(self) -> np.ndarray:
        """The right-ideal census as a (k, |RG|) stack of masks."""
        return np.array([c.mask for c in self.right_ideals])

    @cached_property
    def complementary(self) -> np.ndarray:
        """`lcp_matrix` of the right-ideal census against itself."""
        return lcp_matrix(self.right_masks, self.right_masks)

    @cached_property
    def idempotents(self) -> list[int]:
        return enumerate_idempotents(self.alg, bound=self.built.bound)

    @cached_property
    def parts_of_one(self) -> list[int]:
        """The canonical primitive orthogonal idempotents summing to 1."""
        return decompose_one(self.alg, self.idempotents)

    @cached_property
    def pairs(self) -> list[LcpPair]:
        return lcp_scan(self.right_ideals, self.complementary)

    @cached_property
    def refinements(self) -> list[tuple[list[int], list[int]]]:
        """The primitive refinement of each pair, in the order of pairs."""
        return [refine_certificate(p.c, p.d, self.idempotents)
                for p in self.pairs]

    @cached_property
    def check_elements(self) -> dict[bytes, int]:
        """The least check element of each right annihilator, by key."""
        return check_elements(self.alg, self.built.bound)

    def checkable_tables(self) -> tuple[dict[bytes, int], Principals]:
        """What the checkable routes read: the check elements and the
        principal ideals of both sides, all gated by the scan bound."""
        bound = self.built.bound
        return self.check_elements, {
            side: principal_ideals(self.alg, side, bound)
            for side in ("left", "right")}

    @cached_property
    def checkable_census(self) -> CheckableCensus:
        return code_checkable_census(
            self.right_ideals, self.dual, lambda c: self.ann("left", c),
            *self.checkable_tables())

    @cached_property
    def residue(self) -> ResidueMap:
        return residue_map(self.alg)

    @cached_property
    def residue_complementary(self) -> np.ndarray:
        """`lcp_matrix` of the residue images of the right-ideal census."""
        masks = np.array([self.projection(c).mask for c in self.right_ideals])
        return lcp_matrix(masks, masks)

    @cached_property
    def residue_rows(self) -> dict[tuple[int, int], ResidueTransfer]:
        """The transfer of each ordered right-ideal pair (i, j) that is
        complementary over RG or over the residue algebra, row-major.
        Every other pair is complementary on neither side, which each
        residue law counts as holding."""
        R = self.right_ideals
        either = self.complementary | self.residue_complementary
        return {(i, j): lcp_residue_correspondence(R[i], R[j], self.residue,
                                                   self.projection)
                for i, j in np.argwhere(either).tolist()}

    def dual(self, code: CodeSet) -> CodeSet:
        key = (code.side, code.key())
        got = self._duals.get(key)
        if got is None:
            got = self._duals[key] = self._member(dual_code(code))
        return got

    def ann(self, side: str, code: CodeSet) -> CodeSet:
        """The side annihilator of the code, once per mask, gated by the
        scan bound."""
        key = (side, code.key())
        got = self._anns.get(key)
        if got is None:
            ann = ann_right if side == "right" else ann_left
            got = self._anns[key] = self._member(ann(code, self.built.bound))
        return got

    def dual_rows(self, masks: np.ndarray, side: str | None) -> np.ndarray:
        """The dual of each row of a (k, |RG|) stack of one side's masks,
        looked up by the row's packed key (one packbits call for the
        stack) and computed through `dual` on a miss."""
        out = np.empty_like(masks)
        for i, key in enumerate(packed(masks)):
            got = self._duals.get((side, key.tobytes()))
            if got is None:
                got = self.dual(self._member(CodeSet(self.alg, masks[i],
                                                     side=side)))
            out[i] = got.mask
        return out

    def projection(self, code: CodeSet) -> CodeSet:
        """The code's image in the residue algebra."""
        key = (code.side, code.key())
        got = self._projections.get(key)
        if got is None:
            got = self._projections[key] = project_code(self.residue, code)
        return got

    def hat_image(self, code: CodeSet) -> np.ndarray:
        mask = np.zeros(self.alg.card, dtype=bool)
        mask[self.alg.hat_all()[code.elements()]] = True
        return mask


# ---------------------------------------------------------------------------
# gating and tallying

def _needs_frobenius(law):
    """Skip the law unless the base ring has a generating character."""
    def gated(ws: Workspace):
        status = ws.frobenius_verdict.status
        if status != "frobenius":
            return (SKIP, f"needs a generating character; ring reports "
                          f"{status!r}")
        return law(ws)
    return gated


def _needs_local_radical(law):
    """Skip the law unless the base ring is local with a nonzero radical."""
    def gated(ws: Workspace):
        st = ws.ring_structure
        if not st.is_local:
            return (SKIP, "needs a local coefficient ring")
        if len(st.radical) <= 1:
            return (SKIP, "coefficient ring has a trivial radical")
        return law(ws)
    return gated


def _tally(unit: str, checks: Iterable[tuple[str, bool]],
           note: str = "", passed: str | None = None,
           results: np.ndarray | None = None,
           where: str = "pair ({}, {})") -> tuple[str, str]:
    """Count (where, ok) checks, then the entries of the boolean array
    `results` in index order, the first failing index named by filling
    `where` (by default, a matrix over the ordered ideal pairs (i, j)):
    fail with the count of failures and the first place one failed, or
    pass with the total (and the note), or with `passed` when given."""
    total, bad, first = 0, 0, None
    for place, ok in checks:
        total += 1
        if not ok:
            bad += 1
            first = first or place
    if results is not None:
        fails = np.argwhere(~results)
        total += results.size
        bad += len(fails)
        if first is None and len(fails):
            first = where.format(*fails[0].tolist())
    if bad:
        return (FAIL, f"{bad}/{total} {unit} fail; first at {first}")
    return (PASS, passed if passed is not None else
            f"checked {total} {unit}{note}")


def _ideals(rows: Iterable[tuple[CodeSet, bool]]):
    """(where, ok) checks from (ideal, ok) rows in census order."""
    return ((f"ideal {i} (size {c.cardinality})", ok)
            for i, (c, ok) in enumerate(rows))


def _each_ideal(side: str, unit: str, ok: Callable[[Workspace, CodeSet], bool]):
    """The law that ok(ws, c) holds for every ideal c of one side."""
    return lambda ws: _tally(unit, _ideals((c, ok(ws, c))
                                           for c in ws.ideals(side)))


def _pair_columns(columns: Iterable[Iterable[bool]]):
    """Tally a law over all ordered right-ideal pairs (i, j) from its
    columns: column j holds the results of the pairs (i, j) for every i.
    Pairs are tallied row-major."""
    return _tally("ideal pairs", (), results=np.column_stack(list(columns)))


def _pair_matrix(ws: Workspace,
                 checks: Iterable[tuple[tuple[int, int], bool]]) -> np.ndarray:
    """The results of a law over the ordered right-ideal pairs as a
    matrix: each checked pair (i, j) holds its result, and every other
    pair holds trivially."""
    out = np.ones_like(ws.complementary)
    for (i, j), ok in checks:
        out[i, j] = ok
    return out


# ---------------------------------------------------------------------------
# the laws

def _dual_sum_meet(ws: Workspace):
    """dual(A + B) = dual(A) & dual(B); each column's sums A + b come
    from one kernel call."""
    R = ws.right_ideals
    duals = ws.dual_rows(ws.right_masks, "right")
    return _pair_columns((ws.dual_rows(_sumset(R, b)[0], "right")
                          == duals & ws.dual(b).mask).all(axis=1) for b in R)


@_needs_frobenius
def _dual_meet_join(ws: Workspace):
    """dual(A & B) = dual(A) + dual(B); each column's meets A & b are
    one `&` and its sums of duals one kernel call."""
    R = ws.right_ideals
    duals = [ws.dual(a) for a in R]
    return _pair_columns((_sumset(duals, ws.dual(b))[0] == ws.dual_rows(
        ws.right_masks & b.mask, "right")).all(axis=1) for b in R)


_dual_size_product = _needs_frobenius(_each_ideal("right", "ideals", lambda ws, c: (
    c.cardinality * ws.dual(c).cardinality == ws.alg.card)))


def certificate_splits(alg: GroupAlgebra, c: CodeSet, d: CodeSet,
                       e: int | None) -> bool:
    """Whether e is an idempotent whose split (eRG, (1 - e)RG) is (C, D)."""
    return (e is not None and is_idempotent(alg, e)
            and span(alg, [e], c.side).same_set(c)
            and span(alg, [alg.one_minus(e)], d.side).same_set(d))


def _lcp_biconditional(ws: Workspace):
    """Each complementary pair is the split of its certificate."""
    R = ws.right_ideals
    return _tally("ideal pairs", (), results=_pair_matrix(ws, (
        ((i, j), certificate_splits(ws.alg, R[i], R[j],
                                    lcp_certificate(R[i], R[j])))
        for i, j in np.argwhere(ws.complementary).tolist())))


def pairs_match_idempotents(ws: Workspace):
    """e -> (eRG, (1 - e)RG) maps the idempotents one to one onto the
    complementary pairs: the split of each idempotent is the pair it
    certifies, and each pair is the split of an idempotent."""
    alg = ws.alg
    certified = {(p.c.key(), p.d.key()): p.certificate for p in ws.pairs}
    splits = {e: (span(alg, [e], "right").key(),
                  span(alg, [alg.one_minus(e)], "right").key())
              for e in ws.idempotents}
    split_set = set(splits.values())
    return _tally("idempotents and pairs", chain(
        ((f"idempotent {e}", certified.get(key) == e)
         for e, key in splits.items()),
        ((f"pair {k}", (p.c.key(), p.d.key()) in split_set)
         for k, p in enumerate(ws.pairs))),
        passed=f"{len(ws.pairs)} complementary pairs = "
               f"{len(ws.idempotents)} idempotents")


def is_partition_of_one(alg: GroupAlgebra, parts: list[int]) -> bool:
    """Idempotents, pairwise orthogonal both ways, summing to 1: the
    products of all ordered pairs of parts, from one broadcast product,
    are the parts on the diagonal and 0 off it."""
    p = np.array(parts, dtype=np.int64)
    return (reduce(alg.add, parts, 0) == alg.one
            and bool((alg.mul(p[:, None], p[None, :]) == np.diag(p)).all()))


def _direct_sum(code: CodeSet, pieces: list[CodeSet]) -> bool:
    """The spans of the parts regenerate the member, as a direct sum."""
    if not pieces:
        return code.cardinality == 1
    return (reduce(ideal_sum, pieces).same_set(code)
            and math.prod(p.cardinality for p in pieces) == code.cardinality)


def _refine_partition(ws: Workspace):
    alg = ws.alg
    parts = sum(len(pc) + len(pd) for pc, pd in ws.refinements)
    piece = cache(lambda side, p: span(alg, [p], side))  # once per part
    return _tally("complementary pairs", (
        (f"pair {k} (certificate {pair.certificate})",
         is_partition_of_one(alg, pc + pd)
         and _direct_sum(pair.c, [piece(pair.c.side, p) for p in pc])
         and _direct_sum(pair.d, [piece(pair.d.side, p) for p in pd]))
        for k, (pair, (pc, pd)) in enumerate(zip(ws.pairs, ws.refinements))),
        passed=f"refined {len(ws.pairs)} certificates into {parts} "
               f"primitive parts")


@_needs_frobenius
def _refine_dual_of_sum(ws: Workspace):
    alg = ws.alg
    return _tally("complementary pairs", (
        (f"pair {k} (certificate {pair.certificate})",
         np.array_equal(ws.dual(pair.c).mask,
                        span(alg, [alg.hat(p) for p in pd], "right").mask))
        for k, (pair, (_, pd)) in enumerate(zip(ws.pairs, ws.refinements))))


_idem_dual_formula = _needs_frobenius(lambda ws: _tally("idempotents", (
    (f"idempotent {e}", ws.dual(span(ws.alg, [e], "right")).same_set(
        span(ws.alg, [ws.alg.one_minus(ws.alg.hat(e))], "right")))
    for e in ws.idempotents)))


def hat_transfer(ws: Workspace, c: CodeSet, d: CodeSet) -> tuple[bool, bool]:
    """Whether |C| = |dual(D)|, and whether the inversion image of C is
    dual(D): sizes always match, images when the certificate is central."""
    dual = ws.dual(d)
    return (c.cardinality == dual.cardinality,
            bool(np.array_equal(ws.hat_image(c), dual.mask)))


@_needs_frobenius
def _hat_central_image(ws: Workspace):
    central = [p for p in ws.pairs if ws.alg.is_central(p.certificate)]
    return _tally("central certificates", (
        (f"certificate {p.certificate}", hat_transfer(ws, p.c, p.d)[1])
        for p in central), note=f" of {len(ws.pairs)} pairs")


_hat_size = _needs_frobenius(lambda ws: _tally("complementary pairs", (
    (f"certificate {p.certificate}", hat_transfer(ws, p.c, p.d)[0])
    for p in ws.pairs)))


def _forward(rm: ResidueMap, rt: ResidueTransfer) -> bool:
    """A complementary base pair projects to a complementary pair split
    by the reduced certificate, and is the split of the lifted one."""
    return not rt.lcp_base or bool(
        rt.lcp_residue and rt.members_idempotent_generated
        and rt.certificate is not None
        and rm.reduce(rt.certificate) == rt.residue_certificate)


def _residue_pairs(ws: Workspace,
                   ok: Callable[[ResidueTransfer], bool]) -> np.ndarray:
    """ok of each pair's transfer as a pair matrix; the pairs with no
    transfer row, complementary on neither side, hold trivially."""
    return _pair_matrix(ws, ((ij, ok(rt))
                             for ij, rt in ws.residue_rows.items()))


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
    lifts = [lift_idempotent(alg, rm, ebar) for ebar in residue_idems]
    f = ws.ring_structure.nilpotency_index
    return _tally("lifts", (
        (f"residue idempotent {ebar}",
         is_idempotent(alg, h) and rm.reduce(h) == ebar)
        for ebar, h in zip(residue_idems, lifts)),
        results=_residue_pairs(ws, lambda rt: rt.lift_splits is not False),
        passed=f"lifted {len(residue_idems)} residue idempotents in "
               f"<= {max(f - 1, 1)} iterations")


@_needs_frobenius
def _checkable_ann_principal(ws: Workspace):
    verdicts = ws.checkable_census.verdicts
    checkable = sum(v.checkable for _, v in verdicts)
    return _tally("right ideals", _ideals(
        (c, v.ann_route_agrees) for c, v in verdicts),
        note=f"; {checkable} checkable")


_checkable_dual_principal = _needs_frobenius(lambda ws: _tally(
    "right ideals", _ideals((c, v.dual_principal_matches)
                            for c, v in ws.checkable_census.verdicts)))

_dual_hat_ann = _each_ideal("right", "right ideals", lambda ws, c: (
    np.array_equal(ws.dual(c).mask, ws.hat_image(ws.ann("left", c)))))


def _block_intersection(ws: Workspace):
    parts = ws.parts_of_one
    if not all(ws.alg.is_central(p) for p in parts):
        return (SKIP, "the canonical refinement of 1 is not central")
    rows = [(c, ann_intersection_check(
        c, parts, lambda block: ws.ann("right", block), ws.built.bound).status)
            for c in ws.right_ideals]
    blocks = sum(status == "ok" for _, status in rows)
    return _tally("right ideals", _ideals(
        (c, status != "form-fails") for c, status in rows),
        passed=f"{blocks} block sums of {len(rows)} right ideals verified")


# The annihilator identities come in left/right mirror pairs; each
# function below builds the law for one side.
_OTHER = {"right": "left", "left": "right"}


def _ann_of_element(side: str):
    """Ann_side(u) is the side annihilator of the other-sided span of u.

    Each element's Ann_side(u) is its class's mask in the side's table of
    `annihilator_classes`. Its span is read from the other side's
    principal table: the principal ideal of its least generator, whose
    annihilator is found once per ideal. Each (annihilator class,
    principal class) pair that some element has is compared once, and
    every element is tallied by its pair."""
    other = _OTHER[side]

    def law(ws: Workspace):
        alg, bound = ws.alg, ws.built.bound
        principal_ideals(alg, other, bound)     # the table, gated
        least, masks, kernel = annihilator_classes(alg, side, bound)
        gens = alg.canonical_classes(other)[0]
        reps = np.flatnonzero(gens == np.arange(alg.card))
        spans = np.searchsorted(reps, gens)
        equal = np.zeros((len(least), len(reps)), dtype=bool)
        equal[kernel, spans] = True
        for k, p in np.argwhere(equal).tolist():
            equal[k, p] = np.array_equal(masks[k], ws.ann(
                side, principal(alg, int(reps[p]), other)).mask)
        return _tally("elements", (), results=equal[kernel, spans],
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
