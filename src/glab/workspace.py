"""What every command reads: report records, the shared per-instance
workspace, the tally, and the checks that the commands share with the
law matrix of `glab.verify`.

The law matrix and the checkable engine are loaded only where they
run, so a command that reads neither does not compile them.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .finring import FrobeniusVerdict, RingStructure, frobenius, structure
from .galg import GroupAlgebra, ResidueMap, residue_map
from .ideals import (CodeSet, ann_left, ann_right, dual_code,
                     enumerate_ideals, hat_image, pair_sums,
                     principal_ideals, span)
from .idem import (IdempotentOrder, decompose_idempotent,
                   enumerate_idempotents, idempotent_order, is_idempotent)
from .instance import BuiltInstance
from .lcp import (LcpPair, ResidueTransfer, complementarity,
                  lcp_residue_correspondence, lcp_scan, project_code,
                  refine_certificate)
from .records import record

if TYPE_CHECKING:
    from .chk import CheckableCensus, Principals

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

    Duals, annihilators and residue images are found once per key, and
    a census member's together with those of its whole side, in one
    batch; a dual or annihilator that is a member resolves to it."""

    def __init__(self, built: BuiltInstance):
        self.built = built
        self.alg: GroupAlgebra = built.algebra
        # each side's census positions by key
        self._rows: dict[str, dict[bytes, int]] = {}
        # by (side, key): the dual's orientation and the projection's
        # side claim follow the side
        self._duals: dict[tuple[str | None, bytes], CodeSet] = {}
        self._projections: dict[tuple[str | None, bytes], CodeSet] = {}
        # by (side of the annihilator, key of the set)
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
        self._rows[side] = {c.key(): i for i, c in enumerate(census)}
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
        """The census member with the code's side and key, if that
        side's census is computed; else the code."""
        i = self._rows.get(code.side, {}).get(code.key())
        return code if i is None else self.ideals(code.side)[i]

    def positions(self, forms: np.ndarray) -> np.ndarray:
        """The position in the right census of the set of each form of a
        stack, or -1 where it is no member."""
        self.right_ideals       # the census records its positions
        rows = self._rows["right"]
        return np.array([rows.get(form.tobytes(), -1)
                         for form in forms.reshape(-1, forms.shape[-1])],
                        dtype=np.intp).reshape(forms.shape[:-1])

    @cached_property
    def right_sums(self) -> np.ndarray:
        """`pair_sums` of the right-ideal census."""
        return pair_sums(self.right_ideals)

    @cached_property
    def dual_sums(self) -> np.ndarray:
        """The form of dual(A) + dual(B) for every pair of right-ideal
        census members: read from `right_sums` where both duals are
        members, the pairs i <= j with a dual outside the census in one
        batched reduction, mirrored."""
        forms = np.array([self.dual(c).form for c in self.right_ideals])
        at = self.positions(forms)
        out = self.right_sums[at[:, None], at]
        i, j = np.nonzero(np.triu((at[:, None] < 0) | (at < 0)))
        if len(i):
            out[i, j] = out[j, i] = self.alg.sum_forms(forms[i], forms[j])
        return out

    @cached_property
    def complementary(self) -> np.ndarray:
        """`complementarity` of the right-ideal census with itself, the
        sums read from `right_sums` where a law has computed it."""
        R = self.right_ideals
        return complementarity(R, R, self.__dict__.get("right_sums"))

    @cached_property
    def idempotents(self) -> list[int]:
        return enumerate_idempotents(self.alg, bound=self.built.bound)

    @cached_property
    def idempotent_order(self) -> IdempotentOrder:
        """Which idempotents split which, one table for the algebra."""
        return idempotent_order(self.alg, self.idempotents)

    @cached_property
    def parts_of_one(self) -> list[int]:
        """The canonical primitive orthogonal idempotents summing to 1."""
        return decompose_idempotent(self.alg, self.alg.one,
                                    self.idempotent_order)

    @cached_property
    def pairs(self) -> list[LcpPair]:
        return lcp_scan(self.right_ideals, self.complementary)

    @cached_property
    def refinements(self) -> list[tuple[list[int], list[int]]]:
        """The primitive refinement of each certificate, in pair order."""
        return [refine_certificate(self.alg, p.certificate,
                                   self.idempotent_order)
                for p in self.pairs]

    @cached_property
    def check_elements(self) -> dict[bytes, int]:
        """The least check element of each right annihilator, by key."""
        from .chk import check_elements
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
        from .chk import code_checkable_census
        return code_checkable_census(
            self.right_ideals, self.dual, lambda c: self.ann("left", c),
            *self.checkable_tables())

    @cached_property
    def residue(self) -> ResidueMap:
        return residue_map(self.alg)

    @cached_property
    def residue_complementary(self) -> np.ndarray:
        """`complementarity` of the residue images of the right-ideal
        census with themselves, the pairs of fitting sizes summed in one
        batch."""
        images = [self.projection(c) for c in self.right_ideals]
        return complementarity(images, images)

    @cached_property
    def residue_rows(self) -> dict[tuple[int, int], ResidueTransfer]:
        """The transfer of each ordered right-ideal pair (i, j) that is
        complementary over RG or over the residue algebra, row-major.
        Every other pair is complementary on neither side, which each
        residue law counts as holding."""
        R = self.right_ideals
        at = [tuple(ij) for ij in np.argwhere(
            self.complementary | self.residue_complementary).tolist()]
        return dict(zip(at, lcp_residue_correspondence(
            [(R[i], R[j]) for i, j in at], self.residue, self.projection)))

    def _once(self, done: dict, key, compute, code: CodeSet):
        """done[key(code)], computed on a miss by `compute` on a list:
        the code, or if it is a member of a census computed so far, every
        member of that side whose key is not in `done`, in one batch."""
        got = done.get(key(code))
        if got is None:
            batch = [code]
            if code.key() in self._rows.get(code.side, {}):
                batch = [c for c in self.ideals(code.side) if key(c) not in done]
            for c, value in zip(batch, compute(batch)):
                done[key(c)] = value
            got = done[key(code)]
        return got

    def dual(self, code: CodeSet) -> CodeSet:
        return self._once(self._duals, lambda c: (c.side, c.key()),
                          lambda cs: list(map(self._member, dual_code(cs))),
                          code)

    def ann(self, side: str, code: CodeSet) -> CodeSet:
        """The side annihilator of the code, gated by the scan bound."""
        ann = ann_right if side == "right" else ann_left
        return self._once(self._anns, lambda c: (side, c.key()), lambda cs: list(
            map(self._member, ann(cs, self.built.bound))), code)

    def projection(self, code: CodeSet) -> CodeSet:
        """The code's image in the residue algebra."""
        return self._once(self._projections, lambda c: (c.side, c.key()),
                          lambda cs: project_code(self.residue, cs), code)


# ---------------------------------------------------------------------------
# tallying

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


# ---------------------------------------------------------------------------
# checks that the commands share with the law matrix

def certificate_splits(alg: GroupAlgebra, c: CodeSet, d: CodeSet,
                       e: int | None) -> bool:
    """Whether e is an idempotent whose split (eRG, (1 - e)RG) is (C, D)."""
    return (e is not None and is_idempotent(alg, e)
            and span(alg, [e], c.side).same_set(c)
            and span(alg, [alg.one_minus(e)], d.side).same_set(d))


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


def hat_transfer(ws: Workspace, c: CodeSet, d: CodeSet) -> tuple[bool, bool]:
    """Whether |C| = |dual(D)|, and whether the inversion image of C is
    dual(D): sizes always match, images when the certificate is central."""
    dual = ws.dual(d)
    return (c.cardinality == dual.cardinality,
            hat_image([c])[0].same_set(dual))
