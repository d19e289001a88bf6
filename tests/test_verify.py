"""The law matrix: statuses, witnesses, gating, determinism."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import glab
import glab.chk
import glab.ideals
import glab.idem
import glab.lcp
import glab.verify
import glab.workspace
from glab.errors import ScaleError
from glab.galg import GroupAlgebra
from glab.ideals import dual_code
from glab.instance import build_instance, load_instance
from glab.verify import LAW_TABLE, verify_all
from glab.workspace import FAIL, PASS, Workspace, _tally

from desk import fixture_workspace

ROOT = Path(__file__).resolve().parent.parent


def _report(name, **kw):
    return verify_all(fixture_workspace(name), **kw)


def _by_id(report):
    return {line.check_id: line for line in report.lines}


def test_law_table_ids_unique():
    ids = [check_id for check_id, _, _ in LAW_TABLE]
    assert len(ids) == len(set(ids)) == 24
    laws = {law for _, law, _ in LAW_TABLE}
    assert laws == {"dual-lattice", "lcp-split", "split-refine", "idem-dual",
                    "hat-transfer", "residue-lcp", "radical-lift",
                    "checkable-routes", "ann-identities"}


def test_semisimple_instance_all_green():
    rep = _report("f3c2")
    assert not rep.failed
    assert rep.algebra_label == "Z3C2"
    by = _by_id(rep)
    assert len(by) == 24
    # residue laws do not apply to a field
    for check_id in ("residue-lcp.forward", "residue-lcp.biconditional",
                     "residue-lcp.idempotent-restricted",
                     "radical-lift.iteration"):
        assert by[check_id].status == "skip"
        assert "trivial radical" in by[check_id].witness
    assert by["dual-lattice.sum-meet"].witness == "checked 16 ideal pairs"
    assert by["lcp-split.pair-idempotent-count"].witness == (
        "4 complementary pairs = 4 idempotents")
    assert by["checkable-routes.block-intersection"].status == "pass"


def test_local_ring_residue_biconditional_fails_honestly():
    rep = _report("z4c2")
    assert rep.failed
    bad = [l for l in rep.lines if l.status == "fail"]
    assert [l.check_id for l in bad] == ["residue-lcp.biconditional"]
    assert bad[0].witness == "4/49 ideal pairs fail; first at pair (1, 6)"
    by = _by_id(rep)
    assert by["residue-lcp.forward"].status == "pass"
    assert by["residue-lcp.idempotent-restricted"].status == "pass"
    assert by["radical-lift.iteration"].status == "pass"
    assert "<= 1 iterations" in by["radical-lift.iteration"].witness
    assert "6 checkable" in by["checkable-routes.ann-principal"].witness


@pytest.mark.parametrize("name,count,first", [
    ("z4c3", "12/81", "pair (1, 8)"),
    ("f2x2c2", "4/49", "pair (1, 6)"),
])
def test_residue_violation_counts_frozen(name, count, first):
    rep = _report(name)
    bad = [l for l in rep.lines if l.status == "fail"]
    assert [l.check_id for l in bad] == ["residue-lcp.biconditional"]
    assert bad[0].witness == f"{count} ideal pairs fail; first at {first}"


def test_matrix_ring_failure_pattern():
    rep = _report("m2f2c2")
    by = _by_id(rep)
    fails = sorted(l.check_id for l in rep.lines if l.status == "fail")
    assert fails == ["checkable-routes.dual-principal", "idem-dual.formula",
                     "split-refine.dual-of-sum"]
    assert by["idem-dual.formula"].witness == (
        "24/26 idempotents fail; first at idempotent 1")
    assert by["checkable-routes.dual-principal"].witness == (
        "12/15 right ideals fail; first at ideal 1 (size 4)")
    assert by["split-refine.dual-of-sum"].witness.startswith("24/26")
    # the clauses that stay true over a noncommutative base
    for check_id in ("dual-lattice.sum-meet", "dual-lattice.meet-join",
                     "dual-lattice.size-product", "lcp-split.biconditional",
                     "lcp-split.pair-idempotent-count",
                     "checkable-routes.ann-principal",
                     "checkable-routes.dual-hat-ann",
                     "hat-transfer.central-image", "hat-transfer.size",
                     "ann-identities.right-of-element",
                     "ann-identities.left-of-element",
                     "ann-identities.double-left",
                     "ann-identities.double-right",
                     "ann-identities.size-left",
                     "ann-identities.size-right"):
        assert by[check_id].status == "pass", check_id


def test_non_frobenius_control_skips_gated_laws():
    rep = _report("ut2c1")
    assert not rep.failed
    by = _by_id(rep)
    gated = [l for l in rep.lines if l.status == "skip"
             and "generating character" in l.witness]
    assert len(gated) == 12
    # the set-theoretic laws hold even without a generating character
    assert by["dual-lattice.sum-meet"].status == "pass"
    assert by["checkable-routes.dual-hat-ann"].status == "pass"
    assert by["lcp-split.biconditional"].status == "pass"
    assert by["ann-identities.right-of-element"].status == "pass"


def test_timing_column_opt_in():
    plain = _report("f2c2")
    assert all(l.micros is None for l in plain.lines)
    timed = _report("f2c2", timing=True)
    assert all(isinstance(l.micros, int) and l.micros >= 0
               for l in timed.lines)


def test_reports_deterministic():
    a, b = _report("z4c2"), _report("z4c2")
    assert a.lines == b.lines
    assert a.digest == b.digest


def test_scale_error_propagates():
    with pytest.raises(ScaleError, match="census"):
        _report("m2f2c3")


# ---------------------------------------------------------------------------
# the shared workspace

def _count_calls(monkeypatch, fn):
    """Record every call of fn, through whichever glab module binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("glab") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_shared_work_runs_once(monkeypatch):
    # z4c3 is local and Frobenius, so every law runs and none skips
    census = _count_calls(monkeypatch, glab.ideals.enumerate_ideals)
    passes = []
    classes = GroupAlgebra.canonical_classes

    def counted(alg, side, kernel=False):
        if (side, kernel) not in alg._least:
            passes.append((alg.label, side, kernel))
        return classes(alg, side, kernel)
    monkeypatch.setattr(GroupAlgebra, "canonical_classes", counted)
    matrices = _count_calls(monkeypatch, glab.lcp.complementarity)
    checkable = _count_calls(monkeypatch, glab.chk.code_checkable_census)
    idems = _count_calls(monkeypatch, glab.idem.enumerate_idempotents)
    refine = _count_calls(monkeypatch, glab.lcp.refine_certificate)
    orders = _count_calls(monkeypatch, glab.idem.idempotent_order)
    ws = fixture_workspace("z4c3")
    rep = verify_all(ws)
    assert not any(l.status == "skip" for l in rep.lines)
    assert [args[1] for args in census] == ["right", "left"]
    # one principal pass per side, serving its census, the checkable
    # routes and the element annihilators, and one kernel pass per side,
    # serving the check elements and the annihilators of elements (an
    # annihilator of a set is a kernel of its own); one
    # complementarity matrix per list of sets, the census and its
    # residue images (a single pair's is_lcp, left only for the lifted
    # residue pairs, is a 1 x 1 matrix)
    assert passes == [("Z4C3", "right", False), ("Z4C3", "right", True),
                      ("Z4C3", "left", False), ("Z4C3", "left", True)]
    stacks = [(len(args[0]), args[0][0].alg.card)
              for args in matrices if len(args[0]) > 1]
    assert stacks == [(9, ws.alg.card), (9, ws.residue.residue.card)]
    assert len(checkable) == 1
    # the algebra and its residue algebra
    assert [args[0] for args in idems] == [ws.alg, ws.residue.residue]
    assert len(ws.pairs) == 4 and len(refine) == 4
    # one idempotent order table, for the algebra: the refinements and
    # the parts of 1 read it, and the residue algebra needs none
    assert [args[0] for args in orders] == [ws.alg]


def test_lattice_shares_duals_projections_and_check_elements(monkeypatch):
    # 2,209 ordered pairs of 47 right ideals: each (side, key) has its
    # dual computed once and its residue image projected at most once,
    # and one check-element pass serves the whole checkable census
    duals = _count_calls(monkeypatch, glab.ideals.dual_code)
    projections = _count_calls(monkeypatch, glab.lcp.project_code)
    passes = _count_calls(monkeypatch, glab.chk.check_elements)
    ws = Workspace(build_instance(load_instance(
        str(ROOT / "perfbench" / "instances" / "z4c2c2.glab"))))
    rep = verify_all(ws)
    assert len(ws.right_ideals) == 47
    assert _by_id(rep)["residue-lcp.forward"].witness == (
        "checked 2209 ideal pairs")
    # every sum and meet of two right ideals is a census member; a
    # projection per pair member would make more than 4,418
    census = {("right", c.key()) for c in ws.right_ideals}
    keys = [(code.side, code.key()) for codes, in duals for code in codes]
    assert len(keys) == len(set(keys)) and set(keys) == census
    keys = [(code.side, code.key()) for _, codes in projections
            for code in codes]
    assert len(keys) == len(set(keys)) and set(keys) <= census
    assert len(passes) == 1


def test_pair_commands_build_no_census(monkeypatch):
    # lcp verify judges one named pair: no census, no pair scan
    from glab.cli import cmd_lcp_verify
    census = _count_calls(monkeypatch, glab.ideals.enumerate_ideals)
    scans = _count_calls(monkeypatch, glab.lcp.lcp_scan)
    rep = cmd_lcp_verify(fixture_workspace("m2f2c2"), ("C", "D"))
    assert not rep.failed and census == [] and scans == []


def test_tally_counts_failures_and_first_witness():
    checks = [(f"element {u}", u not in (3, 7)) for u in range(9)]
    assert _tally("elements", checks) == (
        FAIL, "2/9 elements fail; first at element 3")
    assert _tally("elements", [("element 0", True)], note="; 1 seen") == (
        PASS, "checked 1 elements; 1 seen")


@pytest.mark.parametrize("name", ["f3c2", "m2f2c2", "f2s3"])
def test_dual_cache_keys_on_side(name):
    # a two-sided ideal is in both censuses with one key; its dual as a
    # right ideal and as a left ideal differ in side, so the cache must
    # tell them apart (the zero ideal comes first)
    ws = fixture_workspace(name)
    rights = {c.key(): c for c in ws.right_ideals}
    two_sided = [(rights[c.key()], c) for c in ws.left_ideals
                 if c.key() in rights]
    assert len(two_sided) >= 3 and two_sided[0][0].cardinality == 1
    for as_right, as_left in two_sided:
        for code in (as_right, as_left):
            got, want = ws.dual(code), dual_code([code])[0]
            assert got.side == want.side == code.side
            assert got.same_set(want)


# ---------------------------------------------------------------------------
# mutations: a broken computation fails the law that owns it, with a count

_COUNTED = re.compile(r"^\d+/\d+ .+ fail; first at ")


def _fails(report):
    """The fail lines by check id; no line may carry a raw exception
    message, which would start with the algebra's label."""
    raw = [l.check_id for l in report.lines
           if l.witness.startswith(f"{report.algebra_label}:")]
    assert raw == []
    return {l.check_id: l.witness for l in report.lines if l.status == FAIL}


def test_dropped_pair_fails_the_pair_count(monkeypatch):
    scan = glab.lcp.lcp_scan
    monkeypatch.setattr(glab.workspace, "lcp_scan", lambda *args: scan(*args)[:-1])
    fails = _fails(_report("f3c2"))
    assert list(fails) == ["lcp-split.pair-idempotent-count"]
    assert fails["lcp-split.pair-idempotent-count"] == (
        "1/7 idempotents and pairs fail; first at idempotent 1")


@pytest.mark.parametrize("side,check_id,witness", [
    ("left", "checkable-routes.ann-principal",
     "1/15 right ideals fail; first at ideal 4 (size 16)"),
    ("right", "checkable-routes.dual-principal",
     "13/15 right ideals fail; first at ideal 1 (size 4)"),
])
def test_short_principal_table_fails_its_route(side, check_id, witness,
                                                monkeypatch):
    # the census reads its principal table from `ideals` itself, so it
    # comes out whole; only the route reading the table moves
    table = glab.ideals.principal_ideals

    def short(alg, s, bound):
        got = table(alg, s, bound)
        return dict(list(got.items())[:-1]) if s == side else got
    before = _report("m2f2c2").lines
    monkeypatch.setattr(glab.workspace, "principal_ideals", short)
    after = _report("m2f2c2").lines
    moved = [(b.check_id, a.status, a.witness) for b, a in zip(before, after)
             if (b.status, b.witness) != (a.status, a.witness)]
    assert moved == [(check_id, FAIL, witness)]


def test_dropped_complementary_pair_fails_the_lcp_split(monkeypatch):
    # the matrix loses its last complementary pair: the pair scan reads
    # the same matrix, so the pairs no longer match the idempotents
    matrix = glab.lcp.complementarity

    def flipped(cs, ds, sums=None):
        got = matrix(cs, ds, sums)
        if len(cs) > 1:
            got[tuple(np.argwhere(got)[-1])] = False
        return got
    monkeypatch.setattr(glab.workspace, "complementarity", flipped)
    fails = _fails(_report("f3c2"))
    assert list(fails) == ["lcp-split.pair-idempotent-count"]
    assert fails["lcp-split.pair-idempotent-count"] == (
        "1/7 idempotents and pairs fail; first at idempotent 1")


def test_dropped_refinement_part_fails_the_partition(monkeypatch):
    refine = glab.lcp.refine_certificate

    def broken(alg, e, order):
        pc, pd = refine(alg, e, order)
        return pc, pd[:-1]
    monkeypatch.setattr(glab.workspace, "refine_certificate", broken)
    fails = _fails(_report("f2s3"))
    # the dual-of-sum law reads the same parts of 1 - e
    assert sorted(fails) == ["split-refine.dual-of-sum",
                             "split-refine.partition"]
    assert _COUNTED.match(fails["split-refine.partition"])
    assert fails["split-refine.partition"].startswith("15/16 complementary pairs")


def test_wrong_slot_dual_fails_the_dual_audit(monkeypatch):
    # over a noncommutative base <x, b> and <b, x> differ, so a dual that
    # filters on the first slot is not the involution image of Ann_l
    dual_keys = GroupAlgebra.dual_keys
    monkeypatch.setattr(GroupAlgebra, "dual_keys", lambda self, keys, left: (
        dual_keys(self, keys, np.ones(len(keys), dtype=bool))))
    fails = _fails(_report("m2f2c2"))
    assert _COUNTED.match(fails["checkable-routes.dual-hat-ann"])


def test_short_sum_kernel_fails_the_dual_lattice(monkeypatch):
    # a sum that drops the last row of B's form leaves some A + B short;
    # over F3 the dual of a short sum is larger than dual(A) & dual(B).
    # Containment, meets and complementarity are read from the same
    # table: the meets refuse it, as a short A + B gives a size
    # |A| |B| / |A + B| that no member within both has, and a pair of
    # sizes 3 and 3 no longer spans RG, so the pairs no longer match
    # the idempotents
    def short(codes):
        alg, k = codes[0].alg, len(codes)
        forms = np.array([c.form for c in codes])
        rows = forms.copy().reshape(k, -1, len(alg.ring.moduli) * alg.group.order)
        for form in rows:
            nonzero = np.flatnonzero(form.any(axis=1))
            form[nonzero[-1:]] = 0
        return alg.sum_forms(np.repeat(forms, k, axis=0),
                             np.tile(rows.reshape(k, -1), (k, 1))
                             ).reshape(k, k, -1)
    monkeypatch.setattr(glab.workspace, "pair_sums", short)
    fails = {l.check_id: l.witness for l in _report("f3c2").lines
             if l.status == FAIL}
    assert fails == {
        "dual-lattice.sum-meet": "10/16 ideal pairs fail; first at pair (0, 1)",
        "dual-lattice.meet-join": "Z3C2: a meet is not among the sets",
        "lcp-split.pair-idempotent-count":
            "3/5 idempotents and pairs fail; first at idempotent 0",
    }


def test_only_construction_audits_raise_falsification():
    # library functions compute and return; the law matrix counts
    src = Path(glab.__file__).parent
    raising = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
               if path.name != "finring.py"
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if "raise FalsificationError" in line]
    assert raising == []
