"""Acceptance gate: every advertised guarantee, one test per numbered line.

Each numbered test runs one guarantee end to end at desk scale within
its stated time budget and prints a [PASS]/[FAIL] line. Guarantees
that are genuinely false as stated — each falls to the same
commutativity gap in the involution argument, or to residue transfer
of non-idempotent-generated members — appear twice: once as a
strict xfail asserting the literal claim (so the run shows it red, and
a future change that makes it true turns the suite red instead), and
once as a green test freezing the exact counterexample pattern.
"""

import functools
import time

import pytest

from glab.errors import ConstructionError
from glab.finring import frobenius
from glab.grp import CayleyGroup, build_group
from glab.idem import is_idempotent
from glab.ideals import dual_code, span
from glab.lcp import complementarity, lcp_certificate
from glab.verify import verify_all
from glab.workspace import FAIL, PASS

from desk import fixture_algebra, fixture_workspace

MAIN = ("f2c2", "f3c2", "f2c3", "f2s3", "z4c2")
LOCAL = ("z4c2", "z4c3", "f2x2c2")

_reports: dict[str, dict] = {}


def report(name: str):
    """Law-matrix lines for one instance file, keyed by check id."""
    if name not in _reports:
        rep = verify_all(workspace(name))
        _reports[name] = {l.check_id: l for l in rep.lines}
    return _reports[name]


# one workspace per instance file, shared by the tests of this gate
workspace = functools.cache(fixture_workspace)


class budget:
    """Assert the block finished inside its advertised time budget."""

    def __init__(self, seconds: float, label: str):
        self.seconds, self.label = seconds, label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is not None:
            return False
        elapsed = time.perf_counter() - self.start
        print(f"[PASS] {self.label} ({elapsed:.2f}s, budget {self.seconds}s)")
        assert elapsed < self.seconds, (
            f"{self.label}: {elapsed:.2f}s exceeded {self.seconds}s")
        return False


def assert_laws(name: str, check_ids: tuple[str, ...]) -> None:
    lines = report(name)
    for cid in check_ids:
        line = lines[cid]
        assert line.status == PASS, f"{name} {cid}: {line.witness}"


# ---------------------------------------------------------------------------
# 1 .. 5: duality, complementary pairs, refinement, involution

def test_01_duality_lattice_laws():
    with budget(10, "duality lattice laws on the five commutative-desk "
                "instances"):
        for name in MAIN:
            assert_laws(name, ("dual-lattice.sum-meet",
                               "dual-lattice.meet-join",
                               "dual-lattice.size-product"))


def test_02_complementary_pair_biconditional():
    with budget(30, "complementary-pair certificate biconditional, all "
                "right-ideal pairs"):
        for name in MAIN:
            assert_laws(name, ("lcp-split.biconditional",
                               "lcp-split.pair-idempotent-count"))


def test_03_certificate_refinement_and_dual_of_sum():
    with budget(30, "primitive refinement of every certificate + "
                "dual-of-sum identity"):
        for name in MAIN:
            assert_laws(name, ("split-refine.partition",
                               "split-refine.dual-of-sum"))


def test_04_idempotent_dual_complement_formula():
    with budget(5, "dual(e*RG) = (1-hat(e))*RG for every idempotent, "
                "commutative desks"):
        for name in MAIN:
            assert_laws(name, ("idem-dual.formula",))


def test_05_involution_image_equivalence():
    with budget(10, "central certificates carry C onto dual(D); sizes "
                "match for all certificates"):
        for name in MAIN:
            assert_laws(name, ("hat-transfer.central-image",
                               "hat-transfer.size"))


# ---------------------------------------------------------------------------
# 6: residue transfer and radical lifting on the local-desk instances

RESIDUE_VIOLATIONS = {"z4c2": "4/49 ideal pairs fail; first at pair (1, 6)",
                      "z4c3": "12/81 ideal pairs fail; first at pair (1, 8)",
                      "f2x2c2": "4/49 ideal pairs fail; first at pair (1, 6)"}


@pytest.mark.xfail(strict=True, reason=(
    "the raw residue biconditional is false for pairs with a member "
    "not generated by an idempotent (whole algebra vs a radical "
    "multiple); frozen violation counts: 4/49, 12/81, 4/49"))
def test_06_residue_biconditional_as_stated():
    for name in LOCAL:
        line = report(name)["residue-lcp.biconditional"]
        assert line.status == PASS, f"{name}: {line.witness}"


def test_06_residue_transfer_and_lifting():
    with budget(60, "residue transfer (forward + idempotent-restricted) "
                "and radical lifting on the local desks; raw biconditional "
                "red with frozen counterexample counts"):
        for name in LOCAL:
            assert_laws(name, ("residue-lcp.forward",
                               "residue-lcp.idempotent-restricted",
                               "radical-lift.iteration"))
            line = report(name)["residue-lcp.biconditional"]
            assert line.status == FAIL
            assert line.witness == RESIDUE_VIOLATIONS[name], (
                f"{name}: counterexample pattern moved: {line.witness}")
            lift = report(name)["radical-lift.iteration"]
            assert "<= 1 iterations" in lift.witness


# ---------------------------------------------------------------------------
# 7 .. 8: checkability routes and annihilator identities

def test_07_checkability_routes_agree():
    with budget(60, "checkability detection routes agree on every right "
                "ideal; dual = involution image of the left annihilator"):
        for name in MAIN:
            assert_laws(name, ("checkable-routes.ann-principal",
                               "checkable-routes.dual-principal",
                               "checkable-routes.dual-hat-ann"))


def test_08_annihilator_identities():
    with budget(60, "annihilator identities: elementwise, double, and "
                "size-product forms, exhaustive"):
        for name in MAIN:
            assert_laws(name, ("ann-identities.right-of-element",
                               "ann-identities.left-of-element",
                               "ann-identities.double-left",
                               "ann-identities.double-right",
                               "ann-identities.size-left",
                               "ann-identities.size-right"))


# ---------------------------------------------------------------------------
# 9: the matrix-ring instances

def test_09_matrix_ring_full_enumeration_clauses():
    with budget(350, "matrix-ring coverage: duality, pair biconditional, "
                "principal-annihilator route, annihilator identities on "
                "M2(Z2)C2 (full); pair biconditional on M2(Z2)C3 "
                "(idempotent-generated)"):
        assert_laws("m2f2c2", (
            "dual-lattice.sum-meet", "dual-lattice.meet-join",
            "dual-lattice.size-product",
            "lcp-split.biconditional", "lcp-split.pair-idempotent-count",
            "checkable-routes.ann-principal",
            "checkable-routes.dual-hat-ann",
            "ann-identities.right-of-element",
            "ann-identities.left-of-element",
            "ann-identities.double-left", "ann-identities.double-right",
            "ann-identities.size-left", "ann-identities.size-right"))

        # M2(Z2)C3 at 4096 elements, restricted to ideals generated by
        # idempotents: both directions of the certificate biconditional.
        ws = workspace("m2f2c3")
        alg = ws.built.algebra
        idems = ws.idempotents
        spans = {}
        for e in idems:
            c = span(alg, [e], "right")
            spans.setdefault(c.key(), c)
        ideals = list(spans.values())
        complementary = 0
        for c, row in zip(ideals, complementarity(ideals, ideals)):
            for d, ok in zip(ideals, row):
                e = lcp_certificate(c, d)
                if ok:
                    assert is_idempotent(alg, e)
                    assert span(alg, [e], "right").same_set(c)
                    assert span(alg, [alg.one_minus(e)], "right").same_set(d)
                    complementary += 1
                else:
                    assert e is None
        assert len(ideals) == 35 and complementary == 176


@pytest.mark.xfail(strict=True, reason=(
    "dual(e*RG) = (1-hat(e))*RG needs commutative coefficients: the "
    "involution is an anti-automorphism, so the dual is the LEFT span "
    "of the complement; over M2(Z2) only e in {0, 1} satisfy the "
    "right-span form (24/26 fail on M2(Z2)C2, 172/176 on M2(Z2)C3)"))
def test_09_matrix_ring_idempotent_dual_formula_as_stated():
    line = report("m2f2c2")["idem-dual.formula"]
    assert line.status == PASS, line.witness


def test_09_matrix_ring_idempotent_dual_frozen_violations():
    with budget(200, "matrix-ring idempotent dual formula red with frozen "
                "counterexample counts 24/26 and 172/176"):
        line = report("m2f2c2")["idem-dual.formula"]
        assert line.status == FAIL
        assert line.witness == "24/26 idempotents fail; first at idempotent 1"

        ws = workspace("m2f2c3")
        alg = ws.built.algebra
        bad = [e for e in ws.idempotents
               if not dual_code([span(alg, [e], "right")])[0].same_set(
                   span(alg, [alg.one_minus(alg.hat_all[e])], "right"))]
        assert len(ws.idempotents) == 176 and len(bad) == 172
        assert bad[0] == 1


@pytest.mark.xfail(strict=True, reason=(
    "over noncommutative coefficients the dual of a checkable right "
    "ideal need not be a principal right ideal (nor a right ideal at "
    "all): 12/15 right ideals of M2(Z2)C2 fail the dual-principality "
    "route while the check-element and principal-annihilator routes "
    "agree everywhere"))
def test_09_matrix_ring_dual_principality_as_stated():
    line = report("m2f2c2")["checkable-routes.dual-principal"]
    assert line.status == PASS, line.witness


def test_09_matrix_ring_dual_principality_frozen_violations():
    with budget(50, "matrix-ring dual-principality route red with frozen "
                "count 12/15; surviving routes agree on all 15 ideals"):
        line = report("m2f2c2")["checkable-routes.dual-principal"]
        assert line.status == FAIL
        assert line.witness == "12/15 right ideals fail; first at ideal 1 (size 4)"
        assert report("m2f2c2")["checkable-routes.ann-principal"].status == PASS
        assert report("m2f2c2")["checkable-routes.dual-hat-ann"].status == PASS


# ---------------------------------------------------------------------------
# 10: negative controls

def test_10_negative_controls():
    with budget(5, "negative controls: non-Frobenius ring detected, "
                "trivial-only pair scan, corrupted Cayley table rejected"):
        ut = fixture_algebra("ut2c1").ring
        verdict = frobenius(ut)
        assert verdict.status == "not-frobenius" and verdict.character is None

        pairs = fixture_workspace("f2c2").pairs
        assert len(pairs) == 2
        sizes = sorted((p.c.cardinality, p.d.cardinality) for p in pairs)
        assert sizes == [(1, 4), (4, 1)]

        broken = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
        with pytest.raises(ConstructionError) as err:
            build_group(CayleyGroup(broken, label="broken"))
        assert "not associative at (1, 1, 2)" in str(err.value)
