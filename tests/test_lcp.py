"""Complementary pairs: detection, certificates, refinement, transfer."""

import numpy as np
import pytest

import glab.cli
from glab.errors import ConstructionError
from glab.finring import MatrixRing, Zmod, build_ring
from glab.galg import GroupAlgebra, residue_map
from glab.grp import CyclicGroup, SymmetricGroup, build_group
from glab.idem import enumerate_idempotents, idempotent_order, lift_idempotent
from glab.ideals import CodeSet, enumerate_ideals, span
from glab.lcp import (complementarity, lcp_certificate,
                      lcp_residue_correspondence, lcp_scan, project_code,
                      refine_certificate)
from glab.workspace import certificate_splits, hat_transfer

from desk import FIXTURES, fixture_algebra, fixture_path, fixture_workspace
from sets import elements_of, mask_of


def _alg(ring_spec, group_spec):
    return GroupAlgebra(build_ring(ring_spec), build_group(group_spec))


def _scan(alg, side="right"):
    census = enumerate_ideals(alg, side)
    return lcp_scan(census, complementarity(census, census))


def _refine(c, d):
    alg = c.alg
    return refine_certificate(alg, lcp_certificate(c, d), idempotent_order(
        alg, enumerate_idempotents(alg)))


@pytest.fixture(scope="module")
def f3c2():
    return _alg(Zmod(3), CyclicGroup(2))


@pytest.fixture(scope="module")
def f2c3():
    return _alg(Zmod(2), CyclicGroup(3))


@pytest.fixture(scope="module")
def z4c3():
    return _alg(Zmod(4), CyclicGroup(3))


@pytest.fixture(scope="module")
def f2s3():
    return _alg(Zmod(2), SymmetricGroup(3))


@pytest.fixture(scope="module")
def m2c2():
    return _alg(MatrixRing(2, Zmod(2)), CyclicGroup(2))


# ---------------------------------------------------------------------------
# detection and certificates

def test_complementarity_frozen_f2c3(f2c3):
    a = span(f2c3, [6], "right")
    b = span(f2c3, [7], "right")
    assert a.cardinality == 4 and b.cardinality == 2
    whole = span(f2c3, [1], "right")
    assert complementarity([a, b], [a, b, whole]).tolist() == [
        [False, True, False], [True, False, False]]


def test_certificate_frozen_f2c3(f2c3):
    a = span(f2c3, [6], "right")
    b = span(f2c3, [7], "right")
    assert lcp_certificate(a, b) == 6
    assert lcp_certificate(b, a) == 7


def test_certificate_requires_lcp(f2c3):
    a = span(f2c3, [6], "right")
    assert lcp_certificate(a, a) is None
    assert lcp_certificate(a, span(f2c3, [1], "right")) is None


def test_pair_needs_matching_sides(f3c2):
    r = span(f3c2, [8], "right")
    l = span(f3c2, [5], "left")
    with pytest.raises(ConstructionError):
        lcp_certificate(r, l)
    bare = CodeSet(f3c2, r.form)
    with pytest.raises(ConstructionError):
        lcp_certificate(bare, bare)


def test_complement_pair_roundtrip(f3c2, m2c2):
    for alg in (f3c2, m2c2):
        for e in enumerate_idempotents(alg):
            c = span(alg, [e], "right")
            d = span(alg, [alg.one_minus(e)], "right")
            assert complementarity([c], [d])[0, 0]
            assert lcp_certificate(c, d) == e
            assert certificate_splits(alg, [(c, d, e)]) == [True]


def test_complement_pair_rejects_non_idempotent(f3c2):
    c, d = span(f3c2, [8], "right"), span(f3c2, [5], "right")
    # one call decides them all; 2 is not idempotent
    assert certificate_splits(f3c2, [(c, d, 8), (c, d, None), (d, c, 8),
                                     (c, d, 2)]) == [True, False, False, False]


def test_noncommutative_pair(m2c2):
    # E11*RG against E22*RG: complementary with certificate E11 at 1.
    c = span(m2c2, [1], "right")
    d = span(m2c2, [8], "right")
    assert complementarity([c], [d])[0, 0]
    assert lcp_certificate(c, d) == 1


# ---------------------------------------------------------------------------
# scans

def test_scan_counts_frozen(f3c2, f2c3, f2s3, m2c2):
    assert len(_scan(_alg(Zmod(2), CyclicGroup(2)))) == 2
    assert len(_scan(_alg(Zmod(4), CyclicGroup(2)))) == 2
    assert len(_scan(f3c2)) == 4
    assert len(_scan(f2c3)) == 4
    assert len(_scan(f2s3)) == 16
    assert len(_scan(m2c2)) == 26


def test_scan_certificates_frozen_f2c3(f2c3):
    assert sorted(p.certificate for p in _scan(f2c3)) == [0, 1, 6, 7]


def test_scan_matches_idempotent_count(f3c2, f2s3):
    for alg in (f3c2, f2s3):
        assert len(_scan(alg)) == len(enumerate_idempotents(alg))


def test_scan_left_side(f3c2, m2c2):
    assert len(_scan(f3c2, side="left")) == 4
    assert len(_scan(m2c2, side="left")) == 26


def test_scan_pairs_come_with_swaps(f2c3):
    pairs = {(p.c.key(), p.d.key()) for p in _scan(f2c3)}
    for ck, dk in pairs:
        assert (dk, ck) in pairs


# ---------------------------------------------------------------------------
# refinement

def test_refine_frozen_f2s3(f2s3):
    c = span(f2s3, [25], "right")
    d = span(f2s3, [f2s3.one_minus(25)], "right")
    pc, pd = _refine(c, d)
    assert pc == [25] and pd == [15, 23]


def test_refine_all_pairs(f3c2, f2c3, m2c2):
    for alg in (f3c2, f2c3, m2c2):
        for p in _scan(alg):
            pc, pd = _refine(p.c, p.d)
            total = 0
            for part in pc + pd:
                total = alg.add(total, part)
            assert total == alg.one


def test_refine_matrix_pair(m2c2):
    pc, pd = _refine(span(m2c2, [1], "right"), span(m2c2, [8], "right"))
    assert pc == [1] and pd == [8]


# ---------------------------------------------------------------------------
# involution equivalence

def test_hat_equivalence_frozen_f3c2():
    ws = fixture_workspace("f3c2")
    c, d = span(ws.alg, [8], "right"), span(ws.alg, [5], "right")
    assert lcp_certificate(c, d) == 8 and ws.alg.central([8])[0]
    assert hat_transfer(ws, c, d) == (True, True)


def test_hat_equivalence_dichotomy_f2s3():
    ws = fixture_workspace("f2s3")
    central_ok, noncentral_miss = 0, 0
    for p in ws.pairs:
        sizes, image = hat_transfer(ws, p.c, p.d)
        assert sizes
        if ws.alg.central([p.certificate])[0]:
            assert image
            central_ok += 1
        elif not image:
            noncentral_miss += 1
    assert central_ok == 4
    assert noncentral_miss == 12  # every noncentral certificate misses


def test_hat_equivalence_sizes_always():
    ws = fixture_workspace("m2f2c2")
    assert len(ws.pairs) == 26
    for p in ws.pairs:
        assert hat_transfer(ws, p.c, p.d)[0]


# ---------------------------------------------------------------------------
# residue transfer

def _transfers(pairs, rm):
    def project(code):
        return project_code(rm, [code])[0]
    return lcp_residue_correspondence(
        pairs, [lcp_certificate(c, d) for c, d in pairs],
        [lcp_certificate(project(c), project(d)) for c, d in pairs],
        rm, project, lambda ebar: lift_idempotent(rm.base, rm, ebar))


def _transfer(c, d, rm):
    return _transfers([(c, d)], rm)[0]


def test_residue_transfer_frozen_z4c3(z4c3):
    c = span(z4c3, [22], "right")
    d = span(z4c3, [63], "right")
    t = _transfer(c, d, residue_map(z4c3))
    assert t.lcp_base and t.lcp_residue and t.biconditional
    assert t.certificate == 22 and t.residue_certificate == 6
    assert t.lifted_certificate == 22
    assert t.members_idempotent_generated


def test_residue_transfer_negative_pair(z4c3):
    c = span(z4c3, [22], "right")
    t = _transfer(c, c, residue_map(z4c3))
    assert not t.lcp_base and not t.lcp_residue
    assert t.biconditional and t.certificate is None


def test_residue_biconditional_genuinely_fails_raw():
    # The whole algebra against a radical multiple: residue images are
    # the trivial complementary pair, the base pair is not complementary.
    z4c2 = _alg(Zmod(4), CyclicGroup(2))
    rm = residue_map(z4c2)
    whole = span(z4c2, [1], "right")
    rad = span(z4c2, [2], "right")
    assert list(elements_of(rad)) == [0, 2, 8, 10]
    t = _transfer(whole, rad, rm)
    assert not t.lcp_base and t.lcp_residue
    assert not t.biconditional
    assert t.members_idempotent_generated is False


def test_residue_transfer_all_pairs_local(z4c3):
    # The lifted split of every complementary residue pair is
    # complementary over it; the raw biconditional fails exactly on the
    # frozen number of pairs, all flagged as not idempotent-generated.
    expected = {
        "Z4C2": 4,
        "Z2[t]/(t^2)C2": 4,
        "Z4C3": 12,
    }
    for alg in (_alg(Zmod(4), CyclicGroup(2)),
                fixture_algebra("f2x2c2"),
                z4c3):
        rm = residue_map(alg)
        census = enumerate_ideals(alg)
        violations = 0
        for t in _transfers([(c, d) for c in census for d in census], rm):
            assert t.lift_splits is not False
            if not t.biconditional:
                violations += 1
                assert t.lcp_residue and not t.lcp_base
                assert t.members_idempotent_generated is False
        assert violations == expected[alg.label]


def test_project_code_is_ideal_image(z4c3):
    rm = residue_map(z4c3)
    c = span(z4c3, [22], "right")
    cbar = project_code(rm, [c])[0]
    assert cbar.side == "right"
    assert np.array_equal(mask_of(cbar),
                          mask_of(span(rm.residue, [6], "right")))


# ---------------------------------------------------------------------------
# elements are enumerated only for a census's order

def test_only_a_census_enumerates_elements(monkeypatch, capsys):
    # certificates, refinements, duals and residue transfers of a named
    # pair read forms alone; a scan's census enumerates its members
    # once, for their order by cardinality, then packed mask
    calls = []
    enumerate_ = GroupAlgebra.subgroup_mask
    monkeypatch.setattr(GroupAlgebra, "subgroup_mask", lambda self, keys: (
        calls.append((self.label, len(keys))) or enumerate_(self, keys)))
    pair = str(FIXTURES.parent / "perfbench" / "instances" / "m2f2c3pair.glab")
    bound = ["--census-bound", "5000"]
    for path, codes in ((fixture_path("z4c3"), (0, 0)), (pair, (0, 2))):
        for mode, code in zip(("verify", "residue"), codes):
            assert glab.cli.main(
                ["lcp", mode, path, "--pair", "C", "D", *bound]) == code
    assert calls == []
    assert glab.cli.main(["lcp", "scan", fixture_path("z4c3")]) == 0
    assert calls == [("Z4C3", 9)]
    assert glab.cli.main(["lcp", "scan", fixture_path("m2f2c3"), *bound]) == 0
    assert calls == [("Z4C3", 9), ("M2(Z2)C3", 35)]
    capsys.readouterr()
