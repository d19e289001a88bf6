"""Idempotent census, primitivity, decompositions, lifting."""

import pytest

from glab.errors import ConstructionError, ScaleError
from glab.finring import MatrixRing, Zmod, build_ring
from glab.galg import GroupAlgebra, residue_map
from glab.grp import CyclicGroup, SymmetricGroup, build_group
from glab.idem import (decompose_idempotent, enumerate_idempotents,
                       idempotent_order, is_idempotent, lift_idempotent)
from glab.ideals import dual_code, span

from desk import fixture_algebra
from sets import elements_of, mask_of


def _alg(ring_spec, group_spec):
    return GroupAlgebra(build_ring(ring_spec), build_group(group_spec))


def _order(alg):
    return idempotent_order(alg, enumerate_idempotents(alg))


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
# census

def test_idempotents_frozen_small(f3c2, f2c3, z4c3):
    assert enumerate_idempotents(f3c2) == [0, 1, 5, 8]
    assert enumerate_idempotents(f2c3) == [0, 1, 6, 7]
    assert enumerate_idempotents(z4c3) == [0, 1, 22, 63]
    assert enumerate_idempotents(_alg(Zmod(4), CyclicGroup(2))) == [0, 1]


def test_idempotent_counts_frozen(f2s3, m2c2):
    assert len(enumerate_idempotents(f2s3)) == 16
    assert len(enumerate_idempotents(m2c2)) == 26
    m2c3 = _alg(MatrixRing(2, Zmod(2)), CyclicGroup(3))
    assert len(enumerate_idempotents(m2c3)) == 176


def test_census_flags_frozen(f2s3):
    es = _order(f2s3).elements
    assert es[f2s3.central(es)].tolist() == [0, 1, 24, 25]
    assert es[_order(f2s3).primitive].tolist() == [15, 23, 25, 43, 45, 51, 53]
    assert f2s3.text(24) == "(1 2 3) + (1 3 2)"


def test_census_flags_matrix_base(m2c2):
    order = _order(m2c2)
    # only 0 and 1 are central; every other idempotent is primitive
    assert order.elements[m2c2.central(order.elements)].tolist() == [
        0, m2c2.one]
    assert order.primitive.sum() == 24


def test_scan_is_exhaustive(f2c3):
    found = set(enumerate_idempotents(f2c3))
    for x in range(f2c3.card):
        assert (f2c3.mul(x, x) == x) == (x in found)


def test_scan_scale_gate(f3c2):
    with pytest.raises(ScaleError):
        enumerate_idempotents(f3c2, bound=5)


# ---------------------------------------------------------------------------
# primitivity and decomposition

def _primitive(alg):
    order = _order(alg)
    return dict(zip(order.elements.tolist(), order.primitive.tolist()))


def test_primitivity_frozen(f3c2):
    assert _primitive(f3c2) == {
        0: False, 1: False, 5: True, 8: True}


def test_primitivity_rejects_non_idempotent(f3c2):
    with pytest.raises(ConstructionError):
        idempotent_order(f3c2, enumerate_idempotents(f3c2) + [2])


def test_decompose_one_frozen(f3c2, f2c3):
    assert decompose_idempotent(f3c2, f3c2.one, _order(f3c2)) == [5, 8]
    assert decompose_idempotent(f2c3, f2c3.one, _order(f2c3)) == [6, 7]


def test_decompose_one_invariants(f2s3, m2c2):
    for alg in (f2s3, m2c2):
        parts = decompose_idempotent(alg, alg.one, _order(alg))
        primitive = _primitive(alg)
        total = 0
        for p in parts:
            assert is_idempotent(alg, p) and primitive[p]
            total = alg.add(total, p)
        assert total == alg.one
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert alg.mul(p, q) == 0 and alg.mul(q, p) == 0
    # E11 and E22 at the identity
    assert decompose_idempotent(m2c2, m2c2.one, _order(m2c2)) == [1, 8]


def test_decompose_primitive_is_itself(f3c2):
    order = _order(f3c2)
    assert decompose_idempotent(f3c2, 5, order) == [5]
    assert decompose_idempotent(f3c2, 0, order) == []


def test_decompose_rejects_non_idempotent(f2c3):
    with pytest.raises(ConstructionError):
        decompose_idempotent(f2c3, 2, _order(f2c3))


# ---------------------------------------------------------------------------
# Peirce split and complement duality

def test_complement_split_sizes(f3c2, f2c3, f2s3, m2c2):
    for alg in (f3c2, f2c3, f2s3, m2c2):
        for e in enumerate_idempotents(alg):
            c = span(alg, [e], "right")
            d = span(alg, [alg.one_minus(e)], "right")
            assert c.cardinality * d.cardinality == alg.card
            assert (mask_of(c) & mask_of(d)).sum() == 1
            assert span(alg, [e, alg.one_minus(e)],
                        "right").cardinality == alg.card


def test_involution_preserves_ideal_size(f3c2, f2s3, m2c2):
    for alg in (f3c2, f2s3, m2c2):
        for e in enumerate_idempotents(alg):
            ehat = int(alg.hat_all[e])
            assert is_idempotent(alg, ehat)
            assert (span(alg, [ehat], "right").cardinality
                    == span(alg, [e], "right").cardinality)


def _complement_of_hat(alg, e):
    """The right ideal of 1 - hat(e), claimed equal to dual(e*RG)."""
    return span(alg, [alg.one_minus(alg.hat_all[e])], "right")


def test_dual_of_idempotent_ideal_frozen(f3c2):
    d = _complement_of_hat(f3c2, 8)
    assert list(elements_of(d)) == [0, 5, 7]
    assert f3c2.one_minus(f3c2.hat_all[8]) == 5  # 1 - hat(2+2g) = 2+g
    assert d.same_set(dual_code([span(f3c2, [8], "right")])[0])


def test_dual_of_idempotent_ideal_commutative(f3c2, f2c3, f2s3):
    for alg in (f3c2, f2c3, f2s3):
        for e in enumerate_idempotents(alg):
            d = _complement_of_hat(alg, e)
            assert d.same_set(dual_code([span(alg, [e], "right")])[0])


def test_dual_of_idempotent_ideal_fails_over_matrix_base(m2c2):
    # E11 at the identity: the dual of its right ideal is a left ideal
    # that no single right generator reproduces.
    dual = dual_code([span(m2c2, [1], "right")])[0]
    assert dual.side is None  # not closed under right multiplication
    assert not _complement_of_hat(m2c2, 1).same_set(dual)


# ---------------------------------------------------------------------------
# lifting

def test_lift_frozen_z4c3(z4c3):
    rm = residue_map(z4c3)
    assert rm.residue.label == "Z4/radC3"
    assert rm.residue.ring.card == 2
    # g + g^2 in the residue algebra lifts to 2 + g + g^2
    assert lift_idempotent(z4c3, rm, 6) == 22
    assert z4c3.text(22) == "2 + g + g^2"


def test_lift_covers_all_residue_idempotents(z4c3):
    rm = residue_map(z4c3)
    lifted = sorted(lift_idempotent(z4c3, rm, eb)
                    for eb in enumerate_idempotents(rm.residue))
    assert lifted == enumerate_idempotents(z4c3)


def test_lift_over_chain_ring_base():
    alg = fixture_algebra("f2x2c2")
    rm = residue_map(alg)
    for eb in enumerate_idempotents(rm.residue):
        e = lift_idempotent(alg, rm, eb)
        assert is_idempotent(alg, e) and int(rm.proj[e]) == eb


def test_lift_is_identity_when_radical_trivial(f3c2):
    rm = residue_map(f3c2)
    assert rm.residue.card == f3c2.card
    for eb in enumerate_idempotents(rm.residue):
        e = lift_idempotent(f3c2, rm, eb)
        assert int(rm.proj[e]) == eb


def test_lift_rejects_non_idempotent_residue(z4c3):
    rm = residue_map(z4c3)
    with pytest.raises(ConstructionError):
        lift_idempotent(z4c3, rm, 2)
