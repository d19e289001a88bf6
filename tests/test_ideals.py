"""Ideal lattice: spans, duals, annihilators, principality, census."""

from pathlib import Path

import numpy as np
import pytest

import glab.ideals
from glab.config import DEFAULT_CENSUS_BOUND
from glab.errors import ConstructionError, ScaleError
from glab.finring import MatrixRing, Zmod, build_ring
from glab.galg import GroupAlgebra
from glab.grp import (CyclicGroup, ProductGroup, SymmetricGroup, build_group)
from glab.ideals import (CodeSet, additive_basis, ann_left,
                         ann_left_of_element, ann_right,
                         ann_right_of_element, audit_ideal, dual_code,
                         enumerate_ideals, ideal_intersect, ideal_sum,
                         is_principal, principal, side_closed, span)
from glab.instance import build_instance, load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _alg(ring_spec, group_spec):
    return GroupAlgebra(build_ring(ring_spec), build_group(group_spec))


@pytest.fixture(scope="module")
def f2c2():
    return _alg(Zmod(2), CyclicGroup(2))


@pytest.fixture(scope="module")
def f3c2():
    return _alg(Zmod(3), CyclicGroup(2))


@pytest.fixture(scope="module")
def f2c3():
    return _alg(Zmod(2), CyclicGroup(3))


@pytest.fixture(scope="module")
def f2s3():
    return _alg(Zmod(2), SymmetricGroup(3))


@pytest.fixture(scope="module")
def m2c2():
    return _alg(MatrixRing(2, Zmod(2)), CyclicGroup(2))


# ---------------------------------------------------------------------------
# spans and basic closure

def test_span_frozen_f3c2(f3c2):
    # generator 2 + 2g has index 8; its right span is {0, 1+g, 2+2g}
    c = span(f3c2, [8], "right")
    assert list(c.elements()) == [0, 4, 8]
    assert c.cardinality == 3
    assert c.contains(4) and not c.contains(1)
    audit_ideal(c)


def test_span_of_nothing_is_zero(f3c2):
    z = span(f3c2, [], "right")
    assert z.is_zero() and list(z.elements()) == [0]


def test_span_of_one_is_everything(f3c2):
    assert span(f3c2, [1], "right").is_full()


def test_principal_matches_span(f2s3):
    rng = np.random.default_rng(4021)
    for u in rng.integers(0, f2s3.card, size=8):
        assert principal(f2s3, int(u), "right").same_set(
            span(f2s3, [int(u)], "right"))
        assert principal(f2s3, int(u), "left").same_set(
            span(f2s3, [int(u)], "left"))


def test_left_and_right_spans_differ_noncommutatively(m2c2):
    # E11 at the identity: index 1. Row space vs column space.
    right = span(m2c2, [1], "right")
    left = span(m2c2, [1], "left")
    assert right.cardinality == 16 and left.cardinality == 16
    assert not right.same_set(left)


def test_codeset_rejects_zero_free_mask(f2c2):
    mask = np.zeros(f2c2.card, dtype=bool)
    mask[1] = True
    with pytest.raises(ConstructionError):
        CodeSet(f2c2, mask)


def test_audit_rejects_wrong_side_claim():
    # Column ideal M*E11 inside M2(F2) over the trivial group is left
    # but not right closed.
    alg = _alg(MatrixRing(2, Zmod(2)), CyclicGroup(1))
    col = span(alg, [1], "left")
    audit_ideal(col)
    assert not side_closed(col, "right")
    fake = CodeSet(alg, col.mask, side="right")
    with pytest.raises(ConstructionError):
        audit_ideal(fake)


def test_additive_basis_spans_and_is_small(f2s3):
    c = span(f2s3, [f2s3.encode([1, 1, 0, 0, 0, 0])], "right")
    basis = additive_basis(f2s3, c.mask)
    assert 2 ** len(basis) == c.cardinality  # char 2: basis is F2-linear
    rebuilt = span(f2s3, basis, "right")
    assert rebuilt.same_set(c)


def test_additive_basis_rejects_unclosed_set(f2c2):
    mask = np.zeros(f2c2.card, dtype=bool)
    mask[0] = True
    mask[1] = True  # {0, 1} is not additively closed over F2C2? 1+1=0, closed.
    mask[2] = True  # adding a lone extra element breaks closure
    with pytest.raises(ConstructionError):
        additive_basis(f2c2, mask)


# ---------------------------------------------------------------------------
# sums and intersections

def test_sum_and_intersect_frozen(f3c2):
    c = span(f3c2, [8], "right")   # {0, 1+g, 2+2g}
    d = span(f3c2, [5], "right")   # {0, 2+g, 1+2g}
    s = ideal_sum(c, d)
    assert s.is_full()
    i = ideal_intersect(c, d)
    assert i.is_zero()


def test_mixed_sides_rejected(f3c2):
    c = span(f3c2, [8], "right")
    d = span(f3c2, [8], "left")
    with pytest.raises(ConstructionError):
        ideal_sum(c, d)
    with pytest.raises(ConstructionError):
        ideal_intersect(c, d)


def test_sum_is_join_in_census(f2c3):
    census = enumerate_ideals(f2c3)
    keys = {c.key() for c in census}
    for a in census:
        for b in census:
            assert ideal_sum(a, b).key() in keys
            assert ideal_intersect(a, b).key() in keys


# ---------------------------------------------------------------------------
# duals

def test_dual_frozen_f3c2(f3c2):
    c = span(f3c2, [8], "right")
    d = dual_code(c)
    assert list(d.elements()) == [0, 5, 7]
    assert d.side == "right"


def test_dual_of_zero_and_full(f2c3):
    z = span(f2c3, [], "right")
    assert dual_code(z).is_full()
    assert dual_code(span(f2c3, [1], "right")).is_zero()


def test_dual_size_product_all_right_ideals(f2c2, f3c2, f2c3, f2s3):
    for alg in (f2c2, f3c2, f2c3, f2s3):
        for c in enumerate_ideals(alg):
            d = dual_code(c)
            assert c.cardinality * d.cardinality == alg.card


def test_dual_reverses_lattice(f3c2, f2c3):
    for alg in (f3c2, f2c3):
        census = enumerate_ideals(alg)
        for a in census:
            for b in census:
                ds = dual_code(ideal_sum(a, b))
                di = ideal_intersect(dual_code(a), dual_code(b))
                assert ds.same_set(di)
                dI = dual_code(ideal_intersect(a, b))
                dS = ideal_sum(dual_code(a), dual_code(b))
                assert dI.same_set(dS)


def test_double_dual_is_identity(f3c2, f2s3):
    for alg in (f3c2, f2s3):
        for c in enumerate_ideals(alg):
            d = dual_code(c)
            assert dual_code(d).same_set(c)


def test_dual_via_involution_of_left_annihilator(f2s3, m2c2):
    # The audit inside dual_code enforces the identity; run it over
    # every right ideal of a commutative-base and a matrix-base algebra.
    for alg in (f2s3, m2c2):
        for c in enumerate_ideals(alg):
            dual_code(c)


def test_dual_of_left_ideal(f3c2, m2c2):
    for alg in (f3c2, m2c2):
        for u in (0, 1, 5):
            c = span(alg, [u], "left")
            d = dual_code(c)
            assert c.cardinality * d.cardinality == alg.card


def test_left_dual_uses_first_slot_orientation(m2c2):
    # For C = RG*E11 the two orientations genuinely differ: only
    # elements a with <c, a> = 0 form a set of the right size.
    c = span(m2c2, [1], "left")
    d = dual_code(c)
    assert c.cardinality * d.cardinality == m2c2.card
    for a in d.elements():
        for x in c.elements():
            assert m2c2.form(int(x), int(a)) == 0
    # second-slot orthogonality would cut the set to {0}
    strict = [a for a in d.elements()
              if all(m2c2.form(int(a), int(x)) == 0 for x in c.elements())]
    assert strict == [0]


def test_left_duals_match_right_duals_commutatively(f3c2, f2c3):
    for alg in (f3c2, f2c3):
        for c in enumerate_ideals(alg, "left"):
            d = dual_code(c)
            assert d.side == "left"
            as_right = CodeSet(alg, c.mask, side="right")
            assert np.array_equal(d.mask, dual_code(as_right).mask)


def test_noncommutative_dual_loses_right_closure(m2c2):
    # C = E11*RG; its dual is RG*E22, a left ideal that is not a
    # right ideal, so no side claim may survive.
    c = span(m2c2, [1], "right")
    d = dual_code(c)
    assert d.side is None
    assert side_closed(d, "left")
    assert not side_closed(d, "right")
    # and it is exactly the left span of E22 at the identity
    e22 = m2c2.scalar_elem(8)
    assert np.array_equal(d.mask, span(m2c2, [e22], "left").mask)


def test_commutative_duals_keep_their_side(f2c2, f3c2, f2c3):
    for alg in (f2c2, f3c2, f2c3):
        for c in enumerate_ideals(alg):
            assert dual_code(c).side == "right"


# ---------------------------------------------------------------------------
# annihilators

def test_ann_right_frozen_f2c2(f2c2):
    left = span(f2c2, [3], "left")
    assert list(ann_right(left).elements()) == [0, 3]


def test_ann_of_element_equals_ann_of_its_span(f2s3, m2c2):
    rng = np.random.default_rng(7711)
    for alg in (f2s3, m2c2):
        for u in rng.integers(1, alg.card, size=6):
            u = int(u)
            assert ann_right_of_element(alg, u).same_set(
                ann_right(span(alg, [u], "left")))
            assert ann_left_of_element(alg, u).same_set(
                ann_left(span(alg, [u], "right")))


def test_annihilator_sizes_multiply(f2c2, f3c2, f2c3, f2s3, m2c2):
    for alg in (f2c2, f3c2, f2c3, f2s3, m2c2):
        for c in enumerate_ideals(alg):
            assert ann_left(c).cardinality * c.cardinality == alg.card
        for c in enumerate_ideals(alg, "left"):
            assert ann_right(c).cardinality * c.cardinality == alg.card


def test_double_annihilator_restores_ideal(f3c2, f2s3, m2c2):
    for alg in (f3c2, f2s3, m2c2):
        for c in enumerate_ideals(alg):
            assert ann_right(ann_left(c)).same_set(c)
        for c in enumerate_ideals(alg, "left"):
            assert ann_left(ann_right(c)).same_set(c)


def test_annihilators_are_proper_sided_ideals(m2c2):
    c = span(m2c2, [1], "right")
    al = ann_left(c)
    assert al.side == "left"
    audit_ideal(al)
    ar = ann_right(span(m2c2, [1], "left"))
    assert ar.side == "right"
    audit_ideal(ar)


# ---------------------------------------------------------------------------
# principality

def test_is_principal_frozen(f3c2):
    c = span(f3c2, [8], "right")
    assert is_principal(c) == 4  # 1 + g generates the same ideal


def test_radical_of_klein_group_algebra_not_principal():
    alg = _alg(Zmod(2), ProductGroup((CyclicGroup(2), CyclicGroup(2))))
    s = alg.encode([1, 1, 0, 0])
    t = alg.encode([1, 0, 1, 0])
    aug = span(alg, [s, t], "right")
    assert aug.cardinality == 8
    assert is_principal(aug) is None
    assert is_principal(span(alg, [s], "right")) is not None


def test_is_principal_needs_side(f2c2):
    bare = CodeSet(f2c2, span(f2c2, [3], "right").mask)
    with pytest.raises(ConstructionError):
        is_principal(bare)


# ---------------------------------------------------------------------------
# census

def test_census_counts(f2c2, f3c2, f2c3, f2s3, m2c2):
    assert len(enumerate_ideals(f2c2)) == 3
    assert len(enumerate_ideals(f3c2)) == 4
    assert len(enumerate_ideals(f2c3)) == 4
    assert len(enumerate_ideals(f2s3)) == 15
    assert len(enumerate_ideals(m2c2)) == 15
    assert len(enumerate_ideals(m2c2, "left")) == 15


def test_census_is_deterministic_and_audited(f2s3):
    a = enumerate_ideals(f2s3)
    b = enumerate_ideals(f2s3)
    assert [c.key() for c in a] == [c.key() for c in b]
    cards = [c.cardinality for c in a]
    assert cards == sorted(cards)
    assert a[0].is_zero() and a[-1].is_full()
    for c in a:
        audit_ideal(c)


def test_census_scale_gate(f3c2):
    with pytest.raises(ScaleError):
        enumerate_ideals(f3c2, bound=2)


def _brute_census(alg, side):
    """Every ideal's mask bytes, and the least generator of each principal
    one: the principal ideal of every element, closed under sums by a
    worklist over the full addition table."""
    every = np.arange(alg.card)
    add = alg.add(every[:, None], every[None, :])
    least = {}
    for u in alg.elements:
        m = np.zeros(alg.card, dtype=bool)
        m[alg.mul_row(u) if side == "right" else alg.mul_col(u)] = True
        least.setdefault(m.tobytes(), u)
    found = set(least)
    frontier = set(found)
    while frontier:
        new = set()
        for a in frontier:
            ia = np.flatnonzero(np.frombuffer(a, dtype=bool))
            for b in found:
                ib = np.flatnonzero(np.frombuffer(b, dtype=bool))
                m = np.zeros(alg.card, dtype=bool)
                m[add[np.ix_(ia, ib)]] = True
                if m.tobytes() not in found:
                    new.add(m.tobytes())
        found |= new
        frontier = new
    return found, least


_CENSUS_FIXTURES = [
    p.stem for p in sorted(FIXTURES.glob("*.glab"))
    if "corrupt" not in p.name and p.stem != "m2f2c3"]


@pytest.mark.parametrize("name", _CENSUS_FIXTURES)
def test_census_matches_brute_force(name):
    alg = build_instance(load_instance(str(FIXTURES / f"{name}.glab"))).algebra
    assert alg.card <= DEFAULT_CENSUS_BOUND
    for side in ("right", "left"):
        found, least = _brute_census(alg, side)
        census = enumerate_ideals(alg, side)
        assert {c.mask.tobytes() for c in census} == found
        assert len(census) == len(found)
        for c in census:
            audit_ideal(c)
            assert c.side == side
            if c.mask.tobytes() in least:
                assert c.generators == (least[c.mask.tobytes()],)


def test_sumset_over_several_chunks(monkeypatch, m2c2):
    monkeypatch.setattr(glab.ideals, "_SUMSET_PAIRS", 100)
    rng = np.random.default_rng(47)
    for na, nb in ((40, 30), (7, 150), (150, 7)):
        ia = rng.choice(m2c2.card, na, replace=False)
        ib = rng.choice(m2c2.card, nb, replace=False)
        amask = np.zeros(m2c2.card, dtype=bool)
        bmask = np.zeros(m2c2.card, dtype=bool)
        amask[ia] = bmask[ib] = True
        naive = np.zeros(m2c2.card, dtype=bool)
        # coefficientwise sums from the ring's own addition
        naive[[m2c2.encode(map(m2c2.ring.a, m2c2.decode(a), m2c2.decode(b)))
               for a in ia for b in ib]] = True
        assert np.array_equal(glab.ideals._sumset(m2c2, amask, bmask), naive)
