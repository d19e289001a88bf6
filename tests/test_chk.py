"""Checkability verdicts, censuses, and the block-intersection form."""

import pytest

import glab.verify
from glab.chk import ann_intersection_check, check_elements, is_checkable
from glab.config import DEFAULT_OP_BOUND
from glab.errors import ConstructionError, ScaleError
from glab.idem import (decompose_idempotent, enumerate_idempotents,
                       idempotent_order)
from glab.ideals import (annihilators, dual_code, enumerate_ideals,
                         principal_ideals, span)

from desk import fixture_algebra, fixture_workspace
from sets import elements_of


def _principals(alg):
    return {side: principal_ideals(alg, side, DEFAULT_OP_BOUND)
            for side in ("left", "right")}


def _ann(side):
    """The one-code side annihilator."""
    return lambda code: annihilators([code], side)[0]


def _census(name):
    """The (ideal, verdict) rows of a fixture's checkable census."""
    return fixture_workspace(name).checkable_census


def _parts_of_one(alg):
    return decompose_idempotent(alg, alg.one, idempotent_order(
        alg, enumerate_idempotents(alg)))


@pytest.fixture(scope="module")
def f2c2():
    return fixture_algebra("f2c2")


@pytest.fixture(scope="module")
def f3c2():
    return fixture_algebra("f3c2")


@pytest.fixture(scope="module")
def z4c2():
    return fixture_algebra("z4c2")


def test_desk_registry_labels():
    assert fixture_algebra("f2x2c2").label == "Z2[t]/(t^2)C2"
    assert fixture_algebra("m2f2c3").label == "M2(Z2)C3"


# ---------------------------------------------------------------------------
# single verdicts

def _verdict(c):
    return is_checkable(c, dual_code([c])[0], annihilators([c], "left")[0],
                        check_elements(c.alg, DEFAULT_OP_BOUND),
                        _principals(c.alg))


def test_verdict_frozen_f2c2(f2c2):
    v = _verdict(span(f2c2, [3], "right"))
    assert v.checkable and v.consistency
    assert v.check_element == 3
    assert v.ann_generator == 3
    assert v.dual_is_right_ideal and v.dual_generator == 3
    assert v.dual_principal_matches


def test_zero_ideal_checked_by_identity(f2c2):
    v = _verdict(span(f2c2, [], "right"))
    assert v.checkable and v.check_element == 1


def test_full_ideal_checked_by_zero(f2c2):
    v = _verdict(span(f2c2, [1], "right"))
    assert v.checkable and v.check_element == 0


def test_non_checkable_ideal_exists_z4c2(z4c2):
    # the span of 2(1 + g) is the unique right ideal here with no
    # check element; all three routes still agree that it has none
    c = span(z4c2, [10], "right")
    assert list(elements_of(c)) == [0, 10]
    v = _verdict(c)
    assert not v.checkable
    assert v.check_element is None and v.ann_generator is None
    assert v.dual_is_right_ideal and v.dual_generator is None
    assert v.consistency


def test_checkability_needs_right_ideal(f2c2):
    with pytest.raises(ConstructionError, match="right ideals"):
        _verdict(span(f2c2, [3], "left"))


def test_checkability_scale_gate(f2c2):
    with pytest.raises(ScaleError, match="exceeds the bound"):
        check_elements(f2c2, 2)


# ---------------------------------------------------------------------------
# censuses

@pytest.mark.parametrize("name,total", [
    ("f2c2", 3), ("f3c2", 4), ("f2c3", 4), ("f2s3", 15),
])
def test_census_fully_checkable(name, total):
    cen = _census(name)
    assert len(cen) == total
    assert all(v.checkable and v.consistency for _, v in cen)


def test_census_z4c2():
    cen = _census("z4c2")
    assert len(cen) == 7
    assert sum(v.checkable for _, v in cen) == 6
    # the three detection routes agree on every ideal, including the
    # non-checkable one
    assert all(v.consistency for _, v in cen)
    missing = [c for c, v in cen if not v.checkable]
    assert len(missing) == 1 and list(elements_of(missing[0])) == [0, 10]


def test_census_matrix_ring():
    # every right ideal is checkable, but for 12 of the 15 the dual
    # is not even a right ideal, so the dual-principality route
    # cannot see it: consistency holds only on the two-sided trio
    cen = _census("m2f2c2")
    assert len(cen) == 15
    consistent = [c for c, v in cen if v.consistency]
    assert sorted(c.cardinality for c in consistent) == [1, 16, 256]
    assert sum(v.dual_is_right_ideal for _, v in cen) == 3
    assert all(v.checkable and v.ann_generator is not None
               for _, v in cen)


def test_checkable_and_ann_routes_agree_everywhere():
    for name in ("f2c2", "f3c2", "f2c3", "z4c2", "f2s3", "m2f2c2"):
        for _, v in _census(name):
            assert (v.check_element is None) == (v.ann_generator is None)


# ---------------------------------------------------------------------------
# central block decomposition as intersections of annihilators

def test_intersection_form_f3c2(f3c2):
    parts = _parts_of_one(f3c2)
    census = enumerate_ideals(f3c2)
    assert ann_intersection_check(census, parts, _ann("right")) == ["ok"] * 4
    # each ideal is the span of the blocks it holds
    assert all(c.same_set(span(f3c2, blocks, "right")) for c, blocks in
               zip(census, [[], [8], [5], [5, 8]]))


def test_intersection_form_explicit_parts(f3c2):
    assert ann_intersection_check([span(f3c2, [8], "right")], [5, 8],
                                  _ann("right")) == ["ok"]


@pytest.mark.parametrize("name", ["f2s3", "m2f2c2", "ut2c1"])
def test_block_intersection_skips_noncentral_parts(name, monkeypatch):
    # centrality of the parts is the form's precondition, decided once by
    # the law: over a non-central refinement of 1 it skips, and the form
    # is never called
    def called(*args):
        raise AssertionError("the form ran on non-central parts")
    monkeypatch.setattr(glab.verify, "ann_intersection_check", called)
    ws = fixture_workspace(name)
    assert not ws.alg.central(ws.parts_of_one).all()
    assert glab.verify._block_intersection(ws) == (
        glab.verify.SKIP, "the canonical refinement of 1 is not central")


def test_intersection_form_z4c2(z4c2):
    parts = _parts_of_one(z4c2)
    statuses = ann_intersection_check(enumerate_ideals(z4c2), parts,
                                      _ann("right"))
    assert statuses == ["ok"] + ["not-a-block-sum"] * 5 + ["ok"]


def test_intersection_form_needs_right_ideal(f3c2):
    with pytest.raises(ConstructionError, match="right ideal"):
        ann_intersection_check([span(f3c2, [8], "left")], [5, 8],
                               _ann("right"))


def test_primitive_parts_default_is_decompose_one(f3c2):
    # the parts the block-intersection law passes: the canonical
    # refinement of 1
    assert _parts_of_one(f3c2) == [5, 8]


# ---------------------------------------------------------------------------
# dual quotient cardinality: |C| = |RG| / |dual(C)|

def test_dual_quotient_note(f2c2):
    c = span(f2c2, [3], "right")
    d, = dual_code([c])
    assert (c.cardinality, f2c2.card, d.cardinality) == (2, 4, 2)


def test_dual_quotient_note_across_census(z4c2):
    for c in enumerate_ideals(z4c2):
        assert c.cardinality * dual_code([c])[0].cardinality == z4c2.card
