"""Ideal lattice: spans, duals, annihilators, principality, census."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glab.config import DEFAULT_CENSUS_BOUND
from glab.errors import ConstructionError, ScaleError
from glab.finring import MatrixRing, PolyQuot, ProductRing, Zmod, build_ring
from glab.galg import GroupAlgebra
from glab.grp import (CyclicGroup, ProductGroup, SymmetricGroup, build_group)
from glab.ideals import (CodeSet, ann_right_of_element, annihilators,
                         dual_code, enumerate_ideals, pair_sums,
                         principal_ideals, side_closed, span)

from desk import FIXTURE_NAMES, fixture_algebra
from sets import code_of, elements_of, mask_of


def _pair(alg, x, y):
    """<x, y> = sum over g of x_g * y_g, from the algebra's form kernel."""
    return int(alg._form(alg.coeffs[x], alg.coeffs[y]))


def _alg(ring_spec, group_spec):
    return GroupAlgebra(build_ring(ring_spec), build_group(group_spec))


def _sum(a: CodeSet, b: CodeSet) -> CodeSet:
    """A + B, keyed by the sum of the forms, with A's side claim."""
    return CodeSet(a.alg, a.alg.sum_forms(a.form[None], b.form[None])[0], a.side)


def audit_ideal(code: CodeSet) -> None:
    """Full closure audit: additive subgroup plus the declared side. The
    form is found again from the elements, which are closed exactly when
    it has as many elements as the mask, and it is the form the set
    carries."""
    elems = elements_of(code)
    form = code.alg.subgroup_form(elems)
    if code.alg.subgroup_sizes(form[None])[0] != code.cardinality:
        raise ConstructionError(f"{code.alg.label}: set is not additively closed")
    assert np.array_equal(form, code.form)
    if code.side is not None:
        # element by element under the generators' maps, and by forms
        mask = mask_of(code)
        alg = code.alg
        closed = all(mask[alg.mul(g, elems) if code.side == "left"
                          else alg.mul(elems, g)].all()
                     for g in alg.generators)
        assert side_closed([code], [code.side])[0] == closed
        if not closed:
            raise ConstructionError(f"{code.alg.label}: set not closed "
                                    f"under {code.side} multiplication")


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
    assert list(elements_of(c)) == [0, 4, 8]
    assert c.cardinality == 3
    assert mask_of(c)[4] and not mask_of(c)[1]
    audit_ideal(c)


def test_span_of_nothing_is_zero(f3c2):
    z = span(f3c2, [], "right")
    assert z.cardinality == 1 and list(elements_of(z)) == [0]


def test_span_of_one_is_everything(f3c2):
    assert span(f3c2, [1], "right").cardinality == f3c2.card


def test_principal_matches_span(f2s3):
    # the principal ideal of u, from one generator, is the span of the
    # row (u, 0), which goes through the route of several generators
    rng = np.random.default_rng(4021)
    for u in rng.integers(0, f2s3.card, size=8):
        for side in ("right", "left"):
            assert span(f2s3, [int(u)], side).same_set(
                span(f2s3, [int(u), 0], side))


def test_left_and_right_spans_differ_noncommutatively(m2c2):
    # E11 at the identity: index 1. Row space vs column space.
    right = span(m2c2, [1], "right")
    left = span(m2c2, [1], "left")
    assert right.cardinality == 16 and left.cardinality == 16
    assert not right.same_set(left)


def test_audit_rejects_wrong_side_claim():
    # Column ideal M*E11 inside M2(F2) over the trivial group is left
    # but not right closed.
    alg = _alg(MatrixRing(2, Zmod(2)), CyclicGroup(1))
    col = span(alg, [1], "left")
    audit_ideal(col)
    assert not side_closed([col], ["right"])[0]
    fake = CodeSet(alg, col.form, side="right")
    with pytest.raises(ConstructionError):
        audit_ideal(fake)


def test_additive_basis_spans_and_is_small(f2s3):
    # the rows of the form, lifted back to RG, are an additive basis
    c = span(f2s3, [f2s3.encode([1, 1, 0, 0, 0, 0])], "right")
    basis = f2s3.stacked_rows(c.form[None])[0]
    assert 2 ** len(basis) == c.cardinality  # char 2: basis is F2-linear
    rebuilt = span(f2s3, basis, "right")
    assert rebuilt.same_set(c)
    assert np.array_equal(_naive_subgroup(f2s3, basis.tolist()), mask_of(c))


def test_additive_basis_rejects_unclosed_set(f2c2):
    # {0, 1} is additively closed over F2C2 (1 + 1 = 0), and adding a
    # lone extra element g breaks closure: the form of {0, 1, g} counts
    # the four elements they generate, more than the set holds, which is
    # how `audit_ideal` refuses a set
    form = f2c2.subgroup_form([0, 1, 2])
    assert f2c2.subgroup_sizes(form[None])[0] == 4
    assert mask_of(CodeSet(f2c2, form)).all()


# ---------------------------------------------------------------------------
# sums and intersections

def test_sum_and_intersect_frozen(f3c2):
    c = span(f3c2, [8], "right")   # {0, 1+g, 2+2g}
    d = span(f3c2, [5], "right")   # {0, 2+g, 1+2g}
    s = span(f3c2, [8, 5], "right")
    assert s.same_set(_sum(c, d))
    assert s.cardinality == f3c2.card
    assert (mask_of(c) & mask_of(d)).sum() == 1


def test_sum_is_join_in_census(f2c3):
    census = enumerate_ideals(f2c3)
    keys = {c.key() for c in census}
    sums = pair_sums(census)
    for i, a in enumerate(census):
        for j, b in enumerate(census):
            assert sums[i, j].tobytes() in keys
            assert code_of(f2c3, mask_of(a) & mask_of(b)).key() in keys


# ---------------------------------------------------------------------------
# duals

def test_dual_frozen_f3c2(f3c2):
    c = span(f3c2, [8], "right")
    d = dual_code([c])[0]
    assert list(elements_of(d)) == [0, 5, 7]
    assert d.side == "right"


def test_dual_of_zero_and_full(f2c3):
    z = span(f2c3, [], "right")
    assert dual_code([z])[0].cardinality == f2c3.card
    assert dual_code([span(f2c3, [1], "right")])[0].cardinality == 1


def test_dual_size_product_all_right_ideals(f2c2, f3c2, f2c3, f2s3):
    for alg in (f2c2, f3c2, f2c3, f2s3):
        for c in enumerate_ideals(alg):
            d = dual_code([c])[0]
            assert c.cardinality * d.cardinality == alg.card


def test_dual_reverses_lattice(f3c2, f2c3):
    for alg in (f3c2, f2c3):
        census = enumerate_ideals(alg)
        for a in census:
            for b in census:
                ds = dual_code([_sum(a, b)])[0]
                da, db = dual_code([a, b])
                assert np.array_equal(mask_of(ds), mask_of(da) & mask_of(db))
                dI, = dual_code([code_of(alg, mask_of(a) & mask_of(b), "right")])
                dS = _sum(da, db)
                assert dI.same_set(dS)


def test_double_dual_is_identity(f3c2, f2s3):
    for alg in (f3c2, f2s3):
        for c in enumerate_ideals(alg):
            d = dual_code([c])[0]
            assert dual_code([d])[0].same_set(c)


def test_dual_via_involution_of_left_annihilator(f2s3, m2c2):
    # dual(C) is the involution image of Ann_l(C) for a right ideal and of
    # Ann_r(C) for a left one, and |C| * |dual(C)| = |RG|, on every ideal
    # of a commutative-base and a matrix-base algebra
    for alg in (f2s3, m2c2):
        hat = alg.hat_all
        for side, other in (("right", "left"), ("left", "right")):
            census = enumerate_ideals(alg, side)
            for c, d, a in zip(census, dual_code(census),
                               annihilators(census, other)):
                image = np.zeros(alg.card, dtype=bool)
                image[hat[elements_of(a)]] = True
                assert np.array_equal(mask_of(d), image)
                assert c.cardinality * d.cardinality == alg.card


def test_dual_of_left_ideal(f3c2, m2c2):
    for alg in (f3c2, m2c2):
        for u in (0, 1, 5):
            c = span(alg, [u], "left")
            d = dual_code([c])[0]
            assert c.cardinality * d.cardinality == alg.card


def test_left_dual_uses_first_slot_orientation(m2c2):
    # For C = RG*E11 the two orientations genuinely differ: only
    # elements a with <c, a> = 0 form a set of the right size.
    c = span(m2c2, [1], "left")
    d = dual_code([c])[0]
    assert c.cardinality * d.cardinality == m2c2.card
    for a in elements_of(d):
        for x in elements_of(c):
            assert _pair(m2c2, int(x), int(a)) == 0
    # second-slot orthogonality would cut the set to {0}
    strict = [a for a in elements_of(d)
              if all(_pair(m2c2, int(a), int(x)) == 0 for x in elements_of(c))]
    assert strict == [0]


def test_left_duals_match_right_duals_commutatively(f3c2, f2c3):
    for alg in (f3c2, f2c3):
        for c in enumerate_ideals(alg, "left"):
            d = dual_code([c])[0]
            assert d.side == "left"
            as_right = CodeSet(alg, c.form, side="right")
            assert np.array_equal(mask_of(d),
                                  mask_of(dual_code([as_right])[0]))


def test_noncommutative_dual_loses_right_closure(m2c2):
    # C = E11*RG; its dual is RG*E22, a left ideal that is not a
    # right ideal, so no side claim may survive.
    c = span(m2c2, [1], "right")
    d = dual_code([c])[0]
    assert d.side is None
    assert side_closed([d, d], ["left", "right"]).tolist() == [True, False]
    # and it is exactly the left span of E22 at the identity
    e22 = m2c2.scalar_elem(8)
    assert np.array_equal(mask_of(d), mask_of(span(m2c2, [e22], "left")))


def test_commutative_duals_keep_their_side(f2c2, f3c2, f2c3):
    for alg in (f2c2, f3c2, f2c3):
        for c in enumerate_ideals(alg):
            assert dual_code([c])[0].side == "right"


# ---------------------------------------------------------------------------
# annihilators

def test_ann_right_frozen_f2c2(f2c2):
    left = span(f2c2, [3], "left")
    assert list(elements_of(annihilators([left], "right")[0])) == [0, 3]


def test_ann_of_element_equals_ann_of_its_span(f2s3, m2c2):
    rng = np.random.default_rng(7711)
    for alg in (f2s3, m2c2):
        for u in rng.integers(1, alg.card, size=6):
            u = int(u)
            assert ann_right_of_element(alg, u).same_set(
                annihilators([span(alg, [u], "left")], "right")[0])
            zeros = alg.mul(np.arange(alg.card), u) == 0
            assert np.array_equal(zeros, mask_of(
                annihilators([span(alg, [u], "right")], "left")[0]))


def test_annihilator_sizes_multiply(f2c2, f3c2, f2c3, f2s3, m2c2):
    for alg in (f2c2, f3c2, f2c3, f2s3, m2c2):
        for c in enumerate_ideals(alg):
            ann = annihilators([c], "left")[0]
            assert ann.cardinality * c.cardinality == alg.card
        for c in enumerate_ideals(alg, "left"):
            ann = annihilators([c], "right")[0]
            assert ann.cardinality * c.cardinality == alg.card


def test_double_annihilator_restores_ideal(f3c2, f2s3, m2c2):
    for alg in (f3c2, f2s3, m2c2):
        for side, other in (("right", "left"), ("left", "right")):
            census = enumerate_ideals(alg, side)
            for c, a in zip(census, annihilators(
                    annihilators(census, other), side)):
                assert a.same_set(c)


def test_annihilators_are_proper_sided_ideals(m2c2):
    c = span(m2c2, [1], "right")
    al = annihilators([c], "left")[0]
    assert al.side == "left"
    audit_ideal(al)
    ar = annihilators([span(m2c2, [1], "left")], "right")[0]
    assert ar.side == "right"
    audit_ideal(ar)


def test_annihilator_tables_are_gated_before_they_are_built(f3c2):
    # F3C2 has 9 elements: past a bound of 2, annihilators of either
    # side and ann_right_of_element refuse before any kernel class is
    # keyed; the annihilators of sets are kernels of their own and key
    # no class, those of elements key the right kernels (from the left
    # images)
    alg = GroupAlgebra(f3c2.ring, f3c2.group)
    c = code_of(alg, np.arange(alg.card) == 0)
    for side in ("left", "right"):
        with pytest.raises(ScaleError, match="annihilator table over 9 "
                                             "elements exceeds the bound 2"):
            annihilators([c], side, bound=2)
    with pytest.raises(ScaleError, match="exceeds the bound 2"):
        ann_right_of_element(alg, 1, bound=2)
    assert alg._least == {}
    assert annihilators([c], "left", bound=9)[0].cardinality == 9
    assert alg._least == {}
    assert ann_right_of_element(alg, 1, bound=9).cardinality == 1
    assert list(alg._least) == [("left", False), ("right", True)]


# ---------------------------------------------------------------------------
# principality

def _least_generator(code):
    return principal_ideals(code.alg, code.side).get(code.key())


def test_is_principal_frozen(f3c2):
    c = span(f3c2, [8], "right")
    assert _least_generator(c) == 4  # 1 + g generates the same ideal


def test_radical_of_klein_group_algebra_not_principal():
    alg = _alg(Zmod(2), ProductGroup((CyclicGroup(2), CyclicGroup(2))))
    s = alg.encode([1, 1, 0, 0])
    t = alg.encode([1, 0, 1, 0])
    aug = span(alg, [s, t], "right")
    assert aug.cardinality == 8
    assert _least_generator(aug) is None
    assert _least_generator(span(alg, [s], "right")) is not None


def test_principal_reads_the_side_table_once_built(monkeypatch):
    # before the table, the image of u's map; after it, the table's ideal
    # of u's least generator, named by u, with no map computed. A fresh
    # algebra, so no other test has built its tables
    alg = _alg(MatrixRing(2, Zmod(2)), CyclicGroup(2))
    before = {side: [span(alg, [u], side) for u in range(alg.card)]
              for side in ("right", "left")}
    for side in ("right", "left"):
        assert side not in alg.principal_sets
        table = principal_ideals(alg, side)
        leasts, _, rows = alg.canonical_classes(side)
        least = leasts[rows]
        monkeypatch.setattr(GroupAlgebra, "_product", None)
        for u, code in zip(range(alg.card), before[side]):
            got = span(alg, [u], side)
            assert got.same_set(code)
            assert got.side == side
            assert table[got.key()] == least[u]
        monkeypatch.undo()


def test_is_principal_needs_side(f2c2):
    # the principal table is one side's; a bare set has none
    with pytest.raises(ConstructionError):
        principal_ideals(f2c2, None)
    with pytest.raises(ScaleError, match="principal-ideal census"):
        principal_ideals(f2c2, "right", bound=2)


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
    assert a[0].cardinality == 1 and a[-1].cardinality == a[0].alg.card
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
    for u in range(alg.card):
        m = np.zeros(alg.card, dtype=bool)
        m[alg.mul(u, every) if side == "right" else alg.mul(every, u)] = True
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


_CENSUS_FIXTURES = [name for name in FIXTURE_NAMES
                     if "corrupt" not in name and name != "m2f2c3"]


@pytest.mark.parametrize("name", _CENSUS_FIXTURES)
def test_census_matches_brute_force(name):
    alg = fixture_algebra(name)
    assert alg.card <= DEFAULT_CENSUS_BOUND
    for side in ("right", "left"):
        found, least = _brute_census(alg, side)
        census = enumerate_ideals(alg, side)
        assert {mask_of(c).tobytes() for c in census} == found
        assert len(census) == len(found)
        table = principal_ideals(alg, side)
        for c in census:
            audit_ideal(c)
            assert c.side == side
            assert table.get(c.key()) == least.get(mask_of(c).tobytes())


def test_census_of_m2f2c3_ends_after_one_round(monkeypatch):
    # every right ideal of M2(Z2)C3 is principal, so the first round, one
    # batched sum of all 35 * 34 / 2 pairs of principal ideals, finds no
    # new member and the census stops
    alg = fixture_algebra("m2f2c3")
    sums = []
    sum_forms = GroupAlgebra.sum_forms
    monkeypatch.setattr(GroupAlgebra, "sum_forms", lambda self, a, b: (
        sums.append((a, b)) or sum_forms(self, a, b)))
    assert len(enumerate_ideals(alg, "right", bound=alg.card)) == 35
    assert len(principal_ideals(alg, "right", bound=alg.card)) == 35
    assert [(len(a), len(b)) for a, b in sums] == [(595, 595)]


def _naive_add(alg, x, y):
    return alg.encode(map(lambda s, t: int(alg.ring.add[s, t]), alg.coeffs[x], alg.coeffs[y]))


def _naive_subgroup(alg, gens):
    """Mask of the additive closure of gens by coefficientwise sums."""
    found = frontier = {0}
    while frontier:
        frontier = {_naive_add(alg, s, g) for s in frontier for g in gens} - found
        found = found | frontier
    mask = np.zeros(alg.card, dtype=bool)
    mask[list(found)] = True
    return mask


@pytest.fixture(scope="module")
def z4c3():
    return _alg(Zmod(4), CyclicGroup(3))


@pytest.mark.parametrize("name", ["m2c2", "z4c3"])
def test_sumset_of_random_subgroups(request, name):
    alg = request.getfixturevalue(name)
    rng = np.random.default_rng(47)
    deep = 0
    for _ in range(8):
        amask, bmask = (_naive_subgroup(alg, rng.choice(alg.card, k).tolist())
                        for k in rng.integers(1, 3, 2))
        naive = np.zeros(alg.card, dtype=bool)
        naive[[_naive_add(alg, a, b) for a in np.flatnonzero(amask)
               for b in np.flatnonzero(bmask)]] = True
        got = _sum(code_of(alg, amask), code_of(alg, bmask))
        assert np.array_equal(mask_of(got), naive)
        assert np.array_equal(got.form, alg.subgroup_form(np.flatnonzero(naive)))
        # some b of order 4 modulo A: A + b and A + 2b are both new cosets
        deep += any(not amask[b] and not amask[_naive_add(alg, b, b)]
                    for b in np.flatnonzero(bmask))
    assert deep > 0 if name == "z4c3" else deep == 0


# small group algebras over Zmod, PolyQuot and product rings; Z8 has
# elements of additive order 8, so a coset chain S + x, S + 2x, ... runs
# long, and Z6, Z12 and Z2 x Z4 have coordinates of mixed moduli
_SMALL = {
    "Z2C3": (Zmod(2), CyclicGroup(3)),
    "Z3C3": (Zmod(3), CyclicGroup(3)),
    "Z4C2": (Zmod(4), CyclicGroup(2)),
    "Z8C2": (Zmod(8), CyclicGroup(2)),
    "Z6C2": (Zmod(6), CyclicGroup(2)),
    "Z12C2": (Zmod(12), CyclicGroup(2)),
    "(Z2xZ4)C2": (ProductRing((Zmod(2), Zmod(4))), CyclicGroup(2)),
    "Z2C2xC2": (Zmod(2), ProductGroup((CyclicGroup(2), CyclicGroup(2)))),
    "GF(4)C2": (PolyQuot(2, (1, 1, 1)), CyclicGroup(2)),
}


@functools.cache
def _small(name):
    """The algebra and its addition table from decoded coefficients."""
    alg = _alg(*_SMALL[name])
    add = np.array([[_naive_add(alg, x, y) for y in range(alg.card)]
                    for x in range(alg.card)])
    return alg, add


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_stacked_sumset_of_random_subgroups(data):
    # a stack of forms A_i against one form B, in one batched sum
    alg, add = _small(data.draw(st.sampled_from(sorted(_SMALL))))
    gens = st.lists(st.integers(0, alg.card - 1), max_size=3)
    ops = [code_of(alg, _naive_subgroup(alg, g))
           for g in data.draw(st.lists(gens, min_size=1, max_size=4))]
    b = code_of(alg, _naive_subgroup(alg, data.draw(gens)))
    got = alg.sum_forms(np.array([a.form for a in ops]), b.form)
    assert got.shape == (len(ops), len(b.form))
    for form, a in zip(got, ops):
        naive = np.zeros(alg.card, dtype=bool)
        naive[add[np.ix_(elements_of(a), elements_of(b))]] = True
        assert np.array_equal(alg.subgroup_mask(form), naive)
        assert alg.subgroup_sizes(form[None])[0] == naive.sum()
        # the rows of the form, lifted back to RG, generate the sum
        assert np.array_equal(
            _naive_subgroup(alg, alg.stacked_rows(form[None])[0].tolist()), naive)
